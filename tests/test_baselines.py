"""Reference policies: exhaustive search, matched-beam TDMA, uniform random."""

import itertools

import numpy as np
import pytest
from scipy import stats

from skycell.baselines import (BruteForceCapExceeded, brute_force_search,
                               mrt_snrs, mrt_tdma_sum_rate, random_policy)
from skycell.channel import ChannelSet, array_response
from skycell.environment import EnvConfig, NetworkEnv, RewardSpec
from skycell.kernels import beam_gains, serving_beams
from skycell.radio import PowerSet, TxConfig, dft_codebook
from skycell.scenario import ScenarioConfig

from helpers import drawn_channels, sinr_all, sum_rate

NOISE = 10.0 ** -11.5


def _mrt_beams(channels, codebook):
    return serving_beams(beam_gains(channels.h, codebook.codewords))


def test_brute_force_matches_hand_enumeration():
    rng = np.random.default_rng(0)
    h = (rng.normal(size=(1, 1, 2)) + 1j * rng.normal(size=(1, 1, 2)))
    channels = ChannelSet(h=h)
    codebook = dft_codebook(2, 2)
    powers = PowerSet(levels_dbm=np.array([27.0, 30.0]))
    result = brute_force_search(channels, codebook, powers, NOISE)
    assert result.num_evaluated == 4
    best = -1.0
    for p, b in itertools.product(range(2), range(2)):
        tx = TxConfig(power_idx=np.array([p]), beam_idx=np.array([b]))
        rate = sum_rate(sinr_all(channels, tx, codebook, powers, NOISE))
        best = max(best, rate)
    assert result.sum_rate == pytest.approx(best, rel=1e-12)


def test_brute_force_dominates_random_configs():
    _, channels = drawn_channels(3, num_cells=2)
    codebook = dft_codebook(4, 4)
    powers = PowerSet(levels_dbm=np.array([24.0, 27.0, 30.0]))
    result = brute_force_search(channels, codebook, powers, NOISE)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        tx = TxConfig(power_idx=rng.integers(0, 3, 2),
                      beam_idx=rng.integers(0, 4, 2))
        rate = sum_rate(sinr_all(channels, tx, codebook, powers, NOISE))
        assert rate <= result.sum_rate * (1 + 1e-12)


def test_brute_force_single_cell_picks_max_power_and_sweep_beam():
    _, channels = drawn_channels(5, num_cells=1)
    codebook = dft_codebook(4, 8)
    powers = PowerSet(levels_dbm=np.array([24.0, 27.0, 30.0]))
    result = brute_force_search(channels, codebook, powers, NOISE)
    assert result.tx.power_idx.tolist() == [2]
    assert result.tx.beam_idx.tolist() == _mrt_beams(channels, codebook).tolist()


def test_brute_force_all_zero_channels_tie_to_first_config():
    channels = ChannelSet(h=np.zeros((2, 2, 4), np.complex128))
    codebook = dft_codebook(4, 4)
    powers = PowerSet(levels_dbm=np.array([27.0, 30.0]))
    result = brute_force_search(channels, codebook, powers, NOISE)
    assert result.sum_rate == 0.0
    assert result.tx.power_idx.tolist() == [0, 0]
    assert result.tx.beam_idx.tolist() == [0, 0]
    assert result.num_evaluated == (2 * 4) ** 2


def test_brute_force_cap_refuses_before_work():
    _, channels = drawn_channels(7, num_cells=2)
    codebook = dft_codebook(4, 8)
    powers = PowerSet(levels_dbm=np.array([27.0, 30.0]))
    with pytest.raises(BruteForceCapExceeded):
        brute_force_search(channels, codebook, powers, NOISE, cap=255)


def _los_channels(angles, num_antennas, gain=1.0):
    n = len(angles)
    h = np.zeros((n, n, num_antennas), np.complex128)
    for l, theta in enumerate(angles):
        h[l, l] = np.sqrt(gain) * array_response(theta, num_antennas)
    return ChannelSet(h=h)


def test_mrt_select_recovers_grid_angles():
    codebook = dft_codebook(4, 4)
    channels = _los_channels([float(codebook.angles[2]),
                              float(codebook.angles[1])], 4)
    assert _mrt_beams(channels, codebook).tolist() == [2, 1]


def test_mrt_select_scale_invariant():
    _, channels = drawn_channels(9, num_cells=2)
    codebook = dft_codebook(4, 8)
    base = _mrt_beams(channels, codebook)
    scaled = ChannelSet(h=channels.h * 37.5)
    assert _mrt_beams(scaled, codebook).tolist() == base.tolist()


def test_serving_beams_ties_go_to_the_lowest_index():
    # only the serving gains count: cross gains are larger but ignored
    gains = np.ones((3, 3, 5))
    gains[0, 1] = gains[1, 0] = 7.0
    assert serving_beams(gains).tolist() == [0, 0, 0]
    gains[2, 2, [1, 3]] = 2.0
    assert serving_beams(gains).tolist() == [0, 0, 1]


def test_mrt_beam_gain_floor_on_line_of_sight_sweep():
    # with a square unitary codebook the best beam keeps at least ~40% of
    # the matched-filter gain ||h||^2 even between grid angles
    for m in (4, 8):
        codebook = dft_codebook(m, m)
        for theta in np.linspace(-np.pi / 2, np.pi / 2, 1000):
            h = array_response(float(theta), m)
            gains = np.abs(codebook.codewords @ np.conj(h)) ** 2
            ratio = gains.max() / float(np.vdot(h, h).real)
            assert 0.4 <= ratio <= 1.0 + 1e-12


def test_mrt_beam_gain_parseval_floor_random_channels():
    rng = np.random.default_rng(11)
    codebook = dft_codebook(4, 4)
    for _ in range(200):
        h = rng.normal(size=4) + 1j * rng.normal(size=4)
        gains = np.abs(codebook.codewords @ np.conj(h)) ** 2
        norm = float(np.vdot(h, h).real)
        assert gains.sum() == pytest.approx(norm, rel=1e-9)
        assert gains.max() >= norm / 4 - 1e-12


def test_mrt_tdma_single_cell_is_full_rate():
    _, channels = drawn_channels(5, num_cells=1)
    codebook = dft_codebook(4, 8)
    powers = PowerSet(levels_dbm=np.array([27.0, 30.0]))
    snr = mrt_snrs(channels, codebook, powers, NOISE)
    rate = mrt_tdma_sum_rate(snr)
    assert rate == pytest.approx(np.log2(1 + snr[0]), rel=1e-12)


def test_mrt_tdma_all_dropped_is_zero():
    _, channels = drawn_channels(5, num_cells=2)
    codebook = dft_codebook(4, 8)
    powers = PowerSet(levels_dbm=np.array([27.0, 30.0]))
    assert mrt_tdma_sum_rate(mrt_snrs(channels, codebook, powers, NOISE),
                             gamma_min_db=200.0) == 0.0


def test_mrt_tdma_flat_in_l_for_identical_links():
    codebook = dft_codebook(4, 4)
    powers = PowerSet(levels_dbm=np.array([27.0, 30.0]))
    theta = 0.31
    values = []
    for n in (1, 2, 3, 5):
        channels = _los_channels([theta] * n, 4, gain=1e-9)
        values.append(mrt_tdma_sum_rate(mrt_snrs(channels, codebook, powers,
                                                 NOISE)))
    assert values[0] > 1.0
    for v in values[1:]:
        assert v == values[0]


def test_mrt_tdma_drop_rule_and_idle_slots():
    codebook = dft_codebook(4, 4)
    powers = PowerSet(levels_dbm=np.array([30.0]))
    theta = float(codebook.angles[1])
    channels = _los_channels([theta, theta], 4, gain=1e-9)
    # shrink cell 1's serving link so its SNR lands below a chosen threshold
    h = channels.h.copy()
    h[1, 1] *= 1e-3
    channels = ChannelSet(h=h)
    snr = mrt_snrs(channels, codebook, powers, NOISE)
    cut_db = 10 * np.log10(np.sqrt(snr[0] * snr[1]))
    rate = mrt_tdma_sum_rate(snr, gamma_min_db=cut_db)
    survivors = snr > 10 ** (cut_db / 10)
    assert survivors.tolist() == [True, False]
    # the dropped cell's slot stays idle: total still divides by L = 2
    assert rate == pytest.approx(np.log2(1 + snr[0]) / 2, rel=1e-12)


def test_mrt_continuous_upper_bounds_codebook():
    for seed in range(5):
        _, channels = drawn_channels(20 + seed, num_cells=2)
        codebook = dft_codebook(4, 8)
        powers = PowerSet(levels_dbm=np.array([27.0, 30.0]))
        swept = mrt_snrs(channels, codebook, powers, NOISE)
        matched = mrt_snrs(channels, codebook, powers, NOISE, continuous=True)
        assert np.all(matched >= swept * (1 - 1e-12))


def test_random_policy_uniform_and_deterministic():
    rng = np.random.default_rng(6)
    counts = np.zeros(16, dtype=int)
    for _ in range(10_000):
        bits = random_policy(rng, 2)
        idx = 0
        for b in bits:
            idx = (idx << 1) | int(b)
        counts[idx] += 1
    expected = 10_000 / 16
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < stats.chi2.ppf(0.999, df=15)
    first = np.random.default_rng(42)
    second = np.random.default_rng(42)
    for _ in range(50):
        assert random_policy(first, 3).tolist() == random_policy(second, 3).tolist()


def test_random_rollout_never_beats_the_oracle():
    env = NetworkEnv(EnvConfig(
        scenario=ScenarioConfig(num_cells=2),
        power_levels_dbm=(27.0, 28.0, 29.0, 30.0),
        codebook_size=4,
        horizon=25,
        reward=RewardSpec(gamma_min_db=-30.0),
    ))
    env.reset(13)
    brute = brute_force_search(env.channels, env.codebook, env.powers,
                               env.noise_watts)
    rng = np.random.default_rng(2)
    done = False
    while not done:
        outcome = env.step(random_policy(rng, 2))
        done = outcome.done
        assert outcome.info["sum_rate"] <= brute.sum_rate * (1 + 1e-12)
