"""Kernels against direct per-element computations and exhaustive search."""

import itertools

import numpy as np
import pytest

from helpers import (drawn_channels, reference_brute_force,
                     reference_decode_config, reference_rx_powers)
from skycell import kernels
from skycell.baselines import brute_force_search
from skycell.environment import EnvConfig, NetworkEnv
from skycell.radio import PowerSet, dft_codebook
from skycell.scenario import ScenarioConfig

def _instance(seed, num_cells=3, num_antennas=4, codebook_size=8, num_levels=4):
    _, channels = drawn_channels(seed, num_cells, num_antennas)
    codebook = dft_codebook(num_antennas, codebook_size)
    gains = kernels.beam_gains(channels.h, codebook.codewords)
    p_watts = PowerSet(np.arange(27.0, 27.0 + num_levels)).watts()
    return channels, codebook, gains, p_watts


def test_beam_gains_match_direct_projections():
    channels, codebook, gains, _ = _instance(0)
    n, w = channels.num_cells, codebook.size
    assert gains.shape == (n, n, w)
    for j in range(n):
        for l in range(n):
            for i in range(w):
                amp = np.vdot(channels.h[j, l], codebook.codewords[i])
                want = amp.real * amp.real + amp.imag * amp.imag
                np.testing.assert_allclose(gains[j, l, i], want, rtol=1e-12)


def test_rx_powers_match_manual_sums():
    _, _, gains, p_watts = _instance(1)
    n = gains.shape[0]
    rng = np.random.default_rng(2)
    for _ in range(20):
        p_idx = rng.integers(0, p_watts.size, n)
        beams = rng.integers(0, gains.shape[2], n)
        signal, interference = kernels.rx_powers(
            gains, p_watts[p_idx], beams)
        # bit for bit the ascending-index loop the environment always used
        want_s, want_i = reference_rx_powers(gains, p_watts[p_idx], beams)
        np.testing.assert_array_equal(signal, want_s)
        np.testing.assert_array_equal(interference, want_i)
        for l in range(n):
            contrib = [p_watts[p_idx[j]] * gains[j, l, beams[j]]
                       for j in range(n)]
            np.testing.assert_allclose(signal[l], contrib[l], rtol=1e-12)
            want_i = sum(contrib) - contrib[l]
            np.testing.assert_allclose(interference[l], want_i, rtol=1e-9)


@pytest.mark.parametrize("num_cells", [1, 2, 3, 5])
def test_batched_rx_matrix_equals_the_unbatched_call(num_cells):
    # the batch runs along the trailing axes; each column is bit for bit the
    # one-configuration call a step makes
    rng = np.random.default_rng(num_cells)
    gains = 10.0 ** rng.uniform(-12, -6, (num_cells, num_cells, 8))
    beams = rng.integers(0, 8, num_cells)
    batch = 10.0 ** rng.uniform(-1, 0, (num_cells, 300))
    r = kernels.rx_matrix(gains, batch, beams)
    assert r.shape == (num_cells, num_cells, 300)
    signal, interference = kernels._split(r)
    for k in range(batch.shape[1]):
        want = kernels.rx_matrix(gains, batch[:, k], beams)
        assert r[..., k].tobytes() == want.tobytes()
        want_s, want_i = kernels._split(want)
        assert signal[:, k].tobytes() == want_s.tobytes()
        assert interference[:, k].tobytes() == want_i.tobytes()
    # more than one batch axis keeps the same layout
    grid = kernels.rx_matrix(gains, batch.reshape(num_cells, 15, 20), beams)
    np.testing.assert_array_equal(grid, r.reshape(grid.shape))


def test_decode_config_inverts_lexicographic_enumeration():
    # a code is its index tuple's position in C order over (P,)*L + (W,)*L
    n_cells, n_power, n_beams = 2, 3, 4
    shape = (n_power,) * n_cells + (n_beams,) * n_cells
    tuples = list(itertools.product(*(range(r) for r in shape)))
    for code, want in enumerate(tuples):
        assert tuple(int(d) for d in np.unravel_index(code, shape)) == want
        powers, beams = reference_decode_config(code, n_cells, n_power,
                                                n_beams)
        assert tuple(powers) + tuple(beams) == want
    for radix, width in ((3, 2), (4, 1), (2, 3), (5, 0)):
        want = list(itertools.product(range(radix), repeat=width))
        assert [tuple(row) for row in kernels._index_grid(radix, width)] == want


def test_brute_force_matches_python_enumeration():
    channels, codebook, gains, p_watts = _instance(3, num_cells=2,
                                                   codebook_size=4)
    noise = 3e-12
    n = channels.num_cells
    best_rate = -1.0
    best_code = -1
    configs = itertools.product(range(p_watts.size), repeat=n)
    configs = itertools.product(configs, itertools.product(
        range(codebook.size), repeat=n))
    for code, (powers, beams) in enumerate(configs):
        rate = 0.0
        for l in range(n):
            contrib = [p_watts[powers[j]] * gains[j, l, beams[j]]
                       for j in range(n)]
            rate += np.log2(1.0 + contrib[l]
                            / (sum(contrib) - contrib[l] + noise))
        if rate > best_rate:
            best_rate = rate
            best_code = code
    got_rate, got_code, evaluated = kernels.brute_force(gains, p_watts, noise)
    assert got_code == best_code
    assert evaluated == (p_watts.size * codebook.size) ** n
    np.testing.assert_allclose(got_rate, best_rate, rtol=1e-9)


# (P, W) shapes per cell count; P = 1 and W = 1 leave one axis of the scan
# a single entry
_SCAN_SHAPES = {1: [(3, 5), (4, 8), (2, 3)],
                2: [(3, 5), (4, 8), (2, 3), (1, 8)],
                3: [(3, 5), (4, 8), (2, 3), (10, 1)],
                4: [(2, 3)],
                5: [(2, 2)]}


@pytest.mark.parametrize("num_cells", sorted(_SCAN_SHAPES))
def test_brute_force_equals_the_code_order_scan(num_cells):
    # the same (rate, code, count) as a scan over codes in ascending order,
    # also on rounded tables full of ties and on all-zero tables
    noise = 3e-12
    for seed, (n_power, n_beams) in enumerate(_SCAN_SHAPES[num_cells]):
        _, _, gains, p_watts = _instance(10 * num_cells + seed, num_cells,
                                         codebook_size=n_beams,
                                         num_levels=n_power)
        rounded = np.round(gains / gains.max(), 1) * gains.max()
        for table in (gains, rounded, np.zeros_like(gains)):
            assert (kernels.brute_force(table, p_watts, noise)
                    == reference_brute_force(table, p_watts, noise))


@pytest.mark.parametrize("num_cells,n_power,n_beams",
                         [(1, 10, 8), (2, 10, 8), (3, 10, 8), (3, 3, 5),
                          (4, 3, 3), (5, 2, 3), (8, 1, 1), (9, 1, 1),
                          (10, 1, 1)])
def test_oracle_rates_its_winner_as_a_step_does(num_cells, n_power, n_beams):
    # a one-configuration batch must still add its cells in order: seeds 0-5
    # include draws where a pairwise sum differs in the last bit at L >= 8
    levels = tuple(float(v) for v in np.linspace(21.0, 30.0, n_power))
    env = NetworkEnv(EnvConfig(scenario=ScenarioConfig(num_cells=num_cells),
                               codebook_size=n_beams,
                               power_levels_dbm=levels))
    for seed in range(6):
        env.reset(seed)
        found = brute_force_search(env.channels, env.codebook, env.powers,
                                   env.noise_watts)
        state = env.link_state(tx=found.tx)
        assert found.sum_rate == sum(state.rate.tolist())


def test_brute_force_tie_across_beam_vectors_keeps_the_smaller_code():
    # codeword 1 has exactly twice codeword 0's gains and the top power level
    # is twice the bottom one, so (p=1, b=0) and (p=0, b=1) are the same
    # received powers. This draw's optimum puts cell 0 at that level: its
    # smaller code, (p=0, b=1), sits in a later beam vector than (p=1, b=0).
    rng = np.random.default_rng(620)
    g0 = 10.0 ** rng.uniform(-3, 1, (3, 3))
    gains = np.stack([g0, 2.0 * g0], axis=-1)
    p_watts = np.array([1.0, 2.0])
    rate, code, evaluated = kernels.brute_force(gains, p_watts, 0.1)
    assert (rate, code, evaluated) == reference_brute_force(gains, p_watts, 0.1)
    assert np.unravel_index(code, (2,) * 6) == (0, 1, 1, 1, 1, 1)
    # its twin (p=(1, 1, 1), b=(0, 1, 1)) rates exactly the same
    signal, interference = kernels.rx_powers(gains, p_watts[[1, 1, 1]],
                                             np.array([0, 1, 1]))
    assert np.log2(1.0 + signal / (interference + 0.1)).sum() == rate


def test_brute_force_tie_inside_one_scan_keeps_the_smaller_code():
    # the last cell's codeword 1 has exactly twice its codeword 0's gains and
    # the top power level is twice the bottom one, so (p=1, b=0) and (p=0,
    # b=1) for the last cell are the same received powers and rate together
    # in one scan. This draw's optimum puts the last cell at that level; its
    # smaller code, (p=0, b=1), is not argmax's first hit in (W, P^L) order.
    rng = np.random.default_rng(7)
    gains = 10.0 ** rng.uniform(-3, 1, (3, 3, 2))
    gains[-1, :, 1] = 2.0 * gains[-1, :, 0]
    p_watts = np.array([1.0, 2.0])
    rate, code, evaluated = kernels.brute_force(gains, p_watts, 0.1)
    assert (rate, code, evaluated) == reference_brute_force(gains, p_watts, 0.1)
    assert np.unravel_index(code, (2,) * 6) == (1, 1, 0, 1, 0, 1)
    # its twin (p=(1, 1, 1), b=(1, 0, 0)) rates exactly the same
    signal, interference = kernels.rx_powers(gains, p_watts[[1, 1, 1]],
                                             np.array([1, 0, 0]))
    assert np.log2(1.0 + signal / (interference + 0.1)).sum() == rate


def test_brute_force_tie_resolves_to_smallest_code():
    # an all-zero channel rates every configuration at exactly zero
    gains = np.zeros((2, 2, 4))
    p_watts = np.array([0.5, 1.0])
    rate, code, evaluated = kernels.brute_force(gains, p_watts, 3e-12)
    assert (rate, code) == (0.0, 0)
    assert evaluated == (2 * 4) ** 2
