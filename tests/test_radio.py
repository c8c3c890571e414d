"""Link budgets, codebook structure and the two-phase probe identity."""

import math

import numpy as np
import pytest

from helpers import (drawn_channels, rx_matrix_from_channels,
                     scalar_array_response, sinr_all, sum_rate)
from skycell import kernels
from skycell.channel import ChannelSet
from skycell.environment import EnvConfig, NetworkEnv
from skycell.radio import (PowerSet, TxConfig, dft_codebook, link_state,
                           noise_power_watts, probe_measurements)


def test_codebook_angles_follow_the_sine_grid():
    cb = dft_codebook(4, 8)
    want = np.arcsin(-1.0 + (2.0 * np.arange(8) + 1.0) / 8.0)
    np.testing.assert_allclose(cb.angles, want, rtol=1e-12)
    assert cb.size == 8 and cb.num_antennas == 4


def test_square_codebook_rows_are_orthonormal():
    for m in (4, 8):
        cb = dft_codebook(m, m)
        gram = cb.codewords @ cb.codewords.conj().T
        assert np.max(np.abs(gram - np.eye(m))) <= 1e-9


def test_oversampled_codebook_rows_are_unit_norm():
    cb = dft_codebook(4, 8)
    np.testing.assert_allclose(np.linalg.norm(cb.codewords, axis=1), 1.0,
                               rtol=1e-12)


def test_codebook_rows_equal_the_per_row_steering_vectors():
    # the one vectorised call gives the bytes of one math.sin row at a time
    for m in range(1, 17):
        for size in range(1, 33):
            cb = dft_codebook(m, size)
            rows = np.array([scalar_array_response(float(t), m)
                             / math.sqrt(m) for t in cb.angles])
            assert cb.codewords.tobytes() == rows.tobytes()


def test_codewords_are_write_protected():
    cb = dft_codebook(4, 8)
    with pytest.raises(ValueError):
        cb.codewords[0, 0] = 0.0


def test_default_power_set_spans_21_to_30_dbm():
    ps = NetworkEnv(EnvConfig()).powers
    np.testing.assert_array_equal(ps.levels_dbm, np.arange(21.0, 31.0))
    watts = ps.watts()
    assert watts[-1] == 1.0
    np.testing.assert_allclose(watts[0], 10.0 ** (-0.9), rtol=1e-12)
    assert np.all(np.diff(watts) > 0)


def test_power_set_rejects_unsorted_levels():
    with pytest.raises(ValueError):
        PowerSet(levels_dbm=np.array([24.0, 23.0]))
    with pytest.raises(ValueError):
        PowerSet(levels_dbm=np.array([[21.0, 22.0]]))


def test_noise_floor_at_default_bandwidth_and_figure():
    # -174 + 80 + 9 = -85 dBm
    np.testing.assert_allclose(noise_power_watts(1e8, 9.0), 10.0 ** (-11.5),
                               rtol=1e-12)


def test_received_power_hand_case():
    # P |h^H w|^2 = 2 |(1 - i) / sqrt(2)|^2 = 2
    h = np.array([[[1.0, 1.0j]]])
    w = np.array([[1.0, 1.0]]) / math.sqrt(2.0)
    gains = kernels.beam_gains(h, w)
    np.testing.assert_allclose(gains, [[[1.0]]], rtol=1e-12)
    signal, _ = kernels.rx_powers(gains, np.array([2.0]), np.array([0]))
    np.testing.assert_allclose(signal, [2.0], rtol=1e-12)
    with pytest.raises(ValueError):
        kernels.beam_gains(h, np.ones((1, 3)))


def test_sinr_hand_case_two_cells_one_antenna():
    h = np.array([[[2.0 + 0j], [0.5 + 0j]],
                  [[1.0j], [3.0 + 0j]]])
    channels = ChannelSet(h=h)
    cb = dft_codebook(1, 1)
    powers = PowerSet(levels_dbm=np.array([30.0]))
    tx = TxConfig(power_idx=np.zeros(2, np.int64),
                  beam_idx=np.zeros(2, np.int64))
    budgets = sinr_all(channels, tx, cb, powers, 0.1)
    np.testing.assert_allclose(budgets[0].signal_w, 4.0, rtol=1e-12)
    np.testing.assert_allclose(budgets[0].interference_w, 1.0, rtol=1e-12)
    np.testing.assert_allclose(budgets[0].sinr, 4.0 / 1.1, rtol=1e-12)
    np.testing.assert_allclose(budgets[0].snr, 40.0, rtol=1e-12)
    np.testing.assert_allclose(budgets[1].sinr, 9.0 / 0.35, rtol=1e-12)
    np.testing.assert_allclose(budgets[1].rate,
                               math.log2(1.0 + 9.0 / 0.35), rtol=1e-12)
    np.testing.assert_allclose(sum_rate(budgets),
                               budgets[0].rate + budgets[1].rate, rtol=1e-12)
    # the environment's path, off the gain table, gives the same numbers
    state = link_state(kernels.beam_gains(h, cb.codewords),
                       powers.watts()[tx.power_idx], tx.beam_idx, 0.1)
    for field in ("signal_w", "interference_w", "sinr", "snr", "rate"):
        np.testing.assert_allclose(getattr(state, field),
                                   [getattr(b, field) for b in budgets],
                                   rtol=1e-12)


def _random_instance(seed, num_cells=3):
    _, channels = drawn_channels(seed, num_cells)
    cb = dft_codebook(4, 8)
    powers = PowerSet(levels_dbm=np.arange(21.0, 31.0))
    rng = np.random.default_rng(seed + 1000)
    tx = TxConfig(power_idx=rng.integers(0, powers.num_levels, num_cells),
                  beam_idx=rng.integers(0, cb.size, num_cells))
    return channels, tx, cb, powers


def _probe(channels, tx, cb, powers, noise):
    return probe_measurements(rx_matrix_from_channels(channels, tx, cb, powers),
                              noise)


def test_probe_recovers_true_sinr_to_nine_digits():
    noise = noise_power_watts(1e8, 9.0)
    for seed in range(30):
        channels, tx, cb, powers = _random_instance(seed)
        truth = [b.sinr for b in sinr_all(channels, tx, cb, powers, noise)]
        measured = _probe(channels, tx, cb, powers, noise)[3]
        state = link_state(kernels.beam_gains(channels.h, cb.codewords),
                           powers.watts()[tx.power_idx], tx.beam_idx, noise,
                           measured=True)
        for got in (measured, state.measured_sinr):
            for m, sinr in zip(got.tolist(), truth):
                assert abs(m - sinr) <= 1e-9 * sinr


def test_probe_report_internal_consistency():
    noise = noise_power_watts(1e8, 9.0)
    channels, tx, cb, powers = _random_instance(3)
    budgets = sinr_all(channels, tx, cb, powers, noise)
    rssi, rsrp, rsrq, _ = _probe(channels, tx, cb, powers, noise)
    for b, rssi_w, rsrp_w, q in zip(budgets, rssi, rsrp, rsrq):
        assert 0.0 < q <= 1.0
        np.testing.assert_allclose(q, rsrp_w / rssi_w, rtol=1e-12)
        np.testing.assert_allclose(rssi_w,
                                   b.signal_w + b.interference_w + b.noise_w,
                                   rtol=1e-9)
        np.testing.assert_allclose(rsrp_w, b.signal_w, rtol=1e-9)


def test_tx_config_copy_is_independent():
    tx = TxConfig(power_idx=np.array([1, 2]), beam_idx=np.array([3, 4]))
    dup = tx.copy()
    dup.power_idx[0] = 9
    assert tx.power_idx[0] == 1
