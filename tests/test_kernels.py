"""Kernels against direct per-element computations and exhaustive search."""

import itertools

import numpy as np

from helpers import drawn_channels, reference_rx_powers
from skycell import kernels
from skycell.radio import PowerSet, dft_codebook

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


def test_decode_config_inverts_lexicographic_enumeration():
    n_cells, n_power, n_beams = 2, 3, 4
    tuples = [p + b
              for p in itertools.product(range(n_power), repeat=n_cells)
              for b in itertools.product(range(n_beams), repeat=n_cells)]
    for code, want in enumerate(tuples):
        powers, beams = kernels.decode_config(code, n_cells, n_power, n_beams)
        assert tuple(powers) + tuple(beams) == want


def test_brute_force_matches_python_enumeration():
    channels, codebook, gains, p_watts = _instance(3, num_cells=2,
                                                   codebook_size=4)
    noise = 3e-12
    n = channels.num_cells
    best_rate = -1.0
    best_code = -1
    for code in range((p_watts.size * codebook.size) ** n):
        powers, beams = kernels.decode_config(code, n, p_watts.size,
                                              codebook.size)
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


def test_brute_force_chunk_boundaries_do_not_change_the_winner():
    _, _, gains, p_watts = _instance(4, num_cells=2, codebook_size=4)
    noise = 3e-12
    reference = kernels.brute_force(gains, p_watts, noise)
    for chunk in (1, 7, 64, 10 ** 6):
        assert kernels.brute_force(gains, p_watts, noise,
                                   chunk=chunk) == reference


def test_brute_force_tie_resolves_to_smallest_code():
    # an all-zero channel rates every configuration at exactly zero
    gains = np.zeros((2, 2, 4))
    p_watts = np.array([0.5, 1.0])
    rate, code, evaluated = kernels.brute_force(gains, p_watts, 3e-12)
    assert (rate, code) == (0.0, 0)
    assert evaluated == (2 * 4) ** 2
