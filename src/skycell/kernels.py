"""Hot numeric kernels, vectorized with numpy.

Received power has one formula (rx_matrix) and one split into signal and
interference (_split). A step reads them through rx_powers and the exhaustive
search reads them directly, so the oracle rates a configuration exactly as a
step would. Interference is accumulated over transmitters in ascending index
and sum rates over cells in ascending index, so every caller sees the same
rounding. The best serving codeword of each cell (serving_beams) is the env's
starting beam and the matched-beam baseline's beam alike.

A batch of configurations runs along the trailing axes, after the (j, l)
cell axes: numpy pays a fixed cost per inner-loop row, and with the batch
last each row is a whole batch long rather than L long.
"""

from functools import reduce

import numpy as np

# no compiled path exists; kept because perfbench/run.py's fingerprint reads it
NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# beam gain table: G[j, l, w] = |h[j, l]^H c_w|^2


def beam_gains(h: np.ndarray, codewords: np.ndarray) -> np.ndarray:
    """Gain of every (transmitter j, user l, codeword w) triple.

    h has shape (L, L, M) with h[j, l] the channel from transmitter j to the
    user served by cell l; codewords has shape (W, M). Returns (L, L, W)
    real gains |h[j, l]^H c_w|^2.
    """
    amp = np.einsum("jlm,wm->jlw", np.conj(h), codewords)
    return (amp.real * amp.real + amp.imag * amp.imag).astype(np.float64)


def serving_beams(gains: np.ndarray) -> np.ndarray:
    """Per cell, the codeword with the largest serving gain gains[l, l, w];
    ties go to the lowest index."""
    c = np.arange(gains.shape[0])
    return np.argmax(gains[c, c], axis=1)


# ---------------------------------------------------------------------------
# received powers for one transmit configuration, or a batch of them


def rx_matrix(gains, p_watts, beams):
    """R[j, l, ...] = p_watts[j, ...] * gains[j, l, beams[j]]: power at user l
    from j, for each configuration along p_watts' axes after the cell axis."""
    g = gains[np.arange(gains.shape[0]), :, beams]
    return p_watts[:, None] * g.reshape(g.shape + (1,) * (p_watts.ndim - 1))


def _split(r):
    """(signal, interference) off received powers R[j, l, ...], each shaped
    r.shape[1:]. signal is a view into r."""
    n = r.shape[0]
    signal = r.reshape((n * n,) + r.shape[2:])[::n + 1]
    # numpy reduces axis 0 row by row, so the total adds ascending j
    return signal, r.sum(axis=0) - signal


def rx_powers(gains, p_watts, beams):
    """Per-cell signal and interference power for one configuration.

    gains is the (L, L, W) table from beam_gains, p_watts the per-cell
    transmit power in watts, beams the per-cell codeword index. Returns
    (signal, interference), each shape (L,).
    """
    return _split(rx_matrix(gains, p_watts, beams))


# ---------------------------------------------------------------------------
# exhaustive search over joint (power, beam) configurations
#
# A configuration is the index tuple (p_0, ..., p_{L-1}, b_0, ..., b_{L-1});
# its code is that tuple's position in C (lexicographic) order, so power
# digits are the more significant ones. Ties resolve to the smallest code.


def _index_grid(radix, width):
    """Every radix^width index tuple, one per row, in C order."""
    return np.indices((radix,) * width).reshape(width, -1).T


def brute_force(gains, p_watts, noise_w):
    """Best joint configuration by exhaustive enumeration.

    Scans one beam vector at a time, rating every power vector against it at
    once through the same received-power formula a step uses, so memory is
    P^L * L^2 floats, laid out (L, L, P^L). Returns (best_sum_rate,
    best_code, num_evaluated), where best_code is the winning tuple's index
    in C order over the shape (P,) * L + (W,) * L.
    """
    n_cells = gains.shape[0]
    n_beams = gains.shape[2]
    powers = p_watts[_index_grid(p_watts.shape[0], n_cells).T]
    n_beam_vectors = n_beams ** n_cells
    best_rate = -1.0
    best_code = -1
    for c, beams in enumerate(_index_grid(n_beams, n_cells)):
        signal, interference = _split(rx_matrix(gains, powers, beams))
        # add cells in order, as a step does: numpy's sum pairs them up when
        # the batch is one configuration long
        rates = reduce(np.add, np.log2(1.0 + signal / (interference + noise_w)))
        k = int(np.argmax(rates))
        code = k * n_beam_vectors + c
        # a later beam vector can hold a smaller code, since power digits lead
        if rates[k] > best_rate or (rates[k] == best_rate and code < best_code):
            best_rate = float(rates[k])
            best_code = code
    return best_rate, best_code, powers.shape[1] * n_beam_vectors
