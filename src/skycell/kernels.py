"""Hot numeric kernels, vectorized with numpy.

Received power has one formula (rx_matrix) and one split into signal and
interference (_split). A step reads them through rx_powers; the exhaustive
search reads rx_matrix and splits with the same arithmetic, so the oracle
rates a configuration exactly as a step would. Interference is accumulated
over transmitters in ascending index and sum rates over cells in ascending
index, so every caller sees the same rounding. The best serving codeword of
each cell (serving_beams) is the env's starting beam and the matched-beam
baseline's beam alike.

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
    """Every radix^width index tuple, one per row, in C order; width 0 gives
    the one empty tuple."""
    return np.indices((radix,) * width).reshape(width, radix ** width).T


def brute_force(gains, p_watts, noise_w):
    """Best joint configuration by exhaustive enumeration.

    The last cell's received powers for each of its W beams are formed once.
    The scan takes the first L-1 cells' beam vectors one at a time (one empty
    prefix when L = 1) and rates all W * P^L configurations sharing that
    prefix at once, laid out (W, P^L) with the power axis innermost, so memory
    is one (L, W, P^L) array and a few (W, P^L) ones of floats. Returns
    (best_sum_rate, best_code, num_evaluated), where best_code is the winning
    tuple's index in C order over the shape (P,) * L + (W,) * L; ties go to
    the smallest code.
    """
    n_cells = gains.shape[0]
    n_beams = gains.shape[2]
    powers = p_watts[_index_grid(p_watts.shape[0], n_cells).T]
    n_beam_vectors = n_beams ** n_cells
    # last[l, w, k] = powers[-1, k] * gains[-1, l, w]: the last cell's row
    last = powers[-1] * gains[-1][:, :, None]
    best_rate = -1.0
    best_code = -1
    for c, beams in enumerate(_index_grid(n_beams, n_cells - 1)):
        head = rx_matrix(gains[:-1], powers[:-1], beams)
        signal = [head[l, l] for l in range(n_cells - 1)] + [last[-1]]
        # numpy reduces axis 0 row by row, so head's sum adds ascending j and
        # the last row goes on top; cells add in order, as a step does
        rates = reduce(np.add, (np.log2(1.0 + s / (h + t - s + noise_w))
                                for s, h, t in zip(signal, head.sum(axis=0),
                                                   last)))
        top = rates.max()
        # a NaN top fails this test, so its batch is skipped
        if top >= best_rate:
            w, k = np.nonzero(rates == top)
            # power digits lead, so the smallest code is not argmax's first
            # hit in (W, P^L) order, nor always in the earliest beam vector
            code = int((k * n_beam_vectors + w).min()) + c * n_beams
            if top > best_rate or code < best_code:
                best_rate = float(top)
                best_code = code
    return best_rate, best_code, powers.shape[1] * n_beam_vectors
