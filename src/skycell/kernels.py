"""Hot numeric kernels, vectorized with numpy.

Interference is accumulated over transmitters in ascending index, so every
caller sees the same rounding.
"""

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


# ---------------------------------------------------------------------------
# received powers for one transmit configuration


def rx_powers(gains, p_watts, beams):
    """Per-cell signal and interference power for one configuration.

    gains is the (L, L, W) table from beam_gains, p_watts the per-cell
    transmit power in watts, beams the per-cell codeword index. Returns
    (signal, interference), each shape (L,).
    """
    n = gains.shape[0]
    signal = np.empty(n, np.float64)
    total = np.zeros(n, np.float64)
    for j in range(n):
        contrib = p_watts[j] * gains[j, :, beams[j]]
        total += contrib
        signal[j] = contrib[j]
    return signal, total - signal


# ---------------------------------------------------------------------------
# exhaustive search over joint (power, beam) configurations
#
# Configurations are enumerated in ascending lexicographic order of the index
# tuple (p_0, ..., p_{L-1}, b_0, ..., b_{L-1}); the first strict maximum wins,
# so ties resolve to the lexicographically smallest tuple.


def decode_config(code, n_cells, n_power, n_beams):
    """Split a mixed-radix configuration code back into index vectors."""
    beams = np.empty(n_cells, np.int64)
    powers = np.empty(n_cells, np.int64)
    rem = code
    for i in range(n_cells - 1, -1, -1):
        beams[i] = rem % n_beams
        rem //= n_beams
    for i in range(n_cells - 1, -1, -1):
        powers[i] = rem % n_power
        rem //= n_power
    return powers, beams


def brute_force(gains, p_watts, noise_w, chunk=1 << 15):
    """Best joint configuration by exhaustive enumeration, vectorized.

    Returns (best_sum_rate, best_code, num_evaluated) where best_code encodes
    the winning index tuple in the mixed radix (P, ..., P, W, ..., W).
    """
    n_cells = gains.shape[0]
    n_beams = gains.shape[2]
    n_power = p_watts.shape[0]
    total = (n_power * n_beams) ** n_cells

    # radix weight of each digit position, most significant first
    weights = np.empty(2 * n_cells, np.int64)
    acc = 1
    for i in range(2 * n_cells - 1, -1, -1):
        weights[i] = acc
        acc *= n_beams if i >= n_cells else n_power

    best_rate = -1.0
    best_code = -1
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (codes[:, None] // weights[None, :])
        pd = digits[:, :n_cells] % n_power
        bd = digits[:, n_cells:] % n_beams
        sig = np.empty((codes.size, n_cells), np.float64)
        tot = np.zeros((codes.size, n_cells), np.float64)
        for j in range(n_cells):
            contrib = p_watts[pd[:, j], None] * gains[j][:, bd[:, j]].T
            tot += contrib
            sig[:, j] = contrib[:, j]
        rates = np.log2(1.0 + sig / (tot - sig + noise_w)).sum(axis=1)
        k = int(np.argmax(rates))
        if rates[k] > best_rate:
            best_rate = float(rates[k])
            best_code = int(codes[k])
    return best_rate, best_code, total
