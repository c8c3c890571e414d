"""Non-learning reference policies: exhaustive search, matched beams, random.

The exhaustive search is the optimality yardstick and refuses instances whose
configuration count exceeds a hard cap. The matched-beam TDMA baseline avoids
interference entirely by time sharing, which is exactly what the learned
controllers are supposed to beat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .channel import ChannelSet
from .radio import Codebook, PowerSet, TxConfig


class BruteForceCapExceeded(RuntimeError):
    """Raised when the joint configuration count is too large to enumerate."""


@dataclass(frozen=True)
class BruteForceResult:
    tx: TxConfig
    sum_rate: float
    num_evaluated: int


def brute_force_search(channels: ChannelSet, codebook: Codebook,
                       powers: PowerSet, noise_watts: float,
                       cap: int = 10_000_000) -> BruteForceResult:
    """Globally optimal joint (power, beam) configuration by enumeration.

    Configurations are scanned in ascending lexicographic order of the index
    tuple (p_0..p_{L-1}, b_0..b_{L-1}) and ties keep the first maximum, so
    the reported optimum is the lexicographically smallest one. Raises
    BruteForceCapExceeded without doing any work when the count exceeds cap.
    """
    n = channels.num_cells
    count = (powers.num_levels * codebook.size) ** n
    if count > cap:
        raise BruteForceCapExceeded(
            f"{count} joint configurations exceed the cap of {cap}")
    gains = kernels.beam_gains(channels.h, codebook.codewords)
    rate, code, evaluated = kernels.brute_force(gains, powers.watts(),
                                                noise_watts)
    shape = (powers.num_levels,) * n + (codebook.size,) * n
    p_idx, b_idx = np.reshape(np.unravel_index(code, shape), (2, n))
    return BruteForceResult(tx=TxConfig(power_idx=p_idx, beam_idx=b_idx),
                            sum_rate=float(rate), num_evaluated=int(evaluated))


def mrt_select(channels: ChannelSet, codebook: Codebook) -> np.ndarray:
    """Best codebook beam per serving link, ties to the lowest index."""
    n = channels.num_cells
    beams = np.empty(n, np.int64)
    for l in range(n):
        amp = codebook.codewords @ np.conj(channels.h[l, l])
        beams[l] = int(np.argmax(amp.real * amp.real + amp.imag * amp.imag))
    return beams


def mrt_snrs(channels: ChannelSet, codebook: Codebook, powers: PowerSet,
             noise_watts: float, continuous: bool = False) -> np.ndarray:
    """Per-cell SNR at full power with matched beams (no interference).

    continuous=True swaps the codebook sweep for the unconstrained matched
    filter w = h / ||h||, whose beamforming gain is ||h||^2.
    """
    p_max = float(powers.watts()[-1])
    n = channels.num_cells
    snr = np.empty(n)
    if continuous:
        for l in range(n):
            h = channels.h[l, l]
            snr[l] = p_max * float(np.vdot(h, h).real) / noise_watts
        return snr
    beams = mrt_select(channels, codebook)
    for l in range(n):
        w = codebook.codewords[beams[l]]
        amp = np.vdot(channels.h[l, l], w)
        snr[l] = p_max * (amp.real * amp.real + amp.imag * amp.imag) / noise_watts
    return snr


def mrt_tdma_sum_rate(channels: ChannelSet, codebook: Codebook,
                      powers: PowerSet, noise_watts: float,
                      gamma_min_db: float = -3.0,
                      continuous: bool = False) -> float:
    """Interference-free time sharing with matched beams at full power.

    Every cell owns a 1/L slice of time. Cells whose SNR sits at or below the
    threshold are dropped and their slices stay idle, so the total is
    (1/L) * sum over surviving cells of log2(1 + SNR).
    """
    snr = mrt_snrs(channels, codebook, powers, noise_watts, continuous)
    threshold = 10.0 ** (gamma_min_db / 10.0)
    n = snr.size
    total = 0.0
    for l in range(n):
        if snr[l] > threshold:
            total += float(np.log2(1.0 + snr[l]))
    return total / n


def random_policy(rng: np.random.Generator, num_cells: int) -> np.ndarray:
    """Uniform joint action: every power and beam bit is a fair coin."""
    return rng.integers(0, 2, 2 * num_cells).astype(np.int64)
