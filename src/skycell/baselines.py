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

    A configuration is the index tuple (p_0..p_{L-1}, b_0..b_{L-1}) and its
    code is that tuple's position in lexicographic order. Ties go to the
    smallest code, so the reported optimum is the lexicographically smallest
    one. kernels.brute_force holds one (L, W, P^L) array and a few (W, P^L)
    ones at a time. Raises BruteForceCapExceeded without doing any work when
    the count exceeds cap.
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


def mrt_snrs(channels: ChannelSet, codebook: Codebook, powers: PowerSet,
             noise_watts: float, continuous: bool = False) -> np.ndarray:
    """Per-cell SNR at full power with matched beams (no interference).

    Each cell transmits on its best serving codeword, the beam the env starts
    an episode from (kernels.serving_beams). continuous=True swaps the
    codebook for the unconstrained matched filter w = h / ||h||, whose
    beamforming gain is ||h||^2.
    """
    p_max = float(powers.watts()[-1])
    n = channels.num_cells
    snr = np.empty(n)
    if continuous:
        for l in range(n):
            h = channels.h[l, l]
            snr[l] = p_max * float(np.vdot(h, h).real) / noise_watts
        return snr
    beams = kernels.serving_beams(kernels.beam_gains(channels.h,
                                                     codebook.codewords))
    for l in range(n):
        amp = np.vdot(channels.h[l, l], codebook.codewords[beams[l]])
        snr[l] = p_max * (amp.real * amp.real + amp.imag * amp.imag) / noise_watts
    return snr


def mrt_tdma_sum_rate(snr: np.ndarray, gamma_min_db: float = -3.0) -> float:
    """Interference-free time sharing over the per-cell SNRs from mrt_snrs.

    Every cell owns a 1/L slice of time. Cells whose SNR sits at or below the
    threshold are dropped and their slices stay idle, so the total is
    (1/L) * sum over surviving cells of log2(1 + SNR).
    """
    threshold = 10.0 ** (gamma_min_db / 10.0)
    total = 0.0
    for l in range(snr.size):
        if snr[l] > threshold:
            total += float(np.log2(1.0 + snr[l]))
    return total / snr.size


def random_policy(rng: np.random.Generator, num_cells: int) -> np.ndarray:
    """Uniform joint action: every power and beam bit is a fair coin."""
    return rng.integers(0, 2, 2 * num_cells).astype(np.int64)
