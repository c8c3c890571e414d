"""Link-level radio quantities: codebooks, power sets, SINR, probing.

All powers are linear watts internally; dBm appears only at configuration
boundaries. link_state derives every per-cell quantity of one transmit
configuration from the beam gain table: the ground truth (it sees every cross
link) and, on request, the over-the-air view (only what a receiver can
measure with a two-phase mute-and-listen protocol, probe_measurements).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .channel import array_response


@dataclass(frozen=True)
class Codebook:
    """Unit-norm beamforming codewords, one per row, with their steering angles."""

    codewords: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        self.codewords.setflags(write=False)
        self.angles.setflags(write=False)

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @property
    def num_antennas(self) -> int:
        return self.codewords.shape[1]


def dft_codebook(num_antennas: int, size: int) -> Codebook:
    """Beam codebook steering at sin(theta_i) = -1 + (2i + 1) / size.

    The grid is uniform in sin space and symmetric about broadside. Rows are
    scaled by 1/sqrt(M); with size == num_antennas the rows are orthonormal.
    """
    if size < 1 or num_antennas < 1:
        raise ValueError("codebook dimensions must be positive")
    angles = np.arcsin(-1.0 + (2.0 * np.arange(size) + 1.0) / size)
    rows = array_response(angles, num_antennas) / math.sqrt(num_antennas)
    return Codebook(codewords=rows, angles=angles)


@dataclass(frozen=True)
class PowerSet:
    """Discrete transmit power levels in dBm, ascending."""

    levels_dbm: np.ndarray

    def __post_init__(self):
        self.levels_dbm.setflags(write=False)
        if self.levels_dbm.ndim != 1 or self.levels_dbm.size < 1:
            raise ValueError("levels_dbm must be a nonempty vector")
        if np.any(np.diff(self.levels_dbm) <= 0):
            raise ValueError("levels_dbm must be strictly increasing")

    @property
    def num_levels(self) -> int:
        return self.levels_dbm.size

    def watts(self) -> np.ndarray:
        return 10.0 ** ((self.levels_dbm - 30.0) / 10.0)


@dataclass
class TxConfig:
    """Per-cell transmit choice: index into the power set and the codebook."""

    power_idx: np.ndarray
    beam_idx: np.ndarray

    def copy(self) -> "TxConfig":
        return TxConfig(self.power_idx.copy(), self.beam_idx.copy())


@dataclass(frozen=True)
class LinkBudget:
    """Ground-truth per-cell link accounting for one transmit configuration."""

    signal_w: float
    interference_w: float
    noise_w: float
    sinr: float
    snr: float
    rate: float


@dataclass(frozen=True)
class MeasurementReport:
    """What one receiver can infer over the air, without cross-link knowledge."""

    rssi_w: float
    rsrp_w: float
    rsrq: float
    measured_sinr: float


def noise_power_watts(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise floor: -174 dBm/Hz plus bandwidth and receiver noise figure."""
    dbm = -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass
class LinkState:
    """Every per-cell quantity of one transmit configuration, as (L,) arrays.

    The probe fields (rssi_w, rsrp_w, rsrq, measured_sinr) are None unless
    the state was built with measured=True.
    """

    signal_w: np.ndarray
    interference_w: np.ndarray
    noise_w: float
    sinr: np.ndarray
    snr: np.ndarray
    rate: np.ndarray
    rssi_w: Optional[np.ndarray] = None
    rsrp_w: Optional[np.ndarray] = None
    rsrq: Optional[np.ndarray] = None
    measured_sinr: Optional[np.ndarray] = None


def link_state(gains: np.ndarray, p_watts: np.ndarray, beams: np.ndarray,
               noise_watts: float, measured: bool = False) -> LinkState:
    """Per-cell link accounting for one configuration, off the gain table.

    gains, p_watts and beams are as for kernels.rx_powers. measured=True adds
    what each receiver measures with the two-phase probe.
    """
    signal, interference = kernels.rx_powers(gains, p_watts, beams)
    sinr = signal / (interference + noise_watts)
    state = LinkState(signal, interference, noise_watts, sinr,
                      signal / noise_watts, np.log2(1.0 + sinr))
    if measured:
        (state.rssi_w, state.rsrp_w, state.rsrq,
         state.measured_sinr) = probe_measurements(
            kernels.rx_matrix(gains, p_watts, beams), noise_watts)
    return state


def probe_measurements(r: np.ndarray, noise_watts: float):
    """Per-cell (RSSI, RSRP, RSRQ, measured SINR) from a two-phase probe.

    r is the received-power matrix R[j, l]. Phase A mutes the serving
    transmitter, so the receiver hears interference plus noise; phase B turns
    everything on, so it hears signal plus interference plus noise. The
    difference recovers the serving power without any cross-link knowledge.
    Channels are assumed unchanged between phases.
    """
    # fsum keeps both received totals correctly rounded, which keeps the
    # probe identity tight even when the serving power is far below them
    cols = r.T.tolist()
    phase_a = np.array([math.fsum(c[:l] + c[l + 1:])
                        for l, c in enumerate(cols)]) + noise_watts
    phase_b = np.array([math.fsum(c) for c in cols]) + noise_watts
    serving = phase_b - phase_a
    return phase_b, serving, serving / phase_b, serving / phase_a
