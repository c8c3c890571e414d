"""Air-to-ground channel model.

Each link is either line-of-sight or not, decided by a Bernoulli draw at
placement time. Link gain follows a log-distance law with parameters per LoS
state; the small-scale structure is a sparse geometric model over a uniform
linear array: a single deterministic path when in LoS, a few complex-Gaussian
scattered paths otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import ScenarioRealization, Vec3


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance path loss: PL_dB = intercept + 10 exponent log10(d)."""

    los_intercept_db: float = 61.4
    los_exponent: float = 2.0
    nlos_intercept_db: float = 72.0
    nlos_exponent: float = 2.92


def array_response(theta: float, num_antennas: int) -> np.ndarray:
    """ULA steering vector a(theta)_m = exp(i pi m sin theta), m = 0..M-1.

    Half-wavelength element spacing is baked into the pi factor.
    """
    m = np.arange(num_antennas)
    return np.exp(1j * math.pi * m * math.sin(theta))


def path_loss_db(distance_m: float, los: bool, params: PathLossParams) -> float:
    """Distance-dependent loss in dB; distances under 1 m clamp to 1 m."""
    d = max(distance_m, 1.0)
    if los:
        return params.los_intercept_db + 10.0 * params.los_exponent * math.log10(d)
    return params.nlos_intercept_db + 10.0 * params.nlos_exponent * math.log10(d)


def draw_link_channel(bs: Vec3, user: Vec3, los: bool, num_antennas: int,
                      params: PathLossParams, rng: np.random.Generator,
                      num_nlos_paths: int = 3) -> np.ndarray:
    """One (M,) complex channel vector for a single BS-to-user link.

    LoS links carry a single unit-amplitude path along the true azimuth from
    the BS to the user. NLoS links sum num_nlos_paths scattered paths with
    CN(0, 1) amplitudes and azimuths uniform on (-pi/2, pi/2), scaled by
    1/sqrt(num_nlos_paths) to keep the mean path energy at one. Either way the
    vector is scaled by sqrt(g) with g the linear large-scale gain.
    """
    d = link_distance_3d(bs, user)
    g = 10.0 ** (-path_loss_db(d, los, params) / 10.0)
    if los:
        azimuth = math.atan2(user.y - bs.y, user.x - bs.x)
        return math.sqrt(g) * array_response(azimuth, num_antennas)
    amp = (rng.standard_normal(num_nlos_paths)
           + 1j * rng.standard_normal(num_nlos_paths)) / math.sqrt(2.0)
    angles = rng.uniform(-math.pi / 2.0, math.pi / 2.0, num_nlos_paths)
    h = np.zeros(num_antennas, np.complex128)
    for p in range(num_nlos_paths):
        h += amp[p] * array_response(angles[p], num_antennas)
    return math.sqrt(g / num_nlos_paths) * h


def link_distance_3d(bs: Vec3, user: Vec3) -> float:
    return math.sqrt((bs.x - user.x) ** 2 + (bs.y - user.y) ** 2
                     + (bs.z - user.z) ** 2)


@dataclass(frozen=True)
class ChannelSet:
    """All L x L link channels of one drawn network, h[j, l] from BS j to user l."""

    h: np.ndarray

    def __post_init__(self):
        if self.h.ndim != 3 or self.h.shape[0] != self.h.shape[1]:
            raise ValueError("channel tensor must have shape (L, L, M)")
        self.h.setflags(write=False)

    @property
    def num_cells(self) -> int:
        return self.h.shape[0]

    @property
    def num_antennas(self) -> int:
        return self.h.shape[2]


def realize_network_channels(scenario: ScenarioRealization, num_antennas: int,
                             params: PathLossParams, rng: np.random.Generator,
                             num_nlos_paths: int = 3) -> ChannelSet:
    """Draw every BS-to-user channel, transmitter-major order."""
    n = scenario.num_cells
    h = np.empty((n, n, num_antennas), np.complex128)
    for j in range(n):
        for l in range(n):
            h[j, l] = draw_link_channel(
                scenario.bs_positions[j], scenario.user_positions[l],
                bool(scenario.los[j, l]), num_antennas, params, rng,
                num_nlos_paths)
    return ChannelSet(h=h)
