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

from .scenario import ScenarioRealization


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance path loss: PL_dB = intercept + 10 exponent log10(d)."""

    los_intercept_db: float = 61.4
    los_exponent: float = 2.0
    nlos_intercept_db: float = 72.0
    nlos_exponent: float = 2.92


def array_response(theta, num_antennas: int) -> np.ndarray:
    """ULA steering vectors a(theta)_m = exp(i pi m sin theta), m = 0..M-1.

    theta is an angle or an array of angles; the result has shape
    theta.shape + (M,). Half-wavelength element spacing is baked into the pi
    factor.
    """
    m = np.arange(num_antennas)
    return np.exp(1j * math.pi * m * np.sin(np.asarray(theta))[..., None])


def path_loss_db(distance_m: float, los: bool, params: PathLossParams) -> float:
    """Distance-dependent loss in dB; distances under 1 m clamp to 1 m."""
    d = max(distance_m, 1.0)
    if los:
        return params.los_intercept_db + 10.0 * params.los_exponent * math.log10(d)
    return params.nlos_intercept_db + 10.0 * params.nlos_exponent * math.log10(d)


def link_distances(bs_positions: np.ndarray,
                   user_positions: np.ndarray) -> np.ndarray:
    """(L, L) table of 3D distances d[j, l] from BS j to user l."""
    # Python's x ** 2 (C pow) and x * x, numpy's square, differ in the last
    # bit on about one input in 1,200; every drawn channel has used ** 2
    users = user_positions.tolist()
    return np.array([[math.sqrt((bx - ux) ** 2 + (by - uy) ** 2
                                + (bz - uz) ** 2) for ux, uy, uz in users]
                     for bx, by, bz in bs_positions.tolist()], np.float64)


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
    """Draw every BS-to-user channel h[j, l], transmitter-major order.

    LoS links carry a single unit-amplitude path along the true azimuth from
    the BS to the user. NLoS links sum num_nlos_paths scattered paths with
    CN(0, 1) amplitudes and azimuths uniform on (-pi/2, pi/2), scaled by
    1/sqrt(num_nlos_paths) to keep the mean path energy at one. Either way the
    vector is scaled by sqrt(g) with g the linear large-scale gain.

    Each NLoS link draws its 2P Gaussians, then its P angles, in link order.
    """
    n, m, paths = scenario.num_cells, num_antennas, num_nlos_paths
    bs = scenario.bs_positions.tolist()
    users = scenario.user_positions.tolist()
    dist = link_distances(scenario.bs_positions,
                          scenario.user_positions).tolist()
    los = scenario.los.tolist()
    # per-link scalars stay in math: numpy's power, log10 and arctan2 round
    # differently from math's on a few percent of inputs
    scale, los_links, azimuths = [], [], []
    nlos_links, normals, angles = [], [], []
    for j in range(n):
        for l in range(n):
            g = 10.0 ** (-path_loss_db(dist[j][l], los[j][l], params) / 10.0)
            if los[j][l]:
                scale.append(math.sqrt(g))
                los_links.append(j * n + l)
                azimuths.append(math.atan2(users[l][1] - bs[j][1],
                                           users[l][0] - bs[j][0]))
            else:
                scale.append(math.sqrt(g / paths))
                nlos_links.append(j * n + l)
                normals.append(rng.standard_normal(2 * paths))
                angles.append(rng.uniform(-math.pi / 2.0, math.pi / 2.0,
                                          paths))
    # one steering vector per LoS link, then one per scattered path
    steering = array_response(np.concatenate([azimuths] + angles), m)
    h = np.empty((n * n, m), np.complex128)
    h[los_links] = steering[:len(los_links)]
    if nlos_links:
        z = np.array(normals)
        amp = (z[:, :paths] + 1j * z[:, paths:]) / math.sqrt(2.0)
        scattered = steering[len(los_links):].reshape(-1, paths, m)
        total = np.zeros((len(nlos_links), m), np.complex128)
        for p in range(paths):
            total += amp[:, p, None] * scattered[:, p]
        h[nlos_links] = total
    h *= np.array(scale)[:, None]
    return ChannelSet(h=h.reshape(n, n, m))
