"""Network geometry: hexagonal cell layout, aerial user placement, association.

Cells are discs of radius R packed on a hexagonal lattice (center spacing
2 R cos(30 deg) = sqrt(3) R). Base stations sit at the cell centers at a fixed
mast height; each cell serves exactly one aerial user, drawn inside its own
disc at an altitude sampled from a configured band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ScenarioConfig:
    num_cells: int = 1
    cell_radius_m: float = 200.0
    bs_height_m: float = 25.0
    user_altitude_range_m: tuple = (50.0, 120.0)
    user_placement: str = "uniform"
    los_probability: float = 0.8

    def __post_init__(self):
        if self.num_cells < 1:
            raise ValueError("num_cells must be at least 1")
        if self.cell_radius_m <= 0:
            raise ValueError("cell_radius_m must be positive")
        lo, hi = self.user_altitude_range_m
        if lo > hi:
            raise ValueError("user_altitude_range_m must be (low, high)")
        if self.user_placement not in ("uniform", "cell_edge"):
            raise ValueError(f"unknown user_placement {self.user_placement!r}")
        if not 0.0 <= self.los_probability <= 1.0:
            raise ValueError("los_probability must lie in [0, 1]")


def _hex_spiral(n: int):
    # axial coordinates (q, r); walk outward ring by ring, each ring starting
    # from its 0-degree corner and traversing counterclockwise
    coords = [(0, 0)]
    steps = [(-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0), (0, 1)]
    k = 1
    while len(coords) < n:
        q, r = k, 0
        for dq, dr in steps:
            for _ in range(k):
                coords.append((q, r))
                q += dq
                r += dr
        k += 1
    return coords[:n]


def build_layout(config: ScenarioConfig) -> np.ndarray:
    """Read-only (L, 3) base station positions on the hexagonal lattice,
    cell 0 at the origin."""
    spacing = 2.0 * config.cell_radius_m * math.cos(math.pi / 6.0)
    out = np.array([(spacing * (q + 0.5 * r),
                     spacing * (math.sqrt(3.0) / 2.0) * r,
                     config.bs_height_m)
                    for q, r in _hex_spiral(config.num_cells)], np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ScenarioRealization:
    """One drawn network instance: (L, 3) base station and user positions
    and the (L, L) LoS matrix, all marked read-only after construction."""

    config: ScenarioConfig
    bs_positions: np.ndarray = field(repr=False)
    user_positions: np.ndarray = field(repr=False)
    los: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.bs_positions, self.user_positions, self.los):
            a.setflags(write=False)

    @property
    def num_cells(self) -> int:
        return len(self.bs_positions)


def place_users(config: ScenarioConfig, layout: np.ndarray,
                rng: np.random.Generator) -> ScenarioRealization:
    """Draw one user per cell plus the per-link line-of-sight indicators.

    Draw order is fixed (radius, angle, altitude per cell in index order, then
    the LoS matrix) so a given generator state always yields the same instance.
    Uniform placement draws r = R sqrt(u) for area-uniform positions; cell_edge
    restricts the radius to the outer annulus [0.8 R, R].
    """
    n = config.num_cells
    radius = config.cell_radius_m
    z_lo, z_hi = config.user_altitude_range_m
    users = []
    for cx, cy, _ in layout.tolist():
        u = rng.random()
        if config.user_placement == "uniform":
            r = radius * math.sqrt(u)
        else:
            r = radius * (0.8 + 0.2 * u)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        z = rng.uniform(z_lo, z_hi) if z_hi > z_lo else z_lo
        users.append((cx + r * math.cos(phi), cy + r * math.sin(phi), z))
    los = rng.random((n, n)) < config.los_probability
    return ScenarioRealization(config=config, bs_positions=layout,
                               user_positions=np.array(users, np.float64),
                               los=los)
