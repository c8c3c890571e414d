"""Decision process wrapping one drawn network into an episodic control task.

An episode draws a network instance (geometry, LoS states, channels) that then
stays fixed for a configured number of steps. The controller picks one bit per
cell for power (step down or up one level, clamped) and one bit per cell for
beam (step down or up one codeword, wrapping), so the joint action space has
2^(2L) elements. Observations are a flat normalized feature vector; rewards
come from configurable network-quality families, with a hard penalty when any
cell falls to or below a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .channel import ChannelSet, PathLossParams, realize_network_channels
from .radio import (LinkBudget, MeasurementReport, PowerSet, TxConfig,
                    dft_codebook, noise_power_watts, probe_measurements)
from .scenario import ScenarioConfig, build_layout, place_users

REWARD_KINDS = ("global_sinr", "serving_snr", "measured_sinr", "rsrq")
_MEASUREMENT_KINDS = ("measured_sinr", "rsrq")


@dataclass(frozen=True)
class RewardSpec:
    """Which network-quality signal the controller is paid in.

    kind selects the family; gamma_min_db sets the per-cell threshold below or
    at which the whole step collapses to the flat penalty. The rsrq family is
    a ratio in (0, 1] and carries no threshold.
    """

    kind: str = "global_sinr"
    gamma_min_db: float = -3.0
    penalty: float = -1.0

    def __post_init__(self):
        if self.kind not in REWARD_KINDS:
            raise ValueError(f"unknown reward kind {self.kind!r}")

    def needs_measurements(self) -> bool:
        return self.kind in _MEASUREMENT_KINDS


def _per_cell_values(kind: str, budgets, measurements) -> list:
    if kind == "global_sinr":
        if budgets is None:
            raise ValueError("global_sinr reward needs link budgets")
        return [b.sinr for b in budgets]
    if kind == "serving_snr":
        if budgets is None:
            raise ValueError("serving_snr reward needs link budgets")
        return [b.snr for b in budgets]
    if kind == "measured_sinr":
        if measurements is None:
            raise ValueError("measured_sinr reward needs measurement reports")
        return [m.measured_sinr for m in measurements]
    if kind == "rsrq":
        if measurements is None:
            raise ValueError("rsrq reward needs measurement reports")
        return [m.rsrq for m in measurements]
    raise ValueError(f"unknown reward kind {kind!r}")


def reward_terms(spec: RewardSpec, budgets=None, measurements=None,
                 per_cell: bool = False):
    """Reward value plus a flag saying whether the threshold fired."""
    vals = _per_cell_values(spec.kind, budgets, measurements)
    if spec.kind != "rsrq":
        threshold = 10.0 ** (spec.gamma_min_db / 10.0)
        if min(vals) <= threshold:
            return spec.penalty, True
    total = float(sum(vals))
    if per_cell:
        total /= len(vals)
    return total, False


def compute_reward(spec: RewardSpec, budgets=None, measurements=None, *,
                   per_cell: bool = False) -> float:
    """Scalar reward for one step under the given spec.

    The unscaled form sums per-cell values; per_cell=True divides by the cell
    count (the penalty is never scaled). Families that read receiver
    measurements raise ValueError when only budgets are supplied.
    """
    return reward_terms(spec, budgets, measurements, per_cell)[0]


# ---------------------------------------------------------------------------
# joint action encoding
#
# An action is a 0/1 vector of length 2L: bits 0..L-1 move powers, bits
# L..2L-1 move beams. Bit value 1 steps the index up, 0 steps it down; power
# indices clamp at the ends, beam indices wrap. Scalar action indices map to
# bit vectors most-significant-bit first.


def num_actions(num_cells: int) -> int:
    return 1 << (2 * num_cells)


def action_from_index(index: int, num_cells: int) -> np.ndarray:
    width = 2 * num_cells
    if not 0 <= index < (1 << width):
        raise ValueError(f"action index {index} out of range for {num_cells} cells")
    bits = np.empty(width, np.int64)
    for i in range(width):
        bits[width - 1 - i] = (index >> i) & 1
    return bits


def index_from_action(action) -> int:
    idx = 0
    for b in np.asarray(action).ravel():
        v = int(b)
        if v not in (0, 1):
            raise ValueError("action bits must be 0 or 1")
        idx = (idx << 1) | v
    return idx


def enumerate_actions(num_cells: int) -> np.ndarray:
    """All 2^(2L) action bit vectors, row i equal to action_from_index(i)."""
    width = 2 * num_cells
    if width > 22:
        raise ValueError("refusing to materialize more than 2^22 actions")
    count = 1 << width
    shifts = np.arange(width - 1, -1, -1)
    return ((np.arange(count)[:, None] >> shifts[None, :]) & 1).astype(np.int64)


def _shift_indices(tx: TxConfig, moves: dict, num_levels: int,
                   num_beams: int) -> TxConfig:
    out = tx.copy()
    for cell, (p_bit, b_bit) in moves.items():
        dp = 1 if p_bit else -1
        out.power_idx[cell] = min(max(out.power_idx[cell] + dp, 0), num_levels - 1)
        db = 1 if b_bit else -1
        out.beam_idx[cell] = (out.beam_idx[cell] + db) % num_beams
    return out


def apply_action(tx: TxConfig, action, num_levels: int, num_beams: int) -> TxConfig:
    """New TxConfig after one joint action; powers clamp, beams wrap."""
    action = np.asarray(action).ravel()
    if action.size % 2 != 0:
        raise ValueError("action length must be 2L")
    n = action.size // 2
    if n != tx.power_idx.size:
        raise ValueError("action length does not match the cell count")
    moves = {l: (int(action[l]), int(action[n + l])) for l in range(n)}
    for p_bit, b_bit in moves.values():
        if p_bit not in (0, 1) or b_bit not in (0, 1):
            raise ValueError("action bits must be 0 or 1")
    return _shift_indices(tx, moves, num_levels, num_beams)


@dataclass(frozen=True)
class StepOutcome:
    features: np.ndarray
    reward: float
    done: bool
    info: dict


@dataclass(frozen=True)
class EnvConfig:
    scenario: ScenarioConfig = ScenarioConfig()
    num_antennas: int = 4
    codebook_size: int = 8
    power_levels_dbm: tuple = tuple(float(v) for v in range(21, 31))
    bandwidth_hz: float = 1e8
    noise_figure_db: float = 9.0
    path_loss: PathLossParams = PathLossParams()
    num_nlos_paths: int = 3
    reward: RewardSpec = RewardSpec()
    horizon: int = 50

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.num_antennas < 1 or self.codebook_size < 1:
            raise ValueError("antenna and codebook sizes must be positive")


class NetworkEnv:
    """Episodic environment over frozen per-episode network draws.

    reset(seed) draws geometry, LoS states and channels from that seed alone,
    precomputes the (L, L, W) beam gain table once (channels do not move
    within an episode) and starts every cell at the middle power level with
    its best serving codeword from a sweep. All later SINR work is table
    lookups through the kernels.
    """

    def __init__(self, config: EnvConfig):
        self.config = config
        self.codebook = dft_codebook(config.num_antennas, config.codebook_size)
        self.powers = PowerSet(np.asarray(config.power_levels_dbm, np.float64))
        self.noise_watts = noise_power_watts(config.bandwidth_hz,
                                             config.noise_figure_db)
        self.layout = build_layout(config.scenario)
        self._p_watts = self.powers.watts()
        radius = config.scenario.cell_radius_m
        xs = [c.x for c in self.layout]
        ys = [c.y for c in self.layout]
        self._x_lo, self._x_span = min(xs) - radius, (max(xs) - min(xs)) + 2 * radius
        self._y_lo, self._y_span = min(ys) - radius, (max(ys) - min(ys)) + 2 * radius
        z_lo, z_hi = config.scenario.user_altitude_range_m
        self._z_lo, self._z_span = z_lo, max(z_hi - z_lo, 1e-12)
        self.realization = None
        self.channels: Optional[ChannelSet] = None
        self.gains = None
        self.tx: Optional[TxConfig] = None
        self.step_count = 0
        self.episode_seed = None

    @property
    def num_cells(self) -> int:
        return self.config.scenario.num_cells

    def reset(self, episode_seed: int) -> np.ndarray:
        """Draw a fresh instance from the seed and return initial features."""
        rng = np.random.default_rng(episode_seed)
        self.realization = place_users(self.config.scenario, self.layout, rng)
        self.channels = realize_network_channels(
            self.realization, self.config.num_antennas, self.config.path_loss,
            rng, self.config.num_nlos_paths)
        self.gains = kernels.beam_gains(self.channels.h, self.codebook.codewords)
        n = self.num_cells
        mid = self.powers.num_levels // 2
        beams = np.array([int(np.argmax(self.gains[l, l])) for l in range(n)],
                         np.int64)
        self.tx = TxConfig(power_idx=np.full(n, mid, np.int64), beam_idx=beams)
        self.step_count = 0
        self.episode_seed = episode_seed
        return self.features()

    def features(self) -> np.ndarray:
        """Flat observation: 3L normalized coordinates, L powers, L beams."""
        if self.realization is None:
            raise RuntimeError("reset the environment before reading features")
        n = self.num_cells
        out = np.empty(5 * n, np.float64)
        for l, u in enumerate(self.realization.user_positions):
            out[3 * l] = (u.x - self._x_lo) / self._x_span
            out[3 * l + 1] = (u.y - self._y_lo) / self._y_span
            out[3 * l + 2] = (u.z - self._z_lo) / self._z_span
        p_den = max(self.powers.num_levels - 1, 1)
        b_den = max(self.codebook.size - 1, 1)
        out[3 * n:4 * n] = self.tx.power_idx / p_den
        out[4 * n:] = self.tx.beam_idx / b_den
        return np.clip(out, 0.0, 1.0)

    def budgets(self) -> list[LinkBudget]:
        """Ground-truth per-cell budgets at the current transmit configuration."""
        signal, interference = kernels.rx_powers(
            self.gains, self._p_watts[self.tx.power_idx], self.tx.beam_idx)
        out = []
        for l in range(self.num_cells):
            sinr = signal[l] / (interference[l] + self.noise_watts)
            out.append(LinkBudget(
                signal_w=float(signal[l]),
                interference_w=float(interference[l]),
                noise_w=self.noise_watts,
                sinr=float(sinr),
                snr=float(signal[l] / self.noise_watts),
                rate=float(np.log2(1.0 + sinr)),
            ))
        return out

    def measurements(self) -> list[MeasurementReport]:
        """Probe reports at the current transmit configuration."""
        return probe_measurements(self.channels, self.tx, self.codebook,
                                  self.powers, self.noise_watts)

    def step(self, action) -> StepOutcome:
        """Advance one step under a joint 2L-bit action."""
        action = np.asarray(action).ravel()
        if action.size != 2 * self.num_cells:
            raise ValueError(f"expected {2 * self.num_cells} action bits, "
                             f"got {action.size}")
        n = self.num_cells
        moves = {l: (int(action[l]), int(action[n + l])) for l in range(n)}
        return self.step_cells(moves)

    def step_cells(self, moves: dict) -> StepOutcome:
        """Advance one step moving only the given cells; others hold.

        moves maps cell index to its (power_bit, beam_bit) pair. The joint
        step() is the special case where every cell appears. Partial moves
        exist for schemes that train one cell at a time.
        """
        if self.realization is None:
            raise RuntimeError("reset the environment before stepping")
        if self.step_count >= self.config.horizon:
            raise RuntimeError("episode is finished; reset to continue")
        for cell, (p_bit, b_bit) in moves.items():
            if not 0 <= cell < self.num_cells:
                raise ValueError(f"cell index {cell} out of range")
            if p_bit not in (0, 1) or b_bit not in (0, 1):
                raise ValueError("action bits must be 0 or 1")
        self.tx = _shift_indices(self.tx, moves, self.powers.num_levels,
                                 self.codebook.size)
        budgets = self.budgets()
        measurements = (self.measurements()
                        if self.config.reward.needs_measurements() else None)
        reward, violated = reward_terms(self.config.reward, budgets,
                                        measurements, per_cell=True)
        self.step_count += 1
        done = self.step_count >= self.config.horizon
        info = {
            "sum_rate": float(sum(b.rate for b in budgets)),
            "sinr": np.array([b.sinr for b in budgets]),
            "snr": np.array([b.snr for b in budgets]),
            "rates": np.array([b.rate for b in budgets]),
            "violated_threshold": violated,
            "power_idx": self.tx.power_idx.copy(),
            "beam_idx": self.tx.beam_idx.copy(),
        }
        if measurements is not None:
            info["measured_sinr"] = np.array([m.measured_sinr for m in measurements])
            info["rsrq"] = np.array([m.rsrq for m in measurements])
        return StepOutcome(features=self.features(), reward=float(reward),
                           done=done, info=info)
