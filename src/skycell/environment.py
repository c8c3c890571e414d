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
from .radio import (LinkBudget, LinkState, MeasurementReport, PowerSet,
                    TxConfig, dft_codebook, link_state, noise_power_watts)
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


# the per-cell field each family is paid in, on LinkBudget/MeasurementReport
# records and on LinkState arrays alike
_FAMILY_FIELDS = {"global_sinr": "sinr", "serving_snr": "snr",
                  "measured_sinr": "measured_sinr", "rsrq": "rsrq"}


def _threshold_reward(spec: RewardSpec, vals: list, per_cell: bool):
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
    if spec.needs_measurements():
        records, needed = measurements, "measurement reports"
    else:
        records, needed = budgets, "link budgets"
    if records is None:
        raise ValueError(f"{spec.kind} reward needs {needed}")
    field = _FAMILY_FIELDS[spec.kind]
    return _threshold_reward(spec, [getattr(r, field) for r in records],
                             per_cell)[0]


# ---------------------------------------------------------------------------
# joint action encoding
#
# An action is a 0/1 vector of length 2L: bits 0..L-1 move powers, bits
# L..2L-1 move beams. Bit value 1 steps the index up, 0 steps it down; power
# indices clamp at the ends, beam indices wrap. Scalar action indices map to
# bit vectors most-significant-bit first.


def num_actions(num_cells: int) -> int:
    return 1 << (2 * num_cells)


def index_bits(index, width: int) -> np.ndarray:
    """The width binary digits of each index, most significant first."""
    return (np.asarray(index)[..., None] >> np.arange(width - 1, -1, -1)) & 1


def action_from_index(index: int, num_cells: int) -> np.ndarray:
    width = 2 * num_cells
    if not 0 <= index < (1 << width):
        raise ValueError(f"action index {index} out of range for {num_cells} cells")
    return index_bits(index, width)


def index_from_action(action) -> int:
    idx = 0
    for b in np.asarray(action).ravel():
        v = int(b)
        if v not in (0, 1):
            raise ValueError("action bits must be 0 or 1")
        idx = (idx << 1) | v
    return idx


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
        if self.num_nlos_paths < 1:
            raise ValueError("num_nlos_paths must be at least 1")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")


class NetworkEnv:
    """Episodic environment over frozen per-episode network draws.

    reset(seed) draws geometry, LoS states and channels from that seed alone,
    precomputes the (L, L, W) beam gain table once (channels do not move
    within an episode) and starts every cell at the middle power level with
    its best serving codeword from a sweep. Every later step reads its
    link state off that table through radio.link_state.
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
        (x_lo, y_lo, _), (x_hi, y_hi, _) = (self.layout.min(axis=0),
                                            self.layout.max(axis=0))
        z_lo, z_hi = config.scenario.user_altitude_range_m
        # user positions normalize to the layout's bounding box and altitude band
        self._pos_lo = np.array([x_lo - radius, y_lo - radius, z_lo])
        self._pos_span = np.array([(x_hi - x_lo) + 2 * radius,
                                   (y_hi - y_lo) + 2 * radius,
                                   max(z_hi - z_lo, 1e-12)])
        self.realization = None
        self.channels: Optional[ChannelSet] = None
        self.gains = None
        n = config.scenario.num_cells
        self._index_scale = np.repeat([max(self.powers.num_levels - 1, 1),
                                       max(self.codebook.size - 1, 1)],
                                      n).astype(np.float64)
        self._features = None
        self.tx: Optional[TxConfig] = None
        self.step_count = 0
        self.episode_seed = None

    @property
    def num_cells(self) -> int:
        return self.config.scenario.num_cells

    @property
    def num_features(self) -> int:
        """Width of the features() vector: 5 per cell."""
        return 5 * self.num_cells

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
        # users do not move within an episode: the position block is final
        pos = (self.realization.user_positions - self._pos_lo) / self._pos_span
        self._features = np.concatenate((np.clip(pos.ravel(), 0.0, 1.0),
                                         np.zeros(2 * n)))
        return self.features()

    def features(self) -> np.ndarray:
        """Flat observation: 3L normalized coordinates, L powers, L beams."""
        if self.realization is None:
            raise RuntimeError("reset the environment before reading features")
        out = self._features.copy()
        out[3 * self.num_cells:] = (np.concatenate((self.tx.power_idx,
                                                    self.tx.beam_idx))
                                    / self._index_scale)
        return out

    def link_state(self, measured: bool = False,
                   tx: Optional[TxConfig] = None) -> LinkState:
        """Link state at tx (default: the current one); measured adds the probe."""
        tx = self.tx if tx is None else tx
        return link_state(self.gains, self._p_watts[tx.power_idx], tx.beam_idx,
                          self.noise_watts, measured)

    def budgets(self) -> list[LinkBudget]:
        """Ground-truth per-cell budgets at the current transmit configuration."""
        s = self.link_state()
        return [LinkBudget(signal, interference, s.noise_w, sinr, snr, rate)
                for signal, interference, sinr, snr, rate in zip(
                    s.signal_w.tolist(), s.interference_w.tolist(),
                    s.sinr.tolist(), s.snr.tolist(), s.rate.tolist())]

    def measurements(self) -> list[MeasurementReport]:
        """Probe reports at the current transmit configuration."""
        s = self.link_state(measured=True)
        return [MeasurementReport(*vals) for vals in zip(
            s.rssi_w.tolist(), s.rsrp_w.tolist(), s.rsrq.tolist(),
            s.measured_sinr.tolist())]

    def step(self, action) -> StepOutcome:
        """Advance one step under a joint 2L-bit action."""
        action = np.asarray(action).ravel()
        if action.size != 2 * self.num_cells:
            raise ValueError(f"expected {2 * self.num_cells} action bits, "
                             f"got {action.size}")
        n = self.num_cells
        bits = [int(b) for b in action.tolist()]
        return self.step_cells(dict(enumerate(zip(bits[:n], bits[n:]))))

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
        n = self.num_cells
        top = self.powers.num_levels - 1
        size = self.codebook.size
        power_idx = self.tx.power_idx.tolist()
        beam_idx = self.tx.beam_idx.tolist()
        for cell, (p_bit, b_bit) in moves.items():
            if not 0 <= cell < n:
                raise ValueError(f"cell index {cell} out of range")
            if p_bit not in (0, 1) or b_bit not in (0, 1):
                raise ValueError("action bits must be 0 or 1")
            power_idx[cell] = min(max(power_idx[cell] + (1 if p_bit else -1),
                                      0), top)
            beam_idx[cell] = (beam_idx[cell] + (1 if b_bit else -1)) % size
        # fresh arrays: a TxConfig or info array handed out earlier stays put
        self.tx = TxConfig(np.array(power_idx, np.int64),
                           np.array(beam_idx, np.int64))
        spec = self.config.reward
        state = self.link_state(spec.needs_measurements())
        reward, violated = _threshold_reward(
            spec, getattr(state, _FAMILY_FIELDS[spec.kind]).tolist(),
            per_cell=True)
        self.step_count += 1
        info = {
            "sum_rate": float(sum(state.rate.tolist())),
            "sinr": state.sinr,
            "snr": state.snr,
            "rates": state.rate,
            "violated_threshold": violated,
            "power_idx": self.tx.power_idx.copy(),
            "beam_idx": self.tx.beam_idx.copy(),
        }
        if state.measured_sinr is not None:
            info["measured_sinr"] = state.measured_sinr
            info["rsrq"] = state.rsrq
        return StepOutcome(features=self.features(), reward=float(reward),
                           done=self.step_count >= self.config.horizon,
                           info=info)
