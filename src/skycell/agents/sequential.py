"""One small agent per cell, trained one cell at a time.

Cells are ranked by interference severity and trained in that order. While
cell i trains, already-trained cells act greedily with frozen weights and the
rest hold their initial configuration. Each agent picks from just four moves
(power bit times beam bit), so a joint decision costs L times 4 value
evaluations instead of 4^L, at the price of coordination only through the
shared environment and a leakage penalty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .. import neural
from ..environment import NetworkEnv
from .training import linear_schedule, q_td_step, run_episodes

ORDER_METRICS = ("rsrq", "min_distance")


@dataclass
class SequentialConfig:
    episodes_per_agent: int = 30
    hidden: tuple = (64, 64)
    lr: float = 2e-3
    gamma: float = 0.85
    batch_size: int = 32
    buffer_capacity: int = 10000
    target_sync: int = 200
    train_start: int = 100
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_fraction: float = 0.8
    order_metric: str = "rsrq"
    # weight on the rate-like cost of interference leaked to trained cells
    interference_weight: float = 1.0
    reward_scale: float = 0.05

    def __post_init__(self):
        if self.order_metric not in ORDER_METRICS:
            raise ValueError(f"unknown order metric {self.order_metric!r}")


class CellAgent:
    """Four-action value net for one cell; action index = 2*power_bit + beam_bit."""

    def __init__(self, num_features: int, config: SequentialConfig, seed: int):
        self.config = config
        rng = np.random.default_rng(seed)
        widths = (num_features,) + tuple(config.hidden) + (4,)
        self.online = neural.Mlp(widths, rng)
        self.target = self.online.clone()
        self.opt = neural.AdamState(self.online.parameters(), lr=config.lr)
        self.buffer = neural.ReplayBuffer(config.buffer_capacity)
        self.train_calls = 0
        self.value_evals = 0

    def values(self, features: np.ndarray) -> np.ndarray:
        self.value_evals += 4
        return neural.forward(self.online, features)

    def greedy_move(self, features: np.ndarray) -> tuple:
        a = int(np.argmax(self.values(features)))
        return (a >> 1) & 1, a & 1

    def act(self, features: np.ndarray, epsilon: float,
            rng: np.random.Generator) -> int:
        if epsilon > 0.0 and rng.random() < epsilon:
            return int(rng.integers(4))
        return int(np.argmax(self.values(features)))

    def train_step(self, batch: neural.Batch) -> float:
        return q_td_step(self, batch)


def rank_cells(env: NetworkEnv, metric: str = "rsrq",
               probe_seed: int = 0) -> list:
    """Cells ordered most-interfered first, judged on a probe instance.

    rsrq ranks by the receiver's own quality ratio at the initial
    configuration (ascending, worst first); min_distance ranks by the distance
    from each user to its nearest interfering base station (ascending,
    closest first). Ties break toward the lower cell index.
    """
    if metric not in ORDER_METRICS:
        raise ValueError(f"unknown order metric {metric!r}")
    env.reset(probe_seed)
    n = env.num_cells
    if n == 1:
        return [0]
    if metric == "rsrq":
        score = [m.rsrq for m in env.measurements()]
    else:
        from ..channel import link_distance_3d
        score = []
        for l in range(n):
            user = env.realization.user_positions[l]
            score.append(min(link_distance_3d(env.realization.bs_positions[j], user)
                             for j in range(n) if j != l))
    return sorted(range(n), key=lambda l: (score[l], l))


def _leakage_cost(env: NetworkEnv, cell: int, targets: list) -> float:
    # rate-like measure of the interference this cell pours into each already
    # trained cell, read off the precomputed gain table
    if not targets:
        return 0.0
    p = env.powers.watts()[env.tx.power_idx[cell]]
    beam = env.tx.beam_idx[cell]
    cost = 0.0
    for m in targets:
        cost += float(np.log2(1.0 + p * env.gains[cell, m, beam] / env.noise_watts))
    return cost


@dataclass
class SequentialResult:
    order: tuple
    policies: dict
    history: dict

    def greedy_moves(self, features: np.ndarray) -> dict:
        return {cell: agent.greedy_move(features)
                for cell, agent in self.policies.items()}

    def joint_action(self, features: np.ndarray) -> np.ndarray:
        """Joint 2L-bit action with every cell acting greedily."""
        n = len(self.order)
        bits = np.zeros(2 * n, np.int64)
        for cell, (p_bit, b_bit) in self.greedy_moves(features).items():
            bits[cell] = p_bit
            bits[n + cell] = b_bit
        return bits


def sequential_train(env: NetworkEnv, config: SequentialConfig = None,
                     seed: int = 0, frozen_seed: int = None) -> SequentialResult:
    """Train per-cell agents in interference-severity order.

    Each phase pays its trainee the cell's own rate minus
    interference_weight times the leakage cost toward already trained cells.
    frozen_seed pins all episodes (and the ranking probe) to one instance.
    """
    config = config or SequentialConfig()
    rng = np.random.default_rng(seed)
    probe_seed = frozen_seed if frozen_seed is not None else int(rng.integers(2 ** 63))
    order = rank_cells(env, config.order_metric, probe_seed)
    num_features = 5 * env.num_cells
    policies = {}
    history = {"phase_reward": []}
    total_steps = config.episodes_per_agent * env.config.horizon
    for phase, cell in enumerate(order):
        agent = CellAgent(num_features, config, seed=int(rng.integers(2 ** 63)))
        trained = order[:phase]
        step_idx = itertools.count()

        def step(features):
            moves = {m: policies[m].greedy_move(features) for m in trained}
            eps = linear_schedule(config.eps_start, config.eps_end,
                                  config.eps_fraction, next(step_idx),
                                  total_steps)
            a = agent.act(features, eps, rng)
            moves[cell] = ((a >> 1) & 1, a & 1)
            outcome = env.step_cells(moves)
            shaped = (float(outcome.info["rates"][cell])
                      - config.interference_weight
                      * _leakage_cost(env, cell, trained))
            return np.int64(a), outcome, shaped

        phase_history = run_episodes(env, config.episodes_per_agent, rng,
                                     frozen_seed, agent.buffer, config, step,
                                     agent.train_step)
        policies[cell] = agent
        history["phase_reward"].append(phase_history["episode_reward"])
    return SequentialResult(order=tuple(order), policies=policies,
                            history=history)
