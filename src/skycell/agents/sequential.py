"""One small agent per cell, trained one cell at a time.

Cells are ranked by interference severity and trained in that order. While
cell i trains, already-trained cells act greedily with frozen weights and the
rest hold their initial configuration. Each agent picks from just four moves
(power bit times beam bit), so a joint decision costs L times 4 value
evaluations instead of 4^L, at the price of coordination only through the
shared environment and a leakage penalty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import neural
from ..channel import link_distances
from ..environment import NetworkEnv, index_from_action
from .dqn import DqnAgent, DqnConfig, dqn_act
from .training import q_td_step, run_episodes

ORDER_METRICS = ("rsrq", "min_distance")


@dataclass
class SequentialConfig(DqnConfig):
    """DqnConfig with smaller per-cell defaults plus the sequential knobs."""

    hidden: tuple = (64, 64)
    buffer_capacity: int = 10000
    target_sync: int = 200
    train_start: int = 100
    reward_scale: float = 0.05
    episodes_per_agent: int = 30
    order_metric: str = "rsrq"
    # weight on the rate-like cost of interference leaked to trained cells
    interference_weight: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.episodes_per_agent < 1:
            raise ValueError("episodes_per_agent must be positive")
        if self.order_metric not in ORDER_METRICS:
            raise ValueError(f"unknown order metric {self.order_metric!r}")


class CellAgent(DqnAgent):
    """One-cell DqnAgent: four moves, action index = 2*power_bit + beam_bit."""

    def __init__(self, num_features: int, config: SequentialConfig, seed: int):
        super().__init__(num_features, 1, config, seed)

    def greedy_move(self, features: np.ndarray) -> tuple:
        return tuple(dqn_act(self, features, 0.0).tolist())

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
        score = env.link_state(measured=True).rsrq.tolist()
    else:
        dist = link_distances(env.realization.bs_positions,
                              env.realization.user_positions)
        np.fill_diagonal(dist, np.inf)
        score = dist.min(axis=0).tolist()
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

    def joint_action(self, features: np.ndarray) -> np.ndarray:
        """Joint 2L-bit action with every cell acting greedily."""
        n = len(self.order)
        bits = np.zeros(2 * n, np.int64)
        for cell, agent in self.policies.items():
            p_bit, b_bit = agent.greedy_move(features)
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
    policies = {}
    history = {"phase_reward": []}
    total_steps = config.episodes_per_agent * env.config.horizon
    for phase, cell in enumerate(order):
        agent = CellAgent(env.num_features, config,
                          seed=int(rng.integers(2 ** 63)))
        trained = order[:phase]

        def step(features):
            moves = {m: policies[m].greedy_move(features) for m in trained}
            action = dqn_act(agent, features, agent.epsilon(total_steps), rng)
            moves[cell] = action
            outcome = env.step_cells(moves)
            shaped = (float(outcome.info["rates"][cell])
                      - config.interference_weight
                      * _leakage_cost(env, cell, trained))
            return np.int64(index_from_action(action)), outcome, shaped

        phase_history = run_episodes(env, agent, config.episodes_per_agent,
                                     rng, frozen_seed, step, agent.train_step)
        policies[cell] = agent
        history["phase_reward"].append(phase_history["episode_reward"])
    return SequentialResult(order=tuple(order), policies=policies,
                            history=history)
