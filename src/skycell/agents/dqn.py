"""Deep Q-learning over the joint 2^(2L) action space.

One output head per joint action. Works directly on the environment's
normalized feature vector, so the same code handles any cell count whose
action space still fits in one output layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import neural
from ..environment import (NetworkEnv, action_from_index, index_from_action,
                           num_actions)
from .training import linear_schedule, q_td_step, run_episodes


@dataclass
class DqnConfig:
    hidden: tuple = (128, 128)
    lr: float = 2e-3
    gamma: float = 0.85
    batch_size: int = 32
    buffer_capacity: int = 20000
    target_sync: int = 250
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_fraction: float = 0.8
    train_start: int = 200
    # rewards are sums of linear SINRs and can be large; the learner sees a
    # scaled copy so value targets stay near the Huber quadratic region
    reward_scale: float = 0.02


class DqnAgent:
    def __init__(self, num_features: int, num_cells: int,
                 config: DqnConfig = None, seed: int = 0):
        self.config = config or DqnConfig()
        self.num_cells = num_cells
        self.num_actions = num_actions(num_cells)
        rng = np.random.default_rng(seed)
        widths = (num_features,) + tuple(self.config.hidden) + (self.num_actions,)
        self.online = neural.Mlp(widths, rng)
        self.target = self.online.clone()
        self.opt = neural.AdamState(self.online.parameters(), lr=self.config.lr)
        self.buffer = neural.ReplayBuffer(self.config.buffer_capacity)
        self.train_calls = 0
        self.global_step = 0
        self.value_evals = 0

    def q_values(self, features: np.ndarray) -> np.ndarray:
        self.value_evals += self.num_actions
        return neural.forward(self.online, features)

    def epsilon(self, total_steps: int) -> float:
        c = self.config
        return linear_schedule(c.eps_start, c.eps_end, c.eps_fraction,
                               self.global_step, total_steps)


def dqn_act(agent: DqnAgent, features: np.ndarray, epsilon: float,
            rng: np.random.Generator = None) -> np.ndarray:
    """Epsilon-greedy joint action; greedy ties resolve to the lowest index."""
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("exploration needs a generator")
        if rng.random() < epsilon:
            idx = int(rng.integers(agent.num_actions))
            return action_from_index(idx, agent.num_cells)
    idx = int(np.argmax(agent.q_values(features)))
    return action_from_index(idx, agent.num_cells)


def dqn_train_step(agent: DqnAgent, batch: neural.Batch) -> float:
    """One Huber TD update on a sampled minibatch; returns the mean loss."""
    return q_td_step(agent, batch)


def train_dqn(env: NetworkEnv, agent: DqnAgent, episodes: int,
              rng: np.random.Generator, frozen_seed: int = None) -> dict:
    """Run episodes with epsilon-greedy exploration and replay updates.

    frozen_seed pins every episode to one network draw (the single-instance
    regime); otherwise each episode draws a fresh instance from rng. Returns
    per-episode totals for inspection.
    """
    total_steps = episodes * env.config.horizon

    def step(features):
        action = dqn_act(agent, features, agent.epsilon(total_steps), rng)
        outcome = env.step(action)
        return np.int64(index_from_action(action)), outcome, outcome.reward

    return run_episodes(env, agent, episodes, rng, frozen_seed, step,
                        lambda batch: dqn_train_step(agent, batch))
