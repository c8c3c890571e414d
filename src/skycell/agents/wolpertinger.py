"""Actor-critic over a continuous relaxation of the joint bit-vector action.

The actor proposes a point in [0, 1]^(2L); the k nearest corners of the
hypercube (equivalently, k candidate bit vectors) are scored by the critic and
the best one is executed. Per decision the critic therefore evaluates at most
k actions instead of all 2^(2L), while k = 2^(2L) recovers exhaustive greedy
selection exactly.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass

import numpy as np

from .. import neural
from ..environment import NetworkEnv, index_bits, index_from_action
from .training import check_replay_settings, linear_schedule, run_episodes


# Widest proto-action scored densely over all 2^d corners: for a batch of 32
# at k=8, dense against heap measured 0.65 vs 3.4 ms at d=8, 2.3 vs 2.7 ms at
# d=10 (0.086 vs 0.073 ms for one row) and 10.8 vs 4.4 ms at d=12.
DENSE_MAX_WIDTH = 8


def knn_actions(proto: np.ndarray, k: int) -> np.ndarray:
    """The k hypercube corners nearest to proto in Euclidean distance.

    A corner's extra squared distance over the rounded corner is the sum of
    the flip costs |1 - 2 p_i| of the coordinates it flips, added in
    ascending flip-cost order. Up to DENSE_MAX_WIDTH dimensions every corner
    is scored at once; above it corners are generated lazily in ascending
    cost from a heap, so the call stays cheap even when 2^d is huge. Both
    compute the same float costs, and exact-distance ties resolve toward the
    lower binary corner index (the heap expands its frontier of equal-cost
    corners past k, up to a large cap, to make that rule exact).
    """
    proto = np.asarray(proto, np.float64).ravel()
    return knn_actions_batch(proto[None, :], k)[0]


def knn_actions_batch(protos: np.ndarray, k: int) -> np.ndarray:
    """knn_actions for each row of an (n, d) batch, as an (n, k, d) array."""
    protos = np.asarray(protos, np.float64)
    if protos.ndim != 2:
        raise ValueError("proto-actions must form an (n, d) array")
    n, d = protos.shape
    if d < 1 or d > 62:
        raise ValueError("proto-action dimension out of supported range")
    if not 1 <= k <= (1 << d):
        raise ValueError(f"k must lie in [1, 2^{d}]")
    if d <= DENSE_MAX_WIDTH:
        return _knn_dense(protos, k)
    return np.array([_knn_heap(p, k) for p in protos],
                    np.int64).reshape(n, k, d)


@functools.lru_cache(maxsize=DENSE_MAX_WIDTH)
def _corner_table(d: int) -> np.ndarray:
    """All 2^d corners in binary index order; row i is
    action_from_index(i, d // 2)."""
    table = index_bits(np.arange(1 << d), d)
    table.flags.writeable = False
    return table


def _knn_dense(protos: np.ndarray, k: int) -> np.ndarray:
    corners = _corner_table(protos.shape[1])
    base = protos > 0.5  # half rounds down, toward index 0
    flip_cost = np.abs(1.0 - 2.0 * protos)
    order = np.argsort(flip_cost, axis=1, kind="stable")
    sorted_cost = np.take_along_axis(flip_cost, order, axis=1)
    # flips[r, j, c]: corner c flips the j-th cheapest coordinate of row r
    flips = (corners.T.astype(bool)[order]
             ^ np.take_along_axis(base, order, axis=1)[:, :, None])
    # add the flip costs in ascending order, exactly the heap's float sums
    cost = flips[:, 0] * sorted_cost[:, :1]
    for j in range(1, protos.shape[1]):
        cost += flips[:, j] * sorted_cost[:, j:j + 1]
    nearest = np.argsort(cost, axis=1, kind="stable")[:, :k]
    return corners[nearest]


def _knn_heap(proto: np.ndarray, k: int) -> np.ndarray:
    d = proto.size
    base = proto > 0.5
    flip_cost = np.abs(1.0 - 2.0 * proto)  # extra squared distance, simplified
    order = np.argsort(flip_cost, kind="stable")
    costs = flip_cost[order].tolist()
    # flipping coordinate i toggles bit d-1-i of the corner's action index
    bits = [1 << (d - 1 - i) for i in order.tolist()]
    heap = [(0.0, (), index_from_action(base))]
    found = []  # (cost, index), popped in nondecreasing cost order
    tie_cap = k + 4096
    while heap and (len(found) < k
                    or (heap[0][0] == found[k - 1][0] and len(found) < tie_cap)):
        cost, chosen, index = heapq.heappop(heap)
        found.append((cost, index))
        start = chosen[-1] + 1 if chosen else 0
        for j in range(start, d):
            heapq.heappush(heap, (cost + costs[j], chosen + (j,), index ^ bits[j]))
    found.sort()
    nearest = np.array([index for _, index in found[:k]], np.int64)
    return index_bits(nearest, d)


@dataclass
class WolpertingerConfig:
    k: int = 8
    hidden: tuple = (64, 64)
    actor_lr: float = 1e-3
    critic_lr: float = 2e-3
    gamma: float = 0.85
    tau: float = 0.005
    batch_size: int = 32
    buffer_capacity: int = 20000
    train_start: int = 200
    sigma_start: float = 0.3
    sigma_end: float = 0.01
    sigma_fraction: float = 0.8
    reward_scale: float = 0.02

    def __post_init__(self):
        check_replay_settings(self)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


class WolpertingerAgent:
    def __init__(self, num_features: int, num_cells: int,
                 config: WolpertingerConfig = None, seed: int = 0):
        self.config = config or WolpertingerConfig()
        self.num_cells = num_cells
        self.action_dim = 2 * num_cells
        rng = np.random.default_rng(seed)
        h = tuple(self.config.hidden)
        self.actor = neural.Mlp((num_features,) + h + (self.action_dim,), rng)
        self.critic = neural.Mlp((num_features + self.action_dim,) + h + (1,), rng)
        self.actor_target = self.actor.clone()
        self.critic_target = self.critic.clone()
        self.actor_opt = neural.AdamState(self.actor.parameters(),
                                          lr=self.config.actor_lr)
        self.critic_opt = neural.AdamState(self.critic.parameters(),
                                           lr=self.config.critic_lr)
        self.buffer = neural.ReplayBuffer(self.config.buffer_capacity)
        self.global_step = 0
        # action-search accounting: critic evaluations spent selecting actions
        self.critic_evals = 0
        self.last_act_evals = 0

    def propose(self, features: np.ndarray) -> np.ndarray:
        """Continuous proto-action in [0, 1]^(2L) from the actor."""
        return _sigmoid(neural.forward(self.actor, features))

    def critic_values(self, features: np.ndarray,
                      actions: np.ndarray) -> np.ndarray:
        """Critic scores for a batch of candidate actions at one state."""
        actions = np.atleast_2d(actions)
        tiled = np.tile(np.asarray(features, np.float64), (actions.shape[0], 1))
        x = np.concatenate([tiled, actions.astype(np.float64)], axis=1)
        return neural.forward(self.critic, x)[:, 0]

    def sigma(self, total_steps: int) -> float:
        c = self.config
        return linear_schedule(c.sigma_start, c.sigma_end, c.sigma_fraction,
                               self.global_step, total_steps)


def wolpertinger_act(agent: WolpertingerAgent, features: np.ndarray,
                     k: int = None, sigma: float = 0.0,
                     rng: np.random.Generator = None) -> np.ndarray:
    """Propose, refine over the k nearest bit vectors, return the critic's pick.

    sigma > 0 adds exploration noise to the proto-action before refinement.
    The number of critic evaluations spent is recorded on the agent and never
    exceeds k.
    """
    k = agent.config.k if k is None else k
    proto = agent.propose(features)
    if sigma > 0.0:
        if rng is None:
            raise ValueError("exploration needs a generator")
        proto = np.clip(proto + rng.normal(0.0, sigma, proto.size), 0.0, 1.0)
    candidates = knn_actions(proto, k)
    scores = agent.critic_values(features, candidates)
    agent.last_act_evals = candidates.shape[0]
    agent.critic_evals += candidates.shape[0]
    return candidates[int(np.argmax(scores))].copy()


def _soft_update(target: neural.Mlp, online: neural.Mlp, tau: float) -> None:
    t = target.parameters()
    t *= 1.0 - tau
    t += tau * online.parameters()


def actor_gradients(agent: WolpertingerAgent, states: np.ndarray) -> tuple:
    """Gradients of the negated actor objective, without touching the weights.

    The objective is the critic's mean value at the actor's sigmoid proposal.
    Returns (grads, mean objective), grads being what a minimizer should
    follow.
    """
    states = np.atleast_2d(states)
    n = states.shape[0]
    z, cache = neural.forward_cached(agent.actor, states)
    proto = _sigmoid(z)
    x = np.concatenate([states, proto], axis=1)
    q, critic_cache = neural.forward_cached(agent.critic, x)
    up = np.ones_like(q) / n
    dq_dx = neural.input_gradient(agent.critic, critic_cache, up)
    dq_da = dq_dx[:, states.shape[1]:]
    upstream = -dq_da * proto * (1.0 - proto)  # descend the negated objective
    return (neural.backward_from_cache(agent.actor, cache, upstream),
            float(q.mean()))


def actor_objective_update(agent: WolpertingerAgent,
                           states: np.ndarray) -> float:
    """One ascent step on the actor objective; returns its mean estimate."""
    grads, objective = actor_gradients(agent, states)
    neural.adam_step(agent.actor_opt, agent.actor.parameters(), grads)
    return objective


def wolpertinger_train_step(agent: WolpertingerAgent,
                            batch: neural.Batch) -> tuple:
    """One critic TD update plus one actor ascent step plus soft target sync."""
    c = agent.config
    n = batch.states.shape[0]

    # bootstrap action: target actor proposes, target critic refines over k
    proto_next = _sigmoid(neural.forward(agent.actor_target,
                                         batch.next_states))
    cands = knn_actions_batch(proto_next, c.k).reshape(n * c.k, -1)
    x_next = np.concatenate([np.repeat(batch.next_states, c.k, axis=0),
                             cands.astype(np.float64)], axis=1)
    q_next = neural.forward(agent.critic_target, x_next)[:, 0]
    bootstrap = q_next.reshape(n, c.k).max(axis=1)
    targets = batch.rewards + c.gamma * np.where(batch.dones, 0.0, bootstrap)

    x = np.concatenate([batch.states, batch.actions.astype(np.float64)], axis=1)
    q, cache = neural.forward_cached(agent.critic, x)
    err = q[:, 0] - targets
    loss, dloss = neural.huber(err)
    upstream = (dloss / n)[:, None]
    grads = neural.backward_from_cache(agent.critic, cache, upstream)
    neural.adam_step(agent.critic_opt, agent.critic.parameters(), grads)

    mean_q = actor_objective_update(agent, batch.states)

    _soft_update(agent.actor_target, agent.actor, c.tau)
    _soft_update(agent.critic_target, agent.critic, c.tau)
    return float(loss.mean()), mean_q


def train_wolpertinger(env: NetworkEnv, agent: WolpertingerAgent,
                       episodes: int, rng: np.random.Generator,
                       frozen_seed: int = None) -> dict:
    """Noisy-proposal exploration with replay updates, mirroring train_dqn."""
    total_steps = episodes * env.config.horizon

    def step(features):
        action = wolpertinger_act(agent, features,
                                  sigma=agent.sigma(total_steps), rng=rng)
        outcome = env.step(action)
        return action.astype(np.float64), outcome, outcome.reward

    return run_episodes(env, agent, episodes, rng, frozen_seed, step,
                        lambda batch: wolpertinger_train_step(agent, batch)[0])
