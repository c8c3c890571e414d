"""Actor-critic with k-nearest-corner refinement over the bit-vector action space."""

import itertools

import numpy as np
import pytest

from helpers import actor_step_along
from skycell.agents.dqn import DqnAgent, DqnConfig, dqn_act, train_dqn
from skycell.agents.wolpertinger import (DENSE_MAX_WIDTH, WolpertingerAgent,
                                         WolpertingerConfig, _knn_dense,
                                         _knn_heap, _soft_update,
                                         actor_gradients,
                                         actor_objective_update, knn_actions,
                                         knn_actions_batch,
                                         train_wolpertinger, wolpertinger_act,
                                         wolpertinger_train_step)
from skycell.baselines import brute_force_search
from skycell.environment import EnvConfig, NetworkEnv, RewardSpec
from skycell.neural import (Batch, adam_step, backward_from_cache, forward,
                            forward_cached, huber)
from skycell.scenario import ScenarioConfig


def _corners(d):
    return np.array(list(itertools.product((0, 1), repeat=d)), np.int64)


def _knn_oracle(proto, k):
    corners = _corners(proto.size)
    dist = ((corners - proto) ** 2).sum(axis=1)
    idx = np.array([int("".join(map(str, c)), 2) for c in corners])
    order = np.lexsort((idx, dist))
    return corners[order[:k]]


def test_knn_nearest_corner():
    assert knn_actions(np.array([0.9, 0.1]), 1).tolist() == [[1, 0]]


def test_knn_total_tie_returns_corners_in_index_order():
    out = knn_actions(np.array([0.5, 0.5]), 4)
    assert out.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_knn_full_k_returns_entire_action_set():
    out = knn_actions(np.array([0.3, 0.8, 0.6, 0.2]), 16)
    assert sorted(map(tuple, out.tolist())) == sorted(
        map(tuple, _corners(4).tolist()))


def test_knn_matches_exhaustive_enumeration():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3, 4, 5, 6, 8, 10):
        for _ in range(25):
            proto = rng.random(d)
            for k in (1, min(3, 1 << d), 1 << d):
                out = knn_actions(proto, k)
                assert out.tolist() == _knn_oracle(proto, k).tolist()


def _tie_heavy_protos(rng, n, d):
    """Protos on which exact-distance ties are common, plus plain ones."""
    return np.concatenate([
        rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(n, d)),
        np.round(rng.random((n, d)), 2),
        1.0 / (1.0 + np.exp(-rng.normal(0.0, 40.0, (n, d)))),  # saturated
        rng.random((n, d)),
    ])


def test_knn_dense_and_heap_paths_agree():
    assert DENSE_MAX_WIDTH >= 8
    rng = np.random.default_rng(11)
    for d in range(1, 9):
        protos = _tie_heavy_protos(rng, 40, d)
        for k in sorted({1, min(3, 1 << d), min(8, 1 << d), (1 << d) - 1,
                         1 << d}):
            dense = _knn_dense(protos, k)
            for proto, row in zip(protos, dense):
                assert np.array_equal(row, _knn_heap(proto, k))


@pytest.mark.parametrize("d", [2, 5, 8, 10, 12])
def test_knn_batch_rows_match_single_calls(d):
    rng = np.random.default_rng(d)
    protos = _tie_heavy_protos(rng, 6, d)
    for k in (1, min(8, 1 << d), 1 << min(d, 6)):
        batch = knn_actions_batch(protos, k)
        assert batch.shape == (protos.shape[0], k, d)
        assert batch.dtype == np.int64
        for proto, row in zip(protos, batch):
            assert np.array_equal(row, knn_actions(proto, k))
    assert knn_actions_batch(np.empty((0, d)), 1).shape == (0, 1, d)


def test_knn_validation():
    cases = [
        (np.array([0.5, 0.5]), 0),
        (np.array([0.5, 0.5]), 5),
        (np.array([]), 1),
        (np.full(63, 0.5), 1),
    ]
    for proto, k in cases:
        with pytest.raises(ValueError) as single:
            knn_actions(proto, k)
        with pytest.raises(ValueError) as batch:
            knn_actions_batch(proto[None, :], k)
        assert str(single.value) == str(batch.value)
    with pytest.raises(ValueError):
        knn_actions_batch(np.array([0.5, 0.5]), 1)


def test_act_with_k_one_returns_rounded_proposal():
    agent = WolpertingerAgent(num_features=6, num_cells=2, seed=0)
    features = np.random.default_rng(1).random(6)
    proto = agent.propose(features)
    action = wolpertinger_act(agent, features, k=1)
    assert action.tolist() == (proto > 0.5).astype(int).tolist()


def test_act_counts_critic_evaluations():
    agent = WolpertingerAgent(num_features=6, num_cells=2, seed=0)
    features = np.random.default_rng(2).random(6)
    total = 0
    for k in (1, 2, 5, 9, 16):
        wolpertinger_act(agent, features, k=k)
        assert agent.last_act_evals == k
        total += k
    assert agent.critic_evals == total


def test_act_with_full_k_matches_exhaustive_critic_argmax():
    agent = WolpertingerAgent(num_features=6, num_cells=2, seed=3)
    rng = np.random.default_rng(4)
    corners = _corners(4)
    idx = np.array([int("".join(map(str, c)), 2) for c in corners])
    order = np.argsort(idx)
    for _ in range(50):
        features = rng.random(6)
        scores = agent.critic_values(features, corners[order])
        expected = corners[order][int(np.argmax(scores))]
        chosen = wolpertinger_act(agent, features, k=16)
        assert chosen.tolist() == expected.tolist()


def test_exploration_requires_generator():
    agent = WolpertingerAgent(num_features=4, num_cells=1, seed=0)
    with pytest.raises(ValueError):
        wolpertinger_act(agent, np.zeros(4), sigma=0.3)


def test_sigma_schedule():
    agent = WolpertingerAgent(num_features=4, num_cells=1, seed=0)
    total = 1000
    assert agent.sigma(total) == pytest.approx(0.3)
    agent.global_step = 800
    assert agent.sigma(total) == pytest.approx(0.01)


def test_actor_gradients_match_finite_differences():
    agent = WolpertingerAgent(num_features=4, num_cells=1,
                              config=WolpertingerConfig(hidden=(8, 8)), seed=5)
    rng = np.random.default_rng(6)
    states = rng.random((3, 4))

    def objective():
        proto = 1.0 / (1.0 + np.exp(-forward(agent.actor, states)))
        x = np.concatenate([states, proto], axis=1)
        return float(forward(agent.critic, x).mean())

    grads, _ = actor_gradients(agent, states)
    params = agent.actor.parameters()
    assert grads.shape == params.shape
    eps = 1e-6
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + eps
        up = objective()
        params[i] = orig - eps
        down = objective()
        params[i] = orig
        numeric = (up - down) / (2 * eps)
        assert abs(-grads[i] - numeric) <= 1e-3 * max(1.0, abs(numeric))


def test_actor_converges_against_synthetic_value_landscape():
    # drive the actor with the gradient of -(proto - a*)^2 in place of the
    # critic; its sigmoid output must settle onto a*
    agent = WolpertingerAgent(num_features=3, num_cells=1,
                              config=WolpertingerConfig(hidden=(16, 16),
                                                        actor_lr=5e-3), seed=7)
    state = np.array([[0.4, 0.9, 0.1]])
    a_star = np.array([0.8, 0.3])
    for _ in range(2000):
        proto = agent.propose(state[0])
        actor_step_along(agent, state, -2.0 * (proto - a_star)[None, :])
    final = agent.propose(state[0])
    assert np.abs(final - a_star).max() < 0.05


def test_train_step_soft_updates_targets():
    agent = WolpertingerAgent(num_features=4, num_cells=1,
                              config=WolpertingerConfig(hidden=(8,), k=4),
                              seed=8)
    rng = np.random.default_rng(9)
    batch = Batch(
        states=rng.random((8, 4)),
        actions=rng.integers(0, 2, (8, 2)).astype(np.float64),
        rewards=rng.normal(size=8),
        next_states=rng.random((8, 4)),
        dones=np.zeros(8, dtype=bool),
    )
    tau = agent.config.tau
    nets = (("actor_target", "actor"), ("critic_target", "critic"))
    before = {t: getattr(agent, t).parameters().copy() for t, _ in nets}
    wolpertinger_train_step(agent, batch)
    for t, o in nets:
        expected = before[t] * (1.0 - tau)
        expected += tau * getattr(agent, o).parameters()
        assert np.array_equal(getattr(agent, t).parameters(), expected)


def _reference_train_step(agent, batch):
    """The train step with a per-row k-NN and bootstrap, as a loop oracle."""
    c = agent.config
    n = batch.states.shape[0]
    proto_next = 1.0 / (1.0 + np.exp(-forward(agent.actor_target,
                                              batch.next_states)))
    cand_rows, state_rows, counts = [], [], []
    for i in range(n):
        cands = knn_actions(proto_next[i], c.k)
        counts.append(cands.shape[0])
        cand_rows.append(cands.astype(np.float64))
        state_rows.append(np.tile(batch.next_states[i], (cands.shape[0], 1)))
    x_next = np.concatenate([np.concatenate(state_rows, axis=0),
                             np.concatenate(cand_rows, axis=0)], axis=1)
    q_next = forward(agent.critic_target, x_next)[:, 0]
    bootstrap = np.empty(n)
    off = 0
    for i, cnt in enumerate(counts):
        bootstrap[i] = q_next[off:off + cnt].max()
        off += cnt
    targets = batch.rewards + c.gamma * np.where(batch.dones, 0.0, bootstrap)
    x = np.concatenate([batch.states, batch.actions.astype(np.float64)], axis=1)
    q, cache = forward_cached(agent.critic, x)
    loss, dloss = huber(q[:, 0] - targets)
    grads = backward_from_cache(agent.critic, cache, (dloss / n)[:, None])
    adam_step(agent.critic_opt, agent.critic.parameters(), grads)
    mean_q = actor_objective_update(agent, batch.states)
    _soft_update(agent.actor_target, agent.actor, c.tau)
    _soft_update(agent.critic_target, agent.critic, c.tau)
    return float(loss.mean()), mean_q


@pytest.mark.parametrize("num_cells", [2, 5])  # dense and heap k-NN widths
def test_train_step_matches_per_row_reference(num_cells):
    assert (2 * num_cells <= DENSE_MAX_WIDTH) == (num_cells == 2)
    cfg = WolpertingerConfig(hidden=(16, 16), k=8)
    agents = [WolpertingerAgent(5 * num_cells, num_cells, cfg, seed=13)
              for _ in range(2)]
    rng = np.random.default_rng(14)
    for _ in range(3):
        batch = Batch(
            states=rng.random((16, 5 * num_cells)),
            actions=rng.integers(0, 2, (16, 2 * num_cells)).astype(np.float64),
            rewards=rng.normal(size=16),
            next_states=rng.random((16, 5 * num_cells)),
            dones=rng.random(16) < 0.2,
        )
        assert wolpertinger_train_step(agents[0], batch) == \
            _reference_train_step(agents[1], batch)
    new, ref = agents
    for net in ("actor", "critic", "actor_target", "critic_target"):
        assert np.array_equal(getattr(new, net).parameters(),
                              getattr(ref, net).parameters())


def test_full_k_toy_run_keeps_pace_with_dqn():
    env = NetworkEnv(EnvConfig(
        scenario=ScenarioConfig(num_cells=1),
        power_levels_dbm=(27.0, 28.0, 29.0, 30.0),
        codebook_size=8,
        horizon=25,
        reward=RewardSpec(gamma_min_db=-30.0),
    ))
    frozen = 3
    env.reset(frozen)
    brute = brute_force_search(env.channels, env.codebook, env.powers,
                               env.noise_watts)

    dqn = DqnAgent(5, 1, DqnConfig(hidden=(64, 64), buffer_capacity=4000,
                                   train_start=64), seed=0)
    train_dqn(env, dqn, 40, np.random.default_rng(1), frozen_seed=frozen)
    features = env.reset(frozen)
    dqn_best = 0.0
    done = False
    while not done:
        outcome = env.step(dqn_act(dqn, features, 0.0))
        features = outcome.features
        done = outcome.done
        dqn_best = max(dqn_best, outcome.info["sum_rate"])

    wolp = WolpertingerAgent(5, 1, WolpertingerConfig(hidden=(64, 64), k=4,
                                                      buffer_capacity=4000,
                                                      train_start=64), seed=0)
    train_wolpertinger(env, wolp, 40, np.random.default_rng(1),
                       frozen_seed=frozen)
    features = env.reset(frozen)
    wolp_best = 0.0
    done = False
    while not done:
        outcome = env.step(wolpertinger_act(wolp, features, k=4))
        features = outcome.features
        done = outcome.done
        wolp_best = max(wolp_best, outcome.info["sum_rate"])

    assert dqn_best >= 0.99 * brute.sum_rate
    assert wolp_best >= 0.95 * dqn_best
