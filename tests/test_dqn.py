"""Joint-action deep Q-learning: action selection, updates, and frozen-instance runs."""

import numpy as np
import pytest
from scipy import stats

from helpers import QTable, q_update
from skycell.agents.dqn import (DqnAgent, DqnConfig, dqn_act, dqn_train_step,
                                train_dqn)
from skycell.baselines import brute_force_search
from skycell.environment import EnvConfig, NetworkEnv, RewardSpec
from skycell.neural import Batch
from skycell.scenario import ScenarioConfig


def _rig_outputs(agent, q_row):
    # zero every layer so the final bias alone sets the output vector
    agent.online.parameters()[...] = 0.0
    agent.online.biases[-1][...] = np.asarray(q_row, dtype=float)


def _toy_env(horizon=25):
    return NetworkEnv(EnvConfig(
        scenario=ScenarioConfig(num_cells=1),
        power_levels_dbm=(27.0, 28.0, 29.0, 30.0),
        codebook_size=8,
        horizon=horizon,
        reward=RewardSpec(gamma_min_db=-30.0),
    ))


def test_greedy_action_decodes_unique_max():
    agent = DqnAgent(num_features=10, num_cells=2, seed=0)
    q = np.zeros(16)
    q[5] = 3.0
    _rig_outputs(agent, q)
    action = dqn_act(agent, np.zeros(10), 0.0)
    assert action.tolist() == [0, 1, 0, 1]


def test_greedy_tie_takes_lowest_index():
    agent = DqnAgent(num_features=10, num_cells=2, seed=0)
    q = np.zeros(16)
    q[3] = 2.0
    q[7] = 2.0
    _rig_outputs(agent, q)
    action = dqn_act(agent, np.zeros(10), 0.0)
    assert action.tolist() == [0, 0, 1, 1]


def test_full_exploration_is_uniform():
    agent = DqnAgent(num_features=10, num_cells=2, seed=0)
    rng = np.random.default_rng(123)
    counts = np.zeros(16, dtype=int)
    draws = 10_000
    for _ in range(draws):
        action = dqn_act(agent, np.zeros(10), 1.0, rng)
        idx = 0
        for b in action:
            idx = (idx << 1) | int(b)
        counts[idx] += 1
    expected = draws / 16
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < stats.chi2.ppf(0.999, df=15)


def test_exploration_requires_generator():
    agent = DqnAgent(num_features=4, num_cells=1, seed=0)
    with pytest.raises(ValueError):
        dqn_act(agent, np.zeros(4), 0.5)
    dqn_act(agent, np.zeros(4), 0.0)


def test_epsilon_schedule():
    agent = DqnAgent(num_features=4, num_cells=1,
                     config=DqnConfig(eps_start=1.0, eps_end=0.05,
                                      eps_fraction=0.8), seed=0)
    total = 1000
    assert agent.epsilon(total) == 1.0
    agent.global_step = 400
    assert agent.epsilon(total) == pytest.approx(1.0 + 0.5 * (0.05 - 1.0))
    agent.global_step = 800
    assert agent.epsilon(total) == pytest.approx(0.05)
    agent.global_step = 999
    assert agent.epsilon(total) == pytest.approx(0.05)


def test_q_converges_on_repeated_terminal_transition():
    agent = DqnAgent(num_features=3, num_cells=1,
                     config=DqnConfig(hidden=(32, 32)), seed=0)
    state = np.array([0.2, 0.7, 0.4])
    batch = Batch(
        states=np.tile(state, (8, 1)),
        actions=np.full(8, 2, dtype=np.int64),
        rewards=np.ones(8),
        next_states=np.tile(state, (8, 1)),
        dones=np.ones(8, dtype=bool),
    )
    for _ in range(500):
        dqn_train_step(agent, batch)
    q = agent.q_values(state)
    assert abs(q[2] - 1.0) < 0.05


def test_loss_finite_and_nonnegative():
    agent = DqnAgent(num_features=4, num_cells=1,
                     config=DqnConfig(hidden=(32,), batch_size=16), seed=1)
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        batch = Batch(
            states=rng.random((16, 4)),
            actions=rng.integers(0, 4, 16),
            rewards=rng.normal(size=16),
            next_states=rng.random((16, 4)),
            dones=rng.random(16) < 0.1,
        )
        loss = dqn_train_step(agent, batch)
        assert np.isfinite(loss) and loss >= 0.0


def test_target_network_is_a_delayed_copy():
    agent = DqnAgent(num_features=4, num_cells=1,
                     config=DqnConfig(hidden=(16,), target_sync=5), seed=2)
    rng = np.random.default_rng(3)
    batch = Batch(
        states=rng.random((8, 4)),
        actions=rng.integers(0, 4, 8),
        rewards=rng.normal(size=8),
        next_states=rng.random((8, 4)),
        dones=np.zeros(8, dtype=bool),
    )
    for _ in range(4):
        dqn_train_step(agent, batch)
    assert not np.array_equal(agent.online.parameters(),
                              agent.target.parameters())
    dqn_train_step(agent, batch)
    assert np.array_equal(agent.online.parameters(), agent.target.parameters())
    assert not np.shares_memory(agent.online.parameters(),
                                agent.target.parameters())


def test_frozen_toy_reaches_brute_force_optimum():
    env = _toy_env(horizon=25)
    frozen = 3
    env.reset(frozen)
    brute = brute_force_search(env.channels, env.codebook, env.powers,
                               env.noise_watts)
    agent = DqnAgent(5, 1, DqnConfig(hidden=(64, 64), buffer_capacity=4000,
                                     train_start=64), seed=0)
    train_dqn(env, agent, 40, np.random.default_rng(1), frozen_seed=frozen)
    features = env.reset(frozen)
    best = 0.0
    done = False
    while not done:
        outcome = env.step(dqn_act(agent, features, 0.0))
        features = outcome.features
        done = outcome.done
        best = max(best, outcome.info["sum_rate"])
    assert best >= 0.99 * brute.sum_rate


def test_tabular_and_dqn_policies_agree_on_frozen_instance():
    # both learners solve the same 32-state frozen instance with matched
    # discounting and sustained uniform exploration, then their greedy
    # policies are compared state by state
    gamma = 0.5
    env = _toy_env(horizon=100)
    frozen = 3

    table = QTable(num_actions=4, alpha=0.05, gamma=gamma)
    rng = np.random.default_rng(2)
    for _ in range(1000):
        env.reset(frozen)
        done = False
        while not done:
            s = (int(env.tx.power_idx[0]), int(env.tx.beam_idx[0]))
            a = table.act(s, 1.0, rng)
            outcome = env.step([(a >> 1) & 1, a & 1])
            s2 = (int(env.tx.power_idx[0]), int(env.tx.beam_idx[0]))
            q_update(table, s, a, outcome.reward, s2, outcome.done)
            done = outcome.done

    agent = DqnAgent(5, 1, DqnConfig(hidden=(128, 128), gamma=gamma,
                                     buffer_capacity=12000, train_start=64,
                                     eps_start=1.0, eps_end=1.0), seed=1)
    train_dqn(env, agent, 100, np.random.default_rng(11), frozen_seed=frozen)

    agree = 0
    env.reset(frozen)
    for p in range(4):
        for b in range(8):
            env.tx.power_idx[0] = p
            env.tx.beam_idx[0] = b
            dqn_choice = int(np.argmax(agent.q_values(env.features())))
            tab_choice = int(np.argmax(table.values((p, b))))
            agree += (dqn_choice == tab_choice)
    assert agree / 32 >= 0.95
