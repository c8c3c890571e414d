"""Per-cell agents trained one at a time in interference order."""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from helpers import Vec3, link_distance_3d
from skycell.agents.sequential import (CellAgent, SequentialConfig,
                                       _leakage_cost, rank_cells,
                                       sequential_train)
from skycell.baselines import random_policy
from skycell.environment import EnvConfig, NetworkEnv, RewardSpec
from skycell.scenario import ScenarioConfig


def _env(num_cells, horizon=25):
    return NetworkEnv(EnvConfig(
        scenario=ScenarioConfig(num_cells=num_cells),
        power_levels_dbm=(27.0, 28.0, 29.0, 30.0),
        codebook_size=8,
        horizon=horizon,
        reward=RewardSpec(gamma_min_db=-30.0),
    ))


def test_config_fields_and_defaults():
    assert dataclasses.asdict(SequentialConfig()) == {
        "episodes_per_agent": 30,
        "hidden": (64, 64),
        "lr": 2e-3,
        "gamma": 0.85,
        "batch_size": 32,
        "buffer_capacity": 10000,
        "target_sync": 200,
        "train_start": 100,
        "eps_start": 1.0,
        "eps_end": 0.05,
        "eps_fraction": 0.8,
        "order_metric": "rsrq",
        "interference_weight": 1.0,
        "reward_scale": 0.05,
    }


def test_rank_single_cell():
    assert rank_cells(_env(1), "rsrq") == [0]


def test_rank_rsrq_puts_worst_ratio_first():
    env = _env(3)
    order = rank_cells(env, "rsrq", probe_seed=11)
    env.reset(11)
    score = [m.rsrq for m in env.measurements()]
    assert order == sorted(range(3), key=lambda l: (score[l], l))
    assert score[order[0]] == min(score)


def test_rank_min_distance_puts_closest_interferer_first():
    env = _env(3)
    order = rank_cells(env, "min_distance", probe_seed=11)
    env.reset(11)
    score = []
    bs = [Vec3(*c) for c in env.realization.bs_positions.tolist()]
    users = [Vec3(*c) for c in env.realization.user_positions.tolist()]
    for l in range(3):
        score.append(min(link_distance_3d(bs[j], users[l])
                         for j in range(3) if j != l))
    assert order == sorted(range(3), key=lambda l: (score[l], l))


def test_rank_rejects_unknown_metric():
    with pytest.raises(ValueError):
        rank_cells(_env(2), "closest_neighbor")
    with pytest.raises(ValueError):
        SequentialConfig(order_metric="closest_neighbor")


def test_leakage_cost_shape():
    env = _env(2)
    env.reset(5)
    assert _leakage_cost(env, 0, []) == 0.0
    one = _leakage_cost(env, 0, [1])
    assert one > 0.0
    env.tx.power_idx[0] = 0
    low = _leakage_cost(env, 0, [1])
    env.tx.power_idx[0] = 3
    high = _leakage_cost(env, 0, [1])
    assert high > low
    assert one + _leakage_cost(env, 1, [0]) > 0.0


def test_joint_greedy_decision_costs_4l_evaluations():
    env = _env(3, horizon=10)
    config = SequentialConfig(episodes_per_agent=2, hidden=(16,),
                              train_start=16, batch_size=8)
    result = sequential_train(env, config, seed=0, frozen_seed=7)
    features = env.reset(7)
    before = {cell: agent.value_evals for cell, agent in result.policies.items()}
    result.joint_action(features)
    spent = sum(agent.value_evals - before[cell]
                for cell, agent in result.policies.items())
    assert spent == 4 * 3


def test_single_cell_reduces_to_one_agent():
    env = _env(1, horizon=10)
    config = SequentialConfig(episodes_per_agent=2, hidden=(16,),
                              train_start=16, batch_size=8)
    result = sequential_train(env, config, seed=0, frozen_seed=3)
    assert result.order == (0,)
    assert set(result.policies) == {0}
    assert isinstance(result.policies[0], CellAgent)
    assert len(result.history["phase_reward"]) == 1
    features = env.reset(3)
    bits = result.joint_action(features)
    assert bits.shape == (2,)
    env.step(bits)


def test_trained_cells_stay_frozen_while_later_phases_run():
    env = _env(2, horizon=10)
    config = SequentialConfig(episodes_per_agent=2, hidden=(16,),
                              train_start=16, batch_size=8)
    result = sequential_train(env, config, seed=1, frozen_seed=9)
    first = result.order[0]
    # the first-phase agent saw exactly its own training updates; had a later
    # phase trained it further, its counter would exceed its own step budget
    own_steps = config.episodes_per_agent * env.config.horizon
    assert result.policies[first].train_calls <= own_steps


def test_sequential_beats_random_policy():
    rates_seq = []
    rates_rand = []
    config = SequentialConfig(episodes_per_agent=12, hidden=(32, 32),
                              train_start=50, batch_size=16)
    for seed in range(30):
        env = _env(2, horizon=25)
        result = sequential_train(env, config, seed=seed, frozen_seed=seed)
        features = env.reset(seed)
        total = 0.0
        done = False
        while not done:
            outcome = env.step(result.joint_action(features))
            features = outcome.features
            done = outcome.done
            total += outcome.info["sum_rate"]
        rates_seq.append(total / env.config.horizon)

        rng = np.random.default_rng(1000 + seed)
        env.reset(seed)
        total = 0.0
        done = False
        while not done:
            outcome = env.step(random_policy(rng, 2))
            done = outcome.done
            total += outcome.info["sum_rate"]
        rates_rand.append(total / env.config.horizon)

    diff = np.array(rates_seq) - np.array(rates_rand)
    t = diff.mean() / (diff.std(ddof=1) / np.sqrt(diff.size))
    assert t >= stats.t.ppf(0.95, df=diff.size - 1)
