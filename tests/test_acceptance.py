"""End-to-end acceptance checks, one test per headline claim.

Each test states a measurable property of the full stack: oracle-relative
learning quality, reward-information tradeoffs, scaling behaviour, action
search complexity, numerical bedrock, and coverage. Heavy configurations
are frozen so the suite is deterministic run to run.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats

from skycell.agents.dqn import DqnAgent, DqnConfig, dqn_act, train_dqn
from skycell.agents.sequential import SequentialConfig, sequential_train
from skycell.agents.wolpertinger import WolpertingerAgent, wolpertinger_act
from skycell.baselines import (brute_force_search, mrt_tdma_sum_rate,
                               random_policy)
from skycell.environment import EnvConfig, NetworkEnv, RewardSpec
from skycell.harness import (ExperimentConfig, ccdf, greedy_rollout,
                             run_experiment, stream_seed, write_outputs)
from skycell.neural import Mlp, grad_check
from skycell.radio import ChannelSet, PowerSet, array_response, dft_codebook
from skycell.scenario import ScenarioConfig

NOISE = 10.0 ** -11.5


def _duel_config() -> ExperimentConfig:
    # small enough that the exhaustive oracle enumerates every joint config
    return ExperimentConfig(cell_counts=(2,), num_antennas=4, codebook_size=4,
                            power_levels_dbm=(27.0, 28.0, 29.0, 30.0),
                            gamma_min_db=-30.0, horizon=50)


@pytest.fixture(scope="module")
def frozen_duel():
    """Per-instance brute-force optimum plus trained greedy sum rates for
    the full-information and serving-link-only reward variants."""
    cfg = _duel_config()
    env_global = NetworkEnv(cfg.env_config(2, "global_sinr"))
    env_serving = NetworkEnv(cfg.env_config(2, "serving_snr"))
    episodes = 100
    records = []
    for inst in range(10):
        start = time.monotonic()
        env_global.reset(inst)
        brute = brute_force_search(env_global.channels, env_global.codebook,
                                   env_global.powers, env_global.noise_watts)

        rng = np.random.default_rng(1000 + inst)
        agent = DqnAgent(10, 2, DqnConfig(), seed=int(rng.integers(2 ** 63)))
        train_dqn(env_global, agent, episodes, rng, frozen_seed=inst)
        global_rate = greedy_rollout(env_global,
                                     lambda f: dqn_act(agent, f, 0.0),
                                     inst)["best_rate"]

        rng = np.random.default_rng(5000 + inst)
        agent = DqnAgent(10, 2, DqnConfig(), seed=int(rng.integers(2 ** 63)))
        train_dqn(env_serving, agent, episodes, rng, frozen_seed=inst)
        # scored on the true network sum rate, not the training signal
        serving_rate = greedy_rollout(env_global,
                                      lambda f: dqn_act(agent, f, 0.0),
                                      inst)["best_rate"]
        records.append({"brute": brute.sum_rate, "global": global_rate,
                        "serving": serving_rate,
                        "seconds": time.monotonic() - start})
    return records


def test_criterion_1_dqn_reaches_90pct_of_brute_force(frozen_duel):
    ratios = np.array([r["global"] / r["brute"] for r in frozen_duel])
    assert ratios.mean() >= 0.90
    for r in frozen_duel:
        assert r["seconds"] <= 600.0


def test_criterion_2_serving_reward_tracks_full_information(frozen_duel):
    serving = np.array([r["serving"] for r in frozen_duel])
    full = np.array([r["global"] for r in frozen_duel])
    # one-sided paired test of serving >= 0.85 * full at 95% confidence
    diff = serving - 0.85 * full
    t = diff.mean() / (diff.std(ddof=1) / math.sqrt(diff.size))
    assert t >= stats.t.ppf(0.95, df=diff.size - 1)


def test_criterion_3_sum_rate_scales_with_cells_but_tdma_does_not():
    cfg = ExperimentConfig(horizon=25)
    means = []
    for num_cells in (2, 3, 4, 5):
        env = NetworkEnv(cfg.env_config(num_cells, "global_sinr"))
        rates = []
        for s in range(3):
            rng = np.random.default_rng(stream_seed(31, "scale", num_cells, s))
            agent = DqnAgent(5 * num_cells, num_cells, DqnConfig(),
                             seed=int(rng.integers(2 ** 63)))
            train_dqn(env, agent, 60, rng)
            for e in range(25):
                es = stream_seed(31, "scale-eval", num_cells, s, e)
                rates.append(greedy_rollout(
                    env, lambda f: dqn_act(agent, f, 0.0), es)["best_rate"])
        means.append(float(np.mean(rates)))
    assert all(a < b for a, b in zip(means, means[1:])), means

    # orthogonal time sharing: the per-slot gain cancels the slot count
    tdma_means = []
    for num_cells in (2, 3, 4, 5):
        env = NetworkEnv(cfg.env_config(num_cells, "global_sinr"))
        vals = []
        for i in range(1000):
            env.reset(stream_seed(32, "tdma", num_cells, i))
            vals.append(mrt_tdma_sum_rate(env.channels, env.codebook,
                                          env.powers, env.noise_watts,
                                          gamma_min_db=-3.0))
        tdma_means.append(float(np.mean(vals)))
    spread = (max(tdma_means) - min(tdma_means)) / np.mean(tdma_means)
    assert spread < 0.05, tdma_means

    # identical isolated links: exactly flat, not merely close
    codebook = dft_codebook(4, 4)
    powers = PowerSet(levels_dbm=np.array([27.0, 30.0]))
    values = []
    for n in (1, 2, 3, 5):
        h = np.zeros((n, n, 4), np.complex128)
        for l in range(n):
            h[l, l] = np.sqrt(1e-9) * array_response(0.31, 4)
        values.append(mrt_tdma_sum_rate(ChannelSet(h=h), codebook, powers,
                                        NOISE))
    assert values[0] > 1.0
    for v in values[1:]:
        assert v == values[0]


def test_criterion_4_probe_reward_equals_full_information_reward():
    cfg = ExperimentConfig(horizon=10_000)
    env_global = NetworkEnv(cfg.env_config(3, "global_sinr"))
    env_probe = NetworkEnv(cfg.env_config(3, "measured_sinr"))
    rng = np.random.default_rng(17)
    start = time.monotonic()
    worst = 0.0
    for inst in range(100):
        env_global.reset(inst)
        env_probe.reset(inst)
        for _ in range(100):
            p = rng.integers(env_global.powers.levels_dbm.size, size=3)
            b = rng.integers(env_global.codebook.size, size=3)
            env_global.tx.power_idx[:] = p
            env_global.tx.beam_idx[:] = b
            env_probe.tx.power_idx[:] = p
            env_probe.tx.beam_idx[:] = b
            action = rng.integers(0, 2, size=6)
            r_global = env_global.step(action).reward
            r_probe = env_probe.step(action).reward
            worst = max(worst, abs(r_probe - r_global)
                        / max(abs(r_global), 1e-300))
    elapsed = time.monotonic() - start
    print(f"\n10000 reward pairs compared in {elapsed:.2f} s, "
          f"worst relative difference {worst:.3e}")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_5_full_k_search_is_exhaustive_and_calls_stay_bounded():
    agent = WolpertingerAgent(num_features=10, num_cells=2, seed=3)
    corners = np.array(list(itertools.product((0, 1), repeat=4)), np.int64)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        features = rng.standard_normal(10)
        scores = agent.critic_values(features, corners)
        expected = corners[int(np.argmax(scores))]
        chosen = wolpertinger_act(agent, features, k=16)
        assert chosen.tolist() == expected.tolist()

    for k in (1, 2, 3, 5, 8, 16):
        for _ in range(100):
            wolpertinger_act(agent, rng.standard_normal(10), k=k)
            assert agent.last_act_evals <= k


def _frozen_env(num_cells, horizon=25):
    return NetworkEnv(EnvConfig(
        scenario=ScenarioConfig(num_cells=num_cells),
        power_levels_dbm=(27.0, 28.0, 29.0, 30.0),
        codebook_size=8,
        horizon=horizon,
        reward=RewardSpec(gamma_min_db=-30.0),
    ))


def test_criterion_6_sequential_costs_4l_per_step_and_beats_random():
    env = _frozen_env(3)
    config = SequentialConfig(episodes_per_agent=2, hidden=(16,))
    result = sequential_train(env, config, seed=7, frozen_seed=7)
    agents = list(result.policies.values())
    features = env.reset(7)
    done = False
    while not done:
        before = sum(a.value_evals for a in agents)
        outcome = env.step(result.joint_action(features))
        after = sum(a.value_evals for a in agents)
        assert after - before == 4 * 3
        features = outcome.features
        done = outcome.done

    config = SequentialConfig(episodes_per_agent=12, hidden=(32, 32),
                              train_start=50, batch_size=16)
    rates_seq, rates_rand = [], []
    for seed in range(30):
        env = _frozen_env(3)
        result = sequential_train(env, config, seed=seed, frozen_seed=seed)
        features = env.reset(seed)
        total, done = 0.0, False
        while not done:
            outcome = env.step(result.joint_action(features))
            features = outcome.features
            done = outcome.done
            total += outcome.info["sum_rate"]
        rates_seq.append(total / env.config.horizon)

        rng = np.random.default_rng(1000 + seed)
        env.reset(seed)
        total, done = 0.0, False
        while not done:
            outcome = env.step(random_policy(rng, 3))
            done = outcome.done
            total += outcome.info["sum_rate"]
        rates_rand.append(total / env.config.horizon)
    diff = np.array(rates_seq) - np.array(rates_rand)
    t = diff.mean() / (diff.std(ddof=1) / math.sqrt(diff.size))
    assert t >= stats.t.ppf(0.95, df=diff.size - 1)


def test_criterion_7_numerical_bedrock(tmp_path):
    start = time.monotonic()

    rng = np.random.default_rng(2)
    net = Mlp((6, 16, 12, 5), rng)
    target = rng.standard_normal(5)

    def loss(y):
        err = y - target
        return 0.5 * float(np.sum(err * err)), err

    result = grad_check(net, loss, rng.standard_normal(6))
    assert result.max_rel_error <= 1e-4

    for m in (4, 8):
        c = dft_codebook(m, m).codewords
        gram = c @ c.conj().T
        assert np.max(np.abs(gram - np.eye(m))) <= 1e-9

    cfg = ExperimentConfig(horizon=1_000)
    env_global = NetworkEnv(cfg.env_config(2, "global_sinr"))
    env_probe = NetworkEnv(cfg.env_config(2, "measured_sinr"))
    pair_rng = np.random.default_rng(23)
    for inst in range(10):
        env_global.reset(inst)
        env_probe.reset(inst)
        for _ in range(50):
            p = pair_rng.integers(env_global.powers.levels_dbm.size, size=2)
            b = pair_rng.integers(env_global.codebook.size, size=2)
            env_global.tx.power_idx[:] = p
            env_global.tx.beam_idx[:] = b
            env_probe.tx.power_idx[:] = p
            env_probe.tx.beam_idx[:] = b
            action = pair_rng.integers(0, 2, size=4)
            r_global = env_global.step(action).reward
            r_probe = env_probe.step(action).reward
            assert abs(r_probe - r_global) <= 1e-9 * max(abs(r_global), 1e-300)

    run_cfg = ExperimentConfig(cell_counts=(1, 2), num_seeds=2,
                               eval_episodes=3, horizon=8, codebook_size=4,
                               power_levels_dbm=(27.0, 30.0),
                               methods=("brute_force", "mrt", "random"),
                               ccdf_points=41)
    table = run_experiment(run_cfg)
    written = write_outputs(table, str(tmp_path), run_cfg)
    ccdf_files = [p for p in written if "ccdf_" in p]
    assert ccdf_files
    for path in ccdf_files:
        probs = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]
        assert np.all(np.diff(probs) <= 0.0)

    assert time.monotonic() - start < 120.0


def test_criterion_8_trained_coverage_at_threshold_beats_random():
    cfg = ExperimentConfig(horizon=25, gamma_min_db=-3.0)
    env = NetworkEnv(cfg.env_config(5, "global_sinr"))
    seq_cfg = SequentialConfig(episodes_per_agent=12, hidden=(32, 32),
                               train_start=50, batch_size=16)
    trained_pool, random_pool = [], []
    for s in range(10):
        inst = stream_seed(41, "instance", 5, s)
        result = sequential_train(env, seq_cfg, seed=900 + s, frozen_seed=inst)
        rng_rand = np.random.default_rng(stream_seed(41, "cov-rand", s))
        for _ in range(20):
            trained_pool.extend(greedy_rollout(env, result.joint_action,
                                               inst)["sinr_db"])
            random_pool.extend(greedy_rollout(
                env, lambda f: random_policy(rng_rand, 5), inst)["sinr_db"])
    trained_pool = np.array(trained_pool)
    random_pool = np.array(random_pool)
    assert trained_pool.size == 10 * 20 * 5
    coverage_trained = float((trained_pool >= -3.0).mean())
    coverage_random = float((random_pool >= -3.0).mean())
    assert coverage_trained >= coverage_random
