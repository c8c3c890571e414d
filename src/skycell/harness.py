"""Experiment orchestration: method runners, metrics, CSV and JSON outputs.

A run is a grid over cell counts, methods and seed indices. Every grid cell
owns an independent RNG stream derived by hashing
(master_seed, method, cell_count, seed_index), so cells can execute in any
order, or in parallel processes, and still produce identical files.
Evaluation instances are drawn from method-independent streams, so every
method is scored on the same network draws.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .agents.dqn import DqnAgent, DqnConfig, dqn_act, train_dqn
from .agents.sequential import SequentialConfig, sequential_train
from .agents.wolpertinger import (WolpertingerAgent, WolpertingerConfig,
                                  train_wolpertinger, wolpertinger_act)
from .baselines import (BruteForceCapExceeded, brute_force_search, mrt_snrs,
                        mrt_tdma_sum_rate, random_policy)
from .channel import PathLossParams
from .environment import EnvConfig, NetworkEnv, RewardSpec
from .kernels import rx_powers
from .scenario import ScenarioConfig

_SIMPLE_METHODS = ("brute_force", "mrt", "random")
_AGENT_CONFIGS = {"dqn": DqnConfig, "wolpertinger": WolpertingerConfig,
                  "sequential": SequentialConfig}
_LEARNER_BASES = tuple(_AGENT_CONFIGS)
_REWARD_SUFFIXES = {
    "global": "global_sinr",
    "serving": "serving_snr",
    "measured": "measured_sinr",
    "rsrq": "rsrq",
}


def parse_method(name: str):
    """Split a method name into (base, reward kind or None)."""
    if name in _SIMPLE_METHODS:
        return name, None
    for base in _LEARNER_BASES:
        if name == base:
            return base, "global_sinr"
        prefix = base + "_"
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            if suffix in _REWARD_SUFFIXES:
                return base, _REWARD_SUFFIXES[suffix]
    raise ValueError(f"unknown method {name!r}")


def stream_seed(*parts) -> int:
    """Stable 64-bit seed: first 8 little-endian bytes of sha256 over the
    slash-joined decimal/text rendering of the parts."""
    text = "/".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class ExperimentConfig:
    master_seed: int = 0
    cell_counts: tuple = (2,)
    methods: tuple = ("brute_force", "mrt", "random", "dqn_global")
    num_seeds: int = 3
    seed_offset: int = 0
    train_episodes: int = 60
    eval_episodes: int = 5
    horizon: int = 50
    freeze_channels: bool = False
    gamma_min_db: float = -3.0
    penalty: float = -1.0
    num_antennas: int = 4
    codebook_size: int = 8
    power_levels_dbm: tuple = tuple(float(v) for v in range(21, 31))
    bandwidth_hz: float = 1e8
    noise_figure_db: float = 9.0
    cell_radius_m: float = 200.0
    bs_height_m: float = 25.0
    user_altitude_range_m: tuple = (50.0, 120.0)
    user_placement: str = "uniform"
    los_probability: float = 0.8
    los_intercept_db: float = 61.4
    los_exponent: float = 2.0
    nlos_intercept_db: float = 72.0
    nlos_exponent: float = 2.92
    num_nlos_paths: int = 3
    brute_force_cap: int = 10_000_000
    mrt_continuous: bool = False
    ccdf_points: int = 101
    output_dir: str = "results"
    agent: dict = field(default_factory=dict)

    def validate(self) -> "ExperimentConfig":
        if not self.cell_counts or any(int(c) < 1 for c in self.cell_counts):
            raise ValueError("cell_counts must be nonempty positive integers")
        if not self.methods:
            raise ValueError("methods must be nonempty")
        for m in self.methods:
            parse_method(m)
        if self.num_seeds < 1 or self.seed_offset < 0:
            raise ValueError("need num_seeds >= 1 and seed_offset >= 0")
        if self.train_episodes < 1 or self.eval_episodes < 1:
            raise ValueError("episode counts must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.ccdf_points < 2:
            raise ValueError("ccdf_points must be at least 2")
        if self.brute_force_cap < 1:
            raise ValueError("brute_force_cap must be positive")
        for key, overrides in self.agent.items():
            if key not in _AGENT_CONFIGS:
                raise ValueError(f"unknown agent override section {key!r}")
            try:
                _AGENT_CONFIGS[key](**overrides)
            except TypeError as exc:
                raise ValueError(f"bad agent override for {key!r}: {exc}") from exc
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged = {}
        for f in fields(cls):
            if f.name in data:
                value = data[f.name]
                if isinstance(value, list):
                    value = tuple(value)
                merged[f.name] = value
        cfg = cls(**merged)
        return cfg.validate()

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    def env_config(self, num_cells: int, reward_kind: str = None) -> EnvConfig:
        scenario = ScenarioConfig(
            num_cells=num_cells,
            cell_radius_m=self.cell_radius_m,
            bs_height_m=self.bs_height_m,
            user_altitude_range_m=tuple(self.user_altitude_range_m),
            user_placement=self.user_placement,
            los_probability=self.los_probability,
        )
        return EnvConfig(
            scenario=scenario,
            num_antennas=self.num_antennas,
            codebook_size=self.codebook_size,
            power_levels_dbm=tuple(self.power_levels_dbm),
            bandwidth_hz=self.bandwidth_hz,
            noise_figure_db=self.noise_figure_db,
            path_loss=PathLossParams(
                los_intercept_db=self.los_intercept_db,
                los_exponent=self.los_exponent,
                nlos_intercept_db=self.nlos_intercept_db,
                nlos_exponent=self.nlos_exponent,
            ),
            num_nlos_paths=self.num_nlos_paths,
            reward=RewardSpec(kind=reward_kind or "global_sinr",
                              gamma_min_db=self.gamma_min_db,
                              penalty=self.penalty),
            horizon=self.horizon,
        )


@dataclass
class MetricsTable:
    rows: list = field(default_factory=list)
    ccdf_samples: dict = field(default_factory=dict)
    skipped: list = field(default_factory=list)

    def add_samples(self, method: str, num_cells: int, sinr_db) -> None:
        self.ccdf_samples.setdefault((method, num_cells), []).extend(
            float(v) for v in np.atleast_1d(sinr_db))


def ccdf(samples, grid) -> np.ndarray:
    """Empirical complementary CDF P[X >= g] on the given grid."""
    samples = np.asarray(samples, np.float64)
    grid = np.asarray(grid, np.float64)
    if samples.size == 0:
        raise ValueError("ccdf needs at least one sample")
    return (samples[:, None] >= grid[None, :]).mean(axis=0)


def greedy_rollout(env: NetworkEnv, act_fn, episode_seed: int) -> dict:
    """Roll one episode under act_fn and keep the best-visited operating point.

    Every action moves some index (there is no hold), so the controller orbits
    its preferred configuration; the episode is scored by the best sum rate it
    reaches, with per-cell SINRs taken at that same step.
    """
    features = env.reset(episode_seed)
    best_rate = -math.inf
    best_sinr_db = None
    total_reward = 0.0
    done = False
    while not done:
        outcome = env.step(act_fn(features))
        if outcome.info["sum_rate"] > best_rate:
            best_rate = outcome.info["sum_rate"]
            best_sinr_db = 10.0 * np.log10(np.maximum(outcome.info["sinr"],
                                                      1e-300))
        total_reward += outcome.reward
        features = outcome.features
        done = outcome.done
    return {"best_rate": float(best_rate), "sinr_db": best_sinr_db,
            "episode_reward": float(total_reward)}


def _eval_seeds(config: ExperimentConfig, num_cells: int, seed_index: int):
    if config.freeze_channels:
        return [stream_seed(config.master_seed, "instance", num_cells,
                            seed_index)]
    return [stream_seed(config.master_seed, "eval", num_cells, seed_index, i)
            for i in range(config.eval_episodes)]


def _run_brute(config, table, env, method, num_cells, seed_index):
    rates = []
    for es in _eval_seeds(config, num_cells, seed_index):
        env.reset(es)
        result = brute_force_search(env.channels, env.codebook, env.powers,
                                    env.noise_watts, cap=config.brute_force_cap)
        signal, interference = rx_powers(env.gains,
                                         env.powers.watts()[result.tx.power_idx],
                                         result.tx.beam_idx)
        sinr = signal / (interference + env.noise_watts)
        table.add_samples(method, num_cells, 10.0 * np.log10(sinr))
        rates.append(result.sum_rate)
    return rates, None


def _run_mrt(config, table, env, method, num_cells, seed_index):
    rates = []
    for es in _eval_seeds(config, num_cells, seed_index):
        env.reset(es)
        rates.append(mrt_tdma_sum_rate(env.channels, env.codebook, env.powers,
                                       env.noise_watts,
                                       gamma_min_db=config.gamma_min_db,
                                       continuous=config.mrt_continuous))
        snr = mrt_snrs(env.channels, env.codebook, env.powers, env.noise_watts,
                       continuous=config.mrt_continuous)
        table.add_samples(method, num_cells, 10.0 * np.log10(snr))
    return rates, None


def _run_random(config, table, env, method, num_cells, seed_index, rng):
    rates, rewards = [], []
    for es in _eval_seeds(config, num_cells, seed_index):
        record = greedy_rollout(env, lambda f: random_policy(rng, num_cells), es)
        rates.append(record["best_rate"])
        rewards.append(record["episode_reward"])
        table.add_samples(method, num_cells, record["sinr_db"])
    return rates, rewards


def _frozen_seed(config, num_cells, seed_index):
    if config.freeze_channels:
        return stream_seed(config.master_seed, "instance", num_cells, seed_index)
    return None


def _run_learner(config, table, env, method, base, num_cells, seed_index, rng):
    frozen = _frozen_seed(config, num_cells, seed_index)
    overrides = dict(config.agent.get(base, {}))
    if base == "dqn":
        agent = DqnAgent(5 * num_cells, num_cells,
                         DqnConfig(**overrides),
                         seed=int(rng.integers(2 ** 63)))
        train_dqn(env, agent, config.train_episodes, rng, frozen_seed=frozen)
        act_fn = lambda f: dqn_act(agent, f, 0.0)
    elif base == "wolpertinger":
        agent = WolpertingerAgent(5 * num_cells, num_cells,
                                  WolpertingerConfig(**overrides),
                                  seed=int(rng.integers(2 ** 63)))
        train_wolpertinger(env, agent, config.train_episodes, rng,
                           frozen_seed=frozen)
        act_fn = lambda f: wolpertinger_act(agent, f)
    else:
        overrides.setdefault("episodes_per_agent",
                             max(1, config.train_episodes // num_cells))
        result = sequential_train(env, SequentialConfig(**overrides),
                                  seed=int(rng.integers(2 ** 63)),
                                  frozen_seed=frozen)
        act_fn = result.joint_action
    rates, rewards = [], []
    for es in _eval_seeds(config, num_cells, seed_index):
        record = greedy_rollout(env, act_fn, es)
        rates.append(record["best_rate"])
        rewards.append(record["episode_reward"])
        table.add_samples(method, num_cells, record["sinr_db"])
    return rates, rewards


def run_experiment(config: ExperimentConfig) -> MetricsTable:
    """Run the whole grid and return collected metrics."""
    config.validate()
    table = MetricsTable()
    for num_cells in config.cell_counts:
        num_cells = int(num_cells)
        for method in config.methods:
            base, reward_kind = parse_method(method)
            env = NetworkEnv(config.env_config(num_cells, reward_kind))
            for s in range(config.num_seeds):
                seed_index = config.seed_offset + s
                rng = np.random.default_rng(
                    stream_seed(config.master_seed, method, num_cells,
                                seed_index))
                try:
                    if base == "brute_force":
                        rates, rewards = _run_brute(config, table, env, method,
                                                    num_cells, seed_index)
                    elif base == "mrt":
                        rates, rewards = _run_mrt(config, table, env, method,
                                                  num_cells, seed_index)
                    elif base == "random":
                        rates, rewards = _run_random(config, table, env,
                                                     method, num_cells,
                                                     seed_index, rng)
                    else:
                        rates, rewards = _run_learner(config, table, env,
                                                      method, base, num_cells,
                                                      seed_index, rng)
                except BruteForceCapExceeded as exc:
                    table.skipped.append({"method": method, "L": num_cells,
                                          "seed": seed_index,
                                          "reason": str(exc)})
                    continue
                table.rows.append({
                    "method": method, "L": num_cells, "seed": seed_index,
                    "mean_sum_rate": float(np.mean(rates)),
                    "std_sum_rate": float(np.std(rates)),
                    "mean_reward": (math.nan if rewards is None
                                    else float(np.mean(rewards))),
                })
    return table


def ensure_writable(out_dir: str) -> None:
    """Create the output directory and verify a file can land in it."""
    os.makedirs(out_dir, exist_ok=True)
    probe = os.path.join(out_dir, ".write_probe")
    try:
        with open(probe, "w") as f:
            f.write("ok")
    finally:
        if os.path.exists(probe):
            os.remove(probe)


def write_outputs(table: MetricsTable, out_dir: str,
                  config: ExperimentConfig) -> list:
    """Write summary, CCDF, skipped and config-echo files; returns the paths."""
    ensure_writable(out_dir)
    written = []

    path = os.path.join(out_dir, "summary.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["method", "L", "seed", "mean_sum_rate", "std_sum_rate",
                    "mean_reward"])
        for row in table.rows:
            w.writerow([row["method"], row["L"], row["seed"],
                        repr(float(row["mean_sum_rate"])),
                        repr(float(row["std_sum_rate"])),
                        repr(float(row["mean_reward"]))])
    written.append(path)

    for (method, num_cells), samples in sorted(table.ccdf_samples.items()):
        arr = np.asarray(samples, np.float64)
        grid = np.linspace(math.floor(arr.min()) - 1.0,
                           math.ceil(arr.max()) + 1.0, config.ccdf_points)
        probs = ccdf(arr, grid)
        path = os.path.join(out_dir, f"ccdf_{method}_L{num_cells}.csv")
        with open(path, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["sinr_db", "ccdf"])
            for g, p in zip(grid, probs):
                w.writerow([repr(float(g)), repr(float(p))])
        written.append(path)

    path = os.path.join(out_dir, "skipped.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["method", "L", "seed", "reason"])
        for row in table.skipped:
            w.writerow([row["method"], row["L"], row["seed"], row["reason"]])
    written.append(path)

    # the resolved configuration, itself valid as a run input
    path = os.path.join(out_dir, "config_echo")
    with open(path, "w") as f:
        json.dump(config.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    written.append(path)
    return written
