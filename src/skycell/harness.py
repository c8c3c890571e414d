"""Experiment orchestration: config, episode scoring, metrics and outputs.

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
import numbers
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
from .environment import REWARD_KINDS, EnvConfig, NetworkEnv, RewardSpec
from .radio import PowerSet
from .scenario import ScenarioConfig

_SIMPLE_METHODS = ("brute_force", "mrt", "random")
_AGENT_CONFIGS = {"dqn": DqnConfig, "wolpertinger": WolpertingerConfig,
                  "sequential": SequentialConfig}
_LEARNER_BASES = tuple(_AGENT_CONFIGS)
_REWARD_SUFFIXES = {k.split("_")[0]: k for k in REWARD_KINDS}
# the values a JSON config may give a field of each annotation, and their
# name; an agent section keeps its JSON arrays as lists
_JSON_TYPES = {"int": (numbers.Integral, "an integer"),
               "float": (numbers.Real, "a real number"),
               "bool": (bool, "true or false"),
               "str": (str, "a string"),
               "tuple": ((tuple, list), "a list"),
               "dict": (dict, "an object")}


def _check_value(key: str, value, annotation: str) -> None:
    """Refuse a value its annotation does not allow, naming the key. A bool
    is never a number, and a real must be finite."""
    kinds, name = _JSON_TYPES[annotation]
    if ((isinstance(value, bool) and annotation != "bool")
            or not isinstance(value, kinds)):
        raise ValueError(f"{key} must be {name}, got {value!r}")
    if annotation == "float" and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")


def _check_fields(config) -> None:
    for f in fields(config):
        _check_value(f.name, getattr(config, f.name), f.type)


def parse_method(name: str):
    """Split a method name into (base, reward kind or None)."""
    if name in _SIMPLE_METHODS:
        return name, None
    # str(): a non-string entry (a JSON 5) is an unknown method like any other
    base, underscore, suffix = str(name).partition("_")
    if base in _LEARNER_BASES and (suffix in _REWARD_SUFFIXES
                                   or not underscore):
        return base, _REWARD_SUFFIXES.get(suffix, "global_sinr")
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
    # a count, annotated float because JSON may write it 1e7; validate()
    # refuses a fraction
    brute_force_cap: float = 10_000_000
    mrt_continuous: bool = False
    ccdf_points: int = 101
    output_dir: str = "results"
    agent: dict = field(default_factory=dict)

    def __post_init__(self):
        # JSON arrays arrive as lists; the config holds tuples throughout
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, list):
                setattr(self, f.name, tuple(value))

    def validate(self) -> "ExperimentConfig":
        cap = self.brute_force_cap
        if (isinstance(cap, bool) or not isinstance(cap, numbers.Real)
                or not float(cap).is_integer()):
            raise ValueError(f"brute_force_cap must be a whole number, "
                             f"got {cap!r}")
        if cap < 1:
            raise ValueError("brute_force_cap must be positive")
        _check_fields(self)
        for i, c in enumerate(self.cell_counts):
            _check_value(f"cell_counts[{i}]", c, "int")
        if not self.cell_counts or any(c < 1 for c in self.cell_counts):
            raise ValueError("cell_counts must be nonempty positive integers")
        if not self.methods:
            raise ValueError("methods must be nonempty")
        # a grid cell is keyed by (L, method, seed): a repeat would run twice
        # and pool its CCDF samples twice
        for key in ("cell_counts", "methods"):
            values = getattr(self, key)
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{key} lists {value!r} twice")
        levels = self.power_levels_dbm
        if any(isinstance(v, bool) or not isinstance(v, numbers.Real)
               for v in levels):
            raise ValueError(f"power_levels_dbm must be a list of numbers, "
                             f"got {levels!r}")
        try:
            PowerSet(np.asarray(levels, np.float64))
        except ValueError as exc:
            raise ValueError(f"power_levels_dbm: {exc}") from None
        if self.num_seeds < 1 or self.seed_offset < 0:
            raise ValueError("need num_seeds >= 1 and seed_offset >= 0")
        if self.train_episodes < 1 or self.eval_episodes < 1:
            raise ValueError("episode counts must be positive")
        if self.ccdf_points < 2:
            raise ValueError("ccdf_points must be at least 2")
        for key, overrides in self.agent.items():
            if key not in _AGENT_CONFIGS:
                raise ValueError(f"unknown agent override section {key!r}")
            try:
                _check_fields(_AGENT_CONFIGS[key](**overrides))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad agent override for {key!r}: {exc}") from exc
        k = WolpertingerConfig(**self.agent.get("wolpertinger", {})).k
        for m in self.methods:
            base, kind = parse_method(m)
            for num_cells in self.cell_counts:
                self.env_config(int(num_cells), kind)
                width = 2 * int(num_cells)
                if base == "wolpertinger" and not 1 <= k <= 1 << width:
                    raise ValueError(
                        f"agent.wolpertinger.k={k} must lie in [1, 2^{width}] "
                        f"at L={num_cells}")
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data).validate()

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    def env_config(self, num_cells: int, reward_kind: str = None) -> EnvConfig:
        return self._fill(
            EnvConfig,
            scenario=self._fill(ScenarioConfig, num_cells=num_cells),
            path_loss=self._fill(PathLossParams),
            reward=self._fill(RewardSpec, kind=reward_kind or "global_sinr"))

    def _fill(self, cls, **given):
        """Build cls from given plus every field of ours that shares a name
        with one of its fields."""
        ours = {f.name for f in fields(self)}
        shared = {f.name: getattr(self, f.name) for f in fields(cls)
                  if f.name in ours and f.name not in given}
        return cls(**shared, **given)


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


def _db(x):
    # floored at 1e-300 (-3000 dB), so a zero-gain link stays finite
    return 10.0 * np.log10(np.maximum(x, 1e-300))


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
            best_sinr_db = _db(outcome.info["sinr"])
        total_reward += outcome.reward
        features = outcome.features
        done = outcome.done
    return {"best_rate": float(best_rate), "sinr_db": best_sinr_db,
            "episode_reward": float(total_reward)}


def _frozen_seed(config, num_cells, seed_index):
    # the one instance every training and evaluation episode of a
    # frozen-channel run is drawn from
    if config.freeze_channels:
        return stream_seed(config.master_seed, "instance", num_cells, seed_index)
    return None


def _eval_seeds(config: ExperimentConfig, num_cells: int, seed_index: int):
    frozen = _frozen_seed(config, num_cells, seed_index)
    if frozen is not None:
        return [frozen]
    return [stream_seed(config.master_seed, "eval", num_cells, seed_index, i)
            for i in range(config.eval_episodes)]


def _score_episode(config, env, base, act_fn, episode_seed):
    """Evaluate one episode: (sum rate, episode reward or None, per-cell SINR
    in dB). The oracle and MRT are scored on the drawn instance and earn no
    reward; a policy is scored at the best-visited step of a greedy rollout."""
    if base in ("brute_force", "mrt"):
        env.reset(episode_seed)
        net = (env.channels, env.codebook, env.powers, env.noise_watts)
        if base == "brute_force":
            found = brute_force_search(*net, cap=config.brute_force_cap)
            return found.sum_rate, None, _db(env.link_state(tx=found.tx).sinr)
        snr = mrt_snrs(*net, continuous=config.mrt_continuous)
        return mrt_tdma_sum_rate(snr, config.gamma_min_db), None, _db(snr)
    record = greedy_rollout(env, act_fn, episode_seed)
    return record["best_rate"], record["episode_reward"], record["sinr_db"]


def _train_learner(config, env, base, num_cells, seed_index, rng):
    """Train one learner and return its greedy act_fn."""
    frozen = _frozen_seed(config, num_cells, seed_index)
    overrides = dict(config.agent.get(base, {}))
    if base == "dqn":
        agent = DqnAgent(env.num_features, num_cells,
                         DqnConfig(**overrides),
                         seed=int(rng.integers(2 ** 63)))
        train_dqn(env, agent, config.train_episodes, rng, frozen_seed=frozen)
        return lambda f: dqn_act(agent, f, 0.0)
    if base == "wolpertinger":
        agent = WolpertingerAgent(env.num_features, num_cells,
                                  WolpertingerConfig(**overrides),
                                  seed=int(rng.integers(2 ** 63)))
        train_wolpertinger(env, agent, config.train_episodes, rng,
                           frozen_seed=frozen)
        return lambda f: wolpertinger_act(agent, f)
    overrides.setdefault("episodes_per_agent",
                         max(1, config.train_episodes // num_cells))
    result = sequential_train(env, SequentialConfig(**overrides),
                              seed=int(rng.integers(2 ** 63)),
                              frozen_seed=frozen)
    return result.joint_action


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
                act_fn = None
                if base == "random":
                    act_fn = lambda f: random_policy(rng, num_cells)
                elif base in _LEARNER_BASES:
                    act_fn = _train_learner(config, env, base, num_cells,
                                            seed_index, rng)
                try:
                    scores = [_score_episode(config, env, base, act_fn, es)
                              for es in _eval_seeds(config, num_cells,
                                                    seed_index)]
                except BruteForceCapExceeded as exc:
                    table.skipped.append({"method": method, "L": num_cells,
                                          "seed": seed_index,
                                          "reason": str(exc)})
                    continue
                rates, rewards, sinrs_db = zip(*scores)
                for sinr_db in sinrs_db:
                    table.add_samples(method, num_cells, sinr_db)
                table.rows.append({
                    "method": method, "L": num_cells, "seed": seed_index,
                    "mean_sum_rate": float(np.mean(rates)),
                    "std_sum_rate": float(np.std(rates)),
                    "mean_reward": (math.nan if rewards[0] is None
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


def _write_csv(path: str, header: list, rows) -> str:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    return path


def write_outputs(table: MetricsTable, out_dir: str,
                  config: ExperimentConfig) -> list:
    """Write summary, CCDF, skipped and config-echo files; returns the paths."""
    ensure_writable(out_dir)
    stats = ("mean_sum_rate", "std_sum_rate", "mean_reward")
    written = [_write_csv(
        os.path.join(out_dir, "summary.csv"), ["method", "L", "seed", *stats],
        ([row["method"], row["L"], row["seed"],
          *(repr(float(row[k])) for k in stats)] for row in table.rows))]

    for (method, num_cells), samples in sorted(table.ccdf_samples.items()):
        arr = np.asarray(samples, np.float64)
        grid = np.linspace(math.floor(arr.min()) - 1.0,
                           math.ceil(arr.max()) + 1.0, config.ccdf_points)
        written.append(_write_csv(
            os.path.join(out_dir, f"ccdf_{method}_L{num_cells}.csv"),
            ["sinr_db", "ccdf"],
            ([repr(float(g)), repr(float(p))]
             for g, p in zip(grid, ccdf(arr, grid)))))

    written.append(_write_csv(
        os.path.join(out_dir, "skipped.csv"), ["method", "L", "seed", "reason"],
        ([row["method"], row["L"], row["seed"], row["reason"]]
         for row in table.skipped)))

    # the resolved configuration, itself valid as a run input
    path = os.path.join(out_dir, "config_echo")
    with open(path, "w") as f:
        json.dump(config.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    written.append(path)
    return written
