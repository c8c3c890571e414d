"""The three benchmark workloads, their inputs, their checks and their oracle.

Every input is derived from the benchmark seed with ``harness.stream_seed``,
so the program only ever sees generated configs and episode seeds.

* grid_learners: ``run_experiment`` + ``write_outputs`` over L in {2, 3} with
  the learners. Neural code, the agents and the replay loop do nearly all of
  the work, so learner changes move it and env or kernel changes barely do.
* oracle_sweep: the same entry points with brute force, MRT and random over
  many evaluation episodes. The brute-force kernel does most of the work as
  one batch enumeration per instance and no neural code runs, so it is the
  bypass for learner changes.
* env_rollout: the library path, ``NetworkEnv.reset``/``step`` random walks
  for L in {2, 3, 5} and all four reward families. Only the measured
  families call ``radio.probe_measurements``, so a link-state change that
  helps one family and costs another shows here.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import shutil
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from spans import Patches
from skycell import baselines, harness
from skycell.environment import NetworkEnv, RewardSpec, compute_reward
from skycell.harness import ExperimentConfig, parse_method, stream_seed

WORKLOADS = ("grid_learners", "oracle_sweep", "env_rollout")
FAMILIES = ("global_sinr", "serving_snr", "measured_sinr", "rsrq")
LEARNER_METHODS = ("dqn", "wolpertinger", "sequential", "dqn_measured")
ORACLE_METHODS = ("brute_force", "mrt", "random")
RTOL = 1e-9

# Run lengths. "full" sizes a pass at a few seconds so a run holds several;
# "tiny" exists for the smoke tests and lowers train_start so updates happen.
_TINY_AGENT = {"dqn": {"train_start": 8, "batch_size": 8},
               "wolpertinger": {"train_start": 8, "batch_size": 8},
               "sequential": {"train_start": 8, "batch_size": 8}}
SIZES = {
    "full": {
        "grid_learners": dict(cell_counts=(2, 3), num_seeds=1,
                              train_episodes=10, eval_episodes=4, horizon=50),
        "oracle_sweep": dict(cell_counts=(2, 3), num_seeds=2,
                             train_episodes=1, eval_episodes=12, horizon=50),
        "env_rollout": dict(cell_counts=(2, 3, 5), episodes=20, horizon=50,
                            oracle_episodes=6),
    },
    "tiny": {
        "grid_learners": dict(cell_counts=(2, 3), num_seeds=1,
                              train_episodes=2, eval_episodes=1, horizon=10,
                              agent=_TINY_AGENT),
        "oracle_sweep": dict(cell_counts=(2, 3), num_seeds=1,
                             train_episodes=1, eval_episodes=1, horizon=10),
        "env_rollout": dict(cell_counts=(2, 3, 5), episodes=1, horizon=10,
                            oracle_episodes=1),
    },
}


@dataclass
class PassResult:
    """What one pass did: wall time, output digest and work counts."""

    wall_s: float
    digest: str
    attempted: int
    failed: int
    env_steps: int = None
    records: dict = None
    scaled_s: float = None


class OracleResult:
    """Greedy rate / brute-force optimum over the checked pass's instances."""

    def __init__(self):
        self.ratios = {}  # method -> list of per-instance ratios
        self.optima = {}  # (L, episode seed) -> optimum
        self.search_rates = []
        self.search_rates_scaled = []
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def optimum(self, config: ExperimentConfig, num_cells: int,
                episode_seed: int) -> float:
        key = (num_cells, episode_seed)
        if key not in self.optima:
            self.optima[key] = _search(config, num_cells, episode_seed)[0]
        return self.optima[key]

    def search_once(self, config: ExperimentConfig, scale) -> float:
        """Re-time the next instance with the most cells; returns its seconds.

        The calls cycle over those instances (L=3: 512,000 configurations
        each). Each records its configurations per second raw and at the
        reference speed, scale() being the factor for the call just made.
        """
        largest = max(num_cells for num_cells, _ in self.optima)
        instances = [key for key in self.optima if key[0] == largest]
        num_cells, episode_seed = instances[len(self.search_rates)
                                            % len(instances)]
        _, evaluated, elapsed = _search(config, num_cells, episode_seed)
        self.search_rates.append(evaluated / elapsed)
        self.search_rates_scaled.append(evaluated / (elapsed * scale()))
        return elapsed

    def ratio(self) -> float:
        values = [r for rs in self.ratios.values() for r in rs]
        return float(np.mean(values))

    def configs_per_s(self, scaled: bool = True) -> float:
        return float(np.median(self.search_rates_scaled if scaled
                               else self.search_rates))


def _search(config: ExperimentConfig, num_cells: int, episode_seed: int):
    """(optimum, configurations evaluated, search seconds) of one instance."""
    env = NetworkEnv(config.env_config(num_cells))
    env.reset(episode_seed)
    t0 = perf_counter()
    found = baselines.brute_force_search(env.channels, env.codebook,
                                         env.powers, env.noise_watts,
                                         cap=config.brute_force_cap)
    return found.sum_rate, found.num_evaluated, perf_counter() - t0


def _finite_info(outcome) -> bool:
    if not math.isfinite(outcome.reward):
        return False
    for value in outcome.info.values():
        if not np.all(np.isfinite(value)):
            return False
    return True


def _clear(out_dir: str) -> None:
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)


# ---------------------------------------------------------------------------
# grid workloads


class GridWorkload:
    """run_experiment + write_outputs over one generated config."""

    def __init__(self, name: str, seed: int, size: str = "full"):
        s = dict(SIZES[size][name])
        methods = LEARNER_METHODS if name == "grid_learners" else ORACLE_METHODS
        self.name = name
        self.config = ExperimentConfig(
            master_seed=stream_seed("perfbench", name, seed),
            methods=methods, **s).validate()
        c = self.config
        self.grid_cells = len(c.cell_counts) * len(c.methods) * c.num_seeds

    def setup_spec(self) -> dict:
        c = self.config
        return {"config": c.to_dict(), "num_cells": int(c.cell_counts[0]),
                "reward_kind": parse_method(c.methods[0])[1],
                "episode_seed": stream_seed(c.master_seed, "setup")}

    def run_pass(self, out_dir: str, checked: bool = False) -> PassResult:
        """One timed run from config to written outputs.

        checked=True also records every greedy rollout and checks every env
        step's info arrays; that pass is the warm-up and is not reported.
        """
        _clear(out_dir)
        if checked:
            return self._checked_pass(out_dir)
        t0 = perf_counter()
        table = harness.run_experiment(self.config)
        harness.write_outputs(table, out_dir, self.config)
        wall = perf_counter() - t0
        return self._result(wall, table, out_dir)

    def _result(self, wall, table, out_dir, extra_attempted=0, extra_failed=0,
                env_steps=None, records=None) -> PassResult:
        # cap refusals land in skipped.csv and are not failures
        failed = self.grid_cells - len(table.rows) - len(table.skipped)
        for row in table.rows:
            values = [row["mean_sum_rate"], row["std_sum_rate"]]
            if parse_method(row["method"])[0] not in ("brute_force", "mrt"):
                values.append(row["mean_reward"])
            failed += not all(math.isfinite(v) for v in values)
        with open(os.path.join(out_dir, "summary.csv"), "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        return PassResult(wall, digest, self.grid_cells + extra_attempted,
                          failed + extra_failed, env_steps, records)

    def _checked_pass(self, out_dir: str) -> PassResult:
        rollouts = []
        steps = {"n": 0, "bad": 0}

        def record_rollout(fn):
            def wrapper(env, act_fn, episode_seed):
                out = fn(env, act_fn, episode_seed)
                rollouts.append((env.num_cells, episode_seed, out))
                return out
            return wrapper

        def check_step(fn):
            def wrapper(self_env, moves):
                outcome = fn(self_env, moves)
                steps["n"] += 1
                steps["bad"] += not _finite_info(outcome)
                return outcome
            return wrapper

        with Patches() as patches:
            patches.function(harness.greedy_rollout, record_rollout)
            patches.method(NetworkEnv, "step_cells", check_step)
            t0 = perf_counter()
            table = harness.run_experiment(self.config)
            harness.write_outputs(table, out_dir, self.config)
            wall = perf_counter() - t0

        records, bad = self._label(rollouts)
        bad += steps["bad"]
        return self._result(wall, table, out_dir, len(rollouts), bad,
                            steps["n"], {"rollouts": records, "table": table})

    def _label(self, rollouts):
        """Attach (method, L, seed index, episode index) to each rollout.

        run_experiment evaluates in the order L, method, seed, episode; the
        rollouts arrive in that order. All methods must see the same episode
        seeds for one (L, seed, episode), which is checked here.
        """
        c = self.config
        labels = [(m, int(L), s, i) for L in c.cell_counts for m in c.methods
                  if parse_method(m)[0] not in ("brute_force", "mrt")
                  for s in range(c.num_seeds) for i in range(c.eval_episodes)]
        if len(labels) != len(rollouts):
            return [], max(len(labels), len(rollouts))
        records, bad, seeds = [], 0, {}
        for (method, L, s, i), (num_cells, ep_seed, out) in zip(labels, rollouts):
            ok = (num_cells == L and seeds.setdefault((L, s, i), ep_seed) == ep_seed
                  and math.isfinite(out["best_rate"])
                  and math.isfinite(out["episode_reward"])
                  and np.all(np.isfinite(out["sinr_db"])))
            bad += not ok
            records.append({"method": method, "L": L, "seed_index": s,
                            "episode_seed": ep_seed,
                            "best_rate": out["best_rate"]})
        return records, bad

    def oracle(self, checked: PassResult) -> OracleResult:
        """Compare every recorded greedy rate with the brute-force optimum."""
        result = OracleResult()
        for rec in checked.records["rollouts"]:
            opt = result.optimum(self.config, rec["L"], rec["episode_seed"])
            result.attempted += 1
            if rec["best_rate"] > opt * (1.0 + RTOL):
                result.failed += 1
                result.notes.append(f"{rec['method']} L={rec['L']} seed "
                                    f"{rec['episode_seed']}: {rec['best_rate']!r}"
                                    f" exceeds optimum {opt!r}")
            result.ratios.setdefault(rec["method"], []).append(
                rec["best_rate"] / opt)
        # the grid's own brute-force rows must equal the independent oracle
        for row in checked.records["table"].rows:
            if row["method"] != "brute_force":
                continue
            opts = [result.optima[(r["L"], r["episode_seed"])]
                    for r in checked.records["rollouts"]
                    if r["method"] == "random" and r["L"] == row["L"]
                    and r["seed_index"] == row["seed"]]
            result.attempted += 1
            expect = float(np.mean(opts))
            if abs(row["mean_sum_rate"] - expect) > RTOL * abs(expect):
                result.failed += 1
                result.notes.append(f"brute_force row L={row['L']}: "
                                    f"{row['mean_sum_rate']!r} != {expect!r}")
        return result


# ---------------------------------------------------------------------------
# env rollout


class RolloutWorkload:
    """Random walks through NetworkEnv.reset/step, the README's library path."""

    name = "env_rollout"

    def __init__(self, seed: int, size: str = "full"):
        s = SIZES[size]["env_rollout"]
        self.root = stream_seed("perfbench", "env_rollout", seed)
        self.config = ExperimentConfig(master_seed=self.root,
                                       cell_counts=s["cell_counts"],
                                       horizon=s["horizon"]).validate()
        self.oracle_episodes = s["oracle_episodes"]
        # episode seeds do not depend on the family, so every family walks
        # the same instances and one oracle per (L, episode) serves them all
        self.plan = [(int(L), fam,
                      [(stream_seed(self.root, "episode", L, i),
                        stream_seed(self.root, "walk", L, fam, i))
                       for i in range(s["episodes"])])
                     for L in self.config.cell_counts for fam in FAMILIES]
        self.episodes = sum(len(eps) for _, _, eps in self.plan)

    def setup_spec(self) -> dict:
        return {"config": self.config.to_dict(), "num_cells": self.plan[0][0],
                "reward_kind": self.plan[0][1],
                "episode_seed": stream_seed(self.root, "setup")}

    def run_pass(self, out_dir: str, checked: bool = False) -> PassResult:
        rewards, rates = [], []
        probe = {"checked": 0, "bad": 0, "cell_err_max": 0.0,
                 "cells_over_rtol": 0} if checked else None
        bad_episodes = 0
        t0 = perf_counter()
        for num_cells, family, episodes in self.plan:
            env = NetworkEnv(self.config.env_config(num_cells, family))
            for episode_seed, walk_seed in episodes:
                rng = np.random.default_rng(walk_seed)
                env.reset(episode_seed)
                ok = True
                done = False
                while not done:
                    outcome = env.step(baselines.random_policy(rng, num_cells))
                    rewards.append(outcome.reward)
                    rates.append(outcome.info["sum_rate"])
                    if checked:
                        ok = _finite_info(outcome) and ok
                        if family in ("measured_sinr", "rsrq"):
                            ok = _check_probe(env, outcome, probe) and ok
                    done = outcome.done
                bad_episodes += not ok
        wall = perf_counter() - t0

        rewards = np.asarray(rewards)
        rates = np.asarray(rates)
        horizon = self.config.horizon
        finite = (np.isfinite(rewards) & np.isfinite(rates)).reshape(-1, horizon)
        failed = max(int((~finite.all(axis=1)).sum()), bad_episodes)
        digest = hashlib.sha256(rewards.tobytes() + rates.tobytes()).hexdigest()
        _clear(out_dir)
        os.makedirs(out_dir)
        with open(os.path.join(out_dir, "best_rates.csv"), "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["L", "family", "episode", "best_rate"])
            best = rates.reshape(-1, horizon).max(axis=1)
            k = 0
            for num_cells, family, episodes in self.plan:
                for i in range(len(episodes)):
                    w.writerow([num_cells, family, i, repr(float(best[k]))])
                    k += 1
        records = {"best": rates.reshape(-1, horizon).max(axis=1),
                   "probe": probe} if checked else None
        return PassResult(wall, digest, self.episodes, failed, rewards.size,
                          records)

    def oracle(self, checked: PassResult) -> OracleResult:
        """Best rate of each walk on L <= 3 over its instance's optimum."""
        result = OracleResult()
        probe = checked.records["probe"]
        result.notes.append(
            f"probe identity: {probe['checked']} measured steps, reward-level "
            f"violations {probe['bad']}; per-cell recovered serving power "
            f"worst relative error {probe['cell_err_max']:.3e}, "
            f"{probe['cells_over_rtol']} cells over {RTOL:g}")
        k = 0
        for num_cells, family, episodes in self.plan:
            for i, (episode_seed, _) in enumerate(episodes):
                best = float(checked.records["best"][k])
                k += 1
                if num_cells > 3 or i >= self.oracle_episodes:
                    continue
                opt = result.optimum(self.config, num_cells, episode_seed)
                result.attempted += 1
                if best > opt * (1.0 + RTOL):
                    result.failed += 1
                    result.notes.append(f"walk L={num_cells} {family} {i}: "
                                        f"{best!r} exceeds optimum {opt!r}")
                result.ratios.setdefault(f"random_{family}", []).append(
                    best / opt)
        return result


def _check_probe(env: NetworkEnv, outcome, probe: dict) -> bool:
    """Probe identity on one measured step.

    Gated: the step's reward equals the reward the same family gives from
    ground-truth link budgets, to RTOL relative (acceptance criterion 4).
    Reported only: the per-cell recovered serving power against the true
    signal. Recovering it by subtracting two received totals loses digits
    when the serving cell sits some 70 dB below its interference, where the
    per-cell error can exceed RTOL although the reward is unaffected.
    """
    budgets = env.budgets()
    reports = env.measurements()
    spec = env.config.reward
    if spec.kind == "measured_sinr":
        truth = compute_reward(RewardSpec("global_sinr", spec.gamma_min_db,
                                          spec.penalty), budgets, per_cell=True)
    else:
        truth = float(np.mean([b.signal_w / (b.signal_w + b.interference_w
                                             + b.noise_w) for b in budgets]))
    probe["checked"] += 1
    for b, r in zip(budgets, reports):
        err = abs(r.rsrp_w - b.signal_w) / b.signal_w
        probe["cell_err_max"] = max(probe["cell_err_max"], err)
        probe["cells_over_rtol"] += err > RTOL
    ok = abs(outcome.reward - truth) <= RTOL * max(abs(truth), 1e-300)
    probe["bad"] += not ok
    return ok


def make(name: str, seed: int, size: str = "full"):
    if name == "env_rollout":
        return RolloutWorkload(seed, size)
    if name in WORKLOADS:
        return GridWorkload(name, seed, size)
    raise ValueError(f"unknown workload {name!r}")
