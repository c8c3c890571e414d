"""skycell benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload grid_learners|oracle_sweep|env_rollout|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
``src/``. Without --workload all three workloads run in this one process.

Every run measures set-up (a fresh interpreter to the first env step, several
times), then makes one checked warm-up pass, which records every greedy
rollout and checks every step, and the brute-force oracle of the instances
that pass saw. It then repeats unchecked passes for --seconds, re-timing
brute-force searches between them. Timed items are scaled to a reference core
speed by calibrations taken around each (see Clock). With --trace 0 it
reports the end-to-end metrics; with --trace 1 it spends half of --seconds
on untraced passes and half on passes with every layer boundary wrapped,
then runs the fixed micro-cases, and reports the per-layer metrics. Every
metric is printed by name with its unit; the last line of standard output is
one JSON object. Any failed correctness check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DEFAULT_SEED = 0
HELDOUT_SEED = 20231  # never used while the benchmark was tuned
SETUP_REPEATS = 7
SEARCH_SHARE = 5
# calibrate()'s time on a quiet core of the 2-core 2.1 GHz Xeon box the
# benchmark was built on; timed figures are scaled to that speed
CAL_REF_S = 5.5e-3
WORKLOAD_NAMES = ("grid_learners", "oracle_sweep", "env_rollout")
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "env_steps_per_s": "1/s",
    "oracle_configs_per_s": "1/s",
    "oracle_ratio": "ratio",
    "peak_rss_mb": "MB",
}

SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
spec = json.loads(sys.argv[2])
import numpy as np
from skycell.environment import NetworkEnv
from skycell.harness import ExperimentConfig
config = ExperimentConfig.from_dict(spec["config"])
env = NetworkEnv(config.env_config(spec["num_cells"], spec["reward_kind"]))
env.reset(spec["episode_seed"])
env.step(np.zeros(2 * spec["num_cells"], np.int64))
print(repr(time.perf_counter()))
"""


def calibrate() -> float:
    """Median seconds of five fixed pure-Python loops: this core's speed now.

    It runs none of the package's code, so a change to the package cannot
    move it.
    """
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Scales each timed item to the core speed of CAL_REF_S.

    The box is shared and its speed drifts by up to a factor of two within
    minutes. Every timed item (a set-up, a pass, an oracle search) sits
    between two calibrations, and its seconds are multiplied by CAL_REF_S
    over their mean. On a five-minute trace of env_rollout passes this cut
    the range of 25-second medians from 32% to 8%. Raw seconds are kept too.
    """

    def __init__(self):
        self.last = calibrate()

    def restart(self) -> None:
        """Calibrate now, before an item that follows untimed work."""
        self.last = calibrate()

    def scale(self) -> float:
        """Factor for the item since the previous calibration."""
        now = calibrate()
        factor = CAL_REF_S / ((self.last + now) / 2.0)
        self.last = now
        return factor


def measure_setup(spec: dict) -> float:
    """Seconds from starting a fresh interpreter to its first env step.

    The child prints perf_counter() after its first step. That clock is the
    system-wide monotonic clock, so the child's exit and the wait for it
    stay out of the figure.
    """
    cmd = [sys.executable, "-c", SETUP_CHILD, SRC, json.dumps(spec)]
    t0 = perf_counter()
    done = subprocess.run(cmd, check=True, capture_output=True, text=True,
                          timeout=120)
    return float(done.stdout.split()[-1]) - t0


def fingerprint() -> dict:
    import numpy as np
    from skycell import kernels

    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "skycell"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        git_sha = (lines[1] if top.returncode == 0 and len(lines) == 2
                   and os.path.samefile(lines[0], ROOT) else None)
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_enabled": bool(kernels.NUMBA_ENABLED),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


def timed_passes(workload, out_dir: str, budget_s: float, clock,
                 between=None) -> list:
    """Passes until their summed wall time reaches budget_s (at least one).

    Each pass gets scaled_s from the clock. between(pass), when given, runs
    after each pass, outside its timing.
    """
    passes = []
    clock.restart()
    while not passes or sum(p.wall_s for p in passes) < budget_s:
        p = workload.run_pass(out_dir)
        p.scaled_s = p.wall_s * clock.scale()
        passes.append(p)
        if between is not None:
            between(p)
    return passes


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str, prints: dict) -> dict:
    import layers
    import spans
    import workloads

    wl = workloads.make(name, seed, size)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    out_dir = os.path.join(OUT_ROOT, tag, "out")
    os.makedirs(os.path.join(OUT_ROOT, tag), exist_ok=True)
    notes = []

    clock = Clock()
    setups, setups_scaled = [], []
    for _ in range(SETUP_REPEATS):
        setups.append(measure_setup(wl.setup_spec()))
        setups_scaled.append(setups[-1] * clock.scale())
    checked = wl.run_pass(out_dir, checked=True)
    oracle = wl.oracle(checked)
    notes.extend(oracle.notes)
    attempted = checked.attempted + oracle.attempted
    failed = checked.failed + oracle.failed

    # the oracle's throughput is sampled between the untraced passes, one
    # second of search per SEARCH_SHARE seconds of pass, so that it spans
    # the same stretch of a busy machine as wall_s does
    owed = [0.0]

    def search_between(p):
        owed[0] += p.wall_s / SEARCH_SHARE
        while owed[0] > 0.0:
            owed[0] -= oracle.search_once(wl.config, clock.scale)

    passes = timed_passes(wl, out_dir, seconds / 2 if trace else seconds,
                          clock, search_between)
    traced = []
    tracer = spans.Tracer()
    if trace:
        with spans.Patches() as patches:
            layers.instrument(tracer, patches)
            traced = timed_passes(wl, out_dir, seconds / 2, clock)
    for p in passes + traced:
        attempted += p.attempted
        if p.digest != checked.digest:
            failed += p.attempted
            notes.append(f"pass output digest {p.digest} differs from the "
                         f"checked pass {checked.digest}")
        else:
            failed += p.failed
    failed = min(failed, attempted)

    wall = statistics.median(p.scaled_s for p in passes)
    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "seconds": seconds, "size": size, "fingerprint": prints,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "passes": len(passes), "traced_passes": len(traced),
        "output_sha256": checked.digest,
        "pass_walls_raw_s": [p.wall_s for p in passes],
        "pass_walls_scaled_s": [p.scaled_s for p in passes],
        "setup_runs_raw_s": setups,
        "setup_runs_scaled_s": setups_scaled,
        "oracle_search_rates_raw": oracle.search_rates,
        "oracle_search_rates_scaled": oracle.search_rates_scaled,
        "raw": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p.wall_s for p in passes),
            "oracle_configs_per_s": oracle.configs_per_s(scaled=False),
        },
        "oracle_ratio_by_method": {m: statistics.fmean(r)
                                   for m, r in oracle.ratios.items()},
        "notes": notes,
    }
    e2e = {
        "setup_s": statistics.median(setups_scaled),
        "wall_s": wall,
        "env_steps_per_s": checked.env_steps / wall,
        "oracle_configs_per_s": oracle.configs_per_s(),
        "oracle_ratio": oracle.ratio(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result["end_to_end"] = {k: {"value": v, "unit": E2E_UNITS[k]}
                            for k, v in e2e.items()}
    if trace:
        result["per_layer"], result["layer_table"] = _per_layer(
            tracer, traced, wall, seed)
        _write_spans(tracer, os.path.join(OUT_ROOT, tag, "spans.csv"))
    with open(os.path.join(OUT_ROOT, tag, "result.json"), "w") as f:
        json.dump(result, f, indent=1, default=str)
    return result


def _per_layer(tracer, traced, untraced_wall, seed):
    import layers
    import micro
    import spans

    table = spans.summarize(tracer)
    by_tag = spans.summarize(tracer, by_tag=True)
    units = layers.metric_units()
    values = {}
    for b in layers.BOUNDARIES:
        row = table.get(b)
        for stat, _ in layers.STATS:
            values[f"{b}.{stat}"] = row[stat] if row else 0.0
    calls = {b: (table[b]["calls"] if b in table else 0)
             for b in layers.BOUNDARIES}
    updates = sum(calls[b] for b in layers.TRAIN_STEPS)
    steps = calls["env.step_cells"]
    c = tracer.counters
    values["tracing_overhead_s"] = (statistics.median(p.scaled_s for p in traced)
                                    - untraced_wall)
    values["train_updates_per_s"] = updates / len(traced) / untraced_wall
    knn_calls = calls["wolpertinger.knn"]
    values["wolpertinger.knn.candidates_per_call"] = (
        c.get("wolpertinger.knn.candidates", 0) / knn_calls if knn_calls else 0.0)
    values["train.updates_per_env_step"] = updates / steps if steps else 0.0
    cases = micro.kernel_cases(seed)
    cases.update(micro.baseline_cases(seed))
    for name, _ in layers.MICRO:
        values[name] = cases[name][0]
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}

    lines = []
    for key in sorted(by_tag, key=lambda k: (k[0], -1 if k[1] is None else k[1])):
        row = by_tag[key]
        label = key[0] if key[1] is None else f"{key[0]}[L={key[1]}]"
        lines.append(f"{label:40s} calls {row['calls']:8d}  busy "
                     f"{row['busy_s']:9.4f} s  self {row['self_s']:9.4f} s  "
                     f"p50 {row['p50_us']:9.2f} us  p{row['tail_pct']:g} "
                     f"{row['tail_us']:9.2f} us (n>{row['tail_beyond']})  "
                     f"errors {row['errors']}")
    base_k = c.get("wolpertinger.knn.k", 0) / knn_calls if knn_calls else 0
    lines.append(f"wolpertinger.knn candidates "
                 f"{c.get('wolpertinger.knn.candidates', 0)} over {knn_calls} "
                 f"calls, base k {base_k:g}")
    lines.append(f"train updates {updates} over {steps} env steps "
                 f"(base: env steps), {len(traced)} traced passes")
    for key in ("configs", "ops_computed", "bytes_computed"):
        lines.append(f"kernels.brute_force.{key} (traced passes) "
                     f"{c.get('kernels.brute_force.' + key, 0)}")
    for name, (value, unit) in sorted(cases.items()):
        lines.append(f"{name:46s} {value:14.6g} {unit}")
    return metrics, lines


def _write_spans(tracer, path: str) -> None:
    with open(path, "w") as f:
        f.write("index,name,tag,start_s,end_s,parent,error\n")
        for i, name in enumerate(tracer.names):
            tag = "" if tracer.tags[i] is None else tracer.tags[i]
            f.write(f"{i},{name},{tag},{tracer.starts[i]!r},{tracer.ends[i]!r},"
                    f"{tracer.parents[i]},{int(tracer.errors[i])}\n")


def _print_result(res: dict, trace: bool) -> None:
    print(f"== {res['workload']} seed {res['seed']}: {res['passes']} passes"
          + (f", {res['traced_passes']} traced" if trace else ""))
    for name, m in res["end_to_end"].items():
        print(f"{name:24s} {m['value']:16.6g} {m['unit']}")
    for name, value in res["raw"].items():
        unit = res["end_to_end"][name]["unit"]
        print(f"{name + ' (raw)':24s} {value:16.6g} {unit}")
    print(f"output_sha256 {res['output_sha256']}")
    failed_frac = res["failed"] / res["attempted"]
    print(f"{'failed_frac':24s} {failed_frac:16.6g} ratio "
          f"({res['failed']} of {res['attempted']})")
    for method, ratio in sorted(res["oracle_ratio_by_method"].items()):
        print(f"oracle_ratio[{method}] {ratio:.6f}")
    for line in res.get("layer_table", []):
        print(line)
    if trace:
        for name, m in res["per_layer"].items():
            print(f"{name:52s} {m['value']:16.6g} {m['unit']}")
    for note in res["notes"]:
        print("note:", note)


def main(argv=None) -> int:
    # BLAS is pinned to one thread before numpy loads (nothing above imports
    # it): unpinned, the 2-core box burned about two CPU seconds per wall
    # second and the wall time spread widely
    for var in BLAS_VARS:
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's own smoke tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "skycell", "__init__.py")):
        print(f"error: no skycell package under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import skycell
    if not os.path.abspath(skycell.__file__).startswith(SRC + os.sep):
        print(f"error: skycell imported from {skycell.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    prints = fingerprint()
    print("fingerprint", json.dumps(prints, sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace),
                            args.size, prints) for n in names]
    key = "per_layer" if args.trace else "end_to_end"
    for res in results:
        _print_result(res, bool(args.trace))
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        metrics.update({prefix + k: v for k, v in res[key].items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
