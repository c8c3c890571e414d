"""The layer boundaries the traced run wraps, and the per-layer metrics.

Each boundary is a public function or method of one ``skycell`` module,
wrapped wherever the package refers to it. Which end-to-end metric each is
expected to move, and on which workload, is listed in README.md.
"""

from __future__ import annotations

from skycell import baselines, harness, kernels, neural, radio
from skycell.agents import dqn, sequential, wolpertinger
from skycell.agents.sequential import CellAgent
from skycell.environment import NetworkEnv
from skycell.neural import ReplayBuffer

from micro import brute_force_cost
from spans import Patches, Tracer
from workloads import FAMILIES

BOUNDARIES = (
    "env.reset",
    *(f"env.step.{fam}" for fam in FAMILIES),
    "env.step_cells",
    "radio.probe_measurements",
    "kernels.beam_gains",
    "kernels.rx_powers",
    "kernels.brute_force",
    "neural.forward",
    "neural.forward_cached",
    "neural.backward_from_cache",
    "neural.adam_step",
    "neural.replay.push",
    "neural.replay.sample",
    "dqn.act",
    "dqn.train_step",
    "wolpertinger.act",
    "wolpertinger.knn",
    "wolpertinger.train_step",
    "sequential.train_step",
    "sequential.greedy_move",
    "sequential.rank_cells",
    "baselines.brute_force_search",
    "baselines.mrt_tdma_sum_rate",
    "harness.greedy_rollout",
    "harness.write_outputs",
)
TRAIN_STEPS = ("dqn.train_step", "wolpertinger.train_step",
               "sequential.train_step")
STATS = (("busy_s", "s"), ("self_s", "s"), ("p50_us", "us"), ("tail_us", "us"))
DERIVED = (
    ("tracing_overhead_s", "s"),
    ("train_updates_per_s", "1/s"),
    ("wolpertinger.knn.candidates_per_call", "candidates/call"),
    ("train.updates_per_env_step", "updates/step"),
)
# micro-case figures reported as metrics; the rest are printed only
MICRO = (
    ("kernels.case.beam_gains_us", "us"),
    ("kernels.case.rx_powers_us", "us"),
    ("kernels.case.brute_force_ms", "ms"),
    ("kernels.case.brute_force.gops_per_s_computed", "Gop/s"),
    ("roadmap.env_reset_L2_us", "us"),
    ("roadmap.env_reset_L5_us", "us"),
    ("roadmap.env_step_L2_us", "us"),
    ("roadmap.env_step_L5_us", "us"),
    ("roadmap.env_step_measured_L2_us", "us"),
    ("roadmap.mlp_forward_b32_us", "us"),
    ("roadmap.adam_step_us", "us"),
    ("roadmap.dqn_train_step_us", "us"),
)


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    out = {f"{b}.{stat}": unit for b in BOUNDARIES for stat, unit in STATS}
    out.update(DERIVED)
    out.update(MICRO)
    return out


def _num_cells(args):
    return args[0].num_cells


def instrument(tracer: Tracer, patches: Patches) -> None:
    """Wrap every boundary; patches.restore() takes the wrappers out."""
    wrap, fn, meth = tracer.wrap, patches.function, patches.method

    def count_candidates(args, result):
        tracer.count("wolpertinger.knn.candidates", len(result))
        tracer.count("wolpertinger.knn.k", args[1])

    def count_brute_force(args, result):
        gains, p_watts = args[0], args[1]
        _, ops, nbytes = brute_force_cost(gains.shape[0], p_watts.shape[0],
                                          gains.shape[2])
        tracer.count("kernels.brute_force.configs", result[2])
        tracer.count("kernels.brute_force.ops_computed", ops)
        tracer.count("kernels.brute_force.bytes_computed", nbytes)

    meth(NetworkEnv, "reset",
         lambda f: wrap(f, "env.reset", tag_of=_num_cells))
    meth(NetworkEnv, "step",
         lambda f: wrap(f, "env.step", tag_of=_num_cells,
                        name_of=lambda a: "env.step." + a[0].config.reward.kind))
    meth(NetworkEnv, "step_cells",
         lambda f: wrap(f, "env.step_cells", tag_of=_num_cells))
    fn(radio.probe_measurements,
       lambda f: wrap(f, "radio.probe_measurements"))
    fn(kernels.beam_gains, lambda f: wrap(f, "kernels.beam_gains"))
    fn(kernels.rx_powers, lambda f: wrap(f, "kernels.rx_powers"))
    fn(kernels.brute_force,
       lambda f: wrap(f, "kernels.brute_force", after=count_brute_force))
    for name in ("forward", "forward_cached", "backward_from_cache",
                 "adam_step"):
        fn(getattr(neural, name), lambda f, n=name: wrap(f, f"neural.{n}"))
    meth(ReplayBuffer, "push", lambda f: wrap(f, "neural.replay.push"))
    meth(ReplayBuffer, "sample", lambda f: wrap(f, "neural.replay.sample"))
    fn(dqn.dqn_act, lambda f: wrap(f, "dqn.act"))
    fn(dqn.dqn_train_step, lambda f: wrap(f, "dqn.train_step"))
    fn(wolpertinger.wolpertinger_act, lambda f: wrap(f, "wolpertinger.act"))
    fn(wolpertinger.knn_actions,
       lambda f: wrap(f, "wolpertinger.knn", after=count_candidates))
    fn(wolpertinger.wolpertinger_train_step,
       lambda f: wrap(f, "wolpertinger.train_step"))
    meth(CellAgent, "train_step", lambda f: wrap(f, "sequential.train_step"))
    meth(CellAgent, "greedy_move",
         lambda f: wrap(f, "sequential.greedy_move"))
    fn(sequential.rank_cells, lambda f: wrap(f, "sequential.rank_cells"))
    fn(baselines.brute_force_search,
       lambda f: wrap(f, "baselines.brute_force_search"))
    fn(baselines.mrt_tdma_sum_rate,
       lambda f: wrap(f, "baselines.mrt_tdma_sum_rate"))
    fn(harness.greedy_rollout, lambda f: wrap(f, "harness.greedy_rollout"))
    fn(harness.write_outputs, lambda f: wrap(f, "harness.write_outputs"))
