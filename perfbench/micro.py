"""Fixed micro-cases run in the traced run.

Two sets. The kernel cases are the three cases of ``benchmarks/bench_kernels.py``
(beam gain table, received powers, brute force over 512,000 configurations at
L=3), timed on whichever kernel path is active. The baseline cases repeat the
per-layer figures ROADMAP.md quotes, each timed around the one call named:

* env.reset and env.step at L=2, 3, 5 (global_sinr) and env.step at L=2
  (measured_sinr). The step timing holds only ``env.step``; drawing the random
  action happens outside it.
* a batch-32 forward pass and an Adam step of the (10, 128, 128, 16) MLP, the
  DQN network at L=2.
* one ``dqn_train_step`` at L=2 with default settings; sampling the minibatch
  from replay happens outside it.

Each figure is the median of per-call times in microseconds.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from skycell import kernels, neural
from skycell.agents.dqn import DqnAgent, dqn_train_step
from skycell.baselines import random_policy
from skycell.environment import NetworkEnv
from skycell.harness import ExperimentConfig, stream_seed


def _median_us(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e6


def brute_force_cost(num_cells: int, num_power: int, num_beams: int):
    """Computed (not measured) work of one exhaustive search.

    Per configuration: L*L multiplies and L*L adds build every user's total
    received power, then per cell one subtract, one add of noise, one divide,
    one add of one and one log2, and L adds sum the rates; decoding the
    2L mixed-radix digits takes 4L integer divides and modulos. The bytes are
    the least traffic the algorithm needs: L*L gain-table reads, L power reads
    and one rate write per configuration, 8 bytes each.
    """
    configs = (num_power * num_beams) ** num_cells
    ops = configs * (2 * num_cells ** 2 + 6 * num_cells + 4 * num_cells)
    nbytes = configs * 8 * (num_cells ** 2 + num_cells + 1)
    return configs, ops, nbytes


def kernel_cases(seed: int) -> dict:
    """The bench_kernels cases: L=3, M=4, W=8, ten power levels."""
    cfg = ExperimentConfig()
    env = NetworkEnv(cfg.env_config(3))
    env.reset(stream_seed("perfbench", "kernel_cases", seed))
    h, codewords = env.channels.h, env.codebook.codewords
    p_watts = env.powers.watts()
    gains = kernels.beam_gains(h, codewords)
    beams = np.arange(3, dtype=np.int64) % env.codebook.size
    pv = np.full(3, p_watts[-1])
    brute_s = _median_us(lambda: kernels.brute_force(gains, p_watts,
                                                     env.noise_watts), 3) / 1e6
    configs, ops, nbytes = brute_force_cost(3, p_watts.size, env.codebook.size)
    return {
        "kernels.case.beam_gains_us": (
            _median_us(lambda: kernels.beam_gains(h, codewords), 200), "us"),
        "kernels.case.rx_powers_us": (
            _median_us(lambda: kernels.rx_powers(gains, pv, beams), 2000), "us"),
        "kernels.case.brute_force_ms": (brute_s * 1e3, "ms"),
        "kernels.case.brute_force.configs": (configs, "count"),
        "kernels.case.brute_force.ops_computed": (ops, "count"),
        "kernels.case.brute_force.bytes_computed": (nbytes, "B"),
        "kernels.case.brute_force.gops_per_s_computed": (ops / brute_s / 1e9,
                                                         "Gop/s"),
    }


def _env_cases(seed: int) -> dict:
    cfg = ExperimentConfig()
    out = {}
    for num_cells, family in ((2, "global_sinr"), (3, "global_sinr"),
                              (5, "global_sinr"), (2, "measured_sinr")):
        env = NetworkEnv(cfg.env_config(num_cells, family))
        seeds = iter(stream_seed("perfbench", "roadmap", num_cells, i)
                     for i in range(10 ** 6))
        if family == "global_sinr":
            out[f"roadmap.env_reset_L{num_cells}_us"] = (
                _median_us(lambda: env.reset(next(seeds)), 200), "us")
        rng = np.random.default_rng(stream_seed("perfbench", "walk", seed))
        times = []
        env.reset(next(seeds))
        for _ in range(2000):
            if env.step_count >= env.config.horizon:
                env.reset(next(seeds))
            action = random_policy(rng, num_cells)
            t0 = perf_counter()
            env.step(action)
            times.append(perf_counter() - t0)
        suffix = "" if family == "global_sinr" else "_measured"
        out[f"roadmap.env_step{suffix}_L{num_cells}_us"] = (
            statistics.median(times) * 1e6, "us")
    return out


def _network_cases(seed: int) -> dict:
    rng = np.random.default_rng(stream_seed("perfbench", "network", seed))
    agent = DqnAgent(10, 2, seed=stream_seed("perfbench", "dqn", seed))
    net = agent.online
    x = rng.random((32, 10))
    grads = neural.backward(net, x, rng.standard_normal((32, 16)))
    opt = neural.AdamState(net.parameters())
    for _ in range(256):
        agent.buffer.push(rng.random(10), np.int64(rng.integers(16)),
                          float(rng.random()), rng.random(10), False)
    batches = iter([agent.buffer.sample(32, rng) for _ in range(300)])
    return {
        "roadmap.mlp_forward_b32_us": (
            _median_us(lambda: neural.forward(net, x), 500), "us"),
        "roadmap.adam_step_us": (
            _median_us(lambda: neural.adam_step(opt, net.parameters(), grads),
                       300), "us"),
        "roadmap.dqn_train_step_us": (
            _median_us(lambda: dqn_train_step(agent, next(batches)), 300), "us"),
    }


def baseline_cases(seed: int) -> dict:
    out = _env_cases(seed)
    out.update(_network_cases(seed))
    return out
