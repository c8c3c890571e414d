"""Shared builders for the test suite."""

import math

import numpy as np

from skycell.channel import PathLossParams, realize_network_channels
from skycell.radio import LinkBudget, MeasurementReport
from skycell.scenario import ScenarioConfig, build_layout, place_users


def drawn_channels(seed, num_cells=2, num_antennas=4, num_nlos_paths=3,
                   **scenario_kw):
    """One seeded scenario realization plus its channel tensor."""
    config = ScenarioConfig(num_cells=num_cells, **scenario_kw)
    rng = np.random.default_rng(seed)
    realization = place_users(config, build_layout(config), rng)
    channels = realize_network_channels(realization, num_antennas,
                                        PathLossParams(), rng, num_nlos_paths)
    return realization, channels


# ---------------------------------------------------------------------------
# ground truth from raw channels, independent of the gain table


def rx_matrix_from_channels(channels, tx, codebook, powers):
    """R[j, l] = power received at user l from transmitter j under tx."""
    selected = codebook.codewords[tx.beam_idx]
    amp = np.einsum("jlm,jm->jl", np.conj(channels.h), selected)
    p = powers.watts()[tx.power_idx]
    return p[:, None] * (amp.real * amp.real + amp.imag * amp.imag)


def sinr_all(channels, tx, codebook, powers, noise_watts):
    """Per-cell LinkBudgets, interference a correctly rounded cross-term sum."""
    r = rx_matrix_from_channels(channels, tx, codebook, powers)
    out = []
    for l in range(channels.num_cells):
        signal = r[l, l]
        interference = math.fsum(r[j, l] for j in range(r.shape[0]) if j != l)
        sinr = signal / (interference + noise_watts)
        out.append(LinkBudget(
            signal_w=float(signal),
            interference_w=float(interference),
            noise_w=noise_watts,
            sinr=float(sinr),
            snr=float(signal / noise_watts),
            rate=float(np.log2(1.0 + sinr)),
        ))
    return out


def sum_rate(budgets):
    """Network spectral efficiency in bit/s/Hz, the sum of per-cell rates."""
    return float(sum(b.rate for b in budgets))


def reference_rx_powers(gains, p_watts, beams):
    """kernels.rx_powers as a loop over transmitters in ascending index."""
    n = gains.shape[0]
    signal = np.empty(n, np.float64)
    total = np.zeros(n, np.float64)
    for j in range(n):
        contrib = p_watts[j] * gains[j, :, beams[j]]
        total += contrib
        signal[j] = contrib[j]
    return signal, total - signal


# ---------------------------------------------------------------------------
# per-cell reference step: one LinkBudget/MeasurementReport per cell, the
# environment's step before link state became one array record


def reference_budgets(env, tx):
    signal, interference = reference_rx_powers(
        env.gains, env.powers.watts()[tx.power_idx], tx.beam_idx)
    out = []
    for l in range(env.num_cells):
        sinr = signal[l] / (interference[l] + env.noise_watts)
        out.append(LinkBudget(
            signal_w=float(signal[l]),
            interference_w=float(interference[l]),
            noise_w=env.noise_watts,
            sinr=float(sinr),
            snr=float(signal[l] / env.noise_watts),
            rate=float(np.log2(1.0 + sinr)),
        ))
    return out


def reference_reports(env, tx):
    r = rx_matrix_from_channels(env.channels, tx, env.codebook, env.powers)
    n = env.num_cells
    out = []
    for l in range(n):
        phase_a = math.fsum(r[j, l] for j in range(n) if j != l) + env.noise_watts
        phase_b = math.fsum(r[j, l] for j in range(n)) + env.noise_watts
        serving = phase_b - phase_a
        out.append(MeasurementReport(
            rssi_w=float(phase_b),
            rsrp_w=float(serving),
            rsrq=float(serving / phase_b),
            measured_sinr=float(serving / phase_a),
        ))
    return out


def _reference_reward(spec, budgets, reports):
    fields = {"global_sinr": (budgets, "sinr"), "serving_snr": (budgets, "snr"),
              "measured_sinr": (reports, "measured_sinr"),
              "rsrq": (reports, "rsrq")}
    records, field = fields[spec.kind]
    vals = [getattr(r, field) for r in records]
    if spec.kind != "rsrq":
        if min(vals) <= 10.0 ** (spec.gamma_min_db / 10.0):
            return spec.penalty, True
    return float(sum(vals)) / len(vals), False


def _reference_features(env, tx):
    n = env.num_cells
    out = np.empty(5 * n, np.float64)
    (x_lo, y_lo, z_lo), (x_span, y_span, z_span) = env._pos_lo, env._pos_span
    for l, u in enumerate(env.realization.user_positions):
        out[3 * l] = (u.x - x_lo) / x_span
        out[3 * l + 1] = (u.y - y_lo) / y_span
        out[3 * l + 2] = (u.z - z_lo) / z_span
    out[3 * n:4 * n] = tx.power_idx / max(env.powers.num_levels - 1, 1)
    out[4 * n:] = tx.beam_idx / max(env.codebook.size - 1, 1)
    return np.clip(out, 0.0, 1.0)


def reference_step(env, moves):
    """(reward, info, features) the per-cell path gives for env.step_cells(moves).

    Reads env without changing it; call it before stepping env.
    """
    tx = env.tx.copy()
    for cell, (p_bit, b_bit) in moves.items():
        dp = 1 if p_bit else -1
        tx.power_idx[cell] = min(max(tx.power_idx[cell] + dp, 0),
                                 env.powers.num_levels - 1)
        db = 1 if b_bit else -1
        tx.beam_idx[cell] = (tx.beam_idx[cell] + db) % env.codebook.size
    spec = env.config.reward
    budgets = reference_budgets(env, tx)
    reports = (reference_reports(env, tx) if spec.needs_measurements()
               else None)
    reward, violated = _reference_reward(spec, budgets, reports)
    info = {
        "sum_rate": float(sum(b.rate for b in budgets)),
        "sinr": np.array([b.sinr for b in budgets]),
        "snr": np.array([b.snr for b in budgets]),
        "rates": np.array([b.rate for b in budgets]),
        "violated_threshold": violated,
        "power_idx": tx.power_idx.copy(),
        "beam_idx": tx.beam_idx.copy(),
    }
    if reports is not None:
        info["measured_sinr"] = np.array([m.measured_sinr for m in reports])
        info["rsrq"] = np.array([m.rsrq for m in reports])
    return float(reward), info, _reference_features(env, tx)
