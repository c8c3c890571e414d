"""Shared builders for the test suite."""

import math
from collections import namedtuple
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from skycell import neural
from skycell.agents.wolpertinger import knn_actions_batch
from skycell.channel import (ChannelSet, PathLossParams, path_loss_db,
                             realize_network_channels)
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
# per-link channel draw: Vec3 tuples and one Python call per link and per
# scattered path, the draw before realize_network_channels became one
# vectorised pass; an oracle for its bytes and its generator consumption


class Vec3(NamedTuple):
    x: float
    y: float
    z: float


def scalar_array_response(theta: float, num_antennas: int) -> np.ndarray:
    """ULA steering vector for one angle, through math.sin."""
    m = np.arange(num_antennas)
    return np.exp(1j * math.pi * m * math.sin(theta))


def link_distance_3d(bs: Vec3, user: Vec3) -> float:
    return math.sqrt((bs.x - user.x) ** 2 + (bs.y - user.y) ** 2
                     + (bs.z - user.z) ** 2)


def draw_link_channel(bs: Vec3, user: Vec3, los: bool, num_antennas: int,
                      params, rng, num_nlos_paths=3):
    """One (M,) complex channel vector for a single BS-to-user link."""
    d = link_distance_3d(bs, user)
    g = 10.0 ** (-path_loss_db(d, los, params) / 10.0)
    if los:
        azimuth = math.atan2(user.y - bs.y, user.x - bs.x)
        return math.sqrt(g) * scalar_array_response(azimuth, num_antennas)
    amp = (rng.standard_normal(num_nlos_paths)
           + 1j * rng.standard_normal(num_nlos_paths)) / math.sqrt(2.0)
    angles = rng.uniform(-math.pi / 2.0, math.pi / 2.0, num_nlos_paths)
    h = np.zeros(num_antennas, np.complex128)
    for p in range(num_nlos_paths):
        h += amp[p] * scalar_array_response(angles[p], num_antennas)
    return math.sqrt(g / num_nlos_paths) * h


def reference_network_channels(scenario, num_antennas, params, rng,
                               num_nlos_paths=3):
    """realize_network_channels as a loop of draw_link_channel calls."""
    bs = [Vec3(*c) for c in scenario.bs_positions.tolist()]
    users = [Vec3(*c) for c in scenario.user_positions.tolist()]
    n = scenario.num_cells
    h = np.empty((n, n, num_antennas), np.complex128)
    for j in range(n):
        for l in range(n):
            h[j, l] = draw_link_channel(bs[j], users[l],
                                        bool(scenario.los[j, l]),
                                        num_antennas, params, rng,
                                        num_nlos_paths)
    return ChannelSet(h=h)


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


def reference_action_bits(index, width):
    """The width binary digits of one index, most significant first, by a
    loop over bit positions."""
    bits = np.empty(width, np.int64)
    for i in range(width):
        bits[width - 1 - i] = (index >> i) & 1
    return bits


def reference_decode_config(code, n_cells, n_power, n_beams):
    """Split a mixed-radix configuration code back into index vectors."""
    beams = np.empty(n_cells, np.int64)
    powers = np.empty(n_cells, np.int64)
    rem = code
    for i in range(n_cells - 1, -1, -1):
        beams[i] = rem % n_beams
        rem //= n_beams
    for i in range(n_cells - 1, -1, -1):
        powers[i] = rem % n_power
        rem //= n_power
    return powers, beams


def reference_brute_force(gains, p_watts, noise_w, chunk=1 << 15):
    """kernels.brute_force as a scan over chunks of ascending codes, each
    decoded digit by digit, with interference summed by its own loop over
    ascending transmitters."""
    n_cells = gains.shape[0]
    n_beams = gains.shape[2]
    n_power = p_watts.shape[0]
    total = (n_power * n_beams) ** n_cells

    # radix weight of each digit position, most significant first
    weights = np.empty(2 * n_cells, np.int64)
    acc = 1
    for i in range(2 * n_cells - 1, -1, -1):
        weights[i] = acc
        acc *= n_beams if i >= n_cells else n_power

    best_rate = -1.0
    best_code = -1
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (codes[:, None] // weights[None, :])
        pd = digits[:, :n_cells] % n_power
        bd = digits[:, n_cells:] % n_beams
        sig = np.empty((codes.size, n_cells), np.float64)
        tot = np.zeros((codes.size, n_cells), np.float64)
        for j in range(n_cells):
            contrib = p_watts[pd[:, j], None] * gains[j][:, bd[:, j]].T
            tot += contrib
            sig[:, j] = contrib[:, j]
        rates = np.log2(1.0 + sig / (tot - sig + noise_w)).sum(axis=1)
        k = int(np.argmax(rates))
        if rates[k] > best_rate:
            best_rate = float(rates[k])
            best_code = int(codes[k])
    return best_rate, best_code, total


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
    for l, (x, y, z) in enumerate(env.realization.user_positions.tolist()):
        out[3 * l] = (x - x_lo) / x_span
        out[3 * l + 1] = (y - y_lo) / y_span
        out[3 * l + 2] = (z - z_lo) / z_span
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


def actor_step_along(agent, states, dq_da):
    """One Adam step of a Wolpertinger actor up a given value gradient dq_da
    at its sigmoid proposal, in place of the critic's gradient."""
    states = np.atleast_2d(states)
    z, cache = neural.forward_cached(agent.actor, states)
    proto = 1.0 / (1.0 + np.exp(-z))
    upstream = -(dq_da / states.shape[0]) * proto * (1.0 - proto)
    grads = neural.backward_from_cache(agent.actor, cache, upstream)
    neural.adam_step(agent.actor_opt, agent.actor.parameters(), grads)


# ---------------------------------------------------------------------------
# per-array parameter updates: every weight and bias its own array, the layout
# before each network became one flat vector; an oracle for the train steps


class ListNet:
    """A copy of an Mlp's weights as separate per-layer arrays."""

    def __init__(self, net):
        self.widths = net.widths
        self.weights = [w.copy() for w in net.weights]
        self.biases = [b.copy() for b in net.biases]

    @property
    def num_layers(self):
        return len(self.weights)

    def parameters(self):
        return [a for pair in zip(self.weights, self.biases) for a in pair]


def flat(arrays):
    """Per-layer arrays concatenated in the Mlp.parameters() layout."""
    return np.concatenate([np.ravel(a) for a in arrays])


def list_backward_from_cache(net, cache, upstream):
    pre, post = cache
    g = np.atleast_2d(np.asarray(upstream, np.float64))
    grads = [None] * (2 * net.num_layers)
    for k in range(net.num_layers - 1, -1, -1):
        grads[2 * k] = g.T @ post[k]
        grads[2 * k + 1] = g.sum(axis=0)
        if k > 0:
            g = (g @ net.weights[k]) * (pre[k - 1] > 0.0)
    return grads


def list_input_gradient(net, x, upstream):
    """dLoss/dInput with its own forward pass."""
    _, (pre, _) = neural.forward_cached(net, x)
    g = np.atleast_2d(np.asarray(upstream, np.float64))
    for k in range(net.num_layers - 1, 0, -1):
        g = (g @ net.weights[k]) * (pre[k - 1] > 0.0)
    return g @ net.weights[0]


def list_adam(net, opt):
    """Per-array moments with the hyperparameters of a flat AdamState."""
    return SimpleNamespace(lr=opt.lr, beta1=opt.beta1, beta2=opt.beta2,
                           eps=opt.eps, t=opt.t,
                           m=[np.zeros_like(p) for p in net.parameters()],
                           v=[np.zeros_like(p) for p in net.parameters()])


def reference_adam_step(state, params, grads):
    """The Adam update as plain expressions on one flat vector."""
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * grads
    v *= state.beta2
    v += (1.0 - state.beta2) * (grads * grads)
    params -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def list_adam_step(state, params, grads):
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def list_soft_update(target, online, tau):
    for t, o in zip(target.parameters(), online.parameters()):
        t *= 1.0 - tau
        t += tau * o


def list_hard_sync(target, online):
    for t, o in zip(target.parameters(), online.parameters()):
        t[...] = o


def list_agent(agent, nets):
    """A per-array twin of agent: its named nets, one Adam state per opt."""
    twin = SimpleNamespace(config=agent.config,
                           train_calls=getattr(agent, "train_calls", 0))
    for name in nets:
        setattr(twin, name, ListNet(getattr(agent, name)))
    for name, opt in vars(agent).items():
        if isinstance(opt, neural.AdamState):
            net = getattr(twin, {"opt": "online", "actor_opt": "actor",
                                 "critic_opt": "critic"}[name])
            setattr(twin, name, list_adam(net, opt))
    return twin


def list_q_td_step(agent, batch):
    """agents.training.q_td_step on a list_agent twin."""
    c = agent.config
    bootstrap = neural.forward(agent.target, batch.next_states).max(axis=1)
    targets = batch.rewards + c.gamma * np.where(batch.dones, 0.0, bootstrap)
    out, cache = neural.forward_cached(agent.online, batch.states)
    rows = np.arange(out.shape[0])
    acts = batch.actions.astype(np.int64)
    loss, dloss = neural.huber(out[rows, acts] - targets)
    upstream = np.zeros_like(out)
    upstream[rows, acts] = dloss / out.shape[0]
    grads = list_backward_from_cache(agent.online, cache, upstream)
    list_adam_step(agent.opt, agent.online.parameters(), grads)
    agent.train_calls += 1
    if agent.train_calls % c.target_sync == 0:
        list_hard_sync(agent.target, agent.online)
    return float(loss.mean())


def list_wolpertinger_train_step(agent, batch):
    """wolpertinger_train_step on a list_agent twin."""
    c = agent.config
    n = batch.states.shape[0]
    proto_next = neural.forward(agent.actor_target, batch.next_states)
    proto_next = 1.0 / (1.0 + np.exp(-proto_next))
    cands = knn_actions_batch(proto_next, c.k).reshape(n * c.k, -1)
    x_next = np.concatenate([np.repeat(batch.next_states, c.k, axis=0),
                             cands.astype(np.float64)], axis=1)
    q_next = neural.forward(agent.critic_target, x_next)[:, 0]
    bootstrap = q_next.reshape(n, c.k).max(axis=1)
    targets = batch.rewards + c.gamma * np.where(batch.dones, 0.0, bootstrap)
    x = np.concatenate([batch.states, batch.actions.astype(np.float64)], axis=1)
    q, cache = neural.forward_cached(agent.critic, x)
    loss, dloss = neural.huber(q[:, 0] - targets)
    grads = list_backward_from_cache(agent.critic, cache, (dloss / n)[:, None])
    list_adam_step(agent.critic_opt, agent.critic.parameters(), grads)

    z, cache = neural.forward_cached(agent.actor, batch.states)
    proto = 1.0 / (1.0 + np.exp(-z))
    x = np.concatenate([batch.states, proto], axis=1)
    q = neural.forward(agent.critic, x)
    dq_dx = list_input_gradient(agent.critic, x, np.ones_like(q) / n)
    dq_da = dq_dx[:, batch.states.shape[1]:]
    grads = list_backward_from_cache(agent.actor, cache,
                                     -dq_da * proto * (1.0 - proto))
    list_adam_step(agent.actor_opt, agent.actor.parameters(), grads)

    list_soft_update(agent.actor_target, agent.actor, c.tau)
    list_soft_update(agent.critic_target, agent.critic, c.tau)
    return float(loss.mean()), float(q.mean())


# ---------------------------------------------------------------------------
# finite-difference gradient check


GradCheckResult = namedtuple("GradCheckResult", "max_rel_error worst_index")


def grad_check(net, loss, x, epsilon=1e-6) -> GradCheckResult:
    """Compare backprop against central finite differences on every parameter.

    loss maps the network output to (scalar value, dValue/dOutput). Returns
    the worst relative disagreement and its index into net.parameters().
    """
    y = neural.forward(net, x)
    _, upstream = loss(y)
    analytic = neural.backward(net, x, upstream)
    p = net.parameters()
    worst = GradCheckResult(0.0, -1)
    for i, g in enumerate(analytic.tolist()):
        keep = p[i]
        p[i] = keep + epsilon
        up, _ = loss(neural.forward(net, x))
        p[i] = keep - epsilon
        dn, _ = loss(neural.forward(net, x))
        p[i] = keep
        numeric = (up - dn) / (2.0 * epsilon)
        rel = abs(g - numeric) / max(abs(g), abs(numeric), 1e-8)
        if rel > worst.max_rel_error:
            worst = GradCheckResult(rel, i)
    return worst


# ---------------------------------------------------------------------------
# tabular Q-learning: the reference policy a DQN is compared against on a
# small frozen instance


class QTable:
    """Dense mapping from hashable state keys to per-action values.

    Unseen states read as the initial value.
    """

    def __init__(self, num_actions, alpha=0.1, gamma=0.9, initial_value=0.0):
        self.num_actions = num_actions
        self.alpha = alpha
        self.gamma = gamma
        self.initial_value = initial_value
        self.table = {}

    def values(self, state_key) -> np.ndarray:
        row = self.table.get(state_key)
        if row is None:
            return np.full(self.num_actions, self.initial_value)
        return row

    def act(self, state_key, epsilon, rng) -> int:
        """Epsilon-greedy action; greedy ties go to the lowest index."""
        if epsilon > 0.0 and rng.random() < epsilon:
            return int(rng.integers(self.num_actions))
        return int(np.argmax(self.values(state_key)))


def q_update(table, state_key, action, reward, next_state_key, done):
    """One Bellman backup: Q <- Q + alpha (r + gamma max_a' Q' - Q)."""
    row = table.table.setdefault(state_key, table.values(state_key).copy())
    bootstrap = 0.0 if done else float(np.max(table.values(next_state_key)))
    target = reward + table.gamma * bootstrap
    row[action] += table.alpha * (target - row[action])
    return table
