"""Reward families, joint action coding and the episodic environment."""

import numpy as np
import pytest

from helpers import (reference_action_bits, reference_budgets,
                     reference_reports, reference_step, rx_matrix_from_channels)
from skycell import kernels
from skycell.channel import ChannelSet
from skycell.agents.wolpertinger import _corner_table
from skycell.environment import (REWARD_KINDS, EnvConfig, NetworkEnv,
                                 RewardSpec, action_from_index, compute_reward,
                                 index_bits, index_from_action, num_actions)
from skycell.radio import LinkBudget, MeasurementReport, TxConfig
from skycell.scenario import ScenarioConfig


def _budgets(sinrs, snrs):
    return [LinkBudget(signal_w=1.0, interference_w=1.0, noise_w=1.0,
                       sinr=float(si), snr=float(sn),
                       rate=float(np.log2(1.0 + si)))
            for si, sn in zip(sinrs, snrs)]


def _reports(measured, rsrq):
    return [MeasurementReport(rssi_w=1.0, rsrp_w=0.5, rsrq=float(q),
                              measured_sinr=float(m))
            for m, q in zip(measured, rsrq)]


def test_global_reward_sums_true_sinrs():
    budgets = _budgets([1.0, 3.0], [10.0, 30.0])
    spec = RewardSpec(kind="global_sinr", gamma_min_db=-10.0)
    np.testing.assert_allclose(compute_reward(spec, budgets), 4.0)
    np.testing.assert_allclose(compute_reward(spec, budgets, per_cell=True),
                               2.0)


def test_serving_reward_reads_snr_not_sinr():
    budgets = _budgets([1.0, 3.0], [10.0, 30.0])
    spec = RewardSpec(kind="serving_snr", gamma_min_db=0.0)
    np.testing.assert_allclose(compute_reward(spec, budgets), 40.0)


def test_threshold_is_strict_and_penalty_unscaled():
    budgets = _budgets([1.0, 3.0], [10.0, 30.0])
    # 0 dB threshold equals the weakest sinr exactly: at-threshold fails
    spec = RewardSpec(kind="global_sinr", gamma_min_db=0.0, penalty=-1.0)
    assert compute_reward(spec, budgets, per_cell=True) == -1.0
    above = _budgets([1.0 + 1e-9, 3.0], [10.0, 30.0])
    assert compute_reward(spec, above) > 4.0 - 1e-6


def test_measured_families_need_reports():
    budgets = _budgets([1.0], [10.0])
    with pytest.raises(ValueError):
        compute_reward(RewardSpec(kind="measured_sinr"), budgets)
    reports = _reports([2.0], [0.4])
    np.testing.assert_allclose(
        compute_reward(RewardSpec(kind="measured_sinr", gamma_min_db=-10.0),
                       measurements=reports), 2.0)


def test_rsrq_reward_carries_no_threshold():
    reports = _reports([2.0, 2.0], [0.3, 0.6])
    spec = RewardSpec(kind="rsrq", gamma_min_db=60.0)
    np.testing.assert_allclose(compute_reward(spec, measurements=reports), 0.9)


def test_reward_spec_validation():
    for kind in ("throughput", "compound"):
        with pytest.raises(ValueError):
            RewardSpec(kind=kind)
    assert RewardSpec(kind="measured_sinr").needs_measurements()
    assert RewardSpec(kind="rsrq").needs_measurements()
    assert not RewardSpec(kind="global_sinr").needs_measurements()
    assert not RewardSpec(kind="serving_snr").needs_measurements()


def test_action_space_size_is_two_bits_per_cell():
    assert num_actions(1) == 4
    assert num_actions(2) == 16
    assert num_actions(18) == 2 ** 36


def test_index_bits_match_the_bit_loop():
    for width in range(1, 13):
        indices = np.arange(1 << width)
        want = np.array([reference_action_bits(i, width) for i in indices])
        np.testing.assert_array_equal(index_bits(indices, width), want)
        np.testing.assert_array_equal(index_bits(indices[-1], width), want[-1])
    rng = np.random.default_rng(0)
    wide = np.concatenate([[0, 1, (1 << 62) - 1],
                           rng.integers(0, 1 << 62, 200)])
    want = np.array([reference_action_bits(int(i), 62) for i in wide])
    np.testing.assert_array_equal(index_bits(wide, 62), want)


def test_action_index_roundtrip_and_enumeration():
    for idx in range(16):
        bits = action_from_index(idx, 2)
        assert bits.shape == (4,)
        assert index_from_action(bits) == idx
    table = _corner_table(4)
    assert table.shape == (16, 4)
    for idx in range(16):
        np.testing.assert_array_equal(table[idx], action_from_index(idx, 2))
    with pytest.raises(ValueError):
        action_from_index(16, 2)
    with pytest.raises(ValueError):
        index_from_action([0, 2])


def _env_at(power_idx, beam_idx):
    # two cells, four power levels, eight beams, set to the given indices
    env = _env(power_levels_dbm=(27.0, 28.0, 29.0, 30.0), codebook_size=8)
    env.reset(0)
    env.tx = TxConfig(power_idx=np.array(power_idx),
                      beam_idx=np.array(beam_idx))
    return env


def _indices(env):
    return env.tx.power_idx.tolist(), env.tx.beam_idx.tolist()


def test_interior_moves_have_inverses():
    env = _env_at([1, 2], [3, 4])
    action = np.array([1, 0, 0, 1])
    env.step(action)
    assert _indices(env) == ([2, 1], [2, 5])
    env.step(1 - action)
    assert _indices(env) == ([1, 2], [3, 4])
    env.step_cells({1: (0, 1)})
    env.step_cells({1: (1, 0)})
    assert _indices(env) == ([1, 2], [3, 4])


def test_powers_clamp_and_beams_wrap():
    env = _env_at([0, 3], [0, 7])
    env.step([0, 0, 0, 0])
    assert _indices(env) == ([0, 2], [7, 6])
    env = _env_at([0, 3], [0, 7])
    env.step([1, 1, 1, 1])
    assert _indices(env) == ([1, 3], [1, 0])
    env = _env_at([0, 3], [0, 7])
    env.step_cells({1: (1, 1)})
    assert _indices(env) == ([0, 3], [0, 0])
    for bad in ([1, 0, 1], [1, 0, 1, 2]):
        with pytest.raises(ValueError):
            env.step(bad)
    with pytest.raises(ValueError):
        env.step_cells({0: (2, 0)})
    assert _indices(env) == ([0, 3], [0, 0])  # rejected moves change nothing


def _env(num_cells=2, **kw):
    return NetworkEnv(EnvConfig(scenario=ScenarioConfig(num_cells=num_cells),
                                **kw))


def test_reset_is_deterministic_in_the_episode_seed():
    env = _env()
    f1 = env.reset(123)
    h1 = env.channels.h.copy()
    tx1 = env.tx.copy()
    f2 = env.reset(123)
    np.testing.assert_array_equal(f1, f2)
    np.testing.assert_array_equal(env.channels.h, h1)
    np.testing.assert_array_equal(env.tx.power_idx, tx1.power_idx)
    np.testing.assert_array_equal(env.tx.beam_idx, tx1.beam_idx)
    f3 = env.reset(124)
    assert not np.array_equal(f1, f3)


def test_initial_config_uses_mid_power_and_best_serving_beam():
    env = _env()
    env.reset(7)
    assert set(env.tx.power_idx.tolist()) == {env.powers.num_levels // 2}
    for l in range(env.num_cells):
        assert env.tx.beam_idx[l] == int(np.argmax(env.gains[l, l]))
    for n in (1, 2, 3, 5):
        sized = _env(num_cells=n)
        for seed in range(5):
            sized.reset(seed)
            assert (sized.tx.beam_idx.tolist()
                    == kernels.serving_beams(sized.gains).tolist())


def test_features_are_normalized_and_sized():
    env = _env(num_cells=3)
    features = env.reset(5)
    assert features.shape == (15,)
    assert np.all(features >= 0.0) and np.all(features <= 1.0)
    # position block is frozen within an episode; config block moves
    out = env.step(np.ones(6, np.int64))
    np.testing.assert_array_equal(out.features[:9], features[:9])
    assert not np.array_equal(out.features[9:], features[9:])
    for n in (1, 2, 3, 5):
        sized = _env(num_cells=n)
        assert len(sized.reset(5)) == sized.num_features == 5 * n


def test_episode_runs_to_horizon_then_refuses():
    env = _env(horizon=3)
    env.reset(1)
    for step in range(3):
        out = env.step([0, 1, 1, 0])
        assert out.done == (step == 2)
    with pytest.raises(RuntimeError):
        env.step([0, 1, 1, 0])


def test_stepping_before_reset_is_an_error():
    env = _env()
    with pytest.raises(RuntimeError):
        env.step([0, 0, 0, 0])


def test_step_validates_shape_and_bits():
    env = _env()
    env.reset(2)
    with pytest.raises(ValueError):
        env.step([1, 0, 1])
    with pytest.raises(ValueError):
        env.step_cells({5: (0, 1)})
    with pytest.raises(ValueError):
        env.step_cells({0: (2, 1)})
    # a bit must equal 0 or 1; it is never truncated to one
    for bad in (0.5, 1.5):
        with pytest.raises(ValueError):
            env.step([bad, 0, 0, 0])
    with pytest.raises(ValueError):
        env.step_cells({0: (1.5, 0)})
    with pytest.raises(ValueError):
        index_from_action([1.5, 0])
    assert index_from_action([True, False, 1.0, 0.0]) == 0b1010
    # bools and 0.0/1.0 step exactly as the same 0/1 action does
    envs = [_env() for _ in range(3)]
    for other in envs:
        other.reset(4)
    for bits in np.random.default_rng(1).integers(0, 2, (10, 4)):
        outs = [e.step(a) for e, a in
                zip(envs, (bits, bits.astype(bool), bits.astype(float)))]
        for out in outs[1:]:
            np.testing.assert_array_equal(out.features, outs[0].features)
            assert out.reward == outs[0].reward
            assert out.info["sum_rate"] == outs[0].info["sum_rate"]


def test_step_info_reports_ground_truth():
    env = _env()
    env.reset(3)
    out = env.step([1, 0, 0, 1])
    budgets = env.budgets()
    np.testing.assert_allclose(out.info["sum_rate"],
                               sum(b.rate for b in budgets))
    np.testing.assert_allclose(out.info["sinr"], [b.sinr for b in budgets])
    np.testing.assert_allclose(out.info["snr"], [b.snr for b in budgets])
    assert isinstance(out.info["violated_threshold"], bool)
    assert "measured_sinr" not in out.info
    # true-SINR reward is the per-cell average when no threshold fires
    if not out.info["violated_threshold"]:
        np.testing.assert_allclose(out.reward,
                                   np.mean(out.info["sinr"]), rtol=1e-12)


def test_measured_reward_env_reports_probe_columns():
    env = _env(reward=RewardSpec(kind="measured_sinr", gamma_min_db=-30.0))
    env.reset(3)
    out = env.step([1, 0, 0, 1])
    assert out.info["measured_sinr"].shape == (2,)
    assert out.info["rsrq"].shape == (2,)
    np.testing.assert_allclose(out.info["measured_sinr"], out.info["sinr"],
                               rtol=1e-9)


def test_partial_moves_hold_other_cells():
    env = _env(num_cells=3)
    env.reset(8)
    before = env.tx.copy()
    env.step_cells({1: (1, 1)})
    for l in (0, 2):
        assert env.tx.power_idx[l] == before.power_idx[l]
        assert env.tx.beam_idx[l] == before.beam_idx[l]
    assert env.tx.power_idx[1] == min(before.power_idx[1] + 1,
                                      env.powers.num_levels - 1)


def test_steps_leave_earlier_configs_and_info_untouched():
    env = _env(num_cells=3)
    env.reset(8)
    kept = env.tx
    kept_copy = kept.copy()
    infos = [env.step(np.array([1, 0, 1, 1, 0, 0])).info]
    snapshots = [(infos[0]["power_idx"].copy(), infos[0]["beam_idx"].copy())]
    infos.append(env.step_cells({0: (1, 1), 2: (0, 0)}).info)
    snapshots.append((infos[1]["power_idx"].copy(),
                      infos[1]["beam_idx"].copy()))
    for _ in range(4):
        env.step(np.array([0, 1, 1, 1, 1, 0]))
        env.step_cells({1: (1, 0)})
    np.testing.assert_array_equal(kept.power_idx, kept_copy.power_idx)
    np.testing.assert_array_equal(kept.beam_idx, kept_copy.beam_idx)
    for info, (power_idx, beam_idx) in zip(infos, snapshots):
        np.testing.assert_array_equal(info["power_idx"], power_idx)
        np.testing.assert_array_equal(info["beam_idx"], beam_idx)


def test_joint_step_equals_full_move_dict():
    env_a = _env()
    env_b = _env()
    env_a.reset(9)
    env_b.reset(9)
    action = np.array([1, 0, 1, 0])
    out_a = env_a.step(action)
    out_b = env_b.step_cells({0: (1, 1), 1: (0, 0)})
    np.testing.assert_array_equal(out_a.features, out_b.features)
    assert out_a.reward == out_b.reward


def test_env_config_validation():
    with pytest.raises(ValueError):
        EnvConfig(horizon=0)
    with pytest.raises(ValueError):
        EnvConfig(num_antennas=0)


@pytest.mark.parametrize("family", REWARD_KINDS)
@pytest.mark.parametrize("num_cells", [1, 2, 3, 5])
def test_step_matches_per_cell_reference(num_cells, family):
    rng = np.random.default_rng(num_cells)
    for gamma_min_db in (-3.0, -60.0):
        env = _env(num_cells=num_cells, horizon=12,
                   reward=RewardSpec(kind=family, gamma_min_db=gamma_min_db))
        for episode in range(4):
            env.reset(100 * num_cells + episode)
            for step in range(12):
                if step % 2 == 0:
                    bits = rng.integers(0, 2, 2 * num_cells)
                    moves = {l: (int(bits[l]), int(bits[num_cells + l]))
                             for l in range(num_cells)}
                else:
                    cells = rng.permutation(num_cells)[:rng.integers(0, num_cells + 1)]
                    moves = {int(l): tuple(int(b) for b in rng.integers(0, 2, 2))
                             for l in cells}
                reward, info, features = reference_step(env, moves)
                out = (env.step(bits) if step % 2 == 0
                       else env.step_cells(moves))
                assert out.reward == reward
                assert out.info.keys() == info.keys()
                assert out.info["sum_rate"] == info["sum_rate"]
                assert out.info["violated_threshold"] is info["violated_threshold"]
                for key, want in info.items():
                    if isinstance(want, np.ndarray):
                        assert out.info[key].dtype == want.dtype, key
                        np.testing.assert_array_equal(out.info[key], want)
                np.testing.assert_array_equal(out.features, features)


def test_rx_matrix_from_gain_table_matches_raw_channels():
    rng = np.random.default_rng(11)
    for num_cells in (1, 2, 3, 5):
        for num_antennas in (1, 4, 8):
            env = _env(num_cells=num_cells, num_antennas=num_antennas)
            for seed in range(5):
                env.reset(seed)
                for _ in range(10):
                    tx = TxConfig(
                        power_idx=rng.integers(0, env.powers.num_levels, num_cells),
                        beam_idx=rng.integers(0, env.codebook.size, num_cells))
                    want = rx_matrix_from_channels(env.channels, tx,
                                                   env.codebook, env.powers)
                    got = kernels.rx_matrix(
                        env.gains, env.powers.watts()[tx.power_idx], tx.beam_idx)
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_link_state_reads_the_given_tx():
    # the harness scores the brute-force winner this way, at a tx the env is
    # not in
    env = _env(num_cells=3)
    env.reset(5)
    rng = np.random.default_rng(5)
    for _ in range(10):
        tx = TxConfig(power_idx=rng.integers(0, env.powers.num_levels, 3),
                      beam_idx=rng.integers(0, env.codebook.size, 3))
        state = env.link_state(measured=True, tx=tx)
        np.testing.assert_array_equal(
            state.sinr, [b.sinr for b in reference_budgets(env, tx)])
        np.testing.assert_array_equal(
            state.rsrq, [m.rsrq for m in reference_reports(env, tx)])


def _zero_links(env, links):
    h = env.channels.h.copy()
    for j, l in links:
        h[j, l] = 0.0
    env.channels = ChannelSet(h=h)
    env.gains = kernels.beam_gains(h, env.codebook.codewords)


@pytest.mark.parametrize("case", ["single_cell", "zero_link", "all_zero",
                                  "all_nlos"])
def test_degenerate_channels_stay_finite(case):
    num_cells = 1 if case == "single_cell" else 3
    los = 0.0 if case == "all_nlos" else 0.8
    for family in REWARD_KINDS:
        env = NetworkEnv(EnvConfig(
            scenario=ScenarioConfig(num_cells=num_cells, los_probability=los),
            reward=RewardSpec(kind=family), horizon=6))
        env.reset(4)
        if case == "zero_link":
            _zero_links(env, [(0, 0), (2, 1)])
        elif case == "all_zero":
            _zero_links(env, [(j, l) for j in range(3) for l in range(3)])
        for step in range(6):
            bits = np.full(2 * num_cells, step % 2)
            out = env.step(bits) if step < 3 else env.step_cells({0: (1, 0)})
            assert np.isfinite(out.reward), (family, step)
            for key, value in out.info.items():
                assert np.all(np.isfinite(value)), (family, key)
        for records in (env.budgets(), env.measurements()):
            for record in records:
                assert all(np.isfinite(v) for v in vars(record).values())


def test_features_are_cached_per_episode_and_copied_out():
    env = _env(num_cells=3)
    env.reset(21)
    first = env.reset(22)
    fresh = _env(num_cells=3)
    np.testing.assert_array_equal(first, fresh.reset(22))
    np.testing.assert_array_equal(env.features(), fresh.features())
    # scribbling on anything handed out leaves the env untouched
    out = env.step(np.ones(6, np.int64))
    want_features = out.features.copy()
    want_tx = env.tx.copy()
    out.features[:] = -5.0
    for value in out.info.values():
        if isinstance(value, np.ndarray):
            value[:] = 7
    first[:] = 9.0
    np.testing.assert_array_equal(env.features(), want_features)
    np.testing.assert_array_equal(env.tx.power_idx, want_tx.power_idx)
    np.testing.assert_array_equal(env.tx.beam_idx, want_tx.beam_idx)
    nxt = env.step(np.zeros(6, np.int64))
    ref = fresh
    ref.step(np.ones(6, np.int64))
    want = ref.step(np.zeros(6, np.int64))
    np.testing.assert_array_equal(nxt.features, want.features)
    assert nxt.reward == want.reward
    for key, value in want.info.items():
        np.testing.assert_array_equal(nxt.info[key], value)
