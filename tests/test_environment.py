"""Reward families, joint action coding and the episodic environment."""

import numpy as np
import pytest

from skycell.environment import (EnvConfig, NetworkEnv, RewardSpec,
                                 action_from_index, apply_action,
                                 compute_reward, enumerate_actions,
                                 index_from_action, num_actions, reward_terms)
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
    value, violated = reward_terms(spec, budgets, per_cell=True)
    assert (value, violated) == (-1.0, True)
    above = _budgets([1.0 + 1e-9, 3.0], [10.0, 30.0])
    value, violated = reward_terms(spec, above)
    assert not violated and value > 4.0 - 1e-6


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
    value, violated = reward_terms(spec, measurements=reports)
    np.testing.assert_allclose(value, 0.9)
    assert not violated


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


def test_action_index_roundtrip_and_enumeration():
    for idx in range(16):
        bits = action_from_index(idx, 2)
        assert bits.shape == (4,)
        assert index_from_action(bits) == idx
    table = enumerate_actions(2)
    assert table.shape == (16, 4)
    for idx in range(16):
        np.testing.assert_array_equal(table[idx], action_from_index(idx, 2))
    with pytest.raises(ValueError):
        action_from_index(16, 2)
    with pytest.raises(ValueError):
        index_from_action([0, 2])
    with pytest.raises(ValueError):
        enumerate_actions(12)


def test_interior_moves_have_inverses():
    tx = TxConfig(power_idx=np.array([1, 2]), beam_idx=np.array([3, 4]))
    action = np.array([1, 0, 0, 1])
    inverse = 1 - action
    moved = apply_action(tx, action, num_levels=4, num_beams=8)
    back = apply_action(moved, inverse, num_levels=4, num_beams=8)
    np.testing.assert_array_equal(back.power_idx, tx.power_idx)
    np.testing.assert_array_equal(back.beam_idx, tx.beam_idx)


def test_powers_clamp_and_beams_wrap():
    tx = TxConfig(power_idx=np.array([0, 3]), beam_idx=np.array([0, 7]))
    down = apply_action(tx, [0, 0, 0, 0], num_levels=4, num_beams=8)
    np.testing.assert_array_equal(down.power_idx, [0, 2])
    np.testing.assert_array_equal(down.beam_idx, [7, 6])
    up = apply_action(tx, [1, 1, 1, 1], num_levels=4, num_beams=8)
    np.testing.assert_array_equal(up.power_idx, [1, 3])
    np.testing.assert_array_equal(up.beam_idx, [1, 0])
    with pytest.raises(ValueError):
        apply_action(tx, [1, 0, 1], num_levels=4, num_beams=8)
    with pytest.raises(ValueError):
        apply_action(tx, [1, 0, 1, 2], num_levels=4, num_beams=8)


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


def test_features_are_normalized_and_sized():
    env = _env(num_cells=3)
    features = env.reset(5)
    assert features.shape == (15,)
    assert np.all(features >= 0.0) and np.all(features <= 1.0)
    # position block is frozen within an episode; config block moves
    out = env.step(np.ones(6, np.int64))
    np.testing.assert_array_equal(out.features[:9], features[:9])
    assert not np.array_equal(out.features[9:], features[9:])


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
