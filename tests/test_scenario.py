"""Geometry: hex layout spacing, user placement bounds, draw determinism."""

import math

import numpy as np
import pytest

from skycell.channel import link_distances
from skycell.environment import EnvConfig, NetworkEnv
from skycell.scenario import (ScenarioConfig, _hex_spiral, build_layout,
                              place_users)


def test_single_cell_sits_at_origin_mast_height():
    layout = build_layout(ScenarioConfig(num_cells=1, bs_height_m=25.0))
    assert layout.tolist() == [[0.0, 0.0, 25.0]]
    with pytest.raises(ValueError):
        layout[0, 0] = 1.0


def test_neighbor_spacing_is_sqrt3_radius():
    config = ScenarioConfig(num_cells=2, cell_radius_m=200.0)
    layout = build_layout(config)
    np.testing.assert_allclose(link_distances(layout, layout)[0, 1],
                               math.sqrt(3.0) * 200.0, rtol=1e-12)


def test_seven_cells_form_center_plus_ring():
    config = ScenarioConfig(num_cells=7, cell_radius_m=150.0)
    layout = build_layout(config)
    spacing = math.sqrt(3.0) * 150.0
    dist = link_distances(layout, layout)
    np.testing.assert_allclose(dist[0, 1:], spacing, rtol=1e-12)
    # every pair at least one lattice spacing apart
    for i in range(7):
        for j in range(i + 1, 7):
            assert dist[i, j] >= spacing - 1e-9


def test_hex_spiral_starts_at_center_without_duplicates():
    coords = _hex_spiral(19)
    assert coords[0] == (0, 0)
    assert len(set(coords)) == 19


def test_uniform_placement_stays_inside_the_disc():
    config = ScenarioConfig(num_cells=4, cell_radius_m=120.0,
                            user_altitude_range_m=(40.0, 90.0))
    layout = build_layout(config)
    real = place_users(config, layout, np.random.default_rng(0))
    assert real.user_positions.shape == (4, 3)
    for (ux, uy, uz), (bx, by, _) in zip(real.user_positions.tolist(),
                                         layout.tolist()):
        assert math.hypot(ux - bx, uy - by) <= 120.0 + 1e-9
        assert 40.0 <= uz <= 90.0


def test_cell_edge_placement_uses_the_outer_annulus():
    config = ScenarioConfig(num_cells=3, cell_radius_m=100.0,
                            user_placement="cell_edge")
    layout = build_layout(config)
    for seed in range(5):
        real = place_users(config, layout, np.random.default_rng(seed))
        for (ux, uy, _), (bx, by, _) in zip(real.user_positions.tolist(),
                                            layout.tolist()):
            horizontal = math.hypot(ux - bx, uy - by)
            assert 80.0 - 1e-9 <= horizontal <= 100.0 + 1e-9


def test_each_user_is_served_by_its_own_cell():
    # user l's signal is the power cell l alone sends it: the diagonal link
    env = NetworkEnv(EnvConfig(scenario=ScenarioConfig(num_cells=5)))
    env.reset(0)
    cells = np.arange(5)
    p = env.powers.watts()[env.tx.power_idx]
    np.testing.assert_array_equal(
        env.link_state().signal_w,
        p * env.gains[cells, cells, env.tx.beam_idx])


def test_los_matrix_shape_and_extremes():
    config = ScenarioConfig(num_cells=3, los_probability=1.0)
    real = place_users(config, build_layout(config), np.random.default_rng(1))
    assert real.los.shape == (3, 3) and real.los.dtype == np.bool_
    assert real.los.all()

    config = ScenarioConfig(num_cells=3, los_probability=0.0)
    real = place_users(config, build_layout(config), np.random.default_rng(1))
    assert not real.los.any()


def test_same_generator_state_reproduces_the_instance():
    config = ScenarioConfig(num_cells=4)
    layout = build_layout(config)
    a = place_users(config, layout, np.random.default_rng(42))
    b = place_users(config, layout, np.random.default_rng(42))
    np.testing.assert_array_equal(a.user_positions, b.user_positions)
    np.testing.assert_array_equal(a.los, b.los)

    c = place_users(config, layout, np.random.default_rng(43))
    assert not np.array_equal(a.user_positions, c.user_positions)


def test_realization_arrays_are_read_only():
    config = ScenarioConfig(num_cells=2)
    real = place_users(config, build_layout(config), np.random.default_rng(0))
    for arr in (real.los, real.bs_positions, real.user_positions):
        with pytest.raises(ValueError):
            arr[0, 0] = True


def test_config_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        ScenarioConfig(num_cells=0)
    with pytest.raises(ValueError):
        ScenarioConfig(cell_radius_m=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(user_altitude_range_m=(90.0, 40.0))
    with pytest.raises(ValueError):
        ScenarioConfig(user_placement="corner")
    with pytest.raises(ValueError):
        ScenarioConfig(los_probability=1.5)
