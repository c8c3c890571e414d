"""Channel model: steering vectors, loss laws, small-scale statistics."""

import itertools
import math

import numpy as np
import pytest

from helpers import reference_network_channels
from skycell.channel import (ChannelSet, PathLossParams, array_response,
                             link_distances, path_loss_db,
                             realize_network_channels)
from skycell.scenario import (ScenarioConfig, ScenarioRealization,
                              build_layout, place_users)


def _one_link(bs, user, los):
    return ScenarioRealization(config=ScenarioConfig(num_cells=1),
                               bs_positions=np.array([bs], np.float64),
                               user_positions=np.array([user], np.float64),
                               los=np.array([[los]]))


def _link_channel(real, num_antennas, rng, num_nlos_paths=3):
    return realize_network_channels(real, num_antennas, PathLossParams(), rng,
                                    num_nlos_paths).h[0, 0]


def test_array_response_matches_phase_law():
    assert array_response(0.3, 1).tolist() == [1.0 + 0.0j]
    np.testing.assert_array_equal(array_response(0.0, 4), np.ones(4))
    # sin(pi/2) = 1 gives alternating signs exp(i pi m)
    a = array_response(math.pi / 2.0, 4)
    np.testing.assert_allclose(a, [1, -1, 1, -1], atol=1e-12)
    for theta in (-1.2, -0.4, 0.7):
        a = array_response(theta, 8)
        np.testing.assert_allclose(np.abs(a), 1.0, rtol=1e-12)
        m = np.arange(8)
        np.testing.assert_allclose(a, np.exp(1j * math.pi * m * math.sin(theta)),
                                   rtol=1e-12)
    # an array of angles maps to a trailing antenna axis, row by row
    thetas = np.random.default_rng(0).uniform(-math.pi, math.pi, (3, 2))
    a = array_response(thetas, 5)
    assert a.shape == (3, 2, 5)
    for i, j in itertools.product(range(3), range(2)):
        np.testing.assert_array_equal(a[i, j], array_response(thetas[i, j], 5))


def test_path_loss_reference_points():
    params = PathLossParams()
    np.testing.assert_allclose(path_loss_db(100.0, True, params), 101.4)
    np.testing.assert_allclose(path_loss_db(100.0, False, params), 130.4)
    np.testing.assert_allclose(path_loss_db(1.0, True, params), 61.4)
    np.testing.assert_allclose(path_loss_db(1.0, False, params), 72.0)


def test_path_loss_clamps_below_one_meter():
    params = PathLossParams()
    assert path_loss_db(0.25, True, params) == path_loss_db(1.0, True, params)
    assert path_loss_db(0.25, False, params) == path_loss_db(1.0, False, params)


def test_los_link_is_a_scaled_steering_vector():
    params = PathLossParams()
    real = _one_link((0.0, 0.0, 25.0), (60.0, 80.0, 75.0), True)
    h = _link_channel(real, 6, np.random.default_rng(0))
    d = link_distances(real.bs_positions, real.user_positions)[0, 0]
    assert d == math.sqrt(60.0 ** 2 + 80.0 ** 2 + 50.0 ** 2)
    g = 10.0 ** (-path_loss_db(d, True, params) / 10.0)
    azimuth = math.atan2(80.0, 60.0)
    np.testing.assert_allclose(h, math.sqrt(g) * array_response(azimuth, 6),
                               rtol=1e-12)
    np.testing.assert_allclose(np.abs(h), math.sqrt(g), rtol=1e-12)


def test_nlos_energy_concentrates_at_gain_times_antennas():
    params = PathLossParams()
    real = _one_link((0.0, 0.0, 25.0), (150.0, 0.0, 90.0), False)
    d = link_distances(real.bs_positions, real.user_positions)[0, 0]
    g = 10.0 ** (-path_loss_db(d, False, params) / 10.0)
    m = 4
    rng = np.random.default_rng(7)
    energies = [np.vdot(h, h).real for h in
                (_link_channel(real, m, rng) for _ in range(4000))]
    np.testing.assert_allclose(np.mean(energies), m * g, rtol=0.05)


def test_single_scattered_path_keeps_flat_magnitude():
    real = _one_link((0.0, 0.0, 25.0), (90.0, 10.0, 60.0), False)
    h = _link_channel(real, 5, np.random.default_rng(3), num_nlos_paths=1)
    np.testing.assert_allclose(np.abs(h), np.abs(h[0]), rtol=1e-12)


@pytest.mark.parametrize("num_cells", [1, 2, 3, 5, 7])
def test_channels_match_the_per_link_oracle(num_cells):
    # every byte of h and the generator state after the draw equal the
    # per-link draw's, across LoS mixes, path counts and placements
    cases = itertools.product((0.0, 0.8, 1.0), (1, 3),
                              ("uniform", "cell_edge"), range(12))
    for los_p, paths, placement, seed in cases:
        config = ScenarioConfig(num_cells=num_cells, los_probability=los_p,
                                user_placement=placement)
        rng = np.random.default_rng(seed)
        real = place_users(config, build_layout(config), rng)
        num_antennas = 4 + 4 * (seed % 2)
        ref_rng = np.random.default_rng()
        ref_rng.bit_generator.state = rng.bit_generator.state
        got = realize_network_channels(real, num_antennas, PathLossParams(),
                                       rng, paths)
        want = reference_network_channels(real, num_antennas,
                                          PathLossParams(), ref_rng, paths)
        np.testing.assert_array_equal(got.h, want.h)
        assert got.h.tobytes() == want.h.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_network_channels_shape_and_determinism():
    config = ScenarioConfig(num_cells=3)
    layout = build_layout(config)
    real = place_users(config, layout, np.random.default_rng(5))
    a = realize_network_channels(real, 4, PathLossParams(),
                                 np.random.default_rng(9))
    b = realize_network_channels(real, 4, PathLossParams(),
                                 np.random.default_rng(9))
    assert a.h.shape == (3, 3, 4)
    np.testing.assert_array_equal(a.h, b.h)
    assert a.num_cells == 3 and a.num_antennas == 4


def test_all_los_network_uses_deterministic_links():
    config = ScenarioConfig(num_cells=2, los_probability=1.0)
    layout = build_layout(config)
    real = place_users(config, layout, np.random.default_rng(11))
    # with every link LoS no small-scale randomness remains
    a = realize_network_channels(real, 4, PathLossParams(),
                                 np.random.default_rng(1))
    b = realize_network_channels(real, 4, PathLossParams(),
                                 np.random.default_rng(2))
    np.testing.assert_array_equal(a.h, b.h)


def test_channel_set_validation_and_write_protection():
    with pytest.raises(ValueError):
        ChannelSet(h=np.zeros((2, 3, 4), np.complex128))
    with pytest.raises(ValueError):
        ChannelSet(h=np.zeros((2, 2), np.complex128))
    cs = ChannelSet(h=np.zeros((2, 2, 4), np.complex128))
    with pytest.raises(ValueError):
        cs.h[0, 0, 0] = 1.0
