"""Neural toolkit: exact gradients, optimizer behavior, replay, weight files."""

from types import SimpleNamespace

import numpy as np
import pytest

from helpers import grad_check, reference_adam_step
from skycell import neural


def test_mlp_validation_and_zero_init():
    with pytest.raises(ValueError):
        neural.Mlp((4,))
    with pytest.raises(ValueError):
        neural.Mlp((4, 0, 2))
    net = neural.Mlp((3, 2))
    assert net.parameters().shape == (8,)
    assert np.all(net.parameters() == 0.0)


def test_mlp_he_scale():
    rng = np.random.default_rng(0)
    net = neural.Mlp((64, 256), rng)
    np.testing.assert_allclose(net.weights[0].std(), np.sqrt(2.0 / 64),
                               rtol=0.1)


def test_forward_linear_oracle():
    net = neural.Mlp((3, 2))
    net.weights[0][...] = [[1.0, 0.0, -1.0], [2.0, 1.0, 0.0]]
    net.biases[0][...] = [0.5, -0.5]
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(neural.forward(net, x), [-1.5, 3.5])
    batch = neural.forward(net, np.stack([x, 2 * x]))
    np.testing.assert_allclose(batch, [[-1.5, 3.5], [-3.5, 7.5]])
    with pytest.raises(ValueError):
        neural.forward(net, np.ones(4))


def test_relu_applies_to_hidden_layers_only():
    net = neural.Mlp((1, 2, 1))
    net.weights[0][...] = [[1.0], [-1.0]]
    net.weights[1][...] = [[1.0, 1.0]]
    net.biases[1][...] = [-5.0]
    # hidden = relu([x, -x]); output = relu(x) + relu(-x) - 5 = |x| - 5
    for x in (-2.0, 3.0):
        np.testing.assert_allclose(neural.forward(net, np.array([x])),
                                   [abs(x) - 5.0])


def test_backward_single_linear_layer_squared_loss():
    net = neural.Mlp((3, 1))
    rng = np.random.default_rng(1)
    net.weights[0][...] = rng.standard_normal((1, 3))
    net.biases[0][...] = rng.standard_normal(1)
    x = np.array([0.7, -1.2, 0.4])
    target = 2.0
    y = neural.forward(net, x)[0]
    upstream = np.array([2.0 * (y - target)])
    grads = neural.backward(net, x, upstream)
    assert grads.shape == net.parameters().shape
    np.testing.assert_allclose(grads, [*(2.0 * (y - target) * x),
                                       2.0 * (y - target)], rtol=1e-12)


def _sq_loss(target):
    def loss(y):
        diff = y - target
        return 0.5 * float(np.sum(diff * diff)), diff
    return loss


def test_grad_check_linear_net_is_tight():
    rng = np.random.default_rng(2)
    net = neural.Mlp((4, 3), rng)
    x = rng.standard_normal(4)
    result = grad_check(net, _sq_loss(rng.standard_normal(3)), x)
    assert result.max_rel_error <= 1e-7


def test_grad_check_three_layer_rectifier_net():
    rng = np.random.default_rng(3)
    net = neural.Mlp((5, 16, 16, 3), rng)
    x = rng.standard_normal(5)
    result = grad_check(net, _sq_loss(rng.standard_normal(3)), x,
                               epsilon=1e-5)
    assert result.max_rel_error <= 1e-4
    # the report locates a real parameter coordinate
    assert 0 <= result.worst_index < net.parameters().size


def test_grad_check_flags_a_corrupted_gradient():
    rng = np.random.default_rng(4)
    net = neural.Mlp((3, 2), rng)

    def bad_loss(y):
        diff = y - 1.0
        return 0.5 * float(np.sum(diff * diff)), 2.0 * diff  # doubled slope

    result = grad_check(net, bad_loss, rng.standard_normal(3))
    assert result.max_rel_error > 0.3


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    net = neural.Mlp((4, 8, 2), rng)
    x = rng.standard_normal(4)
    upstream = rng.standard_normal(2)
    _, cache = neural.forward_cached(net, x)
    g = neural.input_gradient(net, cache, upstream)[0]
    eps = 1e-6
    for i in range(4):
        bumped = x.copy()
        bumped[i] += eps
        up = float(np.dot(upstream, neural.forward(net, bumped)))
        bumped[i] -= 2 * eps
        dn = float(np.dot(upstream, neural.forward(net, bumped)))
        np.testing.assert_allclose(g[i], (up - dn) / (2 * eps), rtol=1e-5,
                                   atol=1e-9)


def test_adam_with_zero_betas_is_normalized_sgd():
    params = np.array([1.0, -2.0, 3.0])
    grads = np.array([0.5, -4.0, 1e-3])
    state = neural.AdamState(params, lr=0.01, beta1=0.0, beta2=0.0)
    before = params.copy()
    neural.adam_step(state, params, grads)
    np.testing.assert_allclose(before - params, 0.01 * np.sign(grads),
                               rtol=1e-4)


def test_adam_descends_a_parabola():
    # strict decrease holds until the iterate enters the lr-sized neighborhood
    # of the optimum (step 11 from w=1 at lr=0.1); momentum then overshoots
    # zero, so the tail is only required to stay small
    params = np.array([1.0])
    state = neural.AdamState(params, lr=0.1)
    history = [abs(params[0])]
    for _ in range(25):
        neural.adam_step(state, params, 2.0 * params)
        history.append(abs(params[0]))
    assert all(b < a for a, b in zip(history[:10], history[1:11]))
    assert min(history) < 0.01
    assert max(history[11:]) < 0.3


def test_adam_step_equals_the_plain_formula_bit_for_bit():
    rng = np.random.default_rng(4)
    net = neural.Mlp((10, 128, 128, 16), rng)
    params = net.parameters()
    twin = params.copy()
    state = neural.AdamState(params, lr=3e-3)
    ref = SimpleNamespace(lr=3e-3, beta1=0.9, beta2=0.999, eps=1e-8, t=0,
                          m=np.zeros_like(twin), v=np.zeros_like(twin))
    for _ in range(50):
        # gradients across scales, with exact zeros, as a network's have
        grads = rng.normal(size=params.shape) * 10.0 ** rng.uniform(-8, 2)
        grads[rng.random(params.shape) < 0.1] = 0.0
        assert neural.adam_step(state, params, grads) is params
        reference_adam_step(ref, twin, grads)
        assert state.t == ref.t
    np.testing.assert_array_equal(params, twin)
    np.testing.assert_array_equal(state.m, ref.m)
    np.testing.assert_array_equal(state.v, ref.v)


def test_adam_rejects_mismatched_parameter_lists():
    state = neural.AdamState(np.zeros(3))
    with pytest.raises(ValueError):
        neural.adam_step(state, np.zeros(5), np.zeros(5))
    with pytest.raises(ValueError):
        neural.adam_step(state, np.zeros(3), np.zeros(2))


def test_huber_value_and_slope():
    value, grad = neural.huber(np.array([0.5, 2.0, -2.0, 0.0]))
    np.testing.assert_allclose(value, [0.125, 1.5, 1.5, 0.0])
    np.testing.assert_allclose(grad, [0.5, 1.0, -1.0, 0.0])
    value, grad = neural.huber(np.array([3.0]), delta=2.0)
    np.testing.assert_allclose(value, [2.0 * (3.0 - 1.0)])
    np.testing.assert_allclose(grad, [2.0])


def _push_scalar(buf, value, done=False):
    buf.push(np.array([value]), np.int64(0), value, np.array([value + 0.5]),
             done)


def test_replay_keeps_exactly_the_last_capacity_items():
    buf = neural.ReplayBuffer(8)
    for i in range(13):
        _push_scalar(buf, float(i))
    assert len(buf) == 8
    batch = buf.sample(8, np.random.default_rng(0))
    assert sorted(batch.states[:, 0].tolist()) == [float(i) for i in range(5, 13)]
    # the batch arrays are copies, so a learner writing into them cannot
    # corrupt stored transitions
    stored = (buf._states, buf._actions, buf._rewards, buf._next_states,
              buf._dones)
    for values, store in zip(batch, stored):
        assert not np.shares_memory(values, store)


def test_replay_minibatch_has_no_duplicates():
    buf = neural.ReplayBuffer(64)
    for i in range(40):
        _push_scalar(buf, float(i))
    batch = buf.sample(16, np.random.default_rng(1))
    assert len(set(batch.states[:, 0].tolist())) == 16


def test_replay_rejects_empty_and_oversized_draws():
    buf = neural.ReplayBuffer(4)
    with pytest.raises(ValueError):
        buf.sample(1, np.random.default_rng(0))
    _push_scalar(buf, 1.0)
    with pytest.raises(ValueError):
        buf.sample(2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        neural.ReplayBuffer(0)


def test_weight_file_roundtrip_is_bitwise():
    rng = np.random.default_rng(6)
    arrays = [rng.standard_normal((3, 4)), rng.standard_normal(5),
              np.array([2.5]), rng.standard_normal((2, 2, 2))]
    loaded = neural.unpack_params(neural.pack_params(arrays))
    assert len(loaded) == 4
    for a, b in zip(arrays, loaded):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)


def test_weight_file_rejects_zero_dimensional_arrays():
    # a 0-d array would come back with shape (1,), so it is refused
    with pytest.raises(ValueError, match="at least one dimension"):
        neural.pack_params([np.ones(3), np.array(2.5)])


def test_weight_file_rejects_corruption():
    blob = neural.pack_params([np.ones((2, 2))])
    with pytest.raises(ValueError, match="bad magic"):
        neural.unpack_params(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        neural.unpack_params(blob[:-8])
    with pytest.raises(ValueError, match="truncated"):
        neural.unpack_params(blob[:10])
    with pytest.raises(ValueError, match="trailing bytes"):
        neural.unpack_params(blob + b"\x00")


def test_weights_and_biases_are_views_of_the_parameter_vector():
    rng = np.random.default_rng(9)
    net = neural.Mlp((4, 8, 2), rng)
    params = net.parameters()
    assert params.ndim == 1 and params.flags.c_contiguous
    assert params.size == 4 * 8 + 8 + 8 * 2 + 2
    for a in net.weights + net.biases:
        assert np.shares_memory(a, params)
    net.biases[1][...] = [3.0, -3.0]
    np.testing.assert_array_equal(params[-2:], [3.0, -3.0])
    params[:32] = 0.5
    assert np.all(net.weights[0] == 0.5)
    # gradients share the layout: the last entries are the output biases
    grads = neural.backward(net, rng.standard_normal((3, 4)), np.ones((3, 2)))
    np.testing.assert_array_equal(grads[-2:], [3.0, 3.0])


def test_clone_is_a_deep_copy():
    rng = np.random.default_rng(8)
    net = neural.Mlp((3, 3), rng)
    twin = net.clone()
    assert np.array_equal(twin.parameters(), net.parameters())
    assert not np.shares_memory(twin.parameters(), net.parameters())
    twin.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != twin.weights[0][0, 0]
