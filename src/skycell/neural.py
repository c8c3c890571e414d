"""Minimal neural toolkit: MLP, Adam, replay memory, the weight payload.

Everything is plain numpy in float64. Networks are ReLU-hidden,
identity-output perceptrons holding all their parameters in one flat vector;
gradients come from hand-written reverse-mode passes in the same layout.
This is deliberately small: just enough machinery to train the value and
policy networks used elsewhere in the package.
"""

from __future__ import annotations

import struct
import threading
from collections import namedtuple

import numpy as np

_MAGIC = b"NNP1"


def layer_views(flat: np.ndarray, widths) -> list:
    """[W0, b0, W1, b1, ...] as reshaped views of one flat parameter vector."""
    out = []
    off = 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        out.append(flat[off:off + fan_out * fan_in].reshape(fan_out, fan_in))
        off += fan_out * fan_in
        out.append(flat[off:off + fan_out])
        off += fan_out
    return out


class Mlp:
    """Fully connected net; weights[i] has shape (fan_out, fan_in).

    Every weight and bias is a view of one contiguous float64 vector,
    parameters(), laid out W0, b0, W1, b1, ... in row-major order.
    """

    def __init__(self, widths, rng: np.random.Generator = None):
        widths = tuple(int(w) for w in widths)
        if len(widths) < 2 or min(widths) < 1:
            raise ValueError("widths needs at least an input and an output size")
        self.widths = widths
        self._params = np.zeros(sum(o * i + o for i, o in zip(widths[:-1],
                                                              widths[1:])))
        views = layer_views(self._params, widths)
        self.weights = views[0::2]
        self.biases = views[1::2]
        if rng is not None:
            for w in self.weights:
                # scaled for ReLU so activation variance survives depth
                w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[1])

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> np.ndarray:
        return self._params

    def copy_from(self, other: "Mlp") -> None:
        self._params[...] = other._params

    def clone(self) -> "Mlp":
        twin = Mlp(self.widths)
        twin.copy_from(self)
        return twin


def forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Network output; accepts a single (in,) vector or a (batch, in) matrix."""
    single = np.ndim(x) == 1
    a = np.atleast_2d(np.asarray(x, np.float64))
    if a.shape[1] != net.widths[0]:
        raise ValueError(f"input width {a.shape[1]} does not match net "
                         f"input {net.widths[0]}")
    for k in range(net.num_layers):
        a = a @ net.weights[k].T + net.biases[k]
        if k < net.num_layers - 1:
            a = np.maximum(a, 0.0)
    return a[0] if single else a


def forward_cached(net: Mlp, x: np.ndarray):
    """Forward pass keeping pre-activations for a later backward pass."""
    a = np.atleast_2d(np.asarray(x, np.float64))
    pre = []
    post = [a]
    for k in range(net.num_layers):
        z = a @ net.weights[k].T + net.biases[k]
        pre.append(z)
        a = np.maximum(z, 0.0) if k < net.num_layers - 1 else z
        post.append(a)
    return a, (pre, post)


def backward_from_cache(net: Mlp, cache, upstream: np.ndarray) -> np.ndarray:
    """Parameter gradients given dLoss/dOutput from a cached forward.

    Returns one vector in the layout of net.parameters().
    """
    pre, post = cache
    g = np.atleast_2d(np.asarray(upstream, np.float64))
    grads = np.empty_like(net.parameters())
    views = layer_views(grads, net.widths)
    for k in range(net.num_layers - 1, -1, -1):
        views[2 * k][...] = g.T @ post[k]
        views[2 * k + 1][...] = g.sum(axis=0)
        if k > 0:
            g = (g @ net.weights[k]) * (pre[k - 1] > 0.0)
    return grads


def backward(net: Mlp, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradients of sum(upstream * output) w.r.t. every parameter.

    Runs its own forward pass; the layout matches net.parameters(). upstream
    is dLoss/dOutput with the same leading shape as x.
    """
    _, cache = forward_cached(net, x)
    return backward_from_cache(net, cache, upstream)


def input_gradient(net: Mlp, cache, upstream: np.ndarray) -> np.ndarray:
    """dLoss/dInput, (batch, in), given dLoss/dOutput from a cached forward."""
    pre, _ = cache
    g = np.atleast_2d(np.asarray(upstream, np.float64))
    for k in range(net.num_layers - 1, 0, -1):
        g = (g @ net.weights[k]) * (pre[k - 1] > 0.0)
    return g @ net.weights[0]


class AdamState:
    """First and second moment accumulators for one parameter vector."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)


def adam_step(state: AdamState, params: np.ndarray,
              grads: np.ndarray) -> np.ndarray:
    """One bias-corrected Adam update, applied to params in place."""
    if np.shape(params) != state.m.shape or np.shape(grads) != state.m.shape:
        raise ValueError("parameter vector does not match optimizer state")
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * grads
    v *= state.beta2
    v += (1.0 - state.beta2) * (grads * grads)
    params -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return params


def huber(err: np.ndarray, delta: float = 1.0):
    """Value and derivative of the Huber loss, elementwise."""
    err = np.asarray(err, np.float64)
    small = np.abs(err) <= delta
    value = np.where(small, 0.5 * err * err, delta * (np.abs(err) - 0.5 * delta))
    grad = np.clip(err, -delta, delta)
    return value, grad


Batch = namedtuple("Batch", "states actions rewards next_states dones")


class ReplayBuffer:
    """Fixed-capacity ring buffer of transitions, safe for concurrent use."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._states = None
        self._actions = None
        self._rewards = np.empty(capacity, np.float64)
        self._next_states = None
        self._dones = np.empty(capacity, np.bool_)
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        with self._lock:
            return self._size

    def push(self, state, action, reward, next_state, done) -> None:
        state = np.asarray(state, np.float64)
        action = np.asarray(action)
        next_state = np.asarray(next_state, np.float64)
        with self._lock:
            if self._states is None:
                self._states = np.empty((self.capacity,) + state.shape, np.float64)
                self._next_states = np.empty_like(self._states)
                self._actions = np.empty((self.capacity,) + action.shape,
                                         action.dtype)
            i = self._cursor
            self._states[i] = state
            self._actions[i] = action
            self._rewards[i] = reward
            self._next_states[i] = next_state
            self._dones[i] = done
            self._cursor = (i + 1) % self.capacity
            self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        """Uniform minibatch without replacement; needs batch_size stored items."""
        with self._lock:
            if self._size < 1:
                raise ValueError("cannot sample from an empty buffer")
            if batch_size > self._size:
                raise ValueError(f"cannot draw {batch_size} distinct transitions "
                                 f"from {self._size} stored")
            idx = rng.choice(self._size, size=batch_size, replace=False)
            return Batch(self._states[idx].copy(), self._actions[idx].copy(),
                         self._rewards[idx].copy(), self._next_states[idx].copy(),
                         self._dones[idx].copy())


# ---------------------------------------------------------------------------
# weight files: magic, array count, per-array rank and dims, float64 payload,
# everything little-endian


def pack_params(arrays) -> bytes:
    """Encode arrays of one or more dimensions into the self-delimiting
    weight payload."""
    arrays = [np.asarray(a, np.float64) for a in arrays]
    if any(a.ndim == 0 for a in arrays):
        raise ValueError("weight arrays must have at least one dimension")
    parts = [_MAGIC, struct.pack("<I", len(arrays))]
    for a in arrays:
        parts.append(struct.pack("<I", a.ndim))
        parts.append(struct.pack(f"<{a.ndim}Q", *a.shape))
        parts.append(a.astype("<f8").tobytes())
    return b"".join(parts)


def unpack_params(blob: bytes) -> list:
    if blob[:4] != _MAGIC:
        raise ValueError("not a recognized weight file (bad magic bytes)")
    off = 4
    try:
        (count,) = struct.unpack_from("<I", blob, off)
        off += 4
        out = []
        for _ in range(count):
            (ndim,) = struct.unpack_from("<I", blob, off)
            off += 4
            shape = struct.unpack_from(f"<{ndim}Q", blob, off)
            off += 8 * ndim
            n = int(np.prod(shape)) if ndim else 1
            a = np.frombuffer(blob, "<f8", count=n, offset=off).reshape(shape)
            off += 8 * n
            out.append(a.copy())
    except struct.error as exc:
        raise ValueError("truncated weight file") from exc
    if off != len(blob):
        raise ValueError("trailing bytes after weight payload")
    return out
