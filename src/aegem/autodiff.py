"""Dense float64 tensors with reverse-mode automatic differentiation.

Every neural operation in the pipeline (2-D convolutions, batch
normalization, scaled softmax, activations, the graph-convolution matmuls
and the training losses) is built on the :class:`Tensor` type defined
here.  The recorded operation graph is single-owner and consumed by one
:func:`backward` call; parameters are plain leaf tensors updated in place
by :class:`Adam`.

A 2-D convolution is one layout change plus GEMMs (im2col, Chellapilla
et al. 2006).  The padded [N,Cin,Hp,Wp] input is copied pixels-last to
(Cin, Hp, Wp, N), and the column matrix of shape (Cin*kh*kw, Ho*Wo*N)
is gathered from it: rows in weight order (c, u, v), pixels with the
batch innermost, so every copied run is Wo*N values long.  The forward
pass is `W.reshape(Cout, -1) @ cols`, the weights on the left: each
output value is then summed in the same order however many pixels a
call holds, which keeps strip inference bit-equal to the per-patch
encode (`cols.T @ W.T` breaks that by about 5e-15).  The output
stays pixels-last in memory behind an [N,Cout,Ho,Wo] view, and
:func:`pad2d` keeps that layout, so the next conv's copy is free.  The
weight gradient rebuilds the columns from the input rather than holding
them from the forward pass: they are kh*kw times the input, and a conv
node keeps only its padded input and its output until `backward`.  The
input gradient adds one (Cin x Cout) @ g product per tap into the
shifted window of a pixels-last buffer, never a kh*kw-times-larger
col2im matrix.
"""
from __future__ import annotations

import numpy as np

FINITE_CHECKS = True
_GRAD_ENABLED = True


class no_grad:
    """Context manager that skips recording ops (inference passes)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class NonFiniteError(FloatingPointError):
    """Raised when a forward op produces NaN or Inf."""


class TapeConsumedError(RuntimeError):
    """Raised when backward() is called twice on the same graph."""


def _check(data: np.ndarray, op: str) -> np.ndarray:
    if FINITE_CHECKS and not np.all(np.isfinite(data)):
        raise NonFiniteError(f"non-finite values produced by op '{op}'")
    return data


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjps", "_op", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._vjps: tuple = ()
        self._op = "leaf"
        self._consumed = False

    @classmethod
    def _from_op(cls, data, parents, vjps, op: str) -> "Tensor":
        """Record an op: `vjps[i]` maps the output gradient to parent i's."""
        out = cls(_check(np.asarray(data, dtype=np.float64), op))
        if not _GRAD_ENABLED:
            return out
        tracked = tuple((p, v) for p, v in zip(parents, vjps) if p.requires_grad or p._parents)
        if tracked:
            out.requires_grad = True
            out._parents = tuple(p for p, _ in tracked)
            out._vjps = tuple(v for _, v in tracked)
            out._op = op
        return out

    # -- basics -----------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        other = as_tensor(other)
        return Tensor._from_op(
            self.data + other.data,
            (self, other),
            (lambda g: _unbroadcast(g, self.shape), lambda g: _unbroadcast(g, other.shape)),
            "add",
        )

    __radd__ = __add__

    def __neg__(self):
        return Tensor._from_op(-self.data, (self,), (lambda g: -g,), "neg")

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        return Tensor._from_op(
            self.data * other.data,
            (self, other),
            (
                lambda g: _unbroadcast(g * other.data, self.shape),
                lambda g: _unbroadcast(g * self.data, other.shape),
            ),
            "mul",
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        return Tensor._from_op(
            self.data / other.data,
            (self, other),
            (
                lambda g: _unbroadcast(g / other.data, self.shape),
                lambda g: _unbroadcast(-g * self.data / other.data**2, other.shape),
            ),
            "div",
        )

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, p: float):
        return Tensor._from_op(
            self.data**p, (self,), (lambda g: g * p * self.data ** (p - 1),), "pow"
        )

    def __matmul__(self, other):
        other = as_tensor(other)
        return Tensor._from_op(
            self.data @ other.data,
            (self, other),
            (lambda g: g @ other.data.T, lambda g: self.data.T @ g),
            "matmul",
        )

    def __getitem__(self, idx):
        def vjp(g):
            buf = np.zeros_like(self.data)
            buf[idx] = g
            return buf

        return Tensor._from_op(self.data[idx], (self,), (vjp,), "getitem")

    # -- reductions / shape ops -------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        def vjp(g):
            if axis is None:
                return np.full_like(self.data, g)
            gg = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(gg, self.shape).copy()

        return Tensor._from_op(self.data.sum(axis=axis, keepdims=keepdims), (self,), (vjp,), "sum")

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor._from_op(
            self.data.reshape(shape), (self,), (lambda g: g.reshape(self.shape),), "reshape"
        )


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# -- elementwise functions --------------------------------------------------

def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)
    return Tensor._from_op(y, (x,), (lambda g: g * y,), "exp")


def log(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(x.data)
    return Tensor._from_op(y, (x,), (lambda g: g / x.data,), "log")


def sqrt(x: Tensor) -> Tensor:
    y = np.sqrt(x.data)
    return Tensor._from_op(y, (x,), (lambda g: g * 0.5 / y,), "sqrt")


def relu(x: Tensor) -> Tensor:
    # gradient at exactly 0 is 0
    mask = x.data > 0
    return Tensor._from_op(np.where(mask, x.data, 0.0), (x,), (lambda g: g * mask,), "relu")


def leaky_relu(x: Tensor, alpha: float = 0.01) -> Tensor:
    slope = np.where(x.data > 0, 1.0, alpha)
    return Tensor._from_op(x.data * slope, (x,), (lambda g: g * slope,), "leaky_relu")


def sigmoid(x: Tensor) -> Tensor:
    y = np.empty_like(x.data)
    pos = x.data >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    y[~pos] = ex / (1.0 + ex)
    return Tensor._from_op(y, (x,), (lambda g: g * y * (1.0 - y),), "sigmoid")


def softplus(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))
    sig = 1.0 / (1.0 + np.exp(-np.abs(x.data)))
    sig = np.where(x.data >= 0, sig, 1.0 - sig)
    return Tensor._from_op(y, (x,), (lambda g: g * sig,), "softplus")


def arccos(x: Tensor, clip_eps: float = 1e-7) -> Tensor:
    """arccos of the input clamped into [-1+eps, 1-eps].

    The clamp keeps the gradient finite when a cosine similarity
    saturates at +/-1; outside the clamp the gradient is 0.
    """
    u = np.clip(x.data, -1.0 + clip_eps, 1.0 - clip_eps)
    inside = (x.data > -1.0 + clip_eps) & (x.data < 1.0 - clip_eps)
    grad_u = np.where(inside, -1.0 / np.sqrt(1.0 - u**2), 0.0)
    return Tensor._from_op(np.arccos(u), (x,), (lambda g: g * grad_u,), "arccos")


def scaled_softmax(x: Tensor, scale: float, axis: int = -1) -> Tensor:
    """Softmax of scale*x along `axis`, max-shifted for stability."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    t = scale * x.data
    t = t - t.max(axis=axis, keepdims=True)
    e = np.exp(t)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return scale * y * (g - (g * y).sum(axis=axis, keepdims=True))

    return Tensor._from_op(y, (x,), (vjp,), "scaled_softmax")


# -- convolution -------------------------------------------------------------

def pad2d(x: Tensor, ph: int, pw: int) -> Tensor:
    """Zero-pad the two trailing spatial axes of an [N,C,H,W] tensor.

    The result keeps the input's memory layout, so a conv output stored
    batch-innermost stays batch-innermost through padding.
    """
    if ph == 0 and pw == 0:
        return x
    n, c, h, w = x.shape
    out = np.zeros_like(x.data, shape=(n, c, h + 2 * ph, w + 2 * pw))
    out[:, :, ph : ph + h, pw : pw + w] = x.data

    def vjp(g):
        return g[:, :, ph : ph + h, pw : pw + w]

    return Tensor._from_op(out, (x,), (vjp,), "pad2d")


def _pixels_last(x: np.ndarray) -> np.ndarray:
    """[N,C,H,W] -> a C-contiguous (C, H, W, N) array (a view if already so)."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0))


def _columns(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """im2col of an [N,Cin,Hp,Wp] array: (Cin*kh*kw, Ho*Wo*N), C-contiguous.

    Row (c, u, v) holds x[:, c, i+u, j+v] for every output pixel (i, j),
    batch innermost, so each copied run is Wo*N values long.  A 1x1
    kernel of a pixels-last input copies nothing.
    """
    xt = _pixels_last(x)
    cin, hp, wp, n = xt.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    # (Cin, kh, kw, N, Ho, Wo) view: window (u, v) is the input shifted by (u, v)
    shifted = np.lib.stride_tricks.sliding_window_view(xt, (ho, wo), axis=(1, 2))
    cols = np.ascontiguousarray(shifted.transpose(0, 1, 2, 4, 5, 3))
    return cols.reshape(cin * kh * kw, ho * wo * n)


def _conv2d_valid(x: Tensor, w: Tensor) -> Tensor:
    n, cin, hp, wp = x.shape
    cout, _, kh, kw = w.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    out = w.data.reshape(cout, -1) @ _columns(x.data, kh, kw)
    out = out.reshape(cout, ho, wo, n).transpose(3, 0, 1, 2)

    def vjp_x(g):
        g = _pixels_last(g).reshape(cout, -1)
        taps = w.data.transpose(2, 3, 1, 0).copy()  # (kh, kw, Cin, Cout)
        gx = np.zeros((cin, hp, wp, n))
        for u in range(kh):
            for v in range(kw):
                gx[:, u : u + ho, v : v + wo] += (taps[u, v] @ g).reshape(cin, ho, wo, n)
        return gx.transpose(3, 0, 1, 2)

    def vjp_w(g):
        g = _pixels_last(g).reshape(cout, -1)
        return (g @ _columns(x.data, kh, kw).T).reshape(w.shape)

    return Tensor._from_op(out, (x, w), (vjp_x, vjp_w), "conv2d")


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, padding: str = "same") -> Tensor:
    """Cross-correlation of [N,Cin,H,W] input with [Cout,Cin,kh,kw] weights.

    padding="same" zero-fills (k-1)/2 on each side; kernels must be odd.
    The result is `W.reshape(Cout, -1) @ cols` for the (Cin*kh*kw, Ho*Wo*N)
    column matrix of the padded input, batch innermost, returned as an
    [N,Cout,Ho,Wo] view of pixels-last memory.  With the weights on the
    left every output sums its taps in one order at any batch or strip
    size.  The columns are rebuilt for the weight gradient, not held
    until `backward`, where kh*kw copies of the input would pile up per
    layer.  The module docstring gives the whole layout.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d expects 4-D input and weights, got {x.shape} and {w.shape}")
    cout, cin, kh, kw = w.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"kernel sides must be odd, got {kh}x{kw}")
    if x.shape[1] != cin:
        raise ValueError(f"input has {x.shape[1]} channels, weights expect {cin}")
    if padding == "same":
        x = pad2d(x, (kh - 1) // 2, (kw - 1) // 2)
    elif padding != "valid":
        raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
    if x.shape[2] < kh or x.shape[3] < kw:
        raise ValueError(f"input {x.shape[2]}x{x.shape[3]} smaller than kernel {kh}x{kw}")
    out = _conv2d_valid(x, w)
    if b is not None:
        if b.shape != (cout,):
            raise ValueError(f"bias shape {b.shape} does not match {cout} output channels")
        out = out + b.reshape(1, cout, 1, 1)
    return out


def sparse_matmul(op, x: Tensor, op_t) -> Tensor:
    """Multiply a fixed scipy sparse matrix with a differentiable dense tensor.

    `op_t` is `op`'s transpose, built once by the caller for the VJP.
    """
    return Tensor._from_op(op @ x.data, (x,), (lambda g: op_t @ g,), "sparse_matmul")


# -- batch normalization ------------------------------------------------------

class BatchNormState:
    """Per-channel learnable scale/shift plus running statistics."""

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = momentum
        self.eps = eps

    def parameters(self) -> list[Tensor]:
        return [self.gamma, self.beta]


def batch_norm(x: Tensor, state: BatchNormState, train: bool) -> Tensor:
    """Normalize [N,C,H,W] per channel; train mode updates running stats."""
    c = x.shape[1]
    if c != state.gamma.size:
        raise ValueError(f"input has {c} channels, state has {state.gamma.size}")
    gamma = state.gamma.reshape(1, c, 1, 1)
    beta = state.beta.reshape(1, c, 1, 1)
    if train:
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=(0, 2, 3), keepdims=True)
        m = state.momentum
        state.running_mean = (1 - m) * state.running_mean + m * mu.data.reshape(c)
        state.running_var = (1 - m) * state.running_var + m * var.data.reshape(c)
        return xc / sqrt(var + state.eps) * gamma + beta
    rm = Tensor(state.running_mean.reshape(1, c, 1, 1))
    rv = Tensor(state.running_var.reshape(1, c, 1, 1))
    return (x - rm) / sqrt(rv + state.eps) * gamma + beta


# -- backward pass ------------------------------------------------------------

def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep from a scalar loss.

    Returns the gradient for every reachable tensor with requires_grad
    (also stored on each tensor's .grad).  The recorded graph is freed and
    cannot be swept twice.
    """
    if loss.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    if loss._consumed:
        raise TapeConsumedError("backward() already called on this graph")

    topo: list[Tensor] = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    result: dict[Tensor, np.ndarray] = {}
    while topo:  # popping frees each activation once its VJPs have run
        node = topo.pop()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and not node._parents:
            node.grad = g
            result[node] = g
        for parent, vjp in zip(node._parents, node._vjps):
            pg = vjp(g)
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pg
            else:
                grads[id(parent)] = pg
        node._parents = ()
        node._vjps = ()
    loss._consumed = True
    return result


# -- optimizer ----------------------------------------------------------------

class Adam:
    """Adam with bias correction; updates parameter data in place."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            g = grads.get(p)
            if g is None:
                continue
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1**t)
            v_hat = self.v[i] / (1 - self.beta2**t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def glorot_uniform(shape: tuple, fan_in: int, fan_out: int, rng) -> Tensor:
    """Weight tensor initialized uniform in +/-sqrt(6/(fan_in+fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, shape), requires_grad=True)
