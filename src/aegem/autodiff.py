"""Dense float64 tensors with reverse-mode automatic differentiation.

Every neural operation in the pipeline (2-D convolutions, batch
normalization, scaled softmax, activations, the graph-convolution matmuls,
the GCN's fused hidden layer and the training losses) is built on the
:class:`Tensor` type defined here.  The recorded operation graph is
single-owner and consumed by one :func:`backward` call; parameters are
plain leaf tensors updated in place by :class:`Adam`.

A 2-D convolution is one layout change plus GEMMs (im2col, Chellapilla
et al. 2006).  The unpadded [N,Cin,H,W] input is copied pixels-last to
(Cin, H, W, N), and the column matrix of shape (Cin*kh*kw, Ho*Wo*N) of
the zero-padded input is gathered from it: rows in weight order
(c, u, v), pixels with the batch innermost, so every copied run is Wo*N
values long.  The conv owns its padding: the columns come in blocks of
whole output rows, each zero-filling only the rows it reads, and no
padded copy of the input is ever made.  A block holds at most
`_COLUMN_BLOCK_BYTES` (16 MiB), or one row if a row is larger: the
default autoencoder's first layer on a batch of 64 9x9 Samson patches
has 162 MB of columns: built whole, that matrix would be mapped fresh
and page-faulted in for the forward pass and again for the weight
gradient, while blocks under glibc's 32 MiB mmap ceiling are recycled
through the heap.  The forward pass
is `W.reshape(Cout, -1) @ cols` per block, the weights on the left:
each output value is then summed in the same order however many pixels
a call or a block holds, as far as the GEMM computes a column the same
way at any column count (see `conv2d`).  This keeps strip
inference bit-equal to the per-patch encode (`cols.T @ W.T` breaks that
by about 5e-15).  The output stays pixels-last in memory behind an
[N,Cout,Ho,Wo] view, so the next conv's layout copy is free.  A conv
node holds only its unpadded input and its output until `backward`.
The weight gradient sums `g[:, block] @ cols.T` over the rebuilt column
blocks.  The input gradient is the transposed conv: the same blocked
correlation applied to g, zero-padded by (kh-1-ph, kw-1-pw), with the
kernel flipped and Cin and Cout swapped, so it is one GEMM with
K = Cout*kh*kw that lands directly on the unpadded input.

`patch_conv` is the same same-padded conv for patches cut from one
fixed image, as the autoencoder's first layer sees them in training.
Overlapping patches hold the same pixels, so it computes each distinct
pixel's tap projections once, `pixels @ W_taps` with W_taps the
(Cin, kh*kw*Cout) weights, and sums them into patch pixels with a fixed
0/1 sparse tap operator: the dense scanning of Giusti et al. 2013 for
the one layer whose input every patch shares.  Its output and weight
gradient match `conv2d` on the gathered patches to round-off.
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
            np.add.at(buf, idx, g)  # an index repeated in idx sums its gradients
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

# Cap on one block of a conv's column matrix, in bytes; a block holds at
# least one output row.  It sits below glibc's 32 MiB mmap-threshold
# ceiling, so a freed block returns to the heap and the next block reuses
# that memory instead of mapping fresh pages and faulting them in again.
_COLUMN_BLOCK_BYTES = 16 * 2**20


def _pixels_last(x: np.ndarray) -> np.ndarray:
    """[N,C,H,W] -> a C-contiguous (C, H, W, N) array (a view if already so)."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0))


def _column_blocks(xt: np.ndarray, kh: int, kw: int, ph: int, pw: int):
    """im2col of pixels-last xt, zero-padded by (ph, pw), in blocks of output rows.

    xt is a C-contiguous (C, H, W, N) array.  Yields (span, cols) per block:
    cols is the C-contiguous (C*kh*kw, rows*Wo*N) column matrix of the
    block's output rows, and span slices those rows' pixels out of a
    (.., Ho*Wo*N) pixels-last matrix.  Row (c, u, v) of cols holds the
    padded x[c, i+u, j+v, :] for every output pixel (i, j), batch
    innermost, so each copied run is Wo*N values long.  A block is at most
    `_COLUMN_BLOCK_BYTES` (or one row), and only the caller holds it: a
    caller that drops it before asking for the next keeps one block alive.
    """
    c, h, w, n = xt.shape
    ho, wo = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1
    step = max(1, _COLUMN_BLOCK_BYTES // (c * kh * kw * wo * n * xt.itemsize))
    for i0 in range(0, ho, step):
        i1 = min(i0 + step, ho)
        yield slice(i0 * wo * n, i1 * wo * n), _block_columns(xt, kh, kw, ph, pw, i0, i1)


def _block_columns(xt: np.ndarray, kh: int, kw: int, ph: int, pw: int,
                   i0: int, i1: int) -> np.ndarray:
    """Columns of output rows i0..i1-1 (see `_column_blocks`); 1x1 copies nothing."""
    c, h, w, n = xt.shape
    if kh == kw == 1:
        return xt[:, i0:i1].reshape(c, -1)
    # padded input rows r0 .. r1-1 are the ones these output rows read
    r0, r1 = i0 - ph, i1 + kh - 1 - ph
    if pw == 0 and r0 >= 0 and r1 <= h:
        rows = xt[:, r0:r1]
    else:
        lo, hi = max(r0, 0), min(r1, h)
        rows = np.zeros((c, r1 - r0, w + 2 * pw, n))
        rows[:, lo - r0 : hi - r0, pw : pw + w] = xt[:, lo:hi]
    # (C, kh, kw, N, rows, Wo) view: window (u, v) is the slab shifted by (u, v)
    shifted = np.lib.stride_tricks.sliding_window_view(rows, (i1 - i0, w + 2 * pw - kw + 1),
                                                       axis=(1, 2))
    return np.ascontiguousarray(shifted.transpose(0, 1, 2, 4, 5, 3)).reshape(c * kh * kw, -1)


def _correlate(xt: np.ndarray, wmat: np.ndarray, kh: int, kw: int, ph: int, pw: int
               ) -> np.ndarray:
    """(Cout, Ho, Wo, N) correlation of pixels-last xt, zero-padded by (ph, pw),
    with the (Cout, C*kh*kw) weight matrix: `wmat @ cols` per column block."""
    _, h, w, n = xt.shape
    out = np.empty((wmat.shape[0], h + 2 * ph - kh + 1, w + 2 * pw - kw + 1, n))
    flat = out.reshape(wmat.shape[0], -1)
    for span, cols in _column_blocks(xt, kh, kw, ph, pw):
        np.matmul(wmat, cols, out=flat[:, span])
        del cols  # free this block before the next one is built
    return out


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, padding: str = "same") -> Tensor:
    """Cross-correlation of [N,Cin,H,W] input with [Cout,Cin,kh,kw] weights.

    padding="same" zero-fills (k-1)/2 on each side; kernels must be odd.
    The conv owns its padding: the input is never padded as a whole, each
    column block zero-fills only the rows it reads.  The result is
    `W.reshape(Cout, -1) @ cols` per block of whole output rows of the
    (Cin*kh*kw, Ho*Wo*N) column matrix, batch innermost, returned as an
    [N,Cout,Ho,Wo] view of pixels-last memory.  With the weights on the
    left every output sums its taps in one order at any batch, strip or
    block size, provided the GEMM computes a column alike at any column
    count.  OpenBLAS's Haswell kernel does so for columns in whole 8-wide
    tiles, but rounds a ragged tail of 1-4 columns its own way (about
    1e-15 relative), so splitting rows of Wo*N = 1-4 (mod 8) columns
    into blocks moves the last bits.  The node holds only its unpadded
    input and its output: the weight gradient rebuilds the column
    blocks, and the input gradient is the transposed conv, one blocked
    GEMM over g.  The module docstring gives the whole layout.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d expects 4-D input and weights, got {x.shape} and {w.shape}")
    cout, cin, kh, kw = w.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"kernel sides must be odd, got {kh}x{kw}")
    if x.shape[1] != cin:
        raise ValueError(f"input has {x.shape[1]} channels, weights expect {cin}")
    if padding == "same":
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
    elif padding == "valid":
        ph = pw = 0
    else:
        raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
    h, wd = x.shape[2], x.shape[3]
    if h + 2 * ph < kh or wd + 2 * pw < kw:
        raise ValueError(f"input {h}x{wd} smaller than kernel {kh}x{kw}")
    out = _correlate(_pixels_last(x.data), w.data.reshape(cout, -1), kh, kw, ph, pw)

    def vjp_x(g):
        # the transposed conv: g, zero-padded by (kh-1-ph, kw-1-pw), correlated
        # with the flipped kernel, Cin and Cout swapped, lands on the unpadded x
        flipped = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
        gx = _correlate(_pixels_last(g), flipped, kh, kw, kh - 1 - ph, kw - 1 - pw)
        return gx.transpose(3, 0, 1, 2)

    def vjp_w(g):
        g = _pixels_last(g).reshape(cout, -1)
        gw = np.zeros((cout, cin * kh * kw))
        for span, cols in _column_blocks(_pixels_last(x.data), kh, kw, ph, pw):
            gw += g[:, span] @ cols.T
            del cols  # free this block before the next one is built
        return gw.reshape(w.shape)

    out = Tensor._from_op(out.transpose(3, 0, 1, 2), (x, w), (vjp_x, vjp_w), "conv2d")
    if b is not None:
        if b.shape != (cout,):
            raise ValueError(f"bias shape {b.shape} does not match {cout} output channels")
        out = out + b.reshape(1, cout, 1, 1)
    return out


def _channel_blocks(cout: int, channel_bytes: int):
    """Equal slices of cout channels, each at most `_COLUMN_BLOCK_BYTES` of
    `channel_bytes` per channel (or one channel)."""
    count = -(-cout // max(1, _COLUMN_BLOCK_BYTES // channel_bytes))
    step = -(-cout // count)
    for o0 in range(0, cout, step):
        yield slice(o0, min(o0 + step, cout))


def patch_conv(image: np.ndarray, ids: np.ndarray, w: Tensor, taps, taps_t, shape: tuple,
               b: Tensor | None = None) -> Tensor:
    """`conv2d(patches, w, b, padding="same")` of patches cut from one fixed image.

    `image` is the (M, Cin) table of the image's pixels, and the N
    patches of `shape` = (N, h, w) read its U distinct rows `ids`.
    `taps` is the fixed 0/1 scipy CSR matrix of shape (N*h*w, U*kh*kw):
    row n*h*w + i*w + j, patch n's pixel (i, j), has a 1 in column
    s*kh*kw + t for each tap t = u*kw + v of the kernel that lands inside
    the patch, s being the position in `ids` of the pixel that tap reads;
    taps beyond the patch edge read the conv's zero padding and have no
    entry.  `taps_t` is its transpose.  The result is
    `taps @ (pixels @ W_taps)`, with pixels = image[ids] and W_taps the
    weights as a (Cin, kh*kw*Cout) matrix, so each pixel's tap
    projections are computed once however many patches hold it.  It is
    returned as the [N,Cout,h,w] view of pixels-last memory that
    `conv2d` returns.  The weight gradient is `pixels.T @ (taps_t @ g)`,
    with the pixels gathered again: the node holds only `ids`.  The image
    is fixed, so there is no input gradient.  The bias b, if given, is
    added in place, the values `conv2d`'s separate add gives without
    holding a second [N,Cout,h,w] activation.  Both passes run in equal
    blocks of output channels, each holding at most
    `_COLUMN_BLOCK_BYTES` of tap projections (or their gradient) and
    patch-pixel rows.
    """
    if image.ndim != 2 or w.ndim != 4:
        raise ValueError(f"patch_conv expects a 2-D pixel table and 4-D weights, "
                         f"got {image.shape} and {w.shape}")
    cout, cin, kh, kw = w.shape
    n_taps, u = kh * kw, ids.size
    if image.shape[1] != cin:
        raise ValueError(f"pixels have {image.shape[1]} channels, weights expect {cin}")
    if b is not None and b.shape != (cout,):
        raise ValueError(f"bias shape {b.shape} does not match {cout} output channels")
    rows = int(np.prod(shape))
    if taps.shape != (rows, u * n_taps) or taps_t.shape != (u * n_taps, rows):
        raise ValueError(f"tap operators {taps.shape} and {taps_t.shape} do not map "
                         f"{u} pixels x {n_taps} taps onto patches {tuple(shape)}")
    n, h, wd = shape
    # columns (t, o) per input channel, so a channel block is a (Cin, T*block) matrix
    w_taps = w.data.transpose(1, 2, 3, 0).reshape(cin, n_taps, cout)
    blocks = list(_channel_blocks(cout, 8 * (u * n_taps + rows)))
    out = np.empty((cout, h, wd, n))
    pixels = image[ids]
    for o in blocks:
        proj = pixels @ w_taps[:, :, o].reshape(cin, -1)
        out[o] = (taps @ proj.reshape(u * n_taps, -1)).reshape(n, h, wd, -1).transpose(3, 1, 2, 0)
        del proj  # free this block before the next one is built

    def vjp_w(g):
        g = _pixels_last(g)
        pixels = image[ids]
        gw = np.empty((cin, n_taps, cout))
        for o in blocks:
            gproj = taps_t @ np.ascontiguousarray(g[o].transpose(3, 1, 2, 0)).reshape(rows, -1)
            gw[:, :, o] = (pixels.T @ gproj.reshape(u, -1)).reshape(cin, n_taps, -1)
            del gproj
        return np.ascontiguousarray(gw.transpose(2, 0, 1)).reshape(w.shape)

    parents, vjps = (w,), (vjp_w,)
    if b is not None:
        out += b.data[:, None, None, None]  # in place: no second activation
        parents, vjps = (w, b), (vjp_w, lambda g: g.sum(axis=(0, 2, 3)))
    return Tensor._from_op(out.transpose(3, 0, 1, 2), parents, vjps, "patch_conv")


def sparse_matmul(op, x: Tensor, op_t) -> Tensor:
    """Multiply a fixed scipy sparse matrix with a differentiable dense tensor.

    `op_t` is `op`'s transpose, built once by the caller for the VJP.
    """
    return Tensor._from_op(op @ x.data, (x,), (lambda g: op_t @ g,), "sparse_matmul")


# Cap on one row tile of a fused ReLU MLP's hidden matrix, in bytes; a
# tile holds at least one row.  512 KiB (512 rows of a 128-wide hidden
# layer) fits a 2 MiB L2 cache even twice over, as the backward pass's
# pre-activation and its gradient tile do, so each tile is written,
# rectified and multiplied while still cached instead of streaming
# through memory.
_HIDDEN_TILE_BYTES = 512 * 2**10


def _row_tiles(n: int, hidden: int):
    """Row slices of an (n, hidden) matrix, each at most `_HIDDEN_TILE_BYTES`."""
    step = max(1, _HIDDEN_TILE_BYTES // (hidden * 8))
    for r0 in range(0, n, step):
        yield slice(r0, min(r0 + step, n))


def relu_mlp(x: np.ndarray, w1: Tensor, w2: Tensor) -> Tensor:
    """relu(x @ W1) @ W2 for a fixed (n, F) array x, one row tile at a time.

    The (n, hidden) hidden matrix is never built: each tile's
    pre-activation `x[t] @ W1` is checked for non-finite values (a -inf
    that the ReLU would zero still raises NonFiniteError), rectified in
    place and multiplied by W2 into the (n, P) output.  The node holds x
    and the output only; the weight gradients recompute each tile's
    pre-activation, so both are sums over tiles of `h[t].T @ g[t]` and
    `x[t].T @ ((g[t] @ W2.T) * (pre[t] > 0))`, taken in one pass.  x has
    no gradient.
    """
    if x.ndim != 2 or w1.ndim != 2 or w2.ndim != 2:
        raise ValueError(f"relu_mlp expects 2-D arrays, got {x.shape}, {w1.shape}, {w2.shape}")
    if x.shape[1] != w1.shape[0] or w1.shape[1] != w2.shape[0]:
        raise ValueError(f"shapes {x.shape}, {w1.shape}, {w2.shape} do not chain")
    out = np.empty((x.shape[0], w2.shape[1]))
    for t in _row_tiles(x.shape[0], w1.shape[1]):
        pre = _check(x[t] @ w1.data, "relu_mlp")
        np.maximum(pre, 0.0, out=pre)
        np.matmul(pre, w2.data, out=out[t])

    grads: list[np.ndarray] = []

    def tile_grads(g):
        # one pass for both weights, cached for whichever VJP backward calls
        # second: 5-10 % faster than a pass each on the GCN's 4781x128 layer
        if not grads:
            gw1, gw2 = np.zeros_like(w1.data), np.zeros_like(w2.data)
            for t in _row_tiles(x.shape[0], w1.shape[1]):
                pre = x[t] @ w1.data
                dpre = g[t] @ w2.data.T
                dpre *= pre > 0
                gw1 += x[t].T @ dpre
                np.maximum(pre, 0.0, out=pre)
                gw2 += pre.T @ g[t]
            grads.extend((gw1, gw2))
        return grads

    return Tensor._from_op(out, (w1, w2), (lambda g: tile_grads(g)[0],
                                           lambda g: tile_grads(g)[1]), "relu_mlp")


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
