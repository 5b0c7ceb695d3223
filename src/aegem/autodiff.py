"""Dense float32 or float64 tensors with reverse-mode automatic differentiation.

Every neural operation in the pipeline (2-D convolutions, batch
normalization, scaled softmax, activations, the graph-convolution
matmuls and the GCN's fused hidden layer) is built on the
:class:`Tensor` type defined here, and so are the two training losses,
each one fused op in its own module (`autoencoder.reconstruction_loss`,
`gcn.bce_with_logits`), bit-equal in value and gradient to the same
loss composed of Tensor ops: on small batches a step's cost is mostly
per-node interpreter overhead, not arithmetic.  The leaky ReLU is
max(x, alpha x), branch-free, with a boolean mask on its node; a conv
followed by one takes it into its own node (`conv2d(..., leaky=alpha)`),
computed in place on the GEMM output.  A training step of a four-layer
autoencoder then records 7 nodes, not 10: three conv + leaky ReLU
nodes, the last encoder conv, the softmax, the decoder's conv and the
loss.
The recorded operation graph is single-owner and consumed by one
:func:`backward` call; parameters are plain leaf tensors updated in
place by :class:`Adam`, which makes each one a view of one flat buffer,
and its moments views of two more, in the parameters' dtype, so that a
step updates every parameter with one pass per operation.
:func:`fit` is both models' training loop and states their float32 use.

A tensor built from a float32 array stays float32; any other input
becomes float64.  Ops compute in their inputs' dtype, so float32 inputs
and parameters give float32 activations and gradients throughout (the
autoencoder and the GCN train so), while the gradchecks and everything
else run in float64.  A Python scalar operand takes its tensor's dtype:
as a 0-d float64 array it would be a strong type under NumPy 2's
promotion rules (NEP 50), and a constant such as `mean`'s 1/n would turn
the loss, and then every gradient, float64.

A 2-D convolution is one layout change plus GEMMs (im2col, Chellapilla
et al. 2006).  The unpadded [N,Cin,H,W] input is copied pixels-last to
(Cin, H, W, N), and the column matrix of shape (Cin*kh*kw, Ho*Wo*N) of
the zero-padded input is gathered from it: rows in weight order
(c, u, v), pixels with the batch innermost, so every copied run is Wo*N
values long.  The conv owns its padding: the columns come in blocks of
whole output rows, each zero-filling only the rows it reads, and no
padded copy of the input is ever made.  A block holds at most
`_COLUMN_BLOCK_BYTES` (2 MiB), or one row if a row is larger.  The
default autoencoder's largest columns are its second layer's: 2.65 MB
of float32 on a training batch of 64 9x9 Samson windows and 48 MB of
float64 on a 4096-pixel inference strip; its first layer reads the
k = 3 subspace coordinates, 480 KB on that batch.  So a training step
builds layer 2's columns as a 2-row and a 1-row block, and the strip's
in blocks of at most 2 MiB, all of them recycled through the heap (see
Memory below).  The forward pass is `W.reshape(Cout, -1) @ cols` per
block, the weights on the left:
each output value is then summed in the same order however many pixels
a call or a block holds, as far as the GEMM computes a column the same
way at any column count (see `conv2d`).  This keeps strip
inference bit-equal to the per-patch encode (`cols.T @ W.T` breaks that
by about 5e-15).  The output stays pixels-last in memory behind an
[N,Cout,Ho,Wo] view, so the next conv's layout copy is free.  A conv
node holds only its unpadded input and its output until `backward`.
The weight gradient sums `g[:, block] @ cols.T` over the rebuilt column
blocks.  The input gradient is col2im, as in Caffe's backward (Jia et
al. 2014): per block of output rows, each output pixel's Cin*kh*kw taps
are `W.reshape(Cout, -1).T` times its (Cout, N) gradient, one GEMM per
pixel with the rows in (u, v, c) order, so the block of taps is laid out
(pixel, u, v, Cin, N).  Each of the kh*kw taps is added at its offset
into a zero-filled padded gradient laid out (H, W, Cin, N), a run of
Cin*N contiguous values per pixel on both sides, and the crop of the
padding copies the gradient back to (Cin, H, W, N).  Added as 4-D
strided slices of a (Cin, H, W, N) gradient, a tap of the acceptance
run's layer 2 ran in runs of Wo*N values: 12.4 us per tap against 6.5 us
on a 2-core Xeon VM.
A pixel's GEMM sums each tap over Cout as the block's one GEMM did, and
each position adds its taps in the same order, so the gradient is the
same to the bit (`tests/oracles.py` keeps the strided version).  Its
GEMM work is output-sized, Cin*Cout*kh*kw*Ho*Wo*N multiply-adds: a
transposed conv correlates the zero-padded g over all H*W input pixels
instead, 118 M multiply-adds against col2im's 42.5 M on layer 2's
training batch.

Memory.  glibc malloc serves a request above its mmap threshold by mmap
and unmaps it on free; smaller ones come from the heap, whose free top
goes back to the OS once it exceeds the trim threshold (mallopt(3)).
Both thresholds start at 128 KiB.  Freeing a mapped chunk of at most
32 MiB raises the mmap threshold to its size and the trim threshold to
twice that, and neither falls again.  Memory handed back is faulted in
page by page when next used, so a loop that allocates and frees the same
buffers keeps them resident only once the thresholds exceed them.
`fit` frees an untouched buffer of `_COLUMN_BLOCK_BYTES` before its
first step.  That lifts the mmap threshold just above the cap, so every
later column or tap block, training's and inference's alike, comes from
the heap instead of being mapped fresh, and the trim threshold to twice
the cap, above a step's temporaries: many arrays, 1.3 MiB at their
traced peak at the `acceptance` benchmark's shapes, each too small for
its free to raise the threshold above their sum.  The autoencoder's
epoch keeps each step's gradients until the next step's backward.  The
activation of a conv + leaky ReLU node overwrites its pre-activation,
so the tape holds one activation per layer, not two, and Adam's flat
gradient and its two temporaries are each one parameter set in size,
0.4 MB of float32 for the default autoencoder on Samson's bands.  In a
run the GCN's free changes nothing: the autoencoder has already raised
both thresholds.  With a 4 MiB cap, inference's fresh 4 MiB mappings
stacked on top of the heap that training had left untrimmed and raised
the AE stage's peak.  Any `mallopt` call or `MALLOC_*_` setting turns
the dynamic thresholds off; the fixed ones tried cost more faults or a
higher peak (ROADMAP's rejection "any `mallopt` call or `MALLOC_*_`
variable").
"""
from __future__ import annotations

import numpy as np

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


class DivergenceError(RuntimeError):
    """Training produced non-finite values in an epoch."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged (non-finite values) at epoch {epoch}")
        self.epoch = epoch


class TapeConsumedError(RuntimeError):
    """Raised when backward() is called twice on the same graph."""


def _check(data: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(data).all():
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
    """A float32 or float64 array, the op that made it and how to differentiate it.

    float32 data is kept as it is; anything else (float64, ints, lists,
    Python scalars) becomes float64, float64 arrays without a copy.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_vjps", "_op", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._vjps: tuple = ()
        self._op = "leaf"
        self._consumed = False

    @classmethod
    def _from_op(cls, data, parents, vjps, op: str) -> "Tensor":
        """Record an op: `vjps[i]` maps the output gradient to parent i's."""
        out = cls(_check(np.asarray(data), op))
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
    def _operand(self, other) -> "Tensor":
        """`other` as a tensor; a Python scalar takes this tensor's dtype.

        A 0-d float64 array is a strong type under NumPy 2 (NEP 50), so a
        constant such as `mean`'s 1/n would turn float32 work float64.
        """
        if isinstance(other, (int, float)):
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return as_tensor(other)

    def __add__(self, other):
        other = self._operand(other)
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
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return self._operand(other) + (-self)

    def __mul__(self, other):
        other = self._operand(other)
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
        other = self._operand(other)
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
        return self._operand(other) / self

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

def sqrt(x: Tensor) -> Tensor:
    y = np.sqrt(x.data)
    return Tensor._from_op(y, (x,), (lambda g: g * 0.5 / y,), "sqrt")


def relu(x: Tensor) -> Tensor:
    # gradient at exactly 0 is 0
    mask = x.data > 0
    return Tensor._from_op(np.where(mask, x.data, 0.0), (x,), (lambda g: g * mask,), "relu")


def _check_slope(alpha: float) -> None:
    if not 0 <= alpha <= 1:
        raise ValueError(f"leaky_relu needs 0 <= alpha <= 1, got alpha={alpha!r}")


def _leaky_relu_forward(a: np.ndarray, alpha: float, out=None) -> tuple[np.ndarray, np.ndarray]:
    """max(a, alpha a) into `out` (a itself allowed) and its mask a > 0."""
    y = np.maximum(a, a * alpha, out=out)
    return y, y > 0


def _leaky_relu_vjp(g: np.ndarray, mask: np.ndarray, alpha: float) -> np.ndarray:
    """g times the slope max(mask, alpha), into an array in g's memory layout."""
    slope = np.maximum(mask, g.dtype.type(alpha))  # in g's dtype: 1 or alpha
    return np.multiply(g, slope, out=np.empty_like(g))


def leaky_relu(x: Tensor, alpha: float = 0.01) -> Tensor:
    """max(x, alpha x), the leaky ReLU for 0 <= alpha <= 1.

    The value is bit-equal to x where x > 0 and alpha x elsewhere, signed
    zeros included.  The node holds a boolean mask, 1 byte per value, and
    the VJP multiplies g by the slope max(mask, alpha) into an array in g's
    memory layout: a conv's bias gradient sums g in memory order, so a
    gradient in another layout would move its last bits.  Both passes
    are branch-free: a masked copy was about 10x slower on a (64, 32, 5, 5)
    batch of random signs.  `conv2d(..., leaky=alpha)` applies the same two
    kernels inside the conv's node.
    """
    _check_slope(alpha)
    y, mask = _leaky_relu_forward(x.data, alpha)
    return Tensor._from_op(y, (x,), (lambda g: _leaky_relu_vjp(g, mask, alpha),), "leaky_relu")


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

# Cap on one block of a conv's column matrix or of its input gradient's
# taps, in bytes; a block holds at least one output row.  It is also the
# size of the untouched buffer `fit` frees before its first step: that
# free lifts glibc's mmap threshold just above 2 MiB, so every later block
# comes from the heap instead of being mapped fresh and faulted in
# ("Memory" in the module docstring).  The default
# autoencoder's largest training blocks, layer 2's 2.65 MB of float32
# columns and taps on a batch of 64 Samson windows, split into a 2-row
# and a 1-row block; their Wo*N = 192 columns a row fill whole BLAS
# tiles, so the forward stays bit-equal to one block.
_COLUMN_BLOCK_BYTES = 2 * 2**20


def _pixels_last(x: np.ndarray) -> np.ndarray:
    """[N,C,H,W] -> a C-contiguous (C, H, W, N) array (a view if already so)."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0))


def _row_blocks(ho: int, row_bytes: int):
    """(i0, i1) spans of ho output rows, each block at most `_COLUMN_BLOCK_BYTES`
    of `row_bytes`-byte rows, or one row if a row is larger."""
    step = max(1, _COLUMN_BLOCK_BYTES // row_bytes)
    for i0 in range(0, ho, step):
        yield i0, min(i0 + step, ho)


def _column_blocks(xt: np.ndarray, kh: int, kw: int, ph: int, pw: int):
    """im2col of pixels-last xt, zero-padded by (ph, pw), in blocks of output rows.

    xt is a C-contiguous (C, H, W, N) array.  Yields (span, cols) per block:
    cols is the C-contiguous (C*kh*kw, rows*Wo*N) column matrix of the
    block's output rows (for a 1x1 kernel a view of xt, each row
    contiguous), and span slices those rows' pixels out of a
    (.., Ho*Wo*N) pixels-last matrix.  Row (c, u, v) of cols holds the
    padded x[c, i+u, j+v, :] for every output pixel (i, j), batch
    innermost, so each copied run is Wo*N values long.  A block is at most
    `_COLUMN_BLOCK_BYTES` (or one row), and only the caller holds it: a
    caller that drops it before asking for the next keeps one block alive.
    """
    c, h, w, n = xt.shape
    ho, wo = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1
    for i0, i1 in _row_blocks(ho, c * kh * kw * wo * n * xt.itemsize):
        yield slice(i0 * wo * n, i1 * wo * n), _block_columns(xt, kh, kw, ph, pw, i0, i1)


def _block_columns(xt: np.ndarray, kh: int, kw: int, ph: int, pw: int,
                   i0: int, i1: int) -> np.ndarray:
    """Columns of output rows i0..i1-1 (see `_column_blocks`); 1x1 copies nothing."""
    c, h, w, n = xt.shape
    if kh == kw == 1:
        return xt[:, i0:i1].reshape(c, -1)
    # padded input rows r0 .. r1-1 are the ones these output rows read: xt's
    # own from row r0 on, or a zero-padded copy of them
    r0, r1 = i0 - ph, i1 + kh - 1 - ph
    if pw == 0 and r0 >= 0 and r1 <= h:
        buf, offset = xt, r0 * xt.strides[1]
    else:
        lo, hi = max(r0, 0), min(r1, h)
        buf, offset = np.zeros((c, r1 - r0, w + 2 * pw, n), dtype=xt.dtype), 0
        buf[:, lo - r0 : hi - r0, pw : pw + w] = xt[:, lo:hi]
    # (C, kh, kw, rows, Wo, N) read-only view: tap (u, v) is the slab shifted by
    # (u, v); `np.ndarray` on the contiguous buffer costs a quarter of `as_strided`
    sc, sr, sw, sn = buf.strides
    taps = np.ndarray((c, kh, kw, i1 - i0, w + 2 * pw - kw + 1, n), buf.dtype, buf, offset,
                      (sc, sr, sw, sr, sw, sn))
    taps.flags.writeable = False
    return np.ascontiguousarray(taps).reshape(c * kh * kw, -1)


def _correlate(xt: np.ndarray, wmat: np.ndarray, kh: int, kw: int, ph: int, pw: int
               ) -> np.ndarray:
    """(Cout, Ho, Wo, N) correlation of pixels-last xt, zero-padded by (ph, pw),
    with the (Cout, C*kh*kw) weight matrix: `wmat @ cols` per column block."""
    _, h, w, n = xt.shape
    out = np.empty((wmat.shape[0], h + 2 * ph - kh + 1, w + 2 * pw - kw + 1, n),
                   dtype=np.result_type(xt, wmat))
    flat = out.reshape(wmat.shape[0], -1)
    for span, cols in _column_blocks(xt, kh, kw, ph, pw):
        np.matmul(wmat, cols, out=flat[:, span])
        del cols  # free this block before the next one is built
    return out


def _input_gradient(g: np.ndarray, wmat: np.ndarray, kh: int, kw: int, ph: int, pw: int,
                    h: int, w: int) -> np.ndarray:
    """(C, H, W, N) gradient of `_correlate`'s unpadded input xt for its
    (Cout, Ho, Wo, N) output gradient g, by col2im.

    The taps are the C*kh*kw products of `wmat.T` with each output
    pixel's (Cout, N) gradient, one GEMM per pixel with the rows taken in
    (u, v, c) order, so that the block of taps is laid out (pixel, u, v,
    C, N).  Tap (u, v) is added into a zero-filled padded gradient laid
    out (H, W, C, N), shifted by (u, v): every add is a run of C*N
    contiguous values on both sides.  A block of taps holds whole output
    rows, at most `_COLUMN_BLOCK_BYTES` (or one row), and each position
    adds its taps in (u, v) order within a block, blocks in row order.
    The crop of the padding is the copy back to (C, H, W, N).  A 1x1
    kernel's gradient is `wmat.T @ g` itself.
    """
    cout, ho, wo, n = g.shape
    c = wmat.shape[1] // (kh * kw)
    if kh == kw == 1:
        return (wmat.T @ g.reshape(cout, -1)).reshape(c, ho, wo, n)
    wt = wmat.reshape(cout, c, kh * kw).transpose(2, 1, 0).reshape(kh * kw * c, cout)
    gpix = g.reshape(cout, ho * wo, n).transpose(1, 0, 2)  # (pixel, Cout, N)
    gx = np.zeros((h + 2 * ph, w + 2 * pw, c, n), dtype=np.result_type(g, wmat))
    for i0, i1 in _row_blocks(ho, c * kh * kw * wo * n * gx.itemsize):
        taps = np.matmul(wt, gpix[i0 * wo : i1 * wo]).reshape(i1 - i0, wo, kh, kw, c, n)
        for u in range(kh):
            for v in range(kw):
                gx[i0 + u : i1 + u, v : v + wo] += taps[:, :, u, v]
        del taps  # free this block before the next one is built
    return np.ascontiguousarray(gx[ph : ph + h, pw : pw + w].transpose(2, 0, 1, 3))


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, padding: str = "same",
           leaky: float | None = None) -> Tensor:
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
    blocks, and the input gradient is col2im (`_input_gradient`), GEMM
    work of the output's size with each tap added into place.  The bias
    b, if given, is added in place, the values a separate add node gives
    without holding a second activation; its gradient is g summed over
    batch and pixels.

    leaky=alpha applies `leaky_relu(., alpha)` to the output inside this
    node, in place on the GEMM output: the values and gradients of a conv
    node followed by a `leaky_relu` node, with one node's bookkeeping
    instead of two and no pre-activation kept.  The node keeps the ReLU's
    mask, and its VJPs share one masked gradient, taken by `leaky_relu`'s
    own VJP kernel.  The one finiteness check, on the activation, is the
    conv's too: max(x, alpha x) is finite exactly where x is.  The module
    docstring gives the whole layout.
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
    if b is not None and b.shape != (cout,):
        raise ValueError(f"bias shape {b.shape} does not match {cout} output channels")
    if leaky is not None:
        _check_slope(leaky)
    wmat = w.data.reshape(cout, -1)
    out = _correlate(_pixels_last(x.data), wmat, kh, kw, ph, pw)

    def vjp_x(g):
        return _input_gradient(_pixels_last(g), wmat, kh, kw, ph, pw, h, wd).transpose(3, 0, 1, 2)

    def vjp_w(g):
        g = _pixels_last(g).reshape(cout, -1)
        gw = np.zeros((cout, cin * kh * kw), dtype=np.result_type(g, x.data))
        for span, cols in _column_blocks(_pixels_last(x.data), kh, kw, ph, pw):
            gw += g[:, span] @ cols.T
            del cols  # free this block before the next one is built
        return gw.reshape(w.shape)

    parents, vjps = (x, w), (vjp_x, vjp_w)
    if b is not None:
        out += b.data[:, None, None, None]  # in place: no second activation
        parents, vjps = (x, w, b), (vjp_x, vjp_w, lambda g: g.sum(axis=(0, 2, 3)))
    if leaky is None:
        return Tensor._from_op(out.transpose(3, 0, 1, 2), parents, vjps, "conv2d")
    mask = _leaky_relu_forward(out, leaky, out)[1].transpose(3, 0, 1, 2)
    masked: list[np.ndarray] = []

    def through_mask(vjp):
        def run(g):
            if not masked:  # whichever VJP backward calls first takes it for all
                masked.append(_leaky_relu_vjp(g, mask, leaky))
            return vjp(masked[0])
        return run

    return Tensor._from_op(out.transpose(3, 0, 1, 2), parents, tuple(map(through_mask, vjps)),
                           "conv2d_leaky_relu")


def sparse_matmul(op, x: Tensor) -> Tensor:
    """Multiply a fixed sparse matrix with a differentiable dense tensor.

    `op` is any matrix with `@` on a dense array and a `.T`: `gcn.Sparse`,
    whose transpose is a view, or a scipy sparse matrix.  The VJP is
    `op.T @ g`.
    """
    return Tensor._from_op(op @ x.data, (x,), (lambda g: op.T @ g,), "sparse_matmul")


# Cap on one row tile of a fused ReLU MLP's hidden matrix, in bytes; a
# tile holds at least one row.  256 KiB is 256 float64 or 512 float32 rows
# of a 128-wide hidden layer, so each tile is written, rectified or masked
# and multiplied while still in L2 cache instead of streaming through
# memory.  Measured sweep, fwd+bwd of relu_mlp at 4781x3 -> 128 -> 3
# float32 (the large_scene GCN's layer) on a 2-core Xeon, medians of 3
# runs after the malloc warm-up `fit` makes: 1.10-1.34 ms at 128 KiB,
# 1.00-1.27 ms at 256 KiB, 0.98-1.14 ms at 384 KiB and 1.21-1.49 ms at
# 512 KiB; 384 KiB is within the noise of 256 KiB, and the smaller tile
# holds less.  At 349 rows, 128 KiB (two tiles) read 189-218 us and 256
# to 512 KiB (one tile) 129-189 us.
_HIDDEN_TILE_BYTES = 256 * 2**10


def _row_tiles(n: int, hidden: int, itemsize: int):
    """Row slices of an (n, hidden) matrix of `itemsize`-byte values, each at
    most `_HIDDEN_TILE_BYTES`."""
    step = max(1, _HIDDEN_TILE_BYTES // (hidden * itemsize))
    for r0 in range(0, n, step):
        yield slice(r0, min(r0 + step, n))


def relu_mlp(x: np.ndarray, w1: Tensor, w2: Tensor) -> Tensor:
    """relu(x @ W1) @ W2 for a fixed (n, F) array x, one row tile at a time.

    The (n, hidden) hidden matrix is never built, only one row tile of
    it at a time, at most `_HIDDEN_TILE_BYTES` in the output's dtype, in
    one buffer that every tile reuses.  Each tile's pre-activation
    `x[t] @ W1` is checked for non-finite values (a -inf that the ReLU
    would zero still raises NonFiniteError), rectified in place and
    multiplied by W2 into the (n, P) output.  The node holds x and the
    output only.  x has no gradient.

    Both weight gradients come from one (F*P, hidden) sum.  With the mask
    M = [x W1 > 0] and an output gradient g, let
    T[(f, p), h] = sum_i x[i, f] g[i, p] M[i, h], the GEMM (x (x) g)^T M
    of the n x F*P row-wise products x[i, f] g[i, p], built once per
    call.  Then dW1[f, h] = sum_p W2[h, p] T[f, p, h] and
    dW2[h, p] = sum_f W1[f, h] T[f, p, h], for any F and P.  A tile
    makes 3 passes over its (rows, hidden) block: `x[t] @ W1` written
    into the buffer, set to 0/1 in place, and read by one small GEMM
    added into T.  Taking each gradient from its own product,
    `x[t].T @ ((g[t] @ W2.T) * M[t])` and `relu(x[t] @ W1).T @ g[t]`,
    makes 7: 2 GEMM writes, a mask, a masked multiply, a ReLU and 2
    GEMM reads.
    """
    if x.ndim != 2 or w1.ndim != 2 or w2.ndim != 2:
        raise ValueError(f"relu_mlp expects 2-D arrays, got {x.shape}, {w1.shape}, {w2.shape}")
    if x.shape[1] != w1.shape[0] or w1.shape[1] != w2.shape[0]:
        raise ValueError(f"shapes {x.shape}, {w1.shape}, {w2.shape} do not chain")
    (n, f), hidden = x.shape, w1.shape[1]
    out = np.empty((n, w2.shape[1]), dtype=np.result_type(x, w1.data, w2.data))
    tiles = list(_row_tiles(n, hidden, out.itemsize))

    def tile_buffers():
        """Each tile with its pre-activation `x[t] @ W1`, written into one
        buffer that every tile reuses."""
        buf = np.empty((tiles[0].stop if tiles else 0, hidden), dtype=out.dtype)
        for t in tiles:
            yield t, np.matmul(x[t], w1.data, out=buf[: t.stop - t.start])

    for t, pre in tile_buffers():
        _check(pre, "relu_mlp")
        np.maximum(pre, 0.0, out=pre)
        np.matmul(pre, w2.data, out=out[t])

    grads: list[np.ndarray] = []

    def tile_grads(g):
        # one pass for both weights, cached for whichever VJP backward calls second
        if not grads:
            p = g.shape[1]
            xg = (x[:, :, None] * g[:, None, :]).reshape(n, f * p)
            t_sum = np.zeros((f * p, hidden), dtype=out.dtype)
            for t, mask in tile_buffers():
                np.greater(mask, 0.0, out=mask)
                t_sum += xg[t].T @ mask
            t_sum = t_sum.reshape(f, p, hidden)
            grads.extend((np.einsum("hp,fph->fh", w2.data, t_sum),
                          np.einsum("fh,fph->hp", w1.data, t_sum)))
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

    Returns the gradient of every reachable leaf tensor with
    requires_grad.  The recorded graph is freed and cannot be swept
    twice.
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


# -- optimizer and training loop ----------------------------------------------

# Adam's moment decay rates and its denominator's offset (Kingma & Ba 2015)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction over one flat buffer of every parameter.

    Each parameter's data becomes a view of one flat buffer, in the
    order of `params`, and its moments `m[i]` and `v[i]` views of two
    more.  A step with every gradient present copies them into one flat
    gradient and updates all parameters with one pass per operation of
    the formula; otherwise each parameter with a gradient is updated on
    its own views, and one without is left as it is.  Every operation is
    elementwise, so both give the same bits.  The parameters share one
    dtype, which the moments take, and a parameter whose `data` is
    assigned a new array leaves the buffer: update parameters in place
    while the optimizer steps them.
    """

    def __init__(self, params: list[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        dtypes = sorted({str(p.data.dtype) for p in self.params})
        if len(dtypes) > 1:
            raise ValueError(f"Adam needs parameters of one dtype, got {dtypes}")
        self._flat = np.concatenate([p.data for p in self.params], axis=None)
        self._m, self._v = np.zeros_like(self._flat), np.zeros_like(self._flat)
        self.m, self.v = [], []
        start = 0
        for p in self.params:
            span, shape = slice(start, start + p.data.size), p.data.shape
            p.data = self._flat[span].reshape(shape)
            self.m.append(self._m[span].reshape(shape))
            self.v.append(self._v[span].reshape(shape))
            start = span.stop

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        """One step on the parameters with a gradient in `grads`."""
        self.step_count += 1
        present = [grads.get(p) for p in self.params]
        if all(g is not None for g in present):
            self._update(self._flat, self._m, self._v, np.concatenate(present, axis=None))
            return
        for p, m, v, g in zip(self.params, self.m, self.v, present):
            if g is not None:
                self._update(p.data, m, v, g)

    def _update(self, p: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray) -> None:
        """p -= lr m_hat / (sqrt(v_hat) + eps), in place with two temporaries.

        Each operation is the textbook formula's, in its order, so the
        update is the same to the bit as the out-of-place expression.
        """
        t = self.step_count
        tmp = np.multiply(g, 1 - _BETA1)
        m *= _BETA1
        m += tmp
        np.multiply(g, 1 - _BETA2, out=tmp)
        tmp *= g
        v *= _BETA2
        v += tmp
        denom = np.divide(v, 1 - _BETA2**t)
        np.sqrt(denom, out=denom)
        denom += _EPS
        np.divide(m, 1 - _BETA1**t, out=tmp)
        tmp *= self.lr
        tmp /= denom
        p -= tmp


def check_schedule(model: str, epochs: int, lr: float) -> None:
    """Raise ValueError, naming `model`, unless epochs >= 0 and 0 < lr < inf."""
    if epochs < 0:
        raise ValueError(f"{model} epochs must be >= 0, got {epochs}")
    if not lr > 0:
        raise ValueError(f"{model} learning_rate must be > 0, got {lr!r}")
    if lr == np.inf:
        raise ValueError(f"{model} learning_rate must be finite, got inf")


def fit(params: list[Tensor], epochs: int, lr: float, epoch_fn) -> list:
    """`epochs` epochs of Adam at rate lr on params: the one training loop.

    Calls `epoch_fn(epoch, optimizer)` once per epoch and returns what
    each call returned.  A NonFiniteError raised in epoch e becomes
    DivergenceError(e); only a forward checks values, so a non-finite
    parameter after the last step raises DivergenceError(epochs - 1).
    The optimizer makes every parameter a view of its flat buffer (see
    `Adam`): while `fit` runs, the parameters are updated in place, and
    an epoch that assigns a new array to one takes it out of training.

    The autoencoder and the GCN train in float32 (mixed-precision
    training, Micikevicius et al. 2018): `train_autoencoder` and
    `train_gcn` cast their parameters and data down before `fit` and the
    parameters back up after it, which is exact.  Training's GEMMs run
    about 1.7x faster, and everything after it stays float64, so that an
    abundance stack sums to one within 1e-8, which float32's 6e-8 would
    miss.  `fit` runs in the dtype it is given: the tests' oracles use
    float64.
    """
    optimizer = Adam(params, lr)
    np.empty(_COLUMN_BLOCK_BYTES, dtype=np.uint8)  # the untouched warm-up ("Memory" above)
    history = []
    for epoch in range(epochs):
        try:
            history.append(epoch_fn(epoch, optimizer))
        except NonFiniteError as exc:
            raise DivergenceError(epoch) from exc
    if epochs and not all(np.isfinite(p.data).all() for p in optimizer.params):
        raise DivergenceError(epochs - 1)
    return history


def glorot_uniform(shape: tuple, fan_in: int, fan_out: int, rng) -> Tensor:
    """Weight tensor initialized uniform in +/-sqrt(6/(fan_in+fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, shape), requires_grad=True)
