"""Tensor engine tests: forward values against oracles, gradients against
central finite differences, optimizer behavior, and determinism."""
import tracemalloc

import numpy as np
import pytest

from aegem import autodiff as ad
from aegem.rng import SplitMix64

from oracles import (adam_scalar_reference, adam_step_reference, arccos_clamped,
                     block_columns_windows, conv2d_einsum, conv2d_input_grad_transposed,
                     conv2d_leaky_relu_unfused, conv2d_loops, conv2d_plus_bias,
                     finite_diff_grads, gradcheck, input_gradient_strided_taps,
                     leaky_relu_masked, leaky_relu_slope, max_rel_err, relu_mlp_unfused)
from page_faults import traced_peak


def rng(seed=0):
    return np.random.default_rng(seed)


# -- conv2d ---------------------------------------------------------------------

def test_conv_all_ones_valid():
    x = ad.Tensor(np.ones((1, 1, 3, 3)))
    w = ad.Tensor(np.ones((1, 1, 3, 3)))
    out = ad.conv2d(x, w, None, "valid")
    assert out.shape == (1, 1, 1, 1)
    assert out.data.ravel()[0] == 9.0


def test_conv_impulse_same_padding_matches_loop_oracle():
    # centered impulse picks out the 180-degree rotated kernel under
    # cross-correlation; the loop oracle is the arbiter
    x = np.zeros((1, 1, 3, 3))
    x[0, 0, 1, 1] = 1.0
    w = rng(1).normal(size=(1, 1, 3, 3))
    out = ad.conv2d(ad.Tensor(x), ad.Tensor(w), None, "same").data
    assert np.allclose(out, conv2d_loops(x, w, padding="same"), atol=1e-15)
    assert np.allclose(out[0, 0], w[0, 0, ::-1, ::-1], atol=1e-15)


@pytest.mark.parametrize("padding", ["valid", "same"])
def test_conv_random_matches_loop_oracle(padding):
    g = rng(2)
    x = g.normal(size=(2, 3, 9, 9))
    w = g.normal(size=(4, 3, 5, 5))
    b = g.normal(size=4)
    out = ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), padding).data
    assert np.max(np.abs(out - conv2d_loops(x, w, b, padding))) < 1e-12


def test_conv_linearity():
    g = rng(3)
    x = g.normal(size=(1, 2, 6, 6))
    y = g.normal(size=(1, 2, 6, 6))
    w = ad.Tensor(g.normal(size=(3, 2, 3, 3)))
    a, b = 1.7, -0.4
    lhs = ad.conv2d(ad.Tensor(a * x + b * y), w, None, "same").data
    rhs = a * ad.conv2d(ad.Tensor(x), w, None, "same").data \
        + b * ad.conv2d(ad.Tensor(y), w, None, "same").data
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def _conv_and_grads(x, w, padding, gout):
    xt, wt = ad.Tensor(x, requires_grad=True), ad.Tensor(w, requires_grad=True)
    out = ad.conv2d(xt, wt, None, padding)
    grads = ad.backward((out * gout).sum())
    return out.data, grads[xt], grads[wt]


@pytest.mark.parametrize("n", [1, 256])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("padding", ["valid", "same"])
@pytest.mark.parametrize("cin,cout", [(6, 3), (3, 8)])
def test_conv_and_vjps_match_einsum_oracle(n, k, padding, cin, cout):
    # GEMM and einsum may sum in different orders: compare to round-off
    # of each result's scale, not bit for bit
    g = rng(20)
    h, w_ = 7, 11
    x = g.normal(size=(n, cin, h, w_))
    w = g.normal(size=(cout, cin, k, k))
    half = (k - 1) // 2 if padding == "same" else 0
    gout = g.normal(size=(n, cout, h + 2 * half - k + 1, w_ + 2 * half - k + 1))
    got = _conv_and_grads(x, w, padding, gout)
    xp = np.pad(x, ((0, 0), (0, 0), (half, half), (half, half)))
    out, gx, gw = conv2d_einsum(xp, w, gout)
    want = (out, gx[:, :, half : half + h, half : half + w_], gw)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_conv_result_is_independent_of_input_layout():
    # a conv output is a view of batch-innermost memory and feeds the next
    # conv as it is; that input must give the same bits as a C-ordered copy
    g = rng(21)
    x = g.normal(size=(5, 4, 6, 8))
    x_last = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    w = g.normal(size=(3, 4, 3, 3))
    gout = g.normal(size=(5, 3, 6, 8))
    for a, b in zip(_conv_and_grads(x, w, "same", gout),
                    _conv_and_grads(x_last, w, "same", gout)):
        assert np.array_equal(a, b)


def test_conv2d_holds_no_columns_between_forward_and_backward():
    # the column blocks (25x the input here) are rebuilt by vjp_w, never
    # kept, and the padding lives only inside a block: what a conv leaves
    # allocated is its output
    g = rng(22)
    x = ad.Tensor(g.normal(size=(64, 8, 9, 9)), requires_grad=True)
    w = ad.Tensor(g.normal(size=(8, 8, 5, 5)), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.conv2d(x, w, None, "same")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= out.data.nbytes + 64 * 1024
    grads = ad.backward(out.sum())
    assert grads[x].shape == x.shape and grads[w].shape == w.shape


def test_conv2d_peak_memory_stays_below_the_full_column_matrix():
    # 41 MB of columns: built whole, forward plus backward peaked above
    # 50 MB; in blocks under the cap the peak stays below one full matrix
    g = rng(23)
    x = ad.Tensor(g.normal(size=(64, 40, 9, 9)), requires_grad=True)
    w = ad.Tensor(g.normal(size=(40, 40, 5, 5)), requires_grad=True)
    full_columns = 40 * 5 * 5 * 9 * 9 * 64 * 8
    assert full_columns > ad._COLUMN_BLOCK_BYTES
    tracemalloc.start()
    try:
        grads = ad.backward(ad.conv2d(x, w, None, "same").sum())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_columns
    assert grads[x].shape == x.shape and grads[w].shape == w.shape


@pytest.mark.parametrize("row_block_bytes", [None, 1])
@pytest.mark.parametrize("cin,cout,kernel,padding,hw", [
    (128, 64, (3, 3), "valid", (5, 5)),  # the default AE's layer 2 on a training batch
    (3, 32, (3, 3), "valid", (5, 5)),  # few input channels
    (6, 5, (5, 3), "same", (11, 8)),
    (6, 5, (3, 5), "valid", (11, 8)),
    (7, 4, (1, 1), "same", (6, 9)),
])
def test_conv_input_gradient_equals_the_transposed_conv_oracle(monkeypatch, row_block_bytes,
                                                                cin, cout, kernel, padding, hw):
    # col2im sums each input pixel's taps in its own order: round-off of the scale
    g = rng(26)
    n = 16
    x = g.normal(size=(n, cin, *hw))
    w = g.normal(size=(cout, cin, *kernel))
    half = [(k - 1) // 2 if padding == "same" else 0 for k in kernel]
    gout = g.normal(size=(n, cout, hw[0] + 2 * half[0] - kernel[0] + 1,
                          hw[1] + 2 * half[1] - kernel[1] + 1))
    if row_block_bytes:
        monkeypatch.setattr(ad, "_COLUMN_BLOCK_BYTES", row_block_bytes)
    gx = _conv_and_grads(x, w, padding, gout)[1]
    want = conv2d_input_grad_transposed(w, gout, padding)
    assert gx.shape == x.shape
    assert np.max(np.abs(gx - want)) <= 1e-12 * np.max(np.abs(want))


def test_conv_input_gradient_holds_one_tap_block_and_the_gradient():
    # the default AE's layer 2 on a training batch of 64 9x9 Samson windows:
    # the transposed conv held 3.7 MB of columns of a 0.8 MB zero-padded g
    # beside the gradient; col2im holds one block of taps (2.65 MB split
    # into 1.8 and 0.9 MB) and the gradient it adds them into
    g = rng(27)
    x = ad.Tensor(g.normal(size=(64, 128, 5, 5)).astype(np.float32), requires_grad=True)
    w = ad.Tensor(g.normal(size=(64, 128, 3, 3)).astype(np.float32), requires_grad=True)
    out = ad.conv2d(x, w, None, "valid")
    vjp_x = out._vjps[out._parents.index(x)]
    # an [N,Cout,Ho,Wo] view of pixels-last memory, as a conv's output is
    gout = g.normal(size=(64, 3, 3, 64)).astype(np.float32).transpose(3, 0, 1, 2)
    peak = traced_peak(lambda: vjp_x(gout))
    assert peak <= ad._COLUMN_BLOCK_BYTES + x.data.nbytes + 64 * 2**10, peak


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("row_block_bytes", [None, 1])
@pytest.mark.parametrize("cin,cout,hw,padding", [
    (32, 16, 5, "valid"),  # the acceptance run's layer 2 on a training batch
    (16, 8, 3, "valid"),  # its layer 3
    (128, 64, 5, "valid"),  # the default AE's layer 2 on a batch of Samson windows
    (6, 5, 8, "same"),
])
def test_conv_input_gradient_is_bit_equal_to_the_strided_tap_adds(monkeypatch, dtype,
                                                                   row_block_bytes, cin, cout,
                                                                   hw, padding):
    # the per-pixel GEMMs and the contiguous tap adds must keep every bit of one
    # GEMM per block and 4-D strided adds, signed zeros included; a 1-byte cap
    # splits every block to one output row
    g = rng(28)
    half = 1 if padding == "same" else 0
    ho = hw + 2 * half - 2
    gout = g.normal(size=(cout, ho, ho, 64)).astype(dtype)
    gout[0, 0, 0, :4] = [0.0, -0.0, 0.0, -0.0]
    wmat = g.normal(size=(cout, cin * 9)).astype(dtype)
    wmat[:, :9] = -0.0  # channel 0 gets only -0.0 taps
    if row_block_bytes:
        monkeypatch.setattr(ad, "_COLUMN_BLOCK_BYTES", row_block_bytes)
    got = ad._input_gradient(gout, wmat, 3, 3, half, half, hw, hw)
    want = input_gradient_strided_taps(gout, wmat, 3, 3, half, half, hw, hw)
    assert got.dtype == want.dtype == dtype and got.flags.c_contiguous
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _conv_whole_and_in_row_blocks(n, cin, cout, hw, kernel, padding, monkeypatch):
    g = rng(24)
    x = g.normal(size=(n, cin, *hw))
    w = g.normal(size=(cout, cin, *kernel))
    half = [(k - 1) // 2 if padding == "same" else 0 for k in kernel]
    gout = g.normal(size=(n, cout, hw[0] + 2 * half[0] - kernel[0] + 1,
                          hw[1] + 2 * half[1] - kernel[1] + 1))
    whole = _conv_and_grads(x, w, padding, gout)
    monkeypatch.setattr(ad, "_COLUMN_BLOCK_BYTES", 1)
    return whole, _conv_and_grads(x, w, padding, gout)


@pytest.mark.parametrize("cin,cout,kernel,padding", [
    (156, 128, (5, 5), "same"),  # the default AE on Samson's bands
    (128, 64, (3, 3), "same"),
    (64, 32, (3, 3), "same"),
    (32, 3, (1, 1), "same"),
    (3, 156, (1, 1), "same"),  # the per-pixel decoder
    (20, 32, (5, 5), "valid"),
])
def test_conv_is_independent_of_the_column_block_size(monkeypatch, cin, cout, kernel, padding):
    # a training batch of 64 9x9 patches, one output row per block: every
    # output sums its taps in one order, so the forward is bit-equal; the
    # gradients sum over blocks, so they agree to round-off
    whole, rows = _conv_whole_and_in_row_blocks(64, cin, cout, (9, 9), kernel, padding,
                                                monkeypatch)
    assert np.array_equal(rows[0], whole[0])
    for a, b in zip(rows[1:], whole[1:]):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("n,kernel,padding", [(3, (5, 3), "valid"), (3, (3, 5), "same"),
                                              (1, (5, 5), "same")])
def test_conv_blocks_with_ragged_rows_agree_to_round_off(monkeypatch, n, kernel, padding):
    # rows of Wo*N columns that fill no whole BLAS tile: the GEMM may round
    # a block's last columns differently from the same columns of one big
    # product, so the forward is compared to round-off here
    whole, rows = _conv_whole_and_in_row_blocks(n, 6, 5, (11, 8), kernel, padding, monkeypatch)
    for a, b in zip(rows, whole):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("padding", ["valid", "same"])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("rows_per_block", [None, 2])
def test_column_blocks_equal_the_window_view_oracle(monkeypatch, dtype, padding, k,
                                                    rows_per_block):
    # None: one block of every output row; 2: blocks of 2 rows and a ragged last one
    c, h, w, n = 3, 9, 7, 4
    xt = rng(14).normal(size=(c, h, w, n)).astype(dtype)
    ph = pw = (k - 1) // 2 if padding == "same" else 0
    ho, wo = h + 2 * ph - k + 1, w + 2 * pw - k + 1
    if rows_per_block:
        monkeypatch.setattr(ad, "_COLUMN_BLOCK_BYTES",
                            rows_per_block * c * k * k * wo * n * xt.itemsize + 1)
    starts = []
    for span, cols in ad._column_blocks(xt, k, k, ph, pw):
        i0, i1 = span.start // (wo * n), span.stop // (wo * n)
        starts.append(i0)
        assert np.array_equal(cols, block_columns_windows(xt, k, k, ph, pw, i0, i1))
        assert cols.dtype == dtype and cols.strides[1] == xt.itemsize
        # a 1x1 kernel's columns are xt's own rows, a view; any other's are one copy
        assert cols.flags.c_contiguous or (k == 1 and rows_per_block)
    assert starts == list(range(0, ho, rows_per_block or ho))


def test_conv_shape_errors():
    x = ad.Tensor(np.ones((1, 2, 5, 5)))
    with pytest.raises(ValueError, match="odd"):
        ad.conv2d(x, ad.Tensor(np.ones((1, 2, 2, 2))), None)
    with pytest.raises(ValueError, match="channels"):
        ad.conv2d(x, ad.Tensor(np.ones((1, 3, 3, 3))), None)
    with pytest.raises(ValueError, match="bias"):
        ad.conv2d(x, ad.Tensor(np.ones((2, 2, 3, 3))), ad.Tensor(np.ones(3)))
    with pytest.raises(ValueError, match="smaller than kernel"):
        ad.conv2d(x, ad.Tensor(np.ones((1, 2, 7, 7))), None, "valid")


@pytest.mark.parametrize("hw", [5, 9])
@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_conv2d_bias_in_place_matches_conv_plus_add(kernel, hw):
    # the bias is added inside the conv node; output and every gradient
    # must keep the bits of a bias-free conv followed by a broadcast add
    g = rng(31)
    x = g.normal(size=(40, 6, hw, hw))
    w = g.normal(size=(7, 6, kernel, kernel))
    b = g.normal(size=7)
    for padding in ("same", "valid"):
        side = hw if padding == "same" else hw - kernel + 1
        gout = g.normal(size=(40, 7, side, side))
        xt, wt, bt = (ad.Tensor(a, requires_grad=True) for a in (x, w, b))
        out = ad.conv2d(xt, wt, bt, padding)
        grads = ad.backward((out * gout).sum())
        got = (out.data, grads[xt], grads[wt], grads[bt])
        for a, ref in zip(got, conv2d_plus_bias(x, w, b, padding, gout)):
            assert a.shape == ref.shape and np.array_equal(a, ref), padding
        # the output is the pixels-last view a bias-free conv returns
        assert out.data.transpose(1, 2, 3, 0).flags.c_contiguous


def _fused_conv_and_grads(conv, x, w, b, padding, alpha, gout):
    xt, wt, bt = (ad.Tensor(a, requires_grad=True) for a in (x, w, b))
    out = conv(xt, wt, bt, padding, leaky=alpha)
    grads = ad.backward((out * gout).sum())
    return out.data, grads[xt], grads[wt], grads[bt]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("alpha", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("padding", ["same", "valid"])
def test_conv2d_with_its_leaky_relu_is_bit_equal_to_the_conv_and_masked_leaky_relu(
        dtype, alpha, kernel, padding):
    # one node for conv, bias and leaky ReLU: its output and the gradients of
    # x, w and b keep the bits of the conv followed by the masked-copy leaky
    # ReLU node, signed zeros included; channel 0 has zero weights and a -0.0
    # bias, so its outputs are zeros of either sign, and g holds signed zeros
    g = rng(32)
    x = g.normal(size=(40, 6, 7, 7)).astype(dtype)
    w = g.normal(size=(5, 6, kernel, kernel)).astype(dtype)
    w[0] = 0.0
    b = g.normal(size=5).astype(dtype)
    b[0] = -0.0
    side = 7 if padding == "same" else 8 - kernel
    gout = g.normal(size=(5, side, side, 40)).astype(dtype)
    gout[1, 0, 0, :4] = [0.0, -0.0, 0.0, -0.0]
    # the gradient a conv's input gradient hands on, pixels-last, and a C-ordered one
    for grad_out in (gout.transpose(3, 0, 1, 2), np.ascontiguousarray(gout.transpose(3, 0, 1, 2))):
        got = _fused_conv_and_grads(ad.conv2d, x, w, b, padding, alpha, grad_out)
        want = _fused_conv_and_grads(conv2d_leaky_relu_unfused, x, w, b, padding, alpha, grad_out)
        for a, ref in zip(got, want):
            assert a.dtype == ref.dtype == dtype and a.strides == ref.strides
            assert np.array_equal(a, ref) and np.array_equal(np.signbit(a), np.signbit(ref))


def test_gradcheck_conv2d_with_its_leaky_relu():
    g = rng(33)
    for alpha in (0.01, 0.3):
        x = g.uniform(-1, 1, size=(2, 3, 5, 5))
        w = g.uniform(-1, 1, size=(4, 3, 3, 3))
        b = g.uniform(-1, 1, size=4)
        proj = g.normal(size=(2, 4, 5, 5))
        gradcheck(lambda xt, wt, bt: (ad.conv2d(xt, wt, bt, "same", leaky=alpha) * proj).sum(),
                  [x, w, b])


@pytest.mark.parametrize("alpha", [-0.01, 1.5, float("nan")])
def test_conv2d_rejects_a_leaky_slope_outside_zero_to_one(alpha):
    with pytest.raises(ValueError, match="alpha"):
        ad.conv2d(ad.Tensor(np.ones((1, 2, 3, 3))), ad.Tensor(np.ones((2, 2, 1, 1))),
                  leaky=alpha)


# -- fused ReLU MLP ----------------------------------------------------------------

def _relu_mlp_and_grads(x, w1, w2, g):
    w1t, w2t = ad.Tensor(w1, requires_grad=True), ad.Tensor(w2, requires_grad=True)
    out = ad.relu_mlp(x, w1t, w2t)
    grads = ad.backward((out * g).sum())
    return out.data, grads[w1t], grads[w2t]


def _tile_rows(monkeypatch, rows, hidden):
    monkeypatch.setattr(ad, "_HIDDEN_TILE_BYTES", rows * hidden * 8)


@pytest.mark.parametrize("n,hidden,tile_rows,f,dtype", [
    # tiles of 8 rows: one row, a tile less one, one tile, a tile plus one,
    # two whole tiles, and three tiles with a ragged last one of 5 rows
    *(pytest.param(n, 6, 8, 4, np.float64, id=f"{n}-6-8") for n in (1, 7, 8, 9, 16, 29)),
    # the GCN's width at the default tile: two whole tiles and a ragged one
    pytest.param(600, 128, None, 4, np.float64, id="600-128-None"),
    # six features: the weight gradients' identity holds for any F and P
    pytest.param(29, 6, 8, 6, np.float64, id="29-6-8-f6"),
    pytest.param(600, 128, None, 6, np.float64, id="600-128-None-f6"),
    # float32, as the GCN trains, over the same three default tiles
    pytest.param(1200, 128, None, 4, np.float32, id="1200-128-None-float32"),
])
def test_relu_mlp_matches_unfused_composition(monkeypatch, n, hidden, tile_rows, f, dtype):
    g = rng(25)
    x = g.normal(size=(n, f)).astype(dtype)
    w1, w2 = g.normal(size=(f, hidden)).astype(dtype), g.normal(size=(hidden, 3)).astype(dtype)
    gout = g.normal(size=(n, 3)).astype(dtype)
    if tile_rows is None:
        assert 2 * ad._HIDDEN_TILE_BYTES < n * hidden * x.itemsize < 3 * ad._HIDDEN_TILE_BYTES
    else:
        _tile_rows(monkeypatch, tile_rows, hidden)
    got = _relu_mlp_and_grads(x, w1, w2, gout)
    # the oracle in float64 on the same inputs; in float32 the output and
    # both gradients were at most 5.9e-7 of their largest value over eight
    # seeds and F = 3, 4, 6, and the unfused float32 composition 1.2e-6
    want = relu_mlp_unfused(*(a.astype(np.float64) for a in (x, w1, w2, gout)))
    bound = 1e-12 if dtype == np.float64 else 1e-6
    assert 0 < np.count_nonzero(x @ w1 > 0) < n * hidden  # both sides of the kink
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == dtype
        assert np.max(np.abs(a - b)) <= bound * np.max(np.abs(b))


@pytest.mark.parametrize("itemsize,rows", [(8, 256), (4, 512)])
def test_relu_mlp_tiles_cap_the_bytes_of_their_dtype(itemsize, rows):
    tiles = list(ad._row_tiles(3000, 128, itemsize))
    assert rows * 128 * itemsize == ad._HIDDEN_TILE_BYTES
    assert [t.stop - t.start for t in tiles] == [rows] * (3000 // rows) + [3000 % rows]


def test_relu_mlp_peak_memory_stays_below_one_hidden_matrix():
    # the unfused composition holds x @ W1 and its rectified copy, two
    # hidden matrices; in row tiles neither direction builds one
    g = rng(27)
    x = g.random((5000, 3))
    w1 = ad.Tensor(g.normal(size=(3, 128)), requires_grad=True)
    w2 = ad.Tensor(g.normal(size=(128, 3)), requires_grad=True)
    hidden_bytes = 5000 * 128 * 8
    tracemalloc.start()
    try:
        grads = ad.backward(ad.relu_mlp(x, w1, w2).sum())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < hidden_bytes
    assert grads[w1].shape == w1.shape and grads[w2].shape == w2.shape


def test_relu_mlp_backward_holds_one_tile_and_the_products():
    # 7 tiles of 256 rows and one of 208: the backward holds one tile
    # buffer, the (n, F*P) products x[i, f] g[i, p] and the (n, P) output
    # gradient, plus (F*P, hidden) sums; measured 21 KiB above the three
    g = rng(27)
    n = 2000
    x = g.random((n, 3))
    w1 = ad.Tensor(g.normal(size=(3, 128)), requires_grad=True)
    w2 = ad.Tensor(g.normal(size=(128, 3)), requires_grad=True)
    loss = ad.relu_mlp(x, w1, w2).sum()
    tile_bytes = 256 * 128 * 8
    assert tile_bytes == ad._HIDDEN_TILE_BYTES
    peak = traced_peak(lambda: ad.backward(loss))
    assert peak <= tile_bytes + n * 3 * 3 * 8 + n * 3 * 8 + 32 * 2**10, peak


def test_relu_mlp_raises_on_a_non_finite_pre_activation_the_relu_would_zero(monkeypatch):
    # x > 0, so column 2 of x @ W1 is -inf in every row of every tile; the
    # ReLU would turn it into zeros and a finite output
    g = rng(28)
    x = g.uniform(0.1, 1.0, size=(20, 3))
    w1, w2 = g.normal(size=(3, 5)), g.normal(size=(5, 2))
    w1[1, 2] = -np.inf
    _tile_rows(monkeypatch, 8, 5)
    with pytest.raises(ad.NonFiniteError, match="relu_mlp"):
        ad.relu_mlp(x, ad.Tensor(w1, requires_grad=True), ad.Tensor(w2, requires_grad=True))


def test_relu_mlp_shape_errors():
    x = np.ones((4, 3))
    with pytest.raises(ValueError, match="chain"):
        ad.relu_mlp(x, ad.Tensor(np.ones((2, 5))), ad.Tensor(np.ones((5, 2))))
    with pytest.raises(ValueError, match="chain"):
        ad.relu_mlp(x, ad.Tensor(np.ones((3, 5))), ad.Tensor(np.ones((4, 2))))
    with pytest.raises(ValueError, match="2-D"):
        ad.relu_mlp(np.ones(3), ad.Tensor(np.ones((3, 5))), ad.Tensor(np.ones((5, 2))))


# -- scaled softmax ----------------------------------------------------------------

def test_scaled_softmax_symmetry():
    out = ad.scaled_softmax(ad.Tensor([0.0, 0.0, 0.0]), 5.0).data
    assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    out2 = ad.scaled_softmax(ad.Tensor([1.0, 1.0]), 5.0).data
    assert np.allclose(out2, [0.5, 0.5], atol=1e-15)


def test_scaled_softmax_direct_formula():
    x = np.array([0.2, 0.8, 0.5])
    e = np.exp(5.0 * x)
    expected = e / e.sum()
    out = ad.scaled_softmax(ad.Tensor(x), 5.0).data
    assert np.max(np.abs(out - expected)) < 1e-12
    assert abs(out.sum() - 1.0) < 1e-12


def test_scaled_softmax_properties_random():
    g = rng(4)
    for _ in range(50):
        x = ad.Tensor(g.normal(size=(4, 5)))
        out = ad.scaled_softmax(x, 5.0, axis=1).data
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12
        assert out.min() > 0.0 and out.max() < 1.0


def test_scaled_softmax_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        ad.scaled_softmax(ad.Tensor([1.0]), 0.0)


# -- activations --------------------------------------------------------------------

def test_relu_values():
    out = ad.relu(ad.Tensor([-1.0, 0.0, 2.0])).data
    assert np.array_equal(out, [0.0, 0.0, 2.0])


def test_sigmoid_values():
    assert ad.sigmoid(ad.Tensor([0.0])).data[0] == 0.5
    g = rng(5)
    x = g.normal(size=20) * 3
    s = ad.sigmoid(ad.Tensor(x)).data + ad.sigmoid(ad.Tensor(-x)).data
    assert np.max(np.abs(s - 1.0)) < 1e-14


def test_relu_gradient_at_zero_is_zero():
    x = ad.Tensor(np.array([0.0]), requires_grad=True)
    grads = ad.backward(ad.relu(x).sum())
    assert grads[x][0] == 0.0


# -- batch norm ---------------------------------------------------------------------

def test_batch_norm_constant_input_train():
    state = ad.BatchNormState(2)
    x = ad.Tensor(np.full((3, 2, 4, 4), 7.0))
    out = ad.batch_norm(x, state, train=True).data
    assert np.max(np.abs(out)) < 1e-12


def test_batch_norm_infer_identity():
    state = ad.BatchNormState(2, eps=0.0)
    x = ad.Tensor(rng(6).normal(size=(2, 2, 3, 3)))
    out = ad.batch_norm(x, state, train=False).data
    assert np.allclose(out, x.data, atol=1e-15)


def test_batch_norm_train_statistics():
    g = rng(7)
    x = ad.Tensor(g.normal(size=(4, 3, 5, 5)) * 3 + 1)
    out = ad.batch_norm(x, ad.BatchNormState(3, eps=1e-12), train=True).data
    mean = out.mean(axis=(0, 2, 3))
    var = out.var(axis=(0, 2, 3))
    assert np.max(np.abs(mean)) < 1e-10
    assert np.max(np.abs(var - 1.0)) < 1e-10


def test_batch_norm_running_stats_update():
    state = ad.BatchNormState(1, momentum=0.5)
    x = ad.Tensor(np.arange(8.0).reshape(2, 1, 2, 2))
    ad.batch_norm(x, state, train=True)
    assert np.allclose(state.running_mean, 0.5 * 3.5)
    assert np.allclose(state.running_var, 0.5 * 1.0 + 0.5 * x.data.var())


def test_batch_norm_channel_mismatch():
    with pytest.raises(ValueError):
        ad.batch_norm(ad.Tensor(np.ones((1, 3, 2, 2))), ad.BatchNormState(2), True)


# -- backward mechanics ----------------------------------------------------------------

def test_backward_sum_of_squares():
    x = ad.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    grads = ad.backward((x * x).sum())
    assert np.array_equal(grads[x], [2.0, 4.0, 6.0])


def test_backward_sigmoid_dot_at_zero_weights():
    x = np.array([0.3, -1.2, 0.7])
    w = ad.Tensor(np.zeros(3), requires_grad=True)
    loss = ad.sigmoid((w * x).sum())
    grads = ad.backward(loss)
    assert np.allclose(grads[w], 0.25 * x, atol=1e-15)


def test_backward_rejects_nonscalar():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(x * 2)


def test_backward_consumes_tape():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    loss = (x * x).sum()
    ad.backward(loss)
    with pytest.raises(ad.TapeConsumedError):
        ad.backward(loss)


def test_backward_accumulates_shared_parent():
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    y = x * 3.0
    grads = ad.backward((y * y + y).sum())  # d/dx (9x^2 + 3x) = 18x + 3
    assert np.allclose(grads[x], [39.0])


def test_backward_frees_activations_before_the_first_layer_gradient():
    # the first conv's weight gradient, the last VJP of the sweep, builds
    # a column matrix; the activations above it must be freed by then
    g = rng(23)
    tracemalloc.start()
    try:
        w = ad.Tensor(g.normal(size=(8, 8, 5, 5)), requires_grad=True)
        h = ad.conv2d(ad.Tensor(g.normal(size=(16, 8, 9, 9))), w, None, "same")
        for _ in range(20):
            h = h * 1.0001
        loss = h.sum()
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cols_bytes = 8 * 25 * 16 * 9 * 9 * 8
    assert peak - start < cols_bytes


def test_non_finite_forward_raises():
    with pytest.raises(ad.NonFiniteError):
        ad.sqrt(ad.Tensor([np.inf]))


# -- gradient checks vs finite differences ------------------------------------------------

def test_gradcheck_conv2d_instances():
    g = rng(8)
    for i in range(5):
        x = g.uniform(-1, 1, size=(1, 2, 5, 5))
        w = g.uniform(-1, 1, size=(2, 2, 3, 3))
        b = g.uniform(-1, 1, size=2)
        proj = g.normal(size=(1, 2, 5, 5))
        gradcheck(
            lambda xt, wt, bt: (ad.conv2d(xt, wt, bt, "same") * proj).sum(),
            [x, w, b],
        )
        proj_v = g.normal(size=(1, 2, 3, 3))
        gradcheck(
            lambda xt, wt: (ad.conv2d(xt, wt, None, "valid") * proj_v).sum(),
            [x, w],
        )


def test_gradcheck_batch_norm_train_and_infer():
    g = rng(9)
    for train in (True, False):
        x = g.uniform(-1, 1, size=(3, 2, 3, 3))
        gamma = g.uniform(0.5, 1.5, size=2)
        beta = g.uniform(-0.5, 0.5, size=2)
        proj = g.normal(size=(3, 2, 3, 3))

        def loss(xt, gt, bt):
            state = ad.BatchNormState(2)
            state.gamma, state.beta = gt, bt
            state.running_mean = np.array([0.1, -0.2])
            state.running_var = np.array([0.9, 1.3])
            return (ad.batch_norm(xt, state, train=train) * proj).sum()

        gradcheck(loss, [x, gamma, beta])


def test_gradcheck_elementwise_ops():
    g = rng(10)
    x = g.uniform(-0.9, 0.9, size=(4, 3))
    proj = g.normal(size=(4, 3))
    gradcheck(lambda t: (ad.scaled_softmax(t, 5.0, axis=1) * proj).sum(), [x])
    gradcheck(lambda t: (ad.sigmoid(t) * proj).sum(), [x])
    gradcheck(lambda t: (ad.softplus(t) * proj).sum(), [x])
    gradcheck(lambda t: (ad.leaky_relu(t, 0.01) * proj).sum(), [x])
    gradcheck(lambda t: (arccos_clamped(t) * proj).sum(), [x])
    gradcheck(lambda t: (ad.sqrt(t + 2.0) * proj).sum(), [x])
    gradcheck(lambda t: ((t ** 3) * proj).sum(), [x])
    # leaky_relu holds a boolean mask: values and gradients keep the bits
    # of multiplying by a float slope array, signed zeros included
    x[0, :3] = [0.0, -0.0, 1e-300]
    xt = ad.Tensor(x, requires_grad=True)
    out = ad.leaky_relu(xt, 0.01)
    grads = ad.backward((out * proj).sum())
    ref_out, ref_grad = leaky_relu_slope(x, 0.01, proj)
    assert np.array_equal(out.data, ref_out) and np.array_equal(grads[xt], ref_grad)
    assert np.array_equal(np.signbit(out.data), np.signbit(ref_out))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.3, 1.0])
def test_leaky_relu_is_bit_equal_to_the_masked_copy_and_keeps_g_layout(dtype, alpha):
    # x and g pixels-last behind [N,C,H,W] views, as the convs leave them: the VJP
    # must return g's layout, since conv2d's bias gradient sums g in memory order
    g = rng(13)
    x = g.normal(size=(5, 3, 3, 8)).astype(dtype)
    x[0, 0, 0, :3] = [0.0, -0.0, np.finfo(dtype).tiny / 4]
    x = x.transpose(3, 0, 1, 2)
    gout = g.normal(size=(5, 3, 3, 8)).astype(dtype).transpose(3, 0, 1, 2)
    for grad_out in (gout, np.ascontiguousarray(gout)):
        out, grads = [], []
        for op in (ad.leaky_relu, leaky_relu_masked):
            xt = ad.Tensor(x, requires_grad=True)
            y = op(xt, alpha)
            out.append(y.data)
            grads.append(ad.backward((y * grad_out).sum())[xt])
        assert np.array_equal(out[0], out[1]) and np.array_equal(grads[0], grads[1])
        assert np.array_equal(np.signbit(out[0]), np.signbit(out[1]))
        assert np.array_equal(np.signbit(grads[0]), np.signbit(grads[1]))
        assert out[0].dtype == grads[0].dtype == dtype
        assert out[0].strides == x.strides
    node = ad.leaky_relu(ad.Tensor(x, requires_grad=True), alpha)
    for grad_out in (gout, np.ascontiguousarray(gout)):
        assert node._vjps[0](grad_out).strides == grad_out.strides


@pytest.mark.parametrize("alpha", [-0.01, 1.5, float("nan"), float("inf")])
def test_leaky_relu_rejects_alpha_outside_zero_to_one(alpha):
    with pytest.raises(ValueError, match="alpha"):
        ad.leaky_relu(ad.Tensor(np.ones((2, 3))), alpha)


def test_gradcheck_relu_away_from_kink():
    g = rng(11)
    x = g.uniform(-1, 1, size=(5, 4))
    x[np.abs(x) < 1e-3] = 0.5  # finite differences straddle the kink otherwise
    proj = g.normal(size=(5, 4))
    gradcheck(lambda t: (ad.relu(t) * proj).sum(), [x])


def test_gradcheck_matmul_reductions_slicing():
    g = rng(12)
    a = g.uniform(-1, 1, size=(4, 3))
    b = g.uniform(-1, 1, size=(3, 5))
    proj = g.normal(size=(4, 5))
    gradcheck(lambda at, bt: ((at @ bt) * proj).sum(), [a, b])
    x = g.uniform(-1, 1, size=(4, 6))
    gradcheck(lambda t: (t.mean(axis=1) * proj[:, 0]).sum(), [x])
    gradcheck(lambda t: (t[1:3, ::2] * proj[:2, :3]).sum(), [x])
    gradcheck(lambda t: t.reshape(24).sum(), [x])
    gradcheck(lambda t: ((t / (t + 3.0)) * proj[:, :1]).sum(), [x])


def test_getitem_gradient_sums_repeated_indices():
    x = ad.Tensor(np.arange(4.0), requires_grad=True)
    grads = ad.backward(x[[1, 1, 2]].sum())
    assert grads[x].tolist() == [0.0, 2.0, 1.0, 0.0]
    y = ad.Tensor(np.ones((3, 2)), requires_grad=True)
    grads = ad.backward((y[np.array([0, 2, 0, 0])] * np.array([[1.0, 2.0]])).sum())
    assert grads[y].tolist() == [[3.0, 6.0], [0.0, 0.0], [1.0, 2.0]]


def test_gradcheck_sparse_matmul():
    import scipy.sparse as sp

    g = rng(13)
    mat = sp.random(6, 6, density=0.4, random_state=3, format="csr")
    mat = (mat + mat.T).tocsr()
    y = g.uniform(-1, 1, size=(6, 3))
    proj = g.normal(size=(6, 3))
    gradcheck(lambda t: (ad.sparse_matmul(mat, t) * proj).sum(), [y])


def test_gradcheck_relu_mlp_across_tiles(monkeypatch):
    g = rng(14)
    x = g.uniform(-1, 1, size=(11, 3))
    w1 = g.uniform(-1, 1, size=(3, 4))
    w2 = g.uniform(-1, 1, size=(4, 2))
    # finite differences straddle the kink if a pre-activation is near 0
    assert np.min(np.abs(x @ w1)) > 1e-3
    proj = g.normal(size=(11, 2))
    _tile_rows(monkeypatch, 3, 4)
    gradcheck(lambda a, b: (ad.relu_mlp(x, a, b) * proj).sum(), [w1, w2])


# -- Adam ------------------------------------------------------------------------------

def test_adam_zero_gradient_leaves_params():
    p = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = ad.Adam([p], lr=0.1)
    opt.step({p: np.zeros(2)})
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_magnitude():
    p = ad.Tensor(np.array([0.0]), requires_grad=True)
    opt = ad.Adam([p], lr=0.001)
    opt.step({p: np.ones(1)})
    # bias-corrected m_hat/sqrt(v_hat) = 1 on the first step
    assert abs(p.data[0] + 0.001) < 1e-9


def test_adam_matches_scalar_reference_on_quadratic():
    reference = adam_scalar_reference(lambda w: 2.0 * (w - 3.0), 0.0, 0.1, 200)
    p = ad.Tensor(np.array([0.0]), requires_grad=True)
    opt = ad.Adam([p], lr=0.1)
    path = [p.data[0]]
    for _ in range(200):
        loss = ((p - 3.0) ** 2).sum()
        opt.step(ad.backward(loss))
        path.append(p.data[0])
    assert np.max(np.abs(np.array(path) - np.array(reference))) < 1e-12
    assert abs(p.data[0] - 3.0) < 0.1


def test_adam_step_in_place_matches_the_out_of_place_reference():
    g = rng(15)
    shapes = [(3,), (4, 5), (2, 3, 3, 3)]
    params = [ad.Tensor(g.normal(size=s), requires_grad=True) for s in shapes]
    ref = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    opt = ad.Adam(params, lr=0.01)
    for t in range(1, 51):
        # every parameter misses its gradient on some steps, each on its own
        grads = [None if (t + i) % (3 + i) == 0
                 else g.normal(size=s) * 10.0 ** g.integers(-6, 3)
                 for i, s in enumerate(shapes)]
        opt.step({p: gr for p, gr in zip(params, grads) if gr is not None})
        adam_step_reference(ref, grads, m, v, t, lr=0.01)
        for i, p in enumerate(params):
            assert np.array_equal(p.data, ref[i])
            assert np.array_equal(opt.m[i], m[i]) and np.array_equal(opt.v[i], v[i])


# -- the training loop -------------------------------------------------------------------

def test_fit_reports_a_non_finite_value_as_divergence_at_its_epoch():
    p = ad.Tensor(np.ones(2), requires_grad=True)
    cause = ad.NonFiniteError("non-finite values produced by op 'conv2d'")
    seen = []

    def epoch(i, optimizer):
        seen.append((i, optimizer, optimizer.step_count))
        for _ in range(2):
            optimizer.step(ad.backward((p * p).sum()))
        if i == 2:
            raise cause
        return i

    with pytest.raises(ad.DivergenceError) as err:
        ad.fit([p], 5, 0.1, epoch)
    assert err.value.epoch == 2 and err.value.__cause__ is cause
    assert [i for i, _, _ in seen] == [0, 1, 2]
    assert len({id(optimizer) for _, optimizer, _ in seen}) == 1
    # one optimizer: its step count and moments carry across epochs
    assert [count for *_, count in seen] == [0, 2, 4]
    assert seen[0][1].step_count == 6


def test_fit_returns_each_epochs_row_and_checks_the_last_step():
    p = ad.Tensor(np.array([3.0, -1.0]), requires_grad=True)

    def epoch(i, optimizer):
        loss = ((p - 1.0) ** 2).sum()
        optimizer.step(ad.backward(loss))
        return i, loss.item()

    rows = ad.fit([p], 3, 0.1, epoch)
    assert [i for i, _ in rows] == [0, 1, 2] and rows[2][1] < rows[0][1]
    assert ad.fit([p], 0, 0.1, epoch) == []

    def poison_last(i, optimizer):
        epoch(i, optimizer)
        if i == 2:  # a non-finite weight that no later forward reads
            p.data[1] = np.inf

    with pytest.raises(ad.DivergenceError) as err:
        ad.fit([p], 3, 0.1, poison_last)
    assert err.value.epoch == 2 and err.value.__cause__ is None


# -- determinism -----------------------------------------------------------------------

def _tiny_training_run(seed):
    r = SplitMix64(seed)
    w = ad.glorot_uniform((3, 3), 3, 3, r)
    x = ad.Tensor(r.uniform(-1, 1, (5, 3)))
    t = r.uniform(0, 1, (5, 3))
    opt = ad.Adam([w], lr=0.01)
    losses = []
    for _ in range(20):
        loss = (((x @ w) - t) ** 2).mean()
        opt.step(ad.backward(loss))
        losses.append(loss.item())
    return losses, w.data.copy()


def test_identical_seed_identical_trajectory():
    l1, w1 = _tiny_training_run(42)
    l2, w2 = _tiny_training_run(42)
    assert l1 == l2
    assert np.array_equal(w1, w2)


def test_glorot_uniform_range():
    r = SplitMix64(3)
    t = ad.glorot_uniform((50, 40), 50, 40, r)
    limit = np.sqrt(6.0 / 90)
    assert t.requires_grad
    assert t.data.min() >= -limit and t.data.max() <= limit


def test_no_grad_blocks_recording():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = (x * x).sum()
    assert not y.requires_grad and y._parents == ()


# -- dtypes ---------------------------------------------------------------------------------

def test_tensor_keeps_float32_and_makes_other_input_float64():
    assert ad.Tensor(np.ones(3, np.float32)).data.dtype == np.float32
    assert ad.Tensor(np.float32(2.0)).data.dtype == np.float32
    for other in ([1, 2], [0.5], 3, 2.5, np.arange(3), np.ones(2, np.float16), np.ones(2)):
        assert ad.Tensor(other).data.dtype == np.float64, other
    x64 = np.ones(3)
    assert ad.Tensor(x64).data is x64  # float64 input is not copied


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_python_scalars_take_the_tensor_dtype(dtype):
    # a 0-d float64 constant is a strong type under NEP 50 and would
    # promote float32 work; every scalar form must keep the tensor's dtype
    x = ad.Tensor(np.array([0.5, 1.5, 2.0], dtype=dtype), requires_grad=True)
    outs = [x + 1, 1 + x, x - 1e-24, 1 - x, x * 0.5, 0.5 * x, x * np.float64(0.5), x / 3,
            3 / x, x ** 2, x ** 0.5, -x, x.mean(), x.mean(axis=0), ad.sqrt(x + 1e-24)]
    for y in outs:
        assert y.data.dtype == dtype, y
    grads = ad.backward(sum(y.sum() for y in outs))
    assert grads[x].dtype == dtype


def test_float32_conv2d_and_its_vjps_stay_float32_near_float64():
    g = rng(30)
    x = g.normal(size=(6, 5, 7, 9))
    w = g.normal(size=(4, 5, 3, 3))
    gout = g.normal(size=(6, 4, 7, 9))
    want = _conv_and_grads(x, w, "same", gout)
    got = _conv_and_grads(x.astype(np.float32), w.astype(np.float32), "same",
                          gout.astype(np.float32))
    for a, b in zip(got, want):
        assert a.dtype == np.float32
        assert np.max(np.abs(a - b)) <= 1e-5 * np.max(np.abs(b))


def test_float32_relu_mlp_and_its_vjps_stay_float32():
    g = rng(31)
    x = g.normal(size=(9, 4)).astype(np.float32)
    w1 = ad.Tensor(g.normal(size=(4, 6)).astype(np.float32), requires_grad=True)
    w2 = ad.Tensor(g.normal(size=(6, 2)).astype(np.float32), requires_grad=True)
    out = ad.relu_mlp(x, w1, w2)
    grads = ad.backward(out.sum())
    assert out.data.dtype == grads[w1].dtype == grads[w2].dtype == np.float32


def test_adam_keeps_a_float32_parameter_float32():
    p = ad.Tensor(np.ones(4, np.float32), requires_grad=True)
    opt = ad.Adam([p], lr=1e-2)
    for _ in range(3):
        opt.step(ad.backward((p * p).sum()))
    assert p.data.dtype == opt.m[0].dtype == opt.v[0].dtype == np.float32
    assert np.all(p.data < 1)
