"""Tensor engine tests: forward values against oracles, gradients against
central finite differences, optimizer behavior, and determinism."""
import tracemalloc

import numpy as np
import pytest

from aegem import autodiff as ad
from aegem.autoencoder import TapPattern, pixel_sources
from aegem.rng import SplitMix64

from oracles import (adam_scalar_reference, conv2d_einsum, conv2d_loops,
                     finite_diff_grads, gradcheck, max_rel_err, relu_mlp_unfused)


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
    ad.backward((out * gout).sum())
    return out.data, xt.grad, wt.grad


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
    ad.backward(out.sum())
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


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
        ad.backward(ad.conv2d(x, w, None, "same").sum())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_columns
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


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


# -- patch_conv ------------------------------------------------------------------------

def _image_patches(image, ps, centers):
    """The zero-padded ps x ps patches of an (H, W, L) image around `centers`,
    gathered one at a time, and the padded image as a (pixels, L) table."""
    half = ps // 2
    padded = np.pad(image, ((half, half), (half, half), (0, 0)))
    patches = np.stack([padded[r : r + ps, c : c + ps].transpose(2, 0, 1) for r, c in centers])
    return patches, padded.reshape(-1, image.shape[2])


def _edge_centers(h, w, count, g):
    """The four corners, four edge midpoints, then random centers: `count` in all."""
    fixed = [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1),
             (0, w // 2), (h - 1, w // 2), (h // 2, 0), (h // 2, w - 1)]
    extra = [(int(g.integers(h)), int(g.integers(w))) for _ in range(max(0, count - 8))]
    return np.array((fixed + extra)[:count])


def _patch_conv_against_conv2d(image, ps, kernel, cout, centers, pattern=None, seed=30):
    """(output, weight gradient, bias gradient) of patch_conv and of conv2d on
    the gathered patches, for one random weight, bias and output gradient."""
    g = rng(seed)
    patches, table = _image_patches(image, ps, centers)
    pattern = pattern or TapPattern(ps, kernel)
    taps = pattern.batch(pixel_sources(*image.shape[:2], ps)[centers[:, 0], centers[:, 1]])
    w = g.normal(size=(cout, image.shape[2], kernel, kernel))
    b = g.normal(size=cout)
    gout = g.normal(size=(len(centers), cout, ps, ps))
    results = []
    for conv in (lambda wt, bt: ad.conv2d(ad.Tensor(patches), wt, bt, "same"),
                 lambda wt, bt: ad.patch_conv(table, taps.pixel_ids, wt, taps.taps,
                                              taps.taps_t, taps.shape, bt)):
        wt, bt = ad.Tensor(w, requires_grad=True), ad.Tensor(b, requires_grad=True)
        out = conv(wt, bt)
        grads = ad.backward((out * gout).sum())
        results.append((out.data, grads[wt], grads[bt]))
    return results


def _assert_patch_conv_matches(results):
    (out, gw, gb), (ref_out, ref_gw, ref_gb) = results[1], results[0]
    assert out.shape == ref_out.shape
    assert np.max(np.abs(out - ref_out)) <= 1e-12
    assert np.max(np.abs(gw - ref_gw)) <= 1e-12 * np.max(np.abs(ref_gw))
    assert np.max(np.abs(gb - ref_gb)) <= 1e-12 * np.max(np.abs(ref_gb))


@pytest.mark.parametrize("ps", [5, 9])
@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_patch_conv_matches_conv2d_on_the_gathered_patches(ps, kernel):
    g = rng(31)
    image = g.uniform(0, 1, size=(14, 11, 6))
    centers = _edge_centers(14, 11, 40, g)
    results = _patch_conv_against_conv2d(image, ps, kernel, 7, centers)
    _assert_patch_conv_matches(results)
    # the output is the same pixels-last view conv2d returns
    assert results[1][0].transpose(1, 2, 3, 0).flags.c_contiguous


@pytest.mark.parametrize("ps,kernel", [(5, 3), (9, 5)])
@pytest.mark.parametrize("hw", [(1, 1), (2, 3), (4, 1), (4, 4)])
def test_patch_conv_on_an_image_smaller_than_the_patch(hw, ps, kernel):
    g = rng(32)
    image = g.uniform(0, 1, size=(*hw, 3))
    centers = np.array([(r, c) for r in range(hw[0]) for c in range(hw[1])])
    _assert_patch_conv_matches(_patch_conv_against_conv2d(image, ps, kernel, 4, centers))


def test_patch_conv_serves_a_ragged_last_batch_from_one_pattern():
    # 64 patches, then the 7 left over, with the pattern built once
    g = rng(33)
    image = g.uniform(0, 1, size=(12, 10, 5))
    pattern = TapPattern(9, 5)
    for count in (64, 7, 64):
        centers = _edge_centers(12, 10, count, g)
        _assert_patch_conv_matches(_patch_conv_against_conv2d(image, 9, 5, 6, centers, pattern))


def test_patch_conv_reads_each_pixel_once():
    # overlapping patches share pixels, and the zero border is one pixel
    taps = TapPattern(9, 5).batch(pixel_sources(6, 6, 9)[[0, 0, 5, 2], [0, 5, 5, 3]])
    assert taps.pixel_ids.size == 36 + 1
    assert taps.taps.shape == (4 * 81, 37 * 25) and taps.taps_t.shape == (37 * 25, 4 * 81)
    # each patch pixel has one entry per in-patch tap: 13 of 25 at a corner
    assert np.diff(taps.taps.indptr)[[0, 40, 81]].tolist() == [9, 25, 9]
    # per axis 39 of the 9*5 (pixel, tap) pairs stay inside the patch
    assert taps.taps.nnz == 4 * 39**2


def _patch_conv_peak(table, taps, w):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.patch_conv(table, taps.pixel_ids, w, taps.taps, taps.taps_t, taps.shape)
        ad.backward(out.sum())
        return tracemalloc.get_traced_memory()[1] - before, out.data.nbytes
    finally:
        tracemalloc.stop()


def test_patch_conv_peak_memory_stays_within_one_block_of_projections(monkeypatch):
    # 64 9x9 patches of a 24x24x40 image: the whole (U*25, 64) tap
    # projection is 7.4 MB.  Beyond its output, the output's gradient and a
    # few weight-sized arrays, the op holds one block under the cap at a
    # time; built whole, the projection and its gradient break that bound
    g = rng(34)
    image = g.uniform(0, 1, size=(24, 24, 40))
    centers = _edge_centers(24, 24, 64, g)
    _, table = _image_patches(image, 9, centers)
    taps = TapPattern(9, 5).batch(pixel_sources(24, 24, 9)[centers[:, 0], centers[:, 1]])
    w = ad.Tensor(g.normal(size=(64, 40, 5, 5)), requires_grad=True)
    cap = 2**20
    monkeypatch.setattr(ad, "_COLUMN_BLOCK_BYTES", cap)
    peak, out_bytes = _patch_conv_peak(table, taps, w)
    bound = 2 * out_bytes + 3 * w.data.nbytes + 2 * cap
    assert peak <= bound
    monkeypatch.setattr(ad, "_COLUMN_BLOCK_BYTES", 2**40)
    assert _patch_conv_peak(table, taps, w)[0] > bound


def test_patch_conv_shape_errors():
    taps = TapPattern(5, 3).batch(pixel_sources(4, 4, 5)[[0, 1], [0, 2]])
    table = np.ones((64, 2))
    w = ad.Tensor(np.ones((3, 2, 3, 3)))
    ids = taps.pixel_ids
    with pytest.raises(ValueError, match="channels"):
        ad.patch_conv(np.ones((64, 3)), ids, w, taps.taps, taps.taps_t, taps.shape)
    with pytest.raises(ValueError, match="bias"):
        ad.patch_conv(table, ids, w, taps.taps, taps.taps_t, taps.shape, ad.Tensor(np.ones(2)))
    with pytest.raises(ValueError, match="tap operators"):
        ad.patch_conv(table, ids, ad.Tensor(np.ones((3, 2, 5, 5))), taps.taps, taps.taps_t,
                      taps.shape)
    with pytest.raises(ValueError, match="tap operators"):
        ad.patch_conv(table, ids, w, taps.taps, taps.taps_t, (3, 5, 5))


# -- fused ReLU MLP ----------------------------------------------------------------

def _relu_mlp_and_grads(x, w1, w2, g):
    w1t, w2t = ad.Tensor(w1, requires_grad=True), ad.Tensor(w2, requires_grad=True)
    out = ad.relu_mlp(x, w1t, w2t)
    grads = ad.backward((out * g).sum())
    return out.data, grads[w1t], grads[w2t]


def _tile_rows(monkeypatch, rows, hidden):
    monkeypatch.setattr(ad, "_HIDDEN_TILE_BYTES", rows * hidden * 8)


@pytest.mark.parametrize("n,hidden,tile_rows", [
    # tiles of 8 rows: one row, a tile less one, one tile, a tile plus one,
    # two whole tiles, and three tiles with a ragged last one of 5 rows
    (1, 6, 8), (7, 6, 8), (8, 6, 8), (9, 6, 8), (16, 6, 8), (29, 6, 8),
    # the GCN's width at the default tile: two whole tiles and a ragged one
    (1200, 128, None),
])
def test_relu_mlp_matches_unfused_composition(monkeypatch, n, hidden, tile_rows):
    g = rng(25)
    x = g.normal(size=(n, 4))
    w1, w2 = g.normal(size=(4, hidden)), g.normal(size=(hidden, 3))
    gout = g.normal(size=(n, 3))
    if tile_rows is None:
        assert 2 * ad._HIDDEN_TILE_BYTES < n * hidden * 8 < 3 * ad._HIDDEN_TILE_BYTES
    else:
        _tile_rows(monkeypatch, tile_rows, hidden)
    got = _relu_mlp_and_grads(x, w1, w2, gout)
    want = relu_mlp_unfused(x, w1, w2, gout)
    assert 0 < np.count_nonzero(x @ w1 > 0) < n * hidden  # both sides of the kink
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


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
        ad.backward(ad.relu_mlp(x, w1, w2).sum())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < hidden_bytes
    assert w1.grad.shape == w1.shape and w2.grad.shape == w2.shape


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
        ad.log(ad.Tensor([0.0]))


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
    gradcheck(lambda t: (ad.arccos(t) * proj).sum(), [x])
    gradcheck(lambda t: (ad.exp(t) * proj).sum(), [x])
    gradcheck(lambda t: (ad.sqrt(t + 2.0) * proj).sum(), [x])
    gradcheck(lambda t: (ad.log(t + 2.0) * proj).sum(), [x])
    gradcheck(lambda t: ((t ** 3) * proj).sum(), [x])


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


def test_gradcheck_patch_conv():
    g = rng(35)
    image = g.uniform(0, 1, size=(4, 5, 3))
    centers = np.array([(0, 0), (3, 4), (1, 2), (2, 0)])
    _, table = _image_patches(image, 5, centers)
    taps = TapPattern(5, 3).batch(pixel_sources(4, 5, 5)[centers[:, 0], centers[:, 1]])
    proj = g.normal(size=(4, 2, 5, 5))
    gradcheck(lambda w, b: (ad.patch_conv(table, taps.pixel_ids, w, taps.taps, taps.taps_t,
                                          taps.shape, b) * proj).sum(),
              [g.normal(size=(2, 3, 3, 3)), g.normal(size=2)])


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
    mat_t = mat.T.tocsr()
    gradcheck(lambda t: (ad.sparse_matmul(mat, t, mat_t) * proj).sum(), [y])


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
