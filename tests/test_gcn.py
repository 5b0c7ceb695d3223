"""Normalized operator, GCN forward/training, checkpoints."""
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from aegem import autodiff as ad
from aegem.gcn import (GcnConfig, GcnModel, _train_epochs, bce_with_logits, forward,
                       normalized_operator, sample_labels, save_gcn, train_gcn)
from aegem.graph import EllipticalGraph, build_graph
from aegem.hsi import HsiCube, SceneSpec, synthesize_scene, normalize
from aegem.rng import SplitMix64

from oracles import gradcheck, normalized_operator_scipy, read_aew, train_gcn_full_graph
from page_faults import traced_peak


def small_graph(h=6, w=6, l=5, seed=0, a=1, b=1):
    rng = np.random.default_rng(seed)
    cube = HsiCube(rng.uniform(0.05, 1.0, size=(h, w, l)))
    return cube, build_graph(cube, a, b)


def single_node_graph():
    return EllipticalGraph(1, 1, np.array([[0, 0]]),
                           np.empty((0, 2), dtype=np.int64),
                           edge_weights=np.empty(0))


def dense(op):
    """A `Sparse` operator as a dense array, through scipy."""
    return sp.csr_matrix((op.vals, (op.rows, op.cols)), shape=op.shape).toarray()


# -- normalized operator -------------------------------------------------------------

def test_operator_single_node_is_identity():
    op = normalized_operator(single_node_graph())
    assert op.shape == (1, 1)
    assert dense(op)[0, 0] == 1.0


def test_operator_two_nodes_closed_form():
    s = 0.3
    graph = EllipticalGraph(1, 2, np.array([[0, 0]]),
                            np.array([[0, 1]]), edge_weights=np.array([s]))
    op = dense(normalized_operator(graph))
    e = np.exp(-s)
    d = 1.0 + e
    expected = np.array([[1.0 / d, e / d], [e / d, 1.0 / d]])
    assert np.allclose(op, expected, atol=1e-15)


def test_operator_symmetric_nonnegative():
    cube, graph = small_graph(8, 8, 4, seed=1, a=2, b=2)
    op = dense(normalized_operator(graph))
    assert np.max(np.abs(op - op.T)) < 1e-12
    assert op.min() >= 0.0


def test_operator_spectrum_in_zero_two():
    # I - op is a normalized Laplacian; eigenvalues in [0, 2]
    rng = np.random.default_rng(2)
    for trial in range(10):
        h, w = rng.integers(3, 8, size=2)
        cube = HsiCube(rng.uniform(0.05, 1, size=(int(h), int(w), 4)))
        graph = build_graph(cube, 1, 2)
        op = dense(normalized_operator(graph))
        evals = np.linalg.eigvalsh(np.eye(op.shape[0]) - op)
        assert evals.min() >= -1e-9 and evals.max() <= 2.0 + 1e-9


def _assert_same_csr(op, ref):
    assert op.shape == ref.shape and op.nnz == ref.nnz
    coo = ref.tocoo()
    assert np.array_equal(op.rows, coo.row)
    assert np.array_equal(op.cols, coo.col)
    assert np.array_equal(op.vals, coo.data)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(h=st.integers(1, 16), w=st.integers(1, 16), a=st.integers(1, 4), b=st.integers(1, 4),
       stride_r=st.none() | st.integers(1, 8), stride_c=st.none() | st.integers(1, 8),
       seed=st.integers(0, 2**16))
def test_operator_matches_scipy_bit_for_bit(h, w, a, b, stride_r, stride_c, seed):
    rng = np.random.default_rng(seed)
    graph = build_graph(HsiCube(rng.uniform(0.05, 1.0, size=(h, w, 4))), a, b,
                        stride_r, stride_c)
    op, ref = normalized_operator(graph), normalized_operator_scipy(graph)
    _assert_same_csr(op, ref)
    n = h * w
    for shape in [(n,), (n, 1), (n, 3), (n, 11)]:
        x = rng.normal(size=shape)
        assert np.array_equal(op @ x, ref @ x)
    labels = np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
    rows_op, field = op.restrict(labels)
    assert np.array_equal(field, np.unique(ref[labels].indices))
    rows_ref = ref[labels][:, field]
    _assert_same_csr(rows_op, rows_ref)
    assert np.array_equal(dense(rows_op), rows_ref.toarray())
    x = rng.normal(size=(field.size, 3))
    assert np.array_equal(rows_op @ x, rows_ref @ x)
    g = rng.normal(size=(labels.size, 3))
    assert np.array_equal(rows_op.T @ g, rows_ref.T.tocsr() @ g)
    assert np.array_equal(rows_op.T @ g, rows_ref.T @ g)


def test_a_float32_operand_gives_the_float64_product_rounded_once():
    graph = small_graph(7, 6, 3, seed=5, a=2, b=1)[1]
    op = normalized_operator(graph)
    rows_op, _ = op.restrict(np.array([3, 8, 17, 40]))
    rng = np.random.default_rng(5)
    for matrix in (op, op.T, rows_op, rows_op.T):
        for shape in [(matrix.shape[1],), (matrix.shape[1], 1), (matrix.shape[1], 4)]:
            x = rng.normal(size=shape).astype(np.float32)
            got = matrix @ x
            assert got.dtype == np.float32
            assert np.array_equal(got, (matrix @ x.astype(np.float64)).astype(np.float32))


@pytest.mark.parametrize("rows", [[1, 3, 3], [1, 5, 3], [-1, 2, 4], [0, 4, 9]],
                         ids=["repeated", "descending", "negative", "too-large"])
def test_restrict_rejects_rows_not_sorted_distinct_and_in_range(rows):
    # an unchecked renumbering would give such a label an empty row, and so
    # a logit of 0, without a word
    op = normalized_operator(small_graph(3, 3, 3, seed=1)[1])
    with pytest.raises(IndexError, match=re.escape("sorted, distinct and in 0..8")):
        op.restrict(np.array(rows))


def test_operator_adds_a_self_edge_into_the_self_loop_as_scipy_does():
    graph = EllipticalGraph(1, 3, np.array([[0, 1]]),
                            np.array([[1, 0], [1, 1], [1, 2]]),
                            edge_weights=np.array([0.3, 0.7, 0.2]))
    op = normalized_operator(graph)
    _assert_same_csr(op, normalized_operator_scipy(graph))
    assert op.nnz == 7


@pytest.mark.parametrize("edge", [(0, 4), (4, 1), (-1, 2), (3, -2)])
def test_operator_rejects_an_edge_endpoint_outside_the_graph(edge):
    # scipy's coo_matrix raised on these; an unchecked numpy build would
    # fold (0, 4) into (1, 0) of the 2x2 scene without a word
    graph = EllipticalGraph(2, 2, np.array([[0, 0]]),
                            np.array([[0, 1], [0, 2], edge, [0, 3]]),
                            edge_weights=np.full(4, 0.2))
    with pytest.raises(ValueError, match=re.escape(f"edge 2 ({edge[0]}, {edge[1]})")):
        normalized_operator(graph)


def test_operator_peak_memory_stays_below_three_times_its_entries():
    # a large_scene-shaped graph, 12544 pixels under the default kernel; the
    # vstack and two np.unique build held 3.9 times the entries it returned
    rng = np.random.default_rng(29)
    graph = build_graph(HsiCube(rng.uniform(0.05, 1.0, size=(112, 112, 4))), 3, 5)
    got = []
    peak = traced_peak(lambda: got.append(normalized_operator(graph)))
    op = got[0]
    assert op.shape == (112 * 112, 112 * 112)
    assert peak < 3 * (op.rows.nbytes + op.cols.nbytes + op.vals.nbytes)


# -- forward --------------------------------------------------------------------------

def test_forward_zero_weights_uniform():
    cube, graph = small_graph()
    op = normalized_operator(graph)
    model = GcnModel(op, 3, 8, 3, SplitMix64(0))
    model.w1.data[:] = 0.0
    model.w2.data[:] = 0.0
    out = forward(model, np.random.default_rng(0).uniform(size=(36, 3)))
    assert np.allclose(out, 1.0 / 3.0, atol=1e-12)


def test_forward_rows_sum_to_one_entries_in_range():
    cube, graph = small_graph(7, 5, 4, seed=3)
    op = normalized_operator(graph)
    rng = np.random.default_rng(4)
    for _ in range(10):
        model = GcnModel(op, 4, 6, 3, SplitMix64(rng.integers(1 << 30)))
        y = rng.normal(size=(35, 4))
        out = forward(model, y)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_forward_is_the_sigmoid_head_renormalized():
    cube, graph = small_graph()
    model = GcnModel(normalized_operator(graph), 3, 8, 2, SplitMix64(5))
    y = np.random.default_rng(6).uniform(size=(36, 3))
    raw = ad.sigmoid(model.logits(y)).data
    renorm = forward(model, y)
    assert np.allclose(renorm, raw / raw.sum(axis=1, keepdims=True), atol=1e-9)


def test_forward_permutation_equivariance():
    cube, graph = small_graph(6, 6, 4, seed=7)
    op = dense(normalized_operator(graph))
    rng = np.random.default_rng(8)
    perm = rng.permutation(36)
    y = rng.uniform(size=(36, 3))

    model = GcnModel(sp.csr_matrix(op), 3, 5, 3, SplitMix64(9))
    out = forward(model, y)
    model_p = GcnModel(sp.csr_matrix(op[np.ix_(perm, perm)]), 3, 5, 3, SplitMix64(9))
    model_p.w1.data = model.w1.data.copy()
    model_p.w2.data = model.w2.data.copy()
    out_p = forward(model_p, y[perm])
    assert np.allclose(out_p, out[perm], atol=1e-12)


# -- gradients --------------------------------------------------------------------------

def test_gradcheck_gcn_layers_and_bce():
    cube, graph = small_graph(4, 3, 4, seed=10)
    op = normalized_operator(graph)
    rng = np.random.default_rng(11)
    y = rng.uniform(-1, 1, size=(12, 3))
    targets = rng.uniform(0.1, 0.9, size=(12, 2))
    w1_0 = rng.uniform(-1, 1, size=(3, 5))
    w2_0 = rng.uniform(-1, 1, size=(5, 2))

    def loss(w1, w2):
        h = ad.relu(ad.sparse_matmul(op, ad.Tensor(y)) @ w1)
        z = ad.sparse_matmul(op, h) @ w2
        return bce_with_logits(z, targets)

    gradcheck(loss, [w1_0, w2_0])


@pytest.mark.parametrize("rows", [slice(None), np.array([4, 0, 7, 2, 9])])
def test_fused_bce_gradchecks_and_equals_the_composite_loss(rows):
    rng = np.random.default_rng(12)
    z0 = rng.normal(0, 3, size=(10, 3))
    targets = rng.uniform(0, 1, size=(10, 3))
    gradcheck(lambda z: bce_with_logits(z, targets, rows), [z0])
    for dtype in (np.float64, np.float32):
        z = ad.Tensor(z0.astype(dtype), requires_grad=True)
        fused = bce_with_logits(z, targets.astype(dtype), rows)
        grad = ad.backward(fused)[z]
        z_ref = ad.Tensor(z0.astype(dtype), requires_grad=True)
        t = ad.Tensor(targets[rows].astype(dtype))
        composite = (ad.softplus(z_ref[rows]) - t * z_ref[rows]).mean()
        want = ad.backward(composite)[z_ref]
        assert fused.data.dtype == grad.dtype == dtype
        assert fused.item() == composite.item()
        # (sigmoid(z) - t)/n against sigmoid(z)/n - t/n: a few ulps apart
        assert np.max(np.abs(grad - want)) <= 4 * np.finfo(dtype).eps * np.max(np.abs(want))
        outside = np.ones(10, bool)
        outside[rows] = False
        assert not grad[outside].any()


# -- training ----------------------------------------------------------------------------

def _scene_setup(seed=0):
    cube, gt = synthesize_scene(SceneSpec(12, 12, 8, 3, smoothness=1.0), seed)
    cube = normalize(cube)
    graph = build_graph(cube, 2, 2)
    features = gt.abundances.reshape(-1, 3) * 0.8 + 0.2 / 3  # blurred proxy features
    return cube, gt, graph, features


def test_train_gcn_loss_decreases():
    cube, gt, graph, features = _scene_setup()
    idx, targets = sample_labels(gt.abundances, 0.3, SplitMix64(1))
    config = GcnConfig(hidden=16, epochs=200)
    model, history = train_gcn(graph, features, idx, targets, config, 2)
    assert history[-1][1] < history[0][1]
    assert len(history) == 200


def test_train_gcn_improves_on_held_out_labels():
    # features at realistic autoencoder quality: heavily mixed toward uniform
    cube, gt, graph, _ = _scene_setup(seed=3)
    rng = np.random.default_rng(30)
    truth_rows = gt.abundances.reshape(-1, 3)
    features = 0.45 * truth_rows + 0.55 / 3 + rng.normal(0, 0.02, truth_rows.shape)
    idx, targets = sample_labels(gt.abundances, 0.3, SplitMix64(4))
    config = GcnConfig(hidden=128, epochs=600)
    model, history = train_gcn(graph, features, idx, targets, config, 5)
    out = forward(model, features)
    n_val = idx.size // 10
    val_rows = SplitMix64(5).split(1).permutation(idx.size)[:n_val]
    val_idx = idx[val_rows]
    gcn_err = np.sqrt(np.mean((out[val_idx] - truth_rows[val_idx]) ** 2))
    ae_err = np.sqrt(np.mean((features[val_idx] - truth_rows[val_idx]) ** 2))
    assert gcn_err < ae_err


def test_train_gcn_deterministic():
    cube, gt, graph, features = _scene_setup(seed=6)
    idx, targets = sample_labels(gt.abundances, 0.2, SplitMix64(7))
    config = GcnConfig(hidden=8, epochs=50)
    m1, h1 = train_gcn(graph, features, idx, targets, config, 8)
    m2, h2 = train_gcn(graph, features, idx, targets, config, 8)
    assert np.array_equal(m1.w1.data, m2.w1.data)
    assert np.array_equal(m1.w2.data, m2.w2.data)
    assert h1 == h2


def test_train_gcn_divergence_reported():
    cube, gt, graph, features = _scene_setup(seed=9)
    idx, targets = sample_labels(gt.abundances, 0.2, SplitMix64(10))
    corrupted = features.copy()
    corrupted[3, 1] = np.nan  # upstream corruption surfaces as divergence
    config = GcnConfig(hidden=8, epochs=100)
    with pytest.raises(ad.DivergenceError) as err:
        train_gcn(graph, corrupted, idx, targets, config, 11)
    assert err.value.epoch == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # diverges on purpose
def test_train_gcn_reports_a_divergence_in_the_last_step():
    # one epoch: no forward follows the step that makes the weights
    # non-finite, and train_gcn returned them
    cube, gt = synthesize_scene(SceneSpec(12, 12, 6, 3), 1)
    graph = build_graph(normalize(cube), 2, 2)
    idx, targets = sample_labels(gt.abundances, 0.2, SplitMix64(2))
    config = GcnConfig(hidden=8, epochs=1, learning_rate=3.3e38)
    with pytest.raises(ad.DivergenceError) as err:
        train_gcn(graph, gt.abundances.reshape(-1, 3) * 1e3, idx, targets, config, 1)
    assert err.value.epoch == 0


def _initial_model(graph, features, idx, config, seed):
    """`train_gcn`'s float64 model before its first step, its restricted
    operator, its rows of A X and its split generator."""
    root = SplitMix64(seed)
    model = GcnModel(normalized_operator(graph), features.shape[1], config.hidden, 3,
                     root.split(0))
    rows_op, model.field = model.operator.restrict(idx)
    return model, rows_op, (model.operator @ features)[model.field], root.split(1)


def _train_float64(graph, features, idx, targets, config, seed):
    """`train_gcn`'s epoch loop run in float64."""
    model, rows_op, ax_field, split_rng = _initial_model(graph, features, idx, config, seed)
    return model, _train_epochs(model, rows_op, ax_field, targets, config, split_rng)


def _matches_full_graph_training(scene_seed, fraction):
    cube, gt, graph, features = _scene_setup(seed=scene_seed)
    if fraction is None:  # a single label, so no node is held out
        idx = np.array([77])
        targets = gt.abundances.reshape(-1, 3)[idx]
    else:
        idx, targets = sample_labels(gt.abundances, fraction, SplitMix64(scene_seed + 1))
    field = normalized_operator(graph).restrict(idx)[1]
    assert np.isin(idx, field).all()
    assert (field.size == 144) == (fraction == 1.0)
    config = GcnConfig(hidden=16, epochs=40, learning_rate=0.01)
    model, history = _train_float64(graph, features, idx, targets, config, scene_seed + 2)
    assert np.array_equal(model.field, field)
    ref, ref_history = train_gcn_full_graph(graph, features, idx, targets, config,
                                            scene_seed + 2)
    assert np.max(np.abs(model.w1.data - ref.w1.data)) <= 1e-12
    assert np.max(np.abs(model.w2.data - ref.w2.data)) <= 1e-12
    assert np.max(np.abs(np.subtract(history, ref_history))) <= 1e-12
    return field, model


@pytest.mark.parametrize("scene_seed, fraction", [(40, 0.1), (41, 0.3), (42, 1.0), (43, None)])
def test_train_gcn_matches_full_graph_training(scene_seed, fraction):
    # the epoch loop run in float64 against every node's logits every epoch
    _matches_full_graph_training(scene_seed, fraction)


def test_train_gcn_matches_full_graph_training_across_hidden_tiles(monkeypatch):
    # one default tile holds all 144 nodes; tiles of 10 rows make the fused
    # hidden layer cross tile boundaries, with a ragged last tile, both in
    # training (on the receptive field) and in the final forward (all nodes)
    monkeypatch.setattr(ad, "_HIDDEN_TILE_BYTES", 10 * 16 * 8)
    field, model = _matches_full_graph_training(41, 0.3)
    assert field.size > 20 and field.size % 10
    features = _scene_setup(seed=41)[3]
    op = model.operator
    h = ad.relu(ad.sparse_matmul(op, ad.Tensor(features)) @ model.w1)
    want = (ad.sparse_matmul(op, h) @ model.w2).data
    got = model.logits(features).data
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_train_gcn_is_the_epoch_loop_in_float32_with_float64_weights_out():
    cube, gt, graph, features = _scene_setup(seed=53)
    idx, targets = sample_labels(gt.abundances, 0.2, SplitMix64(54))
    config = GcnConfig(hidden=8, epochs=20)
    model, history = train_gcn(graph, features, idx, targets, config, 55)
    ref, rows_op, ax_field, split_rng = _initial_model(graph, features, idx, config, 55)
    for p in ref.parameters():
        p.data = p.data.astype(np.float32)
    assert history == _train_epochs(ref, rows_op, ax_field.astype(np.float32),
                                    targets.astype(np.float32), config, split_rng)
    assert np.array_equal(model.field, ref.field)
    for p, q in zip(model.parameters(), ref.parameters()):
        assert p.data.dtype == np.float64 and q.data.dtype == np.float32
        assert np.array_equal(p.data, q.data)
    assert forward(model, features).dtype == np.float64


def test_float32_training_stays_near_the_float64_loop():
    # 200 default-rate epochs: the float32 weights missed the float64 loop's
    # by 5.7e-7 of the largest weight here, and by at most 5.0e-6 over 12
    # scene seeds (60-71); the BCE history by 2.0e-7 here, 2.2e-7 at most
    cube, gt, graph, features = _scene_setup(seed=41)
    idx, targets = sample_labels(gt.abundances, 0.3, SplitMix64(42))
    config = GcnConfig(hidden=16, epochs=200)
    model, history = train_gcn(graph, features, idx, targets, config, 43)
    ref, ref_history = _train_float64(graph, features, idx, targets, config, 43)
    for p, q in zip(model.parameters(), ref.parameters()):
        assert np.max(np.abs(p.data - q.data)) <= 1e-5 * np.max(np.abs(q.data))
    assert np.max(np.abs(np.subtract(history, ref_history))) <= 2e-6


def test_a_float32_gcn_epoch_makes_nothing_float64(monkeypatch):
    # one epoch at the default width: every forward output and every VJP
    # output must be float32, or a float64 constant or product has leaked in
    cube, gt, graph, features = _scene_setup(seed=56)
    idx, targets = sample_labels(gt.abundances, 0.2, SplitMix64(57))
    config = GcnConfig(epochs=1)
    dtypes = []
    record = ad.Tensor._from_op.__func__

    def spy(cls, data, parents, vjps, op):
        def traced(vjp):
            def run(g):
                grad = vjp(g)
                dtypes.append((f"{op} vjp", grad.dtype))
                return grad
            return run

        out = record(cls, data, parents, tuple(traced(v) for v in vjps), op)
        dtypes.append((op, out.data.dtype))
        return out

    model, rows_op, ax_field, split_rng = _initial_model(graph, features, idx, config, 58)
    for p in model.parameters():
        p.data = p.data.astype(np.float32)
    monkeypatch.setattr(ad.Tensor, "_from_op", classmethod(spy))
    history = _train_epochs(model, rows_op, ax_field.astype(np.float32),
                            targets.astype(np.float32), config, split_rng)
    assert len(history) == 1
    assert {op for op, _ in dtypes} == {"relu_mlp", "relu_mlp vjp", "sparse_matmul",
                                        "sparse_matmul vjp", "bce_with_logits",
                                        "bce_with_logits vjp"}
    assert [d for d in dtypes if d[1] != np.float32] == []
    assert all(p.data.dtype == np.float32 for p in model.parameters())


def test_train_gcn_divergence_reported_outside_receptive_field():
    # a feature row no labeled logit reads still fails, as the full-graph forward does
    cube, gt, graph, features = _scene_setup(seed=45)
    idx, targets = sample_labels(gt.abundances, 0.05, SplitMix64(46))
    outside = np.setdiff1d(np.arange(144), normalized_operator(graph).restrict(idx)[1])
    assert outside.size
    corrupted = features.copy()
    corrupted[outside[0], 0] = np.nan
    with pytest.raises(ad.DivergenceError) as err:
        train_gcn(graph, corrupted, idx, targets, GcnConfig(hidden=8, epochs=5), 47)
    assert err.value.epoch == 0


def test_train_gcn_reports_a_non_finite_weight_the_relu_would_hide(monkeypatch):
    # every feature is positive, so a -inf in W1 makes a whole column of the
    # pre-activation -inf, which the ReLU would zero into finite logits
    cube, gt, graph, features = _scene_setup(seed=48)
    assert (normalized_operator(graph) @ features > 0).all()
    idx, targets = sample_labels(gt.abundances, 0.2, SplitMix64(49))
    init = GcnModel.__init__

    def init_with_inf(self, *args):
        init(self, *args)
        self.w1.data[0, 3] = -np.inf

    monkeypatch.setattr(GcnModel, "__init__", init_with_inf)
    with pytest.raises(ad.DivergenceError) as err:
        train_gcn(graph, features, idx, targets, GcnConfig(hidden=8, epochs=5), 50)
    assert err.value.epoch == 0


def test_train_gcn_holds_out_one_of_five_labels():
    # n // 10 is 0 for 2-9 labels; one node is still held out for validation
    cube, gt, graph, features = _scene_setup(seed=51)
    idx = np.array([5, 30, 77, 100, 140])
    targets = gt.abundances.reshape(-1, 3)[idx]
    config = GcnConfig(hidden=8, epochs=1)
    _, history = _train_float64(graph, features, idx, targets, config, 52)
    root = SplitMix64(52)
    model = GcnModel(normalized_operator(graph), 3, 8, 3, root.split(0))
    z = model.logits(features).data[idx]
    order = root.split(1).permutation(5)
    val, train = order[:1], order[1:]

    def bce(rows):
        return np.mean(np.logaddexp(0.0, z[rows]) - targets[rows] * z[rows])

    assert abs(history[0][1] - bce(train)) <= 1e-12
    assert abs(history[0][2] - bce(val)) <= 1e-12


def test_train_gcn_empty_labels_error():
    cube, gt, graph, features = _scene_setup(seed=12)
    with pytest.raises(ValueError, match="empty"):
        train_gcn(graph, features, np.array([], dtype=np.int64),
                  np.empty((0, 3)), GcnConfig(hidden=4, epochs=1), 0)


def test_bce_at_initialization_finite_all_labels():
    cube, gt, graph, features = _scene_setup(seed=13)
    idx, targets = sample_labels(gt.abundances, 1.0, SplitMix64(14))
    assert idx.size == 144
    model = GcnModel(normalized_operator(graph), 3, 8, 3, SplitMix64(15))
    loss = bce_with_logits(model.logits(features)[idx], targets)
    assert np.isfinite(loss.item())


# -- labels --------------------------------------------------------------------------------

def test_sample_labels_fraction_and_determinism():
    ab = np.random.default_rng(16).dirichlet(np.ones(3), size=(10, 10))
    i1, t1 = sample_labels(ab, 0.1, SplitMix64(17))
    i2, t2 = sample_labels(ab, 0.1, SplitMix64(17))
    assert i1.size == 10
    assert np.array_equal(i1, i2) and np.array_equal(t1, t2)
    assert np.array_equal(t1, ab.reshape(-1, 3)[i1])
    assert np.array_equal(np.sort(i1), i1)


# -- checkpoints -------------------------------------------------------------------------------

def test_gcn_checkpoint_roundtrip(tmp_path):
    # the file holds both weights, bit for bit, under their record names
    cube, gt, graph, features = _scene_setup(seed=32)
    idx, targets = sample_labels(gt.abundances, 0.2, SplitMix64(33))
    model, _ = train_gcn(graph, features, idx, targets, GcnConfig(hidden=8, epochs=10), 34)
    save_gcn(model, tmp_path / "g.aew")
    records = read_aew(tmp_path / "g.aew")
    assert list(records) == ["w1", "w2"]
    assert np.array_equal(records["w1"], model.w1.data)
    assert np.array_equal(records["w2"], model.w2.data)
