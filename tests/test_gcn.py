"""Normalized operator, GCN forward/training, PCA features, checkpoints."""
import numpy as np
import pytest

from aegem import autodiff as ad
from aegem.autoencoder import DivergenceError
from aegem.gcn import (GcnConfig, GcnModel, bce_with_logits, build_node_features,
                       forward, load_gcn, normalized_operator, pca_features,
                       receptive_field, sample_labels, save_gcn, train_gcn)
from aegem.graph import EllipticalGraph, build_graph, build_kernel
from aegem.hsi import HsiCube, SceneSpec, synthesize_scene, normalize
from aegem.rng import SplitMix64

from oracles import gradcheck, train_gcn_full_graph


def small_graph(h=6, w=6, l=5, seed=0, a=1, b=1):
    rng = np.random.default_rng(seed)
    cube = HsiCube(rng.uniform(0.05, 1.0, size=(h, w, l)))
    return cube, build_graph(cube, a, b)


def single_node_graph():
    kernel = build_kernel(1, 1)
    return EllipticalGraph(1, 1, kernel, np.array([[0, 0]]),
                           np.empty((0, 2), dtype=np.int64),
                           edge_weights=np.empty(0))


# -- normalized operator -------------------------------------------------------------

def test_operator_single_node_is_identity():
    op = normalized_operator(single_node_graph())
    assert op.shape == (1, 1)
    assert op.toarray()[0, 0] == 1.0


def test_operator_two_nodes_closed_form():
    kernel = build_kernel(1, 1)
    s = 0.3
    graph = EllipticalGraph(1, 2, kernel, np.array([[0, 0]]),
                            np.array([[0, 1]]), edge_weights=np.array([s]))
    op = normalized_operator(graph).toarray()
    e = np.exp(-s)
    d = 1.0 + e
    expected = np.array([[1.0 / d, e / d], [e / d, 1.0 / d]])
    assert np.allclose(op, expected, atol=1e-15)


def test_operator_symmetric_nonnegative():
    cube, graph = small_graph(8, 8, 4, seed=1, a=2, b=2)
    op = normalized_operator(graph).toarray()
    assert np.max(np.abs(op - op.T)) < 1e-12
    assert op.min() >= 0.0


def test_operator_spectrum_in_zero_two():
    # I - op is a normalized Laplacian; eigenvalues in [0, 2]
    rng = np.random.default_rng(2)
    for trial in range(10):
        h, w = rng.integers(3, 8, size=2)
        cube = HsiCube(rng.uniform(0.05, 1, size=(int(h), int(w), 4)))
        graph = build_graph(cube, 1, 2)
        op = normalized_operator(graph).toarray()
        evals = np.linalg.eigvalsh(np.eye(op.shape[0]) - op)
        assert evals.min() >= -1e-9 and evals.max() <= 2.0 + 1e-9


def test_operator_requires_weights():
    g = single_node_graph()
    g.edge_weights = None
    with pytest.raises(ValueError, match="edge weights"):
        normalized_operator(g)


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


def test_forward_literal_asc_flag_skips_renormalization():
    cube, graph = small_graph()
    model = GcnModel(normalized_operator(graph), 3, 8, 2, SplitMix64(5))
    y = np.random.default_rng(6).uniform(size=(36, 3))
    raw = forward(model, y, paper_literal_asc=True)
    assert np.max(np.abs(raw.sum(axis=1) - 1.0)) > 1e-6  # sigmoid alone
    renorm = forward(model, y)
    assert np.allclose(renorm, raw / raw.sum(axis=1, keepdims=True), atol=1e-9)


def test_forward_permutation_equivariance():
    cube, graph = small_graph(6, 6, 4, seed=7)
    op = normalized_operator(graph).toarray()
    rng = np.random.default_rng(8)
    perm = rng.permutation(36)
    y = rng.uniform(size=(36, 3))

    import scipy.sparse as sp
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
    op_t = op.T.tocsr()
    rng = np.random.default_rng(11)
    y = rng.uniform(-1, 1, size=(12, 3))
    targets = rng.uniform(0.1, 0.9, size=(12, 2))
    w1_0 = rng.uniform(-1, 1, size=(3, 5))
    w2_0 = rng.uniform(-1, 1, size=(5, 2))

    def loss(w1, w2):
        h = ad.relu(ad.sparse_matmul(op, ad.Tensor(y), op_t) @ w1)
        z = ad.sparse_matmul(op, h, op_t) @ w2
        return bce_with_logits(z, targets)

    gradcheck(loss, [w1_0, w2_0])


# -- training ----------------------------------------------------------------------------

def _scene_setup(seed=0):
    cube, gt = synthesize_scene(SceneSpec(12, 12, 8, 3, smoothness=1.0, seed=seed))
    cube = normalize(cube)
    graph = build_graph(cube, 2, 2)
    features = gt.abundances.reshape(-1, 3) * 0.8 + 0.2 / 3  # blurred proxy features
    return cube, gt, graph, features


def test_train_gcn_loss_decreases():
    cube, gt, graph, features = _scene_setup()
    idx, targets = sample_labels(gt.abundances, 0.3, SplitMix64(1))
    config = GcnConfig(hidden=16, epochs=200, seed=2)
    model, history = train_gcn(graph, features, idx, targets, config)
    assert history[-1][1] < history[0][1]
    assert len(history) == 200


def test_train_gcn_improves_on_held_out_labels():
    # features at realistic autoencoder quality: heavily mixed toward uniform
    cube, gt, graph, _ = _scene_setup(seed=3)
    rng = np.random.default_rng(30)
    truth_rows = gt.abundances.reshape(-1, 3)
    features = 0.45 * truth_rows + 0.55 / 3 + rng.normal(0, 0.02, truth_rows.shape)
    idx, targets = sample_labels(gt.abundances, 0.3, SplitMix64(4))
    config = GcnConfig(hidden=128, epochs=600, seed=5)
    model, history = train_gcn(graph, features, idx, targets, config)
    out = forward(model, features)
    n_val = idx.size // 10
    val_rows = SplitMix64(config.seed).split(1).permutation(idx.size)[:n_val]
    val_idx = idx[val_rows]
    gcn_err = np.sqrt(np.mean((out[val_idx] - truth_rows[val_idx]) ** 2))
    ae_err = np.sqrt(np.mean((features[val_idx] - truth_rows[val_idx]) ** 2))
    assert gcn_err < ae_err


def test_train_gcn_deterministic():
    cube, gt, graph, features = _scene_setup(seed=6)
    idx, targets = sample_labels(gt.abundances, 0.2, SplitMix64(7))
    config = GcnConfig(hidden=8, epochs=50, seed=8)
    m1, h1 = train_gcn(graph, features, idx, targets, config)
    m2, h2 = train_gcn(graph, features, idx, targets, config)
    assert np.array_equal(m1.w1.data, m2.w1.data)
    assert np.array_equal(m1.w2.data, m2.w2.data)
    assert h1 == h2


def test_train_gcn_divergence_reported():
    cube, gt, graph, features = _scene_setup(seed=9)
    idx, targets = sample_labels(gt.abundances, 0.2, SplitMix64(10))
    corrupted = features.copy()
    corrupted[3, 1] = np.nan  # upstream corruption surfaces as divergence
    config = GcnConfig(hidden=8, epochs=100, seed=11)
    with pytest.raises(DivergenceError) as err:
        train_gcn(graph, corrupted, idx, targets, config)
    assert err.value.epoch == 0


@pytest.mark.parametrize("scene_seed, fraction", [(40, 0.1), (41, 0.3), (42, 1.0), (43, None)])
def test_train_gcn_matches_full_graph_training(scene_seed, fraction):
    cube, gt, graph, features = _scene_setup(seed=scene_seed)
    if fraction is None:  # a single label, so no node is held out
        idx = np.array([77])
        targets = gt.abundances.reshape(-1, 3)[idx]
    else:
        idx, targets = sample_labels(gt.abundances, fraction, SplitMix64(scene_seed + 1))
    field = receptive_field(normalized_operator(graph), idx)
    assert np.isin(idx, field).all()
    assert (field.size == 144) == (fraction == 1.0)
    config = GcnConfig(hidden=16, epochs=40, learning_rate=0.01, seed=scene_seed + 2)
    model, history = train_gcn(graph, features, idx, targets, config)
    ref, ref_history = train_gcn_full_graph(graph, features, idx, targets, config)
    assert np.max(np.abs(model.w1.data - ref.w1.data)) <= 1e-12
    assert np.max(np.abs(model.w2.data - ref.w2.data)) <= 1e-12
    assert np.max(np.abs(np.subtract(history, ref_history))) <= 1e-12


def test_train_gcn_divergence_reported_outside_receptive_field():
    # a feature row no labeled logit reads still fails, as the full-graph forward does
    cube, gt, graph, features = _scene_setup(seed=45)
    idx, targets = sample_labels(gt.abundances, 0.05, SplitMix64(46))
    outside = np.setdiff1d(np.arange(144), receptive_field(normalized_operator(graph), idx))
    assert outside.size
    corrupted = features.copy()
    corrupted[outside[0], 0] = np.nan
    with pytest.raises(DivergenceError) as err:
        train_gcn(graph, corrupted, idx, targets, GcnConfig(hidden=8, epochs=5, seed=47))
    assert err.value.epoch == 0


def test_train_gcn_empty_labels_error():
    cube, gt, graph, features = _scene_setup(seed=12)
    with pytest.raises(ValueError, match="empty"):
        train_gcn(graph, features, np.array([], dtype=np.int64),
                  np.empty((0, 3)), GcnConfig(hidden=4, epochs=1))


def test_bce_at_initialization_finite_all_labels():
    cube, gt, graph, features = _scene_setup(seed=13)
    idx, targets = sample_labels(gt.abundances, 1.0, SplitMix64(14))
    assert idx.size == 144
    model = GcnModel(normalized_operator(graph), 3, 8, 3, SplitMix64(15))
    loss = bce_with_logits(model.logits(features)[idx], targets)
    assert np.isfinite(loss.item())


# -- labels / features ---------------------------------------------------------------------

def test_sample_labels_fraction_and_determinism():
    ab = np.random.default_rng(16).dirichlet(np.ones(3), size=(10, 10))
    i1, t1 = sample_labels(ab, 0.1, SplitMix64(17))
    i2, t2 = sample_labels(ab, 0.1, SplitMix64(17))
    assert i1.size == 10
    assert np.array_equal(i1, i2) and np.array_equal(t1, t2)
    assert np.array_equal(t1, ab.reshape(-1, 3)[i1])
    assert np.array_equal(np.sort(i1), i1)


def test_pca_features_shape_and_determinism():
    cube, _ = synthesize_scene(SceneSpec(8, 8, 10, 3, seed=18))
    f1 = pca_features(cube, 4, seed=19)
    f2 = pca_features(cube, 4, seed=19)
    assert f1.shape == (64, 4)
    assert np.array_equal(f1, f2)
    # standardized scores
    assert np.allclose(f1.std(axis=0), 1.0, atol=1e-8)


def test_build_node_features_modes():
    cube, gt = synthesize_scene(SceneSpec(6, 6, 8, 3, seed=20))
    ab = gt.abundances
    plain = build_node_features(ab, cube, GcnConfig())
    assert plain.shape == (36, 3)
    combo = build_node_features(ab, cube, GcnConfig(features="abundance+spectrum_pca",
                                                    pca_components=5))
    assert combo.shape == (36, 8)
    assert np.array_equal(combo[:, :3], plain)


# -- checkpoints -------------------------------------------------------------------------------

def test_gcn_checkpoint_roundtrip(tmp_path):
    cube, gt, graph, features = _scene_setup(seed=32)
    idx, targets = sample_labels(gt.abundances, 0.2, SplitMix64(33))
    model, _ = train_gcn(graph, features, idx, targets,
                         GcnConfig(hidden=8, epochs=10, seed=34))
    save_gcn(model, tmp_path / "g.aew")
    back = load_gcn(tmp_path / "g.aew", graph)
    assert np.array_equal(back.w1.data, model.w1.data)
    assert np.array_equal(back.w2.data, model.w2.data)
    y = features
    assert np.allclose(forward(back, y), forward(model, y), atol=1e-15)
