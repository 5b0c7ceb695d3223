"""Ellipse kernels, centroid tiling, star edges, SAD weights, Laplacians."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aegem import graph as graph_module
from aegem.graph import (build_graph, build_kernel, build_star_edges, laplacian,
                         normalized_laplacian, rbf_adjacency, sad_adjacency,
                         tile_centroids, write_graph_csv)
from aegem.hsi import HsiCube, read_table
from aegem.metrics import sad

from oracles import ellipse_offsets_bruteforce, sad_weights_whole, star_edges_loops


def random_cube(h, w, l, seed=0):
    rng = np.random.default_rng(seed)
    return HsiCube(rng.uniform(0.05, 1.0, size=(h, w, l)))


# -- kernels ---------------------------------------------------------------------

def test_unit_kernel_is_plus_shape():
    k = build_kernel(1, 1)
    assert set(k.offsets) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}


def test_kernel_circle_degenerate_case():
    r = 3
    k = build_kernel(r, r)
    disk = {(dr, dc) for dr in range(-r, r + 1) for dc in range(-r, r + 1)
            if dr * dr + dc * dc <= r * r}
    assert set(k.offsets) == disk


@pytest.mark.parametrize("a", range(1, 7))
@pytest.mark.parametrize("b", range(1, 7))
def test_kernel_matches_bruteforce(a, b):
    k = build_kernel(a, b)
    assert set(k.offsets) == ellipse_offsets_bruteforce(a, b)


def test_kernel_symmetry_and_center():
    for a, b in [(2, 5), (3, 4), (1, 6)]:
        k = build_kernel(a, b)
        offs = set(k.offsets)
        assert (0, 0) in offs
        assert all((-dr, -dc) in offs for dr, dc in offs)


def test_kernel_rejects_bad_axes():
    with pytest.raises(ValueError):
        build_kernel(0, 3)


# -- centroid tiling ---------------------------------------------------------------

def test_tile_grid_starts_at_axes():
    k = build_kernel(2, 2)
    cents = tile_centroids(9, 9, k, 2, 2)
    rows = sorted(set(cents[:, 0]))
    cols = sorted(set(cents[:, 1]))
    assert rows == [2, 4, 6, 8]
    assert cols == [2, 4, 6, 8]


def test_tile_single_pixel_image():
    k = build_kernel(2, 3)
    cents = tile_centroids(1, 1, k)
    assert cents.tolist() == [[0, 0]]


def test_tile_image_smaller_than_kernel_centers():
    k = build_kernel(3, 3)
    cents = tile_centroids(5, 20, k)
    assert sorted(set(cents[:, 0])) == [2]  # 5 < 2a+1 -> middle row
    assert sorted(set(cents[:, 1]))[0] == 3


def test_full_coverage_scan_default_strides():
    k = build_kernel(2, 2)
    cents = tile_centroids(9, 9, k, 2, 2)
    edges = build_star_edges(9, 9, k, cents)
    touched = np.zeros(81, dtype=bool)
    touched[edges[:, 1]] = True
    touched[cents[:, 0] * 9 + cents[:, 1]] = True
    assert touched.all()


def test_full_coverage_various_shapes():
    for (h, w, a, b) in [(9, 9, 2, 2), (32, 32, 3, 5), (17, 23, 1, 4), (10, 40, 4, 2)]:
        k = build_kernel(a, b)
        cents = tile_centroids(h, w, k)
        edges = build_star_edges(h, w, k, cents)
        covered = np.zeros(h * w, dtype=bool)
        covered[edges[:, 1]] = True
        covered[cents[:, 0] * w + cents[:, 1]] = True
        assert covered.all(), (h, w, a, b)


def test_disjoint_interiors_with_wide_strides():
    a, b = 2, 3
    k = build_kernel(a, b)
    cents = tile_centroids(20, 30, k, 2 * a + 1, 2 * b + 1)
    seen = {}
    for r0, c0 in cents:
        for dr, dc in k.offsets:
            r, c = r0 + dr, c0 + dc
            if 0 <= r < 20 and 0 <= c < 30:
                assert (r, c) not in seen
                seen[(r, c)] = (r0, c0)


def test_star_edges_receivers_inside_ellipse_interior():
    # away from the image border every receiver honors the ellipse bound
    a, b = 2, 3
    k = build_kernel(a, b)
    cents = tile_centroids(20, 20, k)
    edges = build_star_edges(20, 20, k, cents)
    for s, r in edges:
        sr, sc = divmod(int(s), 20)
        rr, rc = divmod(int(r), 20)
        if a <= rr < 20 - a and b <= rc < 20 - b:
            dr, dc = rr - sr, rc - sc
            assert dr * dr / a**2 + dc * dc / b**2 <= 1.0 + 1e-12


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(h=st.integers(1, 24), w=st.integers(1, 24), a=st.integers(1, 5), b=st.integers(1, 5),
       stride_r=st.none() | st.integers(1, 12), stride_c=st.none() | st.integers(1, 12))
def test_star_edges_match_the_loop_oracle(h, w, a, b, stride_r, stride_c):
    k = build_kernel(a, b)
    cents = tile_centroids(h, w, k, stride_r, stride_c)
    edges = build_star_edges(h, w, k, cents)
    assert edges.dtype == np.int64
    assert np.array_equal(edges, star_edges_loops(h, w, k, cents))


def test_edges_sorted_and_unique():
    k = build_kernel(2, 2)
    cents = tile_centroids(11, 13, k)
    edges = build_star_edges(11, 13, k, cents)
    as_tuples = [tuple(e) for e in edges]
    assert as_tuples == sorted(as_tuples)
    assert len(as_tuples) == len(set(as_tuples))


# -- SAD adjacency -----------------------------------------------------------------

def test_sad_adjacency_identical_spectra_zero():
    cube = HsiCube(np.ones((5, 5, 4)))
    g = build_graph(cube, 1, 1)
    assert np.max(np.abs(g.edge_weights)) == 0.0


def test_sad_adjacency_orthogonal_spectra():
    refl = np.zeros((1, 2, 2))
    refl[0, 0] = [1.0, 0.0]
    refl[0, 1] = [0.0, 1.0]
    cube = HsiCube(refl)
    cents = np.array([[0, 0]])
    edges = build_star_edges(1, 2, build_kernel(1, 1), cents)
    w = sad_adjacency(cube, edges)
    assert np.allclose(w, np.pi / 2)


def test_sad_adjacency_matches_direct_formula():
    cube = random_cube(6, 6, 8, seed=2)
    g = build_graph(cube, 2, 2)
    spectra = cube.spectra()
    for (s, r), w in list(zip(g.edges, g.edge_weights))[::7]:
        assert abs(w - sad(spectra[int(s)], spectra[int(r)])) < 1e-12


@pytest.mark.parametrize("block_bytes", [1, 3 * 8 * 7, 2**20])
def test_sad_adjacency_in_edge_blocks_equals_the_whole_edge_arrays(monkeypatch, block_bytes):
    # one edge, three edges, and every edge per block: each angle reads
    # its own row of the temporaries only, so the bits cannot move
    cube = random_cube(9, 11, 7, seed=6)
    g = build_graph(cube, 2, 3)
    monkeypatch.setattr(graph_module, "_EDGE_BLOCK_BYTES", block_bytes)
    weights = sad_adjacency(cube, g.edges)
    assert len(g.edges) > 3 and weights.shape == (len(g.edges),)
    assert np.array_equal(weights, sad_weights_whole(cube.spectra(), g.edges))


def test_sad_adjacency_weights_range_and_symmetry():
    cube = random_cube(8, 8, 5, seed=3)
    g = build_graph(cube, 2, 3)
    assert g.edge_weights.min() >= 0.0
    assert g.edge_weights.max() <= np.pi / 2 + 1e-12  # non-negative spectra
    lookup = {(int(s), int(r)): w for (s, r), w in zip(g.edges, g.edge_weights)}
    for (s, r), w in lookup.items():
        if (r, s) in lookup:
            assert abs(lookup[(r, s)] - w) < 1e-15


def test_sad_adjacency_scale_invariance():
    cube = random_cube(6, 6, 5, seed=4)
    scaled = HsiCube(cube.reflectance * 3.7)
    g1 = build_graph(cube, 1, 2)
    g2 = build_graph(scaled, 1, 2)
    assert np.allclose(g1.edge_weights, g2.edge_weights, atol=1e-12)


def test_sad_adjacency_zero_spectrum_names_pixel():
    refl = np.ones((4, 4, 3))
    refl[2, 1] = 0.0
    cube = HsiCube(refl)
    with pytest.raises(ValueError, match=r"\(2,1\)"):
        build_graph(cube, 1, 1)


def test_graph_deterministic():
    cube = random_cube(10, 10, 6, seed=6)
    g1 = build_graph(cube, 2, 3)
    g2 = build_graph(cube, 2, 3)
    assert np.array_equal(g1.edges, g2.edges)
    assert np.array_equal(g1.edge_weights, g2.edge_weights)


def test_graph_csv_roundtrip(tmp_path):
    cube = random_cube(7, 7, 4, seed=12)
    g = build_graph(cube, 2, 2)
    write_graph_csv(g, tmp_path / "g.csv")
    coords, weights, names = read_table(tmp_path / "g.csv",
                                        ["sender_row", "sender_col", "recv_row", "recv_col"])
    assert names == ["sad"]
    assert np.array_equal(coords[:, 0] * g.width + coords[:, 1], g.edges[:, 0])
    assert np.array_equal(coords[:, 2] * g.width + coords[:, 3], g.edges[:, 1])
    assert np.allclose(weights[:, 0], g.edge_weights, rtol=1e-8)


# -- general graph utilities ----------------------------------------------------------

def test_rbf_adjacency_identical_vectors():
    v = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    a = rbf_adjacency(v, sigma=1.5)
    assert a[0, 1] == 1.0 and a[0, 0] == 1.0


def test_rbf_adjacency_unsquared_distance():
    v = np.array([[0.0], [2.0]])
    a = rbf_adjacency(v, sigma=2.0)
    assert abs(a[0, 1] - np.exp(-2.0 / 4.0)) < 1e-15


def test_laplacian_two_node_graph():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(laplacian(a), expected)
    assert np.allclose(normalized_laplacian(a), expected)


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = rng.uniform(0, 1, size=(6, 6))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        assert np.max(np.abs(laplacian(a).sum(axis=1))) < 1e-12


def test_normalized_laplacian_eigenvalues_in_range():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        a = rng.uniform(0, 1, size=(n, n))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        evals = np.linalg.eigvalsh(normalized_laplacian(a))
        assert evals.min() >= -1e-9 and evals.max() <= 2.0 + 1e-9


def test_normalized_laplacian_isolated_node():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    ln = normalized_laplacian(a)
    assert ln[2, 2] == 1.0 and ln[2, 0] == 0.0 and ln[0, 2] == 0.0
    assert np.allclose(ln, ln.T)
