"""Spectral angle, map RMSE, permutation matching, report invariants."""
import numpy as np
import pytest

from aegem.metrics import (MetricsReport, PermutationMatch,
                           match_endmembers, rmse, sad)


def test_sad_identical_is_zero():
    v = np.array([0.3, 0.7, 1.1])
    assert sad(v, v) == 0.0


def test_sad_orthogonal_is_half_pi():
    assert abs(sad([1.0, 0.0], [0.0, 1.0]) - np.pi / 2) < 1e-15


def test_sad_scale_invariance():
    assert sad([1.0, 2.0, 2.0], [2.0, 4.0, 4.0]) == 0.0
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(0.1, 1, size=6)
        y = rng.uniform(0.1, 1, size=6)
        c = rng.uniform(0.01, 50)
        assert abs(sad(c * x, y) - sad(x, y)) < 1e-12


def test_sad_near_parallel_direct_formula():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([2.0, 4.0, 6.1])
    cos = np.dot(x, y) / (np.linalg.norm(x) * np.linalg.norm(y))
    expected = np.arccos(cos)
    assert abs(sad(x, y) - expected) < 1e-12
    assert sad(x, y) < 0.01


def test_sad_zero_vector_errors():
    with pytest.raises(ValueError):
        sad([0.0, 0.0], [1.0, 0.0])


def test_sad_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(10):
        x, y = rng.uniform(0.1, 1, size=(2, 5))
        assert sad(x, y) == sad(y, x)


def test_rmse_basics():
    a = np.ones((3, 3))
    assert rmse(a, a) == 0.0
    assert abs(rmse(a, a + 0.1) - 0.1) < 1e-12
    with pytest.raises(ValueError):
        rmse(np.ones((2, 2)), np.ones((3, 3)))


def test_rmse_matches_direct_summation():
    rng = np.random.default_rng(2)
    a = rng.uniform(size=(4, 4))
    b = rng.uniform(size=(4, 4))
    acc = 0.0
    for i in range(4):
        for j in range(4):
            acc += (a[i, j] - b[i, j]) ** 2
    assert abs(rmse(a, b) - np.sqrt(acc / 16.0)) < 1e-14


# -- permutation matching -------------------------------------------------------------

def _random_endmembers(p, l=12, seed=3):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 1.0, size=(l, p))


def test_match_identity():
    m = _random_endmembers(4)
    match = match_endmembers(m, m)
    assert match.assignment == (0, 1, 2, 3)
    assert match.cost == 0.0


def test_match_recovers_swap():
    m = _random_endmembers(3)
    swapped = m[:, [2, 0, 1]]
    match = match_endmembers(swapped, m)
    assert match.assignment == (2, 0, 1)
    assert match.cost < 1e-12
    back = swapped[:, match.order]
    assert np.array_equal(back, m)


def test_match_beats_greedy_on_adversarial_case():
    # greedy assigns the globally closest pair first and gets stuck with a
    # poor leftover; the exhaustive search must do strictly better
    t0 = np.array([1.0, 0.0, 0.0])
    t1 = np.array([0.6, 0.8, 0.0])
    e0 = np.array([0.9, 0.28, 0.0])  # closest to t0 overall
    e1 = np.array([1.0, 0.05, 0.0])  # nearly t0, would grab it greedily
    truth = np.stack([t0, t1], axis=1)
    est = np.stack([e1, e0], axis=1)

    def angle(a, b):
        return np.arccos(np.clip(a @ b / np.linalg.norm(a) / np.linalg.norm(b), -1, 1))

    # greedy: e1 takes t0, forcing e0 to t1
    greedy_cost = (angle(e1, t0) + angle(e0, t1)) / 2
    match = match_endmembers(est, truth)
    assert match.cost <= greedy_cost
    costs = {
        (0, 1): (angle(e1, t0) + angle(e0, t1)) / 2,
        (1, 0): (angle(e1, t1) + angle(e0, t0)) / 2,
    }
    assert abs(match.cost - min(costs.values())) < 1e-12
    assert match.assignment == min(costs, key=costs.get)


def test_match_cost_never_worse_than_identity():
    rng = np.random.default_rng(4)
    for _ in range(10):
        est = rng.uniform(0.05, 1, size=(10, 4))
        truth = rng.uniform(0.05, 1, size=(10, 4))
        match = match_endmembers(est, truth)
        identity_cost = np.mean([sad(est[:, j], truth[:, j]) for j in range(4)])
        assert match.cost <= identity_cost + 1e-15


def test_match_rejects_large_p():
    m = _random_endmembers(7)
    with pytest.raises(ValueError, match="exceeds"):
        match_endmembers(m, m)


def test_permutation_match_requires_bijection():
    with pytest.raises(ValueError):
        PermutationMatch((0, 0, 1), 0.1)


def test_match_order_reorders_stack_channels():
    rng = np.random.default_rng(5)
    stack = rng.uniform(size=(2, 2, 3))
    match = PermutationMatch((1, 2, 0), 0.0)
    out = stack[:, :, match.order]
    # estimated channel j belongs at truth slot assignment[j]
    assert np.array_equal(out[:, :, 1], stack[:, :, 0])
    assert np.array_equal(out[:, :, 2], stack[:, :, 1])
    assert np.array_equal(out[:, :, 0], stack[:, :, 2])


# -- report ---------------------------------------------------------------------------

def _report():
    return MetricsReport(
        materials=["em0", "em1"],
        rmse_ae=np.array([0.2, 0.3]),
        rmse_gcn=np.array([0.1, 0.4]),
        rmse_final=np.array([0.1, 0.3]),
        sad_values=np.array([0.05, 0.07]),
        sources=["gcn", "ae"],
        val_rmse_ae=np.array([0.2, 0.3]),
        val_rmse_gcn=np.array([0.1, 0.4]),
        val_rmse_final=np.array([0.1, 0.3]),
        val_rmse_final_renorm=np.array([0.1, 0.3]),
        seed=7,
    )


def test_report_means_recompute_exactly():
    rep = _report()
    assert rep.mean_rmse == np.mean(rep.rmse_final)
    assert rep.mean_sad == np.mean(rep.sad_values)


def test_report_csv_layout(tmp_path):
    rep = _report()
    rep.to_csv(tmp_path / "m.csv")
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert lines[0] == "material,rmse_ae,rmse_gcn,rmse_final,sad,source"
    assert lines[1].startswith("em0,") and lines[1].endswith(",gcn")
    assert lines[-1].startswith("mean,")
    text = rep.to_text()
    assert "em1" in text and "seed=7" in text
