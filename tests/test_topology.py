from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import util
from gtsim import topology as tp


def test_ring3_is_triangle():
    g = tp.generate_graph("ring", 3)
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})


def test_path3_edges():
    g = tp.generate_graph("path", 3)
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_complete4_edge_count():
    g = tp.generate_graph("complete", 4)
    assert len(g.edges) == 6


def test_n_zero_rejected():
    with pytest.raises(tp.GraphError):
        tp.generate_graph("ring", 0)


def test_er_unconnectable_reports():
    with pytest.raises(tp.GraphError, match="unconnectable"):
        tp.generate_graph("erdos_renyi", 40, seed=0, p=1e-5)


def test_er_resample_until_connected_deterministic():
    g1 = tp.generate_graph("erdos_renyi", 12, seed=7, p=0.25)
    g2 = tp.generate_graph("erdos_renyi", 12, seed=7, p=0.25)
    assert g1.edges == g2.edges
    assert g1.is_connected()


def test_mh_ring3_is_uniform():
    m = tp.metropolis_hastings(tp.generate_graph("ring", 3))
    assert np.allclose(m.w, np.full((3, 3), 1.0 / 3.0), atol=1e-15)
    assert m.lam <= 1e-12


def test_mh_path3_matrix_and_gap():
    # direct evaluation of the weight rule: degrees (1, 2, 1)
    m = tp.metropolis_hastings(tp.generate_graph("path", 3))
    expected = np.array([[2 / 3, 1 / 3, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 1 / 3, 2 / 3]])
    assert np.allclose(m.w, expected, atol=1e-15)
    assert abs(m.lam - 2.0 / 3.0) <= 1e-9


def test_mh_complete2():
    m = tp.metropolis_hastings(tp.generate_graph("complete", 2))
    assert np.allclose(m.w, np.full((2, 2), 0.5), atol=1e-15)
    assert m.lam <= 1e-12


def test_mh_rejects_disconnected():
    g = tp.WeightedGraph(4, frozenset({(0, 1), (2, 3)}))
    with pytest.raises(tp.GraphError, match="not connected"):
        tp.metropolis_hastings(g)


def test_spectral_gap_of_j_is_zero():
    for n in (2, 5, 9):
        assert tp.spectral_gap(np.full((n, n), 1.0 / n)) == 0.0


def test_spectral_gap_matches_dense_eigensolver():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        g = tp.generate_graph("erdos_renyi", n, seed=int(rng.integers(0, 10**6)), p=0.4)
        m = tp.metropolis_hastings(g)
        j = np.full((n, n), 1.0 / n)
        oracle = np.linalg.svd(m.w - j, compute_uv=False)[0]
        assert abs(m.lam - oracle) <= 1e-10
        assert 0.0 <= m.lam < 1.0


def test_spectral_gap_power_iteration_branch():
    # doubly stochastic but non-symmetric: a circulant permutation blend
    n = 5
    p = np.roll(np.eye(n), 1, axis=1)
    w = 0.6 * np.eye(n) + 0.4 * p
    j = np.full((n, n), 1.0 / n)
    oracle = np.linalg.svd(w - j, compute_uv=False)[0]
    assert abs(tp.spectral_gap(w) - oracle) <= 1e-8


def test_spectral_gap_rejects_non_stochastic():
    with pytest.raises(tp.GraphError, match="doubly stochastic"):
        tp.spectral_gap(np.array([[0.5, 0.2], [0.5, 0.8]]))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=10**6),
    kind=st.sampled_from(["ring", "path", "complete", "erdos_renyi"]),
)
def test_mixing_matrix_invariants(n, seed, kind):
    p = 0.5 if kind == "erdos_renyi" else None
    g = tp.generate_graph(kind, n, seed=seed, p=p)
    m = tp.metropolis_hastings(g)
    assert np.max(np.abs(m.w.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(m.w.sum(axis=0) - 1.0)) <= 1e-12
    assert np.max(np.abs(m.w - m.w.T)) <= 1e-12
    assert 0.0 <= m.lam < 1.0
    # support matches edges plus positive diagonal
    adj = g.adjacency()
    off = m.w.copy()
    np.fill_diagonal(off, 0.0)
    assert np.all((off > 0) == adj)
    assert np.all(np.diag(m.w) > 0)
    # gap-zero iff uniform averaging
    j = np.full((n, n), 1.0 / n)
    if m.lam <= 1e-10:
        assert np.max(np.abs(m.w - j)) <= 1e-10
    # averaging identities: W 1 = 1 and J W = J
    one = np.ones(n)
    assert np.max(np.abs(m.w @ one - one)) <= 1e-12
    assert np.max(np.abs(j @ m.w - j)) <= 1e-12


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), p=st.floats(0.15, 1.0), seed=st.integers(0, 2**64 - 1),
       keep=st.lists(st.booleans(), min_size=780, max_size=780))
def test_graph_arrays_match_the_reference_loops(n, p, seed, keep):
    g = tp.generate_graph("erdos_renyi", n, seed=seed, p=p)
    ref = util.reference_generate_er("erdos_renyi", n, seed=seed, p=p)
    assert g.edges == ref.edges
    m, ref_m = tp.metropolis_hastings(g), util.reference_metropolis_hastings(ref)
    assert np.array_equal(_bits(m.w), _bits(ref_m.w)) and m.lam == ref_m.lam
    # any edge subset, connected or not
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    sub = tp.WeightedGraph(n, frozenset(e for e, k in zip(pairs, keep) if k))
    assert np.array_equal(sub.degrees(), util.reference_degrees(sub))
    assert np.array_equal(sub.adjacency(), util.reference_adjacency(sub))
    assert sub.is_connected() == util.reference_is_connected(sub)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 40), target=st.floats(0.05, 0.95), tol=st.sampled_from([0.01, 0.05]),
       seed=st.integers(0, 10**6))
def test_tune_er_matches_the_reference_loops(n, target, tol, seed):
    def tune():
        return tp.tune_er_probability(n, target, tol, seed=seed, samples_per_probe=4, max_steps=6)

    res = tune()
    with mock.patch.object(tp, "generate_graph", util.reference_generate_er), \
            mock.patch.object(tp, "metropolis_hastings", util.reference_metropolis_hastings):
        ref = tune()
    assert (res.p, res.lam, res.converged, res.lambda_range) == \
        (ref.p, ref.lam, ref.converged, ref.lambda_range)
    assert res.graph.edges == ref.graph.edges
    assert np.array_equal(_bits(res.matrix.w), _bits(ref.matrix.w))


def test_tune_er_hits_target_band():
    res = tp.tune_er_probability(50, 0.9, 0.05, seed=1)
    assert res.converged
    assert 0.85 <= res.lam <= 0.95
    assert res.matrix.n == 50


def test_tune_er_n2_reports_closest():
    # only one connected graph exists on two agents and its gap is zero
    res = tp.tune_er_probability(2, 0.5, 0.01, seed=0)
    assert not res.converged
    assert res.lam <= 1e-12


def test_tune_er_unreachable_target_reported():
    # oracle: sweep p over a grid and record the achievable gap interval
    achievable_high = 0.0
    for p in (0.25, 0.4, 0.6, 0.8):
        for s in range(4):
            m = tp.metropolis_hastings(tp.generate_graph("erdos_renyi", 10, seed=s, p=p))
            achievable_high = max(achievable_high, m.lam)
    res = tp.tune_er_probability(10, 0.99, 0.001, seed=3)
    assert not res.converged
    assert res.lambda_range[1] < 0.99
    assert achievable_high < 0.99


def test_matrix_csv_roundtrip(tmp_path):
    m = tp.metropolis_hastings(tp.generate_graph("erdos_renyi", 9, seed=4, p=0.5))
    path = tmp_path / "w.csv"
    tp.save_matrix_csv(m, path)
    loaded = tp.load_matrix_csv(path)
    assert loaded.n == m.n
    assert np.array_equal(loaded.w, m.w)  # bit-identical
    assert loaded.lam == m.lam
