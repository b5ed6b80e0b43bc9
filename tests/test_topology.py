import hashlib
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import util
from gtsim import harness, topology as tp

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


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


def test_spectral_gap_rejects_non_symmetric_input():
    # doubly stochastic but non-symmetric: a circulant permutation blend
    n = 5
    w = 0.6 * np.eye(n) + 0.4 * np.roll(np.eye(n), 1, axis=1)
    with pytest.raises(tp.GraphError, match="not symmetric"):
        tp.spectral_gap(w)


def test_spectral_gap_rejects_non_stochastic():
    with pytest.raises(tp.GraphError, match="doubly stochastic"):
        tp.spectral_gap(np.array([[0.5, 0.2], [0.5, 0.8]]))
    # the rule MixingMatrix.validate applies: sums within STOCHASTIC_ATOL
    drifted = np.array([[0.5 + 1e-10, 0.5], [0.5, 0.5 + 1e-10]])
    with pytest.raises(tp.GraphError, match="doubly stochastic"):
        tp.spectral_gap(drifted)
    with pytest.raises(tp.GraphError, match="doubly stochastic"):
        tp.MixingMatrix(2, drifted, 0.0).validate()


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


def _assert_same_tune(res, ref):
    assert (res.p, res.lam, res.converged, res.lambda_range) == \
        (ref.p, ref.lam, ref.converged, ref.lambda_range)
    assert res.graph.edges == ref.graph.edges
    assert np.array_equal(_bits(res.matrix.w), _bits(ref.matrix.w))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 40), target=st.floats(0.05, 0.95), tol=st.sampled_from([0.01, 0.05]),
       seed=st.integers(0, 10**6), samples=st.integers(1, 16), steps=st.integers(0, 6))
def test_tune_er_matches_the_reference_loops(n, target, tol, seed, samples, steps):
    res = tp.tune_er_probability(n, target, tol, seed=seed, samples_per_probe=samples,
                                 max_steps=steps)
    ref = util.reference_tune_er(n, target, tol, seed=seed, samples_per_probe=samples,
                                 max_steps=steps)
    _assert_same_tune(res, ref)


def test_tune_er_resamples_a_disconnected_candidate_as_generate_graph_does():
    # found by search: here the closest candidate is a resampled one
    resampled = []

    def spy(*args, **kwargs):
        adj = connected(*args, **kwargs)
        resampled.append((kwargs.get("start"), adj))
        return adj

    connected = tp._er_connected
    with mock.patch.object(tp, "_er_connected", spy):
        res = tp.tune_er_probability(5, 0.5, 0.05, seed=22, samples_per_probe=4, max_steps=2)
    assert resampled and all(start == 1 for start, _ in resampled)
    assert any(np.array_equal(adj, res.graph.adjacency()) for _, adj in resampled)
    _assert_same_tune(res, util.reference_tune_er(5, 0.5, 0.05, seed=22, samples_per_probe=4,
                                                  max_steps=2))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), data=st.data())
def test_stacked_helpers_match_one_graph_at_a_time(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    graphs = [tp.WeightedGraph(n, frozenset(e for e in pairs if data.draw(st.booleans())))
              for _ in range(data.draw(st.integers(1, 6)))]
    adj = np.stack([g.adjacency() for g in graphs])
    assert tp._connected(adj).tolist() == [util.reference_is_connected(g) for g in graphs]
    w = tp._mh_weights(adj)
    gaps = tp._symmetric_gap(w - 1.0 / n)
    for k, g in enumerate(graphs):
        assert np.array_equal(_bits(w[k]), _bits(tp._mh_weights(g.adjacency())))
        assert gaps[k] == tp._symmetric_gap(w[k] - 1.0 / n)
        if g.is_connected():
            ref = util.reference_metropolis_hastings(g)
            assert np.array_equal(_bits(w[k]), _bits(ref.w)) and gaps[k] == ref.lam


@pytest.mark.parametrize("kwargs, message", [
    ({"samples_per_probe": 0}, "samples_per_probe must be >= 1"),
    ({"samples_per_probe": -2}, "samples_per_probe must be >= 1"),
    ({"max_steps": -1}, "max_steps must be >= 0"),
    ({"seed": -1}, "seed must be >= 0"),
])
def test_tune_er_rejects_bad_arguments(kwargs, message):
    with pytest.raises(tp.GraphError, match=message):
        tp.tune_er_probability(10, 0.5, 0.05, **kwargs)


def test_er_rejects_a_negative_seed():
    with pytest.raises(tp.GraphError, match="seed >= 0"):
        tp.generate_graph("erdos_renyi", 10, seed=-1, p=0.5)


# p, lambda and the sha256 of W's bytes of each committed fig2 topology
FIG2_TOPOLOGIES = {
    10: (0.326476195636979, 0.901453025783935,
         "f34a29650ab24a9e0e7f3fcd9e0d10320b9a6403276e19c5fec6847fcf492891"),
    25: (0.18320784343255753, 0.8999052200902217,
         "6fd088d67467bc919caf8826673065fea082f61f22585b8c6de347489f8d391c"),
    50: (0.1358504313517777, 0.9014103728069343,
         "681d435197b2d67b33920febcac4cee1fcf9a7535488a057844e1828620919bd"),
}


@pytest.mark.parametrize("n", sorted(FIG2_TOPOLOGIES))
def test_committed_fig2_topologies_are_pinned(n):
    cfg = harness.load_config(os.path.join(CONFIGS, f"fig2_synthetic_speedup_n{n}.toml"))
    t = cfg["topology"]
    res = tp.tune_er_probability(t["n"], t["target_lambda"], t["tol"], seed=t["seed"])
    m = harness.build_topology(cfg)
    p, lam, digest = FIG2_TOPOLOGIES[n]
    assert (res.p, res.lam, m.lam) == (p, lam, lam)
    assert hashlib.sha256(m.w.tobytes()).hexdigest() == digest
    assert np.array_equal(_bits(res.matrix.w), _bits(m.w))


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


def with_header(path, header):
    lines = path.read_text().splitlines()
    path.write_text("\n".join([header] + lines[1:]) + "\n")


def test_matrix_csv_whose_lambda_is_not_the_matrix_gap_is_rejected(tmp_path):
    m = tp.metropolis_hastings(tp.generate_graph("ring", 6))
    path = tmp_path / "w.csv"
    tp.save_matrix_csv(m, path)
    with_header(path, "# n=6,lambda=0.1")
    with pytest.raises(tp.GraphError) as info:
        tp.load_matrix_csv(path)
    assert str(info.value) == (f"matrix CSV header says lambda=0.1, but the matrix has "
                               f"lambda={tp.spectral_gap(m.w)!r}")
    assert abs(m.lam - 2.0 / 3.0) <= 1e-12


def test_matrix_csv_lambda_within_the_spectral_tolerance_is_kept_as_written(tmp_path):
    m = tp.metropolis_hastings(tp.generate_graph("ring", 6))
    path = tmp_path / "w.csv"
    tp.save_matrix_csv(m, path)
    lam = m.lam + 0.5 * tp.SPECTRAL_ATOL
    with_header(path, f"# n=6,lambda={lam!r}")
    assert tp.load_matrix_csv(path).lam == lam
