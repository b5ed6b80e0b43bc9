import json
import os
import pickle
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit

from gtsim import costs, datasets
from util import (DenseLogistic, central_diff_grad, dense_features, parent_logistic_grad_global_all,
                  reference_densify, reference_logistic_grad_global_all, tile_counts)


def quad2():
    a = np.array([[[2.0, 0.0], [0.0, 4.0]]])
    b = np.array([[1.0, -1.0]])
    return costs.QuadraticEnsemble(a, b)


def test_quadratic_grad_example():
    e = quad2()
    assert np.allclose(e.grad_local(0, np.array([1.0, 1.0])), [3.0, 3.0])


def test_logistic_grad_single_sample():
    # one sample h=(1,0), y=+1, eta=0, x=0: finite-difference oracle
    e = costs.LogisticEnsemble([np.array([[1.0, 0.0]])], [np.array([1.0])], eta=0.0)
    g = e.grad_local(0, np.zeros(2))
    fd = central_diff_grad(lambda x: e.value_local(0, x), np.zeros(2))
    assert np.allclose(g, [-0.5, 0.0], atol=1e-12)
    assert np.allclose(g, fd, atol=1e-8)


def test_regularizer_only_gradient():
    # pure penalty: d/dx of 0.1 * x^2/(1+x^2) at x=1 is 0.1 * 2/(1+1)^2 = 0.05
    e = costs.LogisticEnsemble([np.zeros((1, 1))], [np.array([1.0])], eta=0.1)
    g = e.grad_local(0, np.array([1.0]))
    # the zero-feature sample contributes no data gradient
    assert abs(g[0] - 0.05) <= 1e-12


def test_grad_rejects_nonfinite():
    with pytest.raises(costs.CostError):
        quad2().grad_local(0, np.array([np.nan, 0.0]))


def test_grad_global_symmetry_cancellation():
    a = np.array([[[1.0]], [[1.0]]])
    b = np.array([[1.0], [-1.0]])
    e = costs.QuadraticEnsemble(a, b)
    assert np.allclose(e.grad_global(np.array([0.0])), [0.0])


def test_grad_global_single_agent():
    e = quad2()
    x = np.array([0.3, -0.7])
    assert np.allclose(e.grad_global(x), e.grad_local(0, x))


def test_grad_global_matches_average_assembly():
    rng = np.random.default_rng(1)
    mats = []
    for _ in range(4):
        f = rng.standard_normal((3, 3))
        mats.append(f @ f.T)
    a = np.stack(mats)
    b = rng.standard_normal((4, 3))
    e = costs.QuadraticEnsemble(a, b)
    x = rng.standard_normal(3)
    oracle = a.mean(axis=0) @ x + b.mean(axis=0)
    assert np.allclose(e.grad_global(x), oracle, atol=1e-12)


def test_smoothness_quadratic_max_eig():
    a = np.array([[[2.0]], [[4.0]]])
    b = np.zeros((2, 1))
    assert costs.QuadraticEnsemble(a, b).smoothness() == pytest.approx(4.0)


def test_smoothness_logistic_single_sample():
    # (1/4) ||h||^2 with h=(2,0): L = 1; cross-check against the worst
    # finite-difference Lipschitz ratio on a grid
    e = costs.LogisticEnsemble([np.array([[2.0, 0.0]])], [np.array([1.0])], eta=0.0)
    L = e.smoothness()
    assert L == pytest.approx(1.0)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        num = np.linalg.norm(e.grad_local(0, x) - e.grad_local(0, y))
        den = np.linalg.norm(x - y)
        worst = max(worst, num / den)
    assert worst <= L * (1 + 1e-9)


def test_smoothness_penalty_only():
    e = costs.LogisticEnsemble([np.zeros((1, 1))], [np.array([1.0])], eta=0.1)
    # zero data rows contribute nothing; the penalty bound is 2 eta
    assert e.smoothness() == pytest.approx(0.2)


def test_quadratic_optimum_closed_form_1d():
    e = costs.QuadraticEnsemble(np.array([[[2.0]]]), np.array([[4.0]]))
    x_star, f_star = e.optimum()
    assert np.allclose(x_star, [-2.0])
    assert f_star == pytest.approx(-4.0)


def test_quadratic_optimum_zero_b():
    e = costs.QuadraticEnsemble(np.array([[[3.0, 0.0], [0.0, 1.0]]]), np.zeros((1, 2)))
    x_star, f_star = e.optimum()
    assert np.allclose(x_star, 0.0)
    assert f_star == pytest.approx(0.0)


def test_quadratic_optimum_residual_random_spd():
    e = costs.make_synthetic_quadratics(6, 8, "a", seed=5)
    x_star, _ = e.optimum()
    a_bar = (e.a if e.shared_a else e.a.mean(axis=0))
    assert np.linalg.norm(a_bar @ x_star + e.b.mean(axis=0)) <= 1e-10


def test_quadratic_optimum_singular_rejected():
    e = costs.QuadraticEnsemble(np.array([[[0.0]]]), np.array([[1.0]]))
    assert e.optimum() is None


def test_quadratic_optimum_is_solved_once_and_read_only():
    e = costs.make_synthetic_quadratics(4, 3, "a", seed=5)
    with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as spy:
        first = e.optimum()
        second = e.optimum()
    assert spy.call_count == 1
    assert second is first and second[0] is first[0]
    with pytest.raises(ValueError, match="read-only"):
        first[0][0] = 1.0
    singular = costs.QuadraticEnsemble(np.array([[[0.0]]]), np.array([[1.0]]))
    with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as spy:
        assert singular.optimum() is None and singular.optimum() is None
    assert spy.call_count == 1


@pytest.mark.parametrize("shared", [False, True], ids=["per_agent", "shared"])
def test_a_pickled_quadratic_ensemble_stays_read_only(shared):
    e = costs.make_synthetic_quadratics(4, 3, "a", seed=5)
    if shared:
        e = costs.QuadraticEnsemble(e.a[0], e.b)
    e.optimum()
    again = pickle.loads(pickle.dumps(e))
    arrays = [again.a, again.b, again.optimum()[0]] + ([] if shared else [again._b_panel])
    for v in arrays:
        with pytest.raises(ValueError, match="read-only"):
            v[...] = 0.0


@st.composite
def spd_ensembles(draw):
    """1-5 agents on R^d, d from 1 to 17, each A_i = G G' + mu I with G
    uniform in [-3, 3] and mu from 1e-3 to 10, made exactly symmetric."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.uniform(-3.0, 3.0, size=(n, d, d))
    a = g @ g.transpose(0, 2, 1) + draw(st.floats(1e-3, 10.0)) * np.eye(d)
    a = 0.5 * (a + a.transpose(0, 2, 1))
    return costs.QuadraticEnsemble(a, rng.uniform(-3.0, 3.0, size=(n, d)))


@settings(max_examples=200, deadline=None)
@given(spd_ensembles())
def test_quadratic_optimum_matches_cho_solve(e):
    x_star, _ = e.optimum()
    a_bar = e.a.mean(axis=0)
    ref = cho_solve(cho_factor(a_bar), -e.b.mean(axis=0))
    # two backward-stable solves agree to about d * cond(A) ulp of max|x*|;
    # 20 000 random ensembles of this shape came within 2 d cond(A) ulp
    tol = 4 * e.d * np.linalg.cond(a_bar) * np.spacing(np.max(np.abs(ref)))
    assert np.max(np.abs(x_star - ref)) <= tol


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-745.0, 745.0), min_size=1, max_size=64))
def test_sigmoid_matches_expit(vs):
    v = np.array(vs)
    ref = expit(v)
    # numpy's exp and the C library's differ by at most 1 ulp; the sum 1 + z
    # and the reciprocal each round once per side, so the two agree to 3 eps
    # relative, plus one step where the sigmoid is subnormal
    tol = 3 * np.finfo(float).eps * ref + np.finfo(float).smallest_subnormal
    assert np.all(np.abs(costs._sigmoid(v) - ref) <= tol)


def test_sigmoid_saturates_exactly_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = costs._sigmoid(np.array([-1e3, 1e3]))
    assert got.tolist() == [0.0, 1.0]


def test_logistic_labels_must_match_each_agents_feature_rows():
    feats = [np.ones((3, 2)), np.ones((2, 2))]
    with pytest.raises(costs.CostError, match="agent 0 has 3 feature rows"):
        costs.LogisticEnsemble(feats, [np.ones(2), np.ones(3)])


@pytest.mark.parametrize("change, match", [
    ({"indices": np.array([0, 3, 1])}, r"feature indices must lie in \[0, 3\)"),
    ({"indices": np.array([0, -1, 1])}, r"feature indices must lie in \[0, 3\)"),
    ({"values": np.ones(2)}, "3 stored features by the row pointers, 3 indices and 2 values"),
    ({"indptr": np.array([0, 1, 3, 4])}, "4 stored features by the row pointers, 3 indices"),
    ({"sizes": [1, 1]}, "agent sizes summing to 2 for 3 labels and 3 rows"),
], ids=["index_past_d", "negative_index", "short_values", "long_indptr", "short_sizes"])
def test_logistic_from_pooled_rejects_inconsistent_arrays(change, match):
    args = {"labels": np.array([1.0, -1.0, 1.0]), "indptr": np.array([0, 1, 3, 3]),
            "indices": np.array([0, 2, 1]), "values": np.ones(3), "d": 3, "sizes": [2, 1]}
    args.update(change)
    with pytest.raises(costs.CostError, match=match):
        costs.LogisticEnsemble.from_pooled(**args)


def test_profile_b_beta_assignment():
    e = costs.make_synthetic_quadratics(5, 3, "b", seed=9)
    betas = sorted(e.b[:, 0])
    assert betas == [-2.0, -1.0, 0.0, 1.0, 3.0]
    assert np.allclose(e.b.mean(axis=0), 0.2)
    assert e.shared_a


def test_profile_b_requires_divisibility():
    with pytest.raises(costs.CostError):
        costs.make_synthetic_quadratics(7, 3, "b", seed=0)


def test_synthetic_matrices_are_psd():
    for seed in range(5):
        e = costs.make_synthetic_quadratics(4, 10, "a", seed=seed, mu0=0.1)
        for m in e.a:
            assert np.linalg.eigvalsh(m)[0] >= 0.1 - 1e-10


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    eq = costs.make_synthetic_quadratics(3, 4, "a", seed=11)
    el = costs.LogisticEnsemble(
        [rng.standard_normal((5, 4)) for _ in range(3)],
        [rng.choice([-1.0, 1.0], size=5) for _ in range(3)],
        eta=0.1,
    )
    for e in (eq, el):
        for _ in range(100 // 2):
            i = int(rng.integers(0, e.n))
            x = rng.standard_normal(e.d)
            fd = central_diff_grad(lambda v: e.value_local(i, v), x)
            g = e.grad_local(i, x)
            denom = max(np.linalg.norm(fd), 1.0)
            assert np.linalg.norm(g - fd) / denom <= 1e-5


def test_smoothness_bounds_gradient_differences():
    rng = np.random.default_rng(4)
    e = costs.make_synthetic_quadratics(3, 5, "a", seed=13)
    L = e.smoothness()
    for _ in range(1000):
        i = int(rng.integers(0, 3))
        x, y = rng.standard_normal(5), rng.standard_normal(5)
        lhs = np.linalg.norm(e.grad_local(i, x) - e.grad_local(i, y))
        assert lhs <= L * np.linalg.norm(x - y) * (1 + 1e-9)


def test_quadratic_pl_inequality():
    # 2 mu (f - f*) <= ||grad f||^2 with mu = min eig of the average matrix
    rng = np.random.default_rng(5)
    e = costs.make_synthetic_quadratics(4, 6, "a", seed=17)
    mu = e.pl_constant()
    _, f_star = e.optimum()
    for _ in range(1000):
        x = 3.0 * rng.standard_normal(6)
        fx = e.value_global(x)
        assert fx >= f_star - 1e-12
        assert 2 * mu * (fx - f_star) <= np.dot(
            e.grad_global(x), e.grad_global(x)
        ) * (1 + 1e-9)


@pytest.mark.parametrize("shared", [False, True])
def test_smoothness_of_an_indefinite_quadratic_is_its_largest_absolute_eigenvalue(shared):
    # A has eigenvalues 1 and -6: grad f is 6-Lipschitz, attained along the
    # second axis, and the largest eigenvalue, 1, would understate it
    a = np.diag([1.0, -6.0])
    e = costs.QuadraticEnsemble(a if shared else np.stack([a, 0.5 * np.eye(2)]), np.zeros((2, 2)))
    assert e.smoothness() == 6.0
    step = np.array([0.0, 1.0])
    assert np.linalg.norm(e.grad_local(0, step) - e.grad_local(0, 0 * step)) == 6.0


def test_smoothness_of_a_psd_ensemble_is_its_largest_eigenvalue():
    e = costs.make_synthetic_quadratics(6, 5, "a", seed=3)
    assert e.smoothness() == max(float(np.linalg.eigvalsh(m)[-1]) for m in e.a)


def test_per_agent_gradients_are_bitwise_those_of_one_model_in_a_panel():
    # at d = 37 a (d, d) x (d,) product and a panel product sum in different
    # orders, so only the same panel product agrees bitwise
    e = costs.make_synthetic_quadratics(5, 37, "a", sparsity=1.0, seed=8)
    x = np.random.default_rng(9).standard_normal((2 * costs.PANEL + 3, 5, 37))
    block = e.grad_all(x)
    assert block.shape == x.shape
    assert block.tobytes() == np.stack([e.grad_all(v) for v in x]).tobytes()
    for b in (0, costs.PANEL - 1, 2 * costs.PANEL + 2):
        for i in range(5):
            assert e.grad_local(i, x[b, i]).tobytes() == block[b, i].tobytes()
    # the engine's form: a stack of slots viewing agent-major panels
    mem = np.zeros((5, 3 * costs.PANEL, 37))
    mem[:, :len(x)] = x.swapaxes(0, 1)
    assert e.grad_all(mem.swapaxes(0, 1))[:len(x)].tobytes() == block.tobytes()


def test_grad_all_consistency():
    e = costs.make_synthetic_quadratics(5, 4, "a", seed=19)
    x = np.random.default_rng(6).standard_normal((5, 4))
    block = e.grad_all(x)
    for i in range(5):
        assert np.allclose(block[i], e.grad_local(i, x[i]), atol=1e-12)
    gl = e.grad_global_all(x)
    for i in range(5):
        assert np.allclose(gl[i], e.grad_global(x[i]), atol=1e-12)


def test_logistic_local_gradient_is_the_batch_of_all_the_agents_rows():
    rng = np.random.default_rng(8)
    e = costs.LogisticEnsemble([rng.standard_normal((m, 3)) for m in (5, 2, 7)],
                               [rng.choice([-1.0, 1.0], size=m) for m in (5, 2, 7)], eta=0.05)
    x = rng.standard_normal(3)
    dense = DenseLogistic(e)
    for i in range(3):
        h, y = dense.features[i], dense.labels[i]
        by_hand = -(h.T @ (y * (1.0 / (1.0 + np.exp(y * (h @ x)))))) / len(h) + e._penalty_grad(x)
        assert np.array_equal(e.grad_local(i, x), by_hand)
        assert np.array_equal(e.grad_local(i, x), e.grad_batch(i, x, np.arange(len(h))))
    with pytest.raises(costs.CostError, match="non-finite"):
        e.grad_local(0, np.array([0.0, np.nan, 0.0]))


def test_logistic_grad_global_all_matches_loop():
    rng = np.random.default_rng(7)
    e = costs.LogisticEnsemble(
        [rng.standard_normal((4, 3)) for _ in range(3)],
        [rng.choice([-1.0, 1.0], size=4) for _ in range(3)],
        eta=0.05,
    )
    x = rng.standard_normal((3, 3))
    block = e.grad_global_all(x)
    for i in range(3):
        assert np.allclose(block[i], e.grad_global(x[i]), atol=1e-12)


@st.composite
def logistic_cases(draw):
    """A toy logistic ensemble (1-8 agents, 1-4 real-valued samples each, both
    labels) and a stack of two model slices: x and 1e3 x, whose margins pass
    exp's overflow threshold (~709.8) whenever x's exceed 0.71."""
    n = draw(st.integers(1, 8))
    d = draw(st.sampled_from([1, 2, 17]))
    reals = st.floats(-4.0, 4.0, allow_nan=False)
    feats, labels = [], []
    for _ in range(n):
        m = draw(st.integers(1, 4))
        feats.append(np.array(draw(st.lists(reals, min_size=m * d, max_size=m * d))).reshape(m, d))
        labels.append(np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))))
    e = costs.LogisticEnsemble(feats, labels, eta=draw(st.sampled_from([0.0, 0.1])))
    x = np.array(draw(st.lists(st.floats(-30.0, 30.0, allow_nan=False),
                               min_size=n * d, max_size=n * d))).reshape(n, d)
    return e, np.stack([x, 1e3 * x])


@settings(max_examples=150, deadline=None)
@given(logistic_cases())
def test_logistic_grad_global_all_matches_the_expit_form(case):
    e, xs = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            stacked = e.grad_global_all(xs)
            slices = [e.grad_global_all(x) for x in xs]
    assert np.all(np.isfinite(stacked))
    assert np.array_equal(stacked, np.stack(slices))
    for x, got in zip(xs, slices):
        ref = reference_logistic_grad_global_all(e, x)
        # 1e-13 of the summed magnitudes bounds the error of any summation
        # order; a term whose expit lies below the smallest normal float may be
        # lost by the exp form (flushed to 0 or left subnormal), hence tiny
        h = dense_features(e)
        sig = e._w_all[:, None] * expit(-(h @ x.T) * e._y_all[:, None])
        terms = (np.abs(h).T @ sig).T + e.eta * 2.0 * np.abs(x) / (1.0 + x * x) ** 2
        tol = 1e-13 * terms + np.finfo(float).tiny * (e._w_all @ np.abs(h))
        assert np.all(np.abs(got - ref) <= tol)


@settings(max_examples=150, deadline=None)
@given(case=logistic_cases(), tile=st.integers(1, 5))
def test_logistic_global_gradients_over_row_tiles(case, tile):
    e, xs = case
    h = dense_features(e)
    m, d = h.shape
    counts, spy = tile_counts()
    with mock.patch.object(costs, "TILE", tile), spy:
        stacked = e.grad_global_all(xs)
        slices = [e.grad_global_all(x) for x in xs]
    # the patched tile is the one the calls walked: a tile of one row is one
    # tile per pooled row
    assert counts == [-(-m // tile)] * 3
    assert stacked.tobytes() == np.stack(slices).tobytes()
    for x, got in zip(xs, slices):
        ref = parent_logistic_grad_global_all(e, x)
        # one tile makes the operations of the (n, m) buffer; at n = 1 its
        # product was a GEMV, whose bits a panel's GEMM does not reproduce
        if m <= tile and e.n >= 2:
            assert got.tobytes() == ref.tobytes()
            continue
        # Tiles reorder the sum over rows of z_r h_r, and two orders of a sum
        # of m terms differ by at most 2 m eps times the sum of the terms'
        # magnitudes. A margin whose d terms are summed in another order
        # moves by at most 2 d eps |x|.|h_r|, and z_r = y w / (1 + exp(margin))
        # by at most that much relative. The final add of the penalty rounds
        # twice more, and a z_r near the smallest normal may round by tiny.
        eps = np.finfo(float).eps
        z = e._w_all * expit(-(x @ h.T) * e._y_all)
        spread = np.abs(x) @ np.abs(h).T
        terms = (m * z + d * z * spread) @ np.abs(h)
        tol = 2 * eps * (terms + np.abs(ref)) + np.finfo(float).tiny * (e._w_all @ np.abs(h))
        assert np.all(np.abs(got - ref) <= tol)


TOY = os.path.join(os.path.dirname(__file__), "fixtures", "toy.libsvm")


def random_corpus(n, d, m, rng, eta=0.1):
    """Logistic costs on m random rows of d features, split at random among
    n agents."""
    cuts = np.sort(rng.choice(np.arange(1, m), size=n - 1, replace=False))
    h = rng.standard_normal((m, d)) * rng.exponential(1.0, d)
    return costs.LogisticEnsemble(np.split(h, cuts), np.split(rng.choice([-1.0, 1.0], m), cuts), eta=eta)


@st.composite
def panel_cases(draw):
    """A logistic ensemble on n = 1-8 agents whose pooled rows span several
    tiles, and a TILE: the toy corpus over tiles of 1-5 rows, or a random
    corpus at d in {1, 2, 17} of up to 40 rows over tiles of 1-5 rows, or of
    1-3 tiles of TILE rows. Also a seed for the points."""
    n = draw(st.integers(1, 8))
    eta = draw(st.sampled_from([0.0, 0.1]))
    if draw(st.booleans()):
        parts = datasets.split_uniform(datasets.load_libsvm(TOY), n, seed=draw(st.integers(0, 9)))
        return datasets.to_logistic_ensemble(parts, eta=eta), draw(st.integers(1, 5)), draw(st.integers(0, 99))
    d = draw(st.sampled_from([1, 2, 17]))
    tile = draw(st.sampled_from([costs.TILE, 1, 2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    m = int(rng.integers(n, 3 * tile + 1)) if tile == costs.TILE else draw(st.integers(n, 40))
    return random_corpus(n, d, m, rng, eta), tile, draw(st.integers(0, 99))


@settings(max_examples=150, deadline=None)
@given(panel_cases())
# a partial tile of 193 rows at n = 4, where the last slice of a panel got
# other bits with the panel as OpenBLAS's N operand
@example((random_corpus(4, 17, 193, np.random.default_rng(1)), costs.TILE, 0))
def test_a_slice_or_point_has_its_bits_alone_in_every_panel_position_beside_any_mates(case):
    # the BLAS fact the panels rest on: at one GEMM shape of two or more rows
    # a row's bits depend on neither its position nor its panel-mates
    e, tile, seed = case
    rng = np.random.default_rng(seed)
    n, d = e.n, e.d
    slices, points = 2 * costs.GRAD_SLICES - 1, 2 * costs.VALUE_POINTS - 1
    with mock.patch.object(costs, "TILE", tile), np.errstate(over="ignore"):
        x = rng.standard_normal((n, d))
        alone = e.grad_global_all(x)
        assert e.grad_global(x).tobytes() == alone.tobytes()
        for b in range(slices):
            mates = rng.standard_normal((slices, n, d))
            mates[b] = x
            assert e.grad_global_all(mates)[b].tobytes() == alone.tobytes()
        p = x[0]
        value = e.value_global(p)
        for b in range(points):
            mates = rng.standard_normal((points, d))
            mates[b] = p
            assert e.value_global(mates)[b] == value


@st.composite
def sparse_cases(draw):
    """A logistic ensemble on n = 1-6 agents and a TILE of 1-5 rows or the
    default. Either a random LIBSVM corpus, d in {1, 2, 17}, of up to 40 rows
    (up to 3 tiles and a partial one at the default TILE), with empty rows
    and explicit ``:0`` and ``:-0`` values, max-abs scaled or not, or dense
    features through the dense constructor, some of them -0.0. Also a seed
    for the points."""
    n = draw(st.integers(1, 6))
    eta = draw(st.sampled_from([0.0, 0.1]))
    tile = draw(st.sampled_from([costs.TILE, 1, 2, 3, 5]))
    d = draw(st.sampled_from([1, 2, 17]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    m = int(rng.integers(n, 3 * tile + 2)) if tile == costs.TILE else draw(st.integers(n, 40))
    if draw(st.booleans()):
        lines = []
        for _ in range(m):
            cols = np.flatnonzero(rng.random(d) < rng.choice([0.0, 0.3, 1.0]))
            vals = rng.choice(["0", "-0", "1", "-2.5", repr(float(rng.standard_normal()))], len(cols))
            lines.append(" ".join([str(rng.choice([-1, 1]))] + [f"{c + 1}:{v}" for c, v in zip(cols, vals)]))
        ds = datasets.parse_libsvm("\n".join(lines) + "\n")
        if ds.d == 0:
            ds = datasets.parse_libsvm("\n".join(lines) + f"\n+1 {d}:0\n")
        if draw(st.booleans()):
            ds = datasets.maxabs_scale(ds)
        parts = datasets.split_uniform(ds, n, seed=draw(st.integers(0, 9)))
        h = np.vstack([reference_densify(p.rows, ds.d)[0] for p in parts])
        e = datasets.to_logistic_ensemble(parts, eta=eta)
    else:
        h = rng.standard_normal((m, d)) * (rng.random((m, d)) < 0.5)
        h[rng.random((m, d)) < 0.2] = -0.0
        cuts = np.sort(rng.choice(np.arange(1, m), size=n - 1, replace=False)) if n > 1 else []
        e = costs.LogisticEnsemble(np.split(h, cuts), np.split(rng.choice([-1.0, 1.0], m), cuts), eta=eta)
    # every entry is kept, -0.0 features too
    assert dense_features(e).tobytes() == h.tobytes()
    return e, tile, draw(st.integers(0, 99))


@settings(max_examples=200, deadline=None)
@given(sparse_cases())
@example((random_corpus(4, 17, 193, np.random.default_rng(1)), costs.TILE, 0))
def test_the_sparse_forms_match_the_dense_forms_bit_for_bit(case):
    e, tile, seed = case
    dense = DenseLogistic(e)
    rng = np.random.default_rng(seed)
    n, d = e.n, e.d
    xs = rng.standard_normal((2 * costs.GRAD_SLICES + 1, n, d))
    points = rng.standard_normal((costs.VALUE_POINTS + 3, d))
    with mock.patch.object(costs, "TILE", tile), np.errstate(over="ignore"):
        for f in ("grad_global", "grad_global_all", "value_global"):
            for x in (xs, xs[0], points, points[0]):
                assert np.asarray(getattr(e, f)(x)).tobytes() == np.asarray(getattr(dense, f)(x)).tobytes()
    for i in range(n):
        x = xs[0, i]
        assert e.grad_local(i, x).tobytes() == dense.grad_local(i, x).tobytes()
        assert e.value_local(i, x) == dense.value_local(i, x)
        assert e.sample_count(i) == len(dense.features[i])
        idx = rng.choice(e.sample_count(i), size=rng.integers(1, e.sample_count(i) + 1), replace=False)
        assert e.grad_batch(i, x, idx).tobytes() == dense.grad_batch(i, x, idx).tobytes()
    assert e.smoothness() == dense.smoothness()


def test_a_logistic_ensembles_arrays_are_read_only_also_after_a_pickle():
    rng = np.random.default_rng(4)
    ds = datasets.LabeledDataset(np.array([1, -1, 1]), np.array([0, 2, 2, 3]), np.array([0, 2, 1]),
                                 np.array([0.5, -0.0, 2.0]), 3)
    for e in (datasets.to_logistic_ensemble(datasets.split_uniform(ds, 2), eta=0.1),
              costs.LogisticEnsemble([rng.standard_normal((3, 2))], [np.ones(3)])):
        x = rng.standard_normal((e.n, e.d))
        copy = pickle.loads(pickle.dumps(e))
        for ens in (e, copy):
            arrays = [v for v in vars(ens).values() if isinstance(v, np.ndarray)]
            assert len(arrays) == len(costs.LogisticEnsemble._ARRAYS)
            assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            copy._values[0] = 1.0
        assert copy.grad_global_all(x).tobytes() == e.grad_global_all(x).tobytes()


def test_building_a_logistic_ensemble_holds_no_dense_matrix():
    # an a9a-shaped corpus of eight tiles: 14 of 123 features per row
    m, d, nnz = 8 * costs.TILE, 123, 14
    rng = np.random.default_rng(5)
    indices = np.sort(np.argsort(rng.random((m, d)), axis=1)[:, :nnz], axis=1).ravel()
    ds = datasets.LabeledDataset(rng.choice([-1, 1], m), np.arange(m + 1) * nnz, indices,
                                 np.ones(m * nnz), d)
    parts = datasets.split_uniform(ds, 50)
    tracemalloc.start()
    try:
        e = datasets.to_logistic_ensemble(parts, eta=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * d * 8 / 2
    assert all(v.size < m * d for v in vars(e).values() if isinstance(v, np.ndarray))


def eight_tile_ensemble(n, d):
    m = 8 * costs.TILE
    rng = np.random.default_rng(3)
    cuts = np.linspace(0, m, n + 1).astype(int)[1:-1]
    h, y = rng.standard_normal((m, d)), rng.choice([-1.0, 1.0], m)
    return costs.LogisticEnsemble(np.split(h, cuts), np.split(y, cuts), eta=0.1), rng


def traced_peak(fn, x):
    fn(x)
    tracemalloc.start()
    try:
        fn(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_logistic_global_gradients_hold_one_tile_buffer():
    # at n = 50 on a corpus of eight tiles, a call on a stack holds one
    # (TILE, GRAD_SLICES n) panel buffer and (GRAD_SLICES n, d) arrays
    n = 50
    e, rng = eight_tile_ensemble(n, 4)
    peak = traced_peak(e.grad_global_all, rng.standard_normal((2, n, 4)))
    assert peak <= 2 * costs.GRAD_SLICES * n * costs.TILE * 8


def test_logistic_global_values_hold_one_tile_buffer():
    # a stack of 300 points, 38 panels, over eight tiles holds one
    # (TILE, VALUE_POINTS) buffer and the penalty's arrays of the stack's
    # size: no more than the gradients' one panel buffer at n = 50
    n = 50
    e, rng = eight_tile_ensemble(n, 4)
    peak = traced_peak(e.value_global, rng.standard_normal((3, 100, 4)))
    assert peak <= costs.GRAD_SLICES * n * costs.TILE * 8


def test_ensemble_json_roundtrip(tmp_path):
    eq = costs.make_synthetic_quadratics(5, 4, "b", seed=2)
    path = tmp_path / "e.json"
    costs.save_ensemble_json(eq, path)
    loaded = costs.load_ensemble_json(path)
    assert loaded.kind == "quadratic"
    assert np.array_equal(loaded.b, eq.b)
    x = np.arange(4.0)
    assert np.allclose(loaded.grad_global(x), eq.grad_global(x), atol=0)

    # only quadratics replay from JSON: a logistic cost reads its LIBSVM corpus
    rng = np.random.default_rng(8)
    el = costs.LogisticEnsemble(
        [rng.standard_normal((3, 2)) for _ in range(2)],
        [np.array([1.0, -1.0, 1.0]), np.array([-1.0, 1.0, -1.0])],
        eta=0.1,
    )
    with pytest.raises(costs.CostError, match="cannot serialize ensemble kind 'logistic'"):
        costs.save_ensemble_json(el, tmp_path / "l.json")
    for payload in ({"kind": "logistic", "eta": 0.1, "agents": []}, [1, 2]):
        (tmp_path / "l.json").write_text(json.dumps(payload))
        with pytest.raises(costs.CostError, match="a JSON ensemble must be quadratic"):
            costs.load_ensemble_json(tmp_path / "l.json")
