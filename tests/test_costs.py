import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from gtsim import costs
from util import central_diff_grad, reference_logistic_grad_global_all


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
    x_star, f_star = costs.quadratic_optimum(e)
    assert np.allclose(x_star, [-2.0])
    assert f_star == pytest.approx(-4.0)


def test_quadratic_optimum_zero_b():
    e = costs.QuadraticEnsemble(np.array([[[3.0, 0.0], [0.0, 1.0]]]), np.zeros((1, 2)))
    x_star, f_star = costs.quadratic_optimum(e)
    assert np.allclose(x_star, 0.0)
    assert f_star == pytest.approx(0.0)


def test_quadratic_optimum_residual_random_spd():
    e = costs.make_synthetic_quadratics(6, 8, "a", seed=5)
    x_star, _ = costs.quadratic_optimum(e)
    a_bar = (e.a if e.shared_a else e.a.mean(axis=0))
    assert np.linalg.norm(a_bar @ x_star + e.b.mean(axis=0)) <= 1e-10


def test_quadratic_optimum_singular_rejected():
    e = costs.QuadraticEnsemble(np.array([[[0.0]]]), np.array([[1.0]]))
    with pytest.raises(costs.CostError, match="no unique optimum"):
        costs.quadratic_optimum(e)


def test_logistic_labels_must_match_each_agents_feature_rows():
    feats = [np.ones((3, 2)), np.ones((2, 2))]
    with pytest.raises(costs.CostError, match="agent 0 has 3 feature rows"):
        costs.LogisticEnsemble(feats, [np.ones(2), np.ones(3)])


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


def test_grad_all_consistency():
    e = costs.make_synthetic_quadratics(5, 4, "a", seed=19)
    x = np.random.default_rng(6).standard_normal((5, 4))
    block = e.grad_all(x)
    for i in range(5):
        assert np.allclose(block[i], e.grad_local(i, x[i]), atol=1e-12)
    gl = e.grad_global_all(x)
    for i in range(5):
        assert np.allclose(gl[i], e.grad_global(x[i]), atol=1e-12)


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
        sig = e._w_all[:, None] * expit(-(e._h_all @ x.T) * e._y_all[:, None])
        terms = (np.abs(e._h_all).T @ sig).T + e.eta * 2.0 * np.abs(x) / (1.0 + x * x) ** 2
        tol = 1e-13 * terms + np.finfo(float).tiny * (e._w_all @ np.abs(e._h_all))
        assert np.all(np.abs(got - ref) <= tol)


def test_ensemble_json_roundtrip(tmp_path):
    eq = costs.make_synthetic_quadratics(5, 4, "b", seed=2)
    path = tmp_path / "e.json"
    costs.save_ensemble_json(eq, path)
    loaded = costs.load_ensemble_json(path)
    assert loaded.kind == "quadratic"
    assert np.array_equal(loaded.b, eq.b)
    x = np.arange(4.0)
    assert np.allclose(loaded.grad_global(x), eq.grad_global(x), atol=0)

    rng = np.random.default_rng(8)
    el = costs.LogisticEnsemble(
        [rng.standard_normal((3, 2)) for _ in range(2)],
        [np.array([1.0, -1.0, 1.0]), np.array([-1.0, 1.0, -1.0])],
        eta=0.1,
    )
    path2 = tmp_path / "l.json"
    costs.save_ensemble_json(el, path2)
    loaded2 = costs.load_ensemble_json(path2)
    assert loaded2.kind == "logistic"
    assert np.allclose(loaded2.grad_local(1, np.ones(2)), el.grad_local(1, np.ones(2)), atol=0)
