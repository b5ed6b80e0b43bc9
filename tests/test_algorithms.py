import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtsim import algorithms as alg, costs, noise, theorycheck as tc, topology as tp
from util import assert_records_identical, path3_matrix, reference_run, ring_matrix


ZERO = noise.GaussianOracle(0.0)


def heterogeneous_pair():
    # f_1 = x^2/2 + x, f_2 = x^2/2 - x over the complete 2-graph (W = J)
    w = tp.metropolis_hastings(tp.generate_graph("complete", 2))
    e = costs.QuadraticEnsemble(np.array([[[1.0]], [[1.0]]]), np.array([[1.0], [-1.0]]))
    return w, e


def one_traced_step(w, e, x0, alpha):
    """The engine's first tracked step, checked against the reference loop."""
    cfg = alg.RunConfig(w=w, ensemble=e, oracle=ZERO, schedule=alg.ConstantStep(alpha), T=1,
                        x0=x0, record_trace=True)
    rec = alg.run("gt_dsgd", cfg, [0], [0])
    assert_records_identical(rec, reference_run("gt_dsgd", cfg, 0, 0))
    return rec.y_hist[0, 0], rec.x_hist[0, 1]


def test_one_step_hand_simulation():
    w, e = heterogeneous_pair()
    y, x = one_traced_step(w, e, np.zeros((2, 1)), 0.1)
    # heterogeneous gradients cancel through uniform averaging
    assert np.allclose(y, 0.0, atol=1e-15)
    assert np.allclose(x, 0.0, atol=1e-15)


def test_single_agent_is_centralized_sgd():
    w = tp.MixingMatrix(1, np.ones((1, 1)), 0.0)
    e = costs.QuadraticEnsemble(np.array([[[2.0]]]), np.array([[4.0]]))
    y, x = one_traced_step(w, e, np.array([[1.0]]), 0.05)
    g = 2.0 * 1.0 + 4.0
    assert np.allclose(y, [[g]])
    assert np.allclose(x, [[1.0 - 0.05 * g]])


def test_homogeneous_reduction_to_centralized_gd():
    # identical costs, common init, zero noise: all agents track centralized GD
    w = path3_matrix()
    a = np.array([[2.0, 0.3], [0.3, 1.0]])
    e = costs.QuadraticEnsemble(np.stack([a] * 3), np.tile([1.0, -0.5], (3, 1)))
    x0 = np.tile([0.7, -0.2], (3, 1))
    cfg = alg.RunConfig(w=w, ensemble=e, oracle=ZERO, schedule=alg.ConstantStep(0.1), T=100, x0=x0)
    rec = alg.run("gt_dsgd", cfg, [0], [0])
    xc = np.array([0.7, -0.2])
    for _ in range(100):
        xc = xc - 0.1 * (a @ xc + np.array([1.0, -0.5]))
    assert np.max(np.abs(rec.final_x - xc)) <= 1e-9


def test_dsgd_average_follows_centralized_gd_under_uniform_mixing():
    w, e = heterogeneous_pair()
    x0 = np.array([[1.0], [3.0]])
    cfg = alg.RunConfig(w=w, ensemble=e, oracle=ZERO, schedule=alg.ConstantStep(0.2), T=30, x0=x0)
    rec = alg.run("dsgd", cfg, [0], [0])
    xbar = 2.0
    for _ in range(30):
        xbar = xbar - 0.2 * xbar  # grad f(x) = x for the averaged cost
    assert abs(rec.final_x.mean() - xbar) <= 1e-12


def test_bias_floor_separation():
    # vanilla keeps a constant-step bias; tracking removes it
    w = path3_matrix()
    a = np.stack([np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), np.diag([1.5, 1.5])])
    b = np.array([[2.0, 0.0], [0.0, -2.0], [-2.0, 2.0]])
    e = costs.QuadraticEnsemble(a, b)
    L = e.smoothness()
    x_star, _ = e.optimum()
    cfg = alg.RunConfig(w=w, ensemble=e, oracle=ZERO,
                        schedule=alg.ConstantStep(1.0 / (8.0 * L)), T=10_000, x0=np.zeros((3, 2)))
    err_d = np.linalg.norm(alg.run("dsgd", cfg, [0], [0]).final_x[0].mean(axis=0) - x_star)
    err_g = np.linalg.norm(alg.run("gt_dsgd", cfg, [0], [0]).final_x[0].mean(axis=0) - x_star)
    assert err_d > 1e-3
    assert err_g <= 1e-8


@st.composite
def traced_quadratic_runs(draw):
    """Traced runs over random connected Erdos-Renyi graphs and noisy quadratics."""
    n = draw(st.integers(2, 8))
    e = costs.make_synthetic_quadratics(n, draw(st.integers(1, 5)), "a",
                                        sparsity=draw(st.sampled_from([0.3, 1.0])),
                                        seed=draw(st.integers(0, 99)))
    g = tp.generate_graph("erdos_renyi", n, seed=draw(st.integers(0, 99)),
                          p=draw(st.sampled_from([0.3, 0.6, 1.0])))
    schedule = draw(st.sampled_from([alg.ConstantStep(0.05), alg.InverseTimeStep(1.0, 1.0, 1.0)]))
    x0 = draw(st.sampled_from([0.0, 1.0])) * np.random.default_rng(n).standard_normal((n, e.d))
    return alg.RunConfig(w=tp.metropolis_hastings(g), ensemble=e,
                         oracle=noise.GaussianOracle(draw(st.sampled_from([0.5, 1.0]))),
                         schedule=schedule, T=draw(st.sampled_from([1, 70, 300])), x0=x0,
                         record_trace=True)


@settings(max_examples=15, deadline=None)
@given(cfg=traced_quadratic_runs(), seed=st.integers(0, 2**64 - 1))
def test_tracking_identity_under_noise(cfg, seed):
    # the tracker mean equals the gradient mean at every iteration
    rec = alg.run("gt_dsgd", cfg, [seed], [0])
    assert rec.max_tracker_mean_residual() <= 1e-10


def test_tracker_mean_residual_of_a_block_is_the_worst_of_its_runs():
    e = costs.make_synthetic_quadratics(5, 3, "a", seed=2)
    cfg = alg.RunConfig(w=ring_matrix(5), ensemble=e, oracle=noise.GaussianOracle(1.0),
                        schedule=alg.ConstantStep(0.05), T=40, x0=np.ones((5, 3)),
                        record_trace=True)
    block = alg.run("gt_dsgd", cfg, (3, 4), (0, 1))
    per_run = [rec.max_tracker_mean_residual() for rec in block.split()]
    assert block.max_tracker_mean_residual() == max(per_run) <= 1e-10


@settings(max_examples=15, deadline=None)
@given(cfg=traced_quadratic_runs(), seed=st.integers(0, 2**64 - 1))
def test_average_dynamics_identity(cfg, seed):
    # mixing preserves the average: xbar^{t+1} = xbar^t - alpha_t gbar^t for both methods
    for algo in ("gt_dsgd", "dsgd"):
        rec = alg.run(algo, cfg, [seed], [0])
        xbar = rec.x_hist[0].mean(axis=1)
        gbar = rec.g_hist[0].mean(axis=1)
        drift = np.linalg.norm(xbar[1:] - (xbar[:-1] - rec.alpha[:, None] * gbar), axis=1)
        assert drift.max() <= 1e-10


def test_run_matches_step_composition():
    w = ring_matrix(5)
    e = costs.make_synthetic_quadratics(5, 3, "a", seed=5)
    o = noise.GaussianOracle(0.7)
    sched = alg.InverseTimeStep(1.0, 1.0, 1.0)
    cfg = alg.RunConfig(w=w, ensemble=e, oracle=o, schedule=sched, T=40, x0=np.zeros((5, 3)))
    for algo in ("gt_dsgd", "dsgd"):
        ref = reference_run(algo, cfg, 9, 3)
        assert np.array_equal(alg.run(algo, cfg, [9], [3]).final_x, ref.final_x)


def test_run_deterministic_in_seed_and_run_id():
    w = ring_matrix(4)
    e = costs.make_synthetic_quadratics(4, 3, "a", seed=2)
    cfg = alg.RunConfig(w=w, ensemble=e, oracle=noise.GaussianOracle(1.0),
                        schedule=alg.ConstantStep(0.05), T=50, x0=np.zeros((4, 3)))
    a = alg.run("gt_dsgd", cfg, [13], [2])
    b = alg.run("gt_dsgd", cfg, [13], [2])
    assert np.array_equal(a.final_x, b.final_x)
    assert np.array_equal(a.mse_to_opt, b.mse_to_opt)
    c = alg.run("gt_dsgd", cfg, [13], [3])
    assert not np.array_equal(a.final_x, c.final_x)


def test_run_takes_sequences_of_seeds_and_run_ids_only():
    cfg = alg.RunConfig(w=ring_matrix(3), ensemble=costs.make_synthetic_quadratics(3, 2, "a", seed=1),
                        oracle=ZERO, schedule=alg.ConstantStep(0.1), T=2, x0=np.ones((3, 2)))
    rec = alg.run("gt_dsgd", cfg, [4], [2])
    assert (rec.seed, rec.run_id, rec.final_x.shape) == ((4,), (2,), (1, 3, 2))
    with pytest.raises(TypeError):
        alg.run("gt_dsgd", cfg, 4, 2)
    with pytest.raises(ValueError, match="same, non-empty set of runs"):
        alg.run("gt_dsgd", cfg, [4, 5], [2])


def test_t_zero_returns_initial_only():
    w = ring_matrix(3)
    e = costs.make_synthetic_quadratics(3, 2, "a", seed=1)
    cfg = alg.RunConfig(w=w, ensemble=e, oracle=ZERO, schedule=alg.ConstantStep(0.1), T=0,
                        x0=np.ones((3, 2)))
    rec = alg.run("gt_dsgd", cfg, [0], [0])
    assert rec.T == 0
    assert rec.f_avg.shape == (1, 0)
    assert np.array_equal(rec.final_x, np.ones((1, 3, 2)))


def test_nan_aborts_with_diagnostics():
    w = ring_matrix(3)
    e = costs.QuadraticEnsemble(np.stack([np.eye(1)] * 3), np.zeros((3, 1)))
    # a step-size far above 2/L on a quadratic diverges to overflow
    cfg = alg.RunConfig(w=w, ensemble=e, oracle=ZERO, schedule=alg.ConstantStep(1e300),
                        T=50, x0=np.ones((3, 1)))
    with pytest.raises(alg.RunAbort) as info:
        alg.run("gt_dsgd", cfg, [0], [7])
    assert info.value.iteration >= 1
    assert info.value.run_id == 7


def test_schedule_values():
    s = alg.InverseTimeStep(a=2.0, mu=0.5, t0=3.0)
    assert s.value(1) == pytest.approx(2.0 / (0.5 * 4.0))
    assert s.value(7) == pytest.approx(2.0 / (0.5 * 10.0))
    with pytest.raises(ValueError):
        alg.ConstantStep(0.0)


# --- step-size calculators -------------------------------------------------

def test_nonconvex_step_cap_worked_values():
    res = alg.nonconvex_step_cap(n=9, T=10**12, L=1.0, lam=0.0, sigma_sq=1.0,
                                 sigma_max_sq=1.0, d=1)
    expected = math.sqrt(9.0 / (282.0 * math.e))
    assert res.cap == pytest.approx(expected, abs=1e-12)
    assert abs(res.cap - 0.1084) < 1e-3
    assert res.terms["smoothness"] == pytest.approx(0.25)
    assert res.alpha == pytest.approx(min(math.sqrt(9.0 / 10**12), res.cap))


def test_nonconvex_step_cap_rho_terms_inactive():
    res = alg.nonconvex_step_cap(n=4, T=100, L=2.0, lam=0.5, sigma_sq=1.0,
                                 sigma_max_sq=1.0, d=3, rho=0.0)
    assert res.terms["relaxed_ratio"] == math.inf
    assert res.terms["relaxed_root"] == math.inf


def test_nonconvex_step_cap_term_by_term_oracle():
    # independent re-evaluation of every term of the min
    n, T, L, lam, ss, sm, d, rho, eps = 6, 10**4, 2.5, 0.7, 1.3, 2.0, 7, 0.4, 0.8
    res = alg.nonconvex_step_cap(n=n, T=T, L=L, lam=lam, sigma_sq=ss,
                                 sigma_max_sq=sm, d=d, rho=rho, eps_exponent=eps)
    one = 1 - lam**2
    sigma = math.sqrt(ss)
    expect = [
        one**2 / (16 * lam**2 * L * math.sqrt(3)),
        one / (4 * lam * L * 12**0.25),
        one**(4 / 3) / (4 * lam**(4 / 3) * L * 12**(1 / 3)),
        n**(1 / 3) * one**(4 / 3) / (lam**(4 / 3) * sm**(1 / 3) * L**(2 / 3) * 1614**(1 / 3)),
        1 / (4 * L),
        (n / (9 * ss)) * math.sqrt(n / (282 * math.e * ss * d * L)),
        sigma * math.sqrt(32) / rho,
        (1 / (16 * n * rho**2))**(1 / (1 + eps)),
    ]
    assert res.cap == pytest.approx(min(expect), rel=1e-12)
    assert sorted(res.terms.values()) == pytest.approx(sorted(expect), rel=1e-12)


def test_nonconvex_step_cap_lambda_to_one_vanishes():
    caps = [
        alg.nonconvex_step_cap(n=4, T=100, L=1.0, lam=lam, sigma_sq=1.0,
                               sigma_max_sq=1.0, d=2).cap
        for lam in (0.9, 0.99, 0.999)
    ]
    assert caps[0] > caps[1] > caps[2]
    assert caps[2] < 1e-4


def test_pl_t0_floor_worked_value():
    res = alg.pl_t0_floor(n=1, lam=0.0, a=6.0, L=1.0, mu=1.0, sigma_sq=1.0, sigma_max_sq=1.0)
    assert res.t0 == 746496.0
    assert res.terms["curvature_quartic"] == 746496.0
    assert res.terms["mixing"] == pytest.approx(12.0)


def test_nonconvex_step_cap_recommends_the_caps_the_checks_enforce():
    for lam, L in ((0.0, 1.0), (0.3, 2.5), (0.9, 0.7), (1e-170, 1.0)):
        terms = alg.nonconvex_step_cap(n=4, T=100, L=L, lam=lam, sigma_sq=1.0, sigma_max_sq=2.0, d=3).terms
        assert terms["consensus"] == tc.consensus_step_cap(lam, L)
        assert terms["smoothness"] == tc.descent_step_cap(L)
    # lam^2 underflows to 0: the consensus term, like the check's cap, never binds
    assert terms["consensus"] == math.inf


def test_pl_t0_floor_relaxed_terms_by_hand():
    # the relaxed regime at n = 4, lam = 0.5, a = 6, L = 2, mu = 0.5 (kappa = 4),
    # sigma^2 = 1, sigma_max^2 = 2, rho = 3, eps = 1, so a / mu = 12
    args = dict(n=4, lam=0.5, a=6.0, L=2.0, mu=0.5, sigma_max_sq=2.0)
    terms = alg.pl_t0_floor(**args, sigma_sq=1.0, rho=3.0, eps_exponent=1.0).terms
    assert terms["relaxed_a"] == pytest.approx(12.0 * 216.0 ** (1 / 6))  # (12 rho^2 L)^(1/(4 + 2 eps))
    assert terms["relaxed_b"] == pytest.approx(12.0 * 648.0 ** (1 / 7))  # (18 rho^2 L^2)^(1/(5 + 2 eps))
    # rho^(1/3) max(sigma_max^(2/3), (1/(32 sigma^2))^(1/3)), the first larger here
    assert terms["relaxed_c"] == pytest.approx(12.0 * 6.0 ** (1 / 3))
    # (4 n rho)^(1/2) max(1, (1/mu)^(1/2), (4 kappa)^(1/2))
    assert terms["relaxed_d"] == pytest.approx(48.0 * math.sqrt(48.0))
    assert terms["relaxed_d"] == pytest.approx(332.55, abs=0.01)
    # at a small sigma^2, (1/(32 sigma^2))^(1/3) is the larger
    small = alg.pl_t0_floor(**args, sigma_sq=1e-3, rho=3.0, eps_exponent=1.0).terms
    assert small["relaxed_c"] == pytest.approx(12.0 * 3.0 ** (1 / 3) * 31.25 ** (1 / 3))
    at_zero = alg.pl_t0_floor(**args, sigma_sq=1.0, rho=0.0).terms
    assert [at_zero[k] for k in ("relaxed_a", "relaxed_b", "relaxed_c", "relaxed_d")] == [0.0] * 4


def test_pl_t0_floor_rejects_small_a():
    with pytest.raises(ValueError):
        alg.pl_t0_floor(n=1, lam=0.0, a=5.0, L=1.0, mu=1.0, sigma_sq=1.0, sigma_max_sq=1.0)


def test_pl_t0_schedule_satisfies_smoothness_cap():
    # with t0 >= 2 a kappa the first step already obeys alpha_1 <= 1/(2L)
    a, L, mu = 6.0, 3.0, 0.5
    res = alg.pl_t0_floor(n=2, lam=0.3, a=a, L=L, mu=mu, sigma_sq=0.5, sigma_max_sq=0.5)
    assert res.t0 >= 2 * a * L / mu
    sched = alg.InverseTimeStep(a=a, mu=mu, t0=res.t0)
    assert sched.value(1) <= 1.0 / (2.0 * L) + 1e-15
