import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtsim import algorithms as alg, costs, datasets, noise, theorycheck as tc, topology as tp
from util import (
    path3_matrix, reference_avg_mgf_details, reference_check_consensus_bound, reference_check_descent,
    reference_check_descent_pl, reference_check_noise_properties, reference_check_tracker_recursion,
    ring_matrix,
)

TOY = os.path.join(os.path.dirname(__file__), "fixtures", "toy.libsvm")


def quad_ensemble(n=3, d=4, seed=1):
    return costs.make_synthetic_quadratics(n, d, "a", seed=seed)


def traced_run(w, e, oracle, alpha, T, seed, x0=None, algorithm="gt_dsgd"):
    x0 = np.zeros((e.n, e.d)) if x0 is None else x0
    cfg = alg.RunConfig(w=w, ensemble=e, oracle=oracle, schedule=alg.ConstantStep(alpha),
                        T=T, x0=x0, record_trace=True)
    return alg.run(algorithm, cfg, [seed], [0])


def test_descent_zero_noise_500_steps():
    w = path3_matrix()
    e = quad_ensemble()
    alpha = 1.0 / (8.0 * e.smoothness())
    rec = traced_run(w, e, noise.GaussianOracle(0.0), alpha, 500, 0)
    report = tc.check_descent(rec, e)
    assert report.passed
    assert report.instances == 500


def test_descent_single_agent_collapse():
    w = tp.MixingMatrix(1, np.ones((1, 1)), 0.0)
    e = costs.QuadraticEnsemble(np.array([[[2.0, 0.0], [0.0, 1.0]]]), np.array([[1.0, -1.0]]))
    alpha = 1.0 / (8.0 * e.smoothness())
    rec = traced_run(w, e, noise.GaussianOracle(0.0), alpha, 100, 0,
                     x0=np.array([[2.0, -3.0]]))
    report = tc.check_descent(rec, e)
    assert report.passed
    # with one agent and no noise the inequality is plain descent along GD
    f = e.value_global(rec.x_hist[0].mean(axis=1))
    for t in range(1, rec.T + 1):
        assert f[t] <= f[t - 1] + 1e-12


def test_descent_noisy_multi_seed():
    w = path3_matrix()
    e = quad_ensemble()
    alpha = 1.0 / (8.0 * e.smoothness())
    reports = []
    for s in range(50):
        rec = traced_run(w, e, noise.GaussianOracle(0.5), alpha, 60, s)
        reports.append(tc.check_descent(rec, e))
    merged = tc.merge_reports("descent", reports)
    assert merged.passed
    assert merged.instances == 50 * 60


def test_descent_rejects_large_alpha():
    w = path3_matrix()
    e = quad_ensemble()
    rec = traced_run(w, e, noise.GaussianOracle(0.0), 1.0 / e.smoothness(), 5, 0)
    with pytest.raises(ValueError, match="cap"):
        tc.check_descent(rec, e)


def test_descent_pl_zero_noise():
    w = path3_matrix()
    e = quad_ensemble(seed=7)
    alpha = 1.0 / (4.0 * e.smoothness())
    rec = traced_run(w, e, noise.GaussianOracle(0.0), alpha, 300, 0)
    assert tc.check_descent_pl(rec, e).passed


def test_descent_pl_single_agent_and_noisy_seeds():
    w1 = tp.MixingMatrix(1, np.ones((1, 1)), 0.0)
    e1 = costs.QuadraticEnsemble(np.array([[[1.5]]]), np.array([[2.0]]))
    rec = traced_run(w1, e1, noise.GaussianOracle(0.0), 1.0 / (2.0 * 1.5), 50, 0,
                     x0=np.array([[4.0]]))
    assert tc.check_descent_pl(rec, e1).passed

    w = path3_matrix()
    e = quad_ensemble(seed=3)
    alpha = 1.0 / (4.0 * e.smoothness())
    reports = [
        tc.check_descent_pl(traced_run(w, e, noise.GaussianOracle(0.4), alpha, 60, s), e)
        for s in range(50)
    ]
    assert tc.merge_reports("descent_pl", reports).passed


def test_descent_pl_supports_schedule():
    w = path3_matrix()
    e = quad_ensemble(seed=9)
    L, mu = e.smoothness(), e.pl_constant()
    sched = alg.InverseTimeStep(a=6.0, mu=mu, t0=max(12.0 * L / mu, 6.0 / mu))
    cfg = alg.RunConfig(w=w, ensemble=e, oracle=noise.GaussianOracle(0.3), schedule=sched,
                        T=200, x0=np.zeros((3, 4)), record_trace=True)
    rec = alg.run("gt_dsgd", cfg, [5], [0])
    assert tc.check_descent_pl(rec, e).passed


def test_consensus_bound_zero_noise_and_noisy():
    w = path3_matrix()
    e = quad_ensemble(seed=11)
    cap = tc.consensus_step_cap(w.lam, e.smoothness())
    x0 = np.random.default_rng(0).standard_normal((3, 4))
    rec = traced_run(w, e, noise.GaussianOracle(0.0), 0.9 * cap, 300, 0, x0=x0)
    rep = tc.check_consensus_bound(rec, w, e)
    assert rep.passed
    assert rep.details["rhs"][0] >= rep.details["lhs"][0]

    reports = [
        tc.check_consensus_bound(
            traced_run(w, e, noise.GaussianOracle(0.5), 0.9 * cap, 120, s, x0=x0), w, e)
        for s in range(20)
    ]
    assert tc.merge_reports("consensus_bound", reports).passed


def test_consensus_bound_uniform_matrix_degenerate():
    # W = J: consensus from the first update on; the bound is trivially slack
    w = tp.metropolis_hastings(tp.generate_graph("complete", 4))
    e = quad_ensemble(n=4, seed=13)
    rec = traced_run(w, e, noise.GaussianOracle(0.0), 1.0 / (8 * e.smoothness()), 50, 0)
    rep = tc.check_consensus_bound(rec, w, e)
    assert rep.passed
    assert rep.details["lhs"][0] <= 1e-20


def test_consensus_bound_rejects_cap_violation():
    w = path3_matrix()
    e = quad_ensemble(seed=11)
    cap = tc.consensus_step_cap(w.lam, e.smoothness())
    rec = traced_run(w, e, noise.GaussianOracle(0.0), 2.0 * cap, 5, 0)
    with pytest.raises(ValueError, match="cap"):
        tc.check_consensus_bound(rec, w, e)


def test_tracker_recursion_zero_noise_noisy_and_degenerate():
    w = path3_matrix()
    e = quad_ensemble(seed=17)
    cap = tc.tracker_step_cap(w.lam, e.smoothness())
    x0 = np.random.default_rng(1).standard_normal((3, 4))
    rec = traced_run(w, e, noise.GaussianOracle(0.0), 0.9 * cap, 300, 0, x0=x0)
    assert tc.check_tracker_recursion(rec, w, e).passed

    reports = [
        tc.check_tracker_recursion(
            traced_run(w, e, noise.GaussianOracle(0.5), 0.9 * cap, 120, s, x0=x0), w, e)
        for s in range(20)
    ]
    merged = tc.merge_reports("tracker_recursion", reports)
    assert merged.passed

    wj = tp.metropolis_hastings(tp.generate_graph("complete", 4))
    ej = quad_ensemble(n=4, seed=19)
    recj = traced_run(wj, ej, noise.GaussianOracle(0.3), 1.0 / (8 * ej.smoothness()), 50, 2)
    repj = tc.check_tracker_recursion(recj, wj, ej)
    assert repj.passed  # tracker gap is identically zero under uniform mixing


def test_checks_are_reproducible():
    w = path3_matrix()
    e = quad_ensemble(seed=23)
    alpha = 1.0 / (8.0 * e.smoothness())
    rec = traced_run(w, e, noise.GaussianOracle(0.5), alpha, 80, 4)
    r1 = tc.check_descent(rec, e)
    r2 = tc.check_descent(rec, e)
    assert r1.worst_slack == r2.worst_slack
    assert r1.instances == r2.instances


def test_noise_properties_gaussian():
    e = costs.QuadraticEnsemble(np.stack([np.eye(2)] * 16), np.zeros((16, 2)))
    o = noise.GaussianOracle(1.0)
    rep = tc.check_noise_properties(o, e, [np.zeros(2)], samples=100_000, seed=0)
    assert rep.passed
    assert not rep.deterministic
    assert any(k.startswith("tail") for k in rep.details)
    assert any(k.startswith("moment") for k in rep.details)
    assert any(k.startswith("avg_mgf") for k in rep.details)


@pytest.mark.parametrize("oracle, agent", [
    (noise.GaussianOracle((0.5, 2.0, 1.0)), 1),
    (noise.RelaxedSubgaussianOracle(s=1.5, rho=0.0, eps_exponent=1.0), 0),
])
def test_noise_average_mgf_matches_the_stacked_mean_bitwise(oracle, agent):
    e = costs.QuadraticEnsemble(np.stack([np.eye(3)] * 3), np.zeros((3, 3)))
    xs = [np.zeros(3), np.ones(3)]
    rep = tc.check_noise_properties(oracle, e, xs, samples=100_000, seed=7, n_avg=(1, 3, 16),
                                    agent=agent)
    got = {k: v for k, v in rep.details.items() if k.startswith("avg_mgf")}
    ref = reference_avg_mgf_details(oracle, e, xs, 100_000, 7, (1, 3, 16), agent)
    assert json.dumps(got, sort_keys=True) == json.dumps(ref, sort_keys=True)
    assert len(got) == 6


def test_noise_averages_share_one_set_of_draws():
    e = costs.QuadraticEnsemble(np.stack([np.eye(3)] * 3), np.zeros((3, 3)))
    xs = [np.zeros(3), np.ones(3)]
    with mock.patch.object(tc, "noise_samples", wraps=tc.noise_samples) as draws:
        tc.check_noise_properties(noise.GaussianOracle(0.5), e, xs, samples=100_000, seed=3,
                                  n_avg=(4, 16))
    # per grid point: the tail and moment draw, then the 16 averaged draws
    assert draws.call_count == len(xs) * (1 + 16)


def test_noise_properties_noiseless_trivial():
    e = costs.QuadraticEnsemble(np.stack([np.eye(2)] * 4), np.zeros((4, 2)))
    rep = tc.check_noise_properties(noise.GaussianOracle(0.0), e, [np.zeros(2)], samples=100_000)
    assert rep.passed
    assert rep.details.get("noiseless")


def test_noise_properties_rejects_relaxed_rho():
    e = costs.QuadraticEnsemble(np.stack([np.eye(2)] * 4), np.zeros((4, 2)))
    o = noise.RelaxedSubgaussianOracle(s=1.0, rho=0.5, eps_exponent=1.0)
    with pytest.raises(ValueError, match="rho = 0"):
        tc.check_noise_properties(o, e, [np.zeros(2)], samples=100_000)


def test_noise_properties_rejects_minibatch():
    e = datasets.to_logistic_ensemble(datasets.split_uniform(datasets.load_libsvm(TOY), 2))
    with pytest.raises(ValueError, match="not mini-batch"):
        tc.check_noise_properties(noise.MinibatchOracle(1), e, [np.zeros(e.d)], samples=100_000)


def test_noise_properties_rejects_few_samples():
    e = costs.QuadraticEnsemble(np.stack([np.eye(2)] * 4), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        tc.check_noise_properties(noise.GaussianOracle(1.0), e, [np.zeros(2)], samples=1000)


def _ring3_quadratic(d=2):
    return costs.QuadraticEnsemble(np.stack([np.eye(d)] * 3), np.zeros((3, d)))


@pytest.mark.parametrize("oracle", [
    noise.GaussianOracle(1.0),
    noise.RelaxedSubgaussianOracle(s=1.0, rho=0.0, eps_exponent=1.0),
], ids=["gaussian", "relaxed"])
@pytest.mark.parametrize("kwargs, argument", [
    ({"n_avg": (0,)}, "n_avg"),
    ({"n_avg": (4, -1)}, "n_avg"),
    ({"agent": 5}, "agent"),
    ({"xs": []}, "xs"),
    ({"samples": 1e5}, "samples"),
], ids=["zero_average", "negative_average", "missing_agent", "no_grid_point", "float_samples"])
def test_noise_properties_rejects_bad_arguments_by_name(oracle, kwargs, argument):
    args = {"xs": [np.zeros(2)], "samples": 100_000, **kwargs}
    with pytest.raises(ValueError, match=argument):
        tc.check_noise_properties(oracle, _ring3_quadratic(), **args)


def assert_noise_reports_identical(got, ref):
    assert json.dumps(got.details, sort_keys=True) == json.dumps(ref.details, sort_keys=True)
    assert repr(got.worst_slack) == repr(ref.worst_slack)
    assert got.violations == ref.violations
    assert got.instances == ref.instances


@pytest.mark.parametrize("oracle, d, points, n_avg, agent", [
    (noise.GaussianOracle(1.0), 1, 1, (4, 16), 0),
    (noise.GaussianOracle((0.5, 2.0, 1.0)), 3, 2, (1, 3, 16), 1),
    (noise.RelaxedSubgaussianOracle(s=1.5, rho=0.0, eps_exponent=1.0), 17, 1, (2,), 2),
], ids=["gaussian_d1", "per_agent_d3_two_points", "relaxed_d17"])
def test_noise_properties_match_the_reference_bitwise(oracle, d, points, n_avg, agent):
    e = _ring3_quadratic(d)
    xs = [np.full(d, float(k)) for k in range(points)]
    args = dict(samples=100_000, seed=5, n_avg=n_avg, agent=agent)
    assert_noise_reports_identical(tc.check_noise_properties(oracle, e, xs, **args),
                                   reference_check_noise_properties(oracle, e, xs, **args))


def test_noise_properties_match_the_reference_bitwise_when_capped():
    e = _ring3_quadratic(3)
    args = dict(samples=100_000, seed=2, n_avg=(1, 4, 16))
    with mock.patch.object(noise, "_EXP_CAP", 0.02):
        got = tc.check_noise_properties(noise.GaussianOracle(1.0), e, [np.zeros(3)], **args)
        ref = reference_check_noise_properties(noise.GaussianOracle(1.0), e, [np.zeros(3)], **args)
    assert all(got.details[f"avg_mgf_x0_n{m}"]["capped"] > 0 for m in (1, 4, 16))
    assert_noise_reports_identical(got, ref)


def test_noise_properties_match_the_reference_bitwise_when_violated():
    # a parameter far below the calibrated one fails tails, moments and averages
    e = _ring3_quadratic(3)
    low = lambda s, d, calibrate=noise.calibrate_sigma: 0.05 * calibrate(s, d)
    args = dict(samples=100_000, seed=4, n_avg=(4, 16))
    with mock.patch.object(tc, "calibrate_sigma", low), mock.patch.object(noise, "calibrate_sigma", low):
        got = tc.check_noise_properties(noise.GaussianOracle(1.0), e, [np.zeros(3)], **args)
        ref = reference_check_noise_properties(noise.GaussianOracle(1.0), e, [np.zeros(3)], **args)
    assert not got.passed and len(got.violations) > 1
    assert_noise_reports_identical(got, ref)


def test_noise_check_holds_two_draw_sized_arrays():
    samples, d = 100_000, 4
    e = _ring3_quadratic(d)
    tracemalloc.start()
    try:
        tc.check_noise_properties(noise.GaussianOracle(0.5), e, [np.zeros(d)], samples=samples, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the running total and the draw being added, plus a few per-sample scalars
    assert peak <= 2 * samples * d * 8 + 3 * samples * 8


# ---------------------------------------------------------------------------
# Properties over random problems: blocks of traced runs on connected
# Erdos-Renyi graphs and synthetic quadratic or toy logistic ensembles, each
# check at its own step size under its cap.
# ---------------------------------------------------------------------------

CHECKS = (
    (tc.check_descent, reference_check_descent, False),
    (tc.check_descent_pl, reference_check_descent_pl, False),
    (tc.check_consensus_bound, reference_check_consensus_bound, True),
    (tc.check_tracker_recursion, reference_check_tracker_recursion, True),
)


@st.composite
def check_cases(draw):
    """(check, reference check, block record, args) for each of the four, or
    for the three that need no PL constant on a logistic ensemble."""
    logistic = draw(st.booleans())
    # at most 8 agents, so that each holds 2 of the 16 toy samples and a
    # mini-batch of 1 is smaller than its dataset
    n = draw(st.integers(2, 8 if logistic else 9))
    w = tp.metropolis_hastings(tp.generate_graph(
        "erdos_renyi", n, seed=draw(st.integers(0, 99)), p=draw(st.sampled_from([0.4, 0.7, 1.0]))))
    if logistic:
        parts = datasets.split_uniform(datasets.load_libsvm(TOY), n, seed=draw(st.integers(0, 9)))
        e = datasets.to_logistic_ensemble(parts, eta=0.1)
        oracle = draw(st.sampled_from([noise.GaussianOracle(0.0), noise.GaussianOracle(0.5),
                                       noise.MinibatchOracle(batch_size=1)]))
    else:
        e = costs.make_synthetic_quadratics(n, draw(st.sampled_from([1, 2, 3, 4, 17])), "a",
                                            seed=draw(st.integers(0, 99)))
        oracle = noise.GaussianOracle(draw(st.sampled_from([0.0, 0.5, 1.0])))
    L = e.smoothness()
    B = draw(st.integers(1, 5))
    T = draw(st.sampled_from([1, 2, 64, 65]))
    x0 = draw(st.sampled_from([0.0, 1.0, 3.0])) * np.random.default_rng(
        draw(st.integers(0, 99))).standard_normal((n, e.d))
    caps = (tc.descent_step_cap(L), tc.descent_pl_step_cap(L),
            min(tc.consensus_step_cap(w.lam, L), tc.descent_step_cap(L)),
            min(tc.tracker_step_cap(w.lam, L), tc.descent_step_cap(L)))
    cases = []
    for (check, reference, mixing), cap in zip(CHECKS, caps):
        if logistic and check is tc.check_descent_pl:
            continue
        alpha = draw(st.floats(0.05, 1.0)) * cap
        cfg = alg.RunConfig(w=w, ensemble=e, oracle=oracle, schedule=alg.ConstantStep(alpha),
                            T=T, x0=x0, record_trace=True)
        seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=B, max_size=B))
        rec = alg.run("gt_dsgd", cfg, seeds, list(range(B)))
        cases.append((check, reference, rec, (w, e) if mixing else (e,)))
    return cases


def report_key(r):
    """Everything a report says about its runs, the worst slack to the bit."""
    return (r.name, r.instances, r.worst_slack.hex(), r.violations, r.worst_at, r.runs)


@settings(max_examples=30, deadline=None)
@given(cases=check_cases(), tol=st.sampled_from([tc.SLACK_TOL, 1e-2, 1e9]))
def test_array_checks_match_the_reference_loops_bitwise(cases, tol):
    # a tolerance above zero turns some or all instances into violations
    with mock.patch.object(tc, "SLACK_TOL", tol):
        for check, reference, rec, args in cases:
            refs = []
            for run in rec.split():
                ref = reference(run, *args)
                assert report_key(check(run, *args)) == report_key(ref)
                refs.append(ref)
            assert report_key(check(rec, *args)) == report_key(tc.merge_reports(ref.name, refs))


@settings(max_examples=30, deadline=None)
@given(cases=check_cases())
def test_pathwise_inequalities_hold_under_each_cap(cases):
    for check, _, rec, args in cases:
        rep = check(rec, *args)
        assert rep.worst_slack >= -1e-9, rep.summary()
        assert rep.passed and not rep.violations


def test_worst_slack_location_is_reported():
    w = path3_matrix()
    e = quad_ensemble(seed=23)
    alpha = 1.0 / (8.0 * e.smoothness())
    cfg = alg.RunConfig(w=w, ensemble=e, oracle=noise.GaussianOracle(0.5),
                        schedule=alg.ConstantStep(alpha), T=40, x0=np.zeros((3, 4)),
                        record_trace=True)
    rec = alg.run("gt_dsgd", cfg, [7, 8, 9], [4, 5, 6])
    rep = tc.check_descent(rec, e)
    run, t = rep.worst_at
    alone = tc.check_descent(rec.split()[run - 4], e)
    assert alone.worst_slack == rep.worst_slack and alone.worst_at == (run, t)
    assert rep.summary().endswith(f"at run {run}, t {t})")
    assert (rep.instances, rep.runs) == (3 * 40, 3)


def test_checks_reject_a_trace_without_iterations():
    cfg = alg.RunConfig(w=path3_matrix(), ensemble=quad_ensemble(), oracle=noise.GaussianOracle(0.0),
                        schedule=alg.ConstantStep(0.01), T=0, x0=np.zeros((3, 4)),
                        record_trace=True)
    with pytest.raises(ValueError, match="at least one iteration"):
        tc.check_descent(alg.run("gt_dsgd", cfg, [0], [0]), quad_ensemble())
