"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. The heavy multi-run studies (tail decay, speed-up) sit at
the end; the whole module is self-contained and deterministic.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gtsim import (
    algorithms as alg,
    costs,
    datasets,
    harness,
    metrics,
    noise,
    theorycheck as tc,
    topology as tp,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


@contextmanager
def criterion(number, name, budget_s):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({name}): PASS in {elapsed:.1f}s (budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its runtime budget"


def test_c01_mixing_matrix_exactness():
    with criterion(1, "mixing-matrix exactness", 5.0):
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 101))
            kind = ["erdos_renyi", "ring", "path", "complete"][checked % 4]
            p = float(rng.uniform(0.1, 0.9)) if kind == "erdos_renyi" else None
            g = tp.generate_graph(kind, n, seed=int(rng.integers(0, 10**6)), p=p)
            m = tp.metropolis_hastings(g)
            assert np.max(np.abs(m.w.sum(axis=1) - 1.0)) <= 1e-12
            assert np.max(np.abs(m.w.sum(axis=0) - 1.0)) <= 1e-12
            assert 0.0 <= m.lam < 1.0
            checked += 1
        path3 = tp.metropolis_hastings(tp.generate_graph("path", 3))
        assert abs(path3.lam - 2.0 / 3.0) <= 1e-9
        ring3 = tp.metropolis_hastings(tp.generate_graph("ring", 3))
        assert np.max(np.abs(ring3.w - 1.0 / 3.0)) <= 1e-12
        assert ring3.lam <= 1e-12


def test_c02_tracking_identity():
    with criterion(2, "tracking identity", 5.0):
        w = tp.metropolis_hastings(tp.generate_graph("ring", 10))
        e = costs.make_synthetic_quadratics(10, 5, "a", seed=3)
        cfg = alg.RunConfig(w=w, ensemble=e, oracle=noise.GaussianOracle(1.0),
                            schedule=alg.InverseTimeStep(1.0, 1.0, 1.0), T=1000,
                            x0=np.zeros((10, 5)), record_trace=True)
        worst = 0.0
        for s in range(10):
            rec = alg.run("gt_dsgd", cfg, [100 + s], [s])
            worst = max(worst, rec.max_tracker_mean_residual())
        assert worst <= 1e-10


def test_c03_centralized_reduction():
    with criterion(3, "centralized reduction", 1.0):
        w = tp.metropolis_hastings(tp.generate_graph("path", 3))
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        b = np.array([1.0, -0.5])
        e = costs.QuadraticEnsemble(np.stack([a] * 3), np.tile(b, (3, 1)))
        x0 = np.tile([0.7, -0.2], (3, 1))
        cfg = alg.RunConfig(w=w, ensemble=e, oracle=noise.GaussianOracle(0.0),
                            schedule=alg.ConstantStep(0.1), T=200, x0=x0, record_trace=True)
        rec = alg.run("gt_dsgd", cfg, [0], [0])
        xc = np.array([0.7, -0.2])
        worst = 0.0
        for t in range(1, 201):
            xc = xc - 0.1 * (a @ xc + b)
            worst = max(worst, float(np.max(np.abs(rec.x_hist[0, t] - xc))))
        assert worst <= 1e-9


def test_c04_bias_floor_separation():
    with criterion(4, "bias-floor separation", 2.0):
        w = tp.metropolis_hastings(tp.generate_graph("path", 3))
        a = np.stack([np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), np.diag([1.5, 1.5])])
        b = np.array([[2.0, 0.0], [0.0, -2.0], [-2.0, 2.0]])
        e = costs.QuadraticEnsemble(a, b)
        x_star, _ = e.optimum()
        cfg = alg.RunConfig(w=w, ensemble=e, oracle=noise.GaussianOracle(0.0),
                            schedule=alg.ConstantStep(1.0 / (8.0 * e.smoothness())),
                            T=10_000, x0=np.zeros((3, 2)))
        err_dsgd = np.linalg.norm(alg.run("dsgd", cfg, [0], [0]).final_x[0].mean(axis=0) - x_star)
        err_gt = np.linalg.norm(alg.run("gt_dsgd", cfg, [0], [0]).final_x[0].mean(axis=0) - x_star)
        assert err_dsgd > 1e-3
        assert err_gt <= 1e-8


def test_c05_pathwise_lemma_suite():
    with criterion(5, "pathwise inequality suite", 60.0):
        w = tp.metropolis_hastings(tp.generate_graph("path", 3))
        e = costs.make_synthetic_quadratics(3, 4, "a", seed=1)
        L = e.smoothness()
        x0 = np.random.default_rng(0).standard_normal((3, 4))

        def traced(alpha, T, seeds):
            # one block record; every run has run id 0, so each is the run
            # that run(cfg, [seed], [0]) gives
            cfg = alg.RunConfig(w=w, ensemble=e, oracle=noise.GaussianOracle(0.5),
                                schedule=alg.ConstantStep(alpha), T=T, x0=x0,
                                record_trace=True)
            return alg.run("gt_dsgd", cfg, seeds, [0] * len(seeds))

        descent = tc.check_descent(traced(0.9 / (4.0 * L), 300, [1000 + s for s in range(50)]), e)
        descent_pl = tc.check_descent_pl(
            traced(0.9 / (2.0 * L), 300, [2000 + s for s in range(50)]), e)
        cap_c = tc.consensus_step_cap(w.lam, L)
        consensus = tc.check_consensus_bound(
            traced(0.9 * cap_c, 200, [3000 + s for s in range(20)]), w, e)
        cap_t = tc.tracker_step_cap(w.lam, L)
        tracker = tc.check_tracker_recursion(
            traced(0.9 * cap_t, 200, [4000 + s for s in range(20)]), w, e)
        for rep in (descent, descent_pl, consensus, tracker):
            assert rep.worst_slack >= -1e-9, rep.summary()


def test_c06_noise_property_suite():
    with criterion(6, "noise property suite", 60.0):
        for d in (2, 50):
            e = costs.QuadraticEnsemble(np.stack([np.eye(d)] * 16), np.zeros((16, d)))
            rep = tc.check_noise_properties(noise.GaussianOracle(1.0), e, samples=100_000, seed=d)
            assert rep.passed, rep.summary()
            labels = set(rep.details)
            assert any(k.startswith("tail") for k in labels)
            assert any(k.startswith("moment") for k in labels)
            assert {f"avg_mgf_n{m}" for m in (4, 16)} <= labels


def test_c07_exponential_tail_decay():
    with criterion(7, "exponential tail decay", 300.0):
        cfg = harness.load_config(os.path.join(CONFIG_DIR, "fig1_synthetic_tails.toml"))
        env = harness.run_experiment(cfg)
        tail_gt = env.series["tail_gt_dsgd_eps0.01"]
        tail_ds = env.series["tail_dsgd_eps0.01"]
        fit = metrics.tail_decay_fit(tail_gt)
        assert fit.r_squared >= 0.9
        assert fit.slope < 0.0
        T = tail_gt.T
        last = slice(int(0.9 * T), T)
        assert np.all(tail_gt.values[last] <= tail_ds.values[last] + 1e-12)


def test_c08_linear_speedup():
    with criterion(8, "linear speed-up", 600.0):
        crossings = {}
        final_mse = {}
        for n in (10, 25, 50):
            cfg = harness.load_config(
                os.path.join(CONFIG_DIR, f"fig2_synthetic_speedup_n{n}.toml"))
            assert cfg["topology"]["target_lambda"] == 0.9
            m = harness.build_topology(cfg)
            assert 0.85 <= m.lam <= 0.95
            env = harness.run_experiment(cfg)
            tail = env.series["tail_gt_dsgd_eps0.001"]
            below = np.nonzero(tail.values < 0.5)[0]
            assert len(below), f"tail never crossed 0.5 for n={n}"
            crossings[n] = int(below[0]) + 1
            final_mse[n] = float(env.series["mse_gt_dsgd"].values[-1])
        assert crossings[10] >= crossings[25] >= crossings[50]
        assert final_mse[10] > final_mse[25] > final_mse[50]


def test_c09_calculator_spot_checks():
    with criterion(9, "calculator spot checks", 1.0):
        assert metrics.transient_time_nonconvex(2, 0.0, 0.0) == 8.0
        assert metrics.transient_time_pl(4, 0.0, 6.0) == pytest.approx(16.0)
        cap = alg.nonconvex_step_cap(n=9, T=10**12, L=1.0, lam=0.0,
                                     sigma_sq=1.0, sigma_max_sq=1.0, d=1).cap
        assert abs(cap - 0.1084) <= 1e-3
        t0 = alg.pl_t0_floor(n=1, lam=0.0, a=6.0, L=1.0, mu=1.0,
                             sigma_sq=1.0, sigma_max_sq=1.0).t0
        assert t0 == 746496.0


FIXTURE = """\
# acceptance fixture: 0/1 labels, comments, blank line
+1 3:0.5 7:1.2
0 1:2.0
1 2:1.5 4:-0.25
-1 1:0.125

+1 5:3.0 6:0.5 7:0.75
0 2:-1.0
-1 3:2.25 7:0.5
1 1:1.0 7:2.0
"""


def test_c10_parser_fixtures():
    with criterion(10, "parser fixtures", 1.0):
        ds = datasets.parse_libsvm(FIXTURE)
        assert ds.m == 8
        assert ds.d == 7
        assert [label for label, _ in ds.rows] == [1, -1, 1, -1, 1, -1, -1, 1]
        assert ds.rows[0][1] == {2: 0.5, 6: 1.2}
        for bad, line_no in [("-1 2:1 2:3", 1), ("+1 1:1\n+1 x", 2), ("3 1:1", 1)]:
            with pytest.raises(datasets.ParseError, match=f"line {line_no}"):
                datasets.parse_libsvm(bad)
        ten = datasets.parse_libsvm("\n".join(f"+1 1:{i}.0" for i in range(10)))
        assert [p.m for p in datasets.split_uniform(ten, 3, seed=0)] == [4, 3, 3]


def test_c11_determinism_across_workers(tmp_path):
    with criterion(11, "determinism across workers", 30.0):
        cfg = harness.load_config(os.path.join(CONFIG_DIR, "fig1_synthetic_tails.toml"))
        data = dict(cfg.data)
        data["experiment"] = dict(data["experiment"], R=10)
        cfg = harness.ExperimentConfig(data=data)
        outputs = {}
        for workers in (1, 8):
            env = harness.run_experiment(cfg, workers=workers)
            outdir = tmp_path / f"w{workers}"
            harness.emit_outputs(env, formats=("csv", "json"), outdir=outdir)
            outputs[workers] = {
                name: (outdir / name).read_bytes()
                for name in sorted(os.listdir(outdir))
            }
        assert outputs[1].keys() == outputs[8].keys()
        for name in outputs[1]:
            assert outputs[1][name] == outputs[8][name], f"{name} differs across workers"
