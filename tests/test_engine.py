"""The trajectory engine against the independent reference loop in util.py.

Records must match bit for bit: the engine steps blocks of runs together,
reduces metrics per block of iterations and draws noise per chunk, but
performs the same floating-point operations as a plain per-iteration loop.
"""

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtsim import algorithms as alg, costs, datasets, noise, topology as tp
from util import assert_records_identical, reference_run, ring_matrix

B = alg._BLOCK
HORIZONS = (0, 1, B - 1, B, B + 1, 2 * B + 3)
TOY = os.path.join(os.path.dirname(__file__), "fixtures", "toy.libsvm")
SEEDS = st.one_of(st.integers(0, 2**63 - 1), st.integers(2**63, 2**64 - 1))


@st.composite
def run_configs(draw):
    oracle_kind = draw(st.sampled_from(["gaussian", "relaxed", "minibatch"]))
    # mini-batches need a dataset; the other oracles draw either cost family
    if oracle_kind == "minibatch" or draw(st.booleans()):
        n = draw(st.integers(1, 3))
        parts = datasets.split_uniform(datasets.load_libsvm(TOY), n, seed=draw(st.integers(0, 9)))
        e = datasets.to_logistic_ensemble(parts, eta=0.1)
    else:
        n = draw(st.integers(1, 6))
        profile = "b" if n == 5 and draw(st.booleans()) else "a"
        e = costs.make_synthetic_quadratics(n, draw(st.integers(1, 4)), profile,
                                            sparsity=draw(st.sampled_from([0.3, 1.0])),
                                            seed=draw(st.integers(0, 99)))
    if oracle_kind == "minibatch":
        oracle = noise.MinibatchOracle(batch_size=draw(st.integers(1, 2)))
    elif oracle_kind == "gaussian":
        per_agent = tuple(draw(st.lists(st.sampled_from([0.0, 0.4, 1.1]), min_size=n, max_size=n)))
        oracle = noise.GaussianOracle(draw(st.sampled_from([0.0, 0.7, per_agent])))
    else:
        oracle = noise.RelaxedSubgaussianOracle(0.6, draw(st.sampled_from([0.0, 1.5])), 0.5)
    g = tp.generate_graph("erdos_renyi", n, seed=draw(st.integers(0, 99)),
                          p=draw(st.sampled_from([0.4, 1.0]))) if n > 1 else tp.generate_graph("ring", 1)
    schedule = draw(st.sampled_from([alg.ConstantStep(0.05), alg.InverseTimeStep(1.0, 2.0, 3.0)]))
    x0 = draw(st.sampled_from([0.0, 1.0])) * np.random.default_rng(n).standard_normal((n, e.d))
    return alg.RunConfig(w=tp.metropolis_hastings(g), ensemble=e, oracle=oracle, schedule=schedule,
                         T=draw(st.sampled_from(HORIZONS)), x0=x0,
                         record_stride=draw(st.sampled_from([0, 1, 5])),
                         record_trace=draw(st.booleans()))


@settings(max_examples=100, deadline=None)
@given(cfg=run_configs(), algorithm=st.sampled_from(["gt_dsgd", "dsgd"]), seed=SEEDS,
       run_id=st.integers(0, 1000))
def test_engine_matches_reference_bitwise(cfg, algorithm, seed, run_id):
    assert_records_identical(alg.run(algorithm, cfg, seed, run_id),
                             reference_run(algorithm, cfg, seed, run_id))


@settings(max_examples=60, deadline=None)
@given(cfg=run_configs(), algorithm=st.sampled_from(["gt_dsgd", "dsgd"]),
       keys=st.lists(st.tuples(SEEDS, st.integers(0, 1000)), min_size=1, max_size=5))
def test_block_record_splits_into_the_per_run_records(cfg, algorithm, keys):
    seeds, run_ids = zip(*keys)
    block = alg.run(algorithm, cfg, seeds, run_ids)
    n, d = cfg.x0.shape
    assert block.f_avg.shape == (len(keys), cfg.T)
    assert block.final_x.shape == (len(keys), n, d)
    assert all(v.shape == (len(keys), n, d) for v in block.snapshots.values())
    runs = block.split()
    assert len(runs) == len(keys)
    for rec, (seed, run_id) in zip(runs, keys):
        assert_records_identical(rec, alg.run(algorithm, cfg, seed, run_id))
        assert_records_identical(rec, reference_run(algorithm, cfg, seed, run_id))


@pytest.mark.parametrize("stride", [1, 5, B, 2 * B + 4])
def test_positive_record_stride_snapshots_iterations_1_plus_multiples(stride):
    e = costs.make_synthetic_quadratics(3, 2, "a", seed=4)
    cfg = alg.RunConfig(w=ring_matrix(3), ensemble=e, oracle=noise.GaussianOracle(0.5),
                        schedule=alg.ConstantStep(0.05), T=2 * B + 3, x0=np.ones((3, 2)),
                        record_stride=stride)
    keys = [(11, 0), (12, 1), (13, 2)]
    expected = list(range(1, cfg.T + 1, stride))
    block = alg.run("dsgd", cfg, *zip(*keys))
    assert list(block.snapshots) == expected
    for b, (seed, run_id) in enumerate(keys):
        one = alg.run("dsgd", cfg, seed, run_id)
        models = alg.run("dsgd", replace(cfg, record_stride=0, record_trace=True), seed, run_id).x_hist
        assert list(one.snapshots) == expected
        # the engine reuses its block buffers, so equality at the end needs copies
        for t, x in one.snapshots.items():
            assert x.shape == (3, 2)
            assert x.tobytes() == models[t - 1].tobytes() == block.snapshots[t][b].tobytes()
    assert all(v.shape == (len(keys), 3, 2) for v in block.snapshots.values())


def test_record_stride_zero_records_no_snapshots_and_negative_is_rejected():
    cfg = alg.RunConfig(w=ring_matrix(3), ensemble=costs.make_synthetic_quadratics(3, 2, "a", seed=4),
                        oracle=noise.GaussianOracle(0.5), schedule=alg.ConstantStep(0.05),
                        T=B + 1, x0=np.ones((3, 2)))
    assert alg.run("gt_dsgd", cfg, 1, 0).snapshots == {}
    assert alg.run("gt_dsgd", cfg, (1, 2), (0, 1)).snapshots == {}
    with pytest.raises(ValueError, match="record_stride"):
        alg.run("gt_dsgd", replace(cfg, record_stride=-1), 1, 0)


class InfAtCall(costs.QuadraticEnsemble):
    """A quadratic ensemble whose grad_all gives inf for one agent at one call.

    grad_all takes one (n, d) stack or a block of them, as the engine passes.
    """

    def __init__(self, a, b, agent, call):
        super().__init__(a, b)
        self.agent, self.call, self.calls = agent, call, 0

    def grad_all(self, x_rows):
        self.calls += 1
        g = super().grad_all(x_rows)
        if self.calls == self.call:
            g[..., self.agent, :] = np.inf
        return g


class SwingingAgent(costs.QuadraticEnsemble):
    """Agent 0's gradient swings between -1.5e308 and +1.5e308.

    Every gradient and every sum of one is finite, but g - g_prev in the
    tracker update overflows at t = 2.
    """

    def grad_all(self, x_rows):
        self.sign = -getattr(self, "sign", 1.0)
        g = np.zeros_like(x_rows)
        g[..., 0, :] = self.sign * 1.5e308
        return g


def abort_of(fn, *args):
    with pytest.raises(alg.RunAbort) as info:
        fn(*args)
    return info.value


@pytest.mark.parametrize("algorithm", ["gt_dsgd", "dsgd"])
def test_abort_after_block_boundary_names_iteration_agent_and_stage(algorithm):
    a, b = np.stack([np.eye(2)] * 4), np.zeros((4, 2))

    def config():
        return alg.RunConfig(w=ring_matrix(4), ensemble=InfAtCall(a, b, agent=2, call=B + 1),
                             oracle=noise.GaussianOracle(0.3), schedule=alg.ConstantStep(0.1),
                             T=2 * B + 3, x0=np.ones((4, 2)))

    exc = abort_of(alg.run, algorithm, config(), 5, 1)
    assert (exc.iteration, exc.agent) == (B + 1, 2)
    assert str(exc) == f"non-finite oracle output at iteration {B + 1}, agent 2"
    assert str(abort_of(reference_run, algorithm, config(), 5, 1)) == str(exc)


@pytest.mark.parametrize("algorithm, ensemble, alpha, stage", [
    ("gt_dsgd", costs.QuadraticEnsemble, 1e300, "model update"),
    ("dsgd", costs.QuadraticEnsemble, 1e300, "model update"),
    ("gt_dsgd", SwingingAgent, 1.0, "tracker update"),
])
def test_divergence_reports_the_same_stage_as_the_reference(algorithm, ensemble, alpha, stage):
    def config():
        e = ensemble(np.stack([np.eye(1)] * 3), np.zeros((3, 1)))
        return alg.RunConfig(w=ring_matrix(3), ensemble=e, oracle=noise.GaussianOracle(0.0),
                             schedule=alg.ConstantStep(alpha), T=B + 5, x0=np.ones((3, 1)))

    exc = abort_of(alg.run, algorithm, config(), 0, 0)
    ref = abort_of(reference_run, algorithm, config(), 0, 0)
    assert stage in str(exc)
    assert (str(exc), exc.iteration, exc.agent) == (str(ref), ref.iteration, ref.agent)


def test_finite_models_whose_sum_overflows_do_not_abort():
    # each entry is finite, but the sum of a block of them is not
    e = costs.QuadraticEnsemble(np.stack([1e-300 * np.eye(2)] * 3), np.zeros((3, 2)))
    cfg = alg.RunConfig(w=ring_matrix(3), ensemble=e, oracle=noise.GaussianOracle(0.0),
                        schedule=alg.ConstantStep(0.1), T=3, x0=np.full((3, 2), 1e308))
    rec = alg.run("gt_dsgd", cfg, 0, 0)
    assert np.all(np.isfinite(rec.final_x))
    assert_records_identical(rec, reference_run("gt_dsgd", cfg, 0, 0))
