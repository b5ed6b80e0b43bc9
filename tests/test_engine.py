"""The trajectory engine against the independent reference loop in util.py.

Records must match bit for bit: the engine steps blocks of runs together,
reduces metrics per block of iterations and draws noise per chunk, but
performs the same floating-point operations as a plain per-iteration loop.
"""

import os
import pickle
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtsim import algorithms as alg, costs, datasets, harness, noise, topology as tp
from util import (assert_records_close, assert_records_identical, reference_run,
                  reference_run_parent, ring_matrix, tile_counts)

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
        oracle = noise.GaussianOracle(0.6, draw(st.sampled_from([0.0, 1.5])), 0.5)
    g = tp.generate_graph("erdos_renyi", n, seed=draw(st.integers(0, 99)),
                          p=draw(st.sampled_from([0.4, 1.0]))) if n > 1 else tp.generate_graph("ring", 1)
    schedule = draw(st.sampled_from([alg.ConstantStep(0.05), alg.InverseTimeStep(1.0, 2.0, 3.0)]))
    x0 = draw(st.sampled_from([0.0, 1.0])) * np.random.default_rng(n).standard_normal((n, e.d))
    return alg.RunConfig(w=tp.metropolis_hastings(g), ensemble=e, oracle=oracle, schedule=schedule,
                         T=draw(st.sampled_from(HORIZONS)), x0=x0,
                         record_trace=draw(st.booleans()))


@settings(max_examples=100, deadline=None)
@given(cfg=run_configs(), algorithm=st.sampled_from(["gt_dsgd", "dsgd"]), seed=SEEDS,
       run_id=st.integers(0, 1000))
def test_engine_matches_reference_bitwise(cfg, algorithm, seed, run_id):
    assert_records_identical(alg.run(algorithm, cfg, [seed], [run_id]),
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
    runs = block.split()
    assert len(runs) == len(keys)
    for rec, (seed, run_id) in zip(runs, keys):
        assert_records_identical(rec, alg.run(algorithm, cfg, [seed], [run_id]))
        assert_records_identical(rec, reference_run(algorithm, cfg, seed, run_id))


@settings(max_examples=40, deadline=None)
@given(cfg=run_configs(), algorithm=st.sampled_from(["gt_dsgd", "dsgd"]),
       keys=st.lists(st.tuples(SEEDS, st.integers(0, 1000)), min_size=1, max_size=3),
       horizon=st.integers(0, 2 * B + 3))
def test_a_shorter_horizon_ends_at_the_traced_model_and_gives_a_prefix_of_the_series(
        cfg, algorithm, keys, horizon):
    # the untraced models equal the traced ones, and the noise chunks are
    # drawn prefix-stable: a run to T' is the first T' iterations of a run to T
    seeds, run_ids = zip(*keys)
    full = alg.run(algorithm, replace(cfg, T=2 * B + 3, record_trace=True), seeds, run_ids)
    short = alg.run(algorithm, replace(cfg, T=horizon, record_trace=False), seeds, run_ids)
    assert short.final_x.tobytes() == full.x_hist[:, horizon].tobytes()
    assert short.alpha.tobytes() == full.alpha[:horizon].tobytes()
    for name in ("f_avg", "mse_to_opt", "stationarity_sum"):
        if getattr(full, name) is None:
            assert getattr(short, name) is None, name
        else:
            assert getattr(short, name).tobytes() == getattr(full, name)[:, :horizon].tobytes(), name


@pytest.mark.parametrize("stride", [1, 5, B, 2 * B + 4])
def test_positive_record_stride_snapshots_iterations_1_plus_multiples(stride):
    # demos/bias_floor.py reads the trace at iterations t = 1, 1 + stride, ...;
    # x_hist[:, t - 1] there is the model an untraced run ends at after t - 1
    # steps, alone and in a block
    e = costs.make_synthetic_quadratics(3, 2, "a", seed=4)
    cfg = alg.RunConfig(w=ring_matrix(3), ensemble=e, oracle=noise.GaussianOracle(0.5),
                        schedule=alg.ConstantStep(0.05), T=2 * B + 3, x0=np.ones((3, 2)),
                        record_trace=True)
    keys = [(11, 0), (12, 1), (13, 2)]
    block = alg.run("dsgd", cfg, *zip(*keys))
    assert block.x_hist.shape == (len(keys), cfg.T + 1, 3, 2)
    for t in range(1, cfg.T + 1, stride):
        short = replace(cfg, T=t - 1, record_trace=False)
        assert alg.run("dsgd", short, *zip(*keys)).final_x.tobytes() == block.x_hist[:, t - 1].tobytes()
        for b, (seed, run_id) in enumerate(keys):
            one = alg.run("dsgd", short, [seed], [run_id])
            assert one.final_x.shape == (1, 3, 2)
            assert one.final_x[0].tobytes() == block.x_hist[b, t - 1].tobytes()


@pytest.mark.parametrize("rho, calls", [(1.5, 2 * B + 3), (0.0, 3)])
def test_global_gradients_are_evaluated_once_per_iteration(rho, calls):
    # at rho > 0 the sampler evaluates them to scale the noise, and the
    # stationarity series squares those; otherwise it evaluates them per block
    e = costs.make_synthetic_quadratics(3, 2, "a", seed=4)
    cfg = alg.RunConfig(w=ring_matrix(3), ensemble=e,
                        oracle=noise.GaussianOracle(0.6, rho, 0.5),
                        schedule=alg.ConstantStep(0.05), T=2 * B + 3, x0=np.ones((3, 2)))
    with mock.patch.object(costs.QuadraticEnsemble, "grad_global_all", autospec=True,
                           side_effect=costs.QuadraticEnsemble.grad_global_all) as spy:
        rec = alg.run("gt_dsgd", cfg, (1, 2), (0, 1))
    assert spy.call_count == calls
    for b, run in enumerate(rec.split()):
        assert_records_identical(run, reference_run("gt_dsgd", cfg, 1 + b, b))


@pytest.mark.parametrize("profile", ["a", "b"], ids=["per_agent_a", "shared_a"])
@pytest.mark.parametrize("rho", [0.0, 1.5])
def test_a_per_agent_scale_of_equal_entries_gives_the_records_of_the_scalar_scale(profile, rho):
    # the sampler scales the noise by a column of o.s_vector(n) at every rho;
    # equal entries multiply as the scalar does, also at a panel width above 1
    n, d = 5, 3
    e = costs.make_synthetic_quadratics(n, d, profile, seed=4)
    scalar = alg.RunConfig(w=ring_matrix(n), ensemble=e, oracle=noise.GaussianOracle(0.6, rho, 0.5),
                           schedule=alg.ConstantStep(0.05), T=B + 3, x0=np.ones((n, d)),
                           record_trace=True)
    listed = replace(scalar, oracle=noise.GaussianOracle((0.6,) * n, rho, 0.5))
    for algorithm in ("gt_dsgd", "dsgd"):
        assert_records_identical(alg.run(algorithm, listed, (1, 2, 3), (0, 1, 2)),
                                 alg.run(algorithm, scalar, (1, 2, 3), (0, 1, 2)))


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

    exc = abort_of(alg.run, algorithm, config(), [5], [1])
    assert (exc.run_id, exc.iteration, exc.agent) == (1, B + 1, 2)
    assert str(exc) == f"non-finite oracle output at iteration {B + 1}, agent 2"
    assert str(abort_of(reference_run, algorithm, config(), 5, 1)) == str(exc)


class InfInOneRun(costs.QuadraticEnsemble):
    """grad_all gives inf for one agent of one run of a block at one call."""

    def __init__(self, a, b, run, agent, call):
        super().__init__(a, b)
        self.run, self.agent, self.call, self.calls = run, agent, call, 0

    def grad_all(self, x_rows):
        self.calls += 1
        g = super().grad_all(x_rows)
        if self.calls == self.call:
            g[self.run, self.agent] = np.inf
        return g


@pytest.mark.parametrize("run", [0, 1, 2])
def test_a_block_abort_names_the_run_id_of_the_run_that_aborted(run):
    e = InfInOneRun(np.stack([np.eye(2)] * 4), np.zeros((4, 2)), run=run, agent=3, call=B + 2)
    cfg = alg.RunConfig(w=ring_matrix(4), ensemble=e, oracle=noise.GaussianOracle(0.3),
                        schedule=alg.ConstantStep(0.1), T=2 * B, x0=np.ones((4, 2)))
    run_ids = [40, 7, 19]
    exc = abort_of(alg.run, "gt_dsgd", cfg, [5, 6, 8], run_ids)
    assert (exc.run_id, exc.iteration, exc.agent) == (run_ids[run], B + 2, 3)
    assert str(exc) == f"non-finite oracle output at iteration {B + 2}, agent 3"
    # an abort crosses a process boundary whole, its run id included
    again = pickle.loads(pickle.dumps(exc))
    assert type(again) is alg.RunAbort
    assert (str(again), again.run_id, again.iteration, again.agent) == (
        str(exc), run_ids[run], B + 2, 3)


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

    exc = abort_of(alg.run, algorithm, config(), [0], [0])
    ref = abort_of(reference_run, algorithm, config(), 0, 0)
    assert stage in str(exc)
    assert (str(exc), exc.run_id, exc.iteration, exc.agent) == (
        str(ref), ref.run_id, ref.iteration, ref.agent)


def test_finite_models_whose_sum_overflows_do_not_abort():
    # each entry is finite, but the sum of a block of them is not
    e = costs.QuadraticEnsemble(np.stack([1e-300 * np.eye(2)] * 3), np.zeros((3, 2)))
    cfg = alg.RunConfig(w=ring_matrix(3), ensemble=e, oracle=noise.GaussianOracle(0.0),
                        schedule=alg.ConstantStep(0.1), T=3, x0=np.full((3, 2), 1e308))
    rec = alg.run("gt_dsgd", cfg, [0], [0])
    assert np.all(np.isfinite(rec.final_x))
    assert_records_identical(rec, reference_run("gt_dsgd", cfg, 0, 0))


@pytest.mark.parametrize("algorithm, buffers", [("gt_dsgd", 3), ("dsgd", 3)])
def test_a_block_holds_its_buffers_and_no_block_sized_temporaries(algorithm, buffers):
    # the block buffers are the models, the noise chunk and the scratch the
    # reductions write through (trackers are held only as traces); beyond
    # them a block holds the global gradients at the models and small
    # per-run arrays, measured at about 1.2 buffers
    Bn, n, d = 4, 50, 10
    e = costs.make_synthetic_quadratics(n, d, "a", seed=0)
    cfg = alg.RunConfig(w=ring_matrix(n), ensemble=e, oracle=noise.GaussianOracle(1.0),
                        schedule=alg.InverseTimeStep(1.0, 1.0, 1.0), T=4 * B, x0=np.zeros((n, d)))
    alg.run(algorithm, cfg, range(Bn), range(Bn))  # warm the caches of the cost and the noise
    tracemalloc.start()
    try:
        alg.run(algorithm, cfg, range(Bn), range(Bn))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (buffers + 2) * Bn * B * n * d * 8


# Run panels reorder two sums of a per-agent quadratic run: its gradients (a
# (d, d) x (d,) product per run before, a (P, d) x (d, d) one now) and its
# mixing (a (n, n) x (n, d) product per run before, (n, n) x (n, P d) per
# panel now). One sum of m terms differs between two orders by at most about
# m eps relative, m = d or n, and over T iterations of a contracting
# recursion such differences add up at most linearly, to T (n + d) eps:
# 1.3e-11 at T = 3000 and n = d = 10, the largest shape below. Measured at
# that shape: 1.3e-14 (relaxed oracle), and 2e-16 per entry of the Gaussian
# oracle's MSE series.
PANEL_REL = 1e-10


@settings(max_examples=60, deadline=None)
@given(cfg=run_configs(), algorithm=st.sampled_from(["gt_dsgd", "dsgd"]), seed=SEEDS,
       run_id=st.integers(0, 1000))
def test_panels_move_only_per_agent_quadratic_records_and_only_in_the_last_ulps(
        cfg, algorithm, seed, run_id):
    rec = alg.run(algorithm, cfg, [seed], [run_id])
    before = reference_run_parent(algorithm, cfg, seed, run_id)
    if cfg.ensemble.panel_width == 1:  # shared-A quadratics and logistic costs
        assert_records_identical(rec, before)
    else:
        assert_records_close(rec, before, PANEL_REL)


@pytest.mark.parametrize("oracle", [noise.GaussianOracle(3.0),
                                    noise.GaussianOracle(3.0, 2.0, 0.5)])
def test_panels_move_the_fig1_shape_in_the_last_ulps(oracle):
    e = costs.make_synthetic_quadratics(10, 10, "a", sparsity=0.1, seed=42, mu0=0.5)
    schedule = (alg.InverseTimeStep(1.0, 1.0, 1.0) if oracle.rho == 0.0
                else alg.ConstantStep(0.05))
    cfg = alg.RunConfig(w=ring_matrix(10), ensemble=e, oracle=oracle, schedule=schedule, T=3000,
                        x0=np.zeros((10, 10)))
    for algorithm in ("gt_dsgd", "dsgd"):
        assert_records_close(alg.run(algorithm, cfg, [7], [2]),
                             reference_run_parent(algorithm, cfg, 7, 2), PANEL_REL)


P = costs.PANEL


@st.composite
def block_run_configs(draw):
    """Quadratic runs over random n and d, with per-agent or shared A, or
    logistic runs on the toy corpus."""
    n, d = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["per_agent", "shared", "logistic"]))
    if kind == "logistic":
        n = min(n, 3)
        e = datasets.to_logistic_ensemble(
            datasets.split_uniform(datasets.load_libsvm(TOY), n, seed=draw(st.integers(0, 9))), eta=0.1)
        d = e.d
    else:
        e = costs.make_synthetic_quadratics(n, d, "a", sparsity=draw(st.sampled_from([0.3, 1.0])),
                                            seed=draw(st.integers(0, 99)))
    if kind == "shared":
        e = costs.QuadraticEnsemble(e.a[0], e.b)
    if draw(st.booleans()):
        oracle = noise.GaussianOracle(draw(st.sampled_from([0.7, tuple(np.linspace(0, 1, n))])))
    else:
        oracle = noise.GaussianOracle(0.6, draw(st.sampled_from([0.0, 1.5])), 0.5)
    g = tp.generate_graph("erdos_renyi", n, seed=draw(st.integers(0, 99)), p=0.6) if n > 1 \
        else tp.generate_graph("ring", 1)
    # a logistic run stays in one chunk: over tiles of a few rows its global
    # gradients cost a hundred times a quadratic's
    T = draw(st.sampled_from([1, 9] if kind == "logistic" else [1, B + 1]))
    return alg.RunConfig(w=tp.metropolis_hastings(g), ensemble=e, oracle=oracle,
                         schedule=alg.ConstantStep(0.05), T=T,
                         x0=np.random.default_rng(n).standard_normal((n, d)),
                         record_trace=draw(st.booleans()))


@settings(max_examples=20, deadline=None)
@given(cfg=block_run_configs(), algorithm=st.sampled_from(["gt_dsgd", "dsgd"]),
       master=st.integers(0, 2**32), tile=st.integers(1, 5))
def test_a_runs_record_is_the_same_in_every_block_size_at_one_and_two_workers(
        cfg, algorithm, master, tile):
    runs = 2 * P + 1
    seeds = [harness.derive_run_seed(master, algorithm, r) for r in range(runs)]
    blocks = [(algorithm, seeds[lo:lo + size], list(range(lo, min(lo + size, runs))))
              for size in range(1, runs + 1) for lo in range(0, runs, size)]
    # logistic global gradients over tiles of a few rows; the forked workers
    # inherit the patch
    counts, spy = tile_counts()
    with mock.patch.object(costs, "TILE", tile), spy:
        one = [harness._run_block(cfg, block) for block in blocks]
        with ProcessPoolExecutor(max_workers=2, initializer=harness._init_worker,
                                 initargs=(cfg,)) as pool:
            two = list(pool.map(harness._run_worker_block, blocks))
    if cfg.ensemble.kind == "logistic":
        # the runs walked the patched tile: at one row, one tile per pooled row
        assert counts and set(counts) == {-(-len(cfg.ensemble._y_all) // tile)}
    alone = [results[0] for results in one[:runs]]  # the blocks of one run
    for results in one + two:
        (block,) = results  # no run aborts
        for rec in block.split():
            assert_records_identical(rec, alone[rec.run_id[0]])


class InfPastBoundAndInPadding(costs.QuadraticEnsemble):
    """grad_all is inf wherever a model coordinate lies past the bound, and
    in every padding slot: those past the ``runs`` slots of the block."""

    def __init__(self, a, b, bound, runs):
        super().__init__(a, b)
        self.bound, self.runs = bound, runs

    def grad_all(self, x_rows):
        g = super().grad_all(x_rows)
        g[np.abs(x_rows) > self.bound] = np.inf
        g[self.runs:] = np.inf
        return g


def test_padding_slots_never_abort_a_run_or_reach_a_record():
    a, b = np.stack([np.eye(2)] * 4), np.zeros((4, 2))

    def config(e, trace=False):
        return alg.RunConfig(w=ring_matrix(4), ensemble=e, oracle=noise.GaussianOracle(1.0),
                             schedule=alg.ConstantStep(0.1), T=B + 6, x0=np.zeros((4, 2)),
                             record_trace=trace)

    seeds, run_ids = [11, 12, 13, 14], [0, 1, 2, 3]
    plain = config(costs.QuadraticEnsemble(a, b), trace=True)
    # a bound that only the run reaching the largest model coordinate crosses
    peaks = [np.abs(alg.run("gt_dsgd", plain, [s], [r]).x_hist).max()
             for s, r in zip(seeds, run_ids)]
    strays = int(np.argmax(peaks))
    bound = (max(peaks) + sorted(peaks)[-2]) / 2

    # four runs fill half a panel; the padding slots go non-finite at once
    block = config(InfPastBoundAndInPadding(a, b, bound, runs=4))
    exc = abort_of(alg.run, "gt_dsgd", block, seeds, run_ids)
    alone = abort_of(alg.run, "gt_dsgd", config(InfPastBoundAndInPadding(a, b, bound, runs=1)),
                     [seeds[strays]], [run_ids[strays]])
    assert (exc.run_id, exc.iteration, exc.agent, exc.stage) == (
        run_ids[strays], alone.iteration, alone.agent, alone.stage) == (
        strays, alone.iteration, alone.agent, "oracle output")
    assert 1 < exc.iteration <= B + 6

    # the three runs that finish, stepped with non-finite padding, keep the
    # records they have without it, with no row for a padding slot
    keep = [b for b in range(4) if b != strays]
    rest = alg.run("gt_dsgd", config(InfPastBoundAndInPadding(a, b, bound, runs=3)),
                   [seeds[b] for b in keep], [run_ids[b] for b in keep])
    assert rest.final_x.shape == (3, 4, 2) and rest.mse_to_opt.shape == (3, B + 6)
    clean = config(costs.QuadraticEnsemble(a, b))
    for rec, b in zip(rest.split(), keep):
        assert_records_identical(rec, alg.run("gt_dsgd", clean, [seeds[b]], [run_ids[b]]))
        assert_records_identical(rec, reference_run("gt_dsgd", clean, seeds[b], run_ids[b]))


@pytest.mark.parametrize("oracle", [noise.GaussianOracle(1.0),
                                    noise.GaussianOracle(0.6, 1.5, 0.5)])
def test_the_engines_slots_reach_the_panel_products_without_a_copy(oracle):
    # grad_all multiplies a stack of slots from slot_memory in place, and
    # copies any other stack into zero-padded panels first, with the same
    # bits; only a copy owns its memory
    n, d = 3, 4
    rng = np.random.default_rng(5)
    m = rng.standard_normal((n, d, d))
    e = costs.QuadraticEnsemble(m + m.transpose(0, 2, 1) + 8 * np.eye(d), rng.standard_normal((n, d)))
    owns = []
    panel_grads = costs.QuadraticEnsemble._panel_grads

    def spy(self, mem):
        owns.append(mem.flags.owndata)
        return panel_grads(self, mem)

    with mock.patch.object(costs.QuadraticEnsemble, "_panel_grads", spy):
        for B in (1, 8, 11):
            for algorithm in ("gt_dsgd", "dsgd"):
                cfg = alg.RunConfig(w=ring_matrix(n), ensemble=e, oracle=oracle,
                                    schedule=alg.ConstantStep(0.05), T=70, x0=np.ones((n, d)),
                                    record_trace=True)
                alg.run(algorithm, cfg, range(B), range(B))
        assert len(owns) == 3 * 2 * 70 and not any(owns)
        e.grad_all(np.ones((8, n, d)))  # a run-major stack is copied
    assert owns[-1]
