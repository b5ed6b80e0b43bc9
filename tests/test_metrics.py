import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtsim import algorithms as alg, metrics


def block_record(mse, statio, n=2):
    """A block record carrying prescribed (B, T) mse and stationarity rows;
    mse None stands for a cost with no optimum."""
    B, T = statio.shape
    zeros = np.zeros((B, T))
    return alg.TrajectoryRecord(
        algorithm="gt_dsgd", seed=tuple(range(B)), run_id=tuple(range(B)), T=T,
        alpha=np.full(T, 0.1), f_avg=zeros, mse_to_opt=mse, stationarity_sum=statio,
        final_x=np.zeros((B, n, 3)),
    )


def fake_record(mse_rows=None, statio=None, n=2, T=None):
    """A block record of one run carrying prescribed metric series."""
    if mse_rows is not None:
        T = len(mse_rows)
    elif statio is not None:
        T = len(statio)
    mse = None if mse_rows is None else np.array([mse_rows])
    return block_record(mse, np.array([statio if statio is not None else [0.0] * T]), n)


def runset(rows):
    return metrics.RunSet(records=[fake_record(mse_rows=r) for r in rows])


def test_tail_probability_half():
    rs = runset([[0.02], [0.005], [0.03], [0.001]])
    series = metrics.empirical_tail_probability(rs, "mse_to_opt", 0.01)
    assert series.values[0] == pytest.approx(0.5)
    assert series.meta["floor"] == pytest.approx(0.25)


def test_tail_probability_extremes():
    rs = runset([[0.02], [0.005]])
    assert metrics.empirical_tail_probability(rs, "mse_to_opt", 1.0).values[0] == 0.0
    assert metrics.empirical_tail_probability(rs, "mse_to_opt", 1e-12).values[0] == 1.0


def test_tail_probability_rejects_bad_epsilon():
    rs = runset([[0.02]])
    with pytest.raises(ValueError):
        metrics.empirical_tail_probability(rs, "mse_to_opt", 0.0)


def test_tail_monotone_in_epsilon():
    rng = np.random.default_rng(0)
    rows = rng.random((8, 30)).tolist()
    rs = runset(rows)
    eps1, eps2 = 0.2, 0.6
    p1 = metrics.empirical_tail_probability(rs, "mse_to_opt", eps1).values
    p2 = metrics.empirical_tail_probability(rs, "mse_to_opt", eps2).values
    assert np.all(p1 >= p2)


def test_markov_consistency():
    rng = np.random.default_rng(1)
    rows = (rng.random((6, 20)) * 3).tolist()
    rs = runset(rows)
    mse = metrics.empirical_mse(rs).values
    for eps in (0.5, 1.0, 2.0):
        tail = metrics.empirical_tail_probability(rs, "mse_to_opt", eps).values
        assert np.all(tail <= mse / eps + 1e-12)


def test_empirical_mse_values():
    rs = runset([[1.0, 1.0], [3.0, 3.0]])
    series = metrics.empirical_mse(rs)
    assert np.allclose(series.values, [2.0, 2.0])


def test_empirical_mse_all_at_optimum():
    rs = runset([[0.0, 0.0, 0.0]])
    assert np.all(metrics.empirical_mse(rs).values == 0.0)


def test_empirical_mse_requires_optimum():
    rs = metrics.RunSet(records=[fake_record(T=3)])
    with pytest.raises(ValueError, match="optimum unknown"):
        metrics.empirical_mse(rs)


def test_running_stationarity_statistic():
    rec = fake_record(statio=[2.0, 4.0, 6.0], n=2)
    rs = metrics.RunSet(records=[rec])
    series = metrics.empirical_tail_probability(rs, "running_stationarity", 1.4)
    # G^t = cumsum / (n t): [1.0, 1.5, 2.0] against eps = 1.4
    assert list(series.values) == [0.0, 1.0, 1.0]


@settings(max_examples=60, deadline=None)
@given(R=st.integers(1, 12), T=st.integers(0, 40), n=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_per_run_statistic_of_blocks_is_the_stack_of_per_run_rows(R, T, n, seed, data):
    # R runs cut into blocks at random, as the harness steps them
    rng = np.random.default_rng(seed)
    mse = rng.random((R, T)) * 10.0 ** rng.uniform(-3, 3, (R, 1))
    statio = rng.random((R, T)) * 10.0 ** rng.uniform(-3, 3, (R, 1))
    cuts = data.draw(st.lists(st.booleans(), min_size=R - 1, max_size=R - 1))
    bounds = [0] + [b + 1 for b, cut in enumerate(cuts) if cut] + [R]
    rs = metrics.RunSet(records=[block_record(mse[lo:hi], statio[lo:hi], n)
                                 for lo, hi in zip(bounds, bounds[1:])])
    assert rs.R == R
    t = np.arange(1, T + 1)
    rows = {"mse_to_opt": np.stack([row for row in mse]),
            "running_stationarity": np.stack([np.cumsum(row) / (n * t) for row in statio])}
    for statistic, expected in rows.items():
        got = metrics._per_run_statistic(rs, statistic)
        assert got.shape == expected.shape == (R, T)
        assert got.tobytes() == expected.tobytes(), statistic


def test_consensus_gap_examples():
    assert metrics.consensus_gap(np.tile([1.0, 2.0], (4, 1))) == 0.0
    x = np.array([[1.0, 1.0], [3.0, 3.0]])
    assert metrics.consensus_gap(x) == pytest.approx(2.0)
    shift = x + np.array([5.0, -7.0])
    assert metrics.consensus_gap(shift) == pytest.approx(metrics.consensus_gap(x))


def test_transient_time_nonconvex_values():
    assert metrics.transient_time_nonconvex(2, 0.0, 0.0) == 8.0
    lam_sq_half = np.sqrt(0.5)
    assert metrics.transient_time_nonconvex(2, lam_sq_half, 0.0) == pytest.approx(8.0 / 0.5**8)
    # a tiny rho leaves the max unchanged when the first term dominates
    small = metrics.transient_time_nonconvex(2, 0.0, 1e-12, 1.0)
    assert small == pytest.approx(8.0)


def test_transient_time_pl_values():
    assert metrics.transient_time_pl(4, 0.0, 6.0) == pytest.approx(16.0)
    # exponent 4a/(a-2) = 6 at a = 6
    assert metrics.transient_time_pl(1, 0.5, 6.0) == pytest.approx(1.0 / 0.75**6)
    # a -> infinity limit: exponents tend to (1, 4)
    big_a = metrics.transient_time_pl(4, 0.5, 1e9)
    assert big_a == pytest.approx(4.0 / 0.75**4, rel=1e-6)
    with pytest.raises(ValueError):
        metrics.transient_time_pl(4, 0.0, 2.0)


def test_tail_fit_exact_exponential():
    t = np.arange(1, 201)
    series = metrics.MetricSeries("tail", np.exp(-0.01 * t), meta={"floor": 0.0})
    fit = metrics.tail_decay_fit(series)
    assert fit.window == (11, 200)  # from the first point below 0.9
    assert fit.slope == pytest.approx(-0.01, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_tail_fit_constant_series():
    series = metrics.MetricSeries("tail", np.full(50, 0.25), meta={"floor": 0.0})
    fit = metrics.tail_decay_fit(series)
    assert fit.window == (1, 50)
    assert fit.slope == pytest.approx(0.0, abs=1e-15)


def test_tail_fit_of_a_drop_onto_the_floor_is_too_short():
    # the first point below 0.9 is already at the floor: the window is that
    # one point, not the run to T over floor-level points and zeros
    vals = np.concatenate([np.ones(3), 0.05 * np.exp(-0.05 * np.arange(40)), np.zeros(10)])
    series = metrics.MetricSeries("tail", vals, meta={"floor": 0.05})
    assert metrics.default_fit_window(series) == (4, 4)
    with pytest.raises(ValueError, match="insufficient"):
        metrics.tail_decay_fit(series)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.sampled_from([0.0, 0.01, 0.125, 0.25, 0.5, 0.875, 0.9, 1.0]),
                       min_size=1, max_size=30),
       floor=st.sampled_from([0.0, 0.01, 0.125, 0.5, 1.0]))
def test_no_fit_window_of_two_or_more_points_reaches_the_floor(values, floor):
    series = metrics.MetricSeries("tail", np.array(values), meta={"floor": floor})
    lo, hi = metrics.default_fit_window(series)
    assert 1 <= lo <= hi <= len(values)
    if hi > lo:
        assert np.all(np.array(values[lo - 1:hi]) > floor)


def test_tail_fit_insufficient_data():
    series = metrics.MetricSeries("tail", np.array([0.5, 0.4, 0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="insufficient"):
        metrics.tail_decay_fit(series)


def test_default_fit_window():
    vals = np.concatenate([np.ones(10), np.exp(-0.1 * np.arange(1, 61)), np.zeros(30)])
    series = metrics.MetricSeries("tail", vals, meta={"floor": 0.01})
    lo, hi = metrics.default_fit_window(series)
    assert lo == 12  # first strict drop below 0.9 (exp(-0.1) is still above)
    assert hi < 101  # stops at the resolution floor
    fit = metrics.tail_decay_fit(series)
    assert fit.slope == pytest.approx(-0.1, abs=1e-6)


def test_runset_requires_common_horizon():
    with pytest.raises(ValueError):
        metrics.RunSet(records=[fake_record(T=3), fake_record(T=4)])
