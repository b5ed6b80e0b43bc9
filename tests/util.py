"""Shared test oracles: finite differences and small builders."""

import numpy as np

from gtsim import algorithms as alg, topology as tp


def central_diff_grad(f, x, h=1e-6):
    """Central finite-difference gradient, the independent gradient oracle."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def path3_matrix():
    return tp.metropolis_hastings(tp.generate_graph("path", 3))


def ring_matrix(n):
    return tp.metropolis_hastings(tp.generate_graph("ring", n))


# ---------------------------------------------------------------------------
# Reference trajectory loop: a plain per-iteration engine, independent of
# gtsim.algorithms.run and gtsim.noise. It evaluates every metric each
# iteration, guards g, y and x separately, and builds a fresh Philox
# generator for every cell it draws from.
# ---------------------------------------------------------------------------

NOISE_CHUNK = 64  # iterations whose Gaussian noise one cell draw covers


def reference_generator(seed, stream, run, t):
    key = np.array([int(seed) & (2**64 - 1), (stream << 60) | (run << 36) | t], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def reference_noise(seed, run, t, n, d):
    """Iteration t's (n, d) rows of its chunk's draw, keyed at the chunk start t0."""
    t0 = t - (t - 1) % NOISE_CHUNK
    return reference_generator(seed, 0, run, t0).standard_normal((t - t0 + 1, n, d))[-1]


def _reference_oracle(o, e, x, seed, run_id, t, alpha, gg):
    """(g, exact) for all agents; exact is None for mini-batches."""
    n, d = x.shape
    if o.kind == "minibatch":
        gen = reference_generator(seed, 1, run_id, t)
        g = np.empty((n, d))
        for i in range(n):
            idx = gen.choice(e.sample_count(i), size=o.batch_size, replace=False)
            g[i] = e.grad_batch(i, x[i], idx)
        return g, None
    exact = e.grad_all(x)
    if o.kind == "gaussian":
        s_col = o.s_vector(n)[:, None]
        if not s_col.any():
            return exact, exact
        return exact + s_col * reference_noise(seed, run_id, t, n, d), exact
    if o.rho == 0.0:
        return exact + o.s * reference_noise(seed, run_id, t, n, d), exact
    scale = np.sqrt(1.0 + o.rho * alpha ** (2.0 + o.eps_exponent) * np.linalg.norm(gg, axis=1))
    z = reference_noise(seed, run_id, t, n, d)
    return exact + o.s * scale[:, None] * z, exact


def _reference_guard(arr, t, what):
    bad = ~np.isfinite(arr)
    if bad.any():
        raise alg.RunAbort(t, int(np.argwhere(bad)[0][0]), what)


def reference_run(algorithm, config, seed, run_id):
    """The trajectory record of one run, computed one iteration at a time."""
    tracked = algorithm == "gt_dsgd"
    e, o = config.ensemble, config.oracle
    n, d = config.x0.shape
    T = config.T
    opt = e.optimum()
    x_star = None if opt is None else opt[0]
    stride = config.record_stride or (1 if n * d <= 10_000 else 10)
    trace = config.record_trace
    w = config.w.w
    rec = dict(alpha=np.empty(T), f_avg=np.empty(T), mse_to_opt=np.full(T, np.nan),
               consensus_gap=np.empty(T), tracker_gap=np.zeros(T),
               stationarity_sum=np.empty(T), snapshots={})
    x_hist, y_hist = np.empty((T + 1, n, d)), np.empty((T, n, d))
    g_hist, z_hist = np.empty((T, n, d)), np.empty((T, n, d))

    x = config.x0.astype(float).copy()
    y = np.zeros((n, d))
    g_prev = np.zeros((n, d))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            i = t - 1
            alpha = config.schedule.value(t)
            xbar = x.sum(axis=0) * (1.0 / n)
            gg = e.grad_global_all(x)
            rec["alpha"][i] = alpha
            rec["f_avg"][i] = e.value_global(xbar)
            if x_star is not None:
                diff = x - x_star
                rec["mse_to_opt"][i] = (diff * diff).sum() * (1.0 / n)
            dev = x - xbar
            rec["consensus_gap"][i] = (dev * dev).sum() * (1.0 / n)
            rec["stationarity_sum"][i] = (gg * gg).sum()
            if trace:
                x_hist[i] = x
            elif (t - 1) % stride == 0:
                rec["snapshots"][t] = x.copy()

            g, exact = _reference_oracle(o, e, x, seed, run_id, t, alpha, gg)
            _reference_guard(g, t, "oracle output")
            if tracked:
                y = w @ (y + g - g_prev)
                _reference_guard(y, t, "tracker update")
                x = w @ (x - alpha * y)
                ydev = y - y.sum(axis=0) * (1.0 / n)
                rec["tracker_gap"][i] = (ydev * ydev).sum() * (1.0 / n)
            else:
                x = w @ (x - alpha * g)
            _reference_guard(x, t, "model update")
            g_prev = g
            if trace:
                y_hist[i] = y
                g_hist[i] = g
                z_hist[i] = g - (e.grad_all(x_hist[i]) if exact is None else exact)
    x_hist[T] = x
    hists = dict(x_hist=x_hist, y_hist=y_hist, g_hist=g_hist, z_hist=z_hist) if trace else {}
    return alg.TrajectoryRecord(algorithm=algorithm, seed=seed, run_id=run_id, T=T,
                                final_x=x.copy(), **rec, **hists)


def assert_records_identical(a, b):
    """Every field equal, arrays bit for bit (NaNs and signed zeros included)."""
    assert vars(a).keys() == vars(b).keys()
    for name, va in vars(a).items():
        vb = getattr(b, name)
        if name == "snapshots":
            assert va.keys() == vb.keys()
            for t in va:
                assert va[t].tobytes() == vb[t].tobytes(), f"snapshot {t}"
        elif isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            assert va is not None and vb is not None, name
            assert (va.shape, va.dtype) == (vb.shape, vb.dtype), name
            assert va.tobytes() == vb.tobytes(), name
        else:
            assert va == vb, name
