"""Shared test oracles: finite differences, small builders, and reference
trajectory, pathwise-check, LIBSVM and graph-building loops."""

import io
import math

import numpy as np
from scipy.special import expit

from gtsim import algorithms as alg, datasets, noise, theorycheck as tc, topology as tp


def central_diff_grad(f, x, h=1e-6):
    """Central finite-difference gradient, the independent gradient oracle."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def reference_logistic_grad_global_all(e, x_rows):
    """Global logistic gradient at each row of ``x_rows`` (n, d) through
    ``expit``, the form grad_local, grad_batch and grad_global use."""
    margins = (e._h_all @ x_rows.T) * e._y_all[:, None]
    sig = expit(-margins)
    data = -(e._h_all.T @ (sig * (e._y_all * e._w_all)[:, None])).T
    return data + e.eta * 2.0 * x_rows / (1.0 + x_rows * x_rows) ** 2


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
    stride = config.record_stride  # 0: no snapshots
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
            elif stride and (t - 1) % stride == 0:
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


# ---------------------------------------------------------------------------
# Reference pathwise checks: the inequalities evaluated one run and one
# iteration at a time, on per-point cost calls. They skip the step-size cap
# validation and return the report of one run.
# ---------------------------------------------------------------------------

def _sq(v):
    v = np.asarray(v)
    return float(np.sum(v * v))


def _reference_report(name, slacks, run_label, t_first):
    """Report on one run's slacks, in t order from t_first; worst first-seen."""
    worst, worst_at, violations = math.inf, None, []
    for k, slack in enumerate(slacks):
        t = t_first + k
        if slack < worst:
            worst, worst_at = slack, (run_label, t)
        if slack < tc.SLACK_TOL:
            violations.append((run_label, t))
    if not slacks:
        worst = 0.0
    return tc.CheckReport(name, len(slacks), worst, violations, worst_at=worst_at)


def reference_check_descent(rec, e, run_label=None):
    alpha = float(rec.alpha[0])
    L = e.smoothness()
    T, n = rec.T, rec.x_hist.shape[1]
    slacks = []
    for t in range(1, T + 1):
        x = rec.x_hist[t - 1]
        xbar = x.mean(axis=0)
        zbar = rec.z_hist[t - 1].mean(axis=0)
        exact_bar = (rec.g_hist[t - 1] - rec.z_hist[t - 1]).mean(axis=0)
        grad_bar = e.grad_global(xbar)
        gap = _sq(x - xbar)
        rhs = (
            e.value_global(xbar)
            - 0.5 * alpha * _sq(grad_bar)
            - alpha * float(grad_bar @ zbar)
            + alpha * alpha * L * _sq(zbar)
            + alpha * L * L / (2.0 * n) * gap
            - 0.25 * alpha * _sq(exact_bar)
        )
        lhs = e.value_global(rec.x_hist[t].mean(axis=0))
        slacks.append(rhs - lhs)
    return _reference_report("descent", slacks, run_label, 1)


def reference_check_descent_pl(rec, e, run_label=None):
    L = e.smoothness()
    mu = e.pl_constant()
    _, f_star = e.optimum()
    T, n = rec.T, rec.x_hist.shape[1]
    slacks = []
    for t in range(1, T + 1):
        alpha = float(rec.alpha[t - 1])
        x = rec.x_hist[t - 1]
        xbar = x.mean(axis=0)
        zbar = rec.z_hist[t - 1].mean(axis=0)
        grad_bar = e.grad_global(xbar)
        gap = _sq(x - xbar)
        rhs = (
            (1.0 - alpha * mu) * (e.value_global(xbar) - f_star)
            - alpha * float(grad_bar @ zbar)
            + alpha * alpha * L * _sq(zbar)
            + alpha * L * L / (2.0 * n) * gap
        )
        lhs = e.value_global(rec.x_hist[t].mean(axis=0)) - f_star
        slacks.append(rhs - lhs)
    return _reference_report("descent_pl", slacks, run_label, 1)


def reference_check_consensus_bound(rec, w, e, run_label=None):
    alpha = float(rec.alpha[0])
    L = e.smoothness()
    lam = float(w.lam)
    one = 1.0 - lam * lam
    T, n = rec.T, rec.x_hist.shape[1]
    lhs = 0.0
    sum_z_sq = 0.0
    sum_avg_sq = 0.0
    for t in range(1, T + 1):
        x = rec.x_hist[t - 1]
        lhs += _sq(x - x.mean(axis=0)) / n
        z = rec.z_hist[t - 1]
        sum_z_sq += _sq(z)
        exact_bar = (rec.g_hist[t - 1] - z).mean(axis=0)
        sum_avg_sq += _sq(exact_bar) + _sq(z.mean(axis=0))
    x1 = rec.x_hist[0]
    delta_x = _sq(x1 - x1.mean(axis=0)) / n
    y1 = rec.y_hist[0]
    y1_gap = _sq(y1 - y1.mean(axis=0))
    rhs = (
        4.0 * delta_x / one
        + 32.0 * alpha * alpha * lam * lam / (n * one ** 3) * y1_gap
        + 512.0 * alpha ** 2 * lam ** 4 / (n * one ** 4) * sum_z_sq
        + 768.0 * alpha ** 4 * lam ** 4 * L * L / one ** 4 * sum_avg_sq
    )
    return _reference_report("consensus_bound", [rhs - lhs], run_label, T)


def reference_check_tracker_recursion(rec, w, e, run_label=None):
    alpha = float(rec.alpha[0])
    L = e.smoothness()
    lam = float(w.lam)
    one = 1.0 - lam * lam
    T, n = rec.T, rec.x_hist.shape[1]
    slacks = []
    for t in range(1, T):
        y_now = rec.y_hist[t - 1]
        y_next = rec.y_hist[t]
        x = rec.x_hist[t - 1]
        z_now = rec.z_hist[t - 1]
        z_next = rec.z_hist[t]
        gbar = rec.g_hist[t - 1].mean(axis=0)
        lhs = _sq(y_next - y_next.mean(axis=0))
        rhs = (
            (3.0 + lam * lam) / 4.0 * _sq(y_now - y_now.mean(axis=0))
            + 24.0 * lam * lam * L * L / one * _sq(x - x.mean(axis=0))
            + 4.0 * lam * lam / one * _sq(z_next - z_now)
            + 12.0 * alpha * alpha * lam * lam * L * L / one * n * _sq(gbar)
        )
        slacks.append(rhs - lhs)
    return _reference_report("tracker_recursion", slacks, run_label, 1)


def reference_avg_mgf_details(o, e, xs, samples, seed, n_avg, agent=0):
    """The ``avg_mgf_*`` entries of check_noise_properties' details, with
    zbar the mean of the m stacked draws."""
    s = float(o.s_vector(e.n)[agent]) if o.kind == "gaussian" else float(o.s)
    sigma_sq = noise.calibrate_sigma(s, e.d)
    details = {}
    for k, x in enumerate(xs):
        for m in n_avg:
            draws = np.stack([noise.noise_samples(o, e, agent, x, samples, seed=seed + 1000 + 17 * k + j)
                              for j in range(m)])
            zbar = draws.mean(axis=0)
            wexp = m * np.sum(zbar * zbar, axis=1) / (96.0 * sigma_sq)
            est, stderr, capped = noise.capped_exp_mean(wexp)
            label = f"avg_mgf_x{k}_n{m}"
            details[label] = {"estimate": est, "bound": 2.0 * e.d * math.e, "stderr": stderr}
            if capped:
                details[label]["capped"] = capped
    return details


# ---------------------------------------------------------------------------
# Reference LIBSVM loops: one dict of {0-based index: value} per row, built
# one entry at a time. Rows are (label, dict) pairs, as LabeledDataset.rows
# gives them. The parser accepts non-finite values.
# ---------------------------------------------------------------------------

def _reference_parse_label(token, line_no):
    try:
        val = float(token)
    except ValueError:
        raise datasets.ParseError(line_no, f"bad label {token!r}") from None
    if val == 1.0:
        return 1
    if val == -1.0 or val == 0.0:
        return -1
    raise datasets.ParseError(line_no, f"label must be one of -1, 0, +1, got {token!r}")


def reference_parse_libsvm(source, d=None):
    """(rows, d) of LIBSVM text (a string or an iterable of lines)."""
    # a string splits as a text-mode file read does: universal newlines
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    rows = []
    max_idx = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        label = _reference_parse_label(tokens[0], line_no)
        feats = {}
        prev_idx = 0
        for tok in tokens[1:]:
            if ":" not in tok:
                raise datasets.ParseError(line_no, f"malformed index:value pair {tok!r}")
            idx_s, val_s = tok.split(":", 1)
            try:
                idx = int(idx_s)
            except ValueError:
                raise datasets.ParseError(line_no, f"non-integer feature index {idx_s!r}") from None
            try:
                val = float(val_s)
            except ValueError:
                raise datasets.ParseError(line_no, f"non-numeric feature value {val_s!r}") from None
            if idx < 1:
                raise datasets.ParseError(line_no, f"feature indices are 1-based, got {idx}")
            if idx <= prev_idx:
                raise datasets.ParseError(
                    line_no, f"indices must be strictly increasing, got {idx} after {prev_idx}")
            feats[idx - 1] = val
            prev_idx = idx
            max_idx = max(max_idx, idx)
        rows.append((label, feats))
    if d is None:
        d = max_idx
    elif d < max_idx:
        raise datasets.ParseError(0, f"d override {d} smaller than max feature index {max_idx}")
    return tuple(rows), d


def reference_split_uniform(rows, n, seed=0):
    """The rows of each of n parts: seeded permutation, then contiguous chunks."""
    perm = np.random.default_rng(seed).permutation(len(rows))
    base, extra = divmod(len(rows), n)
    parts = []
    pos = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        chunk = perm[pos:pos + size]
        parts.append(tuple(rows[j] for j in chunk))
        pos += size
    return parts


def reference_densify(rows, d):
    """Dense (m, d) features and (m,) labels, set one cell at a time."""
    h = np.zeros((len(rows), d))
    y = np.empty(len(rows))
    for r, (label, feats) in enumerate(rows):
        y[r] = label
        for idx, val in feats.items():
            h[r, idx] = val
    return h, y


def reference_maxabs_scale(rows, d):
    scale = np.zeros(d)
    for _, feats in rows:
        for idx, val in feats.items():
            scale[idx] = max(scale[idx], abs(val))
    scale[scale == 0.0] = 1.0
    return tuple(
        (label, {idx: val / scale[idx] for idx, val in feats.items()})
        for label, feats in rows
    )


# ---------------------------------------------------------------------------
# Reference graph loops: edges, degrees, adjacency, connectivity and
# Metropolis-Hastings weights one node pair at a time, from a graph's edge set.
# ---------------------------------------------------------------------------

def reference_er_edges(n, p, rng):
    mask = rng.random((n, n)) < p
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
    return edges


def reference_degrees(g):
    deg = np.zeros(g.n, dtype=int)
    for (i, j) in g.edges:
        deg[i] += 1
        deg[j] += 1
    return deg


def reference_adjacency(g):
    adj = np.zeros((g.n, g.n), dtype=bool)
    for (i, j) in g.edges:
        adj[i, j] = adj[j, i] = True
    return adj


def reference_is_connected(g):
    if g.n == 1:
        return True
    adj = reference_adjacency(g)
    seen = np.zeros(g.n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in np.nonzero(adj[u])[0]:
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return bool(seen.all())


def reference_generate_er(kind, n, seed=0, p=None):
    """generate_graph for kind "erdos_renyi": resample until connected."""
    assert kind == "erdos_renyi"
    for attempt in range(1000):
        rng = np.random.default_rng((int(seed), attempt))
        g = tp.WeightedGraph(n, frozenset(reference_er_edges(n, p, rng)))
        if reference_is_connected(g):
            return g
    raise tp.GraphError(f"unconnectable configuration: erdos_renyi(n={n}, p={p})")


def reference_metropolis_hastings(g):
    if not reference_is_connected(g):
        raise tp.GraphError("graph not connected")
    n = g.n
    deg = reference_degrees(g)
    w = np.zeros((n, n))
    for (i, j) in g.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    lam = tp.spectral_gap(w)
    return tp.MixingMatrix(n=n, w=w, lam=lam)
