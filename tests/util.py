"""Shared test oracles: finite differences, small builders, and reference
trajectory, pathwise-check, LIBSVM, graph-building and output-writing loops,
and the per-section config normalizer."""

import io
import json
import math
import os

import numpy as np
from scipy.special import expit

from gtsim import algorithms as alg, datasets, noise, theorycheck as tc, topology as tp
from gtsim.harness import ConfigError, ExperimentConfig


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
    scipy's ``expit``, a sigmoid independent of gtsim's exp form."""
    margins = (e._h_all @ x_rows.T) * e._y_all[:, None]
    sig = expit(-margins)
    data = -(e._h_all.T @ (sig * (e._y_all * e._w_all)[:, None])).T
    return data + e.eta * 2.0 * x_rows / (1.0 + x_rows * x_rows) ** 2


def parent_logistic_grad_global_all(e, x_rows):
    """The global logistic gradient at each row of one (n, d) slice, as
    ``LogisticEnsemble.grad_global_all`` took it before row tiles: one
    (n, m) buffer over all pooled rows."""
    # one (n, m_total) buffer: margins, then y w sigmoid(-margin) in
    # place as y w / (1 + exp(margin)), the form of _sigmoid
    z = x_rows @ e._h_all.T
    z *= e._y_all
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    np.divide(e._yw_all, z, out=z)
    data = -(z @ e._h_all)
    return data + e._penalty_grad(x_rows)


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


def _reference_oracle(o, grad_all, e, x, seed, run_id, t, alpha, gg):
    """(g, exact) for all agents; exact is None for mini-batches."""
    n, d = x.shape
    if o.kind == "minibatch":
        gen = reference_generator(seed, 1, run_id, t)
        g = np.empty((n, d))
        for i in range(n):
            idx = gen.choice(e.sample_count(i), size=o.batch_size, replace=False)
            g[i] = e.grad_batch(i, x[i], idx)
        return g, None
    exact = grad_all(x)
    if o.rho == 0.0:
        s_col = o.s_vector(n)[:, None]
        if not s_col.any():
            return exact, exact
        return exact + s_col * reference_noise(seed, run_id, t, n, d), exact
    scale = np.sqrt(1.0 + o.rho * alpha ** (2.0 + o.eps_exponent) * np.linalg.norm(gg, axis=1))
    z = reference_noise(seed, run_id, t, n, d)
    return exact + o.s * scale[:, None] * z, exact


def _reference_guard(arr, t, what, run_id):
    bad = ~np.isfinite(arr)
    if bad.any():
        exc = alg.RunAbort(t, int(np.argwhere(bad)[0][0]), what)
        exc.run_id = run_id
        raise exc


PANEL = 8  # runs per panel where the local gradients are per-agent matrix products


def reference_run(algorithm, config, seed, run_id):
    """The record of one run, as a block of one, computed one iteration at a
    time. A per-agent quadratic's gradients and mixing are taken as a
    one-run panel: the run in slot 0 of a zero-padded PANEL-wide panel."""
    e, w = config.ensemble, config.w.w
    n, d = config.x0.shape
    if getattr(e, "shared_a", True):
        return _reference_loop(algorithm, config, seed, run_id, e.grad_all, lambda v: w @ v)

    def grad_all(v):
        # the (PANEL, n, d) stack of the panel's slots of agent-major memory,
        # as the engine passes it
        panel = np.zeros((n, PANEL, d))
        panel[:, 0] = v
        return e.grad_all(panel.swapaxes(0, 1))[0]

    def mix(v):
        panel = np.zeros((n, PANEL * d))
        panel[:, :d] = v
        return (w @ panel)[:, :d]

    return _reference_loop(algorithm, config, seed, run_id, grad_all, mix)


def parent_grad_all(e, x_rows):
    """The local gradients as the engine took them before run panels: one
    (d, d) x (d,) product per (run, agent) for a per-agent quadratic."""
    if e.kind == "quadratic" and not e.shared_a:
        return np.matmul(e.a, x_rows[..., None])[..., 0] + e.b
    return e.grad_all(x_rows)


def reference_run_parent(algorithm, config, seed, run_id):
    """The reference loop with the arithmetic it had before run panels: the
    one-product-per-agent gradients and a (n, n) x (n, d) mixing product."""
    w = config.w.w
    return _reference_loop(algorithm, config, seed, run_id,
                           lambda v: parent_grad_all(config.ensemble, v), lambda v: w @ v)


def _reference_loop(algorithm, config, seed, run_id, grad_all, mix):
    tracked = algorithm == "gt_dsgd"
    e, o = config.ensemble, config.oracle
    n, d = config.x0.shape
    T = config.T
    opt = e.optimum()
    x_star = None if opt is None else opt[0]
    trace = config.record_trace
    rec = dict(alpha=np.empty(T), f_avg=np.empty(T), mse_to_opt=None if x_star is None else np.empty(T),
               stationarity_sum=np.empty(T))
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
            rec["stationarity_sum"][i] = (gg * gg).sum()
            if trace:
                x_hist[i] = x

            g, exact = _reference_oracle(o, grad_all, e, x, seed, run_id, t, alpha, gg)
            _reference_guard(g, t, "oracle output", run_id)
            if tracked:
                y = mix(y + g - g_prev)
                _reference_guard(y, t, "tracker update", run_id)
                x = mix(x - alpha * y)
            else:
                x = mix(x - alpha * g)
            _reference_guard(x, t, "model update", run_id)
            g_prev = g
            if trace:
                y_hist[i] = y
                g_hist[i] = g
                z_hist[i] = g - (grad_all(x_hist[i]) if exact is None else exact)
    x_hist[T] = x
    hists = dict(x_hist=x_hist, y_hist=y_hist, g_hist=g_hist, z_hist=z_hist) if trace else {}
    alpha = rec.pop("alpha")
    per_run = {k: None if v is None else v[None] for k, v in dict(rec, final_x=x, **hists).items()}
    return alg.TrajectoryRecord(algorithm=algorithm, seed=(seed,), run_id=(run_id,), T=T,
                                alpha=alpha, **per_run)


def assert_records_identical(a, b):
    """Every field equal, arrays bit for bit (signed zeros included)."""
    assert vars(a).keys() == vars(b).keys()
    for name, va in vars(a).items():
        vb = getattr(b, name)
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            assert va is not None and vb is not None, name
            assert (va.shape, va.dtype) == (vb.shape, vb.dtype), name
            assert va.tobytes() == vb.tobytes(), name
        else:
            assert va == vb, name


def assert_records_close(a, b, rel):
    """Every field equal, but the float arrays within ``rel``: each entry of
    the nonnegative metric series relative to itself, every other array
    relative to its largest entry."""

    def close(va, vb, name, per_entry=False):
        assert va is not None and vb is not None and va.shape == vb.shape, name
        scale = np.abs(vb) if per_entry else np.abs(vb).max(initial=0)
        assert np.all(np.abs(va - vb) <= rel * scale), name

    assert vars(a).keys() == vars(b).keys()
    for name, va in vars(a).items():
        vb = getattr(b, name)
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            close(va, vb, name, per_entry=name in ("mse_to_opt", "stationarity_sum"))
        else:
            assert va == vb, name


# ---------------------------------------------------------------------------
# Reference pathwise checks: the inequalities evaluated one run and one
# iteration at a time, on per-point cost calls. They take a block of one,
# skip the step-size cap validation and return the report of its run.
# ---------------------------------------------------------------------------

def _sq(v):
    v = np.asarray(v)
    return float(np.sum(v * v))


def _one_run(rec):
    """The run id and the (x, y, g, z) traces of a block of one."""
    (run_id,) = rec.run_id
    return run_id, rec.x_hist[0], rec.y_hist[0], rec.g_hist[0], rec.z_hist[0]


def _reference_report(name, slacks, run_id, t_first):
    """Report on one run's slacks, in t order from t_first; worst first-seen."""
    worst, worst_at, violations = math.inf, None, []
    for k, slack in enumerate(slacks):
        t = t_first + k
        if slack < worst:
            worst, worst_at = slack, (run_id, t)
        if slack < tc.SLACK_TOL:
            violations.append((run_id, t))
    if not slacks:
        worst = 0.0
    return tc.CheckReport(name, len(slacks), worst, violations, worst_at=worst_at)


def reference_check_descent(rec, e):
    run_id, x_hist, y_hist, g_hist, z_hist = _one_run(rec)
    alpha = float(rec.alpha[0])
    L = e.smoothness()
    T, n = rec.T, x_hist.shape[1]
    slacks = []
    for t in range(1, T + 1):
        x = x_hist[t - 1]
        xbar = x.mean(axis=0)
        zbar = z_hist[t - 1].mean(axis=0)
        exact_bar = (g_hist[t - 1] - z_hist[t - 1]).mean(axis=0)
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
        lhs = e.value_global(x_hist[t].mean(axis=0))
        slacks.append(rhs - lhs)
    return _reference_report("descent", slacks, run_id, 1)


def reference_check_descent_pl(rec, e):
    run_id, x_hist, y_hist, g_hist, z_hist = _one_run(rec)
    L = e.smoothness()
    mu = e.pl_constant()
    _, f_star = e.optimum()
    T, n = rec.T, x_hist.shape[1]
    slacks = []
    for t in range(1, T + 1):
        alpha = float(rec.alpha[t - 1])
        x = x_hist[t - 1]
        xbar = x.mean(axis=0)
        zbar = z_hist[t - 1].mean(axis=0)
        grad_bar = e.grad_global(xbar)
        gap = _sq(x - xbar)
        rhs = (
            (1.0 - alpha * mu) * (e.value_global(xbar) - f_star)
            - alpha * float(grad_bar @ zbar)
            + alpha * alpha * L * _sq(zbar)
            + alpha * L * L / (2.0 * n) * gap
        )
        lhs = e.value_global(x_hist[t].mean(axis=0)) - f_star
        slacks.append(rhs - lhs)
    return _reference_report("descent_pl", slacks, run_id, 1)


def reference_check_consensus_bound(rec, w, e):
    run_id, x_hist, y_hist, g_hist, z_hist = _one_run(rec)
    alpha = float(rec.alpha[0])
    L = e.smoothness()
    lam = float(w.lam)
    one = 1.0 - lam * lam
    T, n = rec.T, x_hist.shape[1]
    lhs = 0.0
    sum_z_sq = 0.0
    sum_avg_sq = 0.0
    for t in range(1, T + 1):
        x = x_hist[t - 1]
        lhs += _sq(x - x.mean(axis=0)) / n
        z = z_hist[t - 1]
        sum_z_sq += _sq(z)
        exact_bar = (g_hist[t - 1] - z).mean(axis=0)
        sum_avg_sq += _sq(exact_bar) + _sq(z.mean(axis=0))
    x1 = x_hist[0]
    delta_x = _sq(x1 - x1.mean(axis=0)) / n
    y1 = y_hist[0]
    y1_gap = _sq(y1 - y1.mean(axis=0))
    rhs = (
        4.0 * delta_x / one
        + 32.0 * alpha * alpha * lam * lam / (n * one ** 3) * y1_gap
        + 512.0 * alpha ** 2 * lam ** 4 / (n * one ** 4) * sum_z_sq
        + 768.0 * alpha ** 4 * lam ** 4 * L * L / one ** 4 * sum_avg_sq
    )
    return _reference_report("consensus_bound", [rhs - lhs], run_id, T)


def reference_check_tracker_recursion(rec, w, e):
    run_id, x_hist, y_hist, g_hist, z_hist = _one_run(rec)
    alpha = float(rec.alpha[0])
    L = e.smoothness()
    lam = float(w.lam)
    one = 1.0 - lam * lam
    T, n = rec.T, x_hist.shape[1]
    slacks = []
    for t in range(1, T):
        y_now = y_hist[t - 1]
        y_next = y_hist[t]
        x = x_hist[t - 1]
        z_now = z_hist[t - 1]
        z_next = z_hist[t]
        gbar = g_hist[t - 1].mean(axis=0)
        lhs = _sq(y_next - y_next.mean(axis=0))
        rhs = (
            (3.0 + lam * lam) / 4.0 * _sq(y_now - y_now.mean(axis=0))
            + 24.0 * lam * lam * L * L / one * _sq(x - x.mean(axis=0))
            + 4.0 * lam * lam / one * _sq(z_next - z_now)
            + 12.0 * alpha * alpha * lam * lam * L * L / one * n * _sq(gbar)
        )
        slacks.append(rhs - lhs)
    return _reference_report("tracker_recursion", slacks, run_id, 1)


def reference_avg_mgf_details(o, e, xs, samples, seed, n_avg, agent=0):
    """The ``avg_mgf_*`` entries of check_noise_properties' details, with
    zbar the mean of the m stacked draws."""
    s = float(o.s_vector(e.n)[agent])
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
# Reference noise Monte Carlo: check_noise_properties and estimate_mgf as they
# were before the check wrote into arrays it already held, each product,
# norm and quotient in a new array. Their draws and capped means are inlined,
# so they depend on no noise helper beyond the counter-based generator and
# the relaxed scale. The exponent cap is read at call time, so a test may
# patch noise._EXP_CAP.
# ---------------------------------------------------------------------------

def _reference_noise_samples(o, e, i, x, count, seed=0, alpha=None):
    x = np.asarray(x, dtype=float)
    if o.kind == "gaussian" and o.rho == 0.0:
        return o.s_vector(e.n)[i] * noise._generator(seed, 2, i, 0).standard_normal((count, e.d))
    if o.kind == "gaussian":
        scale = noise._relaxed_scale(o, alpha, float(np.linalg.norm(e.grad_global(x))))
        return o.s * scale * noise._generator(seed, 2, i, 0).standard_normal((count, e.d))
    if o.kind == "minibatch":
        grad = e.grad_local(i, x)
        out = np.empty((count, e.d))
        gen = noise._generator(seed, 2, i, 0)
        for k in range(count):
            out[k] = e.grad_batch(i, x, noise._batch_of(o, e, i, gen)) - grad
        return out
    raise noise.OracleError(f"unknown oracle kind {o.kind!r}")


def _reference_capped_exp_mean(w):
    capped = int(np.sum(w > noise._EXP_CAP))
    vals = np.exp(np.minimum(w, noise._EXP_CAP))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals))), capped


def _reference_avg_mgf_exponent(total, m, sigma_sq):
    sq = total / m
    np.multiply(sq, sq, out=sq)
    return m * np.sum(sq, axis=1) / (96.0 * sigma_sq)


def reference_check_noise_properties(o, e, xs, samples=100_000, seed=0, n_avg=(4, 16), agent=0):
    if samples < 100_000:
        raise ValueError("noise property checks need at least 1e5 samples")
    if o.kind == "minibatch":
        raise ValueError("closed-form comparisons need a Gaussian or relaxed oracle, not mini-batch")
    if getattr(o, "rho", 0.0) != 0.0:
        raise ValueError("closed-form comparisons require the rho = 0 flavor")
    s = float(o.s_vector(e.n)[agent])
    d = e.d
    sigma_sq = noise.calibrate_sigma(s, d)
    if sigma_sq == 0.0:
        return tc.CheckReport("noise_properties", 1, 2.0, [], deterministic=False,
                              details={"noiseless": True})
    sigma = math.sqrt(sigma_sq)

    worst = math.inf
    violations = []
    details = {}

    def record(label, estimate, bound, stderr):
        nonlocal worst
        slack = bound + 3.0 * stderr - estimate
        details[label] = {"estimate": estimate, "bound": bound, "stderr": stderr}
        if slack < worst:
            worst = slack
        if slack < 0:
            violations.append(label)

    for k, x in enumerate(xs):
        z = _reference_noise_samples(o, e, agent, x, samples, seed=seed + k)
        norms = np.linalg.norm(z, axis=1)
        for mult in (1.0, 2.0, 3.0):
            eps = mult * sigma
            p_hat = float(np.mean(norms > eps))
            stderr = math.sqrt(max(p_hat * (1 - p_hat), 1.0 / samples) / samples)
            bound = min(1.0, 2.0 * math.exp(-eps * eps / (2.0 * sigma_sq)))
            record(f"tail_x{k}_eps{mult:g}sigma", p_hat, bound, stderr)
        for p in (1, 2, 3):
            vals = norms ** (2 * p)
            est = float(vals.mean())
            stderr = float(vals.std(ddof=1) / math.sqrt(samples))
            bound = (2.0 * p) ** (p + 1) * sigma_sq ** p
            record(f"moment_x{k}_p{p}", est, bound, stderr)
        total = None
        stats = {}
        for j in range(max(n_avg, default=0)):
            z = _reference_noise_samples(o, e, agent, x, samples, seed=seed + 1000 + 17 * k + j)
            if total is None:
                total = z
            else:
                total += z
            if j + 1 in n_avg:
                stats[j + 1] = _reference_capped_exp_mean(
                    _reference_avg_mgf_exponent(total, j + 1, sigma_sq))
        for m in n_avg:
            est, stderr, capped = stats[m]
            bound = 2.0 * d * math.e
            record(f"avg_mgf_x{k}_n{m}", est, bound, stderr)
            if capped:
                details[f"avg_mgf_x{k}_n{m}"]["capped"] = capped

    return tc.CheckReport(
        "noise_properties",
        instances=len(details),
        worst_slack=worst,
        violations=violations,
        deterministic=False,
        details=details,
    )


def reference_estimate_mgf(o, e, i, x, sigma_sq, samples, seed=0, alpha=None):
    z = _reference_noise_samples(o, e, i, x, samples, seed=seed, alpha=alpha)
    value, stderr, capped = _reference_capped_exp_mean(np.sum(z * z, axis=1) / sigma_sq)
    return noise.MgfEstimate(value=value, stderr=stderr, capped=capped, samples=samples)


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


def reference_tune_er(n, target_lambda, tol, seed=0, samples_per_probe=16, max_steps=40):
    """tune_er_probability as one graph at a time: each probe builds every
    candidate's graph and matrix, and the bisection keeps the closest."""
    p_lo = min(0.95, max(math.log(max(n, 2)) / n, 1.0 / (n - 1)))
    best, means = None, []

    def probe(p, step):
        nonlocal best
        lams = []
        for k in range(samples_per_probe):
            sub = int(np.random.SeedSequence((seed, step, k)).generate_state(1)[0])
            g = reference_generate_er("erdos_renyi", n, seed=sub, p=p)
            m = reference_metropolis_hastings(g)
            gap = abs(m.lam - target_lambda)
            if best is None or gap < best[0]:
                best = (gap, g, m, p)
            lams.append(m.lam)
        means.append(float(np.mean(lams)))
        return means[-1]

    probe(p_lo, 0)
    probe(1.0, 1)
    lo, hi = p_lo, 1.0
    for step in range(2, max_steps + 2):
        mid = 0.5 * (lo + hi)
        mean_mid = probe(mid, step)
        if best[0] <= tol and abs(mean_mid - target_lambda) <= tol:
            break
        if mean_mid > target_lambda:
            lo = mid
        else:
            hi = mid
    gap, g, m, p = best
    return tp.TuneResult(p=p, matrix=m, graph=g, lam=m.lam, converged=gap <= tol,
                         lambda_range=(min(means), max(means)))


# ---------------------------------------------------------------------------
# Reference output writers: the CSV, envelope JSON and SVG writers as they
# were when every float went through Python one at a time (the JSON through
# json's indent encoder, the SVG through per-point sx/sy), and the emission
# loop that calls them. Check reports carry no worst_at here.
# ---------------------------------------------------------------------------

def _reference_fmt(v: float) -> str:
    return f"{v:.6g}"


def _reference_ticks(lo: float, hi: float, count: int = 6):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(count - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-12 * step:
        ticks.append(v)
        v += step
    return ticks


_WIDTH, _HEIGHT = 720, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 30, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def reference_render_line_chart(series: dict, title: str, xlabel: str = "iteration",
                                ylabel: str = "value", log_y: bool = False) -> str:
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    pts = []
    for xs, ys in series.values():
        for x, y in zip(xs, ys):
            if log_y and y <= 0:
                continue
            pts.append((float(x), float(y)))
    if not pts:
        pts = [(0.0, 1.0), (1.0, 1.0)]
    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    ys_all = [math.log10(p[1]) if log_y else p[1] for p in pts]
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        yv = math.log10(y) if log_y else y
        return _MARGIN_T + plot_h - (yv - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="20" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14">{title}</text>',
    ]

    # axes and ticks
    ax_b = _MARGIN_T + plot_h
    out.append(
        f'<path d="M {_MARGIN_L} {_MARGIN_T} L {_MARGIN_L} {ax_b} L {_MARGIN_L + plot_w} {ax_b}" '
        f'stroke="black" fill="none"/>'
    )
    for tx in _reference_ticks(x_lo, x_hi):
        px = sx(tx)
        out.append(f'<line x1="{px:.2f}" y1="{ax_b}" x2="{px:.2f}" y2="{ax_b + 5}" stroke="black"/>')
        out.append(
            f'<text x="{px:.2f}" y="{ax_b + 18}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{_reference_fmt(tx)}</text>'
        )
    if log_y:
        lo_exp = math.floor(y_lo)
        hi_exp = math.ceil(y_hi)
        ticks_y = list(range(int(lo_exp), int(hi_exp) + 1))
        labels = [f"1e{e}" for e in ticks_y]
    else:
        ticks_y = _reference_ticks(y_lo, y_hi)
        labels = [_reference_fmt(t) for t in ticks_y]
    for tv, lab in zip(ticks_y, labels):
        py = _MARGIN_T + plot_h - (tv - y_lo) / (y_hi - y_lo) * plot_h
        if py < _MARGIN_T - 1 or py > ax_b + 1:
            continue
        out.append(f'<line x1="{_MARGIN_L - 5}" y1="{py:.2f}" x2="{_MARGIN_L}" y2="{py:.2f}" stroke="black"/>')
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end" font-family="sans-serif" '
            f'font-size="11">{lab}</text>'
        )
    out.append(
        f'<text x="{_MARGIN_L + plot_w // 2}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{_MARGIN_T + plot_h // 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 18 {_MARGIN_T + plot_h // 2})">{ylabel}</text>'
    )

    # polylines and legend
    for idx, (label, (xs, ys)) in enumerate(series.items()):
        color = _COLORS[idx % len(_COLORS)]
        coords = [
            f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
            for x, y in zip(xs, ys)
            if not (log_y and y <= 0)
        ]
        if coords:
            out.append(f'<polyline points="{" ".join(coords)}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 14 + 16 * idx
        lx = _MARGIN_L + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        out.append(
            f'<text x="{lx + 30}" y="{ly + 4}" font-family="sans-serif" font-size="11">{label}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _reference_series_to_jsonable(s):
    return {"name": s.name, "values": [float(v) for v in s.values], "meta": s.meta}


def _reference_report_to_jsonable(r):
    return {
        "name": r.name,
        "instances": r.instances,
        "worst_slack": r.worst_slack,
        "violations": [list(v) if isinstance(v, tuple) else v for v in r.violations],
        "deterministic": r.deterministic,
        "passed": r.passed,
        "details": r.details,
    }


def reference_envelope_json(env) -> str:
    """The text of envelope.json, as json.dumps writes it."""
    obj = {
        "config": env.config,
        "fingerprint": env.fingerprint,
        "series": {k: _reference_series_to_jsonable(s) for k, s in sorted(env.series.items())},
        "run_summaries": env.run_summaries,
        "check_reports": [_reference_report_to_jsonable(r) for r in env.check_reports],
        "partial": env.partial,
        "aborted": env.aborted,
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def reference_series_csv(s) -> str:
    lines = ["t,value"]
    for t, v in enumerate(s.values, start=1):
        lines.append(f"{t},{float(v)!r}")
    return "\n".join(lines) + "\n"


def reference_emit_outputs(env, outdir):
    """Write the csv, json and svg outputs of ``env`` under ``outdir``, as
    harness.emit_outputs does with every format; return the paths written."""
    os.makedirs(outdir, exist_ok=True)
    written = []

    def write(name, text):
        path = os.path.join(outdir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        written.append(path)

    for name, s in sorted(env.series.items()):
        write(f"{name}.csv", reference_series_csv(s))
    write("envelope.json", reference_envelope_json(env))
    t_axis = {name: list(range(1, s.T + 1)) for name, s in env.series.items()}
    mse_series = {n: (t_axis[n], s.values.tolist()) for n, s in sorted(env.series.items()) if n.startswith("mse_")}
    if mse_series:
        for log_y, suffix in ((False, ""), (True, "_log")):
            write(f"mse{suffix}.svg",
                  reference_render_line_chart(mse_series, "empirical MSE", ylabel="mse", log_y=log_y))
    eps_groups = {}
    for name, s in sorted(env.series.items()):
        if name.startswith("tail_"):
            eps_groups.setdefault(s.meta.get("epsilon"), {})[name] = (t_axis[name], s.values.tolist())
    for eps, group in sorted(eps_groups.items(), key=lambda kv: (kv[0] is None, kv[0])):
        tag = f"eps{eps:g}" if eps is not None else "eps"
        for log_y, suffix in ((False, ""), (True, "_log")):
            write(f"tail_{tag}{suffix}.svg",
                  reference_render_line_chart(group, f"empirical tail probability ({tag})",
                                              ylabel="tail probability", log_y=log_y))
    return written


# ---------------------------------------------------------------------------
# Reference config normalizer: the schema as it was before it became one
# table, with a hand-written normalizer per section, plus the bounds the
# builders enforced and the schema took over later (a Gaussian 's' >= 0, each
# entry of a list too; 'schedule.alpha' > 0; an ER 'p' in (0, 1]; a per-agent
# 's' list as long as 'topology.n'), and the cross-section rules added since
# (two thresholds never share a series name; 'checks.noise' at rho = 0 only;
# the descent, consensus and tracker checks at a constant step only). A
# differential test compares the table's normalizer against it on inputs both
# accept or reject.
# ---------------------------------------------------------------------------

_ALGORITHMS = ("gt_dsgd", "dsgd")


def _expect(section, data, allowed, required):
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key '{section}.{key}'")
    for key in required:
        if key not in data:
            raise ConfigError(f"missing required key '{section}.{key}'")


def _num(section, data, key, default=None, minimum=None, integer=False):
    val = data.get(key, default)
    if val is None:
        return None
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"'{section}.{key}' must be a number")
    if integer:
        if int(val) != val:
            raise ConfigError(f"'{section}.{key}' must be an integer")
        val = int(val)
    else:
        val = float(val)
    if minimum is not None and val < minimum:
        raise ConfigError(f"'{section}.{key}' must be >= {minimum}")
    return val


def _prob(section, data, key, default=None, below_one=False):
    val = _num(section, data, key, default)
    if val is not None and not (0 < val < 1 if below_one else 0 < val <= 1):
        raise ConfigError(f"'{section}.{key}' must lie in (0, 1{')' if below_one else ']'}")
    return val


def _pos(section, data, key, default=None):
    val = _num(section, data, key, default)
    if val is not None and not val > 0:
        raise ConfigError(f"'{section}.{key}' must be > 0")
    return val


def _normalize_experiment(data):
    _expect("experiment", data,
            {"name", "T", "R", "master_seed", "algorithms", "thresholds",
             "tail_statistic", "record_stride", "output_dir"},
            {"T"})
    algs = data.get("algorithms", ["gt_dsgd"])
    if not isinstance(algs, list) or not algs:
        raise ConfigError("'experiment.algorithms' must be a non-empty list")
    for a in algs:
        if a not in _ALGORITHMS:
            raise ConfigError(f"'experiment.algorithms' entry {a!r} is not one of {_ALGORITHMS}")
    thresholds = data.get("thresholds", [])
    if not isinstance(thresholds, list):
        raise ConfigError("'experiment.thresholds' must be a list")
    for eps in thresholds:
        if isinstance(eps, bool) or not isinstance(eps, (int, float)):
            raise ConfigError(f"'experiment.thresholds' entry {eps!r} is not a number")
        if not eps > 0:
            raise ConfigError(f"'experiment.thresholds' entry {eps!r} must be > 0")
    series = {}
    for eps in map(float, thresholds):
        name = f"eps{eps:g}"
        if name in series:
            raise ConfigError(f"'experiment.thresholds' entries {series[name]!r} and {eps!r} "
                              f"both name the series {name}")
        series[name] = eps
    stat = data.get("tail_statistic", "mse_to_opt")
    if stat not in ("mse_to_opt", "running_stationarity"):
        raise ConfigError("'experiment.tail_statistic' must be 'mse_to_opt' or 'running_stationarity'")
    return {
        "name": str(data.get("name", "experiment")),
        "T": _num("experiment", data, "T", minimum=0, integer=True),
        "R": _num("experiment", data, "R", default=1, minimum=1, integer=True),
        "master_seed": _num("experiment", data, "master_seed", default=0, integer=True),
        "algorithms": list(algs),
        "thresholds": [float(x) for x in thresholds],
        "tail_statistic": stat,
        # kept in the envelope's config, and no run reads it
        "record_stride": _num("experiment", data, "record_stride", default=1, minimum=0, integer=True),
        "output_dir": str(data.get("output_dir", "out")),
    }


def _normalize_topology(data):
    kind = data.get("kind")
    if kind in ("ring", "path", "complete"):
        _expect("topology", data, {"kind", "n", "seed"}, {"kind", "n"})
        return {"kind": kind,
                "n": _num("topology", data, "n", minimum=1, integer=True),
                "seed": _num("topology", data, "seed", default=0, minimum=0, integer=True)}
    if kind == "erdos_renyi":
        _expect("topology", data, {"kind", "n", "seed", "p", "target_lambda", "tol"}, {"kind", "n"})
        out = {"kind": kind,
               "n": _num("topology", data, "n", minimum=2, integer=True),
               "seed": _num("topology", data, "seed", default=0, minimum=0, integer=True),
               "p": _prob("topology", data, "p"),
               "target_lambda": _prob("topology", data, "target_lambda", below_one=True),
               "tol": _pos("topology", data, "tol", default=0.05)}
        if (out["p"] is None) == (out["target_lambda"] is None):
            raise ConfigError("'topology': erdos_renyi needs exactly one of 'p' or 'target_lambda'")
        return out
    if kind == "matrix_csv":
        _expect("topology", data, {"kind", "path"}, {"kind", "path"})
        return {"kind": kind, "path": str(data["path"])}
    raise ConfigError("'topology.kind' must be ring, path, complete, erdos_renyi, or matrix_csv")


def _normalize_cost(data):
    kind = data.get("kind")
    if kind == "quadratic_synthetic":
        _expect("cost", data, {"kind", "d", "profile", "sparsity", "mu0", "seed"}, {"kind", "d"})
        profile = data.get("profile", "a")
        if profile not in ("a", "b"):
            raise ConfigError("'cost.profile' must be 'a' or 'b'")
        return {"kind": kind,
                "d": _num("cost", data, "d", minimum=1, integer=True),
                "profile": profile,
                "sparsity": _prob("cost", data, "sparsity", default=0.1),
                "mu0": _num("cost", data, "mu0", default=0.1),
                "seed": _num("cost", data, "seed", default=0, minimum=0, integer=True)}
    if kind == "logistic_libsvm":
        _expect("cost", data, {"kind", "path", "eta", "normalize", "split_seed"}, {"kind", "path"})
        return {"kind": kind,
                "path": str(data["path"]),
                "eta": _num("cost", data, "eta", default=0.1, minimum=0.0),
                "normalize": bool(data.get("normalize", False)),
                "split_seed": _num("cost", data, "split_seed", default=0, minimum=0, integer=True)}
    if kind == "quadratic_json":
        _expect("cost", data, {"kind", "path"}, {"kind", "path"})
        return {"kind": kind, "path": str(data["path"])}
    raise ConfigError("'cost.kind' must be quadratic_synthetic, logistic_libsvm, or quadratic_json")


def _normalize_oracle(data):
    flavor = data.get("flavor")
    if flavor == "gaussian":
        _expect("oracle", data, {"flavor", "s"}, {"flavor"})
        s = data.get("s", 1.0)
        if isinstance(s, list):
            for v in s:
                if v < 0:
                    raise ConfigError(f"'oracle.s' entry {v!r} must be >= 0.0")
            s = [float(v) for v in s]
        else:
            s = _num("oracle", data, "s", default=1.0, minimum=0.0)
        return {"flavor": flavor, "s": s}
    if flavor == "minibatch":
        _expect("oracle", data, {"flavor", "batch_size"}, {"flavor"})
        return {"flavor": flavor,
                "batch_size": _num("oracle", data, "batch_size", default=1, minimum=1, integer=True)}
    if flavor == "relaxed_subgaussian":
        _expect("oracle", data, {"flavor", "s", "rho", "eps_exponent"}, {"flavor"})
        return {"flavor": flavor,
                "s": _num("oracle", data, "s", default=1.0, minimum=0.0),
                "rho": _num("oracle", data, "rho", default=0.0, minimum=0.0),
                "eps_exponent": _pos("oracle", data, "eps_exponent", default=1.0)}
    raise ConfigError("'oracle.flavor' must be gaussian, minibatch, or relaxed_subgaussian")


def _normalize_schedule(data):
    kind = data.get("kind")
    if kind == "constant":
        _expect("schedule", data, {"kind", "alpha"}, {"kind", "alpha"})
        return {"kind": kind, "alpha": _pos("schedule", data, "alpha")}
    if kind == "inverse_time":
        _expect("schedule", data, {"kind", "a", "mu", "t0"}, {"kind"})
        return {"kind": kind,
                "a": _pos("schedule", data, "a", default=1.0),
                "mu": _pos("schedule", data, "mu", default=1.0),
                "t0": _num("schedule", data, "t0", default=1.0, minimum=0.0)}
    raise ConfigError("'schedule.kind' must be constant or inverse_time")


def _normalize_init(data):
    kind = data.get("kind", "zeros")
    if kind == "zeros":
        _expect("init", data, {"kind"}, set())
        return {"kind": "zeros"}
    if kind == "gaussian":
        _expect("init", data, {"kind", "scale", "seed"}, set())
        return {"kind": "gaussian",
                "scale": _num("init", data, "scale", default=1.0),
                "seed": _num("init", data, "seed", default=0, minimum=0, integer=True)}
    raise ConfigError("'init.kind' must be zeros or gaussian")


_TRAJECTORY_CHECKS = ("descent", "descent_pl", "consensus", "tracker")


def _normalize_checks(data):
    _expect("checks", data,
            {"runs", "descent", "descent_pl", "consensus", "tracker",
             "noise", "noise_samples"},
            set())
    return {
        "runs": _num("checks", data, "runs", default=20, minimum=1, integer=True),
        "descent": bool(data.get("descent", False)),
        "descent_pl": bool(data.get("descent_pl", False)),
        "consensus": bool(data.get("consensus", False)),
        "tracker": bool(data.get("tracker", False)),
        "noise": bool(data.get("noise", False)),
        "noise_samples": _num("checks", data, "noise_samples", default=100_000,
                              minimum=100_000, integer=True),
    }


def reference_normalize_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a table/object")
    known = {"experiment", "topology", "cost", "oracle", "schedule", "init", "checks"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown section '{key}'")
    for key in ("experiment", "topology", "cost", "oracle", "schedule"):
        if key not in raw:
            raise ConfigError(f"missing required section '{key}'")
    data = {
        "experiment": _normalize_experiment(raw["experiment"]),
        "topology": _normalize_topology(raw["topology"]),
        "cost": _normalize_cost(raw["cost"]),
        "oracle": _normalize_oracle(raw["oracle"]),
        "schedule": _normalize_schedule(raw["schedule"]),
        "init": _normalize_init(raw.get("init", {})),
        "checks": _normalize_checks(raw.get("checks", {})),
    }
    s, n = data["oracle"].get("s"), data["topology"].get("n")
    if isinstance(s, list) and n is not None and len(s) != n:
        raise ConfigError(f"'oracle.s' lists {len(s)} per-agent scales but 'topology.n' is {n}")
    if data["cost"].get("profile") == "b" and n is not None and n % 5:
        raise ConfigError(f"'cost.profile' b needs a multiple of 5 agents but 'topology.n' is {n}")
    if data["experiment"]["T"] < 1 and any(data["checks"][k] for k in _TRAJECTORY_CHECKS):
        raise ConfigError("'experiment.T' must be >= 1 when a trajectory check is enabled")
    if data["checks"]["noise"] and data["oracle"]["flavor"] == "minibatch":
        raise ConfigError("'checks.noise' needs a Gaussian or relaxed_subgaussian oracle, "
                          "not the minibatch flavor")
    if data["checks"]["noise"] and data["oracle"]["flavor"] == "relaxed_subgaussian" \
            and data["oracle"]["rho"] != 0.0:
        raise ConfigError(f"'checks.noise' compares with closed forms that need 'oracle.rho' = 0, "
                          f"not {data['oracle']['rho']}")
    if data["schedule"]["kind"] == "inverse_time":
        for k in ("descent", "consensus", "tracker"):
            if data["checks"][k]:
                raise ConfigError(f"'checks.{k}' is stated for a constant step-size, "
                                  f"but 'schedule.kind' is inverse_time")
    return ExperimentConfig(data=data)
