"""Trajectory-level inequality checks.

Four descent/consensus inequalities hold pathwise (deterministically, given
the realized noise trace) whenever their step-size caps are respected; any
slack below -1e-9 is a build bug, not statistical variation. The noise
property checks are Monte-Carlo and pass at three standard errors.

All checks are pure functions of recorded traces: re-running on the same
trajectories yields identical reports. A trajectory check takes a block
record (see ``algorithms.run``) and computes the slack of every (run, t) at
once, with the same floating-point operations per run in any block.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .noise import calibrate_sigma, capped_exp_mean, noise_samples

__all__ = [
    "SLACK_TOL",
    "CheckReport",
    "merge_reports",
    "check_descent",
    "check_descent_pl",
    "check_consensus_bound",
    "check_tracker_recursion",
    "check_noise_properties",
    "descent_step_cap",
    "descent_pl_step_cap",
    "consensus_step_cap",
    "tracker_step_cap",
]

SLACK_TOL = -1e-9


@dataclass
class CheckReport:
    """Outcome of one check: worst signed slack, negative means violation.

    ``worst_at`` is the (run, t) of the worst slack, or None where there is
    no trajectory; ``runs`` counts the trajectories the report covers.
    """

    name: str
    instances: int
    worst_slack: float
    violations: list = field(default_factory=list)
    deterministic: bool = True
    details: dict = field(default_factory=dict)
    worst_at: tuple | None = None
    runs: int = 1

    @property
    def passed(self) -> bool:
        return self.worst_slack >= SLACK_TOL

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        where = "" if self.worst_at is None else " at run {}, t {}".format(*self.worst_at)
        return (
            f"{self.name}: {status} ({self.instances} instances, "
            f"worst slack {self.worst_slack:.3e}{where})"
        )


def merge_reports(name: str, reports) -> CheckReport:
    """Combine reports of the same check on disjoint runs into one."""
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to merge")
    worst = min(reports, key=lambda r: r.worst_slack)
    runs = sum(r.runs for r in reports)
    return CheckReport(
        name=name,
        instances=sum(r.instances for r in reports),
        worst_slack=worst.worst_slack,
        violations=[v for r in reports for v in r.violations],
        deterministic=all(r.deterministic for r in reports),
        details={"runs": runs},
        worst_at=worst.worst_at,
        runs=runs,
    )


def _traces(rec):
    """The (x, y, g, z) traces of a block record, each with a leading run axis."""
    if rec.x_hist is None or rec.z_hist is None:
        raise ValueError("this check needs a trajectory recorded with traces enabled")
    if rec.T < 1:
        raise ValueError("this check needs a trajectory of at least one iteration")
    return rec.x_hist, rec.y_hist, rec.g_hist, rec.z_hist


def _constant_alpha(rec) -> float:
    alpha = float(rec.alpha[0])
    if np.max(np.abs(rec.alpha - alpha)) > 1e-15:
        raise ValueError("this check is stated for a constant step-size")
    return alpha


def descent_step_cap(L: float) -> float:
    return 1.0 / (4.0 * L)


def descent_pl_step_cap(L: float) -> float:
    return 1.0 / (2.0 * L)


def consensus_step_cap(lam: float, L: float) -> float:
    if lam == 0.0:
        return math.inf
    return (1.0 - lam * lam) ** 2 / (16.0 * lam * lam * L * math.sqrt(3.0))


def tracker_step_cap(lam: float, L: float) -> float:
    if lam == 0.0:
        return math.inf
    return (1.0 - lam * lam) ** 1.5 / (4.0 * lam * lam * L * math.sqrt(6.0))


# The helpers below reduce whole stacks with the same floating-point
# operations as one call per point would do, so each run's slacks are
# bitwise the same in any block.

def _sqnorm(v, axes: int) -> np.ndarray:
    """Squared norm over the trailing ``axes`` axes."""
    sq = v * v
    return sq.reshape(sq.shape[:-axes] + (math.prod(sq.shape[-axes:]),)).sum(axis=-1)


def _dev(v) -> np.ndarray:
    """Each agent's row minus the agent mean, for stacks of (n, d) arrays."""
    return v - v.mean(axis=-2, keepdims=True)


def _dot(a, b) -> np.ndarray:
    """Inner products of the trailing vectors, one BLAS dot per pair."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _report(name, slack, labels, t_first, details=None) -> CheckReport:
    """Report on a (runs, K) slack array whose row r is run ``labels[r]`` and
    whose column k is iteration t_first + k."""
    runs = len(labels)
    if slack.size == 0:
        return CheckReport(name, 0, 0.0, runs=runs)
    b, k = np.unravel_index(np.argmin(slack), slack.shape)
    return CheckReport(
        name,
        instances=slack.size,
        worst_slack=float(slack[b, k]),
        violations=[(labels[r], t_first + int(j)) for r, j in np.argwhere(slack < SLACK_TOL)],
        details=details or {},
        worst_at=(labels[b], t_first + int(k)),
        runs=runs,
    )


def check_descent(rec, e) -> CheckReport:
    """Per-iteration descent inequality for the averaged model, fixed step.

    With alpha <= 1/(4L), for every t:

        f(xbar^{t+1}) <= f(xbar^t) - (alpha/2) ||grad f(xbar^t)||^2
                         - alpha <grad f(xbar^t), zbar^t> + alpha^2 L ||zbar^t||^2
                         + (alpha L^2 / 2n) sum_i ||x_i^t - xbar^t||^2
                         - (alpha/4) ||gbar_exact^t||^2
    """
    xs, _, gs, zs = _traces(rec)
    alpha = _constant_alpha(rec)
    L = e.smoothness()
    if alpha > descent_step_cap(L) * (1 + 1e-12):
        raise ValueError(f"alpha {alpha} exceeds the cap 1/(4L) = {descent_step_cap(L)}")
    n = xs.shape[-2]
    xbar = xs.mean(axis=-2)
    f = e.value_global(xbar)
    grad_bar = e.grad_global(xbar[:, :-1])
    zbar = zs.mean(axis=-2)
    exact_bar = (gs - zs).mean(axis=-2)
    gap = _sqnorm(_dev(xs[:, :-1]), 2)
    rhs = (
        f[:, :-1]
        - 0.5 * alpha * _sqnorm(grad_bar, 1)
        - alpha * _dot(grad_bar, zbar)
        + alpha * alpha * L * _sqnorm(zbar, 1)
        + alpha * L * L / (2.0 * n) * gap
        - 0.25 * alpha * _sqnorm(exact_bar, 1)
    )
    return _report("descent", rhs - f[:, 1:], rec.run_id, 1)


def check_descent_pl(rec, e) -> CheckReport:
    """Descent inequality with the (1 - alpha_t mu) contraction, PL costs.

    Needs alpha_t <= 1/(2L) for all recorded t and a known PL constant mu.
    """
    xs, _, _, zs = _traces(rec)
    L = e.smoothness()
    mu = e.pl_constant()
    if mu is None:
        raise ValueError("PL descent check needs an ensemble with a known mu")
    if np.max(rec.alpha) > descent_pl_step_cap(L) * (1 + 1e-12):
        raise ValueError("some alpha_t exceeds the cap 1/(2L)")
    _, f_star = e.optimum()
    alpha = rec.alpha
    n = xs.shape[-2]
    xbar = xs.mean(axis=-2)
    f = e.value_global(xbar)
    grad_bar = e.grad_global(xbar[:, :-1])
    zbar = zs.mean(axis=-2)
    gap = _sqnorm(_dev(xs[:, :-1]), 2)
    rhs = (
        (1.0 - alpha * mu) * (f[:, :-1] - f_star)
        - alpha * _dot(grad_bar, zbar)
        + alpha * alpha * L * _sqnorm(zbar, 1)
        + alpha * L * L / (2.0 * n) * gap
    )
    return _report("descent_pl", rhs - (f[:, 1:] - f_star), rec.run_id, 1)


def check_consensus_bound(rec, w, e) -> CheckReport:
    """Summed consensus-gap bound over the horizon, fixed step.

    With alpha <= (1-lam^2)^2 / (16 lam^2 L sqrt(3)):

        (1/n) sum_t sum_i ||x_i^t - xbar^t||^2
          <= 4 Dx / (1-lam^2)
           + 32 alpha^2 lam^2 / (n (1-lam^2)^3) * sum_i ||y_i^1 - ybar^1||^2
           + 512 alpha^2 lam^4 / (n (1-lam^2)^4) * sum_t sum_i ||z_i^t||^2
           + 768 alpha^4 lam^4 L^2 / (1-lam^2)^4 * sum_t (||gbar_exact^t||^2 + ||zbar^t||^2)

    where Dx is the initial consensus gap. All right-hand quantities come from
    the same recorded trajectory. One instance per run, at t = T; the sums
    over t add one term at a time. ``details`` holds both sides, one entry
    per run.
    """
    xs, ys, gs, zs = _traces(rec)
    alpha = _constant_alpha(rec)
    L = e.smoothness()
    lam = float(w.lam)
    cap = consensus_step_cap(lam, L)
    if alpha > cap * (1 + 1e-12):
        raise ValueError(f"alpha {alpha} exceeds the consensus cap {cap}")
    one = 1.0 - lam * lam
    n = xs.shape[-2]

    gaps = _sqnorm(_dev(xs[:, :-1]), 2) / n
    lhs = np.cumsum(gaps, axis=-1)[:, -1]
    sum_z_sq = np.cumsum(_sqnorm(zs, 2), axis=-1)[:, -1]
    exact_bar = (gs - zs).mean(axis=-2)
    sum_avg_sq = np.cumsum(_sqnorm(exact_bar, 1) + _sqnorm(zs.mean(axis=-2), 1), axis=-1)[:, -1]
    delta_x = gaps[:, 0]
    y1_gap = _sqnorm(_dev(ys[:, 0]), 2)
    rhs = (
        4.0 * delta_x / one
        + 32.0 * alpha * alpha * lam * lam / (n * one ** 3) * y1_gap
        + 512.0 * alpha ** 2 * lam ** 4 / (n * one ** 4) * sum_z_sq
        + 768.0 * alpha ** 4 * lam ** 4 * L * L / one ** 4 * sum_avg_sq
    )
    details = {"lhs": lhs.tolist(), "rhs": rhs.tolist()}
    return _report("consensus_bound", (rhs - lhs)[:, None], rec.run_id, rec.T, details)


def check_tracker_recursion(rec, w, e) -> CheckReport:
    """One-step tracker-gap recursion, fixed step.

    With alpha <= (1-lam^2)^(3/2) / (4 lam^2 L sqrt(6)), for every t < T:

        ||y^{t+1} - ybar^{t+1}||^2 <= (3+lam^2)/4 ||y^t - ybar^t||^2
          + 24 lam^2 L^2/(1-lam^2) ||x^t - xbar^t||^2
          + 4 lam^2/(1-lam^2) ||z^{t+1} - z^t||^2
          + 12 alpha^2 lam^2 L^2/(1-lam^2) * n ||gbar^t||^2

    (stacked norms over agents; gbar is the mean oracle output). With T = 1
    there is no instance and the worst slack is 0.
    """
    xs, ys, gs, zs = _traces(rec)
    alpha = _constant_alpha(rec)
    L = e.smoothness()
    lam = float(w.lam)
    cap = tracker_step_cap(lam, L)
    if alpha > cap * (1 + 1e-12):
        raise ValueError(f"alpha {alpha} exceeds the tracker cap {cap}")
    one = 1.0 - lam * lam
    n = xs.shape[-2]
    y_gap = _sqnorm(_dev(ys), 2)
    rhs = (
        (3.0 + lam * lam) / 4.0 * y_gap[:, :-1]
        + 24.0 * lam * lam * L * L / one * _sqnorm(_dev(xs[:, :rec.T - 1]), 2)
        + 4.0 * lam * lam / one * _sqnorm(zs[:, 1:] - zs[:, :-1], 2)
        + 12.0 * alpha * alpha * lam * lam * L * L / one * n * _sqnorm(gs[:, :-1].mean(axis=-2), 1)
    )
    return _report("tracker_recursion", rhs - y_gap[:, 1:], rec.run_id, 1)


def _is_count(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def check_noise_properties(
    o,
    e,
    xs,
    samples: int = 100_000,
    seed: int = 0,
    n_avg=(4, 16),
    agent: int = 0,
) -> CheckReport:
    """Monte-Carlo noise checks against the closed-form sub-Gaussian bounds.

    At each grid point x (plain-Gaussian noise, so the point only matters for
    dataset-backed oracles):

    - tail:    P(||Z|| > eps) <= 2 exp(-eps^2 / (2 sigma^2)) at eps = sigma, 2 sigma, 3 sigma
    - moment:  E ||Z||^(2p)   <= (2p)^(p+1) sigma^(2p) for p = 1, 2, 3
    - average: E exp(m ||zbar||^2 / (96 sigma^2)) <= 2 d e for m in ``n_avg``

    sigma^2 is the calibrated parameter of the agent's noise. Every sub-check
    passes if the estimate stays within three standard errors of its bound;
    margins are recorded in the details.

    At most two (samples, d) arrays are alive at once: every elementwise step
    writes into an array the check already holds.
    """
    if not _is_count(samples):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 100_000:
        raise ValueError("noise property checks need at least 1e5 samples")
    if not _is_count(agent) or not 0 <= agent < e.n:
        raise ValueError(f"agent must be an agent index in [0, {e.n}), got {agent!r}")
    n_avg = tuple(n_avg)
    if not all(_is_count(m) and m >= 1 for m in n_avg):
        raise ValueError(f"n_avg must hold positive integers, got {n_avg!r}")
    xs = list(xs)
    if not xs:
        raise ValueError("xs must hold at least one grid point")
    if o.kind == "minibatch":
        raise ValueError("closed-form comparisons need a Gaussian or relaxed oracle, not mini-batch")
    if getattr(o, "rho", 0.0) != 0.0:
        raise ValueError("closed-form comparisons require the rho = 0 flavor")
    if o.kind == "gaussian":
        s = float(o.s_vector(e.n)[agent])
    else:
        s = float(o.s)
    d = e.d
    sigma_sq = calibrate_sigma(s, d)
    if sigma_sq == 0.0:
        # noiseless: every bound holds with slack equal to the bound itself
        return CheckReport("noise_properties", 1, 2.0, [], deterministic=False,
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
        z = noise_samples(o, e, agent, x, samples, seed=seed + k)
        # the row norms as np.linalg.norm takes them, squaring in place
        np.multiply(z, z, out=z)
        norms = np.add.reduce(z, axis=1)
        del z
        np.sqrt(norms, out=norms)
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
        del norms, vals
        # one running sum in draw order serves every average: the sum of the
        # first m draws, divided once by m, is bitwise the mean of the stacked
        # draws, without holding all m of them or drawing any of them twice.
        # Once summed, the draw just added makes room for zbar and its square
        total = None
        stats = {}
        for m in range(1, max(n_avg, default=0) + 1):
            z = noise_samples(o, e, agent, x, samples, seed=seed + 1000 + 17 * k + m - 1)
            if total is None:
                total = z
            else:
                total += z
            if m in n_avg:
                # the first draw is the total itself, so it gets a new array
                sq = np.divide(total, m, out=None if z is total else z)
                np.multiply(sq, sq, out=sq)
                w = np.sum(sq, axis=1)
                del sq
                w *= m
                w /= 96.0 * sigma_sq
                stats[m] = capped_exp_mean(w)
            del z
        del total
        for m in n_avg:
            est, stderr, capped = stats[m]
            bound = 2.0 * d * math.e
            record(f"avg_mgf_x{k}_n{m}", est, bound, stderr)
            if capped:
                details[f"avg_mgf_x{k}_n{m}"]["capped"] = capped

    return CheckReport(
        "noise_properties",
        instances=len(details),
        worst_slack=worst,
        violations=violations,
        deterministic=False,
        details=details,
    )
