"""Evaluation quantities over multi-run ensembles.

Per-iteration empirical tail probabilities and mean-squared error across R
seeded repetitions, the consensus-gap reduction, transient-time calculators
(network-dependent iteration counts with hidden constants dropped), and a
log-linear tail-decay fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RunSet",
    "MetricSeries",
    "empirical_tail_probability",
    "empirical_mse",
    "consensus_gap",
    "transient_time_nonconvex",
    "transient_time_pl",
    "TailFit",
    "tail_decay_fit",
]


@dataclass
class RunSet:
    """R repetitions of one configuration: block records in run order, all
    with the same horizon T."""

    records: list

    @property
    def R(self) -> int:
        return sum(len(r.run_id) for r in self.records)

    @property
    def T(self) -> int:
        return self.records[0].T

    def __post_init__(self):
        if not self.records:
            raise ValueError("a run set needs at least one run")
        if len({r.T for r in self.records}) != 1:
            raise ValueError("all runs must share the same horizon T")


@dataclass
class MetricSeries:
    """A named per-iteration series; values[i] belongs to iteration i+1."""

    name: str
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def T(self) -> int:
        return len(self.values)


def _per_run_statistic(rs: RunSet, statistic: str) -> np.ndarray:
    """Matrix (R, T) of the requested per-iteration statistic, in run order."""
    if statistic == "mse_to_opt":
        if any(r.mse_to_opt is None for r in rs.records):
            raise ValueError("optimum unknown: mse_to_opt requires a known x*")
        return np.concatenate([r.mse_to_opt for r in rs.records])
    if statistic == "running_stationarity":
        # (1/(n t)) sum_{tau <= t} sum_i ||grad f(x_i^tau)||^2; the records
        # store the inner sum, n recovered from final_x
        n = rs.records[0].final_x.shape[-2]
        t = np.arange(1, rs.T + 1)
        sums = np.concatenate([r.stationarity_sum for r in rs.records])
        return np.cumsum(sums, axis=1) / (n * t)
    raise ValueError(f"unknown statistic {statistic!r}")


def empirical_tail_probability(rs: RunSet, statistic: str, epsilon: float) -> MetricSeries:
    """Fraction of runs whose statistic exceeds epsilon, per iteration.

    The 1/R resolution floor is reported in the metadata: probabilities below
    it are indistinguishable from zero at this run count.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    stats = _per_run_statistic(rs, statistic)
    values = (stats > epsilon).mean(axis=0)
    return MetricSeries(
        name=f"tail_{statistic}_eps{epsilon:g}",
        values=values,
        meta={"epsilon": epsilon, "statistic": statistic, "floor": 1.0 / rs.R, "R": rs.R},
    )


def empirical_mse(rs: RunSet) -> MetricSeries:
    """Squared distance to the optimum averaged over agents and runs."""
    stats = _per_run_statistic(rs, "mse_to_opt")
    return MetricSeries(name="mse", values=stats.mean(axis=0), meta={"R": rs.R})


def consensus_gap(x: np.ndarray) -> float:
    """(1/n) sum_i ||x_i - x_bar||^2 for one stack of agent models."""
    x = np.asarray(x, dtype=float)
    dev = x - x.mean(axis=0)
    return float(np.mean(np.sum(dev * dev, axis=1)))


def transient_time_nonconvex(n: int, lam: float, rho: float = 0.0, eps_exponent: float = 1.0) -> float:
    """Iterations to outgrow network effects in the non-convex regime.

    max(n^3/(1-lam^2)^8, rho^(2/eps) * n^((4+eps)/eps)); the second term
    vanishes under plain sub-Gaussian noise (rho = 0). Hidden constants are
    dropped.
    """
    if not (0.0 <= lam < 1.0):
        raise ValueError("lam must lie in [0, 1)")
    one = 1.0 - lam * lam
    first = n ** 3 / one ** 8
    if rho == 0.0:
        return first
    if eps_exponent <= 0:
        raise ValueError("eps_exponent must be > 0")
    second = rho ** (2.0 / eps_exponent) * n ** ((4.0 + eps_exponent) / eps_exponent)
    return max(first, second)


def transient_time_pl(n: int, lam: float, a: float) -> float:
    """Iterations to outgrow network effects in the PL regime.

    n^((a+2)/(a-2)) / (1-lam^2)^(4a/(a-2)); the exponents blow up as a -> 2,
    so a must exceed 2. Larger a pushes the value toward n/(1-lam^2)^4.
    """
    if a <= 2:
        raise ValueError("a must be > 2 (exponents diverge at a = 2)")
    if not (0.0 <= lam < 1.0):
        raise ValueError("lam must lie in [0, 1)")
    one = 1.0 - lam * lam
    return n ** ((a + 2.0) / (a - 2.0)) / one ** (4.0 * a / (a - 2.0))


@dataclass(frozen=True)
class TailFit:
    slope: float
    intercept: float
    r_squared: float
    window: tuple  # (t_lo, t_hi)


def default_fit_window(series: MetricSeries) -> tuple:
    """Window from the first drop below 0.9 to just before the first touch of
    the 1/R floor at or after it; a drop onto the floor gives the one point
    of the drop. So no window of more than one point holds a value at or
    below the floor."""
    v = series.values
    floor = series.meta.get("floor", 0.0)
    below = np.nonzero(v < 0.9)[0]
    t_lo = int(below[0]) + 1 if len(below) else 1
    hit = np.nonzero(v[t_lo - 1:] <= floor)[0]
    t_hi = t_lo - 1 + int(hit[0]) if len(hit) else series.T
    return (t_lo, max(t_hi, t_lo))


def tail_decay_fit(series: MetricSeries) -> TailFit:
    """Least squares of log(values) against t on the window of
    :func:`default_fit_window`; fewer than 5 points there is an error (a tail
    probability at the resolution floor carries no slope information).
    """
    t_lo, t_hi = default_fit_window(series)
    v = series.values[t_lo - 1:t_hi]
    t = np.arange(t_lo, t_hi + 1, dtype=float)
    if len(v) < 5:
        raise ValueError("insufficient tail data: fewer than 5 positive points in window")
    logv = np.log(v)
    slope, intercept = np.polyfit(t, logv, 1)
    pred = slope * t + intercept
    ss_res = float(np.sum((logv - pred) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return TailFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        window=(t_lo, t_hi),
    )
