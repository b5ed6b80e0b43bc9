"""Decentralized SGD trajectories, with and without gradient tracking.

Both methods use the adapt-then-combine form. With a mixing matrix W, oracle
output g_i^t at the current models, and step-size alpha_t:

- tracked:  y^t = W (y^{t-1} + g^t - g^{t-1}),  x^{t+1} = W (x^t - alpha_t y^t)
- vanilla:  x^{t+1} = W (x^t - alpha_t g^t)

with y^0 = g^0 = 0. The tracker mean equals the gradient mean at every
iteration, so the averaged model always follows x_bar^{t+1} = x_bar^t -
alpha_t g_bar^t. Runs are pure functions of (config, seed, run_id).

This module also hosts the step-size calculators: the fixed-step cap for the
non-convex regime and the schedule offset floor for the PL regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import noise
from .noise import prepare_sampler

__all__ = [
    "RunAbort",
    "ConstantStep",
    "InverseTimeStep",
    "TrajectoryRecord",
    "RunConfig",
    "run",
    "StepCapResult",
    "nonconvex_step_cap",
    "T0Result",
    "pl_t0_floor",
]


class RunAbort(RuntimeError):
    """A trajectory produced a non-finite update; carries (iteration, agent).

    ``run_id`` is None unless a caller that steps one run at a time sets it.
    """

    run_id = None

    def __init__(self, iteration: int, agent: int, what: str):
        super().__init__(f"non-finite {what} at iteration {iteration}, agent {agent}")
        self.iteration = iteration
        self.agent = agent


@dataclass(frozen=True)
class ConstantStep:
    alpha: float
    kind = "constant"

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("step-size must be positive")

    def value(self, t: int) -> float:
        return self.alpha


@dataclass(frozen=True)
class InverseTimeStep:
    """alpha_t = a / (mu * (t + t0)); the schedule used for PL-type costs."""

    a: float
    mu: float = 1.0
    t0: float = 0.0
    kind = "inverse_time"

    def __post_init__(self):
        if self.a <= 0 or self.mu <= 0:
            raise ValueError("a and mu must be positive")
        if self.t0 < 0 or 1.0 + self.t0 <= 0:
            raise ValueError("t0 must keep t + t0 positive for t >= 1")

    def value(self, t: int) -> float:
        return self.a / (self.mu * (t + self.t0))


def _raise_nonfinite(t, stages):
    """Raise RunAbort for the first run, then the first stage of that run,
    holding a non-finite entry, if any. Stages are (name, (B, n, d) array)."""
    bad = [(what, ~np.isfinite(arr)) for what, arr in stages if arr is not None]
    for b in range(len(bad[0][1])):
        for what, mask in bad:
            if mask[b].any():
                raise RunAbort(t, int(np.argwhere(mask[b])[0][0]), what)


@dataclass
class TrajectoryRecord:
    """Per-iteration metrics of one run, or of a block of runs; optional raw
    traces for checks and optional model snapshots.

    Metric arrays are indexed by iteration 1..T (position t-1). When traces
    are recorded, ``x_hist`` has T+1 entries (models at t = 1..T+1) while
    ``y_hist``/``g_hist``/``z_hist`` have T (values produced at t = 1..T).
    ``snapshots`` maps t to a copy of the models at t, and is empty unless
    ``RunConfig.record_stride`` asks for them. A block record holds tuples in
    ``seed`` and ``run_id`` and a leading run axis on every per-run array,
    and its snapshots map t to (B, n, d); ``split`` gives its runs. ``alpha``
    is shared by all runs.
    """

    algorithm: str
    seed: int
    run_id: int
    T: int
    alpha: np.ndarray
    f_avg: np.ndarray
    mse_to_opt: np.ndarray
    consensus_gap: np.ndarray
    tracker_gap: np.ndarray
    stationarity_sum: np.ndarray
    final_x: np.ndarray
    snapshots: dict = field(default_factory=dict)
    x_hist: Optional[np.ndarray] = None
    y_hist: Optional[np.ndarray] = None
    g_hist: Optional[np.ndarray] = None
    z_hist: Optional[np.ndarray] = None

    def max_tracker_mean_residual(self) -> float:
        """Worst || y_bar^t - g_bar^t || over the recorded trace."""
        if self.y_hist is None:
            raise ValueError("traces were not recorded")
        res = np.linalg.norm(self.y_hist.mean(axis=1) - self.g_hist.mean(axis=1), axis=1)
        return float(res.max()) if len(res) else 0.0

    def split(self) -> list:
        """The per-run records of a block record, as views into its arrays;
        a one-run record is returned alone."""
        if not isinstance(self.run_id, tuple):
            return [self]
        return [
            replace(self, seed=seed, run_id=run_id,
                    snapshots={t: v[b] for t, v in self.snapshots.items()},
                    **{k: None if getattr(self, k) is None else getattr(self, k)[b]
                       for k in _PER_RUN})
            for b, (seed, run_id) in enumerate(zip(self.seed, self.run_id))
        ]


_PER_RUN = ("f_avg", "mse_to_opt", "consensus_gap", "tracker_gap", "stationarity_sum",
            "final_x", "x_hist", "y_hist", "g_hist", "z_hist")


@dataclass
class RunConfig:
    """Everything one seeded run needs; shared across the run set."""

    w: object               # MixingMatrix
    ensemble: object        # CostEnsemble
    oracle: object          # OracleSpec
    schedule: object        # step schedule
    T: int
    x0: np.ndarray          # (n, d) initial models
    record_stride: int = 0  # k > 0: snapshot the models at t = 1, 1+k, ...; 0: none
    record_trace: bool = False


# iterations whose metrics are reduced together, in one pass over a block;
# it equals the noise chunk, so a metric block never straddles two draws
_BLOCK = noise.CHUNK


def run(algorithm: str, config: RunConfig, seed, run_id) -> TrajectoryRecord:
    """Execute T iterations, recording metrics each iteration.

    ``seed`` and ``run_id`` are ints for one run, or equal-length sequences
    for a block of B runs stepped together as one (B, n, d) state; a block
    returns one record with a leading run axis (see TrajectoryRecord). Each
    run is deterministic in (config, seed, run_id) and bitwise the same
    alone or in any block, on any worker. The loop carries only the dynamics
    and copies each iteration's models (and trackers) into a block buffer;
    the metrics of a block are reduced in one pass.
    """
    if algorithm not in ("gt_dsgd", "dsgd"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    single = isinstance(run_id, (int, np.integer))
    seeds = (int(seed),) if single else tuple(int(s) for s in seed)
    run_ids = (int(run_id),) if single else tuple(int(r) for r in run_id)
    if len(seeds) != len(run_ids) or not seeds:
        raise ValueError("seed and run_id must name the same, non-empty set of runs")
    tracked = algorithm == "gt_dsgd"
    e = config.ensemble
    n, d = config.x0.shape
    B = len(seeds)
    T = int(config.T)
    opt = e.optimum()
    x_star = opt[0] if opt is not None else None
    trace = config.record_trace
    if config.record_stride < 0:
        raise ValueError("record_stride must be >= 0")
    stride = 0 if trace else config.record_stride
    sched = config.schedule
    alphas = [sched.value(t) for t in range(1, T + 1)]

    f_avg = np.empty((B, T))
    mse = np.full((B, T), np.nan)
    cons = np.empty((B, T))
    track = np.zeros((B, T))
    statio = np.empty((B, T))
    snapshots = {}
    # with traces on, the trace arrays are the block buffers
    if trace:
        xs = np.empty((B, T + 1, n, d))
        ys = np.zeros((B, T, n, d))
        g_hist = np.empty((B, T, n, d))
        z_hist = np.empty((B, T, n, d))
    else:
        xs = np.empty((B, min(T, _BLOCK), n, d))
        ys = np.empty_like(xs) if tracked else None

    sampler = prepare_sampler(config.oracle, e, seeds, run_ids, T)
    wm = config.w.w
    inv_n = 1.0 / n

    x = np.repeat(np.asarray(config.x0, dtype=float)[None], B, axis=0)
    y = np.zeros((B, n, d))
    g_prev = np.zeros((B, n, d))
    # overflow is handled by the explicit non-finite abort, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(1, T + 1, _BLOCK):
            t1 = min(t0 + _BLOCK, T + 1)
            m = t1 - t0
            lo = t0 - 1 if trace else 0
            xb = xs[:, lo:lo + m]
            for k, t in enumerate(range(t0, t1)):
                alpha = alphas[t - 1]
                xb[:, k] = x
                g, exact = sampler(x, t, alpha)
                if tracked:
                    y = wm @ (y + g - g_prev)
                    x = wm @ (x - alpha * y)
                    ys[:, lo + k] = y
                else:
                    x = wm @ (x - alpha * g)
                # Every column of a doubly stochastic W has a positive entry,
                # so a non-finite oracle output or tracker reaches the model:
                # one check covers all three stages, named on failure. A sum
                # that overflows over finite entries is not a failure.
                if not math.isfinite(x.sum()):
                    _raise_nonfinite(t, (("oracle output", g),
                                         ("tracker update", y if tracked else None),
                                         ("model update", x)))
                g_prev = g
                if trace:
                    g_hist[:, t - 1] = g
                    z_hist[:, t - 1] = g - (e.grad_all(xb[:, k]) if exact is None else exact)

            span = slice(t0 - 1, t1 - 1)
            xbar = xb.sum(axis=2) * inv_n
            f_avg[:, span] = e.value_global(xbar)
            if x_star is not None:
                diff = xb - x_star
                mse[:, span] = (diff * diff).reshape(B, m, -1).sum(axis=2) * inv_n
            dev = xb - xbar[:, :, None, :]
            cons[:, span] = (dev * dev).reshape(B, m, -1).sum(axis=2) * inv_n
            if tracked:
                yb = ys[:, lo:lo + m]
                ydev = yb - (yb.sum(axis=2) * inv_n)[:, :, None, :]
                track[:, span] = (ydev * ydev).reshape(B, m, -1).sum(axis=2) * inv_n
            gg = e.grad_global_all(xb)
            statio[:, span] = (gg * gg).reshape(B, m, -1).sum(axis=2)
            if stride:
                first = -(t0 - 1) % stride
                snaps = xb[:, first::stride].swapaxes(0, 1).copy()
                snapshots.update(zip(range(t0 + first, t1, stride), snaps))

    if trace:
        xs[:, T] = x

    rec = TrajectoryRecord(
        algorithm=algorithm,
        seed=seeds,
        run_id=run_ids,
        T=T,
        alpha=np.array(alphas, dtype=float),
        f_avg=f_avg,
        mse_to_opt=mse,
        consensus_gap=cons,
        tracker_gap=track,
        stationarity_sum=statio,
        final_x=x.copy(),
        snapshots=snapshots,
        x_hist=xs if trace else None,
        y_hist=ys if trace else None,
        g_hist=g_hist if trace else None,
        z_hist=z_hist if trace else None,
    )
    return rec.split()[0] if single else rec


# ---------------------------------------------------------------------------
# Step-size calculators (advisory; experiments may override)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepCapResult:
    alpha: float        # recommended min(sqrt(n/T), cap)
    cap: float          # the problem-constant cap C
    terms: dict         # per-term breakdown; inf marks a non-binding term


def _inv_or_inf(num, den):
    return num / den if den > 0 else math.inf


def nonconvex_step_cap(
    n: int,
    T: int,
    L: float,
    lam: float,
    sigma_sq: float,
    sigma_max_sq: float,
    d: int,
    rho: float = 0.0,
    eps_exponent: float = 1.0,
) -> StepCapResult:
    """Fixed-step cap for the non-convex regime: every term of the min.

    Terms whose denominator vanishes (lam = 0, rho = 0, or zero noise) are
    reported as +inf and never bind. Recommended alpha is min(sqrt(n/T), cap).
    """
    if L <= 0:
        raise ValueError("L must be positive")
    if not (0.0 <= lam < 1.0):
        raise ValueError("lam must lie in [0, 1)")
    one = 1.0 - lam * lam
    sigma = math.sqrt(sigma_sq)
    terms = {
        "consensus": _inv_or_inf(one ** 2, 16.0 * lam * lam * L * math.sqrt(3.0)),
        "mixing_sqrt4": _inv_or_inf(one, 4.0 * lam * L * 12.0 ** 0.25),
        "mixing_cbrt": _inv_or_inf(one ** (4.0 / 3.0), 4.0 * lam ** (4.0 / 3.0) * L * 12.0 ** (1.0 / 3.0)),
        "mixing_noise": _inv_or_inf(
            n ** (1.0 / 3.0) * one ** (4.0 / 3.0),
            lam ** (4.0 / 3.0) * sigma_max_sq ** (1.0 / 3.0) * L ** (2.0 / 3.0) * 1614.0 ** (1.0 / 3.0),
        ),
        "smoothness": 1.0 / (4.0 * L),
        "noise_dimension": (
            (n / (9.0 * sigma_sq)) * math.sqrt(n / (282.0 * math.e * sigma_sq * d * L))
            if sigma_sq > 0 else math.inf
        ),
        "relaxed_ratio": _inv_or_inf(sigma * math.sqrt(32.0), rho),
        "relaxed_root": (
            (1.0 / (16.0 * n * rho * rho)) ** (1.0 / (1.0 + eps_exponent))
            if rho > 0 else math.inf
        ),
    }
    cap = min(terms.values())
    alpha = min(math.sqrt(n / T), cap) if T > 0 else cap
    return StepCapResult(alpha=alpha, cap=cap, terms=terms)


@dataclass(frozen=True)
class T0Result:
    t0: float
    terms: dict


def pl_t0_floor(
    n: int,
    lam: float,
    a: float,
    L: float,
    mu: float,
    sigma_sq: float,
    sigma_max_sq: float,
    rho: float = 0.0,
    eps_exponent: float = 1.0,
) -> T0Result:
    """Schedule offset floor for alpha_t = a/(mu (t + t0)) in the PL regime.

    Evaluates every term of the max. Terms carrying rho vanish at rho = 0;
    terms multiplied by lam vanish at lam = 0. Requires a >= 6.
    """
    if a < 6:
        raise ValueError("the schedule constant a must be >= 6")
    if mu <= 0 or L <= 0:
        raise ValueError("mu and L must be positive")
    if not (0.0 <= lam < 1.0):
        raise ValueError("lam must lie in [0, 1)")
    kappa = L / mu
    one = 1.0 - lam * lam
    sigma = math.sqrt(sigma_sq)
    sigma_max = math.sqrt(sigma_max_sq)
    eps = eps_exponent

    if rho > 0:
        relaxed_a = (a / mu) * (12.0 * rho * rho * L) ** (1.0 / (4.0 + 2.0 * eps))
        relaxed_b = (a / mu) * (18.0 * rho * rho * L * L) ** (1.0 / (5.0 + 2.0 * eps))
        inv32 = (
            (1.0 / (32.0 * sigma_sq)) ** (1.0 / (2.0 + eps)) if sigma_sq > 0 else math.inf
        )
        relaxed_c = (a / mu) * rho ** (1.0 / (2.0 + eps)) * max(
            sigma_max ** (2.0 / (2.0 + eps)), inv32
        )
        relaxed_d = (a / mu) * (4.0 * n * rho) ** (1.0 / (1.0 + eps)) * max(
            1.0, (1.0 / mu) ** (1.0 / (1.0 + eps)), (4.0 * kappa) ** (1.0 / (1.0 + eps))
        )
    else:
        relaxed_a = relaxed_b = relaxed_c = relaxed_d = 0.0

    terms = {
        "mixing": 12.0 / one,
        "network_curvature": 64.0 * n * a ** 3 * kappa ** 3 * lam * lam * L / one ** 4,
        "noise_fourth": 9216.0 * sigma_max_sq ** 2 * lam ** 4 / (n * n),
        "curvature_quartic": 576.0 * a ** 4 * kappa ** 2 / (mu * mu),
        "noise_curvature": 384.0 * a * a * sigma_sq * kappa / mu,
        "relaxed_a": relaxed_a,
        "relaxed_b": relaxed_b,
        "condition": 2.0 * a * kappa,
        "curvature_linear": 6.0 * a / mu,
        "noise_scale": (2.0 * a * math.sqrt(L) / (mu * math.sqrt(n))) * max(
            4.0 * sigma * math.sqrt(3.0),
            3.0 * math.sqrt(2.0 * L),
            48.0 * sigma * lam * math.sqrt(3.0 * L),
        ),
        "relaxed_c": relaxed_c,
        "relaxed_d": relaxed_d,
        "condition_mixing": 2.0 * a * kappa * max(3.0 * L, 640.0 * lam * lam),
        "mixing_condition": (
            (2.0 * a * lam * kappa * math.sqrt(3.0) / one ** 2) * max(
                math.sqrt(kappa), 8.0 * lam * L * math.sqrt(5.0)
            )
        ),
    }
    return T0Result(t0=max(terms.values()), terms=terms)
