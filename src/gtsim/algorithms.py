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
from .theorycheck import _inv_or_inf, consensus_step_cap, descent_step_cap

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
    """A run produced a non-finite update; carries (iteration, agent, stage),
    the stage being "oracle output", "tracker update" or "model update", and
    ``run_id``, which the engine sets to the id of the run that aborted."""

    def __init__(self, iteration: int, agent: int, stage: str):
        super().__init__(f"non-finite {stage} at iteration {iteration}, agent {agent}")
        self.iteration = iteration
        self.agent = agent
        self.stage = stage

    def __reduce__(self):
        # rebuilt from its arguments, so that an abort crosses a process
        # boundary with its run_id
        return (RunAbort, (self.iteration, self.agent, self.stage), self.__dict__)


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


def _raise_nonfinite(t, run_ids, stages):
    """Raise RunAbort for the first run, then the first stage of that run,
    holding a non-finite entry, if any. Stages are (name, stack) pairs, each
    stack holding run b's (n, d) arrays at b; padding slots past the runs
    are never read."""
    B = len(run_ids)
    bad = [(what, ~np.isfinite(arr[:B])) for what, arr in stages if arr is not None]
    for b, run_id in enumerate(run_ids):
        for what, mask in bad:
            if mask[b].any():
                exc = RunAbort(t, int(np.argwhere(mask[b])[0][0]), what)
                exc.run_id = run_id
                raise exc


@dataclass
class TrajectoryRecord:
    """Per-iteration metrics of a block of B runs; optional raw traces for
    checks and optional model snapshots.

    ``seed`` and ``run_id`` are B-tuples, and every per-run array has a
    leading run axis, in run order, whatever the engine's panel layout; no
    padding slot has a row. One run is the block of one. Metric arrays are (B, T),
    indexed by iteration 1..T (position t-1). When traces are recorded,
    ``x_hist`` has T+1 entries per run (models at t = 1..T+1) while
    ``y_hist``/``g_hist``/``z_hist`` have T (values produced at t = 1..T).
    ``snapshots`` maps t to a copy of the (B, n, d) models at t, and is empty
    unless ``RunConfig.record_stride`` asks for them. ``alpha`` is shared by
    all runs.
    """

    algorithm: str
    seed: tuple
    run_id: tuple
    T: int
    alpha: np.ndarray
    f_avg: np.ndarray
    mse_to_opt: np.ndarray
    stationarity_sum: np.ndarray
    final_x: np.ndarray
    snapshots: dict = field(default_factory=dict)
    x_hist: Optional[np.ndarray] = None
    y_hist: Optional[np.ndarray] = None
    g_hist: Optional[np.ndarray] = None
    z_hist: Optional[np.ndarray] = None

    def max_tracker_mean_residual(self) -> float:
        """Worst || y_bar^t - g_bar^t || over the recorded trace and the runs."""
        if self.y_hist is None:
            raise ValueError("traces were not recorded")
        res = np.linalg.norm(self.y_hist.mean(axis=-2) - self.g_hist.mean(axis=-2), axis=-1)
        return float(res.max()) if res.size else 0.0

    def split(self) -> list:
        """Each run of the block as a block of one, with views into its arrays."""
        return [
            replace(self, seed=(seed,), run_id=(run_id,),
                    snapshots={t: v[b:b + 1] for t, v in self.snapshots.items()},
                    **{k: None if getattr(self, k) is None else getattr(self, k)[b:b + 1]
                       for k in _PER_RUN})
            for b, (seed, run_id) in enumerate(zip(self.seed, self.run_id))
        ]


_PER_RUN = ("f_avg", "mse_to_opt", "stationarity_sum", "final_x", "x_hist", "y_hist", "g_hist",
            "z_hist")


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


def _sum_sq(v):
    """Sum of squares over the trailing (n, d) axes of a (B, m, n, d) array,
    squared in place."""
    np.multiply(v, v, out=v)
    return v.reshape(v.shape[0], v.shape[1], -1).sum(axis=2)


# iterations whose metrics are reduced together, in one pass over a block;
# it equals the noise chunk, so a metric block never straddles two draws
_BLOCK = noise.CHUNK


def _state(e, B):
    """A zeroed state array, its (S, n, d) stack of slots and its (S/P, n, P d)
    panels, which the mixing products take; S is B rounded up to a multiple
    of the ensemble's panel width P, and the array is ``e.slot_memory(S)``.
    At P > 1 that memory is agent-major, (n, S, d), so each panel is P slots
    of each agent's rows; one panel is given as (n, P d), a form numpy
    multiplies in half the time. At P = 1 all three are the (B, n, d) block."""
    P = e.panel_width
    S = -(-B // P) * P
    v, slots = e.slot_memory(S)
    if P == 1:
        return v, v, v
    n, d = e.n, e.d
    panels = v.reshape(n, P * d) if S == P else v.reshape(n, S // P, P * d).swapaxes(0, 1)
    return v, slots, panels


def run(algorithm: str, config: RunConfig, seeds, run_ids) -> TrajectoryRecord:
    """Execute T iterations of a block of runs, recording metrics each iteration.

    ``seeds`` and ``run_ids`` are equal-length sequences naming B runs,
    stepped together; one run is the block of one, ``run(algorithm, config,
    [seed], [run_id])``. Each run is deterministic in (config, seed, run_id)
    and bitwise the same in any block, on any worker. A non-finite update
    raises RunAbort for the first run that has one.

    The state (models, trackers, previous gradients and the update scratch)
    is a stack of slots, slot b holding run b, laid out by the ensemble's
    ``panel_width`` P. At P = 1 it is the (B, n, d) block. At P > 1 it is
    held agent-major in zero-padded panels of P runs (see ``_state``):
    ``grad_all`` gets every slot, and mixing is one (n, n) x (n, P d) product
    per panel. Padding slots are never reported and never abort a run. The
    loop carries only the dynamics and copies each iteration's models into a
    run-major (B, ...) block buffer; the metrics of a block are reduced in
    one pass. Trackers are held only as traces.
    """
    if algorithm not in ("gt_dsgd", "dsgd"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    seeds = tuple(int(s) for s in seeds)
    run_ids = tuple(int(r) for r in run_ids)
    if len(seeds) != len(run_ids) or not seeds:
        raise ValueError("seeds and run_ids must name the same, non-empty set of runs")
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

    sampler = prepare_sampler(config.oracle, e, seeds, run_ids, T)
    wm = config.w.w
    inv_n = 1.0 / n

    x, x_slots, x_panels = _state(e, B)
    x_runs = x_slots[:B]
    x_runs[...] = config.x0
    y, y_slots, y_panels = _state(e, B)
    g_prev = _state(e, B)[0]
    # the updates and the block reductions write through these, not through
    # fresh temporaries; out= performs the same operations bit for bit
    tmp, _, tmp_panels = _state(e, B)
    scratch = np.empty((B, min(T, _BLOCK), n, d))
    if trace:
        # each chunk's traces are staged in the state's slot layout, one
        # dense copy per iteration, and moved to the run-major traces once
        # per chunk
        y_stage, g_stage, z_stage = (e.slot_memory(len(x_slots), lead=(min(T, _BLOCK),))[1]
                                     for _ in range(3))
        staged = [(g_hist, g_stage), (z_hist, z_stage)] + ([(ys, y_stage)] if tracked else [])
    grads = None  # the global gradients of the block, where the sampler returns them
    # overflow is handled by the explicit non-finite abort, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(1, T + 1, _BLOCK):
            t1 = min(t0 + _BLOCK, T + 1)
            m = t1 - t0
            lo = t0 - 1 if trace else 0
            xb = xs[:, lo:lo + m]
            for k, t in enumerate(range(t0, t1)):
                alpha = alphas[t - 1]
                xb[:, k] = x_runs
                g, exact, grad_global = sampler(x_slots, t, alpha)
                if grad_global is not None:
                    if grads is None:
                        grads = np.empty_like(scratch)
                    grads[:, k] = grad_global[:B]
                g_state = e.memory_of(g)
                if tracked:
                    np.add(y, g_state, out=tmp)
                    np.subtract(tmp, g_prev, out=tmp)
                    np.matmul(wm, tmp_panels, out=y_panels)
                    step = y
                else:
                    step = g_state
                np.multiply(alpha, step, out=tmp)
                np.subtract(x, tmp, out=tmp)
                np.matmul(wm, tmp_panels, out=x_panels)
                # Every column of a doubly stochastic W has a positive entry,
                # so a non-finite oracle output or tracker reaches the model:
                # one check covers all three stages, named on failure. A sum
                # that overflows over finite entries, or a padding slot that
                # goes non-finite, is not a failure.
                if not math.isfinite(x.sum()):
                    _raise_nonfinite(t, run_ids, (("oracle output", g),
                                         ("tracker update", y_slots if tracked else None),
                                         ("model update", x_slots)))
                g_prev = g_state
                if trace:
                    if tracked:
                        y_stage[k] = y_slots
                    g_stage[k] = g
                    exact_rows = e.grad_all(xb[:, k]) if exact is None else exact[:B]
                    np.subtract(g[:B], exact_rows, out=z_stage[k, :B])

            span = slice(t0 - 1, t1 - 1)
            if trace:
                for hist, stage in staged:
                    hist[:, span] = stage[:m, :B].swapaxes(0, 1)
            xbar = xb.sum(axis=2) * inv_n
            f_avg[:, span] = e.value_global(xbar)
            sb = scratch[:, :m]
            if x_star is not None:
                mse[:, span] = _sum_sq(np.subtract(xb, x_star, out=sb)) * inv_n
            statio[:, span] = _sum_sq(e.grad_global_all(xb) if grads is None else grads[:, :m])
            if stride:
                first = -(t0 - 1) % stride
                snaps = xb[:, first::stride].swapaxes(0, 1).copy()
                snapshots.update(zip(range(t0 + first, t1, stride), snaps))

    if trace:
        xs[:, T] = x_runs

    return TrajectoryRecord(
        algorithm=algorithm,
        seed=seeds,
        run_id=run_ids,
        T=T,
        alpha=np.array(alphas, dtype=float),
        f_avg=f_avg,
        mse_to_opt=mse,
        stationarity_sum=statio,
        final_x=x_runs.copy(),
        snapshots=snapshots,
        x_hist=xs if trace else None,
        y_hist=ys if trace else None,
        g_hist=g_hist if trace else None,
        z_hist=z_hist if trace else None,
    )


# ---------------------------------------------------------------------------
# Step-size calculators (advisory; experiments may override)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepCapResult:
    alpha: float        # recommended min(sqrt(n/T), cap)
    cap: float          # the problem-constant cap C
    terms: dict         # per-term breakdown; inf marks a non-binding term


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
    reported as +inf and never bind. The "consensus" and "smoothness" terms
    are the caps that ``theorycheck`` enforces. Recommended alpha is
    min(sqrt(n/T), cap).
    """
    if L <= 0:
        raise ValueError("L must be positive")
    if not (0.0 <= lam < 1.0):
        raise ValueError("lam must lie in [0, 1)")
    one = 1.0 - lam * lam
    sigma = math.sqrt(sigma_sq)
    terms = {
        "consensus": consensus_step_cap(lam, L),
        "mixing_sqrt4": _inv_or_inf(one, 4.0 * lam * L * 12.0 ** 0.25),
        "mixing_cbrt": _inv_or_inf(one ** (4.0 / 3.0), 4.0 * lam ** (4.0 / 3.0) * L * 12.0 ** (1.0 / 3.0)),
        "mixing_noise": _inv_or_inf(
            n ** (1.0 / 3.0) * one ** (4.0 / 3.0),
            lam ** (4.0 / 3.0) * sigma_max_sq ** (1.0 / 3.0) * L ** (2.0 / 3.0) * 1614.0 ** (1.0 / 3.0),
        ),
        "smoothness": descent_step_cap(L),
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
