"""Stochastic first-order oracles.

Three flavors of noisy gradient access: exact gradient plus Gaussian noise,
mini-batch sampling over finite local datasets, and a synthetic noise model
whose amplitude grows with the global gradient norm (the "relaxed" regime
where the squared-norm MGF bound carries a gradient-dependent term).

All randomness is counter-based. Gaussian noise is drawn once per run per
chunk of CHUNK iterations, from one Philox stream keyed by (seed, run, t0) at
the chunk's first iteration t0; row t - t0 of the draw is iteration t's noise,
with agent i owning row i of it. Mini-batch indices have one stream per
(seed, run, iteration). Draws are a pure function of (seed, run, t),
independent of scheduling and of how many runs are stepped together.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "OracleError",
    "GaussianOracle",
    "MinibatchOracle",
    "RelaxedSubgaussianOracle",
    "OracleSpec",
    "noise_block",
    "CHUNK",
    "prepare_sampler",
    "calibrate_sigma",
    "capped_exp_mean",
    "MgfEstimate",
    "estimate_mgf",
    "noise_samples",
]

_EXP_CAP = 700.0  # exp(700) is near the float64 overflow edge

# iterations whose Gaussian noise one chunk draw covers
CHUNK = 64


class OracleError(ValueError):
    """Invalid oracle configuration or sampling request."""


@dataclass(frozen=True)
class GaussianOracle:
    """Exact gradient plus N(0, s_i^2 I) noise; ``s`` scalar or per-agent."""

    s: Union[float, tuple]
    kind = "gaussian"

    def __post_init__(self):
        if np.any(np.asarray(self.s, dtype=float) < 0):
            raise OracleError("noise std must be >= 0")

    def s_vector(self, n: int) -> np.ndarray:
        s = np.asarray(self.s, dtype=float)
        if s.ndim == 0:
            return np.full(n, float(s))
        if s.shape != (n,):
            raise OracleError(f"per-agent std must have length {n}")
        return s


@dataclass(frozen=True)
class MinibatchOracle:
    """Uniform without-replacement mini-batches over finite local datasets;
    a batch is smaller than each local dataset."""

    batch_size: int
    kind = "minibatch"

    def __post_init__(self):
        if self.batch_size < 1:
            raise OracleError("batch_size must be >= 1")


@dataclass(frozen=True)
class RelaxedSubgaussianOracle:
    """Gaussian noise with amplitude sqrt(1 + rho * alpha^(2+eps) * ||grad f(x)||).

    Reduces to the plain Gaussian oracle at rho = 0. Conformance to the
    squared-norm MGF bound is certified empirically via :func:`estimate_mgf`,
    not proven.
    """

    s: float
    rho: float
    eps_exponent: float
    kind = "relaxed_subgaussian"

    def __post_init__(self):
        if self.s < 0:
            raise OracleError("noise std must be >= 0")
        if self.rho < 0:
            raise OracleError("rho must be >= 0")
        if self.eps_exponent <= 0:
            raise OracleError("eps_exponent must be > 0")


OracleSpec = Union[GaussianOracle, MinibatchOracle, RelaxedSubgaussianOracle]


_MASK64 = 2**64 - 1
_RUN_BITS, _T_BITS = 24, 36


class _CachedPhilox(threading.local):
    """One Philox bit generator and its Generator per thread, re-keyed per cell.

    Building a new pair per cell would also draw OS entropy for a seed
    sequence that the explicit key then discards.
    """

    def __init__(self):
        self.bit_generator = np.random.Philox(key=0)
        self.generator = np.random.Generator(self.bit_generator)


_cached = _CachedPhilox()


def _generator(seed: int, stream: int, run: int, t: int) -> np.random.Generator:
    """Counter-based generator for one (seed, stream, run, iteration) cell.

    The cell is packed into the 128-bit Philox key, two exact uint64 words:
    the seed, then stream | run | t (distinct keys yield independent streams
    by construction); the block counter starts at zero and only advances
    within the cell's own draws. The returned generator is shared and
    re-keyed by the next call: draw from it before calling again.
    """
    if not (0 <= run < 2**_RUN_BITS):
        raise OracleError(f"run index must fit in {_RUN_BITS} bits")
    if not (0 <= t < 2**_T_BITS):
        raise OracleError(f"iteration index must fit in {_T_BITS} bits")
    key = [int(seed) & _MASK64, (stream << (_RUN_BITS + _T_BITS)) | (run << _T_BITS) | t]
    cell = _cached
    # the state of a fresh Philox(key=key): zero counter, empty buffer
    cell.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return cell.generator


def noise_block(seed: int, run: int, t: int, n: int, d: int) -> np.ndarray:
    """The first n x d standard normals of the noise cell (seed, run, t).

    A chunk starting at t0 takes its (k, n_agents, d) draw as
    ``noise_block(seed, run, t0, k * n_agents, d)``; draws fill in order, so
    any prefix of a cell's draws is the same.
    """
    return _generator(seed, 0, run, t).standard_normal((n, d))


def _batch_generator(seed: int, run: int, t: int) -> np.random.Generator:
    # separate stream tag so index draws never alias the normal draws
    return _generator(seed, 1, run, t)


def _require_dataset(e):
    if not hasattr(e, "grad_batch"):
        raise OracleError("no dataset: mini-batch oracle needs a dataset-backed ensemble")


def _batch_of(o, e, i, gen):
    m = e.sample_count(i)
    if o.batch_size >= m:
        raise OracleError(f"batch_size {o.batch_size} must be < local dataset size {m}")
    return gen.choice(m, size=o.batch_size, replace=False)


def _relaxed_scale(o, alpha, global_grad_norm):
    if o.rho == 0.0:
        return 1.0
    if alpha is None:
        raise OracleError("relaxed oracle needs the current step-size alpha")
    return np.sqrt(1.0 + o.rho * alpha ** (2.0 + o.eps_exponent) * global_grad_norm)


def prepare_sampler(o: OracleSpec, e, seeds: Sequence[int], runs: Sequence[int], T: int):
    """Bind an oracle to an ensemble and a block of runs for the hot loop.

    Returns ``f(x, t, alpha) -> (g, exact, grad_global)`` over models x of
    shape (B, n, d), one run per (seeds[b], runs[b]), for iterations t <= T.
    ``exact`` holds the noiseless local gradients when they come for free
    (additive-noise flavors), else None; the relaxed flavor at rho > 0 needs
    alpha and evaluates the global gradients at x itself, and returns them as
    ``grad_global`` (None for every other flavor). Gaussian noise is drawn
    at the first call within each chunk, for every run of the block.
    """
    n, d = e.n, e.d
    if o.kind == "minibatch":
        _require_dataset(e)

        def sample_minibatch(x, t, alpha=None):
            g = np.empty_like(x)
            for b, (seed, run) in enumerate(zip(seeds, runs)):
                gen = _batch_generator(seed, run, t)
                for i in range(n):
                    g[b, i] = e.grad_batch(i, x[b, i], _batch_of(o, e, i, gen))
            return g, None, None

        return sample_minibatch

    if o.kind not in ("gaussian", "relaxed_subgaussian"):
        raise OracleError(f"unknown oracle kind {o.kind!r}")
    s_col = o.s_vector(n)[:, None] if o.kind == "gaussian" else o.s
    if o.kind == "gaussian" and not s_col.any():

        def sample_exact(x, t, alpha=None):
            exact = e.grad_all(x)
            return exact, exact, None

        return sample_exact

    # the additive flavors scale each chunk draw once, as it is drawn: the
    # product is elementwise, so every row is the same as scaled per iteration
    additive = o.kind == "gaussian" or o.rho == 0.0
    z = np.empty((min(T, CHUNK), len(seeds), n, d))  # time-major chunk draw
    drawn = 0  # first iteration of the chunk in z

    def noise_rows(t):
        nonlocal drawn
        t0 = t - (t - 1) % CHUNK
        if drawn != t0:
            k = min(CHUNK, T + 1 - t0)
            for b, (seed, run) in enumerate(zip(seeds, runs)):
                z[:k, b] = noise_block(seed, run, t0, k * n, d).reshape(k, n, d)
            if additive:
                z[:k] *= s_col
            drawn = t0
        return z[t - t0]

    if additive:

        def sample_gaussian(x, t, alpha=None):
            exact = e.grad_all(x)
            return exact + noise_rows(t), exact, None

        return sample_gaussian

    def sample_relaxed(x, t, alpha=None):
        exact = e.grad_all(x)
        grad_global = e.grad_global_all(x)
        scale = _relaxed_scale(o, alpha, np.linalg.norm(grad_global, axis=-1))
        return exact + o.s * scale[..., None] * noise_rows(t), exact, grad_global

    return sample_relaxed


def calibrate_sigma(s: float, d: int) -> float:
    """Smallest sigma^2 with E[exp(||N(0, s^2 I_d)||^2 / sigma^2)] <= e.

    Closed form 2 s^2 / (1 - exp(-2/d)); the noiseless case returns 0.
    """
    if s < 0:
        raise OracleError("noise std must be >= 0")
    if d < 1:
        raise OracleError("dimension must be >= 1")
    if s == 0.0:
        return 0.0
    return 2.0 * s * s / (1.0 - np.exp(-2.0 / d))


def noise_samples(
    o: OracleSpec,
    e,
    i: int,
    x: np.ndarray,
    count: int,
    seed: int = 0,
    alpha: Optional[float] = None,
) -> np.ndarray:
    """Monte-Carlo noise draws z = g - grad f_i(x) for diagnostics, (count, d).

    The additive flavors scale their draw in place: the product is
    elementwise, so it has the bits of ``s * draw`` without a second array.
    """
    x = np.asarray(x, dtype=float)
    if o.kind == "gaussian":
        z = _generator(seed, 2, i, 0).standard_normal((count, e.d))
        z *= o.s_vector(e.n)[i]
        return z
    if o.kind == "relaxed_subgaussian":
        scale = _relaxed_scale(o, alpha, float(np.linalg.norm(e.grad_global(x))))
        z = _generator(seed, 2, i, 0).standard_normal((count, e.d))
        z *= o.s * scale
        return z
    if o.kind == "minibatch":
        _require_dataset(e)
        grad = e.grad_local(i, x)
        out = np.empty((count, e.d))
        gen = _generator(seed, 2, i, 0)
        for k in range(count):
            out[k] = e.grad_batch(i, x, _batch_of(o, e, i, gen)) - grad
        return out
    raise OracleError(f"unknown oracle kind {o.kind!r}")


def capped_exp_mean(w: np.ndarray):
    """(mean, standard error, count capped) of exp(w), exponents capped at 700.

    Overwrites ``w`` with the capped exponentials: pass an array that is not
    needed afterwards.
    """
    capped = int(np.sum(w > _EXP_CAP))
    np.minimum(w, _EXP_CAP, out=w)
    np.exp(w, out=w)
    return float(w.mean()), float(w.std(ddof=1) / math.sqrt(len(w))), capped


@dataclass(frozen=True)
class MgfEstimate:
    value: float
    stderr: float
    capped: int
    samples: int


def estimate_mgf(
    o: OracleSpec,
    e,
    i: int,
    x: np.ndarray,
    sigma_sq: float,
    samples: int,
    seed: int = 0,
    alpha: Optional[float] = None,
) -> MgfEstimate:
    """Monte-Carlo estimate of E[exp(||z||^2 / sigma^2)] with a standard error.

    Exponents are capped at 700 before exponentiation; the number of capped
    samples is reported so overflow never passes silently.
    """
    if samples < 10_000:
        raise OracleError("estimate_mgf needs at least 1e4 samples")
    if sigma_sq <= 0:
        raise OracleError("sigma_sq must be > 0")
    z = noise_samples(o, e, i, x, samples, seed=seed, alpha=alpha)
    np.multiply(z, z, out=z)
    w = np.sum(z, axis=1)
    del z
    w /= sigma_sq
    value, stderr, capped = capped_exp_mean(w)
    return MgfEstimate(value=value, stderr=stderr, capped=capped, samples=samples)
