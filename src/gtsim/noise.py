"""Stochastic first-order oracles.

Two flavors of noisy gradient access: exact gradient plus Gaussian noise,
and mini-batch sampling over finite local datasets. The Gaussian noise's
amplitude may grow with the global gradient norm at a rate rho (the
"relaxed" sub-Gaussian regime, where the squared-norm MGF bound carries a
gradient-dependent term); at rho = 0 it is plain additive noise.

All randomness is counter-based. Gaussian noise is drawn once per run per
chunk of CHUNK iterations, from one Philox stream keyed by (seed, run, t0) at
the chunk's first iteration t0; row t - t0 of the draw is iteration t's noise,
with agent i owning row i of it. Mini-batch indices have one stream per
(seed, run, iteration), from which every agent's batch is drawn at once by
Floyd's algorithm (``_batches``), and a block's batches make one
``grad_batch`` call. Draws are a pure function of (seed, run, t),
independent of scheduling and of how many runs are stepped together. The
diagnostic draws of ``noise_samples`` have one stream per (seed, agent),
read in row chunks.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

__all__ = [
    "OracleError",
    "GaussianOracle",
    "MinibatchOracle",
    "OracleSpec",
    "noise_block",
    "CHUNK",
    "prepare_sampler",
    "calibrate_sigma",
    "capped_exp_mean",
    "MgfEstimate",
    "estimate_mgf",
    "noise_samples",
    "row_sq_norms",
    "SAMPLE_CHUNK_BYTES",
]

_EXP_CAP = 700.0  # exp(700) is near the float64 overflow edge

# iterations whose Gaussian noise one chunk draw covers
CHUNK = 64

# bytes of one row chunk of noise_samples' draws
SAMPLE_CHUNK_BYTES = 1 << 18


class OracleError(ValueError):
    """Invalid oracle configuration or sampling request."""


def _is_count(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class GaussianOracle:
    """Exact gradient plus N(0, s_i^2 I) noise; ``s`` scalar or per-agent.

    At rho > 0 the noise amplitude is s_i sqrt(1 + rho alpha^(2+eps) ||grad
    f(x)||), the relaxed sub-Gaussian regime; rho = 0 is plain additive
    noise. Conformance to the squared-norm MGF bound is certified
    empirically via :func:`estimate_mgf`, not proven.
    """

    s: Union[float, tuple]
    rho: float = 0.0
    eps_exponent: float = 1.0
    kind = "gaussian"

    def __post_init__(self):
        if np.any(np.asarray(self.s, dtype=float) < 0):
            raise OracleError("noise std must be >= 0")
        if self.rho < 0:
            raise OracleError("rho must be >= 0")
        if self.eps_exponent <= 0:
            raise OracleError("eps_exponent must be > 0")

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


OracleSpec = Union[GaussianOracle, MinibatchOracle]


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


def _cell_state(seed: int, stream: int, run: int, t: int) -> dict:
    """The state of a fresh Philox keyed by one (seed, stream, run, iteration)
    cell: zero counter, empty buffer.

    The cell is packed into the 128-bit Philox key, two exact uint64 words:
    the seed, then stream | run | t (distinct keys yield independent streams
    by construction); the block counter starts at zero and only advances
    within the cell's own draws.
    """
    if not (0 <= run < 2**_RUN_BITS):
        raise OracleError(f"run index must fit in {_RUN_BITS} bits")
    if not (0 <= t < 2**_T_BITS):
        raise OracleError(f"iteration index must fit in {_T_BITS} bits")
    key = [int(seed) & _MASK64, (stream << (_RUN_BITS + _T_BITS)) | (run << _T_BITS) | t]
    return {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _generator(seed: int, stream: int, run: int, t: int) -> np.random.Generator:
    """Counter-based generator for one (seed, stream, run, iteration) cell.

    The returned generator is shared and re-keyed by the next call: draw
    from it before calling again.
    """
    cell = _cached
    cell.bit_generator.state = _cell_state(seed, stream, run, t)
    return cell.generator


def _own_generator(seed: int, stream: int, run: int, t: int) -> np.random.Generator:
    """A new generator for one cell, drawing what ``_generator`` draws for it;
    no other call re-keys it, so several may be read in turns."""
    bit_generator = np.random.Philox(key=0)
    bit_generator.state = _cell_state(seed, stream, run, t)
    return np.random.Generator(bit_generator)


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


def _check_minibatch(o, e, agents):
    """The mini-batch oracle's rules, checked once before its draws: the
    ensemble has a dataset, and each of ``agents`` more samples than a
    batch."""
    if not hasattr(e, "grad_batch"):
        raise OracleError("no dataset: mini-batch oracle needs a dataset-backed ensemble")
    m = min(e.sample_count(i) for i in agents)
    if o.batch_size >= m:
        raise OracleError(f"batch_size {o.batch_size} must be < local dataset size {m}")


def _batches(gen, sizes, k):
    """For each entry m of the array ``sizes``, k distinct indices in [0, m),
    as a (*sizes.shape, k) array, by Floyd's algorithm: position p draws u in
    [0, m - k + p] and takes u, or m - k + p where u is taken at an earlier
    position. The draws are one ``gen.integers`` call over the whole array,
    in its C order, which draws what that many scalar calls in turn draw, so
    its rows may be drawn in any number of calls."""
    top = sizes[..., None] - k
    idx = gen.integers(0, top + 1 + np.arange(k))
    for p in range(1, k):
        taken = (idx[..., :p] == idx[..., p, None]).any(axis=-1)
        idx[..., p] = np.where(taken, top[..., 0] + p, idx[..., p])
    return idx


def _relaxed_scale(o, alpha, global_grad_norm):
    if alpha is None:
        raise OracleError("relaxed oracle needs the current step-size alpha")
    return np.sqrt(1.0 + o.rho * alpha ** (2.0 + o.eps_exponent) * global_grad_norm)


def prepare_sampler(o: OracleSpec, e, seeds: Sequence[int], runs: Sequence[int], T: int):
    """Bind an oracle to an ensemble and a block of runs for the hot loop.

    Returns ``f(x, t, alpha) -> (g, exact, grad_global)`` over a stack x of
    models, one run per (seeds[b], runs[b]), for iterations t <= T. The stack
    is (B, n, d), or at an ensemble's ``panel_width`` P > 1 the engine's
    (S, n, d) stack of slots, whose slots past B are padding: they get no
    noise. The results are stacks of x's shape. ``exact`` holds the noiseless local gradients
    when they come for free (the Gaussian flavor), else None; the Gaussian
    flavor at rho > 0 needs alpha and evaluates the global gradients at x
    itself, and returns them as ``grad_global`` (None otherwise). Gaussian
    noise is drawn at the first call within each chunk, for every run of the
    block, into the ensemble's ``slot_memory``, the layout of the engine's
    state. The mini-batch flavor draws each run's (n, k) batch indices from
    its cell (seed, 1, run, t) and makes one ``grad_batch`` call for the
    block.
    """
    n, d = e.n, e.d
    if o.kind == "minibatch":
        _check_minibatch(o, e, range(n))
        sizes = np.array([e.sample_count(i) for i in range(n)])
        agents = np.arange(n)

        def sample_minibatch(x, t, alpha=None):
            idx = np.stack([_batches(_batch_generator(seed, run, t), sizes, o.batch_size)
                            for seed, run in zip(seeds, runs)])
            return e.grad_batch(agents, x, idx), None, None

        return sample_minibatch

    if o.kind != "gaussian":
        raise OracleError(f"unknown oracle kind {o.kind!r}")
    s_col = o.s_vector(n)[:, None]
    # at rho = 0 the noise is additive: each chunk draw is scaled once, as it
    # is drawn; the product is elementwise, so every row is the same as
    # scaled per iteration
    additive = o.rho == 0.0
    if additive and not s_col.any():

        def sample_exact(x, t, alpha=None):
            exact = e.grad_all(x)
            return exact, exact, None

        return sample_exact

    B, K = len(seeds), min(T, CHUNK)
    # the time-major chunk draw, a (K, B, n, d) stack laid out as the engine
    # lays out its state
    z = e.slot_memory(B, lead=(K,))[1]
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
            # the noise goes to the first B slots, through the views in
            # memory order, where the elementwise add is fastest; z holds no
            # padding slots, which would make a one-run block's chunk P
            # times as large
            exact = e.grad_all(x)
            g = exact.copy(order="K")
            rows = e.memory_of(g[:B])
            rows += e.memory_of(noise_rows(t))
            return g, exact, None

        return sample_gaussian

    def sample_relaxed(x, t, alpha=None):
        exact = e.grad_all(x)
        grad_global = e.grad_global_all(x)
        scale = _relaxed_scale(o, alpha, np.linalg.norm(grad_global[:B], axis=-1))
        g = exact.copy(order="K")
        g[:B] += s_col * scale[..., None] * noise_rows(t)
        return g, exact, grad_global

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


# The chunk makers below are functions that the streams call, so a stream
# waiting to be read again holds no chunk of its own.

def _scaled(z: np.ndarray, s: float) -> np.ndarray:
    # in place: the product is elementwise, so it has the bits of s * z
    z *= s
    return z


def _minibatch_rows(o, e, i, x, grad, gen, rows: int) -> np.ndarray:
    out = e.grad_batch(i, x, _batches(gen, np.full(rows, e.sample_count(i)), o.batch_size))
    out -= grad
    return out


def noise_samples(
    o: OracleSpec,
    e,
    i: int,
    x: np.ndarray,
    count: int,
    seed: int = 0,
    alpha: Optional[float] = None,
) -> Iterator[np.ndarray]:
    """Monte-Carlo noise draws z = g - grad f_i(x) for diagnostics: the
    (count, d) draw as an iterator of row chunks, each at most
    SAMPLE_CHUNK_BYTES and each a new array.

    The call opens the draw's own Philox stream, keyed as the cell (seed, 2,
    i, 0), and checks its arguments; only at rho > 0 does it read the global
    gradient at x, for the noise scale. The draws are made as the chunks
    are read. The stream runs on across chunks, so the chunks stacked are
    bitwise one (count, d) draw of that cell, and any number of streams may
    be read in turns. Two draws of one count, d and oracle split at the same
    rows. A mini-batch chunk draws its rows' batches as the sampler draws an
    iteration's, over (rows, k) instead of (n, k), and makes one
    ``grad_batch`` call, whose densified (rows, k, d) batch rows are also at
    most SAMPLE_CHUNK_BYTES. ``count`` must be an integer and ``i`` an agent
    index in [0, n).
    """
    if not _is_count(count):
        raise OracleError(f"count must be an integer, got {count!r}")
    if not _is_count(i) or not 0 <= i < e.n:
        raise OracleError(f"agent index i must lie in [0, {e.n}), got {i!r}")
    x = np.asarray(x, dtype=float)
    gen = _own_generator(seed, 2, i, 0)
    # a mini-batch row densifies its batch's k rows, which the chunk's bytes
    # count too; one row where a row alone is larger
    per_row = 8 * e.d * (o.batch_size if o.kind == "minibatch" else 1)
    rows = max(1, SAMPLE_CHUNK_BYTES // per_row)
    sizes = [min(rows, count - lo) for lo in range(0, count, rows)]
    if o.kind == "gaussian":
        scale = 1.0
        if o.rho != 0.0:
            scale = _relaxed_scale(o, alpha, float(np.linalg.norm(e.grad_global(x))))
        s = o.s_vector(e.n)[i] * scale
        return (_scaled(gen.standard_normal((k, e.d)), s) for k in sizes)
    if o.kind == "minibatch":
        _check_minibatch(o, e, [i])
        grad = e.grad_local(i, x)
        return (_minibatch_rows(o, e, i, x, grad, gen, k) for k in sizes)
    raise OracleError(f"unknown oracle kind {o.kind!r}")


def row_sq_norms(chunks, count: int) -> np.ndarray:
    """The (count,) squared row norms of a stream of row chunks, each squared
    in place and summed per row as ``np.sum(z * z, axis=1)`` sums it."""
    out = np.empty(count)
    lo = 0
    for z in chunks:
        np.multiply(z, z, out=z)
        np.add.reduce(z, axis=1, out=out[lo:lo + len(z)])
        lo += len(z)
    return out


def capped_exp_mean(w: np.ndarray):
    """(mean, standard error, count capped) of exp(w), exponents capped at 700.

    Overwrites ``w`` with the capped exponentials: pass an array that is not
    needed afterwards. Where exponentials near the cap overflow a sum or a
    square, that result is taken of the exponentials divided by their largest,
    and scaled back, so both results stay finite.
    """
    capped = int(np.sum(w > _EXP_CAP))
    np.minimum(w, _EXP_CAP, out=w)
    np.exp(w, out=w)
    with np.errstate(over="ignore"):
        mean, sd = float(w.mean()), float(w.std(ddof=1))
    if not math.isfinite(sd):  # also when the mean overflowed
        top = float(w.max())
        w /= top
        sd = float(w.std(ddof=1)) * top
        if not math.isfinite(mean):
            mean = float(w.mean()) * top
    return mean, sd / math.sqrt(len(w)), capped


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
    w = row_sq_norms(noise_samples(o, e, i, x, samples, seed=seed, alpha=alpha), samples)
    w /= sigma_sq
    value, stderr, capped = capped_exp_mean(w)
    return MgfEstimate(value=value, stderr=stderr, capped=capped, samples=samples)
