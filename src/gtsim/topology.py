"""Communication graphs and doubly stochastic mixing matrices.

Builds the undirected topologies used by the simulator (ring, path, complete,
Erdos-Renyi), turns them into Metropolis-Hastings weight matrices, and
measures network connectivity through the spectral gap parameter
``lam = ||W - J||_2``, where J is the ideal (uniform averaging) matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

__all__ = [
    "GraphError",
    "WeightedGraph",
    "MixingMatrix",
    "TuneResult",
    "generate_graph",
    "metropolis_hastings",
    "spectral_gap",
    "tune_er_probability",
    "save_matrix_csv",
    "load_matrix_csv",
]

# Tolerances: stochasticity and symmetry are checked at 1e-12, and the
# spectral gap is resolved to 1e-10: a matrix CSV's lambda must match the
# matrix's own to that tolerance.
STOCHASTIC_ATOL = 1e-12
SPECTRAL_ATOL = 1e-10
_ER_RESAMPLE_CAP = 1000


class GraphError(ValueError):
    """Invalid graph input (disconnected, empty, or unconnectable)."""


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph on agents 0..n-1; edges stored as sorted pairs.

    The boolean adjacency matrix, built once from the edges, backs the
    degree, adjacency and connectivity queries."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("agent count must be >= 1")
        pairs = np.fromiter(chain.from_iterable(self.edges), dtype=np.int64,
                            count=2 * len(self.edges)).reshape(-1, 2)
        i, j = pairs.T
        bad = ~((0 <= i) & (i < j) & (j < self.n))
        if bad.any():
            i, j = pairs[np.argmax(bad)].tolist()
            raise GraphError(f"edge ({i},{j}) out of range for n={self.n}")
        adj = np.zeros((self.n, self.n), dtype=bool)
        adj[i, j] = adj[j, i] = True
        adj.flags.writeable = False
        object.__setattr__(self, "_adj", adj)

    def degrees(self) -> np.ndarray:
        return self._adj.sum(axis=1)

    def adjacency(self) -> np.ndarray:
        """The (n, n) boolean adjacency matrix (read-only)."""
        return self._adj

    def is_connected(self) -> bool:
        return bool(_connected(self._adj))


def _connected(adj) -> np.ndarray:
    """Whether the graphs of a (..., n, n) stack of symmetric boolean
    adjacency matrices are connected: grow the set reached from agent 0 one
    frontier at a time, for every graph of the stack at once."""
    seen = np.zeros(adj.shape[:-1], dtype=bool)
    seen[..., 0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = (adj & frontier[..., :, None]).any(axis=-2) & ~seen
        seen |= frontier
    return seen.all(axis=-1)


@dataclass(frozen=True)
class MixingMatrix:
    """Doubly stochastic weight matrix with its spectral gap parameter."""

    n: int
    w: np.ndarray
    lam: float

    def validate(self, atol: float = STOCHASTIC_ATOL) -> None:
        """Raise if row/column sums or symmetry drift beyond ``atol``."""
        w = self.w
        if w.shape != (self.n, self.n):
            raise GraphError("matrix shape does not match n")
        row_dev = np.max(np.abs(w.sum(axis=1) - 1.0))
        col_dev = np.max(np.abs(w.sum(axis=0) - 1.0))
        sym_dev = np.max(np.abs(w - w.T))
        if row_dev > atol or col_dev > atol:
            raise GraphError(
                f"matrix is not doubly stochastic (row dev {row_dev:.3e}, "
                f"col dev {col_dev:.3e})"
            )
        if sym_dev > atol:
            raise GraphError(f"matrix is not symmetric (dev {sym_dev:.3e})")


def _ring_edges(n: int):
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    return [(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)]


def _graph(adj) -> WeightedGraph:
    """The graph of an (n, n) adjacency matrix, read from its upper triangle."""
    i, j = np.nonzero(np.triu(adj, k=1))
    return WeightedGraph(len(adj), frozenset(zip(i.tolist(), j.tolist())))


def _er_draw(n, p, seed, attempt):
    """One ER attempt as an upper-triangular boolean matrix: pair (i, j),
    i < j, is an edge when draw [i, j] of stream (seed, attempt) falls below p."""
    rng = np.random.default_rng((int(seed), attempt))
    return np.triu(rng.random((n, n)) < p, k=1)


def _er_connected(n, p, seed, start=0):
    """The adjacency of the first connected ER attempt of ``seed`` from
    attempt ``start`` on; after 1000 attempts in all, the configuration is
    deemed unconnectable."""
    for attempt in range(start, _ER_RESAMPLE_CAP):
        upper = _er_draw(n, p, seed, attempt)
        adj = upper | upper.T
        if _connected(adj):
            return adj
    raise GraphError(
        f"unconnectable configuration: erdos_renyi(n={n}, p={p}) produced no "
        f"connected graph in {_ER_RESAMPLE_CAP} resamples"
    )


def generate_graph(kind: str, n: int, seed: int = 0, p: float | None = None) -> WeightedGraph:
    """Generate a connected graph of the given kind.

    ``kind`` is one of ``ring``, ``path``, ``complete``, ``erdos_renyi``.
    Erdos-Renyi graphs take an edge probability ``p`` in (0, 1] and are
    resampled with an incremented sub-seed until connected; after 1000
    failures the configuration is deemed unconnectable.
    """
    if n < 1:
        raise GraphError("agent count must be >= 1")
    if kind == "ring":
        return WeightedGraph(n, frozenset(_ring_edges(n)))
    if kind == "path":
        return WeightedGraph(n, frozenset((i, i + 1) for i in range(n - 1)))
    if kind == "complete":
        return _graph(np.ones((n, n), dtype=bool))
    if kind == "erdos_renyi":
        if p is None or not (0.0 < p <= 1.0):
            raise GraphError("erdos_renyi requires edge probability p in (0, 1]")
        if seed < 0:
            raise GraphError("erdos_renyi requires a seed >= 0")
        return _graph(_er_connected(n, p, seed))
    raise GraphError(f"unknown graph kind {kind!r}")


def metropolis_hastings(g: WeightedGraph) -> MixingMatrix:
    """Metropolis-Hastings weights: w_ij = 1/(1 + max(deg_i, deg_j)) on edges.

    The diagonal absorbs the slack, which makes the matrix symmetric, doubly
    stochastic, and primitive on any connected graph.
    """
    if not g.is_connected():
        raise GraphError("graph not connected")
    w = _mh_weights(g.adjacency())
    return MixingMatrix(n=g.n, w=w, lam=spectral_gap(w))


def _mh_weights(adj) -> np.ndarray:
    """Metropolis-Hastings weights of a (..., n, n) stack of adjacency matrices."""
    deg = adj.sum(axis=-1)
    w = np.where(adj, 1.0 / (1.0 + np.maximum(deg[..., :, None], deg[..., None, :])), 0.0)
    diag = np.arange(adj.shape[-1])
    w[..., diag, diag] = 1.0 - w.sum(axis=-1)
    return w


def _symmetric_gap(diff) -> np.ndarray:
    """``||D||_2`` of each symmetric matrix D of a (..., n, n) stack."""
    return np.max(np.abs(np.linalg.eigvalsh(diff)), axis=-1)


def spectral_gap(w) -> float:
    """Return ``||W - J||_2``, the second largest singular value of W, for a
    symmetric doubly stochastic W, from a dense eigendecomposition."""
    mat = w.w if isinstance(w, MixingMatrix) else np.asarray(w, dtype=float)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise GraphError("weight matrix must be square")
    row_dev = np.max(np.abs(mat.sum(axis=1) - 1.0))
    col_dev = np.max(np.abs(mat.sum(axis=0) - 1.0))
    if row_dev > STOCHASTIC_ATOL or col_dev > STOCHASTIC_ATOL:
        raise GraphError("weight matrix is not doubly stochastic")
    sym_dev = np.max(np.abs(mat - mat.T))
    if sym_dev > STOCHASTIC_ATOL:
        raise GraphError(f"weight matrix is not symmetric (dev {sym_dev:.3e})")
    return float(_symmetric_gap(mat - np.full((n, n), 1.0 / n)))


@dataclass(frozen=True)
class TuneResult:
    """Outcome of tuning the ER edge probability toward a target gap."""

    p: float
    matrix: MixingMatrix
    graph: WeightedGraph
    lam: float
    converged: bool
    lambda_range: tuple  # (min, max) of probe means, the reachable band seen


def _probe_er(n, p, seed, step, samples):
    """Sample ``samples`` connected ER graphs at probability p as one stack:
    return their (samples, n, n) adjacency matrices and (samples,) gaps."""
    subs = [int(np.random.SeedSequence((seed, step, k)).generate_state(1)[0])
            for k in range(samples)]
    upper = np.stack([_er_draw(n, p, sub, 0) for sub in subs])
    adj = upper | upper.swapaxes(-1, -2)
    # a disconnected first attempt resamples exactly as generate_graph does
    for k in np.flatnonzero(~_connected(adj)):
        adj[k] = _er_connected(n, p, subs[k], start=1)
    return adj, _symmetric_gap(_mh_weights(adj) - 1.0 / n)


def tune_er_probability(
    n: int,
    target_lambda: float,
    tol: float,
    seed: int = 0,
    samples_per_probe: int = 16,
    max_steps: int = 40,
) -> TuneResult:
    """Bisect the ER edge probability so the mean spectral gap hits a target.

    Each probe averages the gap over ``samples_per_probe`` sampled connected
    graphs. Returns a concrete graph/matrix whose gap is within ``tol`` of the
    target, or the closest one achieved after ``max_steps`` bisection steps
    (``converged`` is False in that case and ``lambda_range`` reports the band
    of probe means actually seen).
    """
    if not (0.0 < target_lambda < 1.0):
        raise GraphError("target_lambda must lie in (0, 1)")
    if tol <= 0.0:
        raise GraphError("tol must be positive")
    if n < 2:
        raise GraphError("tuning needs at least 2 agents")
    if seed < 0:
        raise GraphError("seed must be >= 0")
    if samples_per_probe < 1:
        raise GraphError("samples_per_probe must be >= 1")
    if max_steps < 0:
        raise GraphError("max_steps must be >= 0")

    # Below ln(n)/n connected samples become too rare for reject-and-resample.
    p_lo = min(0.95, max(math.log(max(n, 2)) / n, 1.0 / (n - 1)))
    p_hi = 1.0

    best = None  # (|lam - target|, adjacency, p) of the closest sample so far
    means = []

    def probe(p, step):
        nonlocal best
        adj, lams = _probe_er(n, p, seed, step, samples_per_probe)
        gaps = np.abs(lams - target_lambda)
        k = int(np.argmin(gaps))  # the first closest, as a scan in draw order keeps
        if best is None or gaps[k] < best[0]:
            best = (float(gaps[k]), adj[k], p)
        means.append(float(np.mean(lams)))
        return means[-1]

    probe(p_lo, 0)
    probe(p_hi, 1)
    lo, hi = p_lo, p_hi
    for step in range(2, max_steps + 2):
        mid = 0.5 * (lo + hi)
        mean_mid = probe(mid, step)
        if best[0] <= tol and abs(mean_mid - target_lambda) <= tol:
            break
        if mean_mid > target_lambda:
            lo = mid  # too sparse, gap too large: densify
        else:
            hi = mid

    gap, adj, p = best
    g = _graph(adj)
    m = metropolis_hastings(g)
    return TuneResult(
        p=p,
        matrix=m,
        graph=g,
        lam=m.lam,
        converged=gap <= tol,
        lambda_range=(min(means), max(means)),
    )


def save_matrix_csv(m: MixingMatrix, path) -> None:
    """Write W row-major as CSV with an ``# n=...,lambda=...`` comment line.

    Entries use shortest round-trip float formatting so a reload reproduces W
    bit for bit.
    """
    lines = [f"# n={m.n},lambda={float(m.lam)!r}"]
    for row in m.w:
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix_csv(path) -> MixingMatrix:
    """Reload a mixing matrix written by :func:`save_matrix_csv`; raise
    GraphError unless it is doubly stochastic and symmetric and its header's
    lambda is its spectral gap to within ``SPECTRAL_ATOL``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise GraphError("missing '# n=...,lambda=...' header line")
    fields = {}
    for part in lines[0][1:].split(","):
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()
    for key in ("n", "lambda"):
        if not fields.get(key):
            raise GraphError(f"matrix CSV header has no '{key}=' field")
    n = int(fields["n"])
    lam = float(fields["lambda"])
    rows = [np.array(ln.split(","), dtype=np.float64) for ln in lines[1:]]
    w = np.vstack(rows)
    if w.shape != (n, n):
        raise GraphError(f"expected {n}x{n} matrix, got {w.shape}")
    m = MixingMatrix(n=n, w=w, lam=lam)
    m.validate()
    # lambda sets the caps and slacks of the checks, so the header's value
    # must be the matrix's own; it is kept as written, so a reload is bitwise
    actual = spectral_gap(w)
    if abs(actual - lam) > SPECTRAL_ATOL:
        raise GraphError(f"matrix CSV header says lambda={lam!r}, but the matrix has "
                         f"lambda={actual!r}")
    return m
