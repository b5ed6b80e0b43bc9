"""Communication graphs and doubly stochastic mixing matrices.

Builds the undirected topologies used by the simulator (ring, path, complete,
Erdos-Renyi), turns them into Metropolis-Hastings weight matrices, and
measures network connectivity through the spectral gap parameter
``lam = ||W - J||_2``, where J is the ideal (uniform averaging) matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# Tolerances: stochasticity is checked at 1e-12 on generated matrices, the
# spectral gap is resolved to 1e-10 (it only feeds diagnostics and
# transient-time formulas).
STOCHASTIC_ATOL = 1e-12
SPECTRAL_ATOL = 1e-10
_POWER_ITER_CAP = 100_000
_ER_RESAMPLE_CAP = 1000


class GraphError(ValueError):
    """Invalid graph input (disconnected, empty, or unconnectable)."""


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph on agents 0..n-1; edges stored as sorted pairs."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("agent count must be >= 1")
        for (i, j) in self.edges:
            if not (0 <= i < j < self.n):
                raise GraphError(f"edge ({i},{j}) out of range for n={self.n}")

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=int)
        for (i, j) in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n), dtype=bool)
        for (i, j) in self.edges:
            adj[i, j] = adj[j, i] = True
        return adj

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        adj = self.adjacency()
        seen = np.zeros(self.n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v in np.nonzero(adj[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        return bool(seen.all())


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


def _er_edges(n: int, p: float, rng: np.random.Generator):
    mask = rng.random((n, n)) < p
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
    return edges


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
        return WeightedGraph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))
    if kind == "erdos_renyi":
        if p is None or not (0.0 < p <= 1.0):
            raise GraphError("erdos_renyi requires edge probability p in (0, 1]")
        for attempt in range(_ER_RESAMPLE_CAP):
            rng = np.random.default_rng((int(seed), attempt))
            g = WeightedGraph(n, frozenset(_er_edges(n, p, rng)))
            if g.is_connected():
                return g
        raise GraphError(
            f"unconnectable configuration: erdos_renyi(n={n}, p={p}) produced no "
            f"connected graph in {_ER_RESAMPLE_CAP} resamples"
        )
    raise GraphError(f"unknown graph kind {kind!r}")


def metropolis_hastings(g: WeightedGraph) -> MixingMatrix:
    """Metropolis-Hastings weights: w_ij = 1/(1 + max(deg_i, deg_j)) on edges.

    The diagonal absorbs the slack, which makes the matrix symmetric, doubly
    stochastic, and primitive on any connected graph.
    """
    if not g.is_connected():
        raise GraphError("graph not connected")
    n = g.n
    deg = g.degrees()
    w = np.zeros((n, n))
    for (i, j) in g.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    lam = spectral_gap(w)
    return MixingMatrix(n=n, w=w, lam=lam)


def spectral_gap(w, atol: float = SPECTRAL_ATOL) -> float:
    """Return ``||W - J||_2``, the second largest singular value of W.

    Symmetric matrices go through a dense eigendecomposition; anything else
    falls back to power iteration on ``(W-J)^T (W-J)``.
    """
    mat = w.w if isinstance(w, MixingMatrix) else np.asarray(w, dtype=float)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise GraphError("weight matrix must be square")
    row_dev = np.max(np.abs(mat.sum(axis=1) - 1.0))
    col_dev = np.max(np.abs(mat.sum(axis=0) - 1.0))
    if row_dev > 1e-9 or col_dev > 1e-9:
        raise GraphError("weight matrix is not doubly stochastic")
    diff = mat - np.full((n, n), 1.0 / n)
    if np.max(np.abs(diff - diff.T)) <= 1e-12:
        return float(np.max(np.abs(np.linalg.eigvalsh(diff))))
    # power iteration on M = D^T D; eigenvalue of M is the squared gap
    m = diff.T @ diff
    v = np.full(n, 1.0 / math.sqrt(n))
    v[0] += 0.5  # deterministic symmetry-breaking start
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(_POWER_ITER_CAP):
        mv = m @ v
        norm = np.linalg.norm(mv)
        if norm == 0.0:
            return 0.0
        v = mv / norm
        est = float(v @ (m @ v))
        if abs(est - prev) <= atol * atol:
            return math.sqrt(max(est, 0.0))
        prev = est
    return math.sqrt(max(prev, 0.0))


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
    """Sample ``samples`` connected ER graphs at probability p; return list of
    (graph, lam) plus the mean lam."""
    out = []
    for k in range(samples):
        sub = int(np.random.SeedSequence((seed, step, k)).generate_state(1)[0])
        g = generate_graph("erdos_renyi", n, seed=sub, p=p)
        m = metropolis_hastings(g)
        out.append((g, m))
    mean_lam = float(np.mean([m.lam for (_, m) in out]))
    return out, mean_lam


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

    # Below ln(n)/n connected samples become too rare for reject-and-resample.
    p_lo = min(0.95, max(math.log(max(n, 2)) / n, 1.0 / (n - 1)))
    p_hi = 1.0

    best = None  # (|lam - target|, graph, matrix, p)
    means = []

    def consider(p, pool):
        nonlocal best
        for (g, m) in pool:
            gap = abs(m.lam - target_lambda)
            if best is None or gap < best[0]:
                best = (gap, g, m, p)

    pool_lo, mean_lo = _probe_er(n, p_lo, seed, 0, samples_per_probe)
    pool_hi, mean_hi = _probe_er(n, p_hi, seed, 1, samples_per_probe)
    consider(p_lo, pool_lo)
    consider(p_hi, pool_hi)
    means += [mean_lo, mean_hi]

    lo, hi = p_lo, p_hi
    for step in range(2, max_steps + 2):
        mid = 0.5 * (lo + hi)
        pool, mean_mid = _probe_er(n, mid, seed, step, samples_per_probe)
        consider(mid, pool)
        means.append(mean_mid)
        if best[0] <= tol and abs(mean_mid - target_lambda) <= tol:
            break
        if mean_mid > target_lambda:
            lo = mid  # too sparse, gap too large: densify
        else:
            hi = mid

    gap, g, m, p = best
    return TuneResult(
        p=p,
        matrix=m,
        graph=g,
        lam=m.lam,
        converged=gap <= tol,
        lambda_range=(float(min(means)), float(max(means))),
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
    GraphError unless it is doubly stochastic and symmetric."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise GraphError("missing '# n=...,lambda=...' header line")
    header = lines[0][1:].strip()
    fields = dict(part.split("=", 1) for part in header.split(","))
    n = int(fields["n"])
    lam = float(fields["lambda"])
    rows = [np.array([float(v) for v in ln.split(",")]) for ln in lines[1:]]
    w = np.vstack(rows)
    if w.shape != (n, n):
        raise GraphError(f"expected {n}x{n} matrix, got {w.shape}")
    m = MixingMatrix(n=n, w=w, lam=lam)
    m.validate()
    return m
