"""Per-agent differentiable cost ensembles.

Two families are provided: heterogeneous quadratics ``f_i(x) = x'A_i x/2 + b_i'x``
and binary logistic regression with a bounded non-convex penalty
``eta * sum_k x_k^2 / (1 + x_k^2)``. Both expose exact local/global gradients,
a global smoothness constant, and (for quadratics) the closed-form optimum.
"""

from __future__ import annotations

import functools
import json

import numpy as np

__all__ = [
    "CostError",
    "CostEnsemble",
    "QuadraticEnsemble",
    "LogisticEnsemble",
    "PANEL",
    "TILE",
    "make_synthetic_quadratics",
    "save_ensemble_json",
    "load_ensemble_json",
]

SYMMETRY_ATOL = 1e-12

# runs per panel of a per-agent quadratic's gradient products
PANEL = 8

# pooled rows per tile of the logistic global gradients: of 1024, 2048, 4096
# and 8192 rows, the smallest whose call on the a9a shape (n = 50, m = 32 561,
# d = 123) was not slower than one (n, m) buffer's, on either vCPU of a
# 2-vCPU x86-64 host with one OpenBLAS thread
TILE = 8192


class CostError(ValueError):
    """Invalid cost construction or evaluation request."""


def _check_finite(x):
    if not np.all(np.isfinite(x)):
        raise CostError("non-finite input to gradient evaluation")


def _sigmoid(v):
    """The logistic sigmoid 1 / (1 + exp(-v)); an exp that overflows to inf
    gives the exact limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-v))


def _per_slice(core_ndim):
    """Let a method written for one input of ``core_ndim`` axes, (n, d) or
    (d,), take a stack of them: it runs once per slice, so each slice is
    computed as a call on it alone, and a call on a stack holds one slice's
    working memory at a time besides its output."""

    def wrap(fn):
        @functools.wraps(fn)
        def method(self, x):
            if x.ndim == core_ndim:
                return fn(self, x)
            core = x.shape[x.ndim - core_ndim:]
            out = np.array([fn(self, p) for p in x.reshape((-1,) + core)])
            return out.reshape(x.shape[:x.ndim - core_ndim] + out.shape[1:])

        return method

    return wrap


class CostEnsemble:
    """Common surface of an ensemble of n agent costs on R^d.

    ``grad_all`` and ``grad_global_all`` take one (n, d) array of models or
    a stack of them (leading axes); ``grad_global`` and ``value_global`` take
    one point (d,) or a stack of points. Each slice of a stack is computed
    exactly as a call on it alone.

    ``panel_width`` is the number of runs the engine groups into one panel.
    It holds a block's state in ``slot_memory``, with the block size rounded
    up to a multiple of the width and the slots past the block zero-padded,
    and passes ``grad_all`` the (S, n, d) stack of slots. Width 1 holds the
    (B, n, d) block as it is.
    """

    kind = "abstract"
    panel_width = 1
    n: int
    d: int

    def grad_local(self, i: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_local(self, i: int, x: np.ndarray) -> float:
        raise NotImplementedError

    def slot_memory(self, count, lead=()):
        """Zeroed memory for ``count`` slots of (n, d) models behind the
        leading axes ``lead``, and the (*lead, count, n, d) stack of slots
        that views it. At ``panel_width`` 1 the two are one run-major array.
        Above it the memory is agent-major, (*lead, n, count, d): each
        agent's rows over consecutive slots are dense, so P of them are one
        (P, d) panel, which the panel products read in place."""
        if self.panel_width == 1:
            mem = np.zeros(lead + (count, self.n, self.d))
        else:
            mem = np.zeros(lead + (self.n, count, self.d))
        return mem, self.memory_of(mem)

    def memory_of(self, stack):
        """A stack of slots viewed in the order of ``slot_memory``'s memory,
        or that memory viewed as its stack: the view is its own inverse.
        Elementwise operations on agent-major memory take about half the
        time through this view that they take through the stack."""
        return stack if self.panel_width == 1 else stack.swapaxes(-3, -2)

    @_per_slice(2)
    def grad_all(self, x_rows: np.ndarray) -> np.ndarray:
        """Local gradient of each agent at its own row of ``x_rows`` (n, d)."""
        return np.stack([self.grad_local(i, x_rows[i]) for i in range(self.n)])

    def smoothness(self) -> float:
        raise NotImplementedError

    # optional metadata; quadratics override when the average matrix allows it
    def pl_constant(self):
        return None

    def optimum(self):
        """Return (x_star, f_star) when available, else None."""
        return None

    def _validate_agent(self, i):
        if not (0 <= i < self.n):
            raise CostError(f"agent index {i} out of range for n={self.n}")


class QuadraticEnsemble(CostEnsemble):
    """Heterogeneous quadratics f_i(x) = x'A_i x / 2 + b_i'x.

    ``a`` may be a stack (n, d, d) or a single shared (d, d) matrix; each A_i
    must be symmetric within 1e-12.

    A stack makes the local gradients per-agent matrix products, taken over
    panels of PANEL runs: one (PANEL, d) x (d, d) product with A_i' per
    (panel, agent), so the panel width is PANEL. A run's gradient is bitwise
    the same in any slot of any panel; a model alone, as in ``grad_local``,
    is slot 0 of a zero-padded panel. A shared A makes one product per call,
    and keeps the width 1.
    """

    kind = "quadratic"

    def __init__(self, a: np.ndarray, b: np.ndarray):
        b = np.array(b, dtype=float)
        a = np.array(a, dtype=float)
        if b.ndim != 2:
            raise CostError("b must have shape (n, d)")
        self.n, self.d = b.shape
        if a.ndim == 2:
            self.shared_a = True
            if a.shape != (self.d, self.d):
                raise CostError("shared A must have shape (d, d)")
            mats = a[None]
        elif a.ndim == 3:
            self.shared_a = False
            if a.shape != (self.n, self.d, self.d):
                raise CostError("A stack must have shape (n, d, d)")
            mats = a
        else:
            raise CostError("A must be (d, d) or (n, d, d)")
        for m in mats:
            if np.max(np.abs(m - m.T)) > SYMMETRY_ATOL:
                raise CostError("A_i must be symmetric within 1e-12")
        self.a = a
        self.b = b
        self.a.flags.writeable = False
        self.b.flags.writeable = False
        if not self.shared_a:
            self.panel_width = PANEL
            # A_i' rather than A_i: symmetry is checked only to 1e-12
            self._a_t = np.ascontiguousarray(a.transpose(0, 2, 1))[:, None]
            # b_i repeated over the slots of a panel: added in one dense pass,
            # which takes a fifth of the time of adding b broadcast
            self._b_panel = np.repeat(self.b[:, None, None], PANEL, axis=2)
            self._b_panel.flags.writeable = False
        self._a_bar = a if self.shared_a else a.mean(axis=0)
        self._b_bar = b.mean(axis=0)
        self._smoothness = None
        self._mu = None
        self._optimum = None
        self._solved = False

    def _a_of(self, i):
        return self.a if self.shared_a else self.a[i]

    def grad_local(self, i, x):
        self._validate_agent(i)
        _check_finite(x)
        if self.shared_a:
            return self.a @ x + self.b[i]
        panel = np.zeros((PANEL, self.d))
        panel[0] = x
        return (panel @ self._a_t[i, 0])[0] + self.b[i]

    def value_local(self, i, x):
        self._validate_agent(i)
        return float(0.5 * x @ (self._a_of(i) @ x) + self.b[i] @ x)

    def grad_all(self, x_rows):
        if self.shared_a:
            return x_rows @ self.a + self.b
        mem = self.memory_of(x_rows) if x_rows.ndim == 3 else None
        if mem is not None and len(x_rows) % PANEL == 0 and mem.flags.c_contiguous:
            # a stack of slots from slot_memory: its own memory is the panels
            return self._panel_grads(mem).swapaxes(0, 1)
        # any other stack: slice r in slot r of zero-padded panels
        runs = x_rows.reshape(-1, self.n, self.d)
        mem = np.zeros((self.n, -(-len(runs) // PANEL) * PANEL, self.d))
        mem[:, :len(runs)] = runs.swapaxes(0, 1)
        return self._panel_grads(mem).swapaxes(0, 1)[:len(runs)].reshape(x_rows.shape)

    def _panel_grads(self, mem):
        """The local gradients over agent-major (n, S, d) models, S a multiple
        of PANEL: one (PANEL, d) x (d, d) product per (agent, panel)."""
        g = np.matmul(mem.reshape(self.n, -1, PANEL, self.d), self._a_t)
        g += self._b_panel
        return g.reshape(mem.shape)

    def grad_global(self, x):
        # one matrix-vector BLAS call per point, so a stack gives bitwise what
        # its points give alone; grad_global_all's matrix product does not
        return np.matmul(self._a_bar, x[..., None])[..., 0] + self._b_bar

    def grad_global_all(self, x_rows):
        # the offset is added in place: a block of models makes a MB-sized
        # product, and a second one would be mapped and faulted in per call
        g = x_rows @ self._a_bar
        g += self._b_bar
        return g

    def value_global(self, x):
        if x.ndim == 1:
            return float(0.5 * x @ (self._a_bar @ x) + self._b_bar @ x)
        # stacked matmuls run the same BLAS call per point as the 1-D form
        rows = x[..., None, :]
        quad = np.matmul(0.5 * rows, np.matmul(self._a_bar, x[..., None]))
        return (quad + np.matmul(rows, self._b_bar[:, None]))[..., 0, 0]

    def smoothness(self):
        # grad f_i is Lipschitz with constant ||A_i||_2 = max |eigenvalue|,
        # which an indefinite A_i takes at its most negative eigenvalue
        if self._smoothness is None:
            mats = self.a[None] if self.shared_a else self.a
            self._smoothness = float(max(np.abs(np.linalg.eigvalsh(m)).max() for m in mats))
        return self._smoothness

    def pl_constant(self):
        if self._mu is None:
            self._mu = float(np.linalg.eigvalsh(self._a_bar)[0])
        return self._mu if self._mu > 0 else None

    def optimum(self):
        """(x_star, f_star), solved once: mean(A) x* = -mean(b) by the two
        triangular solves with the Cholesky factor of mean(A). None where
        mean(A) is not positive definite. The cached x_star is read-only."""
        if not self._solved:
            self._solved = True
            try:
                factor = np.linalg.cholesky(self._a_bar)
            except np.linalg.LinAlgError:
                return None
            x_star = np.linalg.solve(factor.T, np.linalg.solve(factor, -self._b_bar))
            x_star.flags.writeable = False
            self._optimum = (x_star, self.value_global(x_star))
        return self._optimum


class LogisticEnsemble(CostEnsemble):
    """Logistic regression with non-convex per-coordinate penalty.

    f_i(x) = (1/m_i) sum_r log(1 + exp(-y_r <h_r, x>)) + eta sum_k x_k^2/(1+x_k^2)

    The agents' data is pooled into one (m, d) feature matrix and label
    vector. ``grad_global_all`` walks the pooled rows in tiles of TILE rows
    through one (n, TILE) buffer, so one call holds that buffer, not an
    (n, m) one. A corpus of at most TILE rows gets the operations of one
    (n, m) buffer, bit for bit; on more tiles only the order of the sum over
    the rows differs.
    """

    kind = "logistic"

    def __init__(self, features, labels, eta: float = 0.0):
        if len(features) != len(labels) or not features:
            raise CostError("need one (features, labels) pair per agent")
        feats = [np.asarray(h, dtype=float) for h in features]
        if any(h.ndim != 2 or h.shape[1] != feats[0].shape[1] for h in feats):
            raise CostError("all agents must share one feature dimension")
        labs = [np.asarray(y, dtype=float) for y in labels]
        for i, (h, y) in enumerate(zip(feats, labs)):
            if y.shape != (h.shape[0],):
                raise CostError(f"agent {i} has {h.shape[0]} feature rows but labels of shape {y.shape}")
        self._hold(np.vstack(feats), np.concatenate(labs), [h.shape[0] for h in feats], eta)

    @classmethod
    def from_pooled(cls, h_all, y_all, sizes, eta: float = 0.0) -> "LogisticEnsemble":
        """The ensemble whose agent i owns the next ``sizes[i]`` rows of the
        pooled (m, d) features ``h_all`` and labels ``y_all``; both arrays are
        kept as they are, not copied."""
        e = cls.__new__(cls)
        e._hold(h_all, y_all, list(sizes), eta)
        return e

    def _hold(self, h_all, y_all, sizes, eta):
        if eta < 0:
            raise CostError("penalty eta must be >= 0")
        if min(sizes) < 1:
            raise CostError("each agent needs at least one sample")
        if not np.all(np.isin(y_all, (-1.0, 1.0))):
            raise CostError("labels must be +1 or -1")
        self.n = len(sizes)
        self.d = int(h_all.shape[1])
        self.eta = float(eta)
        self._smoothness = None
        # the pooled data is the only copy: each agent's arrays are row views
        self._h_all = h_all
        self._y_all = y_all
        cuts = np.cumsum(sizes)[:-1]
        self.features = np.split(self._h_all, cuts)
        self.labels = np.split(self._y_all, cuts)
        self._w_all = np.repeat([1.0 / (self.n * m) for m in sizes], sizes)
        self._yw_all = self._y_all * self._w_all

    def _penalty_grad(self, x):
        return self.eta * 2.0 * x / (1.0 + x * x) ** 2

    def _penalty_value(self, x):
        return self.eta * float(np.sum(x * x / (1.0 + x * x)))

    def grad_local(self, i, x):
        _check_finite(x)
        return self.grad_batch(i, x, slice(None))

    def value_local(self, i, x):
        self._validate_agent(i)
        h, y = self.features[i], self.labels[i]
        margins = y * (h @ x)
        return float(np.mean(np.logaddexp(0.0, -margins))) + self._penalty_value(x)

    def grad_batch(self, i, x, idx):
        """Mini-batch gradient of agent i over sample indices ``idx``."""
        self._validate_agent(i)
        h = self.features[i][idx]
        y = self.labels[i][idx]
        margins = y * (h @ x)
        sig = _sigmoid(-margins)
        data = -(h.T @ (y * sig)) / len(h)
        return data + self._penalty_grad(x)

    @_per_slice(1)
    def grad_global(self, x):
        margins = self._y_all * (self._h_all @ x)
        sig = _sigmoid(-margins)
        data = -(self._h_all.T @ (self._yw_all * sig))
        return data + self._penalty_grad(x)

    @_per_slice(2)
    def grad_global_all(self, x_rows):
        # the pooled rows in tiles of TILE through one (n, TILE) buffer:
        # margins, then y w sigmoid(-margin) in place as y w / (1 + exp(margin)),
        # the form of _sigmoid, then its product with the tile's rows, the
        # first assigned and each later one added
        n = len(x_rows)
        buf = np.empty(n * min(TILE, len(self._y_all)))
        data = None
        with np.errstate(over="ignore"):
            for lo in range(0, len(self._y_all), TILE):
                h = self._h_all[lo:lo + TILE]
                z = np.matmul(x_rows, h.T, out=buf[:n * len(h)].reshape(n, len(h)))
                z *= self._y_all[lo:lo + TILE]
                np.exp(z, out=z)
                z += 1.0
                np.divide(self._yw_all[lo:lo + TILE], z, out=z)
                if data is None:
                    data = z @ h
                else:
                    data += z @ h
        return -data + self._penalty_grad(x_rows)

    @_per_slice(1)
    def value_global(self, x):
        margins = self._y_all * (self._h_all @ x)
        return float(np.sum(self._w_all * np.logaddexp(0.0, -margins))) + self._penalty_value(x)

    def sample_count(self, i):
        return self.features[i].shape[0]

    def smoothness(self):
        # data term: (1/4m_i) lam_max(H_i'H_i); penalty curvature peaks at 2 per coordinate
        if self._smoothness is None:
            worst = 0.0
            for h in self.features:
                s = np.linalg.svd(h, compute_uv=False)[0]
                worst = max(worst, float(s * s) / (4.0 * h.shape[0]))
            self._smoothness = worst + 2.0 * self.eta
        return self._smoothness


def make_synthetic_quadratics(
    n: int,
    d: int,
    profile: str = "a",
    sparsity: float = 0.1,
    seed: int = 0,
    mu0: float = 0.1,
) -> QuadraticEnsemble:
    """Random quadratic ensembles, A_i = F_i F_i' + mu0 I with sparse F_i.

    F_i entries are Gaussian under a Bernoulli(sparsity) mask, scaled so the
    data part of the spectrum stays O(1) regardless of d. Two heterogeneity
    profiles:

    - ``"a"``: per-agent A_i, b_i ~ N(0, (i+1) I) for agent i (0-based), so
      agent noise levels grow linearly across the network;
    - ``"b"``: one shared A, b_i = beta_i * ones with beta drawn from
      {-2, -1, 0, 1, 3} in equal proportion (requires n divisible by 5).
    """
    if d < 1:
        raise CostError("dimension must be >= 1")
    if not (0.0 < sparsity <= 1.0):
        raise CostError("sparsity must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(max(1.0, sparsity * d))

    def sample_psd():
        f = rng.standard_normal((d, d)) * (rng.random((d, d)) < sparsity) * scale
        return f @ f.T + mu0 * np.eye(d)

    if profile == "a":
        a = np.stack([sample_psd() for _ in range(n)])
        b = np.stack([np.sqrt(i + 1.0) * rng.standard_normal(d) for i in range(n)])
        return QuadraticEnsemble(a, b)
    if profile == "b":
        if n % 5 != 0:
            raise CostError("profile 'b' assigns {-2,-1,0,1,3} in equal proportion; n must be divisible by 5")
        a = sample_psd()
        betas = np.repeat(np.array([-2.0, -1.0, 0.0, 1.0, 3.0]), n // 5)
        rng.shuffle(betas)
        b = betas[:, None] * np.ones((n, d))
        return QuadraticEnsemble(a, b)
    raise CostError(f"unknown heterogeneity profile {profile!r}")


def save_ensemble_json(e: QuadraticEnsemble, path) -> None:
    """Serialize a quadratic ensemble (matrices row-major) for replay."""
    if e.kind != "quadratic":
        raise CostError(f"cannot serialize ensemble kind {e.kind!r}: only quadratics replay from JSON")
    payload = {"kind": "quadratic", "shared_a": e.shared_a, "a": e.a.tolist(), "b": e.b.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_ensemble_json(path) -> QuadraticEnsemble:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CostError(f"invalid JSON: {exc}") from exc
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind != "quadratic":
        raise CostError(f"a JSON ensemble must be quadratic, not kind {kind!r}")
    if not {"a", "b"} <= payload.keys():
        raise CostError("a quadratic JSON ensemble needs both 'a' and 'b'")
    return QuadraticEnsemble(np.array(payload["a"]), np.array(payload["b"]))
