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
from scipy.linalg import cho_factor, cho_solve, LinAlgError
from scipy.special import expit

__all__ = [
    "CostError",
    "CostEnsemble",
    "QuadraticEnsemble",
    "LogisticEnsemble",
    "quadratic_optimum",
    "make_synthetic_quadratics",
    "save_ensemble_json",
    "load_ensemble_json",
]

SYMMETRY_ATOL = 1e-12


class CostError(ValueError):
    """Invalid cost construction or evaluation request."""


def _check_finite(x):
    if not np.all(np.isfinite(x)):
        raise CostError("non-finite input to gradient evaluation")


def _per_slice(core_ndim):
    """Let a method written for one input of ``core_ndim`` axes, (n, d) or
    (d,), take a stack of them: it runs once per slice, so each slice is
    computed as a call on it alone and the memory of one call is unchanged."""

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
    """

    kind = "abstract"
    n: int
    d: int

    def grad_local(self, i: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_local(self, i: int, x: np.ndarray) -> float:
        raise NotImplementedError

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
        self._a_bar = a if self.shared_a else a.mean(axis=0)
        self._b_bar = b.mean(axis=0)
        self._smoothness = None
        self._mu = None

    def _a_of(self, i):
        return self.a if self.shared_a else self.a[i]

    def grad_local(self, i, x):
        self._validate_agent(i)
        _check_finite(x)
        return self._a_of(i) @ x + self.b[i]

    def value_local(self, i, x):
        self._validate_agent(i)
        return float(0.5 * x @ (self._a_of(i) @ x) + self.b[i] @ x)

    def grad_all(self, x_rows):
        if self.shared_a:
            return x_rows @ self.a + self.b
        return np.matmul(self.a, x_rows[..., None])[..., 0] + self.b

    def grad_global(self, x):
        # one matrix-vector BLAS call per point, so a stack gives bitwise what
        # its points give alone; grad_global_all's matrix product does not
        return np.matmul(self._a_bar, x[..., None])[..., 0] + self._b_bar

    def grad_global_all(self, x_rows):
        return x_rows @ self._a_bar + self._b_bar

    def value_global(self, x):
        if x.ndim == 1:
            return float(0.5 * x @ (self._a_bar @ x) + self._b_bar @ x)
        # stacked matmuls run the same BLAS call per point as the 1-D form
        rows = x[..., None, :]
        quad = np.matmul(0.5 * rows, np.matmul(self._a_bar, x[..., None]))
        return (quad + np.matmul(rows, self._b_bar[:, None]))[..., 0, 0]

    def smoothness(self):
        if self._smoothness is None:
            if self.shared_a:
                self._smoothness = float(np.linalg.eigvalsh(self.a)[-1])
            else:
                self._smoothness = float(max(np.linalg.eigvalsh(m)[-1] for m in self.a))
        return self._smoothness

    def pl_constant(self):
        if self._mu is None:
            self._mu = float(np.linalg.eigvalsh(self._a_bar)[0])
        return self._mu if self._mu > 0 else None

    def optimum(self):
        return quadratic_optimum(self)


class LogisticEnsemble(CostEnsemble):
    """Logistic regression with non-convex per-coordinate penalty.

    f_i(x) = (1/m_i) sum_r log(1 + exp(-y_r <h_r, x>)) + eta sum_k x_k^2/(1+x_k^2)
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
        self._validate_agent(i)
        _check_finite(x)
        h, y = self.features[i], self.labels[i]
        margins = y * (h @ x)
        sig = expit(-margins)
        data = -(h.T @ (y * sig)) / h.shape[0]
        return data + self._penalty_grad(x)

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
        # expit, not grad_global_all's exp form: this drives the mini-batch trajectories
        sig = expit(-margins)
        data = -(h.T @ (y * sig)) / len(idx)
        return data + self._penalty_grad(x)

    @_per_slice(1)
    def grad_global(self, x):
        margins = self._y_all * (self._h_all @ x)
        sig = expit(-margins)
        data = -(self._h_all.T @ (self._yw_all * sig))
        return data + self._penalty_grad(x)

    @_per_slice(2)
    def grad_global_all(self, x_rows):
        # one (n, m_total) buffer: margins, then y w expit(-margin) as
        # y w / (1 + exp(margin)), which differs from expit in the last ulp;
        # exp overflowing to inf gives the exact limit 0
        z = x_rows @ self._h_all.T
        z *= self._y_all
        with np.errstate(over="ignore"):
            np.exp(z, out=z)
        z += 1.0
        np.divide(self._yw_all, z, out=z)
        data = -(z @ self._h_all)
        return data + self._penalty_grad(x_rows)

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


def quadratic_optimum(e: QuadraticEnsemble):
    """Solve mean(A) x* = -mean(b) by Cholesky; return (x_star, f_star)."""
    if e.kind != "quadratic":
        raise CostError("closed-form optimum exists only for quadratics")
    try:
        factor = cho_factor(e._a_bar)
    except LinAlgError as exc:
        raise CostError("no unique optimum: average matrix is not positive definite") from exc
    x_star = cho_solve(factor, -e._b_bar)
    return x_star, e.value_global(x_star)


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


def save_ensemble_json(e: CostEnsemble, path) -> None:
    """Serialize an ensemble (matrices row-major) for replay."""
    if e.kind == "quadratic":
        payload = {
            "kind": "quadratic",
            "shared_a": e.shared_a,
            "a": e.a.tolist(),
            "b": e.b.tolist(),
        }
    elif e.kind == "logistic":
        payload = {
            "kind": "logistic",
            "eta": e.eta,
            "agents": [
                {"features": h.tolist(), "labels": y.tolist()}
                for h, y in zip(e.features, e.labels)
            ],
        }
    else:
        raise CostError(f"cannot serialize ensemble kind {e.kind!r}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_ensemble_json(path) -> CostEnsemble:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    kind = payload.get("kind")
    if kind == "quadratic":
        return QuadraticEnsemble(np.array(payload["a"]), np.array(payload["b"]))
    if kind == "logistic":
        feats = [np.array(a["features"]) for a in payload["agents"]]
        labs = [np.array(a["labels"]) for a in payload["agents"]]
        return LogisticEnsemble(feats, labs, eta=payload.get("eta", 0.0))
    raise CostError(f"unknown ensemble kind {kind!r}")
