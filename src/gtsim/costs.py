"""Per-agent differentiable cost ensembles.

Two families are provided: heterogeneous quadratics ``f_i(x) = x'A_i x/2 + b_i'x``
and binary logistic regression with a bounded non-convex penalty
``eta * sum_k x_k^2 / (1 + x_k^2)``. Both expose exact local/global gradients,
a global smoothness constant, and (for quadratics) the closed-form optimum.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "CostError",
    "CostEnsemble",
    "QuadraticEnsemble",
    "LogisticEnsemble",
    "PANEL",
    "GRAD_SLICES",
    "VALUE_POINTS",
    "TILE",
    "make_synthetic_quadratics",
    "save_ensemble_json",
    "load_ensemble_json",
]

SYMMETRY_ATOL = 1e-12

# runs per panel of a per-agent quadratic's gradient products
PANEL = 8

# pooled rows per tile of the logistic global evaluations. A call densifies
# each tile of the sparse rows once into one (TILE, d) buffer, which every
# panel's GEMMs read. On the a9a shape (n = 50, m = 32 561, d = 123), a
# grad_global_all call on 12 slices over the dense (m, d) matrix that the
# buffer replaced took, as the median of 15 on each vCPU of a 2-vCPU x86-64
# host with one OpenBLAS thread:
#   rows   256   512   1024   2048   4096
#   ms     248   248    260    266    279
# A tile is OpenBLAS's packed operand, whose pages stay resident: the first
# call raised the process's peak RSS by about 0.8 MB at 256 rows and by 2.5 to
# 5.6 MB at 2048. Keep 256: any other height reorders the sums over the rows
TILE = 256

# heights of the logistic global evaluations' panels: GRAD_SLICES (n, d)
# slices of the gradients, VALUE_POINTS points of the values. At one GEMM
# shape of two or more rows, OpenBLAS gives a row the same bits in every
# position of a panel and beside any panel-mates; a product of one row goes
# through GEMV instead, whose bits differ. The engine asks for the values of
# a block's chunk of iterations at once, so a one-run block of up to 16
# iterations walks the tiles with one panel
GRAD_SLICES = 4
VALUE_POINTS = 16


class CostError(ValueError):
    """Invalid cost construction or evaluation request."""


def _check_finite(x):
    if not np.all(np.isfinite(x)):
        raise CostError("non-finite input to gradient evaluation")


def _vector(name, a, dtype):
    """``a`` as a 1-D array of ``dtype``, the array itself where it is one;
    a CostError names the argument that is not. An integer dtype takes
    integers only, not floats that it would truncate."""
    try:
        v = np.asarray(a)
        if np.issubdtype(dtype, np.integer) and v.size and v.dtype.kind not in "iu":
            raise TypeError(f"{v.dtype} entries")
        v = v.astype(dtype, copy=False)
    except (TypeError, ValueError) as exc:
        raise CostError(f"{name} must be a 1-D array of {np.dtype(dtype)}: {exc}") from None
    if v.ndim != 1:
        raise CostError(f"{name} must be a 1-D array of {np.dtype(dtype)}, not of shape {v.shape}")
    return v


def _sigmoid(v):
    """The logistic sigmoid 1 / (1 + exp(-v)); an exp that overflows to inf
    gives the exact limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-v))


class CostEnsemble:
    """Common surface of an ensemble of n agent costs on R^d.

    ``grad_all`` and ``grad_global_all`` take one (n, d) array of models or
    a stack of them (leading axes); ``grad_global`` and ``value_global`` take
    one point (d,) or a stack of points. Each slice of a stack is computed
    bitwise as a call on it alone, whether the family loops over the slices
    or stacks them into products of a fixed shape.

    ``panel_width`` is the number of runs the engine groups into one panel.
    It holds a block's state in ``slot_memory``, with the block size rounded
    up to a multiple of the width and the slots past the block zero-padded,
    and passes ``grad_all`` the (S, n, d) stack of slots. Width 1 holds the
    (B, n, d) block as it is.

    Every array an ensemble holds is read-only, those of a cached result
    too, so a stray in-place write raises instead of changing the costs;
    an unpickled ensemble, as each pool worker gets it, is read-only again.
    """

    kind = "abstract"
    panel_width = 1
    n: int
    d: int

    def _freeze(self):
        """Mark every array the ensemble holds, or holds in a tuple,
        read-only."""
        for v in vars(self).values():
            for a in v if isinstance(v, tuple) else (v,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False

    def __setstate__(self, state):
        # a pickle does not keep the read-only flags
        self.__dict__.update(state)
        self._freeze()

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

    def grad_all(self, x_rows: np.ndarray) -> np.ndarray:
        """Local gradient of each agent at its own row of each (n, d) slice
        of ``x_rows``."""
        runs = x_rows.reshape(-1, self.n, self.d)
        g = np.array([[self.grad_local(i, x[i]) for i in range(self.n)] for x in runs])
        return g.reshape(x_rows.shape)

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
        if not self.shared_a:
            self.panel_width = PANEL
            # A_i' rather than A_i: symmetry is checked only to 1e-12
            self._a_t = np.ascontiguousarray(a.transpose(0, 2, 1))[:, None]
            # b_i repeated over the slots of a panel: added in one dense pass,
            # which takes a fifth of the time of adding b broadcast
            self._b_panel = np.repeat(self.b[:, None, None], PANEL, axis=2)
        self._a_bar = a if self.shared_a else a.mean(axis=0)
        self._b_bar = b.mean(axis=0)
        self._smoothness = None
        self._mu = None
        self._optimum = None
        self._solved = False
        self._freeze()

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
            self._optimum = (x_star, self.value_global(x_star))
            self._freeze()
        return self._optimum


class LogisticEnsemble(CostEnsemble):
    """Logistic regression with non-convex per-coordinate penalty.

    f_i(x) = (1/m_i) sum_r log(1 + exp(-y_r <h_r, x>)) + eta sum_k x_k^2/(1+x_k^2)

    The agents' data is pooled into one label vector and sparse rows, given
    as CSR arrays: pooled row r has label ``labels[r]`` and the features
    ``indices[indptr[r]:indptr[r + 1]]``, 0-based and below ``d``, with
    values ``values[indptr[r]:indptr[r + 1]]``, and agent i owns the next
    ``sizes[i]`` rows. Any array-like is taken: labels and values as float64,
    row pointers and indices as int64 (integers only). The values, row
    pointers and labels are kept, not copied, as views where they already
    are such arrays; each index becomes its offset ``r d + k`` in the
    row-major layout of the (m, d) feature matrix. An evaluation densifies
    only the rows it reads, each at its offset less that of its first row.

    The global evaluations stack their points into zero-padded panels of a
    fixed height: GRAD_SLICES (n, d) slices, 4n rows, for ``grad_global`` and
    ``grad_global_all``, and VALUE_POINTS points for ``value_global``. A call
    walks the pooled rows in tiles of TILE rows, each densified once into one
    (TILE, d) buffer and multiplied there by its rows' labels, so that every
    panel's product with it is the margins y <h, x>, written into one
    (TILE, height) buffer. So every product of a call has one shape, one pass
    over the rows serves every panel, and a call holds those buffers, not an
    (n, m) or (m, d) one. A row's bits do not depend on its panel position or
    panel-mates, so a slice or point alone, padded into a panel of its own,
    gets the bits it gets in any stack. At n >= 2 and d >= 2 a corpus of at
    most TILE rows gets the gradients of one (n, m) buffer, bit for bit; on
    more tiles only the order of the sum over the rows differs.
    """

    kind = "logistic"

    def __init__(self, labels, indptr, indices, values, d, sizes, eta: float = 0.0):
        labels, values = _vector("labels", labels, float), _vector("values", values, float)
        indptr, indices = _vector("indptr", indptr, np.int64), _vector("indices", indices, np.int64)
        sizes = list(sizes)
        if not sizes:
            raise CostError("need at least one agent")
        if eta < 0:
            raise CostError("penalty eta must be >= 0")
        if min(sizes) < 1:
            raise CostError("each agent needs at least one sample")
        if sum(sizes) != len(labels) or len(indptr) != len(labels) + 1:
            raise CostError(f"agent sizes summing to {sum(sizes)} for {len(labels)} labels "
                            f"and {len(indptr) - 1} rows")
        if indptr[0] != 0:
            raise CostError(f"row pointers must start at 0, not {indptr[0]}")
        counts = np.diff(indptr)
        if np.any(counts < 0):
            raise CostError("row pointers must not decrease")
        if not indptr[-1] == len(indices) == len(values):
            raise CostError(f"{indptr[-1]} stored features by the row pointers, "
                            f"{len(indices)} indices and {len(values)} values")
        if len(indices) and (indices.min() < 0 or indices.max() >= d):
            raise CostError(f"feature indices must lie in [0, {d})")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise CostError("labels must be +1 or -1")
        self.n = len(sizes)
        self.d = int(d)
        self.eta = float(eta)
        self._smoothness = None
        # views, so that freezing them leaves the caller's arrays writeable;
        # agent i owns pooled rows _starts[i] to _starts[i + 1]
        self._values = values.view()
        self._offsets = np.repeat(np.arange(len(counts)) * self.d, counts)
        self._offsets += indices
        self._indptr = indptr.view()
        self._y_all = labels.view()
        self._starts = np.concatenate([[0], np.cumsum(sizes)])
        self._w_all = np.repeat([1.0 / (self.n * m) for m in sizes], sizes)
        self._freeze()

    def _scatter(self, lo, hi, out):
        """Write the features of pooled rows lo to hi into ``out``, a zeroed
        contiguous array of (hi - lo) d entries, and return the offsets
        written."""
        a, b = self._indptr[lo], self._indptr[hi]
        at = self._offsets[a:b] - lo * self.d
        out.reshape(-1)[at] = self._values[a:b]
        return at

    def _dense_rows(self, rows):
        """The (len(rows), d) features of the pooled rows ``rows``, in their
        order, written in one scatter: stored entry p of pooled row r goes
        from offset r d + k to j d + k, where r is ``rows[j]``."""
        first, counts = self._indptr[rows], np.diff(self._indptr)[rows]
        # stored entry q of the batch is entry at[q] of the CSR arrays
        at = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        shift = np.repeat((np.arange(len(rows)) - rows) * self.d, counts)
        out = np.zeros((len(rows), self.d))
        out.reshape(-1)[self._offsets[at] + shift] = self._values[at]
        return out

    def _rows_of(self, i):
        self._validate_agent(i)
        return int(self._starts[i]), int(self._starts[i + 1])

    def _penalty_grad(self, x):
        return self.eta * 2.0 * x / (1.0 + x * x) ** 2

    def _penalty_value(self, x):
        return self.eta * np.sum(x * x / (1.0 + x * x), axis=-1)

    def grad_local(self, i, x):
        _check_finite(x)
        return self.grad_batch(i, x, np.arange(self.sample_count(i)))

    def value_local(self, i, x):
        lo, hi = self._rows_of(i)
        margins = self._y_all[lo:hi] * (self._dense_rows(np.arange(lo, hi)) @ x)
        return float(np.mean(np.logaddexp(0.0, -margins)) + self._penalty_value(x))

    def grad_batch(self, i, x, idx):
        """Mini-batch gradients: for agents ``i`` at points ``x`` (..., d),
        over the local sample indices ``idx`` (..., k), each in [0, m_i). The
        agents, points and index rows broadcast over their leading axes; the
        result is one (d,) gradient per batch, (*lead, d).

        Every batch row is densified once into one (*lead, k, d) buffer, and
        the margins and data sums are stacked products, for which numpy makes
        per batch the BLAS call that a batch alone makes: a batch's gradient
        has the same bits in any stack, and one call serves a whole block."""
        i, x, idx = np.asarray(i), np.asarray(x, dtype=float), np.asarray(idx)
        if i.size and (i.min() < 0 or i.max() >= self.n):
            raise CostError(f"agent index out of range for n={self.n}")
        lo, k = self._starts[i][..., None], idx.shape[-1]
        if idx.size and (idx.min() < 0 or np.any(idx >= self._starts[i + 1][..., None] - lo)):
            raise CostError("sample index outside its agent's local dataset")
        lead = np.broadcast_shapes(i.shape, x.shape[:-1], idx.shape[:-1])
        rows = np.broadcast_to(lo + idx, lead + (k,))
        h = self._dense_rows(rows.reshape(-1)).reshape(rows.shape + (self.d,))
        y = self._y_all[rows]
        margins = y * np.matmul(h, x[..., None])[..., 0]
        sig = _sigmoid(-margins)
        data = -np.matmul(h.swapaxes(-1, -2), (y * sig)[..., None])[..., 0] / k
        return data + self._penalty_grad(x)

    def _tiles(self):
        """The pooled rows as slices of TILE rows."""
        m = len(self._y_all)
        return [slice(lo, min(lo + TILE, m)) for lo in range(0, m, TILE)]

    def _panel_sums(self, rows, height, out, term):
        """``out[r]``, for each row r of ``rows`` (k, d), is the sum over the
        tiles of ``term(z, tile, h)[..., j]``, where r is row j of its
        zero-padded panel of ``height`` rows, h is the tile's features times
        their labels, densified and multiplied once per call into the one
        (TILE, d) buffer, and z the (tile rows, height) margins y <h, x> in
        the one margin buffer. A product by a label of +-1 is exact, so the
        margins and terms have the bits of margins taken unsigned and then
        multiplied by the labels. The margins are the product h x' with the
        panel as OpenBLAS's M operand: as its N operand, a row's bits would
        depend on its panel position wherever a tile ends in a partial block
        of the kernel."""
        panels = np.zeros((-(-len(rows) // height), height, self.d))
        panels.reshape(-1, self.d)[:len(rows)] = rows
        tile = np.zeros((min(TILE, len(self._y_all)), self.d))
        buf = np.empty(height * len(tile))
        totals = []
        for t in self._tiles():
            h = tile[:t.stop - t.start]
            at = self._scatter(t.start, t.stop, h)
            h *= self._y_all[t, None]
            z = buf[:len(h) * height].reshape(len(h), height)
            for p, panel in enumerate(panels):
                np.matmul(h, panel.T, out=z)
                if t.start == 0:
                    totals.append(term(z, t, h))
                else:
                    totals[p] += term(z, t, h)
            h.reshape(-1)[at] = 0.0
        for p, total in enumerate(totals):
            k = min(height, len(rows) - p * height)
            out[p * height:p * height + k] = total[..., :k].T
        return out

    def _grad_term(self, z, t, h):
        # w sigmoid(-margin) in place as w / (1 + exp(margin)), the form of
        # _sigmoid, then its product with the tile's labelled rows
        np.exp(z, out=z)
        z += 1.0
        np.divide(self._w_all[t, None], z, out=z)
        return h.T @ z

    def _value_term(self, z, t, h):
        np.negative(z, out=z)
        np.logaddexp(0.0, z, out=z)
        return self._w_all[t] @ z

    def grad_global(self, x):
        # each point is a row of panels of GRAD_SLICES n rows, so the global
        # gradients at a slice's rows are grad_global_all's bit for bit
        rows = x.reshape(-1, self.d)
        with np.errstate(over="ignore"):
            data = self._panel_sums(rows, GRAD_SLICES * self.n, np.empty_like(rows), self._grad_term)
        return (-data + self._penalty_grad(rows)).reshape(x.shape)

    grad_global_all = grad_global

    def value_global(self, x):
        points = x.reshape(-1, self.d)
        data = self._panel_sums(points, VALUE_POINTS, np.empty(len(points)), self._value_term)
        v = data + self._penalty_value(points)
        return float(v[0]) if x.ndim == 1 else v.reshape(x.shape[:-1])

    def sample_count(self, i):
        lo, hi = self._rows_of(i)
        return hi - lo

    def smoothness(self):
        # data term: (1/4m_i) lam_max(H_i'H_i); penalty curvature peaks at 2 per coordinate
        if self._smoothness is None:
            worst = 0.0
            for i in range(self.n):
                h = self._dense_rows(np.arange(*self._rows_of(i)))
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
