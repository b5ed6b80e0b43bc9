"""LIBSVM-format parsing and uniform splitting across agents.

The sparse text format is one sample per line: a label followed by
``index:value`` pairs with strictly increasing 1-based indices and finite
values. Labels are normalized to {+1, -1} (0/1 sources map 0 to -1). A parsed
corpus is held as CSR arrays with 0-based indices; the feature dimension is
the corpus-wide max index so all agents share one model dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .costs import LogisticEnsemble

__all__ = [
    "ParseError",
    "LabeledDataset",
    "parse_libsvm",
    "load_libsvm",
    "to_text",
    "split_uniform",
    "maxabs_scale",
    "to_logistic_ensemble",
]


class ParseError(ValueError):
    """Malformed LIBSVM input; carries the 1-based source line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Labeled sparse rows in CSR form, with 0-based feature indices.

    Row r has label ``labels[r]`` (+1 or -1) and the features
    ``indices[indptr[r]:indptr[r + 1]]``, strictly increasing, with values
    ``values[indptr[r]:indptr[r + 1]]``.
    """

    labels: np.ndarray  # (m,) int64
    indptr: np.ndarray  # (m + 1,) int64
    indices: np.ndarray  # (nnz,) int64
    values: np.ndarray  # (nnz,) float64
    d: int

    @property
    def m(self) -> int:
        return len(self.labels)

    @property
    def rows(self) -> tuple:
        """The rows as (label, {feature index: value}) pairs, built on each read."""
        labels, ptr = self.labels.tolist(), self.indptr.tolist()
        idx, val = self.indices.tolist(), self.values.tolist()
        return tuple(
            (labels[r], dict(zip(idx[ptr[r]:ptr[r + 1]], val[ptr[r]:ptr[r + 1]])))
            for r in range(self.m)
        )

    def take(self, rows) -> "LabeledDataset":
        """The dataset of the given row ids, in that order."""
        start = self.indptr[rows]
        count = self.indptr[rows + 1] - start
        indptr = _offsets(count)
        pos = np.arange(indptr[-1]) + np.repeat(start - indptr[:-1], count)
        return LabeledDataset(self.labels[rows], indptr, self.indices[pos], self.values[pos], self.d)


def _offsets(count):
    """CSR row offsets of rows holding ``count`` entries each."""
    indptr = np.zeros(len(count) + 1, dtype=np.int64)
    np.cumsum(count, out=indptr[1:])
    return indptr


_MAX_INDEX = np.iinfo(np.int64).max
_CHUNK_ROWS = 4096  # rows parsed per array conversion


def _parse_label(token: str, line_no: int) -> int:
    try:
        val = float(token)
    except ValueError:
        raise ParseError(line_no, f"bad label {token!r}") from None
    if val == 1.0:
        return 1
    if val == -1.0 or val == 0.0:
        return -1
    raise ParseError(line_no, f"label must be one of -1, 0, +1, got {token!r}")


def _csr(rows):
    """(labels, pair counts, indices, values) of parsed rows, or None if any
    row is malformed. The checks are the ones :func:`_raise_fault` words for
    one line."""
    count = np.fromiter((n for *_, n in rows), dtype=np.int64, count=len(rows))
    n_pairs = int(count.sum())
    joined = " ".join(pairs for _, _, pairs, n in rows if n)
    halves = joined.replace(":", " ").split()
    raw = np.frombuffer(joined.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    spaces, colons = np.flatnonzero(raw == ord(" ")), np.flatnonzero(raw == ord(":"))
    # pair k holds the k-th colon and no other, with text on both sides of it
    if len(halves) != 2 * n_pairs or not np.array_equal(
            np.searchsorted(spaces, colons), np.arange(n_pairs)):
        return None
    try:
        label = np.array([label for _, label, _, _ in rows], dtype=np.float64)
        idx = np.array(halves[0::2], dtype=np.int64)
        val = np.array(halves[1::2], dtype=np.float64)
    except (ValueError, OverflowError):
        return None
    indptr = _offsets(count)
    prev = np.zeros_like(idx)
    prev[1:] = idx[:-1]
    prev[indptr[:-1][count > 0]] = 0  # each row's first index only needs to be >= 1
    if not (np.isin(label, (1.0, -1.0, 0.0)).all() and (idx > prev).all()
            and np.isfinite(val).all()):
        return None
    return np.where(label == 1.0, 1, -1), count, idx - 1, val


def _raise_fault(line_no: int, tokens) -> None:
    """Raise the error for the first fault on one line that :func:`_csr`
    rejects: a bad label or pair in token order, else a non-finite value or
    an index beyond int64, whichever comes first."""
    _parse_label(tokens[0], line_no)
    checked = []
    prev_idx = 0
    for tok in tokens[1:]:
        if ":" not in tok:
            raise ParseError(line_no, f"malformed index:value pair {tok!r}")
        idx_s, val_s = tok.split(":", 1)
        try:
            idx = int(idx_s)
        except ValueError:
            raise ParseError(line_no, f"non-integer feature index {idx_s!r}") from None
        try:
            val = float(val_s)
        except ValueError:
            raise ParseError(line_no, f"non-numeric feature value {val_s!r}") from None
        if idx < 1:
            raise ParseError(line_no, f"feature indices are 1-based, got {idx}")
        if idx <= prev_idx:
            raise ParseError(line_no, f"indices must be strictly increasing, got {idx} after {prev_idx}")
        prev_idx = idx
        checked.append((idx, val_s, val))
    for idx, val_s, val in checked:
        if not math.isfinite(val):
            raise ParseError(line_no, f"non-finite feature value {val_s!r}")
        if idx > _MAX_INDEX:
            raise ParseError(line_no, f"feature index {idx} does not fit in int64")
    raise AssertionError(f"line {line_no} passes every check")


def _raise_first_fault(rows):
    """Raise the error of the first malformed row of ``rows``, which :func:`_csr`
    rejects: each row is checked alone, so halving finds it."""
    lo, hi = 0, len(rows)  # rows[:lo] are well formed; rows[lo:hi] are not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _csr(rows[lo:mid]) is None:
            hi = mid
        else:
            lo = mid
    line_no, label, pairs, _ = rows[lo]
    _raise_fault(line_no, [label] + pairs.split())


def parse_libsvm(source, d: int | None = None) -> LabeledDataset:
    """Parse LIBSVM text (a string or an iterable of lines).

    Blank lines are skipped and a ``#`` comment suffix is ignored. Each line
    is split once; the tokens of each chunk of ``_CHUNK_ROWS`` rows are then
    converted and checked as arrays. Malformed pairs, non-numeric or
    non-finite values, and non-increasing indices raise :class:`ParseError`
    with the number of the first offending line. ``d`` overrides the
    inferred feature dimension (must cover every index seen).
    """
    if isinstance(source, str):
        # universal newlines, as a text-mode file read splits: \n, \r\n and \r
        lines = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    else:
        lines = source
    # (line number, label, its pairs joined by single spaces, pair count) of
    # each row; a line's tokens are dropped as soon as its row is built
    split = (line.split("#", 1)[0].split() for line in lines)
    rows = ((line_no, tokens[0], " ".join(tokens[1:]), len(tokens) - 1)
            for line_no, tokens in enumerate(split, start=1) if tokens)
    # rows are converted a chunk at a time, so only one chunk's text is held
    chunks = []
    while True:
        chunk = list(islice(rows, _CHUNK_ROWS))
        csr = _csr(chunk)
        if csr is None:
            _raise_first_fault(chunk)
        chunks.append(csr)
        if len(chunk) < _CHUNK_ROWS:
            break
    labels, counts, indices, values = (np.concatenate(a) for a in zip(*chunks))
    indptr = _offsets(counts)
    max_idx = int(indices.max()) + 1 if len(indices) else 0
    if d is None:
        d = max_idx
    elif d < max_idx:
        raise ParseError(0, f"d override {d} smaller than max feature index {max_idx}")
    return LabeledDataset(labels, indptr, indices, values, d)


def load_libsvm(path, d: int | None = None) -> LabeledDataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh, d=d)


def to_text(ds: LabeledDataset) -> str:
    """Serialize back to canonical LIBSVM text (round-trips with parse)."""
    lines = []
    for label, feats in ds.rows:
        parts = ["+1" if label > 0 else "-1"]
        for idx in sorted(feats):
            parts.append(f"{idx + 1}:{feats[idx]!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def split_uniform(ds: LabeledDataset, n: int, seed: int = 0):
    """Split into n near-equal parts: seeded permutation, then contiguous chunks.

    The first ``m mod n`` agents receive one extra sample; the union of the
    outputs equals the input multiset.
    """
    if n < 1:
        raise ValueError("need at least one agent")
    if n > ds.m:
        raise ValueError(f"too few samples: cannot split {ds.m} rows across {n} agents")
    perm = np.random.default_rng(seed).permutation(ds.m)
    base, extra = divmod(ds.m, n)
    cuts = np.cumsum([base + (1 if i < extra else 0) for i in range(n)])[:-1]
    return [ds.take(chunk) for chunk in np.split(perm, cuts)]


def maxabs_scale(ds: LabeledDataset) -> LabeledDataset:
    """Optional per-coordinate max-abs feature scaling (off by default)."""
    scale = np.zeros(ds.d)
    np.maximum.at(scale, ds.indices, np.abs(ds.values))
    scale[scale == 0.0] = 1.0
    return LabeledDataset(ds.labels, ds.indptr, ds.indices, ds.values / scale[ds.indices], ds.d)


def to_logistic_ensemble(parts, eta: float = 0.0, d: int | None = None) -> LogisticEnsemble:
    """Densify per-agent datasets into a logistic cost ensemble: each part's
    entries are scattered into its rows of the pooled (m, d) features it keeps."""
    if d is None:
        d = max(p.d for p in parts)
    sizes = [p.m for p in parts]
    h = np.zeros((sum(sizes), d))
    start = 0
    for p in parts:
        rows = np.repeat(np.arange(start, start + p.m), np.diff(p.indptr))
        h[rows, p.indices] = p.values
        start += p.m
    y = np.concatenate([p.labels for p in parts]).astype(float)
    return LogisticEnsemble.from_pooled(h, y, sizes, eta=eta)
