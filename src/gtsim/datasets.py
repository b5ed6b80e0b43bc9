"""LIBSVM-format parsing and uniform splitting across agents.

The sparse text format is one sample per line: a label followed by
``index:value`` pairs with strictly increasing 1-based indices and finite
values. Labels are normalized to {+1, -1} (0/1 sources map 0 to -1). A parsed
corpus is held as CSR arrays with 0-based indices; the feature dimension is
the corpus-wide max index so all agents share one model dimension.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass
from itertools import islice

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
_CHUNK_ROWS = 4096  # source lines tokenized and converted together

# the whitespace characters beyond ASCII that str.split() splits on, each of
# which a chunk turns into a space before it tokenizes its bytes
_WIDE_SPACES = tuple(c.encode("utf-8") for c in (
    "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000"))
_COMMENT = re.compile(rb"#[^\n]*")
# the most ASCII digits whose value is exact in int64
_HORNER_DIGITS = 18


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


def _clean(buf: bytes) -> bytes:
    """Whole lines of UTF-8 text with each ``#`` comment cut and every
    whitespace character beyond ASCII turned into a space, so that ASCII
    whitespace alone separates tokens. Line breaks stay where they are."""
    if b"#" in buf:
        buf = _COMMENT.sub(b"", buf)
    if not buf.isascii():
        # UTF-8 is self-synchronizing: a character's bytes only match at its start
        for space in _WIDE_SPACES:
            buf = buf.replace(space, b" ")
    return buf


def _numbers(buf: bytes, start, end, dtype):
    """The numbers that the tokens ``buf[start:end]`` spell, as ``int``
    (dtype int64) or ``float`` (float64) reads them, or None if one of them is
    not such a number or is an int beyond int64.

    A token of an optional sign and at most ``_HORNER_DIGITS`` ASCII digits is
    decoded by Horner's rule, exact in int64; a float is that integer rounded
    once, as ``float`` rounds its decimal. Every other token goes through
    numpy's conversion of its text, which follows ``int`` and ``float``.
    """
    raw = np.frombuffer(buf, dtype=np.uint8)
    digit = raw - ord("0")  # 0 to 9 at an ASCII digit, more at any other byte
    lead = raw[start]
    neg = lead == ord("-")
    first = start + (neg | (lead == ord("+")))
    width = end - first
    plain = (width >= 1) & (width <= _HORNER_DIGITS)
    acc = np.zeros(len(start), dtype=np.int64)
    # each token right-aligned in the columns of the widest, zeros to its left
    for j in range(min(int(width.max(initial=0)), _HORNER_DIGITS), 0, -1):
        d = digit.take(end - j, mode="clip")
        inside = width >= j
        plain &= (d <= 9) | ~inside
        acc *= 10
        acc += np.where(inside, d, 0)
    if dtype is np.int64:
        out = np.negative(acc, out=acc, where=neg)
    else:
        out = acc.astype(np.float64)
        np.negative(out, out=out, where=neg)  # "-0" is -0.0
    slow = np.flatnonzero(~plain)
    if len(slow):
        text = [buf[a:b].decode("utf-8", "surrogatepass")
                for a, b in zip(start[slow].tolist(), end[slow].tolist())]
        try:
            out[slow] = np.array(text, dtype=dtype)
        except (ValueError, OverflowError):
            return None
    return out


def _csr(buf: bytes):
    """(labels, pair counts, indices, values) of the rows of ``buf``, whole
    lines from :func:`_clean`, or None if any row is malformed. The checks are
    the ones :func:`_raise_fault` words for one line."""
    raw = np.frombuffer(buf, dtype=np.uint8)
    # a token is a maximal run of bytes other than ASCII whitespace: \t, \n,
    # \v, \f, \r, \x1c to \x1f and the space; buf ends in a line break
    word = (raw != ord(" ")) & ((raw - 0x09) > 4) & ((raw - 0x1C) > 3)
    bounds = np.flatnonzero(np.diff(word, prepend=False))
    start, end = bounds[0::2], bounds[1::2]
    # the first token after each line break is a label, the others are pairs
    head = np.zeros(len(start) + 1, dtype=bool)
    head[np.searchsorted(start, np.flatnonzero(raw == ord("\n")))] = True
    head[0] = True
    head = head[:-1]
    heads = np.flatnonzero(head)
    count = np.diff(heads, append=len(start)) - 1
    p_start, p_end = start[~head], end[~head]
    # pair k holds the k-th colon and no other
    colon = np.flatnonzero(raw == ord(":"))
    if len(colon) != len(p_start) or not ((p_start <= colon) & (colon < p_end)).all():
        return None
    label = _numbers(buf, start[heads], end[heads], np.float64)
    idx = _numbers(buf, p_start, colon, np.int64)
    val = _numbers(buf, colon + 1, p_end, np.float64)
    if label is None or idx is None or val is None:
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
    """Raise the error for the first fault of one line's ``tokens``, if
    :func:`_csr` would reject the line: a bad label or pair in token order,
    else a non-finite value or an index beyond int64, whichever comes first.
    Return if the line is well formed."""
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


def _raise_first_fault(buf: bytes, line_no: int):
    """Raise the error of the first malformed line of ``buf``, a chunk that
    :func:`_csr` rejects whose first line is ``line_no``."""
    for k, line in enumerate(buf.decode("utf-8", "surrogatepass").split("\n")):
        tokens = line.split()
        if tokens:  # a blank line holds no row
            _raise_fault(line_no + k, tokens)
    raise AssertionError(f"every line of the chunk from line {line_no} is well formed")


def _joined(pieces: list) -> np.ndarray:
    """The concatenation of ``pieces``, which are dropped as it is made."""
    out = np.concatenate(pieces)
    pieces.clear()
    return out


def _parse(chunks):
    """The dataset of ``chunks``: UTF-8 bytes of whole lines, each ended by a
    ``\\n``, that together hold the source in order."""
    columns = ([], [], [], [])  # labels, pair counts, indices, values
    line_no = 1
    for buf in chunks:
        buf = _clean(buf)
        csr = _csr(buf)
        if csr is None:
            _raise_first_fault(buf, line_no)
        for column, part in zip(columns, csr):
            column.append(part)
        line_no += buf.count(b"\n")
    labels, counts, indices, values = map(_joined, columns)
    indptr = _offsets(counts)
    d = int(indices.max()) + 1 if len(indices) else 0
    return LabeledDataset(labels, indptr, indices, values, d)


def _text_chunks(lines):
    """Chunks of ``_CHUNK_ROWS`` text lines each. A line break inside a line
    separates tokens like any whitespace."""
    lines = iter(lines)
    while True:
        chunk = list(islice(lines, _CHUNK_ROWS))
        text = "".join(line.replace("\n", " ") + "\n" for line in chunk)
        yield text.encode("utf-8", "surrogatepass")
        if len(chunk) < _CHUNK_ROWS:
            return


def parse_libsvm(source) -> LabeledDataset:
    """Parse LIBSVM text (a string or an iterable of lines).

    A string splits into lines at universal newlines, as a text-mode file
    read splits. Blank lines are skipped and a ``#`` comment suffix is
    ignored. The lines are read in chunks of ``_CHUNK_ROWS``, and numpy
    tokenizes and converts each chunk's bytes as arrays. Malformed pairs,
    non-numeric or non-finite values, and non-increasing indices raise
    :class:`ParseError` with the number of the first offending line. The
    feature dimension is the largest index seen.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    return _parse(_text_chunks(source))


def load_libsvm(path) -> LabeledDataset:
    """Parse the LIBSVM file at ``path``, UTF-8 text with universal newlines,
    holding one chunk of its lines at a time."""
    with open(path, encoding="utf-8") as fh:
        return parse_libsvm(fh)


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


def to_logistic_ensemble(parts, eta: float = 0.0) -> LogisticEnsemble:
    """Pool per-agent datasets into a logistic cost ensemble: the parts' CSR
    arrays, joined in order, d the largest of the parts' dimensions. The
    features stay sparse; the ensemble densifies the rows it reads."""
    counts = np.concatenate([np.diff(p.indptr) for p in parts])
    return LogisticEnsemble.from_pooled(
        np.concatenate([p.labels for p in parts]).astype(float), _offsets(counts),
        np.concatenate([p.indices for p in parts]), np.concatenate([p.values for p in parts]),
        max(p.d for p in parts), [p.m for p in parts], eta=eta)
