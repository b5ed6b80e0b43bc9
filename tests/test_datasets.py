import importlib.util
import io
import math
import os
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import util
from gtsim import datasets

FIXTURE = """\
# hand-written fixture: 8 samples, 0/1 and +/-1 labels, comments, blank line
+1 3:0.5 7:1.2
0 1:2.0          # 0/1-style label maps to -1
1 2:1.5 4:-0.25
-1 1:0.125

+1 5:3.0 6:0.5 7:0.75
0 2:-1.0
-1 3:2.25 7:0.5
1 1:1.0 7:2.0
"""


def test_fixture_parses_to_expected_structure():
    ds = datasets.parse_libsvm(FIXTURE)
    assert ds.m == 8
    assert ds.d == 7
    labels = [label for label, _ in ds.rows]
    assert labels == [1, -1, 1, -1, 1, -1, -1, 1]
    # first row: {3:0.5, 7:1.2} in 1-based indices, stored 0-based
    assert ds.rows[0][1] == {2: 0.5, 6: 1.2}
    assert ds.rows[1][1] == {0: 2.0}


def test_basic_line_example():
    ds = datasets.parse_libsvm("+1 3:0.5 7:1.2")
    label, feats = ds.rows[0]
    assert label == 1
    assert feats == {2: 0.5, 6: 1.2}
    assert ds.d >= 7


def test_zero_label_normalizes():
    ds = datasets.parse_libsvm("0 1:2")
    assert ds.rows[0][0] == -1


def test_duplicate_index_rejected_with_line_number():
    with pytest.raises(datasets.ParseError, match="line 1"):
        datasets.parse_libsvm("-1 2:1 2:3")


def test_non_increasing_index_rejected():
    with pytest.raises(datasets.ParseError, match="strictly increasing"):
        datasets.parse_libsvm("+1 5:1 3:1")


def test_malformed_pair_line_number():
    with pytest.raises(datasets.ParseError, match="line 3"):
        datasets.parse_libsvm("+1 1:1\n-1 2:2\n+1 oops\n")


def test_non_numeric_value_rejected():
    with pytest.raises(datasets.ParseError, match="non-numeric"):
        datasets.parse_libsvm("+1 1:abc")


def test_bad_label_rejected():
    with pytest.raises(datasets.ParseError, match="label"):
        datasets.parse_libsvm("2 1:1")


def test_roundtrip_through_canonical_text():
    ds = datasets.parse_libsvm(FIXTURE)
    again = datasets.parse_libsvm(datasets.to_text(ds))
    assert again.rows == ds.rows
    assert again.d == ds.d


def test_split_sizes_remainder_rule():
    ds = datasets.parse_libsvm("\n".join(f"+1 1:{i}.0" for i in range(10)))
    parts = datasets.split_uniform(ds, 3, seed=0)
    assert [p.m for p in parts] == [4, 3, 3]


def test_split_exact_division():
    ds = datasets.parse_libsvm("\n".join(f"+1 1:{i}.0" for i in range(9)))
    parts = datasets.split_uniform(ds, 3, seed=0)
    assert [p.m for p in parts] == [3, 3, 3]


def test_split_deterministic():
    ds = datasets.parse_libsvm("\n".join(f"+1 1:{i}.0" for i in range(12)))
    a = datasets.split_uniform(ds, 4, seed=5)
    b = datasets.split_uniform(ds, 4, seed=5)
    assert all(x.rows == y.rows for x, y in zip(a, b))


def test_split_too_few_samples():
    ds = datasets.parse_libsvm("+1 1:1\n-1 1:2")
    with pytest.raises(ValueError, match="too few samples"):
        datasets.split_uniform(ds, 3)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(min_value=1, max_value=60), n=st.integers(min_value=1, max_value=12),
       seed=st.integers(min_value=0, max_value=1000))
def test_split_conservation(m, n, seed):
    if n > m:
        return
    ds = datasets.parse_libsvm("\n".join(f"+1 1:{i}.0" for i in range(m)))
    parts = datasets.split_uniform(ds, n, seed=seed)
    assert sum(p.m for p in parts) == m
    merged = sorted(row[1][0] for p in parts for row in p.rows)
    assert merged == sorted(row[1][0] for row in ds.rows)
    sizes = [p.m for p in parts]
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)


def test_to_logistic_ensemble_shapes():
    ds = datasets.parse_libsvm(FIXTURE)
    parts = datasets.split_uniform(ds, 2, seed=1)
    e = datasets.to_logistic_ensemble(parts, eta=0.1)
    assert e.n == 2
    assert e.d == 7
    assert e.sample_count(0) + e.sample_count(1) == 8


def test_maxabs_scale():
    ds = datasets.parse_libsvm("+1 1:2.0 2:-4.0\n-1 1:1.0")
    scaled = datasets.maxabs_scale(ds)
    assert scaled.rows[0][1] == {0: 1.0, 1: -1.0}
    assert scaled.rows[1][1] == {0: 0.5}


def test_load_libsvm(tmp_path):
    path = tmp_path / "f.libsvm"
    path.write_text(FIXTURE)
    ds = datasets.load_libsvm(path)
    assert ds.m == 8


@pytest.mark.parametrize("text", ["+1 1:1\x0c2:1\n", "+1 1:1\r\n-1 2:1\r\n\r\n+1 3:1", "+1 1:1\r-1 2:1"])
def test_string_and_file_split_lines_alike(tmp_path, text):
    path = tmp_path / "f.libsvm"
    path.write_bytes(text.encode("utf-8"))
    from_file, from_str = datasets.load_libsvm(path), datasets.parse_libsvm(text)
    assert from_str.rows == from_file.rows and from_str.d == from_file.d
    if "\x0c" in text:
        assert from_str.rows == ((1, {0: 1.0, 1: 1.0}),)


@pytest.mark.parametrize("token", ["2:nan", "2:inf", "2:-Infinity", "2:1e999"])
def test_non_finite_value_rejected_with_line_number(token):
    with pytest.raises(datasets.ParseError, match=f"line 2: non-finite feature value '{token[2:]}'"):
        datasets.parse_libsvm(f"+1 1:1\n-1 1:1 {token} 3:1\n")


def test_pair_without_colon_next_to_one_with_two():
    # together they hold one colon per pair, and split into four halves
    with pytest.raises(datasets.ParseError, match="line 2: malformed index:value pair '5'"):
        datasets.parse_libsvm("+1 1:1\n+1 5 6:7:8")


def test_index_beyond_int64_rejected():
    with pytest.raises(datasets.ParseError, match="line 1: feature index 9223372036854775808 does"):
        datasets.parse_libsvm("+1 9223372036854775808:1")


def test_dataset_is_csr():
    ds = datasets.parse_libsvm("+1 3:0.5 7:1.2\n\n0 # no features\n-1 1:2")
    assert ds.labels.tolist() == [1, -1, -1]
    assert ds.indptr.tolist() == [0, 2, 2, 3]
    assert ds.indices.tolist() == [2, 6, 0]
    assert ds.values.tolist() == [0.5, 1.2, 2.0]
    assert ds.rows == ((1, {2: 0.5, 6: 1.2}), (-1, {}), (-1, {0: 2.0}))


# ---------------------------------------------------------------------------
# The array parser, split, scaling and densify against the per-entry loops
# ---------------------------------------------------------------------------

LABELS = ["+1", "1", "-1", "0", "1.0", "-1.0", "0.0", "+0", "-0", "1e0", "01", "-001",
          "+١", "٠", "-１"]
# each fault class, as a token that replaces a well-formed pair, or a label
PAIR_FAULTS = ["oops", "7", "a:1", "1.5:2", ":3", "3:abc", "3:", "3:1:2", "0:1", "-2:1",
               "+:1", "3:+", "3:1_", "3:0x1p3", "3:١x", "3:\x00"]
LABEL_FAULTS = ["abc", "2", "nan", "+", "1:1", "-2", "1_0", "٢"]
NON_FINITE = ["nan", "-inf", "Infinity", "1e999"]
# separators str.splitlines() also breaks at, and those it does not; the test
# finds non-finite lines with it, so only the latter go where one may be
LINE_BREAKING_SPACES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85"]
SPACES = [" ", "  ", "\t", " \x1f", "\xa0", "\t\xa0 "]
# ASCII digits, Arabic-Indic, Devanagari and fullwidth: int and float read them all
DIGITS = ["0123456789", "٠١٢٣٤٥٦٧٨٩", "०१२३४५६७८९", "０１２３４５６７８９"]
# zero-padded widths: up to 18 digits are decoded by Horner's rule, wider ones are not
INDEX_WIDTHS = [0, 2, 18, 19, 25]


def _value_text(v, style):
    if style == "big":
        # 15 sevens and up to 8 zeros after the integer part: 16 digits and
        # more, past float64's exact integers, and from 19 on past int64
        return f"{int(v)}{'7' * 15}{'0' * int(abs(v) % 9)}"
    if style == "nines":
        # 16 to 20 nines: from 17 digits on float rounds them; 19 overflow int64
        return f"{'-' if v < 0 else ''}{'9' * (16 + int(abs(v)) % 5)}"
    return {
        "repr": repr(v), "short": f"{v:.3g}", "exp": f"{v:.2E}", "int": str(int(v)),
        "plus": f"{v:+.4f}", "padded": f"{v:012.4f}", "point": f"{int(v)}.",
        "bare_point": f"{v:.3f}".replace("0.", ".", 1), "exp_lower": f"{v:.3e}",
        "exp_short": f"{v:.1e}".replace("e+0", "e").replace("e-0", "e-"),
        "grouped": f"{v:_.2f}", "neg_zero": "-0" if v < 0 else "-0.0",
    }[style]


def _digits(text, script):
    return text.translate(str.maketrans("0123456789", script))


@st.composite
def libsvm_texts(draw, straddle=True):
    """LIBSVM text with blank lines, comments, both label styles and sparse
    rows, and up to two faults: a pair or label fault, a repeated or
    decreasing index, or a non-finite value.

    Lines end in ``\n``, ``\r\n`` or ``\r``; tokens are separated by any
    whitespace str.split() knows; indices may be signed, zero-padded to 19
    digits or more, or written in other scripts' digits; values take every
    spelling float() reads. With ``straddle``, some texts start with enough
    filler rows that their rows fall on both sides of the first cut between
    chunks at the default chunk size.
    """
    faults = draw(st.lists(st.sampled_from(["pair", "label", "order", "non_finite"]), max_size=2))
    # a non-finite line is found by str.splitlines(), so it needs the line
    # breaks and separators that split alike there and in every parser
    plain_breaks = "non_finite" in faults
    spaces = SPACES + ([] if plain_breaks else LINE_BREAKING_SPACES)
    ends = ["\n", "\r\n"] + ([] if plain_breaks else ["\r"])
    filler = ""
    if straddle and draw(st.integers(0, 7)) == 7:
        rows = datasets._CHUNK_ROWS - draw(st.integers(1, 4))
        filler = ("-1 1:1" + draw(st.sampled_from(ends))) * rows
    lines, data_lines = [], []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"] + spaces)))
            continue
        if kind == "comment":
            lines.append("# comment 1:2 +1")
            continue
        idx = sorted(draw(st.sets(st.integers(1, 30), max_size=6)))
        toks = [draw(st.sampled_from(LABELS))]
        for i in idx:
            v = draw(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
            style = draw(st.sampled_from(["repr", "short", "exp", "int", "plus", "padded", "point",
                                          "bare_point", "exp_lower", "exp_short", "grouped",
                                          "neg_zero", "big", "nines"]))
            width = draw(st.sampled_from(INDEX_WIDTHS))
            index = f"{draw(st.sampled_from(['', '+', '0']))}{i:0{width}d}"
            value = _value_text(v, style)
            if draw(st.integers(0, 3)) == 3:
                script = draw(st.sampled_from(DIGITS))
                index, value = _digits(index, script), _digits(value, script)
            toks.append(f"{index}:{value}")
        data_lines.append(len(lines))
        sep = draw(st.sampled_from(spaces))
        lines.append(sep.join(toks) + draw(st.sampled_from(["", " # tail", "  "] + spaces)))
    # order faults read the index before them, so they go in before the others
    for fault in sorted(faults, key=lambda f: f != "order") if data_lines else []:
        at = draw(st.sampled_from(data_lines))
        toks = lines[at].split("#", 1)[0].split()
        if fault == "label":
            toks[0] = draw(st.sampled_from(LABEL_FAULTS))
        else:
            pos = draw(st.integers(1, len(toks)))
            if fault == "pair":
                bad = draw(st.sampled_from(PAIR_FAULTS))
            elif fault == "order":
                prev = int(toks[pos - 1].split(":")[0]) if pos > 1 else 31
                bad = f"{draw(st.integers(1, prev))}:1"
            else:
                bad = f"{draw(st.integers(31, 40))}:{draw(st.sampled_from(NON_FINITE))}"
            toks.insert(pos, bad)
        lines[at] = " ".join(toks)
    breaks = [draw(st.sampled_from(ends)) for _ in lines]
    text = filler + "".join(line + end for line, end in zip(lines, breaks))
    return text if draw(st.booleans()) else text[:-len(breaks[-1])]


def _outcome(parse, text, as_file):
    try:
        return parse(io.StringIO(text) if as_file else text)
    except datasets.ParseError as exc:
        return exc


def _non_finite_line(line):
    """Whether the loops accept this line alone and it holds a non-finite value."""
    try:
        rows, _ = util.reference_parse_libsvm(line)
    except datasets.ParseError:
        return False
    return any(not math.isfinite(v) for _, f in rows for v in f.values())


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(text=libsvm_texts(), as_file=st.booleans(), n=st.integers(1, 6), seed=st.integers(0, 99),
       eta=st.sampled_from([0.0, 0.1]))
def test_arrays_match_the_reference_loops(text, as_file, n, seed, eta):
    got = _outcome(datasets.parse_libsvm, text, as_file)
    ref = _outcome(util.reference_parse_libsvm, text, as_file)
    ref_line = ref.line_no if isinstance(ref, datasets.ParseError) else None
    non_finite = [no for no, line in enumerate(text.splitlines(), start=1)
                  if _non_finite_line(line)]
    if non_finite and (ref_line is None or non_finite[0] < ref_line):
        # the one difference in what is accepted: non-finite values
        assert isinstance(got, datasets.ParseError)
        assert got.line_no == non_finite[0] and "non-finite feature value" in str(got)
        return
    if ref_line is not None:
        # every fault the loops reject is rejected at the same line, in the same words
        assert isinstance(got, datasets.ParseError)
        assert (got.line_no, str(got)) == (ref.line_no, str(ref))
        return
    rows, ref_d = ref
    assert not isinstance(got, datasets.ParseError), got
    assert got.rows == rows and got.d == ref_d
    assert got.labels.tolist() == [label for label, _ in rows]
    assert got.indices.tolist() == [i for _, f in rows for i in f]
    assert np.array_equal(_bits(got.values), _bits([v for _, f in rows for v in f.values()]))
    assert np.array_equal(got.indptr, np.cumsum([0] + [len(f) for _, f in rows]))

    scaled, ref_scaled = datasets.maxabs_scale(got), util.reference_maxabs_scale(rows, ref_d)
    assert scaled.rows == ref_scaled
    assert np.array_equal(_bits(scaled.values), _bits([v for _, f in ref_scaled for v in f.values()]))
    if n > got.m:
        return
    parts = datasets.split_uniform(scaled, n, seed=seed)
    ref_parts = util.reference_split_uniform(ref_scaled, n, seed=seed)
    assert [p.rows for p in parts] == ref_parts
    if ref_d == 0:
        return
    e = datasets.to_logistic_ensemble(parts, eta=eta)
    dense = [util.reference_densify(p, ref_d) for p in ref_parts]
    assert np.array_equal(_bits(util.dense_features(e)), _bits(np.vstack([h for h, _ in dense])))
    assert np.array_equal(e._y_all, np.concatenate([y for _, y in dense]))
    assert [e.sample_count(i) for i in range(n)] == [len(y) for _, y in dense]


def _same_outcome(got, ref):
    if isinstance(ref, datasets.ParseError):
        assert isinstance(got, datasets.ParseError)
        assert (got.line_no, str(got)) == (ref.line_no, str(ref))
        return
    assert not isinstance(got, datasets.ParseError), got
    assert got.d == ref.d and np.array_equal(got.labels, ref.labels)
    assert np.array_equal(got.indptr, ref.indptr) and np.array_equal(got.indices, ref.indices)
    assert np.array_equal(_bits(got.values), _bits(ref.values))


@settings(max_examples=150, deadline=None)
@given(text=libsvm_texts(straddle=False), chunk=st.integers(1, 4), as_file=st.booleans())
def test_chunked_parse_matches_one_chunk(text, chunk, as_file):
    # at most 10 rows: one chunk at the default size, several at the patched
    # one (filler rows at chunks of 1 to 4 lines would cost seconds per text)
    whole = _outcome(datasets.parse_libsvm, text, as_file)
    with mock.patch.object(datasets, "_CHUNK_ROWS", chunk):
        _same_outcome(_outcome(datasets.parse_libsvm, text, as_file), whole)


GOOD_ROWS = [f"{'+1' if r % 3 else '-1'} {r % 5 + 1}:{r}.5 {r % 5 + 7}:-0.25" for r in range(12)]


@pytest.mark.parametrize("bad_row", [3, 4, 7, 8, 11])
@pytest.mark.parametrize("fault", ["3:abc", "5:1 2:1", "4:inf"])
def test_first_fault_in_a_later_chunk_keeps_its_line_and_words(bad_row, fault):
    # chunks of 4 rows: rows 3 and 7 end a chunk, rows 4 and 8 start one; a
    # second fault in the last chunk must not mask the first
    rows = list(GOOD_ROWS)
    rows[bad_row] = f"+1 {fault}"
    if bad_row < 11:
        rows[11] = "+1 oops"
    text = "# header\n" + "\n".join(rows) + "\n"
    with mock.patch.object(datasets, "_CHUNK_ROWS", 4):
        with pytest.raises(datasets.ParseError) as exc:
            datasets.parse_libsvm(text)
    assert exc.value.line_no == bad_row + 2
    with pytest.raises(datasets.ParseError) as whole:
        datasets.parse_libsvm(text)
    assert str(exc.value) == str(whole.value)


def test_a_file_of_bare_cr_lines_is_read_a_chunk_at_a_time(tmp_path):
    lines = [f"{'+1' if r % 2 else '-1'} {r + 1}:{r}.5" for r in range(7)]
    path = tmp_path / "f.libsvm"
    path.write_bytes("\r".join(lines).encode("utf-8"))
    with mock.patch.object(datasets, "_CHUNK_ROWS", 2), \
            mock.patch.object(datasets, "_csr", wraps=datasets._csr) as csr:
        got = datasets.load_libsvm(path)
    assert [buf.count(b"\n") for (buf,), _ in csr.call_args_list] == [2, 2, 2, 1]
    _same_outcome(got, datasets.parse_libsvm("\n".join(lines)))


def test_wide_spaces_are_every_whitespace_beyond_ascii():
    wide = {chr(c).encode("utf-8") for c in range(128, sys.maxunicode + 1) if chr(c).isspace()}
    assert set(datasets._WIDE_SPACES) == wide


@pytest.mark.parametrize("data", [b"+1 1:\xff\n", b"+1 1:1\n-1 2:\xed\xa0\x80\n", b"+1 \xc3 1:1"])
def test_invalid_utf8_raises(tmp_path, data):
    path = tmp_path / "f.libsvm"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError):
        datasets.load_libsvm(path)


def _corpus():
    """perfbench's a9a-shaped corpus generator, loaded from its file."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "corpus.py")
    spec = importlib.util.spec_from_file_location("a9a_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a9a_shaped_text_matches_the_reference_loops():
    text = _corpus().generate(3, rows=4000)
    got = datasets.parse_libsvm(text)
    rows, d = util.reference_parse_libsvm(text)
    assert got.rows == rows and got.d == d == 123
    assert np.array_equal(got.indptr, np.cumsum([0] + [len(f) for _, f in rows]))
    assert np.array_equal(_bits(got.values), _bits([v for _, f in rows for v in f.values()]))


def test_a9a_load_holds_one_chunk_at_a_time(tmp_path):
    # the parsed arrays take 7.3 MB; the bound is the peak of the parser that
    # held one chunk's text, and the bytes of one chunk stay well under the rest
    corpus = _corpus()
    path = tmp_path / "a9a"
    corpus.write(5, path)
    tracemalloc.start()
    try:
        ds = datasets.load_libsvm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.m == corpus.ROWS and len(ds.indices) == corpus.ROWS * corpus.NONZEROS_PER_ROW
    assert peak <= 16.3 * 2**20
