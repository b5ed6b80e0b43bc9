import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gtsim.plotting import render_line_chart
from util import reference_render_line_chart

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _values(n):
    """n finite y values: ordinary, constant, with zeros and negatives, or
    with magnitudes from 1e-300 to 1e300."""
    magnitude = st.builds(lambda sign, e, m: sign * m * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                          st.integers(-300, 299), st.floats(1.0, 9.99))
    return st.one_of(
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
        _FINITE.map(lambda v: [v] * n),
        st.lists(st.sampled_from([0.0, -0.0, -1.0, 0.25, 1.0, -3e-7]), min_size=n, max_size=n),
        st.lists(magnitude, min_size=n, max_size=n),
    )


@st.composite
def chart_series(draw):
    """Up to four series of unequal lengths (0 to 40 points), with
    iteration x or non-integer x."""
    series = {}
    for k in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 40))
        if draw(st.booleans()):
            xs = list(range(1, n + 1))
        else:
            xs = draw(st.lists(st.floats(-50.0, 1e4).filter(lambda v: v != int(v)),
                               min_size=n, max_size=n))
        series[f"s{k}"] = (xs, draw(_values(n)))
    return series


def _resolvable(values) -> bool:
    """Whether the reference writer can draw an axis over ``values``. Its
    tick loop raises where the width overflows or where the tick step it
    starts from, width / 5, is subnormal; it never ends where its end,
    hi + 1e-12 * step, rounds to inf (the step is at most twice the width)
    or where the step is below the resolution of the ticks; and it raises
    on an empty range where 1.0 is lost."""
    if not values:
        return True
    lo, hi = min(values), max(values)
    width = hi - lo
    if not math.isfinite(width) or hi + 2e-12 * width == math.inf:
        return False
    if hi == lo:
        return abs(lo) < 2.0 ** 40
    return width / 5 >= sys.float_info.min and width > 1e-9 * max(abs(lo), abs(hi))


def _reference_draws(series, log_y) -> bool:
    pts = [(float(x), float(y)) for xs, ys in series.values() for x, y in zip(xs, ys)
           if not (log_y and y <= 0)]
    return (_resolvable([x for x, _ in pts])
            and _resolvable([math.log10(y) if log_y else y for _, y in pts]))


@settings(max_examples=300, deadline=None)
@given(series=chart_series(), log_y=st.booleans(), as_arrays=st.booleans())
@example(series={"a": ([], [])}, log_y=False, as_arrays=False)
@example(series={"a": ([3], [0.5])}, log_y=True, as_arrays=True)
@example(series={"a": ([1, 2, 3], [0.0, -1.0, 0.0])}, log_y=True, as_arrays=False)
@example(series={"a": ([1, 2], [1e-300, 1e300]), "b": ([1.5], [-1e300])}, log_y=False,
         as_arrays=False)
@example(series={"a": ([1, 2], [-1e306, 1e306]), "b": ([1.5, 3e3], [0.0, 1e305])}, log_y=False,
         as_arrays=True)
def test_charts_match_the_reference_writer(series, log_y, as_arrays):
    assume(_reference_draws(series, log_y))
    expected = reference_render_line_chart(series, "t", ylabel="y", log_y=log_y)
    if as_arrays:
        series = {k: (np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
                  for k, (xs, ys) in series.items()}
    assert render_line_chart(series, "t", ylabel="y", log_y=log_y) == expected


def _points(svg):
    return [p for line in re.findall(r'points="([^"]*)"', svg) for p in line.split()]


@settings(max_examples=150, deadline=None)
@given(series=chart_series(), log_y=st.booleans(), data=st.data())
def test_non_finite_points_are_left_out_of_the_path_and_the_range(series, log_y, data):
    assume(_reference_draws(series, log_y))
    spiked = {}
    for label, (xs, ys) in series.items():
        ys = list(ys)
        for i in data.draw(st.sets(st.integers(0, len(ys)), max_size=3)):
            ys.insert(i, data.draw(st.sampled_from([math.nan, math.inf, -math.inf])))
            xs = list(xs[:i]) + [data.draw(_FINITE)] + list(xs[i:])
        spiked[label] = (xs, ys)
    svg = render_line_chart(spiked, "t", log_y=log_y)
    assert svg == reference_render_line_chart(series, "t", log_y=log_y)
    assert not [p for p in _points(svg) if "nan" in p or "inf" in p]


@pytest.mark.parametrize("lo, hi, labels", [
    (-1e308, 1e308, ["-1e+308", "-5e+307", "0", "5e+307", "1e+308"]),
    (0.0, sys.float_info.max, ["0", "5e+307", "1e+308", "1.5e+308"]),
    (0.0, 5e-324, ["0", "4.94066e-324"]),
])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_ranges_whose_width_overflows_or_whose_tick_step_underflows_render(lo, hi, labels, axis):
    # the width of [-1e308, 1e308] overflowed the tick step and the pixel
    # scale, and the tick step of [0, 5e-324] underflowed to 0; both raised.
    # Up to the largest float, the tick loop's end overflowed, and an inf
    # tick was drawn on the x axis
    xs, ys = ([lo, hi], [1.0, 2.0]) if axis == "x" else ([1.0, 2.0], [lo, hi])
    svg = render_line_chart({"a": (xs, ys)}, "t")
    assert "nan" not in svg and "inf" not in svg
    assert _points(svg) == ["70.00,390.00", "700.00,30.00"]
    anchor = "middle" if axis == "x" else "end"
    assert re.findall(f'text-anchor="{anchor}" font-family="sans-serif" font-size="11">([^<]*)<',
                      svg) == labels


def test_a_constant_series_at_the_largest_float_renders():
    # widening its empty range upward overflowed to inf
    svg = render_line_chart({"a": ([1.0, 2.0], [sys.float_info.max] * 2)}, "t")
    assert "nan" not in svg and "inf" not in svg
    assert _points(svg) == ["70.00,30.00", "700.00,30.00"]


def test_ranges_below_the_tick_resolution_render(tmp_path):
    # a one-ulp range made the tick loop spin forever, and an empty range
    # at 1e300 (where 1.0 is lost) raised; run apart, so a hang fails
    script = tmp_path / "chart.py"
    script.write_text(
        "from gtsim.plotting import render_line_chart\n"
        "for ys in ([1.0, 1.0000000000000002], [1e300, 1e300], [1e16, 1e16 + 2], [-1e300]):\n"
        "    for log_y in (False, True):\n"
        "        print(render_line_chart({'a': (list(range(1, len(ys) + 1)), ys)}, 't', log_y=log_y))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("</svg>") == 8
    assert "nan" not in proc.stdout and "inf" not in proc.stdout
