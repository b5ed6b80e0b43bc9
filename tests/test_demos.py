"""Smoke tests of the demo scripts that read engine outputs no command does,
and byte pins of the demos that print Monte-Carlo and pathwise check results."""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def test_bias_floor_prints_snapshot_table_and_tracking_beats_the_floor(capsys):
    # the models every 1000 iterations, read from the trace
    result = runpy.run_path(os.path.join(DEMOS, "bias_floor.py"), run_name="__main__")
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    table = [int(r[0]) for r in rows if len(r) == 3 and r[0].isdigit()]
    assert table == list(range(1, 10_000, 1000))
    final = result["final"]
    assert final["gt_dsgd"] < final["dsgd"]


@pytest.mark.parametrize("demo", ["noise_calibration", "inequality_checks", "bias_floor"])
def test_demo_prints_its_pinned_output(demo, capsys):
    runpy.run_path(os.path.join(DEMOS, f"{demo}.py"), run_name="__main__")
    with open(os.path.join(FIXTURES, f"{demo}.stdout")) as f:
        assert capsys.readouterr().out == f.read()
