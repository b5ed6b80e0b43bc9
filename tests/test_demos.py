"""Smoke tests of the demo scripts that read engine outputs no command does."""

import os
import runpy

DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")


def test_bias_floor_prints_snapshot_table_and_tracking_beats_the_floor(capsys):
    # the one reader of opt-in snapshots (RunConfig.record_stride = 1000)
    result = runpy.run_path(os.path.join(DEMOS, "bias_floor.py"), run_name="__main__")
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    table = [int(r[0]) for r in rows if len(r) == 3 and r[0].isdigit()]
    assert table == list(range(1, 10_000, 1000))
    final = result["final"]
    assert final["gt_dsgd"] < final["dsgd"]
