"""tools/hpbw_rows.py, the per-round rows of hpbw on fixed cuts, one JSON line each."""
import hashlib
import itertools
import json
import runpy
import subprocess
import sys
from pathlib import Path

from helpers import hpbw_full_scan
from rissim.errors import BeamNotResolvedError

TOOL = Path(__file__).parents[1] / "tools" / "hpbw_rows.py"
COUNT = 24
# sha256 of the full output (592 lines); a change to it is a deliberate act, noted in CHANGES.md
ROWS_SHA256 = "014ba0f11a7201901fc679e93de46b7755d4ec6a648fb4532450a1ef19e545a1"


def test_the_full_output_is_pinned():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == ROWS_SHA256, (
        "hpbw's rows, rounds or bits changed; list the cuts that differ with\n"
        "    diff <(python OLD/tools/hpbw_rows.py) <(python tools/hpbw_rows.py)\n"
        "where OLD is a checkout of the commit that last set ROWS_SHA256"
    )


def test_each_line_holds_the_full_scan_result_and_two_or_three_rounds(capsys):
    tool = runpy.run_path(str(TOOL))
    assert tool["main"]([str(COUNT)]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == COUNT + len(list(tool["ellipses"](COUNT)))  # the ellipses come last
    for line, (label, scenario, config, target, axis) in zip(lines[:COUNT], tool["cuts"]()):
        assert {key: line[key] for key in label} == label
        try:
            want = repr(float(hpbw_full_scan(scenario, config, target, axis)))
        except BeamNotResolvedError:
            want = "BeamNotResolvedError"
        assert line["result"] == want, line
        assert len(line["rows"]) in (2, 3) and all(rows > 0 for rows in line["rows"]), line


def test_each_ellipse_line_holds_its_two_cut_lines(capsys):
    tool = runpy.run_path(str(TOOL))
    assert tool["main"]([str(COUNT)]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    cut_lines, ellipse_lines = lines[:COUNT], lines[COUNT:]
    labels = [label for label, *_ in tool["ellipses"](COUNT)]
    # the first COUNT cuts hold ELLIPSE_TARGETS targets' 8 cuts, 4 ellipses each
    assert len(ellipse_lines) == len(labels) == 4 * tool["ELLIPSE_TARGETS"]

    def key(line, axis):
        return json.dumps({**line, "axis": axis, "result": None, "rows": None}, sort_keys=True)

    cut_of = {key(line, line["axis"]): line for line in cut_lines}
    unresolved = 0
    for line, label in zip(ellipse_lines, labels):
        assert {name: line[name] for name in label} == label
        az, el = (cut_of[key(line, axis)] for axis in ("azimuth", "elevation"))
        merged = [a + b for a, b in itertools.zip_longest(az["rows"], el["rows"], fillvalue=0)]
        failed = [cut for cut in (az, el) if cut["result"].endswith("Error")]
        if not failed:
            assert line["result"] == [az["result"], el["result"]], line
            assert line["rows"] == merged, line
            continue
        # the error of the first cut that fails, as from one call per axis: the lockstep
        # rounds up to the failure, then the cuts one at a time up to that cut
        unresolved += 1
        assert line["result"] == failed[0]["result"], line
        replay = az["rows"] + (el["rows"] if failed[0] is el else [])
        lockstep = line["rows"][:len(line["rows"]) - len(replay)]
        assert line["rows"][len(lockstep):] == replay, line
        assert lockstep and lockstep == merged[:len(lockstep)], line
    assert unresolved > 0
