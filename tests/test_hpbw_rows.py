"""tools/hpbw_rows.py, the per-round rows of hpbw on fixed cuts, one JSON line each."""
import json
import runpy
from pathlib import Path

from helpers import hpbw_full_scan
from rissim.errors import BeamNotResolvedError

TOOL = Path(__file__).parents[1] / "tools" / "hpbw_rows.py"
COUNT = 24


def test_each_line_holds_the_full_scan_result_and_two_or_three_rounds(capsys):
    tool = runpy.run_path(str(TOOL))
    assert tool["main"]([str(COUNT)]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == COUNT
    for line, (label, scenario, config, target, axis) in zip(lines, tool["cuts"]()):
        assert {key: line[key] for key in label} == label
        try:
            want = repr(float(hpbw_full_scan(scenario, config, target, axis)))
        except BeamNotResolvedError:
            want = "BeamNotResolvedError"
        assert line["result"] == want, line
        assert len(line["rows"]) in (2, 3) and all(rows > 0 for rows in line["rows"]), line
