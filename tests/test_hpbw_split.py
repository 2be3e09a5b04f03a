"""tools/hpbw_split.py, the per-layer split of a beam cut's time."""
import runpy
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "hpbw_split.py"


def test_every_layer_is_printed_and_the_parts_sum_to_at_most_the_total(capsys):
    tool = runpy.run_path(str(TOOL))
    assert tool["main"]() == 0
    us = {}
    for line in capsys.readouterr().out.splitlines():
        layer, value, unit = line.rsplit(None, 2)
        assert unit == "us", line
        us[layer] = float(value)
    assert list(us) == tool["LAYERS"]
    parts = [value for layer, value in us.items() if layer != "total"]
    assert all(value > 0.0 for value in parts), us
    # each printed value is rounded to 0.05 us
    assert sum(parts) <= us["total"] + 0.05 * len(us), us
