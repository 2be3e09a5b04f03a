"""tools/hpbw_split.py, the per-layer split of a beam cut's and a focus ellipse's time."""
import runpy
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "hpbw_split.py"


def test_every_layer_is_printed_and_the_parts_sum_to_at_most_the_total(capsys):
    tool = runpy.run_path(str(TOOL))
    assert tool["main"]() == 0
    sections, us = {}, None
    for line in capsys.readouterr().out.splitlines():
        if not line.endswith(" us"):  # a section's name
            us = sections.setdefault(line, {})
            continue
        layer, value, unit = line.rsplit(None, 2)
        assert unit == "us", line
        us[layer] = float(value)
    assert list(sections) == ["per cut", "per ellipse"]
    for us in sections.values():
        assert list(us) == tool["LAYERS"]
        parts = [value for layer, value in us.items() if layer != "total"]
        assert all(value > 0.0 for value in parts), us
        # each printed value is rounded to 0.05 us
        assert sum(parts) <= us["total"] + 0.05 * len(us), us


def test_each_ellipse_is_one_configuration_s_two_cuts():
    tool = runpy.run_path(str(TOOL))
    cuts = [(object(), object(), axis) for _ in range(3) for axis in ("azimuth", "elevation")]
    got = tool["ellipses"](cuts)
    assert [(config, target) for config, target, _ in got] == [c[:2] for c in cuts[::2]]
    assert all(axes == ("azimuth", "elevation") for _, _, axes in got)
