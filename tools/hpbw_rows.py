"""Rows per round of `hpbw` on a fixed, seeded set of beam cuts: one JSON line per cut.

Each line holds the cut (scenario, target, alphabet, configuration source,
axis), its result (the repr of the beamwidth, or the name of the error it
raised) and the positions `hpbw` passed to `coherent_sums` in each round.
Two source checkouts that print the same lines evaluate the same rows in
the same rounds and return the same bits, so

    diff <(python A/tools/hpbw_rows.py) <(python B/tools/hpbw_rows.py)

is the row-parity check between them. The cuts run on four scenarios (the
default, a UE pattern exponent of 3, a step element pattern and a 9-ring
surface), at seeded random targets, with each alphabet's optimized and a
random configuration, on both axes.

After the cuts come the focus ellipses: one line per configuration at the
first ELLIPSE_TARGETS targets of each scenario, for `hpbw` on both axes in
one call, as `focus_ellipse` makes it. Its axis is ["azimuth",
"elevation"], its result the two widths' reprs (or the name of the error
raised) and its rows those of each lockstep round, both cuts' samples in
one block. Stdlib and rissim only; rissim is imported from this checkout's
src/:

    python tools/hpbw_rows.py [COUNT]

COUNT, if given, prints only the first COUNT cuts and the ellipses among
them.
"""
from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import rissim.sweep  # noqa: E402
from rissim.errors import GeometryError, ValidationError  # noqa: E402
from rissim.geom import SphericalCoord, spherical_to_cartesian  # noqa: E402
from rissim.io_cli import resolve_scenario  # noqa: E402
from rissim.linkbudget import RisConfig  # noqa: E402
from rissim.optimizer import ACTIVE, REFLECTIVE, optimize_config  # noqa: E402

SEED = 32
TARGETS = 17  # per scenario; each gives 2 alphabets x 2 configurations x 2 axes = 8 cuts
ELLIPSE_TARGETS = 3  # per scenario, the first ones; each gives 4 ellipses
AXES = ("azimuth", "elevation")
SCENARIOS = {
    "default": {},
    "ue-exponent-3": {"ue": {"pattern_exponent": 3.0}},
    "step-pattern": {"ris": {"element_pattern_exponent": 0.0}},
    "9-rings": {"ris": {"rings": 9}},
}


def cuts():
    """Yield (label, scenario, config, target, axis) for every cut, in a fixed order."""
    rng = random.Random(SEED)
    for name, spec in SCENARIOS.items():
        scenario = resolve_scenario(spec).scenario
        for _ in range(TARGETS):
            target = SphericalCoord(
                round(rng.uniform(0.8, 2.5), 3),
                round(rng.uniform(-60.0, 60.0), 2),
                round(rng.uniform(-50.0, 30.0), 2),
            )
            for alphabet in (REFLECTIVE, ACTIVE):
                states = [rng.randrange(len(alphabet.states)) for _ in scenario.layout.elements]
                configs = {
                    "optimized": optimize_config(
                        scenario, spherical_to_cartesian(target), alphabet
                    ),
                    "random": RisConfig(tuple(alphabet.states[k] for k in states), alphabet.name),
                }
                for source, config in configs.items():
                    for axis in AXES:
                        label = {
                            "scenario": name,
                            "target": [target.r, target.azimuth_deg, target.elevation_deg],
                            "alphabet": alphabet.name,
                            "config": source,
                            "axis": axis,
                        }
                        yield label, scenario, config, target, axis


def ellipses(count: int | None = None):
    """Yield (label, scenario, config, target) for every ellipse among the first count cuts.

    An ellipse is a configuration's azimuth and elevation cut, consecutive in
    cuts(), at one of the first ELLIPSE_TARGETS targets of its scenario.
    """
    first = {}  # per scenario, its first targets
    pairs = iter(itertools.islice(cuts(), count))
    for (label, scenario, config, target, _), _ in zip(pairs, pairs):
        targets = first.setdefault(label["scenario"], [])
        if target not in targets and len(targets) < ELLIPSE_TARGETS:
            targets.append(target)
        if target in targets:
            yield {**label, "axis": list(AXES)}, scenario, config, target


def run(scenario, config, target, axis) -> tuple[str | list[str], list[int]]:
    """hpbw's result (repr, a list of reprs for a tuple of axes, or the error's type name) and
    its rows per round."""
    rows = []
    apply = rissim.sweep.coherent_sums

    def counting(scenario, config, positions):
        rows.append(len(positions))
        return apply(scenario, config, positions)

    rissim.sweep.coherent_sums = counting
    try:
        width = rissim.sweep.hpbw(scenario, config, target, axis)
        result = list(map(repr, width)) if isinstance(axis, tuple) else repr(width)
    except (GeometryError, ValidationError) as error:
        result = type(error).__name__
    finally:
        rissim.sweep.coherent_sums = apply
    return result, rows


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else None
    for label, *cut in itertools.islice(cuts(), count):
        result, rows = run(*cut)
        print(json.dumps({**label, "result": result, "rows": rows}))
    for label, *ellipse in ellipses(count):
        result, rows = run(*ellipse, AXES)
        print(json.dumps({**label, "result": result, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
