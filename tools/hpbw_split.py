"""Where a beam cut's time goes: microseconds per `hpbw` cut and per focus ellipse, per layer.

The functions below are wrapped with `time.perf_counter` where `hpbw` and
`coherent_sums` look them up, while a fixed set of cuts runs in-process: 21
targets at range 1.2-1.4 m, azimuth 10-40 degrees and elevation -16 degrees
on the default scenario, each with its optimized reflective and active
configuration, on both axes (84 cuts). The same 42 configurations then run
as focus ellipses, one `hpbw` call with both axes each, as `focus_ellipse`
makes it: the two cuts in lockstep. The configurations are computed before
timing. Each layer is the best of 5 runs over all 84 cuts, divided by 84
(the section `per cut`), and over all 42 ellipses, divided by 42 (`per
ellipse`):

    kernel        element_phasor_matrix
    apply         coherent_sums less the kernel inside it (lookup and apply_config)
    bounds        _interval_bounds (element summary and the bound of every cut in the call)
    arc           _arc_positions
    dbm           dbm_from_sums
    hpbw lines    hpbw's own lines: the call less everything above

Best-of minima come from different runs, so the layers sum to at most the
total. Stdlib and rissim only; run from the root of a source checkout:

    python tools/hpbw_split.py
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import rissim.linkbudget  # noqa: E402
import rissim.sweep  # noqa: E402
from rissim.geom import SphericalCoord, spherical_to_cartesian  # noqa: E402
from rissim.io_cli import load_scenario  # noqa: E402
from rissim.optimizer import ACTIVE, REFLECTIVE, optimize_config  # noqa: E402

RUNS = 5
# (module, attribute, layer); the kernel runs inside coherent_sums
WRAPPED = [
    (rissim.linkbudget, "element_phasor_matrix", "kernel"),
    (rissim.sweep, "coherent_sums", "apply"),
    (rissim.sweep, "_interval_bounds", "bounds"),
    (rissim.sweep, "_arc_positions", "arc"),
    (rissim.sweep, "dbm_from_sums", "dbm"),
]
LAYERS = [layer for _, _, layer in WRAPPED] + ["hpbw lines", "total"]
AXES = ("azimuth", "elevation")


def cuts(scenario) -> list[tuple]:
    """The fixed (config, target, axis) cuts: 21 targets x 2 alphabets x 2 axes."""
    targets = [
        SphericalCoord(1.2 + 0.1 * i, 10.0 + 5.0 * k, -16.0) for i in range(3) for k in range(7)
    ]
    return [
        (optimize_config(scenario, spherical_to_cartesian(target), alphabet), target, axis)
        for target in targets
        for alphabet in (REFLECTIVE, ACTIVE)
        for axis in AXES
    ]


def ellipses(cut_cases: list[tuple]) -> list[tuple]:
    """The (config, target, AXES) ellipses of the cuts: each configuration's two cuts in one call."""
    return [(config, target, AXES) for config, target, _ in cut_cases[::len(AXES)]]


def one_run(scenario, cases) -> dict[str, float]:
    """Seconds per layer over one pass of the cuts, with the wrappers installed."""
    spent = dict.fromkeys(LAYERS, 0.0)

    def timed(fn, layer):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[layer] += time.perf_counter() - start
        return wrapper

    originals = [(module, name, getattr(module, name)) for module, name, _ in WRAPPED]
    for (module, name, fn), (_, _, layer) in zip(originals, WRAPPED):
        setattr(module, name, timed(fn, layer))
    try:
        start = time.perf_counter()
        for config, target, axis in cases:
            rissim.sweep.hpbw(scenario, config, target, axis)
        spent["total"] = time.perf_counter() - start
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)
    spent["apply"] -= spent["kernel"]
    spent["hpbw lines"] = spent["total"] - sum(spent[layer] for _, _, layer in WRAPPED)
    return spent


def split(runs: int = RUNS) -> dict[str, dict[str, float]]:
    """Microseconds per layer, the best of runs: per cut and per ellipse."""
    scenario = load_scenario(None).scenario
    per_cut = cuts(scenario)
    out = {}
    for section, cases in (("per cut", per_cut), ("per ellipse", ellipses(per_cut))):
        one_run(scenario, cases)  # warm-up: window arrays, lazy imports
        samples = [one_run(scenario, cases) for _ in range(runs)]
        out[section] = {layer: 1e6 * min(s[layer] for s in samples) / len(cases) for layer in LAYERS}
    return out


def main() -> int:
    for section, layers in split().items():
        print(section)
        for layer, us in layers.items():
            print(f"{layer:<12} {us:8.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
