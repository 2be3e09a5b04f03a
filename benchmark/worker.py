"""One workload process: set up, then run checked passes for a fixed time.

    worker.py setup --workload NAME
    worker.py run --workload NAME --seed N --seconds S --trace 0|1

Both modes print a JSON line {"import_s", "load_s"} on stdout as soon as
rissim is imported and the scenario loaded; the parent times set-up up to
that line. `run` then makes the inputs, runs one warm-up pass, measures
passes for S seconds (with --trace 1 alternating untraced and traced cycles
of the workload's inputs) and prints one JSON result line. Nothing else is written to stdout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

_t0 = time.perf_counter()
import numpy  # noqa: E402  (timed as part of importing rissim)
import rissim  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _t0

import spans  # noqa: E402
from workloads import WORKLOADS, Ledger  # noqa: E402


# Machine-speed reference. The host's speed drifts by up to a third over
# minutes, for pure-Python and numpy code alike (CPU time tracks wall time,
# so it is not descheduling). A fixed kernel of both kinds, which no change
# to rissim affects, is timed before and after every pass; pass times are
# reported scaled to a machine on which it takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.030
_CALIBRATION_ARRAY = numpy.random.default_rng(0).random((901, 127))


def _calibration() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    for _ in range(4):
        numpy.exp(1j * _CALIBRATION_ARRAY).sum()
    return time.perf_counter() - t0


def _timed_pass(workload, ledger, tracer) -> tuple[float, str]:
    done = ledger.attempted
    t0 = time.perf_counter()
    try:
        digest = workload.run_pass(ledger, tracer.span)
    except Exception as exc:  # a raising operation is a failed operation, not a crashed run
        ledger.crash(workload.planned, ledger.attempted - done, exc)
        digest = ""
    return time.perf_counter() - t0, digest


def _layer_metrics(passes: list[dict]) -> dict:
    """Median over traced passes of each per-pass layer total."""
    keys = sorted({k for p in passes for k in p})
    return {k: statistics.median(p.get(k, 0.0) for p in passes) for k in keys}


def _pass_layers(tracer: spans.Tracer, wall: float) -> dict:
    totals = spans.layer_totals(tracer.spans)
    out = {}
    for layer, t in totals.items():
        for key, value in t.items():
            out[f"{layer}.{key}"] = value
    for s in tracer.spans:  # optimize_config wall time per call, by surface size
        if s.name == "optimizer.search":
            m = int(s.counts["elements"])
            out[f"optimizer.search.ms.m{m}"] = out.get(f"optimizer.search.ms.m{m}", 0.0) + 1e3 * s.duration
            out[f"optimizer.search.n.m{m}"] = out.get(f"optimizer.search.n.m{m}", 0) + 1
    out["coverage"] = spans.top_level_time(tracer.spans) / wall
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="existing directory for written outputs")
    args = parser.parse_args()

    protocol = sys.stdout
    sys.stdout = sys.stderr  # keep stdout for the protocol lines

    outdir = Path(args.tmp)  # the parent removes it
    t0 = time.perf_counter()
    workload = WORKLOADS[args.workload](outdir)
    load_s = time.perf_counter() - t0
    protocol.write(json.dumps({"import_s": IMPORT_S, "load_s": load_s}) + "\n")
    protocol.flush()
    if args.mode == "setup":
        return 0

    workload.make_inputs(args.seed)
    ledger = Ledger()
    null = spans.NullTracer()
    _, digest = _timed_pass(workload, ledger, null)  # warm-up: caches, lazy set-up
    digests = [digest]
    period = workload.period
    walls, traced_walls, layer_passes = [], [], []
    ref_walls, ref_traced_walls = [], []
    calibration = _calibration()
    start = time.perf_counter()
    while True:
        # alternate whole cycles of inputs, so both sides see every input
        traced = args.trace == 1 and (len(walls) + len(traced_walls)) // period % 2 == 1
        if traced:
            tracer = spans.Tracer()
            tracer.install()
            try:
                wall, digest = _timed_pass(workload, ledger, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            layer_passes.append(_pass_layers(tracer, wall))
        else:
            wall, digest = _timed_pass(workload, ledger, null)
            walls.append(wall)
        after = _calibration()
        ref = CALIBRATION_REF_S * wall / (0.5 * (calibration + after))
        (ref_traced_walls if traced else ref_walls).append(ref)
        calibration = after
        digests.append(digest)
        enough = args.trace == 0 or traced_walls
        if enough and time.perf_counter() - start >= args.seconds:
            break
    # identical inputs must give identical outputs on every pass
    ledger.check(
        "outputs identical across repeated passes",
        all(d == digests[i % period] for i, d in enumerate(digests)),
    )
    # each distinct optimize_config call once: every pass makes the same
    # number of calls, and the inputs repeat after `period` passes
    per_pass = len(ledger.gains) // len(digests)
    cycle_gains = ledger.gains[: per_pass * min(period, len(digests))]

    result = {
        "walls": walls,
        "traced_walls": traced_walls,
        "ref_walls": ref_walls,
        "ref_traced_walls": ref_traced_walls,
        "layers": _layer_metrics(layer_passes) if layer_passes else {},
        "work_per_pass": workload.work,
        "unit": workload.unit,
        "sizes": workload.sizes(),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "focus_gain_db": statistics.fmean(cycle_gains) if cycle_gains else None,
        "sha256": hashlib.sha256("".join(digests[:period]).encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
    }
    protocol.write(json.dumps(result) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
