#!/usr/bin/env python3
"""rissim benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload patterns|planning|codebook \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; rissim is imported from ./src. The
harness spawns fresh worker processes (worker.py) and never imports rissim
itself. It times set-up in SETUP_SAMPLES set-up-only processes plus the
measuring one, and reports the median. The measuring process runs checked
passes of the workload for S seconds. Before the result, one line
`info {...}` records the machine, the workload sizes, the per-pass times and
the sha256 of the outputs. The last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1 (see README.md). Exits 2 without a result when the checkout has no
rissim sources or a worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0  # every worker is killed after this

END_TO_END_UNITS = {
    "wall_s": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "focus_gain_db": "dB",
}

# Per-layer metrics reported by --trace 1: (name, unit, key in the worker's layer totals).
PER_LAYER = [
    ("linkbudget.kernel.calls", "count", "linkbudget.kernel.calls"),
    ("linkbudget.kernel.phasors", "count", "linkbudget.kernel.phasors"),
    ("linkbudget.kernel.bytes_out", "B", "linkbudget.kernel.bytes_out"),
    ("linkbudget.kernel.self_s", "s", "linkbudget.kernel.self_s"),
    ("linkbudget.apply.calls", "count", "linkbudget.apply.calls"),
    ("linkbudget.apply.self_s", "s", "linkbudget.apply.self_s"),
    ("optimizer.search.calls", "count", "optimizer.search.calls"),
    ("optimizer.search.self_s", "s", "optimizer.search.self_s"),
    ("optimizer.search.ms_per_call.m127", "ms", None),
    ("optimizer.search.ms_per_call.m469", "ms", None),
    ("sweep.grid.cells", "count", "sweep.grid.cells"),
    ("sweep.grid.self_s", "s", "sweep.grid.self_s"),
    ("sweep.emulate.cells", "count", "sweep.emulate.cells"),
    ("sweep.emulate.normals", "count", "sweep.emulate.normals"),
    ("sweep.emulate.self_s", "s", "sweep.emulate.self_s"),
    ("sweep.hpbw.calls", "count", "sweep.hpbw.calls"),
    ("sweep.hpbw.points", "count", "sweep.hpbw.points"),
    ("sweep.hpbw.self_s", "s", "sweep.hpbw.self_s"),
    ("planner.ellipse.calls", "count", "planner.ellipse.calls"),
    ("planner.ellipse.self_s", "s", "planner.ellipse.self_s"),
    ("planner.loop.steps", "count", "planner.loop.steps"),
    ("planner.loop.events", "count", "planner.loop.events"),
    ("planner.loop.self_s", "s", "planner.loop.self_s"),
    ("io_cli.write.calls", "count", "io_cli.write.calls"),
    ("io_cli.write.bytes", "B", "io_cli.write.bytes"),
    ("io_cli.write.self_s", "s", "io_cli.write.self_s"),
    ("io_cli.load.self_s", "s", None),
    ("import.self_s", "s", None),
    ("bench.check.self_s", "s", "bench.check.self_s"),
    ("trace.coverage", "ratio", "coverage"),
    ("trace.overhead_ratio", "ratio", None),
    ("ops_failed_ratio", "ratio", None),
]


class WorkerError(RuntimeError):
    pass


def _worker(args: list[str], env: dict, tmp: Path, deadline: float) -> tuple[float, dict, dict | None]:
    """Run worker.py; return (seconds to its set-up line, set-up line, result or None).

    The worker is killed at `deadline` (a time.monotonic() value)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--tmp", str(tmp)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not ready:
        raise WorkerError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(ready), json.loads(lines[-1]) if lines else None


def _environment(cap: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(cap)
    return env


def _per_layer(run: dict, setups: list[dict]) -> dict:
    layers = run["layers"]
    metrics = {}
    for name, unit, key in PER_LAYER:
        if key is not None:
            value = layers.get(key, 0.0)
        elif name.startswith("optimizer.search.ms_per_call."):
            m = name.rsplit(".", 1)[1]
            n = layers.get(f"optimizer.search.n.{m}", 0)
            value = layers.get(f"optimizer.search.ms.{m}", 0.0) / n if n else 0.0
        elif name == "io_cli.load.self_s":
            value = statistics.median(s["load_s"] for s in setups)
        elif name == "import.self_s":
            value = statistics.median(s["import_s"] for s in setups)
        elif name == "trace.overhead_ratio":
            value = statistics.median(run["ref_traced_walls"]) / statistics.median(run["ref_walls"]) - 1.0
        else:  # ops_failed_ratio
            value = run["failed"] / run["attempted"]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("patterns", "planning", "codebook"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "rissim" / "__init__.py").is_file():
        print(f"error: no rissim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cap = len(os.sched_getaffinity(0))
    env = _environment(cap)
    deadline = time.monotonic() + RUN_DEADLINE_S
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    try:
        setups, setup_times = [], []
        for _ in range(SETUP_SAMPLES):
            seconds, line, _ = _worker(["setup", "--workload", args.workload], env, tmp, deadline)
            setup_times.append(seconds)
            setups.append(line)
        seconds, line, run = _worker(
            [
                "run",
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            env,
            tmp,
            deadline,
        )
        setup_times.append(seconds)
        setups.append(line)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    if run is None:
        print("error: worker printed no result", file=sys.stderr)
        return 2

    walls, ref_walls = run["walls"], run["ref_walls"]
    if args.trace == 0:
        values = {
            "wall_s": statistics.median(ref_walls),
            "work_per_s": run["work_per_pass"] * len(ref_walls) / sum(ref_walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": run["peak_rss_mb"],
            "focus_gain_db": run["focus_gain_db"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        metrics = _per_layer(run, setups)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": run["numpy"],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "blas_thread_cap": cap,
        "work_unit": run["unit"],
        "work_per_pass": run["work_per_pass"],
        "sizes": run["sizes"],
        "passes": len(walls),
        "traced_passes": len(run["traced_walls"]),
        "unscaled_wall_s_quartiles": statistics.quantiles(walls, n=4) if len(walls) > 1 else walls,
        "wall_s_quartiles": statistics.quantiles(ref_walls, n=4) if len(ref_walls) > 1 else ref_walls,
        "setup_s_samples": setup_times,
        "ops_failed_ratio": run["failed"] / run["attempted"],
        "failures": run["failures"],
        "sha256": run["sha256"],
    }
    print("info " + json.dumps(info))
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
