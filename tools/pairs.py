"""Alternating process pairs of two trees' benchmark runs, and the claim rule.

    python tools/pairs.py PARENT CHANGE [--workloads patterns,planning,codebook]
        [--seeds 101-110] [--seconds 10] [--control]
        [--command TEMPLATE] [--what TEXT] [--out BENCH_N.json] [--repo DIR]

PARENT and CHANGE are git revisions of the repository (default: the one
holding this tools/ directory), or WORKTREE for its working tree: the tracked
files as they are now, new files once staged. Each side is exported with
`git archive` into a fresh temporary directory, and each runs its own,
unchanged command there, by default

    {python} benchmark/run.py --workload {workload} --seed {seed} --seconds {seconds} --trace 0

Pair i runs seed i on both sides, one after the other; the side that runs
first alternates, the parent first at the first, third, ... seed. A run's
result is the last line it prints: benchmark/run.py's object of "correct",
"attempted", "failed" and "metrics", or any JSON object of numbers (each key
a metric). The sha256 of its outputs comes from an `info {...}` line, when
one is printed. A metric is better lower unless BENCHMARK.json in the
parent's tree says "higher".

For each workload and metric the report holds each side's quartiles, the
parent's IQR, the median pair change (change / parent - 1) and the change's
wins, plus per-pair sha256 and `failed` equality. The claim rule: the change
wins at least 9 in 10 of the pairs, and the medians differ by more than the
parent's IQR, the change's being the better. --control also pairs the parent
with itself; the smallest change that such a set could resolve, the larger
of the control's relative parent IQR and its |median pair change|, is
printed beside each metric. The trees run from source with
PYTHONDONTWRITEBYTECODE=1, as a fresh checkout does.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

DEFAULT_COMMAND = (
    "{python} benchmark/run.py --workload {workload} --seed {seed} --seconds {seconds} --trace 0"
)
WIN_SHARE = 0.9  # the claim rule's share of pairs the change must win


def export(repo: Path, revision: str, into: Path) -> str:
    """Write `revision` (or the working tree, for WORKTREE) into `into`; its commit id."""
    def git(*args: str) -> bytes:
        return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, check=True).stdout

    if revision == "WORKTREE":  # a commit object of the working tree; empty when it is clean
        revision = git("stash", "create").decode().strip() or "HEAD"
    commit = git("rev-parse", "--verify", revision + "^{commit}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return commit


def run_once(tree: Path, template: str, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """One run of the command in `tree`: its metrics, failure count and sha256."""
    fields = {"python": sys.executable, "workload": workload, "seed": seed, "seconds": seconds}
    cp = subprocess.run(
        [part.format(**fields) for part in shlex.split(template)],
        cwd=tree, capture_output=True, text=True, env=env,
    )
    lines = cp.stdout.splitlines()
    if cp.returncode != 0 or not lines:
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: exit {cp.returncode}\n{cp.stderr}")
    result = json.loads(lines[-1])
    info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
    metrics = result.get("metrics", result)
    return {
        "workload": workload,
        "seed": seed,
        "correct": result.get("correct", True),
        "failed": result.get("failed", 0),
        "sha256": info.get("sha256"),
        "info": info,
        "metrics": {k: v["value"] if isinstance(v, dict) else v for k, v in metrics.items()},
    }


def summarize(pairs: list[tuple[dict, dict]], higher: set[str]) -> dict:
    """Quartiles, IQR, median pair change, wins and the claim rule per metric."""
    summary = {
        "pairs": len(pairs),
        "sha_equal": sum(p["sha256"] == c["sha256"] for p, c in pairs),
        "failed_equal": sum(p["failed"] == c["failed"] for p, c in pairs),
        "failed": sum(p["failed"] + c["failed"] for p, c in pairs),
        "correct": all(p["correct"] and c["correct"] for p, c in pairs),
    }
    for name in pairs[0][0]["metrics"]:
        parent = [p["metrics"][name] for p, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        sign = 1.0 if name in higher else -1.0  # positive when the change is better
        pq, cq = quartiles(parent), quartiles(change)
        iqr = pq[2] - pq[0]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        summary[name] = {
            "better": "higher" if name in higher else "lower",
            "parent_quartiles": pq,
            "change_quartiles": cq,
            "parent_iqr": iqr,
            "median_pair_change": statistics.median(
                c / p - 1.0 if p else 0.0 for p, c in zip(parent, change)
            ),
            "change_wins": wins,
            "claim_rule_met": wins >= math.ceil(WIN_SHARE * len(pairs))
            and sign * (cq[1] - pq[1]) > iqr,
        }
    return summary


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def run_pairs(trees: tuple[Path, Path], args, env: dict, log) -> tuple[list[dict], list]:
    """Alternating pairs for every workload and seed: the runs and the (parent, change) pairs."""
    runs, pairs = [], {}
    for workload in args.workloads:
        for i, seed in enumerate(args.seeds):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            pair = [None, None]
            for side in order:
                pair[side] = run_once(trees[side], args.command, workload, seed, args.seconds, env)
                pair[side]["side"] = ("parent", "change")[side]
                pair[side]["first"] = ("parent", "change")[order[0]]
                runs.append(pair[side])
                log(f"{workload} seed {seed} {pair[side]['side']}: {pair[side]['metrics']}")
            pairs.setdefault(workload, []).append(tuple(pair))
    return runs, pairs


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workloads", type=lambda s: s.split(","), default=["patterns", "planning", "codebook"])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("101-110"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--control", action="store_true")
    parser.add_argument("--command", default=DEFAULT_COMMAND)
    parser.add_argument("--what", default="")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)

    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    root = Path(tempfile.mkdtemp(prefix="pairs-"))
    try:
        trees = (root / "parent", root / "change")
        commits = [export(args.repo, rev, tree) for rev, tree in zip((args.parent, args.change), trees)]
        config = trees[0] / "BENCHMARK.json"
        spec = json.loads(config.read_text()) if config.is_file() else {}
        higher = {m["name"] for m in spec.get("end_to_end", []) if m.get("better") == "higher"}
        runs, pairs = run_pairs(trees, args, env, log)
        summary = {w: summarize(p, higher) for w, p in pairs.items()}
        control = {}
        if args.control:
            _, same = run_pairs((trees[0], trees[0]), args, env, log)
            control = {w: summarize(p, higher) for w, p in same.items()}
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(root, ignore_errors=True)

    info = runs[0]["info"]
    report = {
        "what": args.what,
        "command": args.command.replace("{python}", "python3"),
        "parent": commits[0],
        "change": commits[1] if args.change != "WORKTREE" else "working tree",
        "machine": f"{info.get('nproc', os.cpu_count())}-core {info.get('platform', sys.platform)}, "
        f"Python {info.get('python', sys.version.split()[0])}, numpy {info.get('numpy', '?')}",
        "mode": "source, PYTHONDONTWRITEBYTECODE=1",
        "seeds": args.seeds,
        "seconds": args.seconds,
        "claim_rule": f"change wins >= {WIN_SHARE:.0%} of pairs and medians differ by > parent IQR",
        "claims_met": [f"{w} {m}" for w, s in summary.items() for m, v in s.items()
                       if isinstance(v, dict) and v["claim_rule_met"]],
        "summary": summary,
        "control": control or None,
        "runs": [{k: v for k, v in run.items() if k != "info"} for run in runs],
    }
    for workload, s in summary.items():
        print(f"{workload}: {s['pairs']} pairs, sha256 equal in {s['sha_equal']}, failed {s['failed']}")
        for name, v in s.items():
            if not isinstance(v, dict):
                continue
            line = (f"  {name}: {v['median_pair_change']:+.2%} median pair change, {v['change_wins']} wins,"
                    f" median {v['parent_quartiles'][1]:.6g} -> {v['change_quartiles'][1]:.6g},"
                    f" parent IQR {v['parent_iqr']:.3g}, claim rule {'met' if v['claim_rule_met'] else 'not met'}")
            if control:
                c = control[workload][name]
                rel = c["parent_iqr"] / abs(c["parent_quartiles"][1]) if c["parent_quartiles"][1] else 0.0
                line += f"; control resolves {max(rel, abs(c['median_pair_change'])):.2%}"
            print(line)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    # a stopped set still kills its running command and removes its trees
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    sys.exit(main())
