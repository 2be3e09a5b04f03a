"""tools/pairs.py, alternating process pairs of two trees and the claim rule."""
import json
import runpy
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).parents[1] / "tools" / "pairs.py"
# A stand-in for benchmark/run.py: an info line with the sha256 of its "outputs", then
# its result, whose wall_s is its own run time to 10 ms (0.0 when it does not sleep).
STUB = """import json, sys, time
DELAY = {delay}
start = time.perf_counter()
time.sleep(DELAY)
print("info " + json.dumps({{"sha256": "outputs of seed " + sys.argv[1]}}))
wall = {{"value": round(time.perf_counter() - start, 2), "unit": "s"}}
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0, "metrics": {{"wall_s": wall}}}}))
"""
COMMAND = "{python} -I -S stub.py {seed}"  # -I -S: no site, a faster start


@pytest.fixture(scope="module")
def repo(tmp_path_factory):
    """A repository whose tag `fast` holds the stub and `slow` the stub with a 30 ms sleep."""
    path = tmp_path_factory.mktemp("repo")

    def git(*args):
        subprocess.run(
            ["git", "-C", str(path), "-c", "user.name=t", "-c", "user.email=t@t", *args],
            check=True, capture_output=True,
        )

    git("init", "-q")
    for tag, delay in (("fast", 0.0), ("slow", 0.03)):
        (path / "stub.py").write_text(STUB.format(delay=delay))
        git("add", "stub.py")
        git("commit", "-q", "-m", tag)
        git("tag", tag)
    return path


def _pairs(repo, tmp_path, parent, change, *flags):
    out = tmp_path / "pairs.json"
    args = [parent, change, "--repo", str(repo), "--command", COMMAND, "--workloads", "stub",
            "--seeds", "1-10", "--out", str(out), *flags]
    assert runpy.run_path(str(TOOL))["main"](args) == 0
    return json.loads(out.read_text())


def test_identical_stubs_never_meet_the_claim_rule(repo, tmp_path, capsys):
    report = _pairs(repo, tmp_path, "fast", "fast", "--control")
    for summary in (report["summary"]["stub"], report["control"]["stub"]):
        assert summary["pairs"] == summary["sha_equal"] == summary["failed_equal"] == 10
        # 0.0 s on both sides, bar a rare preemption of the stub
        assert summary["wall_s"]["change_wins"] <= 1
        assert not summary["wall_s"]["claim_rule_met"]
    assert report["claims_met"] == []
    assert "claim rule not met; control resolves" in capsys.readouterr().out


def test_a_sleep_taken_out_meets_the_claim_rule_and_one_put_in_does_not(repo, tmp_path):
    report = _pairs(repo, tmp_path, "slow", "fast")
    wall = report["summary"]["stub"]["wall_s"]
    assert wall["change_wins"] == 10 and wall["claim_rule_met"]
    assert wall["median_pair_change"] == -1.0  # 0.0 s against about 0.03 s
    assert report["claims_met"] == ["stub wall_s"]
    # the side that runs first alternates, the parent first at the first seed
    firsts = [run["first"] for run in report["runs"] if run["side"] == "parent"]
    assert firsts == ["parent", "change"] * 5
    assert [run["seed"] for run in report["runs"]] == [s for s in range(1, 11) for _ in "pc"]

    report = _pairs(repo, tmp_path, "fast", "slow")
    assert report["summary"]["stub"]["wall_s"]["change_wins"] == 0
    assert report["claims_met"] == []
