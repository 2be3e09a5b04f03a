"""The CLI's exit codes, stdout, stderr and files, byte for byte, and the model's
full-precision results, against the golden manifest.

After an intended change of output bytes, rewrite the manifest with
helpers.regenerate_golden_outputs and say in the change which entries moved.
"""
from helpers import assert_matches_golden, golden_model_results, run_golden_commands


def test_cli_outputs_match_the_golden_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert_matches_golden("cli", run_golden_commands())


def test_model_results_match_the_golden_manifest():
    assert_matches_golden("model", golden_model_results())
