"""The seed-0 benchmark calls match their recorded references.

The benchmark (``perfbench/run.py``) compares the rows of its default seed
with ``perfbench/reference/``; these run the same inputs through the CLI in
process (``train`` first, for the model workloads), so a change that breaks
a recorded row fails here too.
"""

import importlib
import json
from pathlib import Path

from gnncert.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _run_seed_0(workload, tmp_path, monkeypatch):
    """Generate, train if needed, and run ``workload``; return its inputs, output and checks."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    inputs = workloads.WORKLOADS[workload](0, tmp_path)
    monkeypatch.chdir(tmp_path)
    if inputs.train_config:
        assert main(["train", "--config", inputs.train_config]) == 0
    assert main([inputs.command, "--config", inputs.run_config]) == 0

    text = (tmp_path / "out" / inputs.output).read_text(encoding="utf-8")
    reference = (ROOT / "perfbench" / "reference" / f"{workload}.csv").read_text(
        encoding="utf-8")
    scan = json.loads((tmp_path / inputs.run_config).read_text()).get("rho_max_scan")
    assert checks.against_reference(inputs.output, text, reference) == []
    assert checks.invariants(inputs.output, text, inputs.targets, scan) == []
    return inputs, text, checks


def test_certify_votes_exact_seed_0_matches_reference(tmp_path, monkeypatch):
    inputs, text, checks = _run_seed_0("certify-votes-exact", tmp_path, monkeypatch)
    assert len(inputs.targets) == 50 and checks.error_rows(text) == 0


def test_certify_gcn_seed_0_matches_reference(tmp_path, monkeypatch):
    inputs, text, checks = _run_seed_0("certify-gcn", tmp_path, monkeypatch)
    assert len(inputs.targets) == 20 and checks.error_rows(text) == 0


def test_derandomize_keepk_seed_0_matches_reference(tmp_path, monkeypatch):
    inputs, text, checks = _run_seed_0("derandomize-keepk", tmp_path, monkeypatch)
    assert len(inputs.targets) == 12 and checks.error_rows(text) == 0
