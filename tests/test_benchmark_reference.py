"""The seed-0 ``certify-votes-exact`` benchmark call matches its recorded reference.

The benchmark (``perfbench/run.py``) compares the rows of its default seed
with ``perfbench/reference/``; this runs the same inputs through the CLI in
process, so a change that breaks a recorded row fails here too.
"""

import importlib
import json
from pathlib import Path

from gnncert.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_certify_votes_exact_seed_0_matches_reference(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    inputs = workloads.WORKLOADS["certify-votes-exact"](0, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([inputs.command, "--config", inputs.run_config]) == 0

    text = (tmp_path / "out" / inputs.output).read_text(encoding="utf-8")
    reference = (ROOT / "perfbench" / "reference" / "certify-votes-exact.csv").read_text(
        encoding="utf-8")
    scan = json.loads((tmp_path / inputs.run_config).read_text())["rho_max_scan"]
    assert checks.against_reference(inputs.output, text, reference) == []
    assert checks.invariants(inputs.output, text, inputs.targets, scan) == []
    assert len(inputs.targets) == 50 and checks.error_rows(text) == 0
