"""The demos import only names the package has and run to completion; README's
quickstart runs and its minimal config loads."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gnncert.cli import RunConfig

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gnncert"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gnncert"):
                    importlib.import_module(alias.name)


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_minimal_config_loads(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("A minimal config:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "run.json"
    path.write_text(block, encoding="utf-8")
    cfg = RunConfig.from_file(str(path), {})
    raw = json.loads(block)
    assert {key: getattr(cfg, key) for key in raw} == raw
