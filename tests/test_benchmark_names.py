"""Every function the benchmark traces exists under the name it traces.

``perfbench/tracer.py`` wraps package functions by module and name; one
renamed or moved silently goes untraced, and its per-layer metrics read 0.
"""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_name_is_found(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer()
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()
