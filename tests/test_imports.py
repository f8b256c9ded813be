"""No module of the package imports a name it never reads.

No linter runs on the package, so an import left behind by a refactor
stays bound and reads as used.  ``__init__`` is left out: its imports are
the public API.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gnncert"

# Imports kept on purpose though the module never reads them.  ``cli`` binds
# ``receptive_field`` because perfbench's tracer self-test
# (``test_spans_opened_on_pool_threads_attach_to_the_root``) calls it
# through ``cli``; it goes when that test stops doing so.
KEPT_UNREAD = {"cli": ["receptive_field"]}


def unread_imports(source: str) -> list[str]:
    """Names a module's imports bind that no expression of the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_the_check_finds_an_unread_import():
    assert unread_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == ["os", "e"]
    assert unread_imports("from __future__ import annotations\nimport a.b\na.b.f()\n") == []


def test_no_module_imports_a_name_it_never_reads():
    unread = {path.stem: names for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              and (names := unread_imports(path.read_text(encoding="utf-8")))}
    assert unread == KEPT_UNREAD
