"""Every function the benchmark traces exists under the name it traces.

``perfbench/tracer.py`` wraps package functions by module and name; one
renamed or moved silently goes untraced, and its per-layer metrics read 0.
It also counts what the traced calls return, through their results'
attributes (``.size``, ``.paths``, ``.votes``, ``.members``); one renamed
reads as a failed call.
"""

import importlib
import math
from pathlib import Path

from gnncert import Graph, derandomize, gcn, graph

ROOT = Path(__file__).resolve().parent.parent


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("tracer").Tracer()


def test_every_traced_name_is_found(monkeypatch):
    tracer = _tracer(monkeypatch)
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()


def test_traced_results_are_counted(monkeypatch, tmp_path):
    # a 4-cycle with a chord: node 0's field at k = 2 holds 7 simple paths
    g = Graph.build(n=4, edges=[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    votes = tmp_path / "votes.csv"
    votes.write_text("node_id,sample_index,class\n0,0,1\n0,1,0\n2,0,1\n")
    tracer = _tracer(monkeypatch)
    try:
        assert tracer.install() == []
        rf = graph.receptive_field(g, 0, 2)
        gcn.load_votes(votes)
        reps = derandomize.enumerate_representatives(rf, 1)
    finally:
        tracer.uninstall()
    counts = tracer.summary(run_s=0.0)
    assert counts["graph.receptive_field.calls"] == 1
    assert counts["graph.field_members.sum"] == counts["graph.field_members.max"] == 4
    assert counts["graph.simple_paths"] == len(rf.path_length) == 7
    assert counts["gcn.load_votes.rows"] == 3
    assert counts["derandomize.representatives"] == len(reps) > 0
    assert counts["derandomize.support"] == math.comb(3, 1)
