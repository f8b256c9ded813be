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

from gnncert import Graph, SmoothingConfig, bounds, derandomize, gcn, graph

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


def test_traced_exact_bounds_count_every_fixed_set(monkeypatch):
    # the exact worst case reaches its fixed-set values through the names the
    # tracer wraps, so their call counts are the fixed sets evaluated
    tree = graph.receptive_field(Graph.build(n=5, edges=[(1, 0), (2, 0), (3, 1), (4, 1)]), 0, 2)
    cycle = graph.receptive_field(Graph.build(n=4, edges=[(0, 1), (1, 2), (2, 3), (3, 0)]), 0, 2)
    assert tree.tree_order is not None and cycle.tree_order is None
    c = SmoothingConfig(p_del=0.3, p_abl=0.4)
    tracer = _tracer(monkeypatch)
    try:
        assert tracer.install() == []
        tree_sets = cycle_sets = 0
        for d_min in (0, 1):
            # a predicate nothing passes: budget 1 fails on the exact value of
            # the top single-source set, and the curve stops there
            curve = bounds.worst_case_curve(tree, d_min, c, method="exact-enumeration",
                                            certifies=lambda delta: False)
            assert len(curve) == 1 and curve[0].method == "tree-exact"
            tree_sets += 1
            # the knapsack over a tree evaluates no fixed set
            bounds.worst_case_curve(tree, d_min, c, method="exact-enumeration")
            # the cycle's full curve scans every candidate subset of each budget's size
            surface = cycle.attack_surface(d_min)
            bounds.worst_case_curve(cycle, d_min, c, method="exact-enumeration")
            cycle_sets += sum(math.comb(surface, r) for r in range(1, surface + 1))
    finally:
        tracer.uninstall()
    counts = tracer.summary(run_s=0.0)
    assert counts["bounds.worst_case_curve.calls"] == 6
    assert counts["bounds.delta_tree_exact.calls"] == tree_sets == 2
    assert counts["bounds.delta_exact_ie.calls"] == cycle_sets == 15 + 7
