import math

import numpy as np
import pytest

from gnncert import Graph, SmoothingConfig, graph, load_graph, receptive_field, receptive_fields
from gnncert.bounds import _single_values
from gnncert.errors import DimensionError, GraphParseError, ResourceLimitError

from conftest import brute_force_paths, random_graph


def test_load_symmetrizes_undirected(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 1\n1 2\n")
    g = load_graph(p, directed=False)
    assert g.n == 3
    assert g.m == 4
    assert {(int(a), int(b)) for a, b in g.edges} == {(0, 1), (1, 0), (1, 2), (2, 1)}


def test_load_directed_single_edge(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 1\n")
    g = load_graph(p, directed=True)
    assert g.n == 2
    assert g.m == 1


def test_load_malformed_line_names_lineno(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 x\n")
    with pytest.raises(GraphParseError, match="line 1"):
        load_graph(p)


def test_load_comments_and_features(tmp_path):
    (tmp_path / "edges.txt").write_text("# comment\n0 1\n")
    (tmp_path / "feats.csv").write_text("1.0,0.0\n0.0,1.0\n0.5,0.5\n")
    g = load_graph(tmp_path / "edges.txt", tmp_path / "feats.csv")
    assert g.n == 3          # feature rows outnumber edge indices
    assert g.dim == 2


def test_load_label_mismatch(tmp_path):
    (tmp_path / "edges.txt").write_text("0 1\n")
    (tmp_path / "feats.csv").write_text("1.0\n0.0\n")
    (tmp_path / "labels.csv").write_text("0\n1\n0\n")
    with pytest.raises(DimensionError):
        load_graph(tmp_path / "edges.txt", tmp_path / "feats.csv",
                   tmp_path / "labels.csv")


def test_default_features_one_hot(tmp_path):
    (tmp_path / "edges.txt").write_text("0 1\n")
    g = load_graph(tmp_path / "edges.txt")
    assert np.array_equal(g.features, np.eye(2))


def test_self_loops_dropped():
    g = Graph.build(n=3, edges=[(0, 0), (0, 1)], directed=True)
    assert {(int(a), int(b)) for a, b in g.edges} == {(0, 1)}


def test_receptive_field_chain():
    g = Graph.build(n=3, edges=[(0, 1), (1, 2)], directed=True)
    rf = receptive_field(g, v=2, k=2)
    assert rf.members == {0, 1, 2}
    assert rf.paths[0] == (((0, 1), (1, 2)),)
    assert rf.paths[1] == (((1, 2),),)
    assert rf.distance == {2: 0, 1: 1, 0: 2}


def test_receptive_field_star():
    center = 0
    edges = [(i, center) for i in range(1, 6)]
    g = Graph.build(n=6, edges=edges, directed=False)
    rf = receptive_field(g, v=center, k=2)
    assert rf.size == 6
    for leaf in range(1, 6):
        assert sum(1 for q in rf.paths[leaf] if len(q) == 1) == 1


def test_receptive_field_k4_three_paths_from_one_source():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    g = Graph.build(n=4, edges=edges, directed=False)
    rf = receptive_field(g, v=0, k=2)
    assert set(rf.paths[1]) == {
        ((1, 0),),
        ((1, 2), (2, 0)),
        ((1, 3), (3, 0)),
    }
    assert len(rf.paths[1]) == 3


def test_completeness_against_brute_force(rng):
    for _ in range(25):
        g = random_graph(rng, n=int(rng.integers(3, 10)),
                         p_edge=0.4, directed=bool(rng.integers(2)))
        v = int(rng.integers(g.n))
        k = int(rng.integers(1, 4))
        rf = receptive_field(g, v, k)
        expected = brute_force_paths(g, v, k)
        got = {w: set(p) for w, p in rf.paths.items()}
        assert got == expected
        for w, plist in expected.items():
            assert rf.distance[w] == min(len(p) for p in plist)


def test_path_soundness(rng):
    g = random_graph(rng, n=9, p_edge=0.35)
    edge_set = {(int(a), int(b)) for a, b in g.edges}
    rf = receptive_field(g, v=0, k=3)
    for w, plist in rf.paths.items():
        for q in plist:
            assert q[0][0] == w and q[-1][1] == 0
            nodes = [q[0][0]] + [e[1] for e in q]
            assert len(set(nodes)) == len(nodes)       # simple
            for (a, b), (c, _) in zip(q, q[1:]):
                assert b == c                          # consecutive edges chain
            assert all(e in edge_set for e in q)


def test_determinism(rng):
    g = random_graph(rng, n=10, p_edge=0.4)
    a = receptive_field(g, 3, 3)
    b = receptive_field(g, 3, 3)
    assert a.paths == b.paths


def test_max_paths_budget():
    edges = [(i, j) for i in range(8) for j in range(8) if i != j]
    g = Graph.build(n=8, edges=edges, directed=False)
    with pytest.raises(ResourceLimitError):
        receptive_field(g, 0, 3, max_paths=10)


def test_without_nodes_isolates():
    g = Graph.build(n=4, edges=[(0, 1), (1, 2), (2, 3)], directed=False)
    sub = g.without_nodes([2])
    assert {(int(a), int(b)) for a, b in sub.edges} == {(0, 1), (1, 0)}
    assert sub.n == g.n


def random_graphs(rng, count=20):
    for i in range(count):
        yield random_graph(rng, n=int(rng.integers(1, 12)),
                           p_edge=float(rng.uniform(0.0, 0.6)),
                           directed=bool(i % 2))


def test_in_neighbor_index_matches_brute_force(rng):
    for g in random_graphs(rng):
        indptr, senders = g.in_neighbors
        assert g.in_neighbors is g.in_neighbors     # built once per graph
        for u in range(g.n):
            expected = sorted(int(a) for a, b in g.edges if b == u)
            assert senders[indptr[u]:indptr[u + 1]].tolist() == expected


def ref_logical_ids(edges, directed):
    """Ranks of the edges' ``canonical_edge`` pairs, and their number, by ``np.unique``."""
    if not edges.size:
        return np.zeros(0, dtype=np.int64), 0
    canon = edges if directed else np.sort(edges, axis=1)
    pairs, ids = np.unique(canon, axis=0, return_inverse=True)
    return ids.reshape(-1), len(pairs)


def test_with_edges_logical_ids_match_recomputation(rng):
    # a view's edges may hold one orientation of an undirected edge only
    for g in random_graphs(rng):
        masks = [np.zeros(g.m, dtype=bool), np.ones(g.m, dtype=bool),
                 rng.random(g.m) < 0.5]
        for mask in masks:
            view = g.with_edges(mask)
            ids, n_logical = ref_logical_ids(g.edges[mask], g.directed)
            assert np.array_equal(view.logical_edge_ids, ids)
            assert view.n_logical == n_logical
            inner = rng.random(view.m) < 0.5            # a view of a view
            ids, n_logical = ref_logical_ids(view.edges[inner], g.directed)
            assert np.array_equal(view.with_edges(inner).logical_edge_ids, ids)
            assert view.with_edges(inner).n_logical == n_logical


def test_edges_within_matches_per_edge_scan(rng):
    for g in random_graphs(rng):
        v = int(rng.integers(g.n))
        rf = receptive_field(g, v, int(rng.integers(1, 4)))
        expected = tuple(
            (int(a), int(b)) for a, b in g.edges
            if int(a) in rf.members and int(b) in rf.members
        )
        assert rf.edges_within == expected


def test_candidates_are_sorted_once_per_d_min(rng):
    g = random_graph(rng, n=12, p_edge=0.3)
    rf = receptive_field(g, 0, 3)
    for d_min in (0, 1, 2, 3, 4):
        got = rf.candidates(d_min)
        assert got == tuple(sorted(w for w in rf.members if rf.distance[w] >= d_min))
        assert rf.candidates(d_min) is got          # kept, and a tuple no caller can change
        assert rf.attack_surface(d_min) == len(got)


# ---------------------------------------------------------------------------
# array enumeration against a depth-first search


def dfs_field(g, v, k, max_paths):
    """Distances and paths into ``v`` by a depth-first search backward from it.

    Senders are taken in ascending order and a path is recorded before its
    extensions; each source's paths keep that order, and sources ascend.
    Raises ``ResourceLimitError`` at the first path past ``max_paths``.
    """
    indptr, senders = g.in_neighbors
    paths, on_path, count = {}, [v], 0

    def visit(u, suffix, depth):
        nonlocal count
        for a in senders[indptr[u]:indptr[u + 1]].tolist():
            if a in on_path:
                continue
            path = ((a, u),) + suffix
            count += 1
            if count > max_paths:
                raise ResourceLimitError(
                    f"receptive field of node {v} exceeds {max_paths} simple "
                    f"paths; sparsify the graph or raise max_paths"
                )
            paths.setdefault(a, []).append(path)
            if depth + 1 < k:
                on_path.append(a)
                visit(a, path, depth + 1)
                on_path.pop()

    visit(v, (), 0)
    distance = {v: 0, **{w: min(map(len, plist)) for w, plist in paths.items()}}
    return distance, {w: tuple(plist) for w, plist in sorted(paths.items())}


def reference_cases(rng, count=60):
    for i in range(count):
        g = random_graph(rng, n=int(rng.integers(1, 13)),
                         p_edge=float(rng.uniform(0.0, 0.6)), directed=bool(i % 2))
        yield g, 1 + i % 3


def test_fields_equal_the_depth_first_search(rng):
    for g, k in reference_cases(rng):
        for v, rf in enumerate(receptive_fields(g, range(g.n), k)):
            distance, paths = dfs_field(g, v, k, graph.DEFAULT_MAX_PATHS)
            assert rf.target == v and rf.members == set(distance)
            assert rf.distance == distance
            assert list(rf.paths) == list(paths)
            assert rf.paths == paths                    # each source's paths in DFS order
            edges = {e for plist in paths.values() for q in plist for e in q}
            assert rf.path_edges == edges
            # a tree when the message edges number one less than the members
            children = {w: tuple(sorted(a for a, b in edges if b == w)) for w in distance}
            want = children if len(edges) == len(distance) - 1 else None
            assert rf.tree_children == want


def test_single_values_equal_the_product_in_depth_first_order(rng):
    for g, k in reference_cases(rng):
        c = SmoothingConfig(p_del=float(rng.uniform(0.0, 1.0)),
                            p_abl=float(rng.uniform(0.0, 1.0)))
        keep, reach = 1.0 - c.p_del, 1.0 - c.p_abl
        for v in range(g.n):
            _, paths = dfs_field(g, v, k, graph.DEFAULT_MAX_PATHS)
            want = {w: min(1.0, max(0.0, reach * (1.0 - math.prod(
                1.0 - keep ** len(q) for q in plist)))) for w, plist in paths.items()}
            want[v] = min(1.0, max(0.0, reach))
            got = _single_values(receptive_field(g, v, k), c)
            assert got.keys() == want.keys()
            assert all(got[w].hex() == want[w].hex() for w in want), v


def test_chunked_builds_equal_one_target_builds(rng, monkeypatch):
    tables = ("member_ids", "member_distance", "path_offsets", "path_source",
              "path_length", "path_nodes")
    cases = list(reference_cases(rng, count=30))
    singles = [[receptive_field(g, v, k) for v in range(g.n)] for g, k in cases]
    # a budget of 1 to 50 path rows cuts the targets into many chunks, and
    # splits a layer's extensions into pieces
    for chunk_bytes in (8, 400, 2000, graph._CHUNK_BYTES):
        monkeypatch.setattr(graph, "_CHUNK_BYTES", chunk_bytes)
        for (g, k), alone in zip(cases, singles):
            targets = rng.permutation(g.n).tolist() * 2     # any order, repeats too
            for v, rf in zip(targets, receptive_fields(g, targets, k)):
                for name in tables:
                    assert np.array_equal(getattr(rf, name), getattr(alone[v], name)), name


def test_chunks_hold_a_bounded_number_of_paths(rng, monkeypatch):
    held = []
    path_rows = graph._path_rows

    def recording(g, targets, k, max_paths, rows):
        owner, length, nodes, over = path_rows(g, targets, k, max_paths, rows)
        held.append((len(targets), len(owner), rows))
        return owner, length, nodes, over

    monkeypatch.setattr(graph, "_path_rows", recording)
    monkeypatch.setattr(graph, "_CHUNK_BYTES", 2000)
    for g, k in reference_cases(rng, count=30):
        list(receptive_fields(g, range(g.n), k))
    assert any(n > 1 for n, _, _ in held) and any(p > rows for _, p, rows in held)
    assert all(p <= rows for n, p, rows in held if n > 1)    # only a lone target exceeds


def test_max_paths_refusals_equal_the_depth_first_search(rng):
    refused = 0
    for g, k in reference_cases(rng):
        max_paths = int(rng.integers(1, 40))
        for v, rf in enumerate(receptive_fields(g, range(g.n), k, max_paths)):
            try:
                dfs_field(g, v, k, max_paths)
            except ResourceLimitError as exc:
                refused += 1
                assert isinstance(rf, ResourceLimitError) and str(rf) == str(exc)
                with pytest.raises(ResourceLimitError, match=f"^{exc}$"):
                    receptive_field(g, v, k, max_paths)
            else:
                assert not isinstance(rf, ResourceLimitError)
    assert refused
