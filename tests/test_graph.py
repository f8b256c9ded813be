import numpy as np
import pytest

from gnncert import Graph, load_graph, receptive_field
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
