import collections
import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from gnncert import (
    DeltaBound,
    Graph,
    SmoothingConfig,
    delta_exact_ie,
    delta_greedy_probe,
    delta_monte_carlo,
    delta_multiplicative,
    delta_node_ablation_exact,
    delta_single_source,
    delta_tree_exact,
    delta_union,
    delta_worst_case,
    levine_delta,
    max_certifiable_radius,
    receptive_field,
    worst_case_curve,
)
from gnncert.bounds import (
    DEFAULT_MAX_IE_TERMS,
    DEFAULT_SUBSET_CAP,
    _exact_for_set,
    _single_values,
    _tree_worst_curve,
    _worst_case,
)
from gnncert.errors import NotATreeError, ResourceLimitError
from gnncert.estimator import certifies, radius

from conftest import random_graph, random_tree


def cfg(p_del=0.0, p_abl=0.0, seed=3):
    return SmoothingConfig(p_del=p_del, p_abl=p_abl, seed=seed)


# ---------------------------------------------------------------------------
# ablation-only closed form and radius cap


def test_node_ablation_exact_values():
    assert delta_node_ablation_exact(0.5, 1).value == pytest.approx(0.5)
    # square root of one half: two attacked nodes sit exactly on the 1/2 line
    assert delta_node_ablation_exact(math.sqrt(0.5), 2).value == pytest.approx(0.5, abs=1e-12)
    assert delta_node_ablation_exact(0.0, 3).value == 1.0
    assert delta_node_ablation_exact(0.3, 0).value == 0.0


def test_max_certifiable_radius_known_points():
    assert max_certifiable_radius(0.9) == 6
    assert max_certifiable_radius(0.5) == 0
    assert max_certifiable_radius(0.933) == 10
    assert max_certifiable_radius(0.85) == 4
    assert max_certifiable_radius(0.3) == 0


def test_levine_reference_values():
    assert levine_delta(10, 1, 4).value == pytest.approx(0.4)
    assert levine_delta(10, 1, 0).value == 0.0
    assert levine_delta(5, 4, 3).value == 1.0    # cannot keep 4 of the 2 clean


def test_levine_radius_for_ten_nodes_keep_one():
    radii = [rho for rho in range(1, 10) if levine_delta(10, 1, rho).value < 0.5]
    assert max(radii) == 4


def test_tighter_than_levine_strict(rng):
    for n in range(3, 21):
        for keep in range(1, n):
            for rho in range(2, n - keep + 1):
                ours = 1.0 - (1.0 - keep / n) ** rho
                ref = levine_delta(n, keep, rho).value
                assert ours < ref


# ---------------------------------------------------------------------------
# single-source bound


def test_single_source_target_case():
    g = Graph.build(n=2, edges=[(0, 1)], directed=False)
    rf = receptive_field(g, 0, 2)
    assert delta_single_source(rf, 0, cfg(p_abl=0.3)).value == pytest.approx(0.7)


def test_single_source_one_path_of_length_two():
    g = Graph.build(n=3, edges=[(2, 1), (1, 0)], directed=True)
    rf = receptive_field(g, 0, 2)
    b = delta_single_source(rf, 2, cfg(p_del=0.5, p_abl=0.0))
    assert b.value == pytest.approx(0.25)


def test_single_source_two_disjoint_paths():
    g = Graph.build(n=3, edges=[(1, 0), (1, 2), (2, 0)], directed=False)
    rf = receptive_field(g, 0, 2)
    b = delta_single_source(rf, 1, cfg(p_del=0.5, p_abl=0.2))
    assert b.value == pytest.approx(0.5)
    # cross-check against sampling: the bound is tight for 2-layer fields
    mc = delta_monte_carlo(rf, {1}, cfg(p_del=0.5, p_abl=0.2), 200_000, seed=5)
    assert abs(mc.value - 0.5) <= 4 * math.sqrt(0.25 / 200_000)


def test_single_source_outside_field_is_zero():
    g = Graph.build(n=4, edges=[(0, 1), (2, 3)], directed=False)
    rf = receptive_field(g, 0, 2)
    assert delta_single_source(rf, 3, cfg(p_del=0.1, p_abl=0.1)).value == 0.0


def test_single_source_tight_for_two_layer_fields(rng):
    for _ in range(20):
        g = random_graph(rng, n=int(rng.integers(4, 9)), p_edge=0.4)
        rf = receptive_field(g, 0, 2)
        c = cfg(p_del=float(rng.uniform(0, 1)), p_abl=float(rng.uniform(0, 1)))
        for w in sorted(rf.members - {0}):
            ss = delta_single_source(rf, w, c)
            ie = delta_exact_ie(rf, {w}, c)
            assert ss.value == pytest.approx(ie.value, abs=1e-12)


def _stable_product(factors):
    """Product of ``factors``: 0 if one is <= 0, in log space if one is below 1e-12."""
    if min(factors, default=1.0) <= 0.0:
        return 0.0
    if min(factors, default=1.0) < 1e-12:
        return math.exp(math.fsum(math.log(f) for f in factors))
    return math.prod(factors)


def _single_source_by_hand(rf, w, c):
    """The single-source value, each branch of the stable product written out."""
    if w == rf.target:
        return min(1.0, max(0.0, 1.0 - c.p_abl))
    none_arrives = _stable_product([1.0 - (1.0 - c.p_del) ** len(q) for q in rf.paths[w]])
    return min(1.0, max(0.0, (1.0 - c.p_abl) * (1.0 - none_arrives)))


def test_single_values_equal_single_source_bit_for_bit(rng):
    # p_del 1e-13 and 1e-16 put every path factor 1 - (1 - p_del)**L below
    # 1e-12, where a log-space product and the plain one must give the same
    # bits after 1 - product; 0 and 1 give factors 0 and 1
    for trial in range(40):
        g = random_graph(rng, n=int(rng.integers(3, 9)), p_edge=0.4,
                         directed=bool(trial % 2))
        rf = receptive_field(g, int(rng.integers(g.n)), int(rng.integers(1, 4)))
        for p_del in (0.0, 1e-16, 1e-13, 0.3, 1.0):
            c = cfg(p_del=p_del, p_abl=float(rng.uniform(0, 1)))
            values = _single_values(rf, c)
            assert set(values) == rf.members
            for w in rf.members:
                want = _single_source_by_hand(rf, w, c)
                assert values[w] == delta_single_source(rf, w, c).value == want, (w, p_del)


# ---------------------------------------------------------------------------
# multiplicative and union combinations


def test_multiplicative_arithmetic():
    assert delta_multiplicative([0.3, 0.2], 2).value == pytest.approx(0.44)
    assert delta_multiplicative([0.3, 0.2], 5).value == pytest.approx(0.44)
    x = 0.375
    assert delta_multiplicative([x], 1).value == pytest.approx(x)
    for singles in ([0.3, 0.2], []):
        assert delta_multiplicative(singles, 0).value == 0.0
    assert delta_multiplicative([], 3).value == 0.0
    tagged = [DeltaBound(value=v, method="single-source", rho=1) for v in (0.2, 0.3)]
    for rho in range(4):
        assert delta_multiplicative(tagged, rho) == delta_multiplicative([0.2, 0.3], rho)
    with pytest.raises(ValueError):
        delta_multiplicative([0.3], -1)


def test_union_arithmetic_and_clamp():
    assert delta_union([0.3, 0.2], 2).value == pytest.approx(0.5)
    clamped = delta_union([0.6, 0.6], 2)
    assert clamped.value == 1.0
    assert clamped.raw == pytest.approx(1.2)
    for singles in ([0.3, 0.2], []):
        b = delta_union(singles, 0)
        assert b.value == 0.0 and b.raw == 0.0
    assert delta_union([], 3).raw == 0.0
    tagged = [DeltaBound(value=v, method="single-source", rho=1) for v in (0.2, 0.6, 0.6)]
    for rho in range(5):
        assert delta_union(tagged, rho) == delta_union([0.2, 0.6, 0.6], rho)
    with pytest.raises(ValueError):
        delta_union([0.3], -1)


def test_union_dominates_multiplicative(rng):
    for _ in range(200):
        singles = rng.uniform(0, 1, size=rng.integers(1, 8)).tolist()
        rho = int(rng.integers(1, 9))
        mult = delta_multiplicative(singles, rho).value
        union = delta_union(singles, rho)
        assert mult <= union.raw + 1e-12


# ---------------------------------------------------------------------------
# exact inclusion-exclusion


def test_ie_single_path_single_term():
    g = Graph.build(n=2, edges=[(1, 0)], directed=True)
    rf = receptive_field(g, 0, 2)
    b = delta_exact_ie(rf, {1}, cfg(p_del=0.3, p_abl=0.4))
    assert b.value == pytest.approx(0.7 * 0.6)


def test_ie_bottleneck_two_second_hop_sources():
    # both attacked nodes reach the target only through the same middle edge
    g = Graph.build(n=4, edges=[(2, 1), (3, 1), (1, 0)], directed=False)
    rf = receptive_field(g, 0, 2)
    for p_del in (0.2, 0.5, 0.8):
        b = delta_exact_ie(rf, {2, 3}, cfg(p_del=p_del, p_abl=0.0))
        assert b.value == pytest.approx((1 - p_del) * (1 - p_del ** 2), abs=1e-12)


def test_ie_target_only():
    g = Graph.build(n=3, edges=[(1, 0), (2, 0)], directed=False)
    rf = receptive_field(g, 0, 2)
    b = delta_exact_ie(rf, {0}, cfg(p_del=0.9, p_abl=0.4))
    assert b.value == pytest.approx(0.6)


def test_ie_term_budget():
    edges = [(i, j) for i in range(7) for j in range(7) if i != j]
    g = Graph.build(n=7, edges=edges, directed=False)
    rf = receptive_field(g, 0, 2)
    with pytest.raises(ResourceLimitError):
        delta_exact_ie(rf, set(range(1, 7)), cfg(p_del=0.5), max_terms=64)


def test_ie_agrees_with_monte_carlo(rng):
    for _ in range(5):
        g = random_graph(rng, n=int(rng.integers(4, 8)), p_edge=0.35)
        rf = receptive_field(g, 0, 2)
        pool = sorted(rf.members)
        attacked = set(rng.choice(pool, size=min(2, len(pool)), replace=False).tolist())
        c = cfg(p_del=float(rng.uniform(0.1, 0.9)),
                p_abl=float(rng.uniform(0.1, 0.9)))
        exact = delta_exact_ie(rf, attacked, c).value
        n = 100_000
        mc = delta_monte_carlo(rf, attacked, c, n, seed=int(rng.integers(1 << 30)))
        se = math.sqrt(max(exact * (1 - exact), 1e-12) / n)
        assert abs(mc.value - exact) <= 4 * se


# the tuple form the coin table replaced: each path a tuple of directed edges,
# each edge's coin its canonical pair, and the field's path edges a set


def _canonical_edge(e, directed):
    a, b = int(e[0]), int(e[1])
    return (a, b) if directed or a <= b else (b, a)


def _tuple_ie(rf, attacked, c, directed, max_terms):
    attacked = set(int(w) for w in attacked)
    path_list, edge_ids = [], {}
    for si, w in enumerate(sorted(attacked - {rf.target})):
        for q in rf.paths.get(w, ()):
            bits = 0
            for e in q:
                bits |= 1 << edge_ids.setdefault(_canonical_edge(e, directed), len(edge_ids))
            path_list.append((bits, 1 << si))
    if (1 << len(path_list)) > max_terms:
        raise ResourceLimitError(
            f"inclusion-exclusion over {len(path_list)} paths needs "
            f"2**{len(path_list)} terms (> {max_terms}); use the tree or "
            f"multiplicative method")
    terms = []
    for size in range(1, len(path_list) + 1):
        for subset in itertools.combinations(path_list, size):
            ebits = functools.reduce(int.__or__, (e for e, _ in subset))
            sbits = functools.reduce(int.__or__, (s for _, s in subset))
            t = (1.0 - c.p_del) ** ebits.bit_count() * (1.0 - c.p_abl) ** sbits.bit_count()
            terms.append(t if size % 2 else -t)
    p_paths = min(1.0, max(0.0, math.fsum(terms)))
    value = 1.0 - (1.0 - p_paths) * c.p_abl if rf.target in attacked else p_paths
    return min(1.0, max(0.0, value))


def _tuple_monte_carlo(rf, attacked, c, directed, samples, seed):
    attacked = sorted(set(int(w) for w in attacked))
    rng = np.random.default_rng(seed)
    directed_edges = sorted({e for plist in rf.paths.values() for q in plist for e in q})
    logical = sorted({_canonical_edge(e, directed) for e in directed_edges})
    eid = {e: i for i, e in enumerate(logical)}
    sources = [w for w in attacked if w != rf.target]
    col = {w: i for i, w in enumerate(sorted(rf.members))}
    arcs = [(col[a], col[b], eid[_canonical_edge((a, b), directed)])
            for a, b in directed_edges]
    kept = (rng.random((samples, len(logical))) >= c.p_del
            if logical else np.ones((samples, 0), dtype=bool))
    abl = rng.random((samples, len(sources) + 1)) < c.p_abl
    within = np.zeros((samples, len(col)), dtype=bool)
    within[:, col[rf.target]] = True
    frontier = within.copy()
    for _ in range(rf.k):
        new = np.zeros_like(within)
        for a, b, coin in arcs:
            new[:, a] |= frontier[:, b] & kept[:, coin]
        frontier = new & ~within
        within |= frontier
    arrived = ~abl[:, -1] if rf.target in attacked else np.zeros(samples, dtype=bool)
    for i, w in enumerate(sources):
        if w in col:
            arrived |= within[:, col[w]] & ~abl[:, i]
    return int(arrived.sum()) / samples


def test_coin_table_bounds_equal_the_tuple_form(rng):
    # directed and undirected graphs, and views keeping some edges, whose
    # coins are re-ranked and may keep one orientation of an undirected edge
    refused = compared = 0
    for i in range(40):
        g = random_graph(rng, n=int(rng.integers(2, 10)),
                         p_edge=float(rng.uniform(0.2, 0.6)), directed=bool(i % 2))
        if i % 4 >= 2:
            g = g.with_edges(rng.random(g.m) < 0.7)
        k = 1 + i % 3
        for v in rng.choice(g.n, size=min(3, g.n), replace=False).tolist():
            rf = receptive_field(g, v, k)
            for _ in range(3):
                attacked = rng.choice(g.n, size=int(rng.integers(1, min(4, g.n) + 1)),
                                      replace=False).tolist()
                c = cfg(p_del=float(rng.uniform(0.0, 1.0)), p_abl=float(rng.uniform(0.0, 1.0)))
                max_terms = 2 ** int(rng.integers(0, 13))
                try:
                    want = _tuple_ie(rf, attacked, c, g.directed, max_terms)
                except ResourceLimitError as exc:
                    refused += 1
                    with pytest.raises(ResourceLimitError, match=f"^{re.escape(str(exc))}$"):
                        delta_exact_ie(rf, attacked, c, max_terms=max_terms)
                else:
                    compared += 1
                    got = delta_exact_ie(rf, attacked, c, max_terms=max_terms).value
                    assert got.hex() == want.hex(), (i, v, attacked)
                seed = int(rng.integers(1 << 30))
                mc = delta_monte_carlo(rf, attacked, c, 300, seed=seed).value
                assert mc.hex() == _tuple_monte_carlo(rf, attacked, c, g.directed,
                                                      300, seed).hex()
    assert refused and compared > 100


# ---------------------------------------------------------------------------
# trees


def test_tree_leaf_only():
    g = Graph.build(n=2, edges=[(1, 0)], directed=True)
    rf = receptive_field(g, 0, 1)
    b = delta_tree_exact(rf, {0}, cfg(p_abl=0.7))
    assert b.value == pytest.approx(0.3)


def test_tree_ablation_only_collapses(rng):
    g = random_tree(rng, 9)
    rf = receptive_field(g, 0, 8)
    members = sorted(rf.members - {0})
    attacked = set(members[:4])
    b = delta_tree_exact(rf, attacked, cfg(p_del=0.0, p_abl=0.35))
    assert b.value == pytest.approx(1 - 0.35 ** 4, abs=1e-12)


def test_tree_matches_inclusion_exclusion(rng):
    for _ in range(30):
        n = int(rng.integers(3, 13))
        g = random_tree(rng, n)
        k = int(rng.integers(1, n))
        rf = receptive_field(g, 0, k)
        pool = sorted(rf.members)
        size = int(rng.integers(1, len(pool) + 1))
        attacked = set(rng.choice(pool, size=size, replace=False).tolist())
        c = cfg(p_del=float(rng.uniform(0, 1)), p_abl=float(rng.uniform(0, 1)))
        tree_val = delta_tree_exact(rf, attacked, c).value
        ie_val = delta_exact_ie(rf, attacked, c).value
        assert tree_val == pytest.approx(ie_val, abs=1e-12)


def test_tree_rejects_non_tree():
    g = Graph.build(n=3, edges=[(1, 0), (2, 0), (1, 2)], directed=False)
    rf = receptive_field(g, 0, 2)
    with pytest.raises(NotATreeError):
        delta_tree_exact(rf, {1}, cfg(p_del=0.5))


def _tree_children(rf):
    """Each member's children in the message tree, ascending, read off ``rf.tree_order``."""
    children = {w: [] for w, _ in rf.tree_order}
    for w, parent in rf.tree_order:
        if parent >= 0:
            children[parent].append(w)
    return {w: tuple(sorted(c)) for w, c in children.items()}


def _recursive_tree_exact(rf, attacked, c, reverse=False):
    """The recursion the tree loop replaced: ``arrive`` from the target down.

    ``reverse`` multiplies the children in descending order instead.
    """
    attacked = set(int(w) for w in attacked)
    children = _tree_children(rf)

    def arrive(i):
        order = reversed(children[i]) if reverse else children[i]
        via = 1.0 - math.prod(1.0 - (1.0 - c.p_del) * arrive(j) for j in order)
        return 1.0 - c.p_abl * (1.0 - via) if i in attacked else via

    return min(1.0, max(0.0, arrive(rf.target)))


def _random_tree_graph(rng, n, directed):
    """A bushy random tree, node i joined to one of nodes 0..i//2.

    Directed, an edge points from the later node to the earlier one four
    times in five, so fields of early nodes hold most of their subtrees.
    """
    pairs = [(i, int(rng.integers(0, max(1, i // 2)))) for i in range(1, n)]
    if directed:
        pairs = [(a, b) if rng.random() < 0.8 else (b, a) for a, b in pairs]
    return Graph.build(n=n, edges=pairs, features=np.eye(n), directed=directed)


def test_tree_loop_equals_the_recursion_bit_for_bit(rng):
    # each product runs from 1.0 over the children in ascending order, as the
    # recursion's math.prod does; with three or more factors the order can
    # show in the last bit, and "order shows" counts the sets where it does
    seen = collections.Counter()
    for trial in range(240):
        directed = bool(trial % 2)
        g = _random_tree_graph(rng, int(rng.integers(2, 30)), directed)
        v = int(rng.integers(max(1, g.n // 4)))       # near the root, where trees branch
        rf = receptive_field(g, v, 1 + trial % 4)
        assert rf.tree_order is not None
        p_del, p_abl = rng.uniform(0, 1, size=2).tolist()
        if trial % 8 < 4:       # 0 and 1 for each probability in turn
            p_del, p_abl = [(0.0, p_abl), (1.0, p_abl), (p_del, 0.0), (p_del, 1.0)][trial % 8]
        c = cfg(p_del=p_del, p_abl=p_abl)
        for _ in range(4):
            attacked = set(rng.choice(g.n, size=max(1, int(rng.binomial(g.n, 0.5))),
                                      replace=False).tolist())
            attacked.add(v) if rng.random() < 0.5 else attacked.discard(v)
            seen["target" if v in attacked else "no target"] += 1
            seen["non-member"] += bool(attacked - rf.members)
            seen["directed" if directed else "undirected"] += 1
            got = delta_tree_exact(rf, attacked, c)
            want = _recursive_tree_exact(rf, attacked, c)
            assert got.value.hex() == want.hex()
            assert got.rho == len(attacked) and got.method == "tree-exact"
            seen["order shows"] += want != _recursive_tree_exact(rf, attacked, c, reverse=True)
    order_shows = seen.pop("order shows")
    assert order_shows >= 20 and min(seen.values()) > 100, (order_shows, seen)


# ---------------------------------------------------------------------------
# worst case over placements


def test_worst_case_zero_budget():
    g = Graph.build(n=3, edges=[(1, 0), (2, 0)], directed=False)
    rf = receptive_field(g, 0, 2)
    for method in ("multiplicative", "union", "exact-enumeration"):
        assert delta_worst_case(rf, 0, 0, cfg(p_abl=0.5), method=method).value == 0.0


def test_worst_case_d_min_excludes_target():
    g = Graph.build(n=3, edges=[(1, 0), (2, 0)], directed=False)
    rf = receptive_field(g, 0, 2)
    c = cfg(p_del=0.6, p_abl=0.1)
    with_target = delta_worst_case(rf, 1, 0, c)
    without = delta_worst_case(rf, 1, 1, c)
    # the target is the strongest source (no edges to delete)
    assert with_target.value == pytest.approx(0.9)
    assert without.value < with_target.value


def test_worst_case_exact_reports_argmax():
    # node 1 owns two disjoint routes, node 3 only a shared one
    g = Graph.build(n=4, edges=[(1, 0), (1, 2), (2, 0), (3, 2)], directed=False)
    rf = receptive_field(g, 0, 2)
    b = delta_worst_case(rf, 1, 1, cfg(p_del=0.5, p_abl=0.0),
                         method="exact-enumeration")
    assert b.worst_set == (1,)


def test_worst_case_subset_cap():
    # a 14-leaf star with one leaf-leaf edge: the cycle forces enumeration
    edges = [(i, 0) for i in range(1, 15)] + [(1, 2)]
    g = Graph.build(n=15, edges=edges, directed=False)
    rf = receptive_field(g, 0, 2)
    with pytest.raises(ResourceLimitError):
        delta_worst_case(rf, 7, 1, cfg(p_del=0.5), method="exact-enumeration",
                         subset_cap=10)


def test_refusal_counts_only_the_budgets_asked_for():
    # a 10-leaf star with one leaf-leaf edge: at budget 9 the 10 candidates
    # give C(10, 9) = 10 subsets, within the cap, but a curve to budget 9
    # reaches budget 3 first, where C(10, 3) = 120 subsets exceed it
    edges = [(i, 0) for i in range(1, 11)] + [(1, 2)]
    g = Graph.build(n=11, edges=edges, directed=False)
    rf = receptive_field(g, 0, 2)
    c = cfg(p_del=0.5, p_abl=0.3)
    b = delta_worst_case(rf, 9, 1, c, method="exact-enumeration", subset_cap=100)
    assert b.rho == 9 and len(b.worst_set) == 9
    assert b.value == max(delta_exact_ie(rf, s, c).value
                          for s in itertools.combinations(range(1, 11), 9))
    with pytest.raises(ResourceLimitError):
        worst_case_curve(rf, 1, c, method="exact-enumeration", rho_max=9,
                         subset_cap=100)
    with pytest.raises(ResourceLimitError):
        delta_worst_case(rf, 3, 1, c, method="exact-enumeration", subset_cap=100)


def _first_maximal_subset(rf, d_min, c, rho, max_terms):
    """The scan as ``max`` over ``_exact_for_set``, which keeps the first maximal subset."""
    candidates = rf.candidates(d_min)
    return max((_exact_for_set(rf, s, rho, d_min, c, max_terms)
                for s in itertools.combinations(candidates, min(rho, len(candidates)))),
               key=lambda b: b.value)


def test_gap_scan_keeps_the_first_maximal_subset(rng):
    # a probability of 0 or 1 ties many subsets at one value, and the scan
    # must keep the first of them in combinations order, as ``max`` does
    seen = collections.Counter()
    for trial in range(150):
        g = random_graph(rng, n=int(rng.integers(3, 7)), p_edge=float(rng.uniform(0.4, 0.8)),
                         directed=bool(trial % 2))
        rf = receptive_field(g, int(rng.integers(g.n)), 2 + trial % 2)
        if rf.tree_order is not None or len(rf.path_length) > 12:
            continue
        p_del, p_abl = rng.uniform(0, 1, size=2).tolist()
        if trial % 5 < 4:
            p_del, p_abl = [(0.0, p_abl), (1.0, p_abl), (p_del, 0.0), (p_del, 1.0)][trial % 5]
        c = cfg(p_del=p_del, p_abl=p_abl)
        max_terms = int(rng.choice([2, 8, 64, DEFAULT_MAX_IE_TERMS]))
        for d_min in (0, 1):
            surface = rf.attack_surface(d_min)
            budgets = range(1, surface + 2)
            try:
                want = [_first_maximal_subset(rf, d_min, c, rho, max_terms) for rho in budgets]
            except ResourceLimitError as exc:
                seen["refused"] += 1
                with pytest.raises(ResourceLimitError, match=f"^{re.escape(str(exc))}$"):
                    _worst_case(rf, d_min, c, "exact-enumeration", budgets,
                                DEFAULT_SUBSET_CAP, max_terms)
                continue
            got = _worst_case(rf, d_min, c, "exact-enumeration", budgets,
                              DEFAULT_SUBSET_CAP, max_terms)
            assert got == want
            assert [b.value.hex() for b in got] == [b.value.hex() for b in want]
            for b in want:
                subsets = itertools.combinations(rf.candidates(d_min), min(b.rho, surface))
                tied = sum(delta_exact_ie(rf, s, c).value == b.value for s in subsets)
                seen["tied" if tied > 1 else "unique"] += 1
    assert min(seen.values()) > 20, seen


def _brute_tree_worst(rf, d_min, c, rho):
    """Largest ``delta_tree_exact`` over every size-min(rho, surface) candidate set."""
    candidates = rf.candidates(d_min)
    size = min(rho, len(candidates))
    return max(delta_tree_exact(rf, s, c).value
               for s in itertools.combinations(candidates, size))


def _split_table_tree_worst(rf, d_min, c, rho_max):
    """Reference tree knapsack that keeps split tables and rebuilds each set.

    Same recursion and tie rules as ``_tree_worst_curve``, but each set is
    recovered by walking the tree again through the recorded splits.
    Returns ``(value, worst_set)`` for budgets 1..rho_max.
    """
    children = _tree_children(rf)
    candidates = rf.candidates(d_min)
    top = min(rho_max, len(candidates))
    keep_e = 1.0 - c.p_del
    best, attacks, splits, widths = {}, {}, {}, {}

    def solve(i):
        prod = [1.0]
        splits[i] = []
        for j in children[i]:
            solve(j)
            factor = [1.0 - keep_e * x for x in best[j]]
            merged, chosen = [], []
            for b in range(min(len(prod) + len(factor) - 1, top + 1)):
                low, arg = math.inf, 0
                for cj in range(max(0, b - len(prod) + 1), min(b, len(factor) - 1) + 1):
                    t = prod[b - cj] * factor[cj]
                    if t < low:
                        low, arg = t, cj
                merged.append(low)
                chosen.append(arg)
            prod = merged
            splits[i].append(chosen)
        widths[i] = len(prod)
        via = [1.0 - q for q in prod]
        if rf.distance[i] < d_min:
            best[i], attacks[i] = via, [False] * len(via)
            return
        best[i], attacks[i] = via[:1], [False]
        for b in range(1, min(len(via) + 1, top + 1)):
            stay = via[min(b, len(via) - 1)]
            hit = 1.0 - c.p_abl * (1.0 - via[b - 1])
            best[i].append(max(stay, hit))
            attacks[i].append(hit > stay)

    def collect(i, b, out):
        if attacks[i][b]:
            out.append(i)
            b -= 1
        b = min(b, widths[i] - 1)
        for j, chosen in zip(reversed(children[i]), reversed(splits[i])):
            collect(j, chosen[b], out)
            b -= chosen[b]

    solve(rf.target)
    curve = []
    for rho in range(1, rho_max + 1):
        b = min(rho, top)
        chosen = []
        collect(rf.target, b, chosen)
        chosen += [w for w in candidates if w not in chosen][:b - len(chosen)]
        curve.append((min(1.0, max(0.0, best[rf.target][b])), tuple(sorted(chosen))))
    return curve


def test_tree_worst_case_ignores_subset_cap():
    # the same star without the cycle is a tree: nothing is enumerated
    edges = [(i, 0) for i in range(1, 15)]
    g = Graph.build(n=15, edges=edges, directed=False)
    rf = receptive_field(g, 0, 2)
    c = cfg(p_del=0.5, p_abl=0.3)
    b = delta_worst_case(rf, 7, 1, c, method="exact-enumeration", subset_cap=10)
    assert b.method == "tree-exact"
    assert b.value == _brute_tree_worst(rf, 1, c, 7)
    assert len(b.worst_set) == 7


def test_tree_worst_case_matches_brute_force(rng):
    checked = 0
    for trial in range(120):
        g = random_tree(rng, int(rng.integers(2, 10)))
        rf = receptive_field(g, 0, int(rng.integers(1, 5)))
        p_del = 0.0 if trial % 4 == 1 else float(rng.uniform(0, 1))
        p_abl = 1.0 if trial % 4 == 2 else float(rng.uniform(0, 1))
        c = cfg(p_del=p_del, p_abl=p_abl)
        for d_min in (0, 1, 2):
            surface = rf.attack_surface(d_min)
            if not surface:
                continue
            curve = worst_case_curve(rf, d_min, c, method="exact-enumeration",
                                     rho_max=surface + 1)
            assert len(curve) == surface + 1
            reference = _split_table_tree_worst(rf, d_min, c, surface + 1)
            for rho, b in enumerate(curve, start=1):
                brute = _brute_tree_worst(rf, d_min, c, rho)
                point = delta_worst_case(rf, rho, d_min, c, method="exact-enumeration")
                ref_value, ref_set = reference[rho - 1]
                for got in (b, point):
                    assert got.method == "tree-exact" and got.rho == rho
                    assert got.value.hex() == ref_value.hex()
                    assert got.worst_set == ref_set
                    assert brute <= got.value <= brute + 1e-12
                    assert len(got.worst_set) == min(rho, surface)
                    assert set(got.worst_set) <= set(rf.candidates(d_min))
                    assert delta_tree_exact(rf, got.worst_set, c).value == \
                        pytest.approx(got.value, abs=1e-12)
                checked += 1
    assert checked >= 300


def _recursive_tree_worst(rf, d_min, c, rho_max, reverse=False):
    """The recursion the tree knapsack loop replaced, as ``(value, worst_set, method)``.

    ``solve`` folds each node's children in ascending order, or descending
    with ``reverse``, into a product from ``[(1.0, ())]``, with the loop's
    convolution, tie rule and set order.
    """
    children = _tree_children(rf)
    candidates = rf.candidates(d_min)
    top = min(rho_max, len(candidates))
    keep_e = 1.0 - c.p_del

    def solve(i):
        prod = [(1.0, ())]
        for j in (reversed(children[i]) if reverse else children[i]):
            factor = [(1.0 - keep_e * x, chosen) for x, chosen in solve(j)]
            merged = []
            for b in range(min(len(prod) + len(factor) - 1, top + 1)):
                low, arg = math.inf, 0
                for cj in range(max(0, b - len(prod) + 1), min(b, len(factor) - 1) + 1):
                    t = prod[b - cj][0] * factor[cj][0]
                    if t < low:
                        low, arg = t, cj
                merged.append((low, prod[b - arg][1] + factor[arg][1]))
            prod = merged
        via = [(1.0 - q, chosen) for q, chosen in prod]
        if rf.distance[i] < d_min:
            return via
        best = via[:1]
        for b in range(1, min(len(via) + 1, top + 1)):
            stay = via[min(b, len(via) - 1)]
            hit = 1.0 - c.p_abl * (1.0 - via[b - 1][0])
            best.append((hit, via[b - 1][1] + (i,)) if hit > stay[0] else stay)
        return best

    best = solve(rf.target)
    curve = []
    for rho in range(1, rho_max + 1):
        value, chosen = best[min(rho, top)]
        chosen += tuple(w for w in candidates if w not in chosen)[:min(rho, top) - len(chosen)]
        curve.append((min(1.0, max(0.0, value)), tuple(sorted(chosen)), "tree-exact"))
    return curve


def test_tree_worst_loop_equals_the_recursion_bit_for_bit(rng):
    # the loop over tree_order merges each member into its parent's product
    # in ascending child order, as the recursion folds its children; "order
    # shows" counts the curves that folding in descending order would change
    seen = collections.Counter()
    for trial in range(200):
        directed = bool(trial % 2)
        g = _random_tree_graph(rng, int(rng.integers(2, 30)), directed)
        v = int(rng.integers(max(1, g.n // 4)))       # near the root, where trees branch
        rf = receptive_field(g, v, 1 + trial % 4)
        p_del, p_abl = rng.uniform(0, 1, size=2).tolist()
        if trial % 8 < 4:       # 0 and 1 for each probability in turn
            p_del, p_abl = [(0.0, p_abl), (1.0, p_abl), (p_del, 0.0), (p_del, 1.0)][trial % 8]
        c = cfg(p_del=p_del, p_abl=p_abl)
        for d_min in (0, 1, 2):
            surface = rf.attack_surface(d_min)
            if not surface:
                continue
            got = [(b.value.hex(), b.worst_set, b.method)
                   for b in _tree_worst_curve(rf, d_min, c, surface + 1)]
            want = _recursive_tree_worst(rf, d_min, c, surface + 1)
            assert got == [(x.hex(), s, m) for x, s, m in want]
            seen["directed" if directed else "undirected"] += len(got)
            seen["order shows"] += want != _recursive_tree_worst(rf, d_min, c, surface + 1,
                                                                 reverse=True)
    order_shows = seen.pop("order shows")
    assert order_shows >= 100 and min(seen.values()) > 500, (order_shows, seen)


def test_ordering_chain_exact_mult_union(rng):
    for _ in range(25):
        g = random_graph(rng, n=int(rng.integers(4, 10)), p_edge=0.3)
        rf = receptive_field(g, 0, 2)
        c = cfg(p_del=float(rng.uniform(0, 1)), p_abl=float(rng.uniform(0, 1)))
        rho = int(rng.integers(1, 4))
        d_min = int(rng.integers(0, 2))
        exact = delta_worst_case(rf, rho, d_min, c, method="exact-enumeration")
        mult = delta_worst_case(rf, rho, d_min, c, method="multiplicative")
        union = delta_worst_case(rf, rho, d_min, c, method="union")
        assert exact.value <= mult.value + 1e-12
        assert mult.value <= (union.raw if union.raw is not None else union.value) + 1e-12


def test_monotone_in_budget_and_probabilities(rng):
    g = random_graph(rng, n=8, p_edge=0.35)
    rf = receptive_field(g, 0, 2)
    values = [delta_worst_case(rf, rho, 0, cfg(p_del=0.3, p_abl=0.4)).value
              for rho in range(0, 6)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    for rho in (1, 2):
        for grid, fixed in ((np.linspace(0, 1, 6), "del"),
                            (np.linspace(0, 1, 6), "abl")):
            vals = []
            for p in grid:
                c = cfg(p_del=p, p_abl=0.35) if fixed == "del" else \
                    cfg(p_del=0.35, p_abl=p)
                vals.append(delta_worst_case(rf, rho, 0, c).value)
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_ablation_only_collapse_all_methods(rng):
    for _ in range(10):
        g = random_graph(rng, n=int(rng.integers(4, 9)), p_edge=0.4)
        rf = receptive_field(g, 0, 2)
        p_abl = float(rng.uniform(0.05, 0.95))
        rho = int(rng.integers(1, 4))
        c = cfg(p_del=0.0, p_abl=p_abl)
        candidates = rf.candidates(1)
        if len(candidates) < rho:
            continue
        expected = 1 - p_abl ** rho
        mult = delta_worst_case(rf, rho, 1, c, method="multiplicative")
        exact = delta_worst_case(rf, rho, 1, c, method="exact-enumeration")
        assert mult.value == pytest.approx(expected, abs=1e-12)
        assert exact.value == pytest.approx(expected, abs=1e-12)


def test_worst_case_curve_matches_pointwise(rng):
    g = random_graph(rng, n=8, p_edge=0.35)
    rf = receptive_field(g, 0, 2)
    c = cfg(p_del=0.25, p_abl=0.3)
    curve = worst_case_curve(rf, 1, c, method="multiplicative")
    for rho, b in enumerate(curve, start=1):
        assert b.value == pytest.approx(
            delta_worst_case(rf, rho, 1, c, method="multiplicative").value
        )


def test_combined_curves_equal_per_budget_values(rng):
    # the running-product / prefix-sum curves must be bit for bit a per-budget
    # reference, also when the top source's value is 1 (zero product) or within
    # 1e-12 of 1 (where the reference takes its product in log space)
    tops = set()
    for trial in range(90):
        g = random_graph(rng, n=int(rng.integers(3, 12)), p_edge=0.4)
        rf = receptive_field(g, int(rng.integers(g.n)), int(rng.integers(1, 4)))
        p_del, p_abl = [(float(rng.uniform(0, 1)), float(rng.uniform(0, 1))),
                        (float(rng.uniform(0, 1)), 0.0),
                        (float(rng.uniform(0, 1)), 1e-13)][trial % 3]
        c = cfg(p_del=p_del, p_abl=p_abl)
        tops.add(1.0 - delta_single_source(rf, rf.target, c).value)
        for d_min in (0, 1):
            rho_max = rf.attack_surface(d_min) + 2
            values = sorted((delta_single_source(rf, w, c).value
                             for w in rf.candidates(d_min)), reverse=True)
            for method in ("multiplicative", "union"):
                curve = worst_case_curve(rf, d_min, c, method=method, rho_max=rho_max)
                assert len(curve) == rho_max
                for rho, b in enumerate(curve, start=1):
                    assert b == delta_worst_case(rf, rho, d_min, c, method=method)
                    if method == "union":
                        raw = math.fsum(values[:rho])
                        assert (b.value, b.raw) == (min(1.0, raw), raw)
                    else:
                        none = _stable_product([1.0 - v for v in values[:rho]])
                        assert b.value == min(1.0, max(0.0, 1.0 - none))
    assert 0.0 in tops and any(0.0 < t < 1e-12 for t in tops)


def _predicate(p_lower, p_upper, binary):
    """``certifies`` at these bounds, or with ``binary`` the rule p_lower - delta > 1/2."""
    if binary:
        return lambda delta: p_lower - delta > 0.5
    return functools.partial(certifies, p_lower, p_upper)


def _scan(passes, deltas):
    """Budgets certified before the first delta that fails ``passes``, as ``radius`` scans."""
    return len(list(itertools.takewhile(passes, deltas)))


def test_combined_curves_stop_at_the_first_failing_budget(rng):
    # given the certificate predicate, a multiplicative or union curve is the
    # full curve up to and including its first failing entry; D* is put on,
    # just above and just below every value of the full curve
    stopped = 0
    for trial in range(60):
        g = random_graph(rng, n=int(rng.integers(3, 12)), p_edge=0.4)
        rf = receptive_field(g, int(rng.integers(g.n)), int(rng.integers(1, 4)))
        c = cfg(p_del=float(rng.uniform(0, 1)), p_abl=float(rng.uniform(0, 1)))
        for d_min in (0, 1):
            rho_max = rf.attack_surface(d_min) + 2
            for method in ("multiplicative", "union"):
                full = worst_case_curve(rf, d_min, c, method=method, rho_max=rho_max)
                values = [b.value for b in full]
                for d_star in {x + e for x in values for e in (0.0, -1e-13, 1e-13)}:
                    for binary in (False, True):
                        p_upper = 0.2
                        p_lower = 0.5 + d_star if binary else p_upper + 2 * d_star
                        passes = _predicate(p_lower, p_upper, binary)
                        curve = worst_case_curve(rf, d_min, c, method=method,
                                                 rho_max=rho_max, certifies=passes)
                        failing = [i for i, x in enumerate(values) if not passes(x)]
                        end = failing[0] + 1 if failing else len(full)
                        assert curve == full[:end]
                        want = _scan(passes, values)
                        assert _scan(passes, (b.value for b in curve)) == want
                        if not binary:
                            assert radius(p_lower, p_upper, (b.value for b in curve)) == want
                        stopped += end < len(full)
    assert stopped > 0


def _first_refused_budget(rf, d_min, c, rho_max, cap, passes):
    """Smallest budget up to which the predicate-driven curve refuses, else None."""
    for top in range(1, rho_max + 1):
        try:
            worst_case_curve(rf, d_min, c, method="exact-enumeration", rho_max=top,
                             subset_cap=cap, certifies=passes)
        except ResourceLimitError:
            return top
    return None


def test_decided_curve_decides_as_the_full_exact_curve(rng):
    # D* = (p_lower - p_upper) / 2, or p_lower - 1/2 against 1/2, is put on,
    # just above and just below every exact, witness and multiplicative value
    kinds = collections.Counter()
    for trial in range(100):
        if trial % 3 == 0:
            g = random_tree(rng, int(rng.integers(3, 9)))
            rf = receptive_field(g, 0, int(rng.integers(1, 4)))
        else:
            g = random_graph(rng, n=int(rng.integers(4, 7)), p_edge=0.5)
            rf = receptive_field(g, 0, 2)
        if sum(len(p) for p in rf.paths.values()) > 10:
            continue        # keeps inclusion-exclusion cheap
        shape = "tree" if rf.tree_order is not None else "cycle"
        c = cfg(p_del=float(rng.uniform(0, 0.9)), p_abl=float(rng.uniform(0, 0.9)))
        for d_min in (0, 1):
            rho_max = rf.attack_surface(d_min) + 1
            if rho_max == 1:
                continue
            full = worst_case_curve(rf, d_min, c, method="exact-enumeration",
                                    rho_max=rho_max)
            cap = int(rng.choice([1, 4, 10**6]))
            try:
                worst_case_curve(rf, d_min, c, method="exact-enumeration",
                                 rho_max=rho_max, subset_cap=cap)
                capped_refuses = False
            except ResourceLimitError:
                capped_refuses = True
            mult = worst_case_curve(rf, d_min, c, method="multiplicative",
                                    rho_max=rho_max)
            singles = {w: delta_single_source(rf, w, c).value
                       for w in rf.candidates(d_min)}
            ranked = sorted(singles, key=lambda w: (-singles[w], w))
            exact_at = delta_tree_exact if shape == "tree" else delta_exact_ie
            witnesses = [exact_at(rf, ranked[:rho], c).value
                         for rho in range(1, rho_max + 1)]
            greedy = [delta_greedy_probe(rf, rho, d_min, c)
                      for rho in range(1, rho_max + 1)]
            points = {b.value for b in full + mult + greedy} | set(witnesses)
            stars = {x + e for x in points for e in (0.0, -1e-13, 1e-13, 1e-12, -3e-12)}
            for d_star in sorted(stars):
                for binary in (False, True):
                    p_upper = 0.2
                    p_lower = 0.5 + d_star if binary else p_upper + 2 * d_star
                    passes = _predicate(p_lower, p_upper, binary)
                    want = _scan(passes, (b.value for b in full))
                    try:
                        lazy = worst_case_curve(rf, d_min, c, method="exact-enumeration",
                                                rho_max=rho_max, subset_cap=cap,
                                                certifies=passes)
                    except ResourceLimitError:
                        # refused only where the capped full curve refuses too,
                        # at a budget the full radius scan reaches
                        kinds["refused", shape] += 1
                        assert capped_refuses
                        refused = _first_refused_budget(rf, d_min, c, rho_max, cap, passes)
                        assert refused <= want + 1
                        with pytest.raises(ResourceLimitError):
                            delta_worst_case(rf, refused, d_min, c,
                                             method="exact-enumeration", subset_cap=cap)
                        continue
                    kinds["capped_full", shape] += capped_refuses
                    assert _scan(passes, (b.value for b in lazy)) == want
                    if not binary:
                        assert radius(p_lower, p_upper, (b.value for b in lazy)) == want
                    assert len(lazy) == min(want + 1, rho_max)
                    for b, exact in zip(lazy, full):
                        assert b.rho == exact.rho and b.d_min == d_min
                        assert passes(b.value) == passes(exact.value)
                        if b.method == "multiplicative":
                            kinds["bound", shape] += 1
                        elif b.worst_set == tuple(sorted(ranked[:b.rho])) and \
                                not passes(b.value) and b.value == witnesses[b.rho - 1]:
                            kinds["witness", shape] += 1
                        elif b == greedy[b.rho - 1] and not passes(b.value):
                            assert passes(witnesses[b.rho - 1])
                            kinds["greedy", shape] += 1
                        else:
                            kinds["exact", shape] += 1
    # every way of deciding a budget is exercised; trees are never refused
    for kind in ("bound", "witness", "exact", "refused", "capped_full"):
        assert kinds[kind, "cycle"] > 20, kinds
    for kind in ("bound", "witness", "exact"):
        assert kinds[kind, "tree"] > 20, kinds
    assert kinds["greedy", "cycle"] >= 10 and kinds["greedy", "tree"] >= 10, kinds


def test_greedy_probe_is_lower_bound(rng):
    for _ in range(20):
        g = random_graph(rng, n=int(rng.integers(4, 10)), p_edge=0.3)
        rf = receptive_field(g, 0, 2)
        c = cfg(p_del=float(rng.uniform(0, 1)), p_abl=float(rng.uniform(0, 1)))
        rho = int(rng.integers(1, 4))
        probe = delta_greedy_probe(rf, rho, 1, c)
        exact = delta_worst_case(rf, rho, 1, c, method="exact-enumeration")
        assert probe.value <= exact.value + 1e-12
        assert probe.worst_set is not None
        assert len(probe.worst_set) <= rho


def test_greedy_probe_often_tight_on_stars(rng):
    # every candidate is its own branch: greedy picks the true worst case
    edges = [(i, 0) for i in range(1, 7)]
    g = Graph.build(n=7, edges=edges, directed=False)
    rf = receptive_field(g, 0, 2)
    c = cfg(p_del=0.4, p_abl=0.3)
    for rho in (1, 2, 3):
        probe = delta_greedy_probe(rf, rho, 1, c)
        exact = delta_worst_case(rf, rho, 1, c, method="exact-enumeration")
        assert probe.value == pytest.approx(exact.value, abs=1e-12)


def _branch_of(rf, w):
    """The per-candidate rule: the neighbour into the target on ``w``'s first shortest path."""
    if w == rf.target:
        return rf.target
    i = int(np.searchsorted(rf.member_ids, w))
    first = rf.path_offsets[i]
    shortest = first + int(np.argmin(rf.path_length[first:rf.path_offsets[i + 1]]))
    return int(rf.path_nodes[shortest, 0])


def _greedy_set(rf, rho, d_min):
    by_branch = {}
    for w in sorted(rf.candidates(d_min), key=lambda w: (rf.distance[w], w)):
        by_branch.setdefault(_branch_of(rf, w), []).append(w)
    rounds = itertools.zip_longest(*(by_branch[b] for b in sorted(by_branch)))
    return tuple(sorted([w for layer in rounds for w in layer if w is not None][:rho]))


def test_greedy_probe_set_equals_the_per_candidate_rule(rng):
    # fields where a member's shortest paths leave the target by two
    # different neighbours tell the first shortest path from the others
    split = compared = 0
    for trial in range(120):
        g = random_graph(rng, n=int(rng.integers(4, 9)),
                         p_edge=float(rng.uniform(0.3, 0.6)), directed=bool(trial % 2))
        rf = receptive_field(g, int(rng.integers(g.n)), 2 + trial % 3 // 2)
        if len(rf.path_length) > 12:
            continue
        first_hops = collections.defaultdict(set)
        for w, plist in rf.paths.items():
            first_hops[w] |= {q[-1][0] for q in plist if len(q) == rf.distance[w]}
        split += any(len(hops) > 1 for hops in first_hops.values())
        c = cfg(p_del=float(rng.uniform(0, 1)), p_abl=float(rng.uniform(0, 1)))
        for d_min in (0, 1, 2):
            surface = rf.attack_surface(d_min)
            for rho in range(1, surface + 2 if surface else 1):
                probe = delta_greedy_probe(rf, rho, d_min, c)
                assert probe.worst_set == _greedy_set(rf, rho, d_min)
                assert probe == _exact_for_set(rf, probe.worst_set, rho, d_min, c,
                                               DEFAULT_MAX_IE_TERMS)
                compared += 1
    assert split > 20 and compared > 300, (split, compared)


# ---------------------------------------------------------------------------
# Monte-Carlo edge cases


def test_monte_carlo_degenerate_cases():
    g = Graph.build(n=3, edges=[(1, 0), (2, 1)], directed=True)
    rf = receptive_field(g, 0, 2)
    assert delta_monte_carlo(rf, {1, 2}, cfg(p_del=1.0, p_abl=0.0), 2000).value == 0.0
    assert delta_monte_carlo(rf, {0, 1, 2}, cfg(p_del=0.0, p_abl=1.0), 2000).value == 0.0


def test_monte_carlo_memory_scales_with_field_not_node_id():
    base = 50_000
    n = base + 6
    edges = [(base + i, base + i + 1) for i in range(5)]
    g = Graph.build(n=n, edges=edges, features=np.zeros((n, 1)), directed=False)
    rf = receptive_field(g, base, 3)
    tracemalloc.start()
    try:
        b = delta_monte_carlo(rf, {base + 2, base + 3}, cfg(p_del=0.3, p_abl=0.2),
                              1000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < b.value < 1.0
    assert peak < 1_000_000
