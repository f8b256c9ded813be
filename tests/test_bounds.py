import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gnncert import (
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
from gnncert.errors import NotATreeError, ResourceLimitError

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


# ---------------------------------------------------------------------------
# multiplicative and union combinations


def test_multiplicative_arithmetic():
    assert delta_multiplicative([0.3, 0.2], 2).value == pytest.approx(0.44)
    assert delta_multiplicative([0.3, 0.2], 5).value == pytest.approx(0.44)
    x = 0.375
    assert delta_multiplicative([x], 1).value == pytest.approx(x)


def test_union_arithmetic_and_clamp():
    assert delta_union([0.3, 0.2], 2).value == pytest.approx(0.5)
    clamped = delta_union([0.6, 0.6], 2)
    assert clamped.value == 1.0
    assert clamped.raw == pytest.approx(1.2)


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


def _brute_tree_worst(rf, d_min, c, rho):
    """Largest ``delta_tree_exact`` over every size-min(rho, surface) candidate set."""
    candidates = rf.candidates(d_min)
    size = min(rho, len(candidates))
    return max(delta_tree_exact(rf, s, c).value
               for s in itertools.combinations(candidates, size))


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
            for rho, b in enumerate(curve, start=1):
                brute = _brute_tree_worst(rf, d_min, c, rho)
                point = delta_worst_case(rf, rho, d_min, c, method="exact-enumeration")
                for got in (b, point):
                    assert got.method == "tree-exact" and got.rho == rho
                    assert brute <= got.value <= brute + 1e-12
                    assert len(got.worst_set) == min(rho, surface)
                    assert set(got.worst_set) <= set(rf.candidates(d_min))
                    assert delta_tree_exact(rf, got.worst_set, c).value == \
                        pytest.approx(got.value, abs=1e-12)
                checked += 1
    assert checked >= 300


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
    # the running-product / prefix-sum curves must be bit for bit the per-budget
    # values, also when the top source's value is 1 (zero product) or within
    # 1e-12 of 1 (log-space product)
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
            for method, combine in (("multiplicative", delta_multiplicative),
                                    ("union", delta_union)):
                curve = worst_case_curve(rf, d_min, c, method=method, rho_max=rho_max)
                assert len(curve) == rho_max
                for rho, b in enumerate(curve, start=1):
                    assert b == delta_worst_case(rf, rho, d_min, c, method=method)
                    assert b == combine(values, rho, d_min=d_min)
    assert 0.0 in tops and any(0.0 < t < 1e-12 for t in tops)


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
