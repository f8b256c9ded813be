"""Acceptance suite: one test per criterion, each printing its own PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from gnncert import (
    Graph,
    SmoothingConfig,
    TrainConfig,
    certify,
    clopper_pearson,
    delta_exact_ie,
    delta_monte_carlo,
    delta_tree_exact,
    delta_worst_case,
    enumerate_representatives,
    estimate_all,
    exact_label_probs,
    forward,
    levine_delta,
    max_certifiable_radius,
    per_view,
    receptive_field,
    report,
    sample,
    train,
    worst_case_curve,
)

from conftest import random_tree, two_block_graph
from test_gcn import random_model, _kept_distance_within

TOL = 1e-12


def _cfg(p_del, p_abl, seed=0):
    return SmoothingConfig(p_del=p_del, p_abl=p_abl, token=np.zeros(1), seed=seed)


def _sparse_instance(rng, n_max=12, max_total_paths=12):
    """Random graph + 2-hop field with a bounded simple-path population."""
    while True:
        n = int(rng.integers(4, n_max + 1))
        p_edge = float(rng.uniform(0.10, 0.28))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p_edge]
        g = Graph.build(n=n, edges=edges)
        rf = receptive_field(g, 0, 2)
        total = sum(len(p) for p in rf.paths.values())
        if 2 <= rf.size and total <= max_total_paths:
            return g, rf


def test_criterion_01_bound_ordering_suite():
    rng = np.random.default_rng(101)
    start = time.time()
    for _ in range(200):
        _, rf = _sparse_instance(rng)
        cfg = _cfg(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        rho = int(rng.integers(1, 4))
        d_min = int(rng.integers(0, 2))
        exact = delta_worst_case(rf, rho, d_min, cfg, method="exact-enumeration")
        mult = delta_worst_case(rf, rho, d_min, cfg, method="multiplicative")
        union = delta_worst_case(rf, rho, d_min, cfg, method="union")
        assert exact.value <= mult.value + TOL
        assert mult.value <= union.raw + TOL
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: exact <= multiplicative <= union (unclamped) on "
          f"200 graphs at 1e-12 in {elapsed:.1f}s")


def test_criterion_02_tree_matches_inclusion_exclusion():
    rng = np.random.default_rng(202)
    checked = 0
    while checked < 100:
        n = int(rng.integers(3, 13))
        g = random_tree(rng, n)
        k = int(rng.integers(1, n + 1))
        rf = receptive_field(g, 0, k)
        total = sum(len(p) for p in rf.paths.values())
        if total > 14:
            continue
        pool = sorted(rf.members)
        size = int(rng.integers(1, len(pool) + 1))
        attacked = set(rng.choice(pool, size=size, replace=False).tolist())
        cfg = _cfg(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        tree_val = delta_tree_exact(rf, attacked, cfg).value
        ie_val = delta_exact_ie(rf, attacked, cfg).value
        assert abs(tree_val - ie_val) <= TOL
        checked += 1
    print("\nPASS criterion 2: tree recursion equals inclusion-exclusion on "
          "100 random trees at 1e-12")


def test_criterion_03_ablation_only_collapse():
    rng = np.random.default_rng(303)
    graphs_checked = trees_checked = 0
    while graphs_checked < 200 or trees_checked < 30:
        if trees_checked < 30 and rng.random() < 0.3:
            g = random_tree(rng, int(rng.integers(3, 13)))
            rf = receptive_field(g, 0, int(rng.integers(1, 5)))
            is_tree_instance = True
        else:
            _, rf = _sparse_instance(rng)
            is_tree_instance = False
        p_abl = float(rng.uniform(0, 1))
        cfg = _cfg(0.0, p_abl)
        surface = rf.attack_surface(1)
        if surface == 0:
            continue
        rho = int(rng.integers(1, min(3, surface) + 1))
        expected = 1.0 - p_abl ** rho
        mult = delta_worst_case(rf, rho, 1, cfg, method="multiplicative")
        exact = delta_worst_case(rf, rho, 1, cfg, method="exact-enumeration")
        assert abs(mult.value - expected) <= TOL
        assert abs(exact.value - expected) <= TOL
        if is_tree_instance:
            attacked = rf.candidates(1)[:rho]
            tree_val = delta_tree_exact(rf, set(attacked), cfg).value
            assert abs(tree_val - expected) <= TOL
            trees_checked += 1
        else:
            graphs_checked += 1
    print("\nPASS criterion 3: zero edge deletion collapses multiplicative, "
          "tree, and inclusion-exclusion to 1 - p_abl**rho")


def test_criterion_04_max_radius_reproduction():
    assert max_certifiable_radius(0.9) == 6
    assert max_certifiable_radius(0.5) == 0
    assert max_certifiable_radius(0.933) == 10
    levine_radii = [rho for rho in range(1, 10)
                    if levine_delta(10, 1, rho).value < 0.5]
    assert max(levine_radii) == 4
    print("\nPASS criterion 4: radius caps 0.9 -> 6, 0.5 -> 0, 0.933 -> 10, "
          "keep-1-of-10 reference -> 4")


def test_criterion_05_tighter_than_keep_k_reference():
    for n in range(3, 21):
        for keep in range(1, n):
            for rho in range(2, n - keep + 1):
                ours = 1.0 - (1.0 - keep / n) ** rho
                ref = levine_delta(n, keep, rho).value
                assert ours < ref, (n, keep, rho)
    print("\nPASS criterion 5: expectation-matched ablation strictly tighter "
          "than keep-exactly-k for every n <= 20, rho >= 2")


def test_criterion_06_interception_soundness_sweep():
    rng = np.random.default_rng(606)
    k = 2
    violations = 0
    checks = 0
    for _ in range(100):
        n = int(rng.integers(4, 11))
        p_edge = float(rng.uniform(0.2, 0.5))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p_edge]
        g = Graph.build(n=n, edges=edges,
                        features=rng.normal(size=(n, 3)))
        model = random_model(rng, d=3)
        cfg = SmoothingConfig(p_del=float(rng.uniform(0.2, 0.8)),
                              p_abl=float(rng.uniform(0.2, 0.8)),
                              token=model.token,
                              seed=int(rng.integers(1 << 30)))
        v = int(rng.integers(n))
        for i in range(200):
            s = sample(g, cfg, i)
            x = g.features.copy()
            x[s.ablated] = cfg.token
            base = int(np.argmax(forward(model, g.with_edges(s.edge_mask,
                                                             features=x), v)))
            reachable = _kept_distance_within(g, s.edge_mask, v, k)
            for w in range(n):
                if not (s.ablated[w] or w not in reachable):
                    continue
                tampered = g.features.copy()
                tampered[w] = rng.normal(size=3) * 10.0
                tampered[s.ablated] = cfg.token
                pred = int(np.argmax(forward(
                    model, g.with_edges(s.edge_mask, features=tampered), v)))
                checks += 1
                if pred != base:
                    violations += 1
    assert violations == 0
    print(f"\nPASS criterion 6: zero interception violations over {checks} "
          f"tampered predictions (100 graphs x 200 samples)")


def test_criterion_07_derandomization_exactness():
    rng = np.random.default_rng(707)
    checked = 0
    while checked < 100:
        n = int(rng.integers(5, 14))
        p_edge = float(rng.uniform(0.2, 0.5))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p_edge]
        g = Graph.build(n=n, edges=edges, features=rng.normal(size=(n, 3)))
        rf = receptive_field(g, 0, int(rng.integers(2, 4)))
        d = rf.size - 1
        if d < 1 or d > 12:
            continue
        k = int(rng.integers(0, min(4, d) + 1))
        model = random_model(rng, d=3)

        def predict(view, v):
            return int(np.argmax(forward(model, view, v)))

        reps = enumerate_representatives(rf, k, tau=None)
        assert sum(r.beta for r in reps) == math.comb(d, k)
        fast = exact_label_probs(g, rf, reps, k, per_view(predict), classes=3)

        others = sorted(rf.members - {rf.target})
        counts = [0, 0, 0]
        for kept in itertools.combinations(others, k):
            deleted = rf.members - {rf.target} - set(kept)
            counts[predict(g.without_nodes(deleted), rf.target)] += 1
        slow = tuple(Fraction(c, math.comb(d, k)) for c in counts)
        assert fast == slow
        checked += 1
    print("\nPASS criterion 7: multiplicities partition C(d, k) and exact "
          "probabilities equal brute force (rational equality) on 100 fields")


def test_criterion_08_clopper_pearson_coverage():
    rng = np.random.default_rng(808)
    n, alpha_side, trials = 300, 0.005, 10_000
    se = math.sqrt(alpha_side * (1 - alpha_side) / trials)
    threshold = alpha_side + 3 * se
    for p in (0.1, 0.5, 0.9):
        counts = rng.binomial(n, p, size=trials)
        uniq = np.unique(counts)
        lower = {int(c): clopper_pearson(int(c), n, alpha_side, "lower")
                 for c in uniq}
        upper = {int(c): clopper_pearson(int(c), n, alpha_side, "upper")
                 for c in uniq}
        viol_lower = float(np.mean([lower[int(c)] > p for c in counts]))
        viol_upper = float(np.mean([upper[int(c)] < p for c in counts]))
        assert viol_lower <= threshold, (p, viol_lower)
        assert viol_upper <= threshold, (p, viol_upper)
    print(f"\nPASS criterion 8: one-sided coverage violations within "
          f"{threshold:.4f} at p in (0.1, 0.5, 0.9), n=300")


def test_criterion_09_end_to_end_desk_experiment():
    start = time.time()
    rng = np.random.default_rng(90210)
    g = two_block_graph(rng, n=200, p_in=0.05, p_out=0.005, d=32,
                        hi=0.35, lo=0.05)
    sel = np.random.default_rng(7)
    labeled = []
    for c in (0, 1):
        pool = [v for v in range(g.n) if g.labels[v] == c]
        labeled += [pool[i] for i in sel.permutation(len(pool))[:40]]
    labeled = sorted(labeled)
    test_nodes = sorted(set(range(g.n)) - set(labeled))

    model = train(g, labeled, TrainConfig(
        epochs=400, patience=50, dropout=0.5, hidden=64,
        p_del=0.0, p_abl=0.85, seed=3))

    scfg = SmoothingConfig(p_del=0.0, p_abl=0.85, token=model.token, seed=11)
    tallies = estimate_all(model, g, test_nodes, scfg,
                           n0=1000, n1=3000, alpha=0.01)
    results, surfaces = [], {}
    for v in test_nodes:
        rf = receptive_field(g, v, 2)
        surfaces[v] = {1: rf.attack_surface(1)}
        curve = worst_case_curve(rf, 1, scfg, method="multiplicative")
        results.append(certify(tallies[v], {1: curve}, label=int(g.labels[v])))
    rep = report(results, surfaces)
    elapsed = time.time() - start

    ratio = rep["per_d_min"][1]["certified_ratio"]
    assert all(a >= b for a, b in zip(ratio, ratio[1:]))        # non-increasing
    radii = [r.certified_radius[1] for r in results]
    assert max(radii) <= 4                                      # ablation cap at 0.85
    assert rep["clean_accuracy"] >= 0.75
    assert elapsed < 300.0
    print(f"\nPASS criterion 9: desk experiment certified {len(results)} nodes, "
          f"max radius {max(radii)}, clean accuracy {rep['clean_accuracy']:.3f}, "
          f"abstain rate {rep['abstain_rate']:.3f}, {elapsed:.1f}s")


def test_criterion_10_monte_carlo_delta_agreement():
    rng = np.random.default_rng(1010)
    samples = 100_000
    for _ in range(50):
        _, rf = _sparse_instance(rng)
        pool = sorted(rf.members)
        size = int(rng.integers(1, min(3, len(pool)) + 1))
        attacked = set(rng.choice(pool, size=size, replace=False).tolist())
        cfg = _cfg(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        exact = delta_exact_ie(rf, attacked, cfg).value
        mc = delta_monte_carlo(rf, attacked, cfg, samples,
                               seed=int(rng.integers(1 << 30)))
        se = math.sqrt(max(exact * (1.0 - exact), 0.0) / samples)
        assert abs(mc.value - exact) <= 4 * se + TOL, (exact, mc.value, se)
    print("\nPASS criterion 10: sampled arrival probabilities within 4 "
          "standard errors of inclusion-exclusion on 50 instances")
