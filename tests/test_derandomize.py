import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gnncert import (
    Graph,
    LocalScorer,
    TwoHop,
    enumerate_representatives,
    exact_label_probs,
    gcn,
    per_view,
    receptive_field,
    retention_count,
)
from gnncert.errors import EnumerationRefused, IncompleteRepresentativesError

from conftest import random_graph
from test_gcn import full_hidden, random_model
from gnncert.gcn import _CHUNK_BYTES, Retention, forward


def field_of(g, v=0, k=3):
    return receptive_field(g, v, k)


def brute_force_probs(g, rf, k, predict, classes):
    """Average the classifier over every keep-k retention set directly."""
    others = sorted(rf.members - {rf.target})
    counts = [0] * classes
    for keep in itertools.combinations(others, k):
        deleted = rf.members - {rf.target} - set(keep)
        view = g.without_nodes(deleted)
        counts[predict(view, rf.target)] += 1
    total = math.comb(len(others), k)
    return tuple(Fraction(c, total) for c in counts)


def test_beta_formula_on_constructed_field():
    # ten-node field; the set {0, 1, 3} has five neighbors, so two nodes
    # remain to pad the fourth retained slot: multiplicity C(2, 1) = 2
    edges = [(1, 0), (3, 0), (2, 1), (4, 1), (5, 3), (8, 3), (9, 3),
             (6, 2), (7, 4)]
    g = Graph.build(n=10, edges=edges, directed=False)
    rf = receptive_field(g, 0, k=4)
    assert rf.size == 10
    reps = enumerate_representatives(rf, k=3, tau=None)
    by_nodes = {tuple(sorted(r.nodes)): r.beta for r in reps}
    assert by_nodes[(0, 1, 3)] == 2
    assert sum(r.beta for r in reps) == math.comb(9, 3)


def test_retain_everything_single_representative(rng):
    g = random_graph(rng, n=7, p_edge=0.5)
    rf = field_of(g, 0, k=6)
    d = rf.size - 1
    reps = enumerate_representatives(rf, k=d, tau=None)
    assert len(reps) == 1
    assert reps[0].nodes == rf.members
    assert reps[0].beta == 1


def test_multiplicities_partition_support(rng):
    for _ in range(20):
        g = random_graph(rng, n=int(rng.integers(4, 10)), p_edge=0.35)
        rf = field_of(g, 0, k=3)
        d = rf.size - 1
        k = int(rng.integers(0, d + 1))
        reps = enumerate_representatives(rf, k, tau=None)
        assert sum(r.beta for r in reps) == math.comb(d, k)
        sets = [r.nodes for r in reps]
        assert len(sets) == len(set(sets))          # unique representatives
        for r in reps:
            assert rf.target in r.nodes
            assert 1 <= len(r.nodes) <= k + 1
            assert _connected_to_target(rf, r.nodes)


def _connected_to_target(rf, nodes):
    adj = {w: set() for w in nodes}
    for a, b in rf.edges_within:
        if a in nodes and b in nodes:
            adj[a].add(b)
            adj[b].add(a)
    seen = {rf.target}
    stack = [rf.target]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == set(nodes)


def test_enumeration_refusal():
    edges = [(i, 0) for i in range(1, 25)]
    g = Graph.build(n=25, edges=edges, directed=False)
    rf = field_of(g, 0, k=1)
    refused = r"C\(24, 12\) = 2704156 exceeds budget 1000; raise tau or lower k_rel"
    with pytest.raises(EnumerationRefused, match=refused):
        enumerate_representatives(rf, k=12, tau=1000)


def test_exact_probs_constant_classifier(rng):
    g = random_graph(rng, n=8, p_edge=0.4)
    rf = field_of(g, 0, k=2)
    d = rf.size - 1
    k = min(2, d)
    reps = enumerate_representatives(rf, k, tau=None)
    probs = exact_label_probs(rf, reps, k, per_view(g, lambda view, v: 2), classes=4)
    assert probs == (0, 0, 1, 0)
    assert sum(probs) == 1


def test_exact_probs_sum_to_one_exactly(rng):
    g = random_graph(rng, n=9, p_edge=0.35, d=3)
    rf = field_of(g, 0, k=3)
    model = random_model(rng, d=3)
    d = rf.size - 1
    k = min(3, d)
    reps = enumerate_representatives(rf, k, tau=None)
    predict = lambda view, v: int(np.argmax(forward(model, view, v)))
    probs = exact_label_probs(rf, reps, k, per_view(g, predict), classes=3)
    assert sum(probs) == Fraction(1)


def test_exact_probs_match_brute_force(rng):
    for _ in range(15):
        g = random_graph(rng, n=int(rng.integers(5, 10)), p_edge=0.4, d=3)
        rf = field_of(g, 0, k=int(rng.integers(1, 4)))
        d = rf.size - 1
        if d == 0:
            continue
        k = int(rng.integers(1, min(4, d) + 1))
        model = random_model(rng, d=3)
        predict = lambda view, v: int(np.argmax(forward(model, view, v)))
        reps = enumerate_representatives(rf, k, tau=None)
        fast = exact_label_probs(rf, reps, k, per_view(g, predict), classes=3)
        slow = brute_force_probs(g, rf, k, predict, classes=3)
        assert fast == slow                          # exact rational equality


def test_batched_predictor_equals_per_view_forward(rng):
    for trial in range(24):
        g = random_graph(rng, n=int(rng.integers(5, 12)), p_edge=0.35,
                         directed=bool(trial % 4 == 3), d=3)
        k = 2 + trial % 3
        rf = field_of(g, int(rng.integers(g.n)), k=k)
        d = rf.size - 1
        kk = int(rng.integers(0, min(3, d) + 1))
        model = random_model(rng, d=3, skip=bool(trial % 2))
        retained = [r.nodes for r in enumerate_representatives(rf, kk, tau=None)]
        batched = LocalScorer(model, g).predict_retaining(rf, iter(retained))
        per_view = [int(np.argmax(forward(model, g.without_nodes(rf.members - r), rf.target)))
                    for r in retained]
        assert batched == per_view


def _check_retained_route(g, rf, retained, model):
    """The retained route equals the full forward on each view, W2 input for W2 input
    bit for bit, and ``forward`` on each view by class."""
    scorer = LocalScorer(model, g)
    no_ablation = np.zeros(g.n, dtype=bool)
    got = scorer.hidden_retaining(Retention(g, rf), retained)
    want = np.array([full_hidden(model, g, _kept_mask(g, rf.members.difference(r)),
                                 no_ablation, model.token)[[rf.target]] for r in retained])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    reference = per_view(g, lambda view, v: int(np.argmax(forward(model, view, v))))
    classes = scorer.predict_retaining(rf, iter(retained))
    assert classes == reference(rf, [frozenset(r) for r in retained])


def test_retained_sets_score_as_their_complements(rng):
    # random graphs, directed and undirected, fields of k 2 and 3, skip on
    # and off; besides the representatives, the target alone, every
    # member, and each node outside the field retained with the target
    # alone and with every member: such a node keeps and deletes nothing.
    # A member up to three hops out sends into a two-hop node, whose degree
    # scales its message, so members that no view reads come with k >= 4:
    # random fields of k 4, and nodes 4 and 5 of a path's k = 5 field
    cases = []
    for trial in range(44):
        directed, k = bool(trial % 2), (2 + trial // 2 % 2 if trial < 32 else 4)
        g = random_graph(rng, n=int(rng.integers(5, 12)), p_edge=0.3, directed=directed, d=3)
        cases.append((g, field_of(g, int(rng.integers(g.n)), k=k)))
    path = Graph.build(n=7, edges=[(i, i + 1) for i in range(6)],
                       features=rng.normal(size=(7, 3)))
    cases.append((path, field_of(path, 0, k=5)))
    untouched = 0
    for trial, (g, rf) in enumerate(cases):
        untouched += int(np.count_nonzero(rf.member_distance >= 4))
        kk = int(rng.integers(0, min(3, rf.size - 1) + 1))
        retained = [r.nodes for r in enumerate_representatives(rf, kk, tau=None)]
        retained += [frozenset({rf.target}), rf.members]
        for w in sorted(set(range(g.n)) - rf.members):
            retained += [frozenset({rf.target, w}), rf.members | {w}]
        _check_retained_route(g, rf, retained, random_model(rng, d=3, skip=bool(trial // 4 % 2)))
    assert untouched >= 4


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("skip", [False, True], ids=["plain", "skip"])
def test_retained_route_edge_cases(rng, directed, skip):
    # fields of k 2 to 4; sets without the target, the empty set, lists
    # with repeated ids, and ids below 0 or at least n, which retain and
    # delete nothing
    for trial in range(30):
        g = random_graph(rng, n=int(rng.integers(4, 12)), p_edge=0.35, directed=directed, d=3)
        rf = field_of(g, int(rng.integers(g.n)), k=2 + trial % 3)
        members = sorted(rf.members)
        kk = int(rng.integers(0, min(3, rf.size - 1) + 1))
        retained = [r.nodes for r in enumerate_representatives(rf, kk, tau=None)]
        retained += [frozenset(), rf.members - {rf.target}, frozenset({-1, g.n, g.n + 7})]
        retained += [[rf.target, rf.target] + members[:2] * 2,
                     [-3, rf.target, g.n, -3] + members[-1:] * 3,
                     list(rng.integers(-2, g.n + 2, size=int(rng.integers(0, 9))))]
        _check_retained_route(g, rf, retained, random_model(rng, d=3, skip=skip))


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_retention_refuses_fields_below_two_hops(rng, directed):
    # a field of k = 1 misses the senders into the target's senders, which
    # a two-layer prediction reads: its views would be scored without them.
    # Node 2's field is {1, 2} (and 3, undirected); node 0 sends into 1
    g = Graph.build(n=4, edges=[(0, 1), (1, 2), (2, 3)], features=rng.normal(size=(4, 3)),
                    directed=directed)
    rf = field_of(g, 2, k=1)
    assert 0 not in rf.members and 1 in rf.members
    with pytest.raises(ValueError, match="k 1 is below"):
        Retention(g, rf)
    with pytest.raises(ValueError, match="k 1 is below"):
        LocalScorer(random_model(rng, d=3), g).predict_retaining(rf, [rf.members])


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_retention_layers_come_in_canonical_order(rng, monkeypatch, directed):
    # ``Retention.aggregate`` builds both CSR layers with their entries as
    # they come, unsorted: each row's columns must already ascend, once
    # each, as in ``normalized_adjacency``, or the sums would round in
    # another order than the full forward's
    built = []
    csr_matrix = gcn.sparse.csr_matrix

    def recording(*args, **kwargs):
        built.append(csr_matrix(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(gcn.sparse, "csr_matrix", recording)
    for trial in range(20):
        g = random_graph(rng, n=int(rng.integers(5, 14)), p_edge=0.35, directed=directed, d=3)
        rf = field_of(g, int(rng.integers(g.n)), k=2 + trial % 3)
        kk = int(rng.integers(0, min(3, rf.size - 1) + 1))
        retained = [r.nodes for r in enumerate_representatives(rf, kk, tau=None)]
        retained += [rf.members, frozenset(), list(rf.members)[::-1] * 2]
        Retention(g, rf).aggregate(np.zeros((g.n + 1, 2)), retained)
    assert len(built) == 40
    assert max(int(np.diff(m.indptr).max(initial=0)) for m in built) > 2
    for m in built:
        assert m.has_canonical_format


def test_predict_retaining_of_no_sets_makes_no_pass(rng):
    # no set makes no pass, and an empty list of classes
    g = random_graph(rng, n=8, p_edge=0.4, d=3)
    model = random_model(rng, d=3)
    rf = field_of(g, 0, k=2)
    assert list(Retention(g, rf).chunks(iter([]), model.hidden, model.classes)) == []
    scorer = LocalScorer(model, g)
    assert scorer.predict_retaining(rf, iter([])) == []
    assert scorer.predict_retaining(rf, []) == []


@pytest.mark.parametrize("step", [lambda sets: 1, lambda sets: 3, lambda sets: sets,
                                  lambda sets: sets + 1],
                         ids=["one", "three", "all", "all+1"])
def test_predict_retaining_reads_every_chunk_boundary(rng, monkeypatch, step):
    # passes of one and of three sets, of exactly every set, and of one set
    # more than there are: every set costs the budget over ``step``
    leaves = 5
    edges = [(0, i) for i in range(1, leaves + 1)] + [(i, i + 1) for i in range(1, leaves)]
    g = Graph.build(n=leaves + 1, edges=edges, features=rng.normal(size=(leaves + 1, 3)))
    model = random_model(rng, d=3, skip=True)
    rf = field_of(g, 0, k=2)
    retained = [r.nodes for r in enumerate_representatives(rf, 2, tau=None)]
    assert len(retained) % 3
    per_set = _CHUNK_BYTES // step(len(retained))
    monkeypatch.setattr(Retention, "pass_bytes", lambda self, hidden, classes: (per_set, 0, 0))
    passes = []
    aggregate = Retention.aggregate
    monkeypatch.setattr(Retention, "aggregate",
                        lambda self, x, sets: passes.append(len(sets)) or aggregate(self, x, sets))
    per_view = [int(np.argmax(forward(model, g.without_nodes(rf.members - r), 0)))
                for r in retained]
    assert LocalScorer(model, g).predict_retaining(rf, iter(retained)) == per_view
    stride = min(step(len(retained)), len(retained))
    assert passes == [min(stride, len(retained) - lo) for lo in range(0, len(retained), stride)]


def test_pass_bytes_bound_what_a_pass_holds(rng):
    # ``Retention.pass_bytes`` is counted by hand per id, node and pair;
    # every full pass ``chunks`` cuts, scored as ``predict_retaining``
    # scores it, must peak under its count and within 4x of it, or passes
    # are cut far finer than the budget asks: a leaf's k = 2 field, the
    # hub's k = 2 field, and random fields of k 2 and 3
    leaves = 40
    edges = [(0, i) for i in range(1, leaves + 1)] + [(i, i + 1) for i in range(1, leaves)]
    hub = Graph.build(n=leaves + 1, edges=edges, features=rng.normal(size=(leaves + 1, 3)))
    fields = [(hub, field_of(hub, 1, k=2)), (hub, field_of(hub, 0, k=2))]
    for k in (2, 3):
        g = random_graph(rng, n=60, p_edge=0.08, d=3)
        fields.append((g, field_of(g, 0, k=k)))
    full = 0
    for g, rf in fields:
        model = random_model(rng, d=3, h=16, skip=True)
        scorer = LocalScorer(model, g)
        core = Retention(g, rf)
        fixed, per_id, per_square = core.pass_bytes(model.hidden, model.classes)
        members = sorted(rf.members)
        retained = [r.nodes for r in enumerate_representatives(rf, min(3, rf.size - 1), tau=None)]
        retained += [list(rng.choice(members, size=int(rng.integers(1, 7)))) for _ in range(2000)]
        chunks = list(core.chunks(retained, model.hidden, model.classes))
        tracemalloc.start()
        try:
            for chunk in chunks[:-1]:
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                np.argmax(np.matmul(scorer.hidden_retaining(core, chunk), model.w2)[:, 0], axis=1)
                peak = tracemalloc.get_traced_memory()[1] - held
                counted = sum(fixed + len(r) * (per_id + len(r) * per_square) for r in chunk)
                assert peak <= counted <= 4 * peak
                full += 1
        finally:
            tracemalloc.stop()
    assert full >= 2 * len(fields)


def test_batched_predictor_equals_per_view_forward_at_cora_scale(rng):
    # W2 multiplies one row here and all 2708 rows in ``forward``, so the
    # scores differ in the last bits; the classes must still agree
    n, d = 2708, 16
    pairs = rng.integers(n, size=(5400, 2))
    g = Graph.build(n=n, edges=pairs[pairs[:, 0] != pairs[:, 1]].tolist(),
                    features=rng.normal(size=(n, d)))
    model = random_model(rng, d=d, h=64, classes=7, skip=True)
    scorer = LocalScorer(model, g)
    checked = 0
    for v in rng.permutation(n)[:40].tolist():
        rf = field_of(g, v, k=2)
        if not 3 <= rf.size <= 12:
            continue
        retained = [r.nodes
                    for r in enumerate_representatives(rf, 2 if rf.size > 3 else 1, tau=None)]
        per_view = [int(np.argmax(forward(model, g.without_nodes(rf.members - r), v)))
                    for r in retained]
        assert scorer.predict_retaining(rf, iter(retained)) == per_view
        checked += len(retained)
    assert checked > 50


def test_many_representatives_are_scored_in_bounded_memory(rng):
    # a 40-leaf hub with a path through the leaves: keep-3 has 9,880
    # representatives, whose deleted sets of 37 nodes each would take
    # ~38 MB held at once; the retained sets are the representatives' own,
    # and their passes, one chunk at a time, stay within the scorer's budget
    leaves = 40
    edges = [(0, i) for i in range(1, leaves + 1)] + [(i, i + 1) for i in range(1, leaves)]
    g = Graph.build(n=leaves + 1, edges=edges, features=rng.normal(size=(leaves + 1, 3)))
    model = random_model(rng, d=3)
    scorer = LocalScorer(model, g)
    rf = field_of(g, 0, k=2)
    reps = enumerate_representatives(rf, 3, tau=None)
    assert len(reps) > 9000

    tracemalloc.start()
    try:
        probs = exact_label_probs(rf, reps, 3, scorer.predict_retaining, classes=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(probs) == 1
    assert peak < _CHUNK_BYTES


def _kept_mask(g, deleted):
    drop = np.zeros(g.n, dtype=bool)
    drop[list(deleted)] = True
    return ~(drop[g.edges[:, 0]] | drop[g.edges[:, 1]])


def test_deletions_beyond_two_hops_change_degrees_inside_the_neighbourhood(rng):
    # path 3 - 2 - 1 - 0: node 3 sends nothing to 0 within two hops, but
    # deleting it changes the degree of node 2, which scales 2's message
    g = Graph.build(n=4, edges=[(0, 1), (1, 2), (2, 3)],
                    features=rng.normal(size=(4, 3)))
    model = random_model(rng, d=3)
    hood = TwoHop(g, [0])
    assert hood.nodes.tolist() == [0, 1, 2]
    deleted = [frozenset(), frozenset({3})]
    kept = np.array([_kept_mask(g, dset)[hood.edges] for dset in deleted])
    scores = LocalScorer(model, g).scores(hood, kept)[:, 0]
    full = [forward(model, g.without_nodes(dset), 0) for dset in deleted]
    assert not np.allclose(full[0], full[1])
    assert np.allclose(scores, full, rtol=0.0, atol=1e-12)


def test_incomplete_representatives_rejected(rng):
    g = random_graph(rng, n=7, p_edge=0.5)
    rf = field_of(g, 0, k=2)
    d = rf.size - 1
    k = min(2, d)
    reps = enumerate_representatives(rf, k, tau=None)
    with pytest.raises(IncompleteRepresentativesError):
        exact_label_probs(rf, reps[:-1], k, per_view(g, lambda view, v: 0), classes=2)


def test_savings_below_one_on_sparse_fields(rng):
    # a path graph: most retention sets collapse onto a small connected core
    edges = [(i, i + 1) for i in range(9)]
    g = Graph.build(n=10, edges=edges, directed=False)
    rf = receptive_field(g, 0, k=9)
    d = rf.size - 1
    k = 3
    reps = enumerate_representatives(rf, k, tau=None)
    assert len(reps) < math.comb(d, k)


def test_sampled_bounds_contain_exact_probability(rng):
    # Clopper-Pearson bounds from sampled keep-k votes must bracket the
    # derandomizer's exact value for the same smoothing distribution.
    from gnncert import clopper_pearson

    for _ in range(5):
        g = random_graph(rng, n=8, p_edge=0.45, d=3)
        rf = field_of(g, 0, k=2)
        d = rf.size - 1
        if d < 2:
            continue
        k = 2
        model = random_model(rng, d=3)
        predict = lambda view, v: int(np.argmax(forward(model, view, v)))
        reps = enumerate_representatives(rf, k, tau=None)
        exact = exact_label_probs(rf, reps, k, per_view(g, predict), classes=3)

        others = sorted(rf.members - {rf.target})
        n1 = 400
        votes = []
        for _ in range(n1):
            kept = set(rng.choice(others, size=k, replace=False).tolist())
            deleted = rf.members - {rf.target} - kept
            votes.append(predict(g.without_nodes(deleted), rf.target))
        y_star = max(range(3), key=lambda c: float(exact[c]))
        hits = sum(1 for c in votes if c == y_star)
        lo = clopper_pearson(hits, n1, 1e-4, "lower")
        hi = clopper_pearson(hits, n1, 1e-4, "upper")
        assert lo <= float(exact[y_star]) <= hi


def test_retention_count_examples():
    assert retention_count(10, 0.1) == 1
    assert retention_count(0, 0.5) == 0
    assert retention_count(7, 0.3) == 3
    assert retention_count(10, 0.3) == 3     # no float round-up creep
    assert retention_count(12, 1.0) == 12
