import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import sparse

from gnncert import (
    Graph,
    GnnModel,
    LocalScorer,
    SmoothedSample,
    SmoothingConfig,
    TrainConfig,
    TwoHop,
    forward,
    forward_all,
    load_checkpoint,
    load_votes,
    receptive_field,
    sample,
    save_checkpoint,
    save_votes,
    train,
)
from gnncert import gcn
from gnncert.errors import ConfigError, VoteFormatError
from gnncert.gcn import _CHUNK_BYTES, loss_and_grads, normalized_adjacency, propagate

from conftest import random_graph, two_block_graph


def random_model(rng, d, h=8, classes=3, skip=False):
    return GnnModel(
        w1=rng.normal(size=(d, h)) * 0.5,
        w2=rng.normal(size=(h, classes)) * 0.5,
        token=rng.normal(size=d) * 0.5,
        skip=skip,
    )


def dense_normalized_adjacency(n, edges):
    """Reference aggregation matrix, built densely from the formula."""
    m = np.zeros((n, n), dtype=np.float64)
    if edges.shape[0]:
        m[edges[:, 1], edges[:, 0]] = 1.0   # row = receiver, col = sender
    np.fill_diagonal(m, 1.0)
    inv_sqrt = 1.0 / np.sqrt(m.sum(axis=1))
    return m * inv_sqrt[:, None] * inv_sqrt[None, :]


def dense_forward_all(model, g, clean_features=None):
    """Reference two-layer forward on the dense aggregation matrix."""
    a_hat = dense_normalized_adjacency(g.n, g.edges)
    out = a_hat @ np.maximum(a_hat @ g.features @ model.w1, 0.0) @ model.w2
    if model.skip:
        xc = g.features if clean_features is None else clean_features
        out = out + np.maximum(xc @ model.w1, 0.0) @ model.w2
    return out


def sparse_vs_dense_graphs(rng):
    """Fixture graphs for the sparse-vs-dense checks, edge cases first."""
    yield Graph.build(n=5, edges=[], features=rng.normal(size=(5, 3)))
    yield Graph.build(n=6, edges=[(0, 1), (1, 2)],      # nodes 3-5 isolated
                      features=rng.normal(size=(6, 3)))
    yield Graph.build(n=5, edges=[(0, 1), (1, 2), (2, 0), (3, 2)],
                      features=rng.normal(size=(5, 3)), directed=True)
    for _ in range(10):
        yield random_graph(rng, n=int(rng.integers(2, 12)),
                           p_edge=float(rng.uniform(0.1, 0.6)),
                           directed=bool(rng.integers(2)), d=3)


def test_normalized_adjacency_matches_dense_formula_bitwise(rng):
    for g in sparse_vs_dense_graphs(rng):
        for mask in (np.ones(g.m, dtype=bool), rng.random(g.m) < 0.5):
            edges = g.edges[mask]
            got = normalized_adjacency(g.n, edges)
            assert got.format == "csr"
            assert np.array_equal(got.toarray(),
                                  dense_normalized_adjacency(g.n, edges))


def test_forward_all_matches_dense_forward(rng):
    for g in sparse_vs_dense_graphs(rng):
        for skip in (False, True):
            model = random_model(rng, d=3, skip=skip)
            clean = g.features + rng.normal(size=g.features.shape)
            for cf in (None, clean):
                got = forward_all(model, g, clean_features=cf)
                ref = dense_forward_all(model, g, clean_features=cf)
                assert np.allclose(got, ref, rtol=0.0, atol=1e-12)
                assert np.array_equal(np.argmax(got, axis=1),
                                      np.argmax(ref, axis=1))


def full_hidden(model, g, edge_mask, ablated, token):
    """Reference hidden layer of one variant: full-graph adjacency and propagation."""
    xw1 = g.features @ model.w1
    x = xw1.copy()
    x[ablated] = token @ model.w1
    skip_h = np.maximum(xw1, 0.0) if model.skip else None
    a_hat = normalized_adjacency(g.n, g.edges[edge_mask])
    return propagate(a_hat, x, skip_h=skip_h)[1]


def local_cases(rng):
    """Graphs with target rows, edge cases first: no edges, isolated targets."""
    yield Graph.build(n=5, edges=[], features=rng.normal(size=(5, 3))), [0, 3]
    g = Graph.build(n=7, edges=[(0, 1), (1, 2), (2, 3)],      # 4-6 isolated
                    features=rng.normal(size=(7, 3)))
    yield g, [2, 5]
    yield g, [6]
    yield Graph.build(n=5, edges=[(0, 1), (1, 2), (2, 0), (3, 2), (4, 3)],
                      features=rng.normal(size=(5, 3)), directed=True), [0]
    # in-neighbours of the target with in-edges (1) and without (2)
    yield Graph.build(n=5, edges=[(1, 0), (2, 0), (3, 1), (4, 3)],
                      features=rng.normal(size=(5, 3)), directed=True), [0]
    # a star: under full ablation the target reads the token row four times
    yield Graph.build(n=6, edges=[(1, 0), (2, 0), (3, 0), (4, 3), (5, 4)],
                      features=rng.normal(size=(6, 3))), [0]
    # two targets, one sending to the other
    yield Graph.build(n=7, edges=[(0, 1), (1, 2), (2, 3), (3, 4), (5, 1), (6, 5)],
                      features=rng.normal(size=(7, 3))), [1, 2]
    for _ in range(12):
        g = random_graph(rng, n=int(rng.integers(4, 14)),
                         p_edge=float(rng.uniform(0.1, 0.5)),
                         directed=bool(rng.integers(2)), d=3)
        size = int(rng.integers(1, g.n + 1))
        yield g, sorted(rng.choice(g.n, size=size, replace=False).tolist())


def test_batched_hidden_rows_equal_per_variant_propagation_bitwise(rng):
    for g, rows in local_cases(rng):
        hood = TwoHop(g, rows)
        for skip in (False, True):
            model = random_model(rng, d=3, skip=skip)
            scorer = LocalScorer(model, g)
            for p_del, p_abl in ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)):
                cfg = SmoothingConfig(p_del=p_del, p_abl=p_abl,
                                      seed=int(rng.integers(1 << 30)))
                samples = [sample(g, cfg, i) for i in range(6)]
                kept = np.array([s.edge_mask[hood.edges] for s in samples]
                                ).reshape(len(samples), -1)
                ablated = np.array([s.ablated[hood.nodes] for s in samples])
                hidden = scorer.hidden(hood, kept, ablated)
                scores = scorer.scores(hood, kept, ablated)
                for i, s in enumerate(samples):
                    ref = full_hidden(model, g, s.edge_mask, s.ablated, model.token)[rows]
                    assert np.array_equal(hidden[i], ref)
                    assert np.array_equal(scores[i], ref @ model.w2)


def test_hand_built_variants_equal_full_propagation_bitwise(rng):
    # variants a smoothing draw seldom gives: every edge into the targets
    # deleted while the rest survive, and every sender into the targets
    # ablated, alone or with those edges deleted
    for g, rows in local_cases(rng):
        hood = TwoHop(g, rows)
        into_rows = np.isin(g.edges[hood.edges, 1], rows)
        senders = np.isin(hood.nodes, g.edges[hood.edges[into_rows], 0])
        kept = np.stack([~into_rows, np.ones_like(into_rows), ~into_rows])
        ablated = np.stack([np.zeros_like(senders), senders, senders])
        for skip in (False, True):
            model = random_model(rng, d=3, skip=skip)
            hidden = LocalScorer(model, g).hidden(hood, kept, ablated)
            for i in range(len(kept)):
                edge_mask = np.ones(g.m, dtype=bool)
                edge_mask[hood.edges] = kept[i]
                node_mask = np.zeros(g.n, dtype=bool)
                node_mask[hood.nodes] = ablated[i]
                ref = full_hidden(model, g, edge_mask, node_mask, model.token)[rows]
                assert np.array_equal(hidden[i], ref)


def test_csr_product_sums_each_row_in_stored_order():
    # ``TwoHop.aggregate`` reads every ablated sender from one shared row,
    # so its rows hold repeated, non-ascending columns, and the product must
    # add each row's entries in the order they are stored.  Here the order
    # decides the rounded sum: 1e16 + 1 rounds back to 1e16.
    x = np.array([[1e16, 1.0], [1.0, 1e16], [-1e16, -1e16]])
    rows = [[0, 1, 2], [0, 2, 1], [2, 1, 0], [1, 0, 2], [0, 1, 1, 2], [0, 2, 1, 1],
            [1, 1, 0, 2]]
    indices = np.array([c for r in rows for c in r], dtype=np.int32)
    indptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int32)
    m = sparse.csr_matrix((np.ones(indices.size), indices, indptr), shape=(len(rows), 3))
    got = m @ x
    assert got[:, 0].tolist() == [0.0, 1.0, 0.0, 0.0, 0.0, 2.0, 2.0]
    for i, r in enumerate(rows):
        want = np.zeros(2)
        for c in r:
            want = want + 1.0 * x[c]
        assert np.array_equal(got[i], want)
    assert np.array_equal(m.indices, indices)       # the product reordered nothing


def test_many_samples_are_scored_in_bounded_memory(rng, monkeypatch):
    # the smoothing path's counterpart of the derandomization memory test:
    # 2,000 samples of a hood whose masks alone would take ~19 MB are
    # scored one chunk at a time within the scorer's budget
    n, samples = 3000, 2000
    pairs = rng.integers(n, size=(9000, 2))
    g = Graph.build(n=n, edges=pairs[pairs[:, 0] != pairs[:, 1]],
                    features=rng.normal(size=(n, 3)))
    hood = TwoHop(g, np.sort(rng.choice(n, size=40, replace=False)))
    assert samples * (hood.edges.size + hood.nodes.size) > 8 * _CHUNK_BYTES
    scorer = LocalScorer(random_model(rng, d=3), g)
    # four full-graph samples, built before tracing starts, stand in for
    # the draws, so the trace holds what ``sample_votes`` itself allocates
    bank = [SmoothedSample(edge_mask=rng.random(g.m) < 0.7, ablated=rng.random(n) < 0.5)
            for _ in range(4)]
    monkeypatch.setattr(gcn.smoothing, "sample", lambda g, cfg, i: bank[i % 4])
    cfg = SmoothingConfig(p_del=0.3, p_abl=0.5)

    tracemalloc.start()
    try:
        scored = sum(len(votes) for _, votes in scorer.sample_votes(hood.rows, cfg, samples))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scored == samples
    assert peak < _CHUNK_BYTES


def test_a_pass_whose_degree_step_dominates_stays_within_the_budget(rng):
    # 20,000 edges into node 2 come from outside V = {0, 1, 2}: they count in
    # the degrees only, so the degree step holds nearly all of a pass, and a
    # pass of ``chunk`` variants stays within the budget only if ``chunk``
    # charges every byte per edge that the degree step holds
    fan = 20_000
    n = 3 + fan
    edges = [(1, 0), (2, 1)] + [(j, 2) for j in range(3, n)]
    g = Graph.build(n=n, edges=edges, features=rng.normal(size=(n, 3)), directed=True)
    hood = TwoHop(g, [0])
    assert hood.nodes.tolist() == [0, 1, 2] and hood.edges.size == fan + 2
    scorer = LocalScorer(random_model(rng, d=3), g)
    kept = rng.random((scorer.chunk(hood), hood.edges.size)) < 0.7
    tracemalloc.start()
    try:
        scorer.scores(hood, kept)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _CHUNK_BYTES


def test_two_hop_reads_only_the_neighbourhood(rng):
    # edges whose receiver lies outside V change no target score
    for g, rows in local_cases(rng):
        hood = TwoHop(g, rows)
        outside = np.ones(g.m, dtype=bool)
        outside[hood.edges] = False
        model = random_model(rng, d=3)
        for _ in range(3):
            mask = rng.random(g.m) < 0.5
            flipped = mask ^ outside
            assert np.array_equal(full_hidden(model, g, mask, np.zeros(g.n, bool),
                                              model.token)[rows],
                                  full_hidden(model, g, flipped, np.zeros(g.n, bool),
                                              model.token)[rows])


@pytest.mark.parametrize("rows", [[2, 1], [1, 1], [0, 3, 3], [4, 0, 2]])
def test_two_hop_rejects_unsorted_or_repeated_rows(rng, rows):
    # the second layer's entries are the first layer's rows of R in stored
    # order, which are R's rows in R's order only when R ascends
    g = random_graph(rng, n=6, p_edge=0.4, d=3)
    with pytest.raises(ValueError, match="ascend"):
        TwoHop(g, rows)
    TwoHop(g, sorted(set(rows)))


@pytest.mark.parametrize("rows", [[-1], [-6], [6], [0, 6], [-1, 2], [7]])
def test_two_hop_rejects_rows_outside_the_graph(rng, rows):
    # a negative id would wrap around to a node counted from the end, and
    # an id past the last node has no row to read
    path = Graph.build(n=6, edges=[(i, i + 1) for i in range(5)],
                       features=rng.normal(size=(6, 3)))
    for g in (random_graph(rng, n=6, p_edge=0.4, d=3), path):
        with pytest.raises(ValueError, match=r"\[0, 6\)"):
            TwoHop(g, rows)


@pytest.mark.parametrize("deleted", [{-1}, {-6}, {6}, {99}, {2, -1}, {0, 6}])
def test_deleting_a_node_outside_the_graph_is_refused(rng, deleted):
    # on a path, -1 would wrap around and drop node 5's edges, and an id
    # past the last node would be an IndexError
    path = Graph.build(n=6, edges=[(i, i + 1) for i in range(5)],
                       features=rng.normal(size=(6, 3)))
    for g in (random_graph(rng, n=6, p_edge=0.4, d=3), path):
        with pytest.raises(ValueError, match=r"\[0, 6\)"):
            g.without_nodes(deleted)


def test_deleting_a_node_outside_the_hood_changes_nothing(rng):
    # node 5 is three hops from node 0 on the path: it touches no edge of 0's hood
    g = Graph.build(n=6, edges=[(i, i + 1) for i in range(5)],
                    features=rng.normal(size=(6, 3)))
    model = random_model(rng, d=3)
    deleted = [set(), {5}, {4, 5}, {1}]
    scorer = LocalScorer(model, g)
    rf = receptive_field(g, 0, 5)                   # the whole path
    retained = [rf.members - d for d in deleted]
    got = scorer.predict_retaining(rf, retained)
    assert got == [int(np.argmax(forward(model, g.without_nodes(d), 0))) for d in deleted]
    hidden = scorer.hidden_retaining(gcn.Retention(g, rf), retained[:2])
    assert hidden[1].tobytes() == hidden[0].tobytes()
    assert np.array_equal(g.without_nodes({5}).edges, g.edges[g.edges.max(axis=1) < 5])


def test_incidence_equals_the_coo_build(rng):
    # the in-edge incidence is built as CSR directly; a COO build of the
    # same (receiver, edge) ones is the reference, array for array
    cases = list(local_cases(rng))
    for _ in range(20):
        n = int(rng.integers(1, 60))
        pairs = rng.integers(n, size=(int(rng.integers(0, 4 * n)), 2))
        g = Graph.build(n=n, edges=pairs[pairs[:, 0] != pairs[:, 1]],
                        features=rng.normal(size=(n, 3)), directed=bool(rng.integers(2)))
        cases.append((g, sorted(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                           replace=False).tolist())))
    for g, rows in cases:
        hood = TwoHop(g, rows)
        receiver_at = np.searchsorted(hood.nodes, g.edges[hood.edges, 1])
        ref = sparse.csr_matrix(
            (np.ones(hood.edges.size), (receiver_at, np.arange(hood.edges.size))),
            shape=(hood.nodes.size, hood.edges.size))
        got = hood._incidence
        assert got.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).dtype == getattr(ref, name).dtype
            assert np.array_equal(getattr(got, name), getattr(ref, name))


def test_no_edges_scores_depend_only_on_own_features(rng):
    model = random_model(rng, d=4)
    feats_a = rng.normal(size=(5, 4))
    feats_b = feats_a.copy()
    feats_b[[0, 1, 3]] += rng.normal(size=(3, 4))   # perturb everyone but node 2
    ga = Graph.build(n=5, edges=[], features=feats_a, directed=True)
    gb = Graph.build(n=5, edges=[], features=feats_b, directed=True)
    assert np.array_equal(forward(model, ga, 2), forward(model, gb, 2))


def test_all_zero_features_tie_breaks_to_class_zero(rng):
    model = random_model(rng, d=3)
    model.token = np.zeros(3)
    g = Graph.build(n=4, edges=[(0, 1), (2, 3)],
                    features=np.zeros((4, 3)), directed=False)
    scores = forward_all(model, g)
    assert np.allclose(scores, 0.0)
    assert np.array_equal(np.argmax(scores, axis=1), np.zeros(4, dtype=int))


def test_permutation_equivariance(rng):
    for _ in range(5):
        g = random_graph(rng, n=7, p_edge=0.4, d=3)
        model = random_model(rng, d=3)
        perm = rng.permutation(g.n)
        remapped = Graph.build(
            n=g.n,
            edges=[(perm[a], perm[b]) for a, b in g.edges],
            features=g.features[np.argsort(perm)],
            directed=False,
        )
        base = forward_all(model, g)
        moved = forward_all(model, remapped)
        for v in range(g.n):
            assert np.allclose(base[v], moved[perm[v]], atol=1e-12)


def test_shape_mismatch_raises(rng):
    model = random_model(rng, d=4)
    g = random_graph(rng, n=5, p_edge=0.4, d=3)
    with pytest.raises(ValueError, match="columns"):
        forward_all(model, g)


def test_gradients_match_finite_differences(rng):
    for skip in (False, True):
        g = random_graph(rng, n=6, p_edge=0.5, d=3)
        labels = rng.integers(0, 3, size=g.n)
        model = random_model(rng, d=3, h=4, classes=3, skip=skip)
        ablated = rng.random(g.n) < 0.4
        x = g.features.copy()
        x[ablated] = model.token
        a_hat = normalized_adjacency(g.n, g.edges)
        idx = np.arange(g.n)
        wd = 5e-4

        def loss_of(model_):
            x_ = g.features.copy()
            x_[ablated] = model_.token
            return loss_and_grads(model_, a_hat, x_, labels, idx, ablated, wd,
                                  clean_x=g.features)[0]

        _, d_w1, d_w2, d_tok = loss_and_grads(
            model, a_hat, x, labels, idx, ablated, wd, clean_x=g.features)

        h = 1e-6
        for arr, grad in ((model.w1, d_w1), (model.w2, d_w2),
                          (model.token, d_tok)):
            flat = arr.reshape(-1)
            for pos in rng.choice(flat.size, size=min(10, flat.size), replace=False):
                orig = flat[pos]
                flat[pos] = orig + h
                up = loss_of(model)
                flat[pos] = orig - h
                down = loss_of(model)
                flat[pos] = orig
                numeric = (up - down) / (2 * h)
                analytic = grad.reshape(-1)[pos]
                assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-7)


@pytest.mark.parametrize("skip", [False, True])
def test_gradients_with_dropout_match_finite_differences(rng, skip):
    # one fixed inverted-dropout mask scales the message, skip and token paths alike
    g = random_graph(rng, n=6, p_edge=0.5, d=3)
    labels = rng.integers(0, 3, size=g.n)
    model = random_model(rng, d=3, h=4, classes=3, skip=skip)
    ablated = rng.random(g.n) < 0.5
    keep = 0.7
    drop_mask = rng.random((g.n, g.dim)) < keep
    a_hat = normalized_adjacency(g.n, g.edges)
    idx = np.arange(g.n)

    def loss_and_grads_of(model_):
        x = g.features.copy()
        x[ablated] = model_.token
        return loss_and_grads(model_, a_hat, x, labels, idx, ablated, 5e-4,
                              clean_x=g.features, drop=drop_mask / keep)

    _, d_w1, d_w2, d_tok = loss_and_grads_of(model)
    h = 1e-6
    for arr, grad in ((model.w1, d_w1), (model.w2, d_w2), (model.token, d_tok)):
        flat = arr.reshape(-1)
        for pos in range(flat.size):
            orig = flat[pos]
            flat[pos] = orig + h
            up = loss_and_grads_of(model)[0]
            flat[pos] = orig - h
            down = loss_and_grads_of(model)[0]
            flat[pos] = orig
            numeric = (up - down) / (2 * h)
            assert grad.reshape(-1)[pos] == pytest.approx(numeric, rel=1e-4, abs=1e-7)


def test_training_separates_two_blocks(rng):
    g = two_block_graph(rng, n=60, p_in=0.2, p_out=0.02, d=16, hi=0.7, lo=0.02)
    cfg = TrainConfig(epochs=50, patience=50, dropout=0.3, hidden=16, lr=5e-3,
                      p_del=0.0, p_abl=0.0, seed=1)
    labeled = list(range(g.n))
    model = train(g, labeled, cfg)
    acc = float(np.mean(np.argmax(forward_all(model, g), axis=1) == g.labels))
    assert acc > 0.9


def test_training_on_pure_ablation_hits_majority_rate(rng):
    g = two_block_graph(rng, n=45, p_in=0.2, p_out=0.05, d=8)
    # unbalanced: 22 of one block, 23 of the other
    cfg = TrainConfig(epochs=200, patience=200, dropout=0.0, hidden=8,
                      p_del=0.0, p_abl=1.0, seed=2)
    model = train(g, list(range(g.n)), cfg)
    scfg = SmoothingConfig(p_del=0.0, p_abl=1.0)
    s = sample(g, scfg, 0)
    x = g.features.copy()
    x[s.ablated] = model.token
    view = g.with_edges(s.edge_mask, features=x)
    preds = np.argmax(forward_all(model, view), axis=1)
    assert len(set(preds.tolist())) == 1     # every node sees only the token
    majority = max(np.bincount(g.labels)) / g.n
    acc = float(np.mean(preds == g.labels))
    assert acc == pytest.approx(majority, abs=0.03)


def test_training_deterministic(rng):
    g = two_block_graph(rng, n=40, p_in=0.25, p_out=0.05, d=8)
    cfg = TrainConfig(epochs=30, patience=30, hidden=8, dropout=0.5,
                      p_del=0.1, p_abl=0.3, seed=11)
    m1 = train(g, list(range(g.n)), cfg)
    m2 = train(g, list(range(g.n)), cfg)
    assert np.array_equal(m1.w1, m2.w1)
    assert np.array_equal(m1.w2, m2.w2)
    assert np.array_equal(m1.token, m2.token)


def test_training_requires_labels(rng):
    g = random_graph(rng, n=10, p_edge=0.3)
    with pytest.raises(ConfigError):
        train(g, [], TrainConfig(epochs=1))
    with pytest.raises(ConfigError):
        train(g, [0, 1], TrainConfig(epochs=1))     # graph has no labels


def test_training_needs_two_classes():
    # distinct classes count, not 1 + the largest: labels all 1 are one class too
    edges = np.array([[0, 1], [1, 2], [2, 3]])
    for labels, labeled in (([0, 0, -1, 0], [0, 1, 3]), ([1, 1, -1, 0], [0, 1])):
        g = Graph.build(n=4, edges=edges, labels=np.array(labels))
        with pytest.raises(ConfigError, match="training needs at least two classes"):
            train(g, labeled, TrainConfig(epochs=1))


def test_training_rejects_an_unlabeled_node_in_the_labeled_set():
    g = Graph.build(n=4, edges=np.array([[0, 1], [1, 2], [2, 3]]),
                    labels=np.array([0, 1, -1, 1]))
    with pytest.raises(ConfigError, match="node 2 is in the labeled set but has no label"):
        train(g, [0, 1, 2, 3], TrainConfig(epochs=1))
    train(g, [0, 1, 3], TrainConfig(epochs=1))


def test_training_with_one_labeled_node_per_class_validates_on_them(rng):
    # a class of one node gives it to training, so no class leaves a validation node
    g = two_block_graph(rng, n=20, p_in=0.3, p_out=0.05, d=8)
    labeled = [0, 19]
    history = []
    model = train(g, labeled, TrainConfig(epochs=6, patience=6, hidden=4, dropout=0.0),
                  history=history)
    assert all(val_acc in (0.0, 0.5, 1.0) for _, _, val_acc in history)
    preds = np.argmax(forward_all(model, g), axis=1)
    assert max(val_acc for _, _, val_acc in history) == np.mean(preds[labeled] == g.labels[labeled])


@pytest.mark.parametrize("key,value,message", [
    ("hidden", 0, "hidden must be >= 1, got 0"),
    ("hidden", -1, "hidden must be >= 1, got -1"),
    ("p_del", 1.5, r"training smoothing probabilities must be in \[0, 1\]"),
    ("p_abl", -0.1, r"training smoothing probabilities must be in \[0, 1\]"),
])
def test_train_config_refuses_values_training_cannot_use(key, value, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{key: value})


def _labeled_test_draw(labels, labeled_per_class, rng):
    """The labeled/test draw ``cli.cmd_train`` made before ``split_by_class``."""
    labeled_pool = [v for v in range(len(labels)) if labels[v] >= 0]
    by_class = {}
    for v in labeled_pool:
        by_class.setdefault(int(labels[v]), []).append(v)
    labeled = []
    for c in sorted(by_class):
        pool = by_class[c]
        perm = rng.permutation(len(pool))
        take = min(2 * labeled_per_class, len(pool))
        labeled.extend(pool[i] for i in perm[:take])
    labeled = sorted(labeled)
    return labeled, sorted(set(labeled_pool) - set(labeled))


def _train_val_split(labeled, labels, rng):
    """The train/validation split ``gcn.train`` made before ``split_by_class``."""
    by_class = {}
    for v in sorted(int(x) for x in labeled):
        by_class.setdefault(int(labels[v]), []).append(v)
    train, val = [], []
    for c in sorted(by_class):
        nodes = by_class[c]
        perm = rng.permutation(len(nodes))
        half = max(1, len(nodes) // 2)
        train.extend(nodes[i] for i in perm[:half])
        val.extend(nodes[i] for i in perm[half:])
    return sorted(train), sorted(val)


def test_split_by_class_draws_what_both_former_splits_drew(rng):
    # random labelings with unlabelled nodes (-1), classes of one node and
    # classes smaller than the cut; each side gets its own equal generator
    for trial in range(60):
        n = int(rng.integers(1, 40))
        labels = rng.integers(-1, int(rng.integers(1, 6)), size=n)
        if trial % 3 == 0:
            labels[rng.integers(n)] = 9          # a class of one node
        seed, per_class = int(rng.integers(1000)), int(rng.integers(1, 5))
        pool = np.flatnonzero(labels >= 0)
        got = gcn.split_by_class(pool, labels, np.random.default_rng(seed),
                                 lambda size: min(2 * per_class, size))
        assert got == _labeled_test_draw(labels, per_class, np.random.default_rng(seed))
        labeled = rng.permutation(pool)[:int(rng.integers(len(pool) + 1))].tolist()
        got = gcn.split_by_class(labeled, labels, np.random.default_rng(seed),
                                 lambda size: max(1, size // 2))
        assert got == _train_val_split(labeled, labels, np.random.default_rng(seed))


def _kept_distance_within(g, edge_mask, v, k):
    """Nodes with a surviving directed path to v of length <= k."""
    kept = g.edges[edge_mask]
    in_nbrs = {}
    for a, b in kept:
        in_nbrs.setdefault(int(b), []).append(int(a))
    reach = {v}
    frontier = {v}
    for _ in range(k):
        nxt = set()
        for u in frontier:
            for a in in_nbrs.get(u, ()):
                if a not in reach:
                    nxt.add(a)
        reach |= nxt
        frontier = nxt
    return reach


def test_interception_soundness_small(rng):
    # the full-graph path, skip off and on: tampering a node the sample
    # intercepts moves no prediction of the target.  The skip path reads the
    # target's own clean features, so with it the target is never tampered;
    # a tamper reaches the clean features as well as the ablated ones.
    k = 2
    for skip in (False, True):
        for _ in range(10):
            g = random_graph(rng, n=int(rng.integers(4, 9)), p_edge=0.4, d=3)
            model = random_model(rng, d=3, skip=skip)
            cfg = SmoothingConfig(p_del=0.4, p_abl=0.4,
                                  seed=int(rng.integers(1 << 30)))
            v = int(rng.integers(g.n))
            for i in range(30):
                s = sample(g, cfg, i)
                x = g.features.copy()
                x[s.ablated] = model.token
                view = g.with_edges(s.edge_mask, features=x)
                base_pred = int(np.argmax(forward(model, view, v, clean_features=g.features)))

                reachable = _kept_distance_within(g, s.edge_mask, v, k)
                for w in range(g.n):
                    intercepted = s.ablated[w] or (w not in reachable)
                    if not intercepted or (skip and w == v):
                        continue
                    tampered = g.features.copy()
                    tampered[w] = rng.normal(size=3) * 10
                    x2 = tampered.copy()
                    x2[s.ablated] = model.token
                    view2 = g.with_edges(s.edge_mask, features=x2)
                    assert int(np.argmax(forward(model, view2, v,
                                                 clean_features=tampered))) == base_pred


def test_interception_soundness_on_the_local_scoring_path(rng):
    # the sweep above on the paths the CLI scores with, skip on and off:
    # tampering a node the sample intercepts moves no vote of the target,
    # nor does tampering a member of its k = 2 field that a retention set
    # deletes (``predict_retaining``, as ``derandomize`` scores), or a node
    # outside that field.  The skip path reads the target's own features
    # unablated, so with it the target is never tampered.  Non-finite and
    # overflowing rows are tampers too: an intercepted message must be
    # left out, not scaled by zero, since 0 * inf is NaN.
    k = 2
    for skip in (False, True):
        for _ in range(10):
            g = random_graph(rng, n=int(rng.integers(4, 9)), p_edge=0.4, d=3)
            model = random_model(rng, d=3, skip=skip)
            cfg = SmoothingConfig(p_del=0.4, p_abl=0.4, seed=int(rng.integers(1 << 30)))
            v = int(rng.integers(g.n))
            hood = TwoHop(g, [v])
            samples = [sample(g, cfg, i) for i in range(30)]
            kept = np.array([s.edge_mask[hood.edges] for s in samples])
            ablated = np.array([s.ablated[hood.nodes] for s in samples])
            others = [w for w in range(g.n) if w != v]
            rf = receptive_field(g, v, k)
            field = sorted(rf.members - {v})
            deleted = [set(rng.choice(field, size=int(rng.integers(len(field) + 1)),
                                      replace=False).tolist()) for _ in range(20)]

            def votes(features):
                scorer = LocalScorer(model, g.with_edges(np.ones(g.m, dtype=bool),
                                                         features=features))
                return (np.argmax(scorer.scores(hood, kept, ablated)[:, 0], axis=1),
                        scorer.predict_retaining(rf, [rf.members - d for d in deleted]))

            base, base_without = votes(g.features)
            for w in others if skip else range(g.n):
                for fill in (rng.normal(size=3) * 10, np.inf, -np.inf, np.nan, 1e308, -1e308):
                    tampered = g.features.copy()
                    tampered[w] = fill
                    with np.errstate(over="ignore", invalid="ignore"):
                        moved, moved_without = votes(tampered)
                    for i, s in enumerate(samples):
                        if s.ablated[w] or w not in _kept_distance_within(g, s.edge_mask, v, k):
                            assert moved[i] == base[i]
                    for d, before, after in zip(deleted, base_without, moved_without):
                        if w in d or w not in rf.members:
                            assert after == before


def test_skip_bypass_with_all_edges_deleted(rng):
    g = random_graph(rng, n=6, p_edge=0.5, d=4)
    model = random_model(rng, d=4, skip=True)
    empty = g.with_edges(np.zeros(g.m, dtype=bool))
    with_skip = forward_all(model, empty, clean_features=g.features)
    plain = GnnModel(w1=model.w1, w2=model.w2, token=model.token, skip=False)
    edge_free = forward_all(plain, empty)
    # main path and skip path coincide here, so scores double but ranks match
    assert np.allclose(with_skip, 2 * edge_free, atol=1e-12)
    assert np.array_equal(np.argmax(with_skip, axis=1),
                          np.argmax(edge_free, axis=1))


def test_skip_carries_clean_signal_under_full_ablation(rng):
    g = random_graph(rng, n=6, p_edge=0.5, d=4)
    model = random_model(rng, d=4, skip=True)
    x = np.tile(model.token, (g.n, 1))
    view = g.with_edges(np.zeros(g.m, dtype=bool), features=x)
    scores = forward_all(model, view, clean_features=g.features)
    assert not np.allclose(scores, scores[0])   # rows differ: clean features got through


def test_checkpoint_round_trip(tmp_path, rng):
    # every weight reads back bit for bit, the specials included
    specials = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310,
                         np.finfo(np.float64).max, 1.0 / 3.0])
    for hidden, skip in ((8, True), (1, True), (1, False)):
        model = random_model(rng, d=5, h=hidden, skip=skip)
        for w in (model.w1, model.w2, model.token):
            w.flat[:specials.size] = specials[:w.size]
        path = tmp_path / "model.json"
        save_checkpoint(model, path, train_config=TrainConfig(epochs=3))
        loaded, payload = load_checkpoint(path)
        for got, want in ((loaded.w1, model.w1), (loaded.w2, model.w2),
                          (loaded.token, model.token)):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.flags.writeable and got.flags.c_contiguous
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert loaded.skip is skip and loaded.hidden == hidden
        assert payload["train_config"]["epochs"] == 3
        assert payload["w1"]["shape"] == [5, hidden]


def test_vote_file_round_trip(tmp_path, rng):
    g = random_graph(rng, n=6, p_edge=0.4, d=3)
    model = random_model(rng, d=3)
    cfg = SmoothingConfig(p_del=0.3, p_abl=0.3, seed=9)
    rows = []
    for i in range(20):
        s = sample(g, cfg, i)
        x = g.features.copy()
        x[s.ablated] = model.token
        preds = np.argmax(forward_all(model, g.with_edges(s.edge_mask, features=x)), axis=1)
        rows.extend((v, i, int(preds[v])) for v in range(g.n))
    path = tmp_path / "votes.csv"
    save_votes(path, rows)
    table = load_votes(path)
    for v in range(g.n):
        expected = {}
        for node, i, c in rows:
            if node == v:
                expected[c] = expected.get(c, 0) + 1
        assert dict(Counter(table.votes.get(v, {}).values())) == expected


def test_vote_file_examples(tmp_path):
    p = tmp_path / "votes.csv"
    p.write_text("node_id,sample_index,class\n0,0,2\n0,1,2\n0,2,2\n")
    table = load_votes(p)
    assert table.votes == {0: {0: 2, 1: 2, 2: 2}}

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert load_votes(empty).votes == {}

    dup = tmp_path / "dup.csv"
    dup.write_text("0,0,1\n0,0,2\n")
    with pytest.raises(VoteFormatError, match="duplicate"):
        load_votes(dup)

    # a signed first field is a vote, not a header, on the numpy path and
    # on the line-by-line path a duplicate sends the file down
    plus = tmp_path / "plus.csv"
    plus.write_text("+0,0,1\n0,1,1\n0,2,1\n")
    assert load_votes(plus).votes == {0: {0: 1, 1: 1, 2: 1}}
    plus.write_text("+0,0,1\n0,0,2\n")
    with pytest.raises(VoteFormatError, match="line 2: duplicate"):
        load_votes(plus)
