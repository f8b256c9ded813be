from collections import Counter

import numpy as np
import pytest

from gnncert import (
    Graph,
    GnnModel,
    LocalScorer,
    SmoothingConfig,
    TrainConfig,
    TwoHop,
    forward,
    forward_all,
    load_checkpoint,
    load_votes,
    predict_all,
    sample,
    save_checkpoint,
    save_votes,
    train,
)
from gnncert.errors import ConfigError, VoteFormatError
from gnncert.gcn import loss_and_grads, normalized_adjacency, propagate

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
    for _ in range(12):
        g = random_graph(rng, n=int(rng.integers(4, 14)),
                         p_edge=float(rng.uniform(0.1, 0.5)),
                         directed=bool(rng.integers(2)), d=3)
        size = int(rng.integers(1, g.n + 1))
        yield g, sorted(rng.choice(g.n, size=size, replace=False).tolist())


def all_scores(scorer, hood, kept, ablated=None):
    """(b, |R|, classes) scores of the variants ``kept`` through the chunk stream."""
    def fill(lo, kept_buf, ablated_buf):
        b = min(len(kept_buf), len(kept) - lo)
        kept_buf[:b] = kept[lo:lo + b]
        if ablated_buf is not None:
            ablated_buf[:b] = ablated[lo:lo + b]
        return b

    return np.concatenate([np.empty((0, hood.rows.size, scorer.model.classes))]
                          + [s.copy() for _, s in scorer.scores(hood, fill, ablated is not None)])


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
                scores = all_scores(scorer, hood, kept, ablated)
                for i, s in enumerate(samples):
                    ref = full_hidden(model, g, s.edge_mask, s.ablated, model.token)[rows]
                    assert np.array_equal(hidden[i], ref)
                    assert np.array_equal(scores[i], ref @ model.w2)


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
    assert np.array_equal(predict_all(model, g), np.zeros(4, dtype=int))


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


def test_training_separates_two_blocks(rng):
    g = two_block_graph(rng, n=60, p_in=0.2, p_out=0.02, d=16, hi=0.7, lo=0.02)
    cfg = TrainConfig(epochs=50, patience=50, dropout=0.3, hidden=16, lr=5e-3,
                      p_del=0.0, p_abl=0.0, seed=1)
    labeled = list(range(g.n))
    model = train(g, labeled, cfg)
    acc = float(np.mean(predict_all(model, g) == g.labels))
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
    preds = predict_all(model, view)
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
    k = 2
    for _ in range(10):
        g = random_graph(rng, n=int(rng.integers(4, 9)), p_edge=0.4, d=3)
        model = random_model(rng, d=3)
        cfg = SmoothingConfig(p_del=0.4, p_abl=0.4,
                              seed=int(rng.integers(1 << 30)))
        v = int(rng.integers(g.n))
        for i in range(30):
            s = sample(g, cfg, i)
            x = g.features.copy()
            x[s.ablated] = model.token
            view = g.with_edges(s.edge_mask, features=x)
            base_pred = int(np.argmax(forward(model, view, v)))

            reachable = _kept_distance_within(g, s.edge_mask, v, k)
            for w in range(g.n):
                intercepted = s.ablated[w] or (w not in reachable)
                if not intercepted:
                    continue
                tampered = g.features.copy()
                tampered[w] = rng.normal(size=3) * 10
                x2 = tampered.copy()
                x2[s.ablated] = model.token
                view2 = g.with_edges(s.edge_mask, features=x2)
                assert int(np.argmax(forward(model, view2, v))) == base_pred


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
    model = random_model(rng, d=5, skip=True)
    path = tmp_path / "model.json"
    save_checkpoint(model, path, train_config=TrainConfig(epochs=3))
    loaded, payload = load_checkpoint(path)
    assert np.array_equal(loaded.w1, model.w1)
    assert np.array_equal(loaded.w2, model.w2)
    assert np.array_equal(loaded.token, model.token)
    assert loaded.skip is True
    assert payload["train_config"]["epochs"] == 3


def test_vote_file_round_trip(tmp_path, rng):
    g = random_graph(rng, n=6, p_edge=0.4, d=3)
    model = random_model(rng, d=3)
    cfg = SmoothingConfig(p_del=0.3, p_abl=0.3, seed=9)
    rows = []
    for i in range(20):
        s = sample(g, cfg, i)
        x = g.features.copy()
        x[s.ablated] = model.token
        preds = predict_all(model, g.with_edges(s.edge_mask, features=x))
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
