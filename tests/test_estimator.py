import math

import numpy as np
import pytest
from scipy import special, stats

from gnncert import (
    DeltaBound,
    SmoothingConfig,
    VoteTable,
    VoteTally,
    CertificateResult,
    certify,
    clopper_pearson,
    estimate,
    estimate_all,
    load_votes,
    report,
)
from gnncert import estimator
from gnncert.errors import InsufficientSamplesError, VoteFormatError
from gnncert.estimator import radius

from conftest import random_graph
from test_gcn import dense_forward_all, random_model


def test_clopper_pearson_boundaries():
    assert clopper_pearson(0, 50, 0.01, "lower") == 0.0
    assert clopper_pearson(50, 50, 0.01, "upper") == 1.0


def test_clopper_pearson_all_successes_closed_form():
    # lower bound with every sample a success: alpha**(1/n)
    got = clopper_pearson(100, 100, 0.01, "lower")
    assert got == pytest.approx(0.01 ** (1 / 100), abs=1e-9)
    assert got == pytest.approx(0.9550, abs=5e-4)


def test_clopper_pearson_matches_beta_quantiles(rng):
    for _ in range(50):
        n = int(rng.integers(2, 400))
        c = int(rng.integers(0, n + 1))
        a = float(rng.uniform(0.001, 0.2))
        lo = clopper_pearson(c, n, a, "lower")
        hi = clopper_pearson(c, n, a, "upper")
        ref_lo = stats.beta.ppf(a, c, n - c + 1) if c > 0 else 0.0
        ref_hi = stats.beta.ppf(1 - a, c + 1, n - c) if c < n else 1.0
        assert lo == pytest.approx(float(ref_lo), abs=1e-8)
        assert hi == pytest.approx(float(ref_hi), abs=1e-8)
        assert lo <= c / n <= hi


def test_clopper_pearson_validation():
    with pytest.raises(ValueError):
        clopper_pearson(5, 4, 0.01, "lower")
    with pytest.raises(ValueError):
        clopper_pearson(1, 4, 0.0, "lower")
    with pytest.raises(ValueError):
        clopper_pearson(1, 4, 0.01, "sideways")


def _one_bisection(q, a, b):
    """One element's Beta(a, b) quantile by the plain scalar bisection."""
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if special.betainc(a, b, mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_clopper_pearson_arrays_equal_scalar_calls_bit_for_bit(rng):
    n = rng.integers(1, 500, size=200)
    successes = rng.integers(0, n + 1)
    successes[:20], successes[20:40] = 0, n[20:40]        # both boundaries
    alpha = rng.uniform(1e-4, 0.3, size=200)
    for side in ("lower", "upper"):
        batch = clopper_pearson(successes, n, alpha, side)
        for s, m, a, got in zip(successes.tolist(), n.tolist(), alpha.tolist(), batch):
            scalar = clopper_pearson(s, m, a, side)
            assert type(scalar) is float and got == scalar
            if side == "lower":
                assert scalar == (0.0 if s == 0 else _one_bisection(a, s, m - s + 1))
            else:
                assert scalar == (1.0 if s == m else _one_bisection(1.0 - a, s + 1, m - s))
    # both sides in one call
    sides = np.where(rng.random(200) < 0.5, "lower", "upper")
    mixed = clopper_pearson(successes, n, alpha, sides)
    assert mixed.tolist() == [clopper_pearson(*x) for x in zip(
        successes.tolist(), n.tolist(), alpha.tolist(), sides.tolist())]


def _bisection(q, a, b):
    """Beta(a, b) quantiles by 34 halvings of [0, 1] for every element, as they once were found."""
    lo, hi = np.zeros(np.shape(q)), np.ones(np.shape(q))
    while np.any(hi - lo > 1e-10):
        mid = 0.5 * (lo + hi)
        below = special.betainc(a, b, mid) < q
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _cp_sweep():
    """Every success count for a dozen sample counts, at seven alphas from 1e-4 to 0.5."""
    counts = [1, 2, 3, 5, 8, 24, 50, 100, 300, 1000, 3000, 4000]
    successes = np.concatenate([np.arange(n + 1) for n in counts])
    n = np.concatenate([np.full(n + 1, n) for n in counts])
    alphas = np.geomspace(1e-4, 0.5, 7)
    return np.repeat(successes, 7), np.repeat(n, 7), np.tile(alphas, len(n))


def _assert_cp_is_the_bisection(successes, n, alpha):
    for side in ("lower", "upper"):
        got = clopper_pearson(successes, n, alpha, side)
        lower = side == "lower"
        free = successes != 0 if lower else successes != n
        assert np.all(got[~free] == (0.0 if lower else 1.0))
        want = _bisection(np.where(lower, alpha, 1.0 - alpha)[free],
                          np.where(lower, successes, successes + 1)[free],
                          np.where(lower, n - successes + 1, n - successes)[free])
        assert np.array_equal(got[free].view(np.int64), want.view(np.int64))


def _count_bisected(monkeypatch) -> list[int]:
    bisected = []
    bisect = estimator._bisect
    monkeypatch.setattr(estimator, "_bisect",
                        lambda q, a, b: bisected.append(len(q)) or bisect(q, a, b))
    return bisected


def test_clopper_pearson_equals_the_full_bisection_bit_for_bit(monkeypatch):
    bisected = _count_bisected(monkeypatch)
    _assert_cp_is_the_bisection(*_cp_sweep())
    assert 0 < sum(bisected) < 100      # of 118,902 values, a few fall back


@pytest.mark.parametrize("cells", [-3, -1, 1, 2, 5])
def test_clopper_pearson_bisects_where_the_estimate_misses_its_cell(monkeypatch, cells):
    betaincinv = special.betaincinv
    monkeypatch.setattr(special, "betaincinv", lambda a, b, q: np.clip(
        betaincinv(a, b, q) + cells * estimator.CP_CELL, 0.0, 1.0))
    bisected = _count_bisected(monkeypatch)
    successes, n, alpha = (x[::29] for x in _cp_sweep())
    _assert_cp_is_the_bisection(successes, n, alpha)
    assert sum(bisected) > 0.9 * 2 * len(n)      # nearly every estimate is a wrong cell


def test_estimate_all_bounds_equal_scalar_clopper_pearson_calls(rng):
    # each node's votes skew its own way, so the counts span the whole range
    nodes = list(range(30))
    votes = {v: dict(enumerate(rng.choice(3, size=400, p=rng.dirichlet([0.3] * 3)).tolist()))
             for v in nodes}
    for alpha in (0.001, 0.05):
        tallies = estimate_all(VoteTable(votes=votes), None, nodes, None,
                               n0=50, n1=350, alpha=alpha)
        for t in tallies.values():
            assert t.p_lower == clopper_pearson(int(t.counts[t.y_star]), 350, alpha / 2, "lower")
            assert t.p_upper == clopper_pearson(int(t.counts[t.y_tilde]), 350, alpha / 2, "upper")
            assert type(t.p_lower) is float and type(t.p_upper) is float
    assert estimate_all(VoteTable(votes=votes), None, [], None, n0=50, n1=350, alpha=0.01) == {}


def test_clopper_pearson_validation_names_the_first_bad_element():
    with pytest.raises(ValueError, match="invalid counts: 5 successes of 4"):
        clopper_pearson([1, 5, 6], [4, 4, 4], 0.01, "lower")
    with pytest.raises(ValueError, match=r"alpha_side must be in \(0, 1\), got 1.0"):
        clopper_pearson([1, 2], 4, [0.01, 1.0], "upper")
    with pytest.raises(ValueError, match="got 'up'"):
        clopper_pearson([1, 2], 4, 0.01, ["lower", "up"])


def test_clopper_pearson_coverage_quick(rng):
    # one-sided violation rate stays near the nominal level
    n, alpha_side, trials = 200, 0.02, 2000
    p = 0.6
    counts = rng.binomial(n, p, size=trials)
    lower = {c: clopper_pearson(int(c), n, alpha_side, "lower")
             for c in np.unique(counts)}
    viol = np.mean([lower[int(c)] > p for c in counts])
    se = math.sqrt(alpha_side * (1 - alpha_side) / trials)
    assert viol <= alpha_side + 3 * se


def constant_votes(node, n_samples, cls):
    return VoteTable(votes={node: {i: cls for i in range(n_samples)}})


def test_estimate_constant_classifier():
    table = constant_votes(0, 200, 3)
    tally = estimate(table, None, 0, None, n0=50, n1=150, alpha=0.01)
    assert tally.y_star == 3
    assert tally.counts[3] == 150
    assert tally.counts.sum() == 150
    assert tally.y_tilde != 3


def test_estimate_insufficient_votes():
    table = constant_votes(0, 10, 1)
    with pytest.raises(InsufficientSamplesError):
        estimate(table, None, 0, None, n0=8, n1=8, alpha=0.01)


def test_vote_table_nodes_lacking_a_sample_are_handed_back():
    complete = {i: i % 3 for i in range(10)}
    table = VoteTable(votes={0: complete, 3: {i: 1 for i in range(10) if i != 6},
                             5: dict(reversed(complete.items()))})
    missing = {}
    tallies = estimate_all(table, None, [5, 3, 0, 9], None, n0=4, n1=6, alpha=0.05,
                           missing=missing)
    assert list(tallies) == [0, 5] and list(missing) == [3, 9]
    assert str(missing[3]) == "vote table lacks sample 6 for node 3 (need 10 samples)"
    assert str(missing[9]) == "vote table lacks sample 0 for node 9 (need 10 samples)"
    for v in (0, 5):
        alone = estimate(table, None, v, None, n0=4, n1=6, alpha=0.05)
        assert np.array_equal(tallies[v].counts, alone.counts)
        assert (tallies[v].y_star, tallies[v].y_tilde) == (alone.y_star, alone.y_tilde)
    with pytest.raises(InsufficientSamplesError, match="sample 6 for node 3 "):
        estimate_all(table, None, [0, 3, 9], None, n0=4, n1=6, alpha=0.05)


def test_a_negative_sample_index_is_no_vote_for_sample_0():
    # node 3 holds two samples ending at sample 1, but not sample 0
    table = VoteTable(votes={3: {-1: 1, 1: 0}, 5: {0: 1, 1: 1}})
    missing = {}
    assert list(estimate_all(table, None, [3, 5], None, n0=1, n1=1, alpha=0.05,
                             missing=missing)) == [5]
    assert str(missing[3]) == "vote table lacks sample 0 for node 3 (need 2 samples)"


def group_votes_ref(table):
    """``{node: {sample: class}}`` the way the loader once grouped rows: a dict walk."""
    votes = {}
    for node, sample_index, cls in table.tolist():
        votes.setdefault(node, {})[sample_index] = cls
    return votes


def tallies_ref(votes, nodes, n0, n1):
    """Tallies and lacking-sample messages by a per-node, per-sample dict lookup."""
    classes = max(1 + max((max(d.values()) for d in votes.values() if d), default=-1), 2)
    tallies, missing = {}, []
    for v in sorted(set(nodes)):
        per_node = votes.get(v, {})
        lacking = next((i for i in range(n0 + n1) if i not in per_node), None)
        if lacking is not None:
            missing.append((v, f"vote table lacks sample {lacking} for node {v} "
                               f"(need {n0 + n1} samples)"))
            continue
        column = np.array([per_node[i] for i in range(n0 + n1)])
        sel = np.bincount(column[:n0], minlength=classes)
        star = int(np.argmax(sel))
        sel[star] = -1
        tallies[v] = (np.bincount(column[n0:], minlength=classes), star, int(np.argmax(sel)))
    return tallies, missing


def random_vote_file(rng, samples):
    """Shuffled rows of up to 8 nodes: complete, with gaps, short, or absent."""
    rows = []
    for v in rng.permutation(10)[:int(rng.integers(0, 8))].tolist():
        kind = int(rng.integers(4))
        have = np.arange(samples + int(rng.integers(0, 4)))
        if kind == 1:           # gaps
            have = np.sort(rng.choice(have, size=int(rng.integers(1, have.size + 1)),
                                      replace=False))
        elif kind == 2:         # too few
            have = have[:int(rng.integers(0, samples))]
        elif kind == 3:         # far indices only
            have = have + samples
        classes = rng.integers(0, int(rng.integers(1, 5)), have.size)
        rows += [(v, i, c) for i, c in zip(have.tolist(), classes.tolist())]
    return [rows[k] for k in rng.permutation(len(rows))]


def test_vote_table_tallies_as_the_dict_walk(tmp_path, rng):
    path = tmp_path / "votes.csv"
    for trial in range(150):
        n0, n1 = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        rows = random_vote_file(rng, n0 + n1)
        lines = [",".join(map(str, row)) for row in rows]
        header = trial % 2 == 0
        duplicate = bool(rows) and trial % 5 == 0
        if duplicate:           # a repeated pair, placed after its first row
            at = int(rng.integers(len(lines)))
            node, sample_index = rows[at][:2]
            lines.insert(int(rng.integers(at + 1, len(lines) + 1)),
                         f"{node},{sample_index},{int(rng.integers(3))}")
        path.write_text("\n".join(["node_id,sample_index,class"] * header + lines) + "\n")
        if duplicate:
            seen, first_repeat = set(), None
            for lineno, line in enumerate(lines, start=1 + header):
                pair = tuple(line.split(",")[:2])
                if pair in seen:
                    first_repeat = (lineno, pair)
                    break
                seen.add(pair)
            lineno, (node, sample_index) = first_repeat
            with pytest.raises(VoteFormatError) as err:
                load_votes(path)
            assert str(err.value) == (f"{path}: line {lineno}: duplicate vote for "
                                      f"node {node}, sample {sample_index}")
            continue

        table = load_votes(path)
        ref = group_votes_ref(np.array(rows, dtype=np.int64).reshape(-1, 3))
        assert table.votes == ref and list(table.votes) == sorted(ref)
        nodes = rng.permutation(12)[:int(rng.integers(1, 12))].tolist()
        want, want_missing = tallies_ref(ref, nodes, n0, n1)
        missing = {}
        got = estimate_all(table, None, nodes, None, n0=n0, n1=n1, alpha=0.05,
                           missing=missing)
        assert [(v, str(e)) for v, e in missing.items()] == want_missing
        assert list(got) == sorted(want)
        for v, (counts, star, tilde) in want.items():
            assert np.array_equal(got[v].counts, counts)
            assert (got[v].y_star, got[v].y_tilde) == (star, tilde)
        if want_missing:
            with pytest.raises(InsufficientSamplesError) as err:
                estimate_all(table, None, nodes, None, n0=n0, n1=n1, alpha=0.05)
            assert str(err.value) == want_missing[0][1]


def test_estimate_selection_and_tally_disjoint():
    # selection round says class 1, certification round says class 0:
    # y_star must come from the first n0 indices only
    votes = {i: 1 for i in range(10)}
    votes.update({i: 0 for i in range(10, 30)})
    table = VoteTable(votes={0: votes})
    tally = estimate(table, None, 0, None, n0=10, n1=20, alpha=0.01)
    assert tally.y_star == 1
    assert tally.counts[0] == 20
    assert tally.counts[1] == 0


def test_estimate_live_model_reproducible_and_matches_per_node(rng):
    g = random_graph(rng, n=8, p_edge=0.4, d=3)
    model = random_model(rng, d=3, classes=3)
    cfg = SmoothingConfig(p_del=0.3, p_abl=0.4, seed=21)
    batched = estimate_all(model, g, [1, 4, 6], cfg, n0=20, n1=40, alpha=0.05)
    for v in (1, 4, 6):
        single = estimate(model, g, v, cfg, n0=20, n1=40, alpha=0.05)
        assert np.array_equal(single.counts, batched[v].counts)
        assert single.y_star == batched[v].y_star
    # any order, repeats allowed: the scorer's neighbourhood needs ascending,
    # distinct targets, which estimate_all makes
    again = estimate_all(model, g, [6, 1, 4, 1], cfg, n0=20, n1=40, alpha=0.05)
    assert sorted(again) == [1, 4, 6]
    for v in (1, 4, 6):
        assert np.array_equal(again[v].counts, batched[v].counts)
    assert estimate_all(model, g, [], cfg, n0=20, n1=40, alpha=0.05) == {}
    for n0, n1 in ((0, 40), (20, 0)):
        with pytest.raises(ValueError, match="n0 and n1 must be >= 1"):
            estimate_all(model, g, [1], cfg, n0=n0, n1=n1, alpha=0.05)


def streamed_votes(model, g, cfg, n_samples, nodes):
    """``LocalScorer.sample_votes`` joined into one (n_samples, len(nodes)) matrix.

    Checks that the chunks come in order, each starting where the last one
    ended, and cover every sample.
    """
    from gnncert import LocalScorer

    chunks, lo = [], 0
    for start, classes in LocalScorer(model, g).sample_votes(nodes, cfg, n_samples):
        assert start == lo and classes.shape[1:] == (len(nodes),)
        chunks.append(classes)
        lo += len(classes)
    assert lo == n_samples
    return np.concatenate(chunks)


def smoothed_view(g, s, token):
    """Sample ``s`` made a graph: its kept edges only, ``token`` on its ablated rows."""
    features = g.features.copy()
    features[s.ablated] = token
    return g.with_edges(s.edge_mask, features=features)


def test_estimate_matches_reference_forward_with_skip(rng):
    from gnncert import sample

    g = random_graph(rng, n=7, p_edge=0.4, d=3)
    model = random_model(rng, d=3, skip=True)
    cfg = SmoothingConfig(p_del=0.4, p_abl=0.5, seed=33)
    nodes = np.arange(g.n)
    fast = streamed_votes(model, g, cfg, 25, nodes)
    for i in range(25):
        view = smoothed_view(g, sample(g, cfg, i), model.token)
        ref = np.argmax(dense_forward_all(model, view, clean_features=g.features),
                        axis=1)
        assert np.array_equal(fast[i], ref)


def per_sample_votes(model, g, cfg, n_samples, nodes):
    """The one-full-graph-forward-per-sample loop the batched votes replace."""
    from gnncert import sample
    from gnncert.gcn import normalized_adjacency

    out = np.empty((n_samples, len(nodes)), dtype=np.int64)
    xw1 = g.features @ model.w1
    token_w1 = model.token @ model.w1
    skip_h = np.maximum(xw1, 0.0) if model.skip else None
    for i in range(n_samples):
        s = sample(g, cfg, i)
        x = xw1.copy()
        x[s.ablated] = token_w1
        a_hat = normalized_adjacency(g.n, g.edges[s.edge_mask])
        h2 = a_hat[nodes] @ np.maximum(a_hat @ x, 0.0)
        if skip_h is not None:
            h2 = h2 + skip_h[nodes]
        out[i] = np.argmax(h2 @ model.w2, axis=1)
    return out


@pytest.mark.parametrize("step", [None, 3])
def test_batched_votes_equal_per_sample_loop(rng, monkeypatch, step):
    from gnncert import LocalScorer

    if step is not None:
        # passes of three samples: 9 samples fill three, 10 split 3 + 3 + 3 + 1
        monkeypatch.setattr(LocalScorer, "chunk", lambda self, hood: step)
    for trial in range(6):
        g = random_graph(rng, n=int(rng.integers(5, 16)), p_edge=0.3,
                         directed=bool(trial % 2), d=3)
        model = random_model(rng, d=3, skip=bool(trial % 3 == 0))
        cfg = SmoothingConfig(p_del=0.4, p_abl=0.5,
                              seed=int(rng.integers(1 << 30)))
        for nodes in ([int(rng.integers(g.n))], list(range(g.n))):
            nodes = np.asarray(nodes)
            for n_samples in (1, 9, 10):
                assert np.array_equal(streamed_votes(model, g, cfg, n_samples, nodes),
                                      per_sample_votes(model, g, cfg, n_samples, nodes))


def test_chunked_tally_equals_bincount_of_every_vote(rng, monkeypatch):
    from gnncert import LocalScorer

    # passes of three samples: the third pass holds samples 6-8 and straddles n0 = 7
    monkeypatch.setattr(LocalScorer, "chunk", lambda self, hood: 3)
    g = random_graph(rng, n=9, p_edge=0.4, d=3)
    model = random_model(rng, d=3, classes=3)
    cfg = SmoothingConfig(p_del=0.3, p_abl=0.4, seed=4)
    nodes = [0, 2, 5, 8]
    votes = streamed_votes(model, g, cfg, 7 + 11, np.asarray(nodes))
    tallies = estimate_all(model, g, nodes, cfg, n0=7, n1=11, alpha=0.05)
    for j, v in enumerate(nodes):
        sel = np.bincount(votes[:7, j], minlength=3)
        assert tallies[v].y_star == int(np.argmax(sel))
        sel[tallies[v].y_star] = -1
        assert tallies[v].y_tilde == int(np.argmax(sel))
        assert np.array_equal(tallies[v].counts, np.bincount(votes[7:, j], minlength=3))


def test_fair_coin_classifier_abstains(rng):
    votes = {i: int(rng.random() < 0.5) for i in range(1200)}
    table = VoteTable(votes={0: votes})
    tally = estimate(table, None, 0, None, n0=200, n1=1000, alpha=0.01)
    res = certify(tally, {1: curve([0.0] * 5)})
    assert res.abstain
    assert res.certified_radius[1] == 0


def curve(values):
    return [DeltaBound(v, "multiplicative", rho) for rho, v in enumerate(values, 1)]


def make_tally(p_hits, n1=1000, alpha=0.01, classes=3):
    counts = np.zeros(classes, dtype=int)
    counts[0] = p_hits
    counts[1] = n1 - p_hits
    return VoteTally(node=0, counts=counts, y_star=0, y_tilde=1,
                     p_lower=clopper_pearson(p_hits, n1, alpha / 2, "lower"),
                     p_upper=clopper_pearson(n1 - p_hits, n1, alpha / 2, "upper"))


def test_radius_margin_rule():
    # binary fractions, so every difference below is exact
    assert radius(0.75, 0.125, [0.125, 0.25]) == 2             # 0.5 > 0.375
    # a tie is not a margin: 0.75 - 0.3125 == 0.125 + 0.3125
    assert radius(0.75, 0.125, [0.125, 0.25, 0.3125]) == 2
    assert radius(0.75, 0.125, [0.25, 0.25, 0.25]) == 3


def test_radius_stops_at_the_first_failing_budget():
    read = []

    def deltas():
        for d in (0.125, 0.5, 0.0):
            read.append(d)
            yield d
        raise AssertionError("read past the first failing budget")

    # budget 3 would pass again, but budget 2 fails first
    assert radius(0.75, 0.125, deltas()) == 1
    assert read == [0.125, 0.5]


def test_radius_of_an_empty_curve_is_zero():
    assert radius(0.9, 0.1, []) == 0


def test_certify_arithmetic_example():
    # bounds wide apart; arrival bound 0.3 at budget 2 still certifies
    tally = make_tally(980, n1=1000)
    res = certify(tally, {1: curve([0.1, 0.3, 0.6])})
    assert not res.abstain
    assert res.p_lower > 0.9 and res.p_upper < 0.05
    assert res.certified_radius == {1: 2}


def test_certify_never_certifies_half_delta():
    tally = make_tally(1000, n1=1000)     # p_lower as high as it gets
    res = certify(tally, {1: curve([0.5] * 4)})
    assert res.certified_radius[1] == 0


def test_certify_monotone_radii(rng):
    for _ in range(20):
        hits = int(rng.integers(500, 1001))
        tally = make_tally(hits)
        curve_vals = np.sort(rng.uniform(0, 1, size=6)).tolist()
        radius = certify(tally, {1: curve(curve_vals)}).certified_radius[1]
        certified = [rho for rho in range(1, 7)
                     if _certifies(tally, curve(curve_vals), rho)]
        assert radius == (max(certified) if certified else 0)
        # every budget below a certified one is certified
        for rho in certified:
            assert all(r in certified for r in range(1, rho))


def _certifies(tally, curve, rho):
    delta = curve[rho - 1].value
    return tally.p_lower - delta > tally.p_upper + delta


def test_bound_sandwich_contains_empirical_frequency(rng):
    for _ in range(40):
        n1 = int(rng.integers(5, 400))
        hits = int(rng.integers(0, n1 + 1))
        p_hat = hits / n1
        lo = clopper_pearson(hits, n1, 0.01 / 2, "lower")
        hi = clopper_pearson(hits, n1, 0.01 / 2, "upper")
        assert lo <= p_hat <= hi


def result(node, radius, abstain=False, correct=True, d_min=1):
    return CertificateResult(node=node, prediction=0, abstain=abstain,
                             p_lower=0.9, p_upper=0.05,
                             certified_radius={d_min: radius}, correct=correct)


def test_report_all_certified_to_three():
    results = [result(v, 3) for v in range(4)]
    rep = report(results, {v: {1: 5} for v in range(4)})
    assert rep["per_d_min"][1]["certified_ratio"] == [1.0, 1.0, 1.0, 1.0]
    assert rep["abstain_rate"] == 0.0


def test_report_all_abstained():
    results = [result(v, 0, abstain=True, correct=False) for v in range(3)]
    rep = report(results, {v: {1: 4} for v in range(3)})
    assert rep["abstain_rate"] == 1.0
    assert rep["per_d_min"][1]["certified_ratio"] == [1.0]   # radius >= 0 trivially
    assert rep["per_d_min"][1]["aucrc"] == pytest.approx(1.0)
    assert rep["clean_accuracy"] == 0.0


def test_report_mixed_radii_step_sum():
    results = [result(0, 0), result(1, 1), result(2, 2)]
    rep = report(results, {v: {1: 4} for v in range(3)})
    entry = rep["per_d_min"][1]
    assert entry["certified_ratio"] == pytest.approx([1.0, 2 / 3, 1 / 3])
    assert entry["aucrc"] == pytest.approx(2.0)


def test_report_normalized_curve_and_empty_surface():
    results = [result(0, 2), result(1, 0, abstain=True, correct=False),
               result(2, 0)]
    rep = report(results, {0: {1: 4}, 1: {1: 0}, 2: {1: 0}})
    entry = rep["per_d_min"][1]
    # node 0 -> 0.5, node 1 abstained with empty surface -> 0, node 2 -> 1
    assert 0.5 in entry["normalized_curve"]["x"]
    assert entry["aucrc_normalized"] <= 1.0
