import math

import numpy as np
import pytest
from scipy import stats

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
    report,
)
from gnncert.errors import InsufficientSamplesError
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
    again = estimate_all(model, g, [1, 4, 6], cfg, n0=20, n1=40, alpha=0.05)
    for v in (1, 4, 6):
        assert np.array_equal(again[v].counts, batched[v].counts)


def streamed_votes(model, g, cfg, n_samples, nodes):
    """``_vote_chunks`` joined into one (n_samples, len(nodes)) matrix.

    Checks that the chunks come in order, each starting where the last one
    ended, and cover every sample.
    """
    from gnncert.estimator import _vote_chunks

    chunks, lo = [], 0
    for start, classes in _vote_chunks(model, g, cfg, n_samples, nodes):
        assert start == lo and classes.shape[1:] == (len(nodes),)
        chunks.append(classes)
        lo += len(classes)
    assert lo == n_samples
    return np.concatenate(chunks)


def test_estimate_matches_reference_forward_with_skip(rng):
    from gnncert import apply, sample

    g = random_graph(rng, n=7, p_edge=0.4, d=3)
    model = random_model(rng, d=3, skip=True)
    cfg = SmoothingConfig(p_del=0.4, p_abl=0.5, seed=33)
    nodes = np.arange(g.n)
    fast = streamed_votes(model, g, cfg, 25, nodes)
    for i in range(25):
        view = apply(g, sample(g, cfg, i), model.token)
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
        # passes of three samples: 10 samples split 3 + 3 + 3 + 1
        monkeypatch.setattr(LocalScorer, "chunk", lambda self, hood: step)
    for trial in range(6):
        g = random_graph(rng, n=int(rng.integers(5, 16)), p_edge=0.3,
                         directed=bool(trial % 2), d=3)
        model = random_model(rng, d=3, skip=bool(trial % 3 == 0))
        cfg = SmoothingConfig(p_del=0.4, p_abl=0.5,
                              seed=int(rng.integers(1 << 30)))
        for nodes in ([int(rng.integers(g.n))], list(range(g.n))):
            nodes = np.asarray(nodes)
            for n_samples in (1, 10):
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


def make_tally(p_hits, n1=1000, n0=100, alpha=0.01, classes=3):
    counts = np.zeros(classes, dtype=int)
    counts[0] = p_hits
    counts[1] = n1 - p_hits
    return VoteTally(node=0, counts=counts, y_star=0, y_tilde=1,
                     n0=n0, n1=n1, alpha=alpha)


def test_radius_margin_rule():
    # binary fractions, so every difference below is exact
    assert radius(0.75, 0.125, [0.125, 0.25]) == 2             # 0.5 > 0.375
    # a tie is not a margin: 0.75 - 0.3125 == 0.125 + 0.3125
    assert radius(0.75, 0.125, [0.125, 0.25, 0.3125]) == 2
    assert radius(0.75, 0.125, [0.25, 0.25, 0.25]) == 3


def test_radius_binary_rule_ignores_upper_bound():
    assert radius(0.75, 0.6, [0.125, 0.25], binary=True) == 1   # 0.5 > 0.5 fails
    assert radius(0.75, 0.6, [0.125, 0.25]) == 0                # 0.625 > 0.725 fails
    assert radius(0.75, 0.0, [0.125, 0.125, 0.125], binary=True) == 3


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
    assert radius(0.9, 0.1, iter(()), binary=True) == 0


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
    from gnncert.estimator import confidence_bounds
    p_lower, p_upper = confidence_bounds(tally)
    delta = curve[rho - 1].value
    return p_lower - delta > p_upper + delta


def test_bound_sandwich_contains_empirical_frequency(rng):
    for _ in range(40):
        n1 = int(rng.integers(5, 400))
        hits = int(rng.integers(0, n1 + 1))
        tally = make_tally(hits, n1=n1)
        p_hat = hits / n1
        lo = clopper_pearson(hits, n1, tally.alpha / 2, "lower")
        hi = clopper_pearson(hits, n1, tally.alpha / 2, "upper")
        assert lo <= p_hat <= hi


def test_binary_mode():
    tally = make_tally(900, n1=1000, classes=2)
    res = certify(tally, {1: curve([0.2, 0.36, 0.5])}, binary=True)
    # 0.88ish - 0.36 > 0.5 holds, 0.5 never certifies
    assert res.certified_radius[1] == 2


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
