from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest

from gnncert import Graph, SmoothingConfig, sample

from conftest import random_graph


def cfg_for(p_del, p_abl, seed=7):
    return SmoothingConfig(p_del=p_del, p_abl=p_abl, seed=seed)


def test_identity_when_probabilities_zero(rng):
    g = random_graph(rng, n=8, p_edge=0.4)
    cfg = cfg_for(0.0, 0.0)
    for i in (0, 3, 11):
        s = sample(g, cfg, i)
        assert s.edge_mask.all()
        assert not s.ablated.any()


def test_p_del_one_deletes_everything(rng):
    g = random_graph(rng, n=8, p_edge=0.5)
    s = sample(g, cfg_for(1.0, 0.0), 0)
    assert not s.edge_mask.any()


def test_p_abl_one_ablates_everything(rng):
    g = random_graph(rng, n=6, p_edge=0.4)
    cfg = cfg_for(0.0, 1.0)
    s = sample(g, cfg, 0)
    assert s.ablated.all()


def test_mean_kept_fraction_matches_p_del(rng):
    # 100 logical edges, 10,000 samples: kept fraction within 0.02 of 0.7
    edges = [(i, i + 1) for i in range(100)]
    g = Graph.build(n=101, edges=edges, directed=True)
    assert g.n_logical == 100
    cfg = cfg_for(0.3, 0.0)
    kept = np.mean([sample(g, cfg, i).edge_mask.mean() for i in range(10_000)])
    assert abs(kept - 0.7) <= 0.02


def test_marginal_deletion_rate_per_edge(rng):
    edges = [(0, 1), (1, 2), (2, 3)]
    g = Graph.build(n=4, edges=edges, directed=True)
    cfg = cfg_for(0.4, 0.0)
    n = 20_000
    kept = np.stack([sample(g, cfg, i).edge_mask for i in range(n)])
    rate = 1.0 - kept.mean(axis=0)
    se = np.sqrt(0.4 * 0.6 / n)
    assert np.all(np.abs(rate - 0.4) <= 4 * se)


def test_independence_between_elements(rng):
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    g = Graph.build(n=5, edges=edges, directed=True)
    cfg = cfg_for(0.5, 0.5)
    n = 20_000
    masks = np.stack([sample(g, cfg, i).edge_mask for i in range(n)]).astype(float)
    abls = np.stack([sample(g, cfg, i).ablated for i in range(n)]).astype(float)
    se = 0.25 / np.sqrt(n)   # bound on sd of covariance of two bernoulli(1/2)
    for a, b in [(0, 1), (1, 3), (0, 3)]:
        cov_e = np.mean(masks[:, a] * masks[:, b]) - masks[:, a].mean() * masks[:, b].mean()
        cov_n = np.mean(abls[:, a] * abls[:, b]) - abls[:, a].mean() * abls[:, b].mean()
        assert abs(cov_e) <= 3 * se
        assert abs(cov_n) <= 3 * se


def test_undirected_orientations_share_one_coin(rng):
    g = Graph.build(n=3, edges=[(0, 1), (1, 2)], directed=False)
    cfg = cfg_for(0.5, 0.0)
    for i in range(200):
        s = sample(g, cfg, i)
        kept = {(int(a), int(b)) for a, b in g.edges[s.edge_mask]}
        assert ((0, 1) in kept) == ((1, 0) in kept)
        assert ((1, 2) in kept) == ((2, 1) in kept)


def test_bitwise_reproducible_across_runs_and_threads(rng):
    g = random_graph(rng, n=12, p_edge=0.4)
    cfg = cfg_for(0.37, 0.21, seed=123)
    serial = [sample(g, cfg, i) for i in range(64)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda i: sample(g, cfg, i), range(64)))
    again = [sample(g, cfg, i) for i in reversed(range(64))][::-1]
    for a, b, c in zip(serial, threaded, again):
        assert np.array_equal(a.edge_mask, b.edge_mask)
        assert np.array_equal(a.ablated, b.ablated)
        assert np.array_equal(a.edge_mask, c.edge_mask)
        assert np.array_equal(a.ablated, c.ablated)


def test_config_validation():
    with pytest.raises(ValueError):
        SmoothingConfig(p_del=-0.1, p_abl=0.0)
    with pytest.raises(ValueError):
        SmoothingConfig(p_del=0.0, p_abl=1.5)


def test_config_is_the_distribution_and_compares_by_value():
    cfg = SmoothingConfig(p_del=0.3, p_abl=0.6, seed=4)
    assert [f.name for f in fields(SmoothingConfig)] == ["p_del", "p_abl", "seed"]
    assert cfg == SmoothingConfig(p_del=0.3, p_abl=0.6, seed=4)
    assert cfg != SmoothingConfig(p_del=0.3, p_abl=0.6, seed=5)
    assert hash(cfg) == hash(SmoothingConfig(p_del=0.3, p_abl=0.6, seed=4))
    assert len({cfg, SmoothingConfig(0.3, 0.6, 4), SmoothingConfig(0.3, 0.6)}) == 2

