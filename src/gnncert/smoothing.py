"""Randomized message interception: edge deletion and node-feature ablation.

Each sample deletes every edge independently with probability ``p_del`` and
ablates every node's features with probability ``p_abl``.  Draws are keyed
by ``(seed, sample_index)`` and consumed positionally per edge and node, so
sample ``i`` is bitwise reproducible whatever other samples are drawn, and
in whatever order.  What an ablated node reads instead of its features is
the classifier's business (``GnnModel.token``), not the distribution's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph


@dataclass(frozen=True)
class SmoothingConfig:
    """The interception distribution: deletion and ablation rates and a seed."""

    p_del: float
    p_abl: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_del <= 1.0:
            raise ValueError(f"p_del must be in [0, 1], got {self.p_del}")
        if not 0.0 <= self.p_abl <= 1.0:
            raise ValueError(f"p_abl must be in [0, 1], got {self.p_abl}")


@dataclass(frozen=True)
class SmoothedSample:
    """One draw from the smoothing distribution, as masks over a graph."""

    edge_mask: np.ndarray   # (m,) bool over graph.edges
    ablated: np.ndarray     # (n,) bool
    sample_index: int

    def kept_edges(self, g: Graph) -> np.ndarray:
        return g.edges[self.edge_mask]


def sample(g: Graph, cfg: SmoothingConfig, sample_index: int) -> SmoothedSample:
    """Draw sample ``sample_index`` of the interception distribution.

    Undirected graphs flip one coin per logical edge, so both orientations
    are deleted or kept together; per-orientation deletion would not match a
    symmetric adjacency.
    """
    rng = np.random.default_rng((int(cfg.seed), int(sample_index)))
    u_edges = rng.random(g.n_logical)
    u_nodes = rng.random(g.n)
    kept_logical = u_edges >= cfg.p_del
    edge_mask = kept_logical[g.logical_edge_ids] if g.m else np.zeros(0, dtype=bool)
    ablated = u_nodes < cfg.p_abl
    return SmoothedSample(edge_mask=edge_mask, ablated=ablated,
                          sample_index=int(sample_index))


def apply(g: Graph, s: SmoothedSample, token: np.ndarray) -> Graph:
    """Materialize a sample: kept edges only, ``token`` on ablated rows.

    The forward passes never build this graph; it is the plain reference
    they are checked against.
    """
    if len(token) != g.dim:
        raise ValueError(
            f"token has length {len(token)} but features have {g.dim} columns"
        )
    if s.ablated.any():
        features = g.features.copy()
        features[s.ablated] = token
    else:
        features = g.features
    return g.with_edges(s.edge_mask, features=features)
