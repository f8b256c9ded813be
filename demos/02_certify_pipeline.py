#!/usr/bin/env python3
"""End-to-end certification on a synthetic two-community graph.

Pipeline: build a separable fixture, train the smoothed classifier under
training-time interception, estimate the majority vote with Monte-Carlo
samples, bound the adversary's message-arrival probability per node, and
issue certified radii with simultaneous confidence 1 - alpha.
"""

import numpy as np

from gnncert import (
    Graph,
    SmoothingConfig,
    TrainConfig,
    certify,
    estimate_all,
    receptive_field,
    report,
    train,
    worst_case_curve,
)

rng = np.random.default_rng(4242)

# --- fixture: two blocks of 60 nodes, block-correlated binary features -----
n, half, d = 120, 60, 24
labels = np.array([0] * half + [1] * half)
edges = []
for i in range(n):
    for j in range(i + 1, n):
        p = 0.06 if labels[i] == labels[j] else 0.006
        if rng.random() < p:
            edges.append((i, j))
features = np.zeros((n, d))
for i in range(n):
    probs = np.full(d, 0.05)
    probs[labels[i] * (d // 2): (labels[i] + 1) * (d // 2)] = 0.35
    features[i] = (rng.random(d) < probs).astype(float)
g = Graph.build(n=n, edges=edges, features=features, labels=labels)
print(f"fixture: {n} nodes, {g.m // 2} undirected edges, {d} features")

# --- train under training-time interception --------------------------------
labeled = sorted(
    int(v) for c in (0, 1)
    for v in rng.permutation(np.flatnonzero(labels == c))[:30]
)
test_nodes = sorted(set(range(n)) - set(labeled))
# intercepting a little less during training than at inference trains a
# model that still classifies well under the certification distribution
model = train(g, labeled, TrainConfig(epochs=300, patience=50, dropout=0.5,
                                      hidden=32, p_del=0.3, p_abl=0.5, seed=1))
print(f"trained on {len(labeled)} labeled nodes; certifying {len(test_nodes)}")

# --- smoothed estimation ----------------------------------------------------
cfg = SmoothingConfig(p_del=0.4, p_abl=0.7, token=model.token, seed=9)
tallies = estimate_all(model, g, test_nodes, cfg, n0=500, n1=1500, alpha=0.01)

# --- per-node certificates --------------------------------------------------
# each curve runs to the attack surface; certify scans every budget on it
results, surfaces = [], {}
for v in test_nodes:
    rf = receptive_field(g, v, k=2)
    surfaces[v] = {dm: rf.attack_surface(dm) for dm in (1, 2)}
    curves = {dm: worst_case_curve(rf, dm, cfg) for dm in (1, 2)}
    results.append(certify(tallies[v], curves, label=int(labels[v])))

summary = report(results, surfaces)
print()
print(f"clean accuracy {summary['clean_accuracy']:.3f}, "
      f"abstain rate {summary['abstain_rate']:.3f}")
for dm in (1, 2):
    entry = summary["per_d_min"][dm]
    print(f"\nadversary at distance >= {dm}:")
    print("  certified ratio by radius:",
          [round(x, 3) for x in entry["certified_ratio"]])
    print(f"  area under the curve {entry['aucrc']:.2f}, "
          f"normalized {entry['aucrc_normalized']:.3f}")
print()
print("farther adversaries certify farther: every message from a second-hop")
print("attacker has to survive two edge-deletion coins instead of one, so")
print("the distance >= 2 curve sits above the distance >= 1 curve.")
