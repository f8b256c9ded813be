#!/usr/bin/env python3
"""Deterministic label probabilities under keep-k node-deletion smoothing.

Monte-Carlo certificates hold with confidence 1 - alpha.  Switching the
smoothing to "keep a uniform set of exactly k field nodes, delete the rest"
makes the label probabilities computable exactly: retention sets whose
surviving connected-to-target core coincides give identical predictions, so
one classifier call per equivalence class suffices.  No sampling, no
confidence level, no abstention.
"""

import math
from fractions import Fraction

import numpy as np

from gnncert import (
    Graph,
    enumerate_representatives,
    exact_label_probs,
    per_view,
    receptive_field,
    retention_count,
)
from gnncert.estimator import radius

rng = np.random.default_rng(77)

# a sparse field: chain with a few twigs hanging off it
#   0 - 1 - 2 - 3 - 4
#       |       |
#       5       6 - 7
edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 6), (6, 7)]
g = Graph.build(n=8, edges=edges, features=rng.normal(size=(8, 3)),
                directed=False)
rf = receptive_field(g, v=0, k=4)
d = rf.size - 1
print(f"target 0, field of {rf.size} nodes (d = {d} deletable)")

k = retention_count(d, 0.4)
print(f"relative retention 0.4 -> keep k = {k} of {d} nodes; "
      f"support C({d}, {k}) = {math.comb(d, k)} retention sets")
print()

reps = enumerate_representatives(rf, k, tau=100_000)
print(f"{len(reps)} equivalence classes instead of {math.comb(d, k)} "
      f"evaluations ({len(reps) / math.comb(d, k):.0%} of the support):")
for rep in reps:
    print(f"  core {str(sorted(rep.nodes)):<18} multiplicity {rep.beta}")
assert sum(r.beta for r in reps) == math.comb(d, k)
print("multiplicities partition the support exactly.")
print()

# a tiny classifier: whatever the weights are, disconnected nodes cannot
# change the target's prediction, which is what the grouping exploits
w1 = rng.normal(size=(3, 8))
w2 = rng.normal(size=(8, 2))


def predict(view, v):
    h = np.maximum(view.features @ w1, 0.0)
    adj = np.zeros((view.n, view.n))
    if view.m:
        adj[view.edges[:, 1], view.edges[:, 0]] = 1.0
    np.fill_diagonal(adj, 1.0)
    adj /= adj.sum(axis=1, keepdims=True)
    return int(np.argmax((adj @ (adj @ view.features) @ w1 @ w2)[v]))


print("retention count trades prediction sharpness against interception:")
for kk in (1, 2, 3):
    rr = enumerate_representatives(rf, kk, tau=100_000)
    probs = exact_label_probs(rf, rr, kk, per_view(g, predict), classes=2)
    assert sum(probs) == Fraction(1)
    y_star = max(range(2), key=lambda c: (probs[c], -c))
    y_tilde = 1 - y_star
    # the exact keep-k arrival bound 1 - C(d - rho, k) / C(d, k), as the CLI scans it
    certified = radius(probs[y_star], probs[y_tilde],
                       (1 - Fraction(math.comb(d - rho, kk), math.comb(d, kk))
                        for rho in range(1, d - kk + 1)))
    print(f"  keep {kk}: probabilities {[str(p) for p in probs]}, "
          f"prediction {y_star}, certified radius {certified} "
          f"({len(rr)}/{math.comb(d, kk)} classes evaluated)")
print()
print("keeping fewer nodes deletes attackers more often (smaller arrival")
print("bound 1 - C(d-rho, k)/C(d, k)) but feeds the classifier less of the")
print("graph; these certificates are exact, so there is no confidence level")
print("and no abstention anywhere above.")
print()
print("denser fields collapse less: on a clique every retention set is its")
print("own class and plain enumeration would be cheaper; sparsity is what")
print("the equivalence classes monetize.")
