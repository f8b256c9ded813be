"""Seeded workload generators.

Each workload writes plain input files (edge list, features, labels and, for
the external-classifier workload, a vote file) plus the JSON configs the
``gnncert`` CLI reads.  Everything is drawn from ``numpy.random.default_rng``
keyed by the workload seed, so one seed always gives byte-identical files.

Per-target cost is heavy-tailed in field size, so plain random targets
would let the seed, not the program, decide the run time.

``certify-gcn`` stratifies targets by the shape of their k=2 receptive
field: nodes are sorted by (has a cycle, member count), cut into as many
equal bins as there are targets, and the middle node of each bin is a
target.  Which node sits at each rank still depends on the seed, because
the seed wires the graph.

``certify-votes-exact`` spends most of its time enumerating attacker
subsets, and that cost jumps at the subset cap: a tree field with 61
members evaluates 1770 pairs of 61 members each, one with 66 members is
refused after 65 single nodes.  So targets come from fixed ladders of the
enumeration cost that ``_subset_cost`` predicts, one ladder each for
tree fields that complete, tree fields that are refused, and (by member
count) fields with a cycle.

Derandomization cost is the number of representatives, which jumps with
the retained count ``ceil(k_rel * d)``; a few large fields decide it.  So
``derandomize-keepk`` picks, for each level of a fixed ladder of
representative counts, the node whose count is nearest.  On the two-block
graph the counts fall in three clusters (1-7, 19-70, 250 and up), so the
ladder has geometric rungs from 2 to 60 and one rung at 300: a rung in a
gap would pick from either side depending on the seed.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Inputs:
    """Files one workload generated, and how to drive the CLI over them."""

    command: str                    # "certify" or "derandomize"
    output: str                     # CSV the measured command writes
    targets: list[int]
    n: int
    undirected_edges: int
    run_config: str = "run.json"
    train_config: str | None = None
    files: list[str] = field(default_factory=list)

    def digests(self, root: Path) -> dict[str, str]:
        return {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
                for name in sorted(self.files)}


def _write_edges(path: Path, edges) -> None:
    lines = [f"{a} {b}" for a, b in sorted(edges)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_features(path: Path, x: np.ndarray) -> None:
    rows = (",".join("1" if v else "0" for v in row) for row in x)
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _write_labels(path: Path, labels: np.ndarray) -> None:
    path.write_text("\n".join(str(int(c)) for c in labels) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def _adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _field_shape(adj: list[set[int]], v: int) -> tuple[bool, int]:
    """(has a cycle, member count) of the 2-hop receptive field of ``v``.

    The field is a tree exactly when every member has one path to ``v``:
    no edge joins two neighbours of ``v`` and no 2-hop node touches two.
    """
    first = adj[v]
    paths: dict[int, int] = {}
    for u in first:
        for w in adj[u]:
            if w != v:
                paths[w] = paths.get(w, 0) + 1
    cyclic = any(c > 1 or w in first for w, c in paths.items())
    return cyclic, len(first | paths.keys() | {v})


def _stratified_targets(adj: list[set[int]], count: int) -> list[int]:
    """The middle node of each of ``count`` equal bins of nodes sorted by field shape."""
    shape = [_field_shape(adj, v) for v in range(len(adj))]
    order = sorted(range(len(adj)), key=lambda v: (shape[v], v))
    return sorted(int(b[len(b) // 2]) for b in np.array_split(np.array(order), count))


def _ladder_targets(costs: list[int], levels, candidates=None) -> list[int]:
    """For each cost level, the unused candidate whose cost is nearest in ratio."""
    pool = range(len(costs)) if candidates is None else candidates
    picked: list[int] = []
    for level in levels:
        picked.append(min((v for v in pool if v not in picked),
                          key=lambda v: (abs(math.log(max(costs[v], 1) / level)), v)))
    return sorted(picked)


def _subset_cost(adj: list[set[int]], v: int) -> tuple[int, bool]:
    """(predicted cost, refused) of exact-enumeration bounds on the 2-hop field of ``v``.

    Mirrors the CLI's scan: for ``d_min`` 1 then 2 and budgets 1 to
    ``RHO_MAX_SCAN``, every size-``min(rho, c)`` subset of the ``c``
    candidates is evaluated by a pass over the field's members, and the
    node is refused at the first budget whose subset count exceeds
    ``SUBSET_CAP``.  The cost is subsets times members, summed.
    """
    first = adj[v]
    second = set().union(*(adj[u] for u in first)) - first - {v}
    members = 1 + len(first) + len(second)
    cost = 0
    for c in (len(first) + len(second), len(second)):
        for rho in range(1, RHO_MAX_SCAN + 1):
            if c == 0:
                break
            subsets = math.comb(c, min(rho, c))
            if subsets > SUBSET_CAP:
                return cost, True
            cost += subsets * members
    return cost, False


def _connected_sets(adj: list[set[int]], v: int, k_rel: float) -> int:
    """Connected node sets of size <= keep + 1 that contain ``v`` in its 2-hop field.

    ``keep = ceil(k_rel * (field size - 1))`` nodes are retained, so this is
    the number of representatives exact keep-k derandomization evaluates.
    """
    field = set().union(adj[v], *(adj[u] for u in adj[v])) | {v}
    limit = math.ceil(k_rel * (len(field) - 1) - 1e-9) + 1
    seen = {frozenset({v})}
    frontier = list(seen)
    while frontier:
        grown = []
        for s in frontier:
            if len(s) == limit:
                continue
            for u in set().union(*(adj[w] for w in s)) & field - s:
                t = s | {u}
                if t not in seen:
                    seen.add(t)
                    grown.append(t)
        frontier = grown
    return len(seen)


def _binary_features(rng, labels: np.ndarray, d: int, hi: float, lo: float) -> np.ndarray:
    """Each class owns a contiguous block of feature columns, set with rate ``hi``."""
    classes = int(labels.max()) + 1
    width = d // classes
    owner = np.minimum(np.arange(d) // width, classes - 1)
    probs = np.where(owner[None, :] == labels[:, None], hi, lo)
    return rng.random(probs.shape) < probs


# ---------------------------------------------------------------------------
# graph families


def _pareto_quantiles(n: int, shape: float) -> np.ndarray:
    """The n mid-rank quantiles of a Pareto(shape) law on [1, inf), descending.

    Degree propensities come from these fixed values rather than from fresh
    draws: a seeded draw decides the largest hub on its own, and the largest
    hub decides most of a run's cost.  The seed still decides who is a hub
    and how everything is wired.
    """
    return ((np.arange(n) + 0.5) / n) ** (-1.0 / shape)


CLASSES = 7
CORA_NODES, CORA_EDGES, HOMOPHILY = 2708, 5300, 0.8
TREE_NODES, CLOSURE = 3000, 0.05


def cora_like(rng):
    """Power-law degrees (Pareto node weights) with class homophily.

    Each edge picks a source by weight, then with probability ``HOMOPHILY``
    a destination of the same class by weight, else any node by weight.
    """
    n, m, classes = CORA_NODES, CORA_EDGES, CLASSES
    labels = rng.integers(0, classes, n)
    weight = rng.permutation(_pareto_quantiles(n, 2.0))
    all_p = weight / weight.sum()
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        src = rng.choice(n, size=m, p=all_p)
        dst = rng.choice(n, size=m, p=all_p)
        same = rng.random(m) < HOMOPHILY
        for c in range(classes):
            pick = same & (labels[src] == c)
            members = np.flatnonzero(labels == c)
            dst[pick] = rng.choice(members, size=int(pick.sum()),
                                   p=all_p[members] / all_p[members].sum())
        for a, b in zip(src.tolist(), dst.tolist()):
            if a != b:
                edges.add((min(a, b), max(a, b)))
            if len(edges) == m:
                break
    return labels, sorted(edges)


def scale_free_tree(rng, n=TREE_NODES):
    """Random tree with a fixed power-law degree sequence, plus triadic closures.

    Degrees are 1 plus Pareto(1.5) quantiles scaled to sum to 2(n - 1), so
    every seed has the same hubs in size.  A random Pruefer sequence in which
    node i appears degree(i) - 1 times decodes to a uniformly random tree
    with exactly those degrees.  Then ``CLOSURE * (n - 1)`` extra edges close
    a triangle a-b-c, so some receptive fields are not trees.  Labels follow
    the BFS parent from node 0 with probability 0.8.
    """
    extra = _pareto_quantiles(n, 1.5) - 1.0
    extra *= (n - 2) / extra.sum()
    degree = 1 + np.floor(extra).astype(np.int64)
    short = (n - 2) - int((degree - 1).sum())
    degree[np.argsort(-(extra - np.floor(extra)), kind="stable")[:short]] += 1
    degree = rng.permutation(degree)
    prufer = rng.permutation(np.repeat(np.arange(n), degree - 1)).tolist()

    remaining = degree.tolist()
    leaves = [v for v in range(n) if remaining[v] == 1]
    heapq.heapify(leaves)
    edges: set[tuple[int, int]] = set()
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.add((min(leaf, v), max(leaf, v)))
        remaining[v] -= 1
        if remaining[v] == 1:
            heapq.heappush(leaves, v)
    a, b = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.add((min(a, b), max(a, b)))

    adj = _adjacency(n, edges)
    labels = np.full(n, -1, dtype=np.int64)
    labels[0] = rng.integers(CLASSES)
    queue = [0]
    for u in queue:
        for w in sorted(adj[u]):
            if labels[w] < 0:
                labels[w] = (labels[u] if rng.random() < 0.8
                             else rng.integers(CLASSES))
                queue.append(w)

    added = 0
    while added < int(round(CLOSURE * (n - 1))):
        a = int(rng.integers(n))
        b = sorted(adj[a])[int(rng.integers(len(adj[a])))]
        c = sorted(adj[b])[int(rng.integers(len(adj[b])))]
        if c == a or c in adj[a]:
            continue
        edges.add((min(a, c), max(a, c)))
        adj[a].add(c)
        adj[c].add(a)
        added += 1
    return labels, sorted(edges)


def two_block(rng, n=400, p_in=0.02, p_out=0.002):
    """Two equal communities with the expected number of edges within and across.

    The edge counts are fixed at their expectation and only the edges are
    drawn, so per-representative forward cost does not vary with the seed.
    """
    labels = np.repeat([0, 1], [n // 2, n - n // 2])
    iu, ju = np.triu_indices(n, 1)
    same = labels[iu] == labels[ju]
    picked = []
    for mask, p in ((same, p_in), (~same, p_out)):
        pool = np.flatnonzero(mask)
        picked.append(rng.choice(pool, size=int(round(p * len(pool))), replace=False))
    keep = np.concatenate(picked)
    return labels, sorted(zip(iu[keep].tolist(), ju[keep].tolist()))


# ---------------------------------------------------------------------------
# workloads


def _graph_files(out: Path, labels, edges, x) -> list[str]:
    _write_edges(out / "edges.txt", edges)
    _write_labels(out / "labels.csv", labels)
    files = ["edges.txt", "labels.csv"]
    if x is not None:
        _write_features(out / "features.csv", x)
        files.append("features.csv")
    return files


def _base_config(seed: int, features: bool) -> dict:
    return {
        "edges": "edges.txt",
        "features": "features.csv" if features else None,
        "labels": "labels.csv",
        "seed": seed,
        "workers": 1,
    }


GCN_TARGETS = 20
VOTE_SAMPLES, VOTE_N0, RHO_MAX_SCAN, SUBSET_CAP = 400, 100, 3, 2000
# Target ladders of certify-votes-exact: predicted subset cost of tree fields
# that complete and of tree fields that are refused, member count of fields
# with a cycle.  Together 50 targets, 10 of them refused.
VOTE_LADDERS = (np.geomspace(21, 30000, 33), np.geomspace(4200, 65000, 10),
                np.geomspace(4, 300, 7))
DERANDOMIZE_LADDER = [*np.geomspace(2, 60, 11), 300]    # representatives
K_REL = 0.06


def certify_gcn(seed: int, out: Path) -> Inputs:
    rng = np.random.default_rng((seed, 1))
    labels, edges = cora_like(rng)
    x = _binary_features(rng, labels, d=128, hi=0.2, lo=0.03)
    files = _graph_files(out, labels, edges, x)
    nodes = _stratified_targets(_adjacency(len(labels), edges), GCN_TARGETS)
    base = _base_config(seed, features=True)
    _write_json(out / "train.json", {
        **base, "out_dir": "train", "epochs": 10, "patience": 10, "lr": 0.01,
        "dropout": 0.5, "hidden": 64, "train_p_del": 0.3, "train_p_abl": 0.5,
    })
    _write_json(out / "run.json", {
        **base, "model": "train/model.json", "out_dir": "out",
        "p_del": 0.3, "p_abl": 0.7, "n0": 8, "n1": 24, "alpha": 0.01,
        "d_min": [1, 2], "bound_method": "multiplicative", "nodes": nodes,
    })
    return Inputs(command="certify", output="results.csv",
                  targets=nodes, n=len(labels), undirected_edges=len(edges),
                  train_config="train.json",
                  files=files + ["train.json", "run.json"])


def certify_votes_exact(seed: int, out: Path) -> Inputs:
    rng = np.random.default_rng((seed, 2))
    labels, edges = scale_free_tree(rng)
    files = _graph_files(out, labels, edges, None)
    adj = _adjacency(len(labels), edges)
    shape = [_field_shape(adj, v) for v in range(len(adj))]
    cost = [_subset_cost(adj, v) for v in range(len(adj))]
    pools = ([v for v in range(len(adj)) if not shape[v][0] and not cost[v][1]],
             [v for v in range(len(adj)) if not shape[v][0] and cost[v][1]],
             [v for v in range(len(adj)) if shape[v][0]])
    keys = ([c for c, _ in cost], [c for c, _ in cost], [m for _, m in shape])
    nodes = sorted(v for pool, key, levels in zip(pools, keys, VOTE_LADDERS)
                   for v in _ladder_targets(key, levels, pool))
    samples, classes = VOTE_SAMPLES, CLASSES
    rows = ["node_id,sample_index,class"]
    for v in nodes:
        q = rng.uniform(0.4, 1.0)
        top = (int(labels[v]) if rng.random() < 0.8
               else int((labels[v] + rng.integers(1, classes)) % classes))
        other = (top + rng.integers(1, classes, samples)) % classes
        votes = np.where(rng.random(samples) < q, top, other)
        rows.extend(f"{v},{i},{c}" for i, c in enumerate(votes.tolist()))
    (out / "votes.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    _write_json(out / "run.json", {
        **_base_config(seed, features=False), "votes": "votes.csv",
        "out_dir": "out", "p_del": 0.3, "p_abl": 0.7, "n0": VOTE_N0,
        "n1": VOTE_SAMPLES - VOTE_N0, "alpha": 0.01, "d_min": [1, 2],
        "bound_method": "exact-enumeration", "rho_max_scan": RHO_MAX_SCAN,
        "subset_cap": SUBSET_CAP, "nodes": nodes,
    })
    return Inputs(command="certify",
                  output="results.csv", targets=nodes, n=len(labels),
                  undirected_edges=len(edges),
                  files=files + ["votes.csv", "run.json"])


def derandomize_keepk(seed: int, out: Path) -> Inputs:
    rng = np.random.default_rng((seed, 3))
    labels, edges = two_block(rng)
    x = _binary_features(rng, labels, d=32, hi=0.35, lo=0.05)
    files = _graph_files(out, labels, edges, x)
    adj = _adjacency(len(labels), edges)
    nodes = _ladder_targets([_connected_sets(adj, v, K_REL) for v in range(len(adj))],
                            DERANDOMIZE_LADDER)
    base = _base_config(seed, features=True)
    _write_json(out / "train.json", {
        **base, "out_dir": "train", "epochs": 100, "patience": 100, "lr": 0.01,
        "dropout": 0.5, "hidden": 16, "labeled_per_class": 20,
    })
    _write_json(out / "run.json", {
        **base, "model": "train/model.json", "out_dir": "out",
        "k_rel": K_REL, "tau": 100000, "nodes": nodes,
    })
    return Inputs(command="derandomize",
                  output="derandomized.csv", targets=nodes, n=len(labels),
                  undirected_edges=len(edges), train_config="train.json",
                  files=files + ["train.json", "run.json"])


WORKLOADS = {
    "certify-gcn": certify_gcn,
    "certify-votes-exact": certify_votes_exact,
    "derandomize-keepk": derandomize_keepk,
}
