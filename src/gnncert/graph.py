"""Graph representation, loading, and receptive-field extraction.

A ``Graph`` stores a directed edge list (undirected inputs are symmetrized at
load time), per-node features, and optional labels.  ``receptive_field``
enumerates, for a target node, every simple path of bounded length that can
carry a message into it; those paths are the substrate for all interception
probability computations.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, GraphParseError, ResourceLimitError

DEFAULT_MAX_PATHS = 100_000

Edge = tuple[int, int]
Path = tuple[Edge, ...]


@dataclass(frozen=True)
class Graph:
    """Immutable node-attributed graph.

    Edges are stored as an (m, 2) array of ``(src, dst)`` pairs meaning "src
    sends messages to dst".  For undirected graphs both orientations are
    present.  Self-loops are never stored; the classifier's aggregation adds
    the self contribution itself.

    ``logical_edge_ids`` maps each stored edge to its coin-flip identity:
    for undirected graphs the two orientations of one edge share an id, so
    random edge deletion treats them as a single edge.  Ids are the ranks of
    the ``canonical_edge`` pairs in lexicographic order.
    """

    n: int
    edges: np.ndarray            # (m, 2) int64
    features: np.ndarray         # (n, d) float64
    labels: np.ndarray | None    # (n,) int64, negative = unlabeled
    directed: bool
    logical_edge_ids: np.ndarray = field(repr=False, default=None)  # (m,) int64
    n_logical: int = 0

    @classmethod
    def build(
        cls,
        n: int,
        edges,
        features: np.ndarray | None = None,
        labels=None,
        directed: bool = False,
    ) -> "Graph":
        """Canonicalize and validate raw edge/feature data.

        Drops self-loops, deduplicates, symmetrizes undirected inputs, and
        sorts edges lexicographically so that identical inputs always produce
        identical graphs (sampling and enumeration order depend on it).
        Features default to a one-hot node identity so structure-only
        fixtures run through the full pipeline.
        """
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise DimensionError(
                f"edge endpoint out of range: indices must be in [0, {n})"
            )
        arr = arr[arr[:, 0] != arr[:, 1]]           # no self-loops stored
        if not directed and arr.size:
            arr = np.vstack([arr, arr[:, ::-1]])
        if arr.size:
            arr = np.unique(arr, axis=0)            # dedup + lexicographic sort
        else:
            arr = arr.reshape(0, 2)

        if features is None:
            features = np.eye(n, dtype=np.float64)
        else:
            features = np.asarray(features, dtype=np.float64)
            if features.ndim == 1:
                features = features.reshape(n, -1)
            if features.shape[0] != n:
                raise DimensionError(
                    f"feature matrix has {features.shape[0]} rows for {n} nodes"
                )

        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64).reshape(-1)
            if labels.shape[0] != n:
                raise DimensionError(
                    f"label file has {labels.shape[0]} entries for {n} nodes"
                )

        logical_ids, n_logical = _logical_edge_ids(arr, directed)
        return cls(n=n, edges=arr, features=features, labels=labels,
                   directed=directed, logical_edge_ids=logical_ids,
                   n_logical=n_logical)

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    @functools.cached_property
    def in_neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR in-neighbour index ``(indptr, senders)``, built on first use.

        The senders into node ``u`` are ``senders[indptr[u]:indptr[u + 1]]``,
        ascending.
        """
        order = np.lexsort((self.edges[:, 0], self.edges[:, 1]))
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.edges[:, 1], minlength=self.n), out=indptr[1:])
        return indptr, self.edges[order, 0]

    def with_edges(self, edge_mask: np.ndarray, features: np.ndarray | None = None) -> "Graph":
        """View of this graph keeping only the masked edges (features optionally replaced).

        Logical ids are ranks, so the kept edges' ids are their old ids
        re-ranked.
        """
        kept_ids = self.logical_edge_ids[edge_mask]
        uniq, logical_ids = np.unique(kept_ids, return_inverse=True)
        return Graph(
            n=self.n,
            edges=self.edges[edge_mask],
            features=self.features if features is None else features,
            labels=self.labels,
            directed=self.directed,
            logical_edge_ids=logical_ids.astype(np.int64),
            n_logical=int(uniq.size),
        )

    def without_nodes(self, nodes) -> "Graph":
        """View with the given nodes isolated (all incident edges removed).

        An isolated node cannot influence any other node's prediction, which
        is what node deletion means for a message-passing classifier.
        """
        drop = np.zeros(self.n, dtype=bool)
        drop[list(nodes)] = True
        mask = ~(drop[self.edges[:, 0]] | drop[self.edges[:, 1]])
        return self.with_edges(mask)


def _logical_edge_ids(edges: np.ndarray, directed: bool) -> tuple[np.ndarray, int]:
    if edges.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), 0
    canon = edges if directed else np.sort(edges, axis=1)
    _, ids = np.unique(canon, axis=0, return_inverse=True)
    return ids.astype(np.int64), int(ids.max()) + 1


def canonical_edge(e: Edge, directed: bool) -> Edge:
    """Coin-flip identity of an edge: orientation-free unless the graph is directed."""
    if directed:
        return (int(e[0]), int(e[1]))
    a, b = int(e[0]), int(e[1])
    return (a, b) if a <= b else (b, a)


# ---------------------------------------------------------------------------
# loading


def load_graph(
    edge_path,
    feature_path=None,
    label_path=None,
    directed: bool = False,
) -> Graph:
    """Load a graph from an edge list plus optional feature/label CSVs.

    Edge list: one ``src dst`` pair per line, whitespace separated,
    0-indexed; lines starting with ``#`` are ignored.  Features: CSV with
    one row per node.  Labels: one integer per line (negative = unlabeled).
    The node count is 1 + the largest index seen, or the feature row count
    when that is larger.
    """
    edges = []
    max_idx = -1
    with open(edge_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise GraphParseError(
                    f"{edge_path}: line {lineno}: expected 'src dst', got {stripped!r}"
                )
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(
                    f"{edge_path}: line {lineno}: non-integer endpoint in {stripped!r}"
                ) from None
            if a < 0 or b < 0:
                raise GraphParseError(
                    f"{edge_path}: line {lineno}: negative node index"
                )
            edges.append((a, b))
            max_idx = max(max_idx, a, b)

    features = None
    if feature_path is not None:
        features = _load_feature_csv(feature_path)

    labels = None
    if label_path is not None:
        labels = _load_label_csv(label_path)

    n = max_idx + 1
    if features is not None:
        if features.shape[0] < n:
            raise DimensionError(
                f"{feature_path}: {features.shape[0]} feature rows but edge file "
                f"references node {max_idx}"
            )
        n = max(n, features.shape[0])
    if labels is not None:
        if features is not None and labels.shape[0] != features.shape[0]:
            raise DimensionError(
                f"{label_path}: {labels.shape[0]} labels for "
                f"{features.shape[0]} feature rows"
            )
        if labels.shape[0] < n:
            raise DimensionError(
                f"{label_path}: {labels.shape[0]} labels but graph has {n} nodes"
            )
        n = max(n, labels.shape[0])

    return Graph.build(n=n, edges=edges, features=features, labels=labels,
                       directed=directed)


def _load_feature_csv(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                vals = [float(x) for x in row]
            except ValueError:
                raise GraphParseError(
                    f"{path}: line {lineno}: non-numeric feature value"
                ) from None
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise GraphParseError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(vals)}"
                )
            rows.append(vals)
    return np.asarray(rows, dtype=np.float64)


def _load_label_csv(path) -> np.ndarray:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                out.append(int(float(stripped)))
            except ValueError:
                raise GraphParseError(
                    f"{path}: line {lineno}: non-integer label {stripped!r}"
                ) from None
    return np.asarray(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# receptive fields


@dataclass(frozen=True)
class ReceptiveField:
    """All structure that can influence a k-layer prediction at ``target``.

    ``paths[w]`` is the complete set of simple paths of length <= k from
    member ``w`` to the target, each path a tuple of directed edges.
    ``path_edges`` is their union; ``edges_within`` holds every graph edge
    between members (needed when retained-subgraph connectivity matters, not
    just message paths).
    """

    target: int
    k: int
    directed: bool
    members: frozenset[int]
    distance: dict[int, int]
    paths: dict[int, tuple[Path, ...]]
    path_edges: frozenset[Edge]
    edges_within: tuple[Edge, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def candidates(self, d_min: int) -> list[int]:
        """Nodes an adversary at hop distance >= d_min may control, ascending."""
        return sorted(w for w in self.members if self.distance[w] >= d_min)

    def attack_surface(self, d_min: int) -> int:
        return len(self.candidates(d_min))

    @functools.cached_property
    def logical_paths(self) -> dict[int, tuple[tuple[Edge, ...], ...]]:
        """``paths`` with each edge replaced by its coin-flip identity, built on first use.

        Two paths share an edge coin exactly when they share an entry here
        (``canonical_edge``), which is what inclusion-exclusion counts.
        """
        return {w: tuple(tuple(canonical_edge(e, self.directed) for e in q) for q in plist)
                for w, plist in self.paths.items()}


def receptive_field(g: Graph, v: int, k: int,
                    max_paths: int = DEFAULT_MAX_PATHS) -> ReceptiveField:
    """Enumerate every simple path of length <= k ending at ``v``.

    Runs a depth-limited search backward from the target against edge
    direction, so directed graphs (e.g. after directional sparsification)
    are handled natively.  Exceeding ``max_paths`` raises
    ``ResourceLimitError`` rather than truncating, because a truncated path
    set would invalidate any certificate derived from it.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"target node {v} out of range [0, {g.n})")
    if k < 1:
        raise ValueError("layer count k must be >= 1")

    indptr, senders = g.in_neighbors
    paths: dict[int, list[Path]] = {}
    count = 0
    # stack of (node, suffix of edges from node to v, set of nodes on suffix)
    on_path = [v]

    def visit(u: int, suffix: Path, depth: int) -> None:
        nonlocal count
        for a in senders[indptr[u]:indptr[u + 1]].tolist():
            if a in on_path:
                continue
            new_path: Path = ((a, u),) + suffix
            count += 1
            if count > max_paths:
                raise ResourceLimitError(
                    f"receptive field of node {v} exceeds {max_paths} simple "
                    f"paths; sparsify the graph or raise max_paths"
                )
            paths.setdefault(a, []).append(new_path)
            if depth + 1 < k:
                on_path.append(a)
                visit(a, new_path, depth + 1)
                on_path.pop()

    visit(v, (), 0)

    distance = {v: 0}
    for w, plist in paths.items():
        distance[w] = min(len(p) for p in plist)
    members = frozenset(distance)
    path_edges = frozenset(e for plist in paths.values() for p in plist for e in p)
    inside = np.zeros(g.n, dtype=bool)
    inside[list(members)] = True
    within = g.edges[inside[g.edges[:, 0]] & inside[g.edges[:, 1]]]
    edges_within = tuple(map(tuple, within.tolist()))
    return ReceptiveField(
        target=v,
        k=k,
        directed=g.directed,
        members=members,
        distance=distance,
        paths={w: tuple(p) for w, p in sorted(paths.items())},
        path_edges=path_edges,
        edges_within=edges_within,
    )
