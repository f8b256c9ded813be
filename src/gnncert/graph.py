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
import io
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, GraphParseError, ResourceLimitError

DEFAULT_MAX_PATHS = 100_000
_MAX_FLAT_KEY_NODES = 3_037_000_499     # largest n with n * n below 2**63

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

    ``_features`` is the feature matrix as given, or None for a graph
    without features; ``features`` then reads as the one-hot node identity,
    built on first read.
    """

    n: int
    edges: np.ndarray            # (m, 2) int64
    _features: np.ndarray | None  # (n, d) float64, or None for the identity
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
        identical graphs (sampling and enumeration order depend on it).  The
        sort and the deduplication run on flat ``src * n + dst`` keys, whose
        order is the lexicographic order of the pairs.  Without ``features``
        the graph reads as a one-hot node identity, so structure-only
        fixtures run through the full pipeline; the ``n x n`` identity is
        built only when ``features`` is first read (``dim`` is ``n`` without
        it).
        """
        if n > _MAX_FLAT_KEY_NODES:
            raise DimensionError(
                f"{n} nodes exceed the {_MAX_FLAT_KEY_NODES} that int64 edge keys allow"
            )
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise DimensionError(
                f"edge endpoint out of range: indices must be in [0, {n})"
            )
        arr = arr[arr[:, 0] != arr[:, 1]]           # no self-loops stored
        key = arr[:, 0] * n + arr[:, 1]
        if not directed:
            key = np.concatenate([key, arr[:, 1] * n + arr[:, 0]])
        arr = np.stack(np.divmod(_sorted_distinct(key), n), axis=1)

        if features is not None:
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
        return cls(n=n, edges=arr, _features=features, labels=labels,
                   directed=directed, logical_edge_ids=logical_ids,
                   n_logical=n_logical)

    @functools.cached_property
    def features(self) -> np.ndarray:
        """(n, d) float64 features; the one-hot identity when none were given."""
        if self._features is None:
            return np.eye(self.n, dtype=np.float64)
        return self._features

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    @property
    def dim(self) -> int:
        return self.n if self._features is None else int(self._features.shape[1])

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
        re-ranked: a presence bitmap over the old ids, cumulated, gives each
        kept id its new rank without a sort.  Without new ``features`` the
        view shares this graph's, including an identity already built.
        """
        if features is None:
            features = self.__dict__.get("features", self._features)
        kept_ids = self.logical_edge_ids[edge_mask]
        present = np.zeros(self.n_logical, dtype=bool)
        present[kept_ids] = True
        rank = np.cumsum(present, dtype=np.int64)
        return Graph(
            n=self.n,
            edges=self.edges[edge_mask],
            _features=features,
            labels=self.labels,
            directed=self.directed,
            logical_edge_ids=rank[kept_ids] - 1,
            n_logical=int(rank[-1]) if rank.size else 0,
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


def _sorted_distinct(key: np.ndarray) -> np.ndarray:
    """``np.unique(key)``: a sort and a neighbour-inequality mask, without its overhead."""
    key = np.sort(key)
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return key[first]


def _logical_edge_ids(edges: np.ndarray, directed: bool) -> tuple[np.ndarray, int]:
    """Rank of each edge's ``canonical_edge`` pair, and the number of distinct pairs.

    ``edges`` is a list as ``Graph.build`` stores it: sorted, distinct,
    without self-loops and, unless ``directed``, holding both orientations
    of every edge.  A directed edge's rank is its place.  An undirected
    edge's pair is ranked by the flat key ``a * base + b`` with ``base``
    above every endpoint, which orders like the pairs themselves.  The
    forward edges (``src < dst``) are their own pairs, already ascending,
    and the reverse edges' pairs are the same keys, so a reverse edge's
    rank is its place in their sort.
    """
    m = edges.shape[0]
    if directed or m == 0:
        return np.arange(m, dtype=np.int64), m
    src, dst = edges[:, 0], edges[:, 1]
    base = int(edges.max()) + 1
    forward = src < dst
    reverse = dst[~forward] * base + src[~forward]
    order = np.argsort(reverse)
    assert np.array_equal(reverse[order], src[forward] * base + dst[forward]), \
        "an undirected edge list lacks an orientation"
    ids = np.empty(m, dtype=np.int64)
    ids[forward] = np.arange(order.size)
    ids[np.flatnonzero(~forward)[order]] = np.arange(order.size)
    return ids, int(order.size)


def canonical_edge(e: Edge, directed: bool) -> Edge:
    """Coin-flip identity of an edge: orientation-free unless the graph is directed."""
    if directed:
        return (int(e[0]), int(e[1]))
    a, b = int(e[0]), int(e[1])
    return (a, b) if a <= b else (b, a)


# ---------------------------------------------------------------------------
# loading
#
# Each file is parsed in one numpy pass: a table of one-digit fields (binary
# bag-of-words features, small-class labels) from its bytes, any other text
# with ``np.loadtxt``; both give the same values.  When numpy rejects a file,
# or the parsed values break a rule, the file is read again line by line only
# to raise an error naming the first bad line; that re-read never accepts.

_BLANK_LINE = re.compile(r"^[^\S\n]+$", re.MULTILINE)
_INLINE_COMMENT = re.compile(r"^[^\S\n]*[^\s#][^\n]*#", re.MULTILINE)


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
    edges = _load_edge_list(edge_path)
    max_idx = int(edges.max()) if edges.size else -1

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


def read_text(path) -> str:
    """The whole file as text; CR LF and lone CR line ends read as LF."""
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def read_table(text: str, dtype, delimiter: str | None = None,
               comments: str | None = None) -> np.ndarray | None:
    """``text`` as a 2-D array in one numpy pass, or None where numpy rejects it.

    A table of one-digit fields (ASCII, every line the same width, each
    ending in ``\\n``; one column only with the whitespace delimiter) is
    read straight from its bytes: ``"0"``..``"9"`` parse to exactly 0..9,
    so that gives what ``np.loadtxt`` gives, bit for bit.  Any other text
    goes through ``np.loadtxt``.  Empty and whitespace-only lines are
    skipped, and CSV fields (``delimiter=","``) may be quoted with ``"``.
    ``loadtxt`` skips a whitespace-only CSV line only once it is emptied,
    which takes a regex pass over the text, so that pass runs only after a
    first attempt failed.
    """
    digits = _digit_table(text, delimiter)
    if digits is not None:
        return digits.astype(dtype)
    for attempt in range(2):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)    # "input contained no data"
                return np.loadtxt(io.StringIO(text), dtype=dtype, delimiter=delimiter,
                                  comments=comments, ndmin=2,
                                  quotechar='"' if delimiter else None)
        except ValueError:
            if attempt or delimiter is None or not _BLANK_LINE.search(text):
                return None
            text = _BLANK_LINE.sub("", text)


def _digit_table(text: str, delimiter: str | None) -> np.ndarray | None:
    """(rows, columns) uint8 values of a table of one-digit fields, or None for any other text."""
    width = text.find("\n") + 1          # bytes per line: each field a digit and a separator
    if (width < 2 or width % 2 or len(text) % width or not text.isascii()
            or (delimiter is None and width != 2)):
        return None
    lines = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, width)
    digits = lines[:, ::2] - 48          # wraps above 9 for every byte but "0".."9"
    if ((digits > 9).any() or (lines[:, -1] != 10).any()
            or (width > 2 and (lines[:, 1:-1:2] != ord(delimiter)).any())):
        return None
    return digits


def numpy_readable(field: str) -> bool:
    """Whether numpy reads ``field`` as ``int``/``float`` do: ASCII digits, no ``_``."""
    return field.strip().isascii() and "_" not in field


def _load_edge_list(path) -> np.ndarray:
    """(m, 2) int64 endpoints of a whitespace-separated edge list."""
    text = read_text(path)
    arr = None
    if "#" not in text or not _INLINE_COMMENT.search(text):   # loadtxt would cut "0 1 # x"
        arr = read_table(text, np.int64, comments="#")
    if arr is not None and (arr.shape[0] == 0 or (arr.shape[1] == 2 and arr.min() >= 0)):
        return arr.reshape(-1, 2)
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise GraphParseError(
                f"{path}: line {lineno}: expected 'src dst', got {stripped!r}"
            )
        try:
            if not all(map(numpy_readable, parts)):
                raise ValueError
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(
                f"{path}: line {lineno}: non-integer endpoint in {stripped!r}"
            ) from None
        if a < 0 or b < 0:
            raise GraphParseError(
                f"{path}: line {lineno}: negative node index"
            )
        if max(a, b) >= 2 ** 63:
            raise GraphParseError(f"{path}: line {lineno}: node index out of range")
    raise GraphParseError(f"{path}: not a 'src dst' edge list")


def _load_feature_csv(path) -> np.ndarray:
    text = read_text(path)
    x = read_table(text, np.float64, delimiter=",")
    if x is not None:
        return x if x.shape[0] else np.zeros(0)
    width = None
    for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            if not all(map(numpy_readable, row)):
                raise ValueError
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
    raise GraphParseError(f"{path}: not a numeric CSV")


def _int64_valued(x: np.ndarray) -> np.ndarray:
    # NaN fails the equality and +-inf the range check
    return (np.trunc(x) == x) & (np.abs(x) < 2.0 ** 63)


def _load_label_csv(path) -> np.ndarray:
    """One integer label per line; ``1.0`` reads as 1, ``2.7``, ``nan`` and ``inf`` are errors."""
    text = read_text(path)
    vals = read_table(text, np.float64)
    if vals is not None and (vals.shape[0] == 0 or vals.shape[1] == 1):
        vals = vals.reshape(-1)
        if _int64_valued(vals).all():
            return vals.astype(np.int64)
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            if not numpy_readable(stripped) or not _int64_valued(np.float64(stripped)):
                raise ValueError
        except ValueError:
            raise GraphParseError(
                f"{path}: line {lineno}: non-integer label {stripped!r}"
            ) from None
    raise GraphParseError(f"{path}: not one integer label per line")


# ---------------------------------------------------------------------------
# receptive fields


@dataclass(frozen=True)
class ReceptiveField:
    """All structure that can influence a k-layer prediction at ``target``.

    ``paths[w]`` is the complete set of simple paths of length <= k from
    member ``w`` to the target, each path a tuple of directed edges.
    ``path_edges`` is their union; ``edges_within`` holds every graph edge
    between members (needed when retained-subgraph connectivity matters, not
    just message paths).  It is built from ``_graph`` on first read, so a
    field whose certificate needs only its paths never scans the edge list;
    ``_graph`` takes no part in ``==`` or ``repr``.
    """

    target: int
    k: int
    directed: bool
    members: frozenset[int]
    distance: dict[int, int]
    paths: dict[int, tuple[Path, ...]]
    path_edges: frozenset[Edge]
    _graph: Graph = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.members)

    def candidates(self, d_min: int) -> tuple[int, ...]:
        """Nodes an adversary at hop distance >= d_min may control, ascending.

        Sorted once per ``d_min`` and kept on the field; a tuple, so no
        caller can change the kept sequence.
        """
        kept = self._candidates
        if d_min not in kept:
            kept[d_min] = tuple(sorted(w for w in self.members if self.distance[w] >= d_min))
        return kept[d_min]

    @functools.cached_property
    def _candidates(self) -> dict[int, tuple[int, ...]]:
        return {}

    def attack_surface(self, d_min: int) -> int:
        return len(self.candidates(d_min))

    @functools.cached_property
    def edges_within(self) -> tuple[Edge, ...]:
        """Every edge of the graph between two members, in the graph's edge order."""
        edges = self._graph.edges
        inside = np.zeros(self._graph.n, dtype=bool)
        inside[list(self.members)] = True
        within = edges[inside[edges[:, 0]] & inside[edges[:, 1]]]
        return tuple(map(tuple, within.tolist()))

    @functools.cached_property
    def logical_paths(self) -> dict[int, tuple[tuple[Edge, ...], ...]]:
        """``paths`` with each edge replaced by its coin-flip identity, built on first use.

        Two paths share an edge coin exactly when they share an entry here
        (``canonical_edge``), which is what inclusion-exclusion counts.
        """
        return {w: tuple(tuple(canonical_edge(e, self.directed) for e in q) for q in plist)
                for w, plist in self.paths.items()}

    @functools.cached_property
    def tree_children(self) -> dict[int, tuple[int, ...]] | None:
        """Ascending child lists of the message tree, or None when the field is no tree.

        The field is a tree when the message edges number one less than
        the members.  Then every other member sends exactly one of them:
        each sends the first edge of its own paths, and the target, where
        every path ends, sends none.  Built on first use.
        """
        if len(self.path_edges) != len(self.members) - 1:
            return None
        children: dict[int, list[int]] = {w: [] for w in self.members}
        for a, b in self.path_edges:
            children[b].append(a)
        return {w: tuple(sorted(c)) for w, c in children.items()}

    @functools.cached_property
    def memo(self) -> dict:
        """Values other modules derive from this field, kept for reuse; empty at first.

        ``bounds`` keeps every member's single-source value here, per pair of
        smoothing probabilities, so that all d_min share one computation.
        """
        return {}


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
    return ReceptiveField(
        target=v,
        k=k,
        directed=g.directed,
        members=members,
        distance=distance,
        paths={w: tuple(p) for w, p in sorted(paths.items())},
        path_edges=path_edges,
        _graph=g,
    )
