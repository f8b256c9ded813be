"""Graph representation, loading, and receptive-field extraction.

A ``Graph`` stores a directed edge list (undirected inputs are symmetrized at
load time), per-node features, and optional labels.  ``receptive_fields``
enumerates, for each of a list of target nodes, every simple path of bounded
length that can carry a message into it, in arrays, a chunk of targets at a
time; ``receptive_field`` does so for one target.  Those paths are the
substrate for all interception probability computations; a field reads the
deletion coin of each path edge off ``Graph.logical_edge_ids``.
"""

from __future__ import annotations

import csv
import functools
import io
import re
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterator

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
    the edges' canonical pairs, ``(src, dst)`` on a directed graph and
    ``(min, max)`` on an undirected one, in lexicographic order.

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

        logical_ids, n_logical = _logical_edge_ids(arr, directed, n)
        return cls(n=n, edges=arr, _features=features, labels=labels,
                   directed=directed, logical_edge_ids=logical_ids,
                   n_logical=n_logical)

    @functools.cached_property
    def features(self) -> np.ndarray:
        """(n, d) float64 features; the one-hot identity when none were given."""
        if self._features is None:
            return np.eye(self.n, dtype=np.float64)
        return self._features

    @functools.cached_property
    def edge_keys(self) -> np.ndarray:
        """(m,) int64 flat keys ``src * n + dst`` of the edges, ascending as the edges are."""
        return self.edges[:, 0] * self.n + self.edges[:, 1]

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
        ascending: the flat keys ``dst * n + src`` sort by receiver and then
        sender, and ``% n`` reads the sender back.  The receiver column
        alone is no shortcut, since a ``with_edges`` view of an undirected
        graph may hold one orientation of an edge only.
        """
        src, dst = self.edges[:, 0], self.edges[:, 1]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=self.n), out=indptr[1:])
        return indptr, np.sort(dst * self.n + src) % self.n

    def with_edges(self, edge_mask: np.ndarray, features: np.ndarray | None = None) -> "Graph":
        """View of this graph keeping only the masked edges (features optionally replaced).

        The kept edges' ids are ranked afresh by ``_logical_edge_ids``; a
        view may keep one orientation of an undirected edge only, which then
        holds its pair's id alone.  Without new ``features`` the view shares
        this graph's, including an identity already built.
        """
        if features is None:
            features = self.__dict__.get("features", self._features)
        edges = self.edges[edge_mask]
        ids, n_logical = _logical_edge_ids(edges, self.directed, self.n)
        return replace(self, edges=edges, _features=features, logical_edge_ids=ids,
                       n_logical=n_logical)

    def without_nodes(self, nodes) -> "Graph":
        """View with the given nodes isolated (all incident edges removed).

        An isolated node cannot influence any other node's prediction, which
        is what node deletion means for a message-passing classifier.  A
        node id outside ``[0, n)`` is a ``ValueError``.
        """
        ids = np.asarray(list(nodes), dtype=np.int64)
        check_node_ids(ids, self.n, "deleted nodes")
        drop = np.zeros(self.n, dtype=bool)
        drop[ids] = True
        mask = ~(drop[self.edges[:, 0]] | drop[self.edges[:, 1]])
        return self.with_edges(mask)


def check_node_ids(ids: np.ndarray, n: int, what: str) -> None:
    """Raise ``ValueError`` unless every entry of ``ids`` is a node id in ``[0, n)``.

    A negative id would wrap around to a node counted from the end.
    """
    if ids.size and not (0 <= ids.min() and ids.max() < n):
        raise ValueError(f"{what} must be node ids in [0, {n})")


def _sorted_distinct(key: np.ndarray) -> np.ndarray:
    """``np.unique(key)``: a sort and a neighbour-inequality mask, without its overhead."""
    key = np.sort(key)
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return key[first]


def _logical_edge_ids(edges: np.ndarray, directed: bool, n: int) -> tuple[np.ndarray, int]:
    """Rank of each edge's canonical pair (see ``Graph``), and the number of distinct pairs.

    ``edges`` holds distinct pairs of nodes below ``n``.  A directed edge's
    rank is its place, as ``Graph.build`` sorts the edges.  An undirected
    edge's pair ``(min, max)`` is ranked by its flat key ``min * n + max``,
    which orders like the pairs and fits int64 because ``Graph.build``
    refuses more than ``_MAX_FLAT_KEY_NODES`` nodes; both orientations of
    an edge, or only one, get the rank of their pair.
    """
    if directed:
        return np.arange(edges.shape[0], dtype=np.int64), edges.shape[0]
    src, dst = edges[:, 0], edges[:, 1]
    pairs, ids = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst), return_inverse=True)
    return ids, pairs.size


# ---------------------------------------------------------------------------
# loading
#
# Each file is parsed in one numpy pass: a table of one-digit fields (binary
# bag-of-words features, small-class labels) from its bytes, any other text
# with ``np.loadtxt``; both give the same values.  When numpy rejects a file,
# or the parsed values break a rule, the file is read again line by line only
# to raise an error naming the first bad line; that re-read never accepts.
# Edge, feature and label files are parsed from their decoded text.  Vote
# files (``gcn.load_votes``) are parsed once, from the open file, by
# ``load_table``, with no copy of their text.  ``load_table`` alone drops the
# whitespace-only lines ``loadtxt`` rejects in a CSV, on a second read.

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


def load_table(lines, dtype, delimiter: str | None = None,
               comments: str | None = None) -> np.ndarray | None:
    """``np.loadtxt`` of ``lines`` as a 2-D array, or None where numpy rejects them.

    ``lines`` is a file open for reading text or a ``StringIO``, read from
    where it stands; numpy iterates the lines of either, and both read CR
    LF and lone CR as LF.  Empty and whitespace-only lines are skipped: a
    CSV (``delimiter=","``) that ``loadtxt`` rejects is read once more from
    the same place without its whitespace-only lines, which ``loadtxt``
    rejects in a CSV.  CSV fields may be quoted with ``"``.  A file that is
    not UTF-8 is rejected too (``UnicodeDecodeError`` is a ``ValueError``).
    """
    start = lines.tell()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # "input contained no data"
        for source in (lines, (line for line in lines if not line.isspace())):
            try:
                return np.loadtxt(source, dtype=dtype, delimiter=delimiter, comments=comments,
                                  ndmin=2, quotechar='"' if delimiter else None)
            except ValueError:
                if delimiter is None:
                    break
                lines.seek(start)       # the generator reads from where the parse began
    return None


def blank_row(row: list[str]) -> bool:
    """Whether a parsed CSV row is blank: no fields, or one of whitespace only."""
    return not row or (len(row) == 1 and not row[0].strip())


def read_table(text: str, dtype, delimiter: str | None = None,
               comments: str | None = None) -> np.ndarray | None:
    """``text`` as a 2-D array in one numpy pass, or None where numpy rejects it.

    A table of one-digit fields (ASCII, every line the same width, each
    ending in ``\\n``; one column only with the whitespace delimiter) is
    read straight from its bytes: ``"0"``..``"9"`` parse to exactly 0..9,
    so that gives what ``np.loadtxt`` gives, bit for bit.  Any other text
    goes through ``load_table``.
    """
    digits = _digit_table(text, delimiter)
    if digits is not None:
        return digits.astype(dtype)
    return load_table(io.StringIO(text), dtype, delimiter, comments)


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
        if blank_row(row):
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
#
# Fields are enumerated a chunk of targets at a time, in arrays.  Each layer
# extends every path of the chunk by every in-neighbour of its far end that
# is not on it already; one lexsort then puts each target's paths in the
# order of a depth-first search backward from the target.

# Building a chunk, its path rows and the arrays that sort them, peaks at
# about this many bytes: runs of targets are cut to fit, at 16 bytes per
# row and column plus 128 per row.  (tracemalloc showed a 1.1 MB peak for
# the chunks of all 2,708 targets at k = 2 on a Cora-sized graph, and
# less per row at k = 3..6.)
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class FieldChunk:
    """The fields of a chunk of targets built together, one after another.

    The arrays are the ``member_distance``, ``path_offsets`` and
    ``path_length`` of ``ReceptiveField``, for every field of the chunk in
    turn, with ``path_offsets`` counted from the chunk's first row.  A
    target is the one member at distance 0 of its field.  ``memo`` keeps
    values other modules derive for every field of the chunk at once:
    ``bounds`` keeps every member's single-source value there, per pair of
    smoothing probabilities.
    """

    member_distance: np.ndarray
    path_offsets: np.ndarray
    path_length: np.ndarray
    memo: dict = field(default_factory=dict, repr=False)


@dataclass(frozen=True, eq=False)
class ReceptiveField:
    """All structure that can influence a k-layer prediction at ``target``.

    The field is held as arrays.  ``member_ids`` lists the members in
    ascending order, the target among them, and ``member_distance`` their
    hop distances to the target.  The path table has one row per simple
    path of length <= k into the target: ``path_source``, ``path_length``
    and ``path_nodes``, the nodes 1, 2, ... hops from the target along the
    path, padded with -1 past its length to ``max(1, min(k, n - 1))``
    columns, the most hops a simple path can take but at least one (a
    one-node graph's table is ``(0, 1)``).  Rows are grouped by source in
    member order, so member ``i``'s paths are the rows
    ``path_offsets[i]:path_offsets[i + 1]`` (none for the target).  Within
    a source they come in the order of a depth-first search backward from
    the target that takes senders in ascending order and records a path
    before its extensions.  The arrays are views of arrays built for a
    chunk of fields together; ``chunk`` keeps those the single-source
    values read for all of them, and ``member_span`` is this field's
    members among them.

    ``members``, ``distance``, ``tree_order`` (the message tree, children
    first, which both tree bounds walk), ``path_spans`` and ``path_coins``
    (each path edge's deletion coin, for the exact bounds) and ``paths``
    (each path a tuple of directed edges from its source to the target, a
    view for library callers; no command reads it) are derived from the
    arrays on first read; the multiplicative and union bounds read the
    arrays only.
    ``edges_within`` holds every graph edge between members (needed when
    retained-subgraph connectivity matters, not just message paths).  It
    is built from ``_graph`` on first read, so a field whose certificate
    needs only its paths never scans the edge list.
    """

    target: int
    k: int
    member_ids: np.ndarray        # (M,) int64, ascending
    member_distance: np.ndarray   # (M,) int64
    path_offsets: np.ndarray      # (M + 1,) int64
    path_source: np.ndarray       # (P,) int64
    path_length: np.ndarray       # (P,) int64
    path_nodes: np.ndarray        # (P, max(1, min(k, n - 1))) int64
    chunk: FieldChunk = field(repr=False)
    member_span: slice
    _graph: Graph = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.member_ids)

    @functools.cached_property
    def members(self) -> frozenset[int]:
        return frozenset(self.member_ids.tolist())

    @functools.cached_property
    def distance(self) -> dict[int, int]:
        """Hop distance of every member to the target, in member order."""
        return dict(zip(self.member_ids.tolist(), self.member_distance.tolist()))

    def candidates(self, d_min: int) -> tuple[int, ...]:
        """Nodes an adversary at hop distance >= d_min may control, ascending.

        Built once per ``d_min`` and kept on the field; a tuple, so no
        caller can change the kept sequence.
        """
        kept = self._candidates
        if d_min not in kept:
            kept[d_min] = tuple(self.member_ids[self.member_distance >= d_min].tolist())
        return kept[d_min]

    @functools.cached_property
    def _candidates(self) -> dict[int, tuple[int, ...]]:
        return {}

    def attack_surface(self, d_min: int) -> int:
        return int(np.count_nonzero(self.member_distance >= d_min))

    @functools.cached_property
    def paths(self) -> dict[int, tuple[Path, ...]]:
        """Each source's paths in table order, a path as its edges from the source on."""
        out = []
        for row, length in zip(self.path_nodes.tolist(), self.path_length.tolist()):
            walk = row[length - 1::-1] + [self.target]
            out.append(tuple(zip(walk, walk[1:])))
        cut = self.path_offsets.tolist()
        return {w: tuple(out[a:b])
                for w, a, b in zip(self.member_ids.tolist(), cut, cut[1:]) if b > a}

    def _next_hops(self) -> np.ndarray:
        """The node each path's first edge delivers to, in table order."""
        length = self.path_length
        nxt = self.path_nodes[np.arange(len(length)), length - 2]
        return np.where(length > 1, nxt, self.target)

    @functools.cached_property
    def path_coins(self) -> np.ndarray:
        """Each path edge's deletion coin, shaped like ``path_nodes``, built on first use.

        Entry ``[:, j]`` is the ``logical_edge_ids`` entry of the edge from
        ``path_nodes[:, j]`` into the node before it (the target for j = 0),
        and -1 past the path; paths share a coin where they share an entry.
        """
        g, nodes = self._graph, self.path_nodes
        on = nodes >= 0
        key = nodes * g.n + np.insert(nodes[:, :-1], 0, self.target, axis=1)
        coins = np.full(nodes.shape, -1, dtype=np.int64)
        coins[on] = g.logical_edge_ids[np.searchsorted(g.edge_keys, key[on])]
        return coins

    @functools.cached_property
    def path_spans(self) -> dict[int, tuple[int, int]]:
        """Each source's rows ``(start, stop)`` in the path table, by node; built on first use."""
        cut = self.path_offsets.tolist()
        return {w: (a, b) for w, a, b in zip(self.member_ids.tolist(), cut, cut[1:]) if b > a}

    @functools.cached_property
    def edges_within(self) -> tuple[Edge, ...]:
        """Every edge of the graph between two members, in the graph's edge order."""
        edges = self._graph.edges
        inside = np.zeros(self._graph.n, dtype=bool)
        inside[self.member_ids] = True
        within = edges[inside[edges[:, 0]] & inside[edges[:, 1]]]
        return tuple(map(tuple, within.tolist()))

    @functools.cached_property
    def tree_order(self) -> tuple[tuple[int, int], ...] | None:
        """``(member, parent)`` pairs of the message tree, children first, or None when no tree.

        The field is a tree when the message edges number one less than
        the members.  That is when the paths do: every member but the
        target has a path and sends its first edge, and where two paths
        from one member part, the node they part at sends two edges.  In a
        tree each member but the target sends the first edge of its one
        path, and its parent is the node that edge delivers to.

        The members come by descending distance, then ascending node: a
        child lies one hop farther from the target than its parent, so it
        comes before it, and the children of one node come in ascending
        order.  The target comes last, with parent -1.  A loop over the
        pairs that folds each member into its parent thus sees every
        member's children complete and in ascending order before the
        member itself; both tree bounds rely on that order for their bits.
        Built on first use.
        """
        if len(self.path_length) != self.size - 1:
            return None
        parent = np.full(self.size, -1)
        parent[np.diff(self.path_offsets) > 0] = self._next_hops()
        order = np.lexsort((self.member_ids, -self.member_distance))
        return tuple(zip(self.member_ids[order].tolist(), parent[order].tolist()))


def receptive_field(g: Graph, v: int, k: int,
                    max_paths: int = DEFAULT_MAX_PATHS) -> ReceptiveField:
    """The field of one target: every simple path of length <= k ending at ``v``.

    ``receptive_fields`` for the one target ``v``.  Paths follow edge
    direction, so directed graphs (e.g. after directional sparsification)
    are handled natively.  Exceeding ``max_paths`` raises
    ``ResourceLimitError`` rather than truncating, because a truncated path
    set would invalidate any certificate derived from it.
    """
    rf = next(receptive_fields(g, [v], k, max_paths))
    if isinstance(rf, ResourceLimitError):
        raise rf
    return rf


def receptive_fields(g: Graph, targets, k: int, max_paths: int = DEFAULT_MAX_PATHS
                     ) -> Iterator[ReceptiveField | ResourceLimitError]:
    """The field of each of ``targets``, in order, enumerated a chunk of targets at a time.

    A target with more than ``max_paths`` simple paths of length <= k gets
    a ``ResourceLimitError`` in place of its field, so it fails alone and
    its paths are never truncated.  Consecutive targets share a chunk while
    the walks of length <= k into them, which bound their paths, fit
    ``_CHUNK_BYTES``.  Only one chunk is enumerated at a time, so the paths
    held at once do not grow with the number of targets.  A target whose
    walks alone exceed the budget is enumerated alone, a budget's worth of
    extensions at a time, and holds at most ``max_paths`` paths plus one
    such piece.  Targets and ``k`` are checked here, before the first field
    is built.
    """
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    outside = targets[(targets < 0) | (targets >= g.n)]
    if outside.size:
        raise ValueError(f"target node {int(outside[0])} out of range [0, {g.n})")
    if k < 1:
        raise ValueError("layer count k must be >= 1")
    hops = max(1, min(k, g.n - 1))          # no simple path is longer
    rows = max(1, _CHUNK_BYTES // (16 * (hops + 8)))
    cut = _chunk_bounds(g, targets, hops, rows)
    return (rf for a, b in zip(cut, cut[1:])
            for rf in _chunk_fields(g, targets[a:b], k, hops, max_paths, rows))


def _chunk_bounds(g: Graph, targets: np.ndarray, hops: int, rows: int) -> list[int]:
    """Cuts of ``targets`` into runs whose walks of length <= hops total at most ``rows``.

    The walks into a target bound its simple paths, and at every layer the
    extensions a layer tries, so a run's table fits ``rows``; a target
    whose walks alone exceed it is a run of its own.  Walk counts are
    capped at ``rows + 1``, which keeps every comparison and every sum
    finite.
    """
    if len(targets) < 2:
        return [0, len(targets)]
    indptr, senders = g.in_neighbors
    receiver = np.repeat(np.arange(g.n), np.diff(indptr))
    walks, total = np.ones(g.n), np.zeros(g.n)
    for _ in range(hops):
        walks = np.minimum(np.bincount(receiver, weights=walks[senders], minlength=g.n),
                           rows + 1)
        total += walks
    reach = np.cumsum(np.minimum(total[targets], rows + 1))
    cut = [0]
    while cut[-1] < len(targets):
        start = cut[-1]
        base = reach[start - 1] if start else 0.0
        cut.append(max(start + 1, int(np.searchsorted(reach, base + rows, side="right"))))
    return cut


def _extend(walks: np.ndarray, depth: int, owner: np.ndarray, indptr: np.ndarray,
            senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each path of length ``depth`` in ``walks`` extended by every sender into its end not on it.

    A row of ``walks`` holds a path's nodes from the target outward,
    padded with -1.  Rows come out in input order, and each row's
    extensions with their senders ascending.
    """
    last = walks[:, depth]
    ext = indptr[last + 1] - indptr[last]
    parent = np.repeat(np.arange(len(last)), ext)
    sender = senders[np.arange(parent.size) + np.repeat(indptr[last] - (np.cumsum(ext) - ext), ext)]
    simple = (walks[parent, :depth + 1] != sender[:, None]).all(axis=1)
    grown = walks[parent[simple]]
    grown[:, depth + 1] = sender[simple]
    return grown, owner[parent[simple]]


def _path_rows(g: Graph, targets: np.ndarray, hops: int, max_paths: int, rows: int):
    """Every simple path of length <= hops into each target, and the targets over ``max_paths``.

    Returns each path's owner (its target's position in ``targets``), its
    length and its nodes from the one next to the target outward, padded
    with -1 to ``hops`` columns, layer after layer.  Layer ``L + 1`` extends
    the paths of length ``L``, at most ``rows`` tried extensions at a time.
    A target is over once its paths counted so far exceed ``max_paths``:
    its paths are dropped, and no more are grown from them.
    """
    indptr, senders = g.in_neighbors
    count = np.zeros(len(targets), dtype=np.int64)
    over = np.zeros(len(targets), dtype=bool)
    walks = np.full((len(targets), hops + 1), -1, dtype=np.int64)
    walks[:, 0] = targets
    owner = np.arange(len(targets))
    layers = []
    for depth in range(hops):
        tried = np.cumsum(indptr[walks[:, depth] + 1] - indptr[walks[:, depth]])
        grown, start = [], 0
        while start < len(walks) and not over.all():
            base = tried[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(tried, base + rows, side="right")))
            grown.append(_extend(walks[start:stop], depth, owner[start:stop], indptr, senders))
            count += np.bincount(grown[-1][1], minlength=len(targets))
            over |= count > max_paths
            start = stop
        if not grown:
            break
        walks = np.concatenate([w for w, _ in grown])
        owner = np.concatenate([o for _, o in grown])
        alive = ~over[owner]
        walks, owner = walks[alive], owner[alive]
        layers.append((walks, owner))
    kept = [~over[o] for _, o in layers]
    return (np.concatenate([o[m] for (_, o), m in zip(layers, kept)] + [owner[:0]]),
            np.concatenate([np.full(m.sum(), depth) for depth, m in enumerate(kept, 1)]
                           + [owner[:0]]),
            np.concatenate([w[m, 1:] for (w, _), m in zip(layers, kept)] + [walks[:0, 1:]]),
            over)


def _chunk_fields(g: Graph, targets: np.ndarray, k: int, hops: int, max_paths: int,
                  rows: int):
    """The field of each target of one chunk, or its ``ResourceLimitError``, in order.

    A depth-first search backward from the target, senders ascending,
    meets the paths in the lexicographic order of their node sequences
    from the target outward, a path before its extensions; padding with -1
    puts a prefix first.  One lexsort by owner, source and those sequences
    puts the chunk's rows in that order within each source.
    """
    owner, length, nodes, over = _path_rows(g, targets, hops, max_paths, rows)
    source = nodes[np.arange(len(length)), length - 1]
    order = np.lexsort((*nodes.T[::-1], source, owner))
    owner, length, nodes, source = owner[order], length[order], nodes[order], source[order]

    head = np.ones(len(owner), dtype=bool)
    head[1:] = (owner[1:] != owner[:-1]) | (source[1:] != source[:-1])
    first = np.flatnonzero(head)
    t = len(targets)
    m_owner = np.concatenate([owner[first], np.arange(t)])
    m_id = np.concatenate([source[first], targets])
    m_dist = np.concatenate([np.minimum.reduceat(length, first) if len(first) else first,
                             np.zeros(t, dtype=np.int64)])
    m_count = np.concatenate([np.diff(np.append(first, len(owner))),
                              np.zeros(t, dtype=np.int64)])
    by_member = np.lexsort((m_id, m_owner))
    m_owner, m_id, m_dist = m_owner[by_member], m_id[by_member], m_dist[by_member]
    m_offset = np.zeros(len(by_member) + 1, dtype=np.int64)
    np.cumsum(m_count[by_member], out=m_offset[1:])
    m_cut = np.searchsorted(m_owner, np.arange(t + 1)).tolist()
    p_cut = m_offset[m_cut].tolist()
    chunk = FieldChunk(member_distance=m_dist, path_offsets=m_offset, path_length=length)

    for i, v in enumerate(targets.tolist()):
        if over[i]:
            yield ResourceLimitError(
                f"receptive field of node {v} exceeds {max_paths} simple "
                f"paths; sparsify the graph or raise max_paths"
            )
            continue
        ma, mb, pa, pb = m_cut[i], m_cut[i + 1], p_cut[i], p_cut[i + 1]
        yield ReceptiveField(
            target=v, k=k,
            member_ids=m_id[ma:mb], member_distance=m_dist[ma:mb],
            path_offsets=m_offset[ma:mb + 1] - pa,
            path_source=source[pa:pb], path_length=length[pa:pb],
            path_nodes=nodes[pa:pb], chunk=chunk, member_span=slice(ma, mb), _graph=g,
        )
