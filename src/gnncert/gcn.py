"""A minimal two-layer graph-convolutional node classifier.

The model exists to exercise the certification machinery end to end: it is a
faithful message-passing classifier (degree-normalized neighborhood
aggregation with a self-loop) whose predictions provably depend only on
nodes that can reach the target through surviving edges.  The ablation token
is a trained parameter.  Aggregation runs on a sparse (CSR) matrix built from
the surviving edges, so one forward pass costs O(m + n) per hidden unit.
Training is full-batch with hand-written reverse-mode gradients and Adam
updates through the same forward pass, so no autodiff dependency is needed.

Inference is two-hop-local and batched: a target's score reads only its
two-hop in-neighbourhood, so ``LocalScorer`` scores many variants of the
graph (smoothing samples, derandomization views) in one sparse pass over
that neighbourhood.  ``TwoHop`` builds the pattern of both layers once; a
pass only picks each variant's surviving entries and their values.  A
derandomization view that keeps a few field nodes and deletes the rest
reads less: ``Retention`` builds both layers of each from its retained
nodes alone.  Every pass reads the scorer's one table, ``X @ W1`` by node
id and a last ``token @ W1`` row for every ablated sender.  The hidden
rows are bitwise those of the full forward.  Both vote producers live
here and chunk their own input: ``sample_votes`` draws and scores
smoothing samples, ``predict_without`` and ``predict_retaining``
node-deleted views, given by their deleted or their retained nodes.
``forward``, ``forward_all`` and ``train`` run on the whole graph.

External classifiers are supported through vote files instead of live
models, so certification is not tied to this architecture.
"""

from __future__ import annotations

import base64
import csv
import functools
import io
import itertools
import json
import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy import sparse

from .errors import ConfigError, VoteFormatError
from .graph import (Graph, ReceptiveField, blank_row, check_node_ids, load_table, numpy_readable,
                    read_text, sorted_distinct)
from . import smoothing


@dataclass
class GnnModel:
    """Weights of the two-layer classifier plus the trained ablation token."""

    w1: np.ndarray      # (d, hidden)
    w2: np.ndarray      # (hidden, classes)
    token: np.ndarray   # (d,)
    skip: bool = False

    @property
    def dim(self) -> int:
        return int(self.w1.shape[0])

    @property
    def hidden(self) -> int:
        return int(self.w1.shape[1])

    @property
    def classes(self) -> int:
        return int(self.w2.shape[1])


@dataclass
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 5e-4
    epochs: int = 1000
    patience: int = 50
    dropout: float = 0.8
    p_del: float = 0.0      # training-time smoothing, tuned freely
    p_abl: float = 0.0
    hidden: int = 64
    skip: bool = False
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_del <= 1.0 or not 0.0 <= self.p_abl <= 1.0:
            raise ValueError("training smoothing probabilities must be in [0, 1]")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lr <= 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")


def normalized_adjacency(n: int, edges: np.ndarray) -> sparse.csr_matrix:
    """Symmetric degree-normalized aggregation matrix with self-loops, as CSR.

    Row = receiver, column = sender; entry ``(r, c)`` is
    ``inv_sqrt[r] * inv_sqrt[c]`` with ``inv_sqrt = 1 / sqrt(in-degree + 1)``.
    Degrees are counted from the surviving edges of a sample, never the
    clean graph: using clean-graph degrees would leak which edges were
    deleted.  ``edges`` holds distinct ``(src, dst)`` pairs without
    self-loops, as every ``Graph`` stores them.
    """
    # sorting the flat keys row * n + col yields canonical CSR order directly
    key = np.concatenate([edges[:, 1] * n + edges[:, 0], np.arange(n) * (n + 1)])
    key.sort()
    rows, cols = np.divmod(key, n)
    counts = np.bincount(rows, minlength=n)
    inv_sqrt = 1.0 / np.sqrt(counts.astype(np.float64))
    return sparse.csr_matrix((inv_sqrt[rows] * inv_sqrt[cols], cols, _indptr(counts)),
                             shape=(n, n))


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def propagate(a_hat: sparse.csr_matrix, xw1: np.ndarray,
              skip_h: np.ndarray | None = None):
    """The model's two-layer aggregation, shared by full-graph inference and training.

    ``xw1`` is the first layer's dense product ``X @ W1``: aggregation
    commutes with it, so a caller can compute it once and patch ablated rows
    with ``token @ W1``.  ``skip_h`` is the skip path's hidden layer
    ``relu(X_clean @ W1)``, added before ``W2``.  Returns the hidden
    pre-activation ``z1`` and the hidden input to ``W2``; the caller applies
    ``W2``.  A CSR product computes each row on its own, summing its stored
    entries in order, which ``TwoHop`` relies on to reproduce any row.
    """
    z1 = a_hat @ xw1
    h2 = a_hat @ _relu(z1)
    if skip_h is not None:
        h2 = h2 + skip_h
    return z1, h2


def forward_all(model: GnnModel, g: Graph,
                clean_features: np.ndarray | None = None) -> np.ndarray:
    """Class scores for every node of (a possibly smoothed view of) a graph.

    With the skip connection, the clean (non-ablated) features are forwarded
    through the same weights with no edges and added to the output, so the
    target's own signal survives ablation.
    """
    _check_dim(model, g)
    xc = g.features if clean_features is None else clean_features
    return _scores(model, normalized_adjacency(g.n, g.edges), g.features, xc)


def _check_dim(model: GnnModel, g: Graph) -> None:
    if g.dim != model.dim:
        raise ValueError(
            f"graph features have {g.dim} columns, model expects {model.dim}"
        )


def _scores(model: GnnModel, a_hat: sparse.csr_matrix, x: np.ndarray,
            clean_x: np.ndarray) -> np.ndarray:
    """Class scores of every node for aggregation ``a_hat`` and features ``x``."""
    skip_h = _relu(clean_x @ model.w1) if model.skip else None
    return propagate(a_hat, x @ model.w1, skip_h=skip_h)[1] @ model.w2


def forward(model: GnnModel, g: Graph, v: int,
            clean_features: np.ndarray | None = None) -> np.ndarray:
    """Class scores for one node."""
    return forward_all(model, g, clean_features=clean_features)[v]


# ---------------------------------------------------------------------------
# batched two-hop-local inference

_CHUNK_BYTES = 2 << 20      # working set of a pass, unless one variant needs more


def _indptr(counts: np.ndarray) -> np.ndarray:
    """CSR row pointers of rows holding ``counts`` entries, in ``int32`` as scipy keeps them."""
    indptr = np.zeros(counts.size + 1, dtype=np.int32)
    np.cumsum(counts.astype(np.int32), out=indptr[1:])
    return indptr


def _in_edges(g: Graph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every graph edge into ``nodes``: its receiver's place in ``nodes`` and its sender.

    Edges come by receiver, then by ascending sender, from ``g.in_neighbors``.
    """
    indptr, senders = g.in_neighbors
    start = indptr[nodes]
    count = indptr[nodes + 1] - start
    return np.repeat(np.arange(nodes.size), count), senders[_ragged(start, count)]


def _places(ascending: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each entry of ``x`` is or would go in the non-empty ``ascending``, clipped to
    its last place, and whether it is there."""
    at = np.searchsorted(ascending, x)
    np.minimum(at, ascending.size - 1, out=at)
    return at, ascending[at] == x


def _ragged(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``start[i], start[i] + 1, ..., start[i] + count[i] - 1`` for each ``i``, concatenated."""
    return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)


def _flatten(sets) -> tuple[np.ndarray, list[int]]:
    """Every id of the ``sets``, read once in order, and the size of each set."""
    sizes = [len(r) for r in sets]
    return np.fromiter(itertools.chain.from_iterable(sets), dtype=np.int64,
                       count=sum(sizes)), sizes


class TwoHop:
    """The two-hop in-neighbourhood ``V`` of target rows ``R``: all their scores read.

    ``rows`` is ``R``, ascending without repeats; ``nodes`` is ``V``
    ascending; ``edges`` indexes, ascending, the graph edges whose receiver
    lies in ``V``.  A variant of the graph is a kept mask over ``edges``.
    Senders of ``edges`` may lie outside ``V``: such an edge carries no
    message to ``R`` but counts in its receiver's degree, which scales the
    messages that do.  ``V`` comes from the graph, so it holds whatever a
    deletion anywhere can change about ``R``'s scores.

    The CSR pattern of both aggregation layers is built here once.  The
    first layer's rows are ``U``: ``R`` and the senders of edges into
    ``R``.  Each row holds its edges and its self-loop by ascending sender,
    the order of ``normalized_adjacency``.  The second layer's rows are
    ``R``'s rows of the first, in stored order, as both ascend.  A pass
    over variants (``aggregate``) only selects the surviving entries and
    writes their values.
    """

    def __init__(self, g: Graph, rows):
        self.rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        if np.any(np.diff(self.rows) <= 0):
            raise ValueError("TwoHop rows must ascend without repeats")
        check_node_ids(self.rows, g.n, "TwoHop rows")
        self._n = g.n
        src, dst = g.edges[:, 0], g.edges[:, 1]

        def with_senders(mask):
            out = mask.copy()
            out[src[mask[dst]]] = True
            return out

        in_r = np.zeros(g.n, dtype=bool)
        in_r[self.rows] = True
        in_u = with_senders(in_r)           # R and its in-neighbours: z1 is read there
        in_v = with_senders(in_u)
        self.nodes = np.flatnonzero(in_v)
        self.edges = np.flatnonzero(in_v[dst])
        self._senders = src[self.edges]
        self._receivers = dst[self.edges]
        receiver_at = self._local(self._receivers)
        # in-edge incidence over V, row v holding a 1 per edge into v: a
        # product with the kept masks counts in-degrees faster than a
        # bincount of the kept receivers, with bitwise-equal counts.  On
        # the seed-0 certify-gcn hood (11 variants, 4,116 edges; 2-core VM,
        # one BLAS thread) a degree pass took 96-128 us against 338-441 us,
        # best of 5 x 200 calls in three runs.  The masks go in as a uint8
        # view of the bools: scipy copies the F-ordered transpose to C order
        # (1 byte an entry) and converts that to floats (8 bytes), and
        # tracemalloc peaked at 0.46 MB.  A float64 mask is copied to C order
        # once more, 16 bytes an entry: 0.78 MB, against the bincount's
        # 0.62 MB, at the same speed (70-95 against 74-88 us, best of 5 x 200
        # calls in three runs).  Built as CSR directly: a stable sort by
        # receiver keeps each row's edges ascending
        self._incidence = sparse.csr_matrix(
            (np.ones(self.edges.size), np.argsort(receiver_at, kind="stable"),
             _indptr(np.bincount(receiver_at, minlength=self.nodes.size))),
            shape=(self.nodes.size, self.edges.size))
        # first layer: the edges into U and U's self-loops, by receiver, then sender
        into_u = np.flatnonzero(in_u[self._receivers])
        self._u_at = self._local(np.flatnonzero(in_u))
        row = np.concatenate([receiver_at[into_u], self._u_at])
        col = np.concatenate([self._local(self._senders[into_u]), self._u_at])
        order = np.lexsort((col, row))
        self._row, self._col = row[order], col[order].astype(np.int32)
        self._sender_id = self.nodes[self._col].astype(np.int32)    # the columns as node ids
        self._edge_at = np.flatnonzero(order < into_u.size)     # entries that are edges
        self._edge = into_u[order[self._edge_at]]
        # second layer: R's rows of the first, its columns z1's rows (U's order)
        u_rank = np.zeros(self.nodes.size, dtype=np.int64)
        u_rank[self._u_at] = np.arange(self._u_at.size)
        self._r_at = self._local(self.rows)
        self._second = np.flatnonzero(in_r[self.nodes][self._row])
        self._second_col = u_rank[self._col[self._second]].astype(np.int32)

    def _local(self, ids: np.ndarray) -> np.ndarray:
        # ranks in ascending ``nodes``, so a row's entries keep the graph's order
        return np.searchsorted(self.nodes, ids)

    def aggregate(self, x: np.ndarray, kept: np.ndarray,
                  ablated: np.ndarray | None = None) -> np.ndarray:
        """``R``'s rows of ``A @ relu(A @ x)`` for each variant, stacked: (b * |R|, hidden).

        ``kept`` (b, |edges|) masks the variants' edges and ``ablated``
        (b, |V|) their ablated nodes.  ``x`` holds ``X @ W1``'s rows by
        node id and, last, ``token @ W1``: every variant reads an ablated
        sender from that last row.  Degrees count the kept in-edges plus
        the self-loop, and a deleted edge's entry is left out, so each row
        sums the terms of the same row of the variant's ``propagate`` in
        the same order: the rows are bitwise equal.  After the remap a
        row's columns may repeat and need not ascend, so these matrices
        are never put in canonical form.
        """
        b, nu = kept.shape[0], self._u_at.size
        degree = (self._incidence @ kept.T.view(np.uint8)).T
        degree += 1.0                       # the self-loop; sums of ones are exact
        inv_sqrt = 1.0 / np.sqrt(degree)
        keep = np.ones((b, self._row.size), dtype=bool)
        keep[:, self._edge_at] = kept[:, self._edge]
        value = inv_sqrt[:, self._row] * inv_sqrt[:, self._col]
        col = (np.broadcast_to(self._sender_id, keep.shape) if ablated is None
               else np.where(ablated[:, self._col], len(x) - 1, self._sender_id))
        first = sparse.csr_matrix((value[keep], col[keep], _indptr(degree[:, self._u_at])),
                                  shape=(b * nu, len(x)))
        z1 = first @ x
        np.maximum(z1, 0.0, out=z1)
        del first, col                      # out of the working set before the second layer
        keep = keep[:, self._second]
        col = np.arange(b, dtype=np.int32)[:, None] * nu + self._second_col
        second = sparse.csr_matrix((value[:, self._second][keep], col[keep],
                                    _indptr(degree[:, self._r_at])),
                                   shape=(b * self.rows.size, b * nu))
        return second @ z1

    def chunk(self, hidden: int, classes: int) -> int:
        """Variants per pass under ``_CHUNK_BYTES``, ``x`` having ``hidden`` columns.

        Per variant it sums every array a pass makes, at its largest: the
        masks, ``aggregate``'s arrays and the ``classes`` scores.  Not all
        of them live at once, so the sum bounds the pass from above; the
        table ``x`` is the caller's.  A pass holds at least one variant, so
        a hood whose one variant needs more runs above the budget: the
        whole-graph hood of a Cora-sized graph takes about 3.1 MB.
        """
        edges, nodes, rows = self.edges.size, self.nodes.size, self.rows.size
        per_variant = (
            # kept; for the degrees, scipy's C-order copy of it and that as floats
            edges * (1 + 1 + 8)
            # ablated; degree, inv_sqrt; np.sqrt's result, later the row
            # pointers' gather, int32 copy and cumsum (8 + 4 + 4)
            + nodes * (1 + 8 + 8 + 16)
            # per entry of a layer: keep 1, value 8, value[keep] 8, col 4,
            # col[keep] 4; the first layer's inv_sqrt gathers (8 + 8) are
            # freed before value[keep] and col are made
            + 25 * (self._row.size + self._second.size)
            + 8 * (self._u_at.size + rows) * hidden     # z1, the returned rows
            + 8 * rows * classes)                       # scores
        shared = 8 * rows * hidden                      # the skip path's rows
        return max(1, (_CHUNK_BYTES - shared) // per_variant)

    @functools.cached_property
    def _ends(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes an edge touches, ascending, and the places of each edge's sender and receiver."""
        ends = np.union1d(self.nodes, self._senders)
        return (ends, np.searchsorted(ends, self._senders),
                np.searchsorted(ends, self._receivers))

    def _at(self, sets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every id of ``sets``, read once in order; and of the ids an edge
        touches, the index of their set and their place in ``_ends``."""
        flat, sizes = _flatten(sets)
        at, hit = _places(self._ends[0], flat)      # ids no edge touches do nothing
        return flat, np.repeat(np.arange(len(sizes)), sizes)[hit], at[hit]

    def _kept(self, drop: np.ndarray) -> np.ndarray:
        """Kept masks of node masks ``drop`` (b, |ends|): an edge survives where no end drops."""
        _, sender_at, receiver_at = self._ends
        return ~(drop[:, sender_at] | drop[:, receiver_at])

    def kept_without(self, deleted) -> np.ndarray:
        """(len(deleted), |edges|) kept masks with each set of nodes deleted.

        An edge survives when neither endpoint is deleted, as in
        ``Graph.without_nodes``; a node id outside ``[0, n)`` is a
        ``ValueError`` there and here.
        """
        flat, which, at = self._at(deleted)
        check_node_ids(flat, self._n, "deleted nodes")
        drop = np.zeros((len(deleted), self._ends[0].size), dtype=bool)
        drop[which, at] = True
        return self._kept(drop)


class Retention:
    """What scoring the retained sets of one field reads: built from the field, not its hood.

    A retained set ``r`` keeps its members and deletes every other member
    of ``rf``; a node outside the field is never deleted.  Its variant is
    the graph on the set's nodes: the members it retains, the target,
    kept or not, and, in a field of ``k = 1``, the senders into those
    members that lie outside the field, two hops out (``outside``).
    ``nodes`` holds the members and ``outside``, ascending.  A kept node's
    degree is its self-loop, plus its in-edges from outside the field, a
    constant kept per node, plus its in-edges from ``r``; a deleted node's
    is 1.  Only the pairs of a set's own nodes are looked up among the
    edges between ``nodes``, so a set's work and memory grow with its
    retained members, not with the target's two-hop hood (``pass_bytes``).
    """

    def __init__(self, g: Graph, rf: ReceptiveField):
        t, members = int(rf.target), rf.member_ids
        self.target = t
        # the rows are the target and its senders; a field of k >= 2 holds all their senders
        self.outside = np.zeros(0, dtype=np.int64)
        if rf.k < 2:
            indptr, senders = g.in_neighbors
            sender = _in_edges(g, np.append(senders[indptr[t]:indptr[t + 1]], t))[1]
            self.outside = sorted_distinct(sender[~_places(members, sender)[1]])
        self.nodes = np.sort(np.concatenate([members, self.outside]))
        nb = self.nodes.size
        self._member = np.ones(nb, dtype=bool)
        self._member[np.searchsorted(self.nodes, self.outside)] = False
        owner, sender_at = _in_edges(g, self.nodes)
        sender_at, inside = _places(self.nodes, sender_at)
        from_member = inside & self._member[sender_at]
        # the self-loop and the in-edges from outside the field, which no set deletes
        self._base = 1 + np.bincount(owner[~from_member], minlength=nb)
        # the edges from members as keys ``receiver * |nodes| + sender`` of places
        # in ``nodes``, ascending as the edges come; a last key past every pair
        # keeps the array non-empty
        self._edges = np.append(owner[from_member] * nb + sender_at[from_member], nb * nb)
        # each member's senders in ``outside``, ascending: a set holds them with it
        from_outside = inside & ~from_member & self._member[owner]
        self._outside_at = sender_at[from_outside]
        self._outside_ptr = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner[from_outside], minlength=nb), out=self._outside_ptr[1:])
        self._t = int(np.searchsorted(self.nodes, t))
        self._ids = self.nodes.astype(np.int32)     # first-layer columns: rows of ``x``

    def aggregate(self, x: np.ndarray, retained) -> np.ndarray:
        """The target's row of ``A @ relu(A @ x)`` for each retained set: (len(retained), hidden).

        The rows of the first layer are the target and, where it is kept,
        its kept senders; each holds its kept senders and its self-loop by
        ascending sender, with ``inv_sqrt[row] * inv_sqrt[col]``, and the
        second layer is the target's row.  These are the entries and values
        ``TwoHop.aggregate`` keeps of the same variant, in the same order,
        so the rows are bitwise equal.  A retained id that is no member of
        the field, however often given, keeps and deletes nothing.
        """
        b, nb = len(retained), self.nodes.size
        flat, sizes = _flatten(retained)
        at, hit = _places(self.nodes, flat)    # a node outside the field is kept anyway
        base = np.arange(0, b * nb, nb)
        # (set, node) keys of the retained nodes, each once
        mine = sorted_distinct(np.repeat(base, sizes)[hit] + at[hit])
        place = mine % nb
        target_kept = np.zeros(b, dtype=bool)
        target_kept[mine[place == self._t] // nb] = True
        # each set's nodes, ascending: the retained, the target, its members' outside senders
        start = self._outside_ptr[place]
        count = self._outside_ptr[place + 1] - start
        o_src = np.repeat(mine - place, count) + self._outside_at[_ragged(start, count)]
        o_dst = np.repeat(mine, count)
        key = sorted_distinct(np.concatenate([mine, base + self._t, o_src]))
        which, node = np.divmod(key, nb)
        at_t = np.flatnonzero(node == self._t)
        kept = np.ones(key.size, dtype=bool)
        kept[at_t] = target_kept

        # each pair of a node of a set and a member of it, the target even when
        # deleted, by node and then by ascending member; of them the edges
        # between kept nodes and the self-loops
        send = np.flatnonzero(self._member[node])
        members = np.bincount(which[send], minlength=b)
        pairs = members[which]
        dst = np.repeat(np.arange(key.size), pairs)
        src = send[_ragged((np.cumsum(members) - members)[which], pairs)]
        loop = src == dst
        pick = np.flatnonzero(_places(self._edges, node[dst] * nb + node[src])[1] | loop)
        src, dst, loop = src[pick], dst[pick], loop[pick]
        live = ~loop & kept[src] & kept[dst]        # no edge leaves or enters a deleted node
        degree = np.where(kept, self._base[node] + np.bincount(dst[live], minlength=key.size), 1)

        # first layer: the target and its kept senders, each row by ascending sender
        is_row = np.zeros(key.size, dtype=bool)
        is_row[at_t] = True
        is_row[src[live & (node[dst] == self._t)]] = True
        entry = (live | loop) & is_row[dst]
        o_dst = np.searchsorted(key, o_dst)     # and the edges from outside into the kept rows
        into = is_row[o_dst]
        row = np.concatenate([dst[entry], o_dst[into]])
        col = np.concatenate([src[entry], np.searchsorted(key, o_src[into])])
        order = np.argsort(row * key.size + col)
        row, col = row[order], col[order]
        inv_sqrt = 1.0 / np.sqrt(degree.astype(np.float64))
        value = inv_sqrt[row] * inv_sqrt[col]
        first = sparse.csr_matrix((value, self._ids[node[col]], _indptr(degree[is_row])),
                                  shape=(int(np.count_nonzero(is_row)), len(x)))
        z1 = first @ x
        np.maximum(z1, 0.0, out=z1)
        # second layer: the target's row of the first, its columns z1's rows
        of_t = node[row] == self._t
        rank = np.cumsum(is_row, dtype=np.int32) - 1
        second = sparse.csr_matrix((value[of_t], rank[col[of_t]], _indptr(degree[at_t])),
                                   shape=(b, first.shape[0]))
        return second @ z1

    def pass_bytes(self, hidden: int, classes: int) -> tuple[int, int, int]:
        """``(fixed, per_id, per_square)``: a set of ``s`` ids adds at most
        ``fixed + s * (per_id + s * per_square)`` bytes to a pass, ``x``
        having ``hidden`` columns.

        With ``w`` the most senders outside the field of one member (0 when
        ``k >= 2``), such a set holds at most ``c = s * (1 + w) + 1`` nodes,
        ``s + 1`` of them members, ``c * (s + 1)`` pairs, each an edge or a
        self-loop at most, and ``s * w`` edges from outside; its rows are at
        most its nodes.  Per id, node, pair and edge from outside it counts
        the arrays ``aggregate`` holds at once where it holds the most,
        temporaries included, and per set the target's row and its
        ``classes`` scores.  Passes of over 1 MB on the paper-scale fields
        peaked at 41-57% of the count under ``tracemalloc``, and a test holds
        every full pass under it.  The cost grows
        as ``s * c``: one set retaining all of a 1,000-member field of
        ``k >= 2`` makes a million pairs, some 65 MB, in one pass.
        """
        per_id = 48                         # flat, its places, hits, keys
        per_node = 96 + 8 * hidden          # keys, flags, degrees; a row of z1
        per_pair = 64                       # ends, edge keys; then entries, values
        per_edge = 96                       # an edge from outside, as an entry
        w = int(np.diff(self._outside_ptr).max(initial=0))
        return (64 + 8 * (hidden + classes) + per_node + per_pair,
                per_id + per_node * (1 + w) + per_pair * (2 + w) + per_edge * w,
                per_pair * (1 + w))

    def chunks(self, retained, hidden: int, classes: int):
        """``retained`` as lists of consecutive sets whose ``pass_bytes`` fit ``_CHUNK_BYTES``.

        A list holds at least one set, so a set that alone needs more runs
        above the budget.
        """
        fixed, per_id, per_square = self.pass_bytes(hidden, classes)
        chunk, used = [], 0
        for r in retained:
            s = len(r)
            cost = fixed + s * (per_id + s * per_square)
            if chunk and used + cost > _CHUNK_BYTES:
                yield chunk
                chunk, used = [], 0
            chunk.append(r)
            used += cost
        if chunk:
            yield chunk


class LocalScorer:
    """Class scores of one model on many variants of one graph, two-hop-locally.

    ``X @ W1``'s row of every node, then ``token @ W1``, is computed once
    into one table, so the rows a variant reads are bitwise those of the
    full forward.  Every pass reads that table by node id, and the skip
    path's ``relu(X @ W1)`` is made from it.  ``scores`` runs one pass
    over the variants of a ``TwoHop`` hood it is given; ``sample_votes``
    and ``predict_without`` feed it ``chunk`` variants at a time, so memory
    stays under a byte budget whatever their number.  ``predict_retaining``
    builds no hood: it scores each retained set from its own nodes
    (``Retention``, through ``hidden_retaining``), in chunks whose bytes it
    counts per set.  A chunk of one variant may exceed the budget
    (``TwoHop.chunk``, ``Retention.pass_bytes``).
    """

    def __init__(self, model: GnnModel, g: Graph):
        _check_dim(model, g)
        self.model, self.g = model, g
        self.table = np.empty((g.n + 1, model.hidden))     # in place: np.vstack copies it again
        np.matmul(g.features, model.w1, out=self.table[:-1])
        np.matmul(model.token, model.w1, out=self.table[-1])
        self.skip_h = _relu(self.table[:-1]) if model.skip else None

    def chunk(self, hood: TwoHop) -> int:
        """Variants per pass over ``hood`` under the byte budget."""
        return hood.chunk(self.model.hidden, self.model.classes)

    def hidden(self, hood: TwoHop, kept: np.ndarray,
               ablated: np.ndarray | None = None) -> np.ndarray:
        """(b, |R|, hidden) input to ``W2`` of every variant, in one pass.

        ``ablated`` (b, |V|) marks rows read as ``token @ W1``.
        """
        h2 = hood.aggregate(self.table, kept, ablated)
        h2 = h2.reshape(kept.shape[0], hood.rows.size, self.model.hidden)
        if self.skip_h is not None:
            h2 += self.skip_h[hood.rows]
        return h2

    def scores(self, hood: TwoHop, kept: np.ndarray,
               ablated: np.ndarray | None = None) -> np.ndarray:
        """(b, |R|, classes) scores of the variants ``kept``, ``ablated``, as a new array.

        One call is one pass (``hidden``).  ``W2`` is applied per variant
        (``matmul`` over the stack), so each product has the shape of a
        one-graph pass over ``R``.  The callers keep the pass under the
        byte budget by chunking their own variants (``chunk``).
        """
        return np.matmul(self.hidden(hood, kept, ablated), self.model.w2)

    def sample_votes(self, nodes: np.ndarray, cfg: smoothing.SmoothingConfig,
                     n_samples: int):
        """Votes of ascending ``nodes`` on smoothing samples 0..n_samples-1, chunk by chunk.

        Each chunk of ``chunk`` samples is drawn and scored in one pass.
        Yields ``(lo, classes)``, ``classes`` being a new (b, len(nodes))
        array whose row j holds the votes under sample ``lo + j``.  Samples
        are keyed by index, so a node sees bitwise the same sampled graphs
        whether it is evaluated alone or with others.  ``W2`` stays one
        product per sample, because BLAS rounds products of few rows
        differently: 1-row slices of a 2708 x 64 @ 64 x 7 product differ
        from the whole product in the last bits on most rows, while 20-row
        slices match.
        """
        if not len(nodes):
            return
        hood = TwoHop(self.g, nodes)
        step = self.chunk(hood)
        for lo in range(0, n_samples, step):
            b = min(step, n_samples - lo)
            kept = np.empty((b, hood.edges.size), dtype=bool)
            ablated = np.empty((b, hood.nodes.size), dtype=bool)
            for j in range(b):
                s = smoothing.sample(self.g, cfg, lo + j)
                np.take(s.edge_mask, hood.edges, out=kept[j], mode="clip")   # no temporary
                np.take(s.ablated, hood.nodes, out=ablated[j], mode="clip")
            yield lo, np.argmax(self.scores(hood, kept, ablated), axis=2)

    def predict_without(self, v: int, deleted) -> list[int]:
        """Class of ``v`` with each set of nodes deleted.

        ``deleted`` is an iterable of node sets, read and scored ``chunk``
        sets per pass, so memory does not grow with the number of sets.
        The hidden rows are bitwise ``forward``'s, but ``W2`` multiplies one
        row here and all rows there, and BLAS rounds the two products
        differently in the last bits: at a near-tie of two classes this
        classifier and ``forward``'s argmax may pick different ones.
        """
        hood = TwoHop(self.g, [v])
        step = self.chunk(hood)
        deleted = iter(deleted)
        out: list[int] = []
        while chunk := list(itertools.islice(deleted, step)):
            out += np.argmax(self.scores(hood, hood.kept_without(chunk))[:, 0], axis=1).tolist()
        return out

    def hidden_retaining(self, core: Retention, retained) -> np.ndarray:
        """(len(retained), 1, hidden) input to ``W2`` of each retained set, in one pass.

        Bitwise ``hidden`` on ``hood.kept_without(rf.members - r)``, the
        target's ``TwoHop`` hood, for each set ``r``.
        """
        h2 = core.aggregate(self.table, retained).reshape(len(retained), 1, self.model.hidden)
        if self.skip_h is not None:
            h2 += self.skip_h[core.target]
        return h2

    def predict_retaining(self, rf: ReceptiveField, retained) -> list[int]:
        """``derandomize``'s batch ``predict``: the class of ``rf.target`` per retained set.

        Each set ``r`` keeps its members and deletes every other member of
        ``rf``; the classes are ``predict_without``'s on the sets
        ``rf.members - r``, which are never built.  Each set is scored from
        its own nodes (``Retention``), in chunks whose arrays, counted per
        set, stay under the byte budget, so work and memory grow with the
        sets' retained members: at most k+1 for a representative.
        """
        core = Retention(self.g, rf)
        out: list[int] = []
        for chunk in core.chunks(retained, self.model.hidden, self.model.classes):
            scores = np.matmul(self.hidden_retaining(core, chunk), self.model.w2)
            out += np.argmax(scores[:, 0], axis=1).tolist()
        return out


# ---------------------------------------------------------------------------
# training


def loss_and_grads(
    model: GnnModel,
    a_hat: sparse.csr_matrix,
    x: np.ndarray,
    labels: np.ndarray,
    idx: np.ndarray,
    ablated: np.ndarray,
    weight_decay: float,
    clean_x: np.ndarray | None = None,
    drop: np.ndarray | None = None,
):
    """Cross-entropy loss on ``idx`` plus L2, with gradients for w1, w2, token.

    ``x`` is the post-ablation feature matrix (token rows already written),
    so the token gradient is the sum of feature-row gradients over ablated
    nodes.  ``drop`` is an inverted-dropout factor per entry of ``x``, 0 or
    1/keep, and scales both the message path and the skip path.
    """
    xd = x * drop if drop is not None else x
    s_pre = None
    if model.skip:
        xc = x if clean_x is None else clean_x
        xcd = xc * drop if drop is not None else xc
        s_pre = xcd @ model.w1
    z1, h2 = propagate(a_hat, xd @ model.w1,
                       skip_h=None if s_pre is None else _relu(s_pre))
    out = h2 @ model.w2

    shifted = out - out.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    eps = 1e-12
    loss = -np.mean(np.log(probs[idx, labels[idx]] + eps))
    loss += 0.5 * weight_decay * (
        float((model.w1 ** 2).sum())
        + float((model.w2 ** 2).sum())
        + float((model.token ** 2).sum())
    )

    grad_out = np.zeros_like(probs)
    grad_out[idx] = probs[idx]
    grad_out[idx, labels[idx]] -= 1.0
    grad_out /= len(idx)

    d_w2 = h2.T @ grad_out
    d_h2 = grad_out @ model.w2.T
    d_z1 = (a_hat.T @ d_h2) * (z1 > 0)
    d_xw1 = a_hat.T @ d_z1
    d_w1 = xd.T @ d_xw1
    if s_pre is not None:
        # skip path reads clean features, so no token gradient flows there
        d_w1 += xcd.T @ (d_h2 * (s_pre > 0))

    d_x = d_xw1[ablated] @ model.w1.T
    if drop is not None:
        d_x *= drop[ablated]
    d_token = d_x.sum(axis=0)

    d_w1 += weight_decay * model.w1
    d_w2 += weight_decay * model.w2
    d_token += weight_decay * model.token
    return loss, d_w1, d_w2, d_token


class _Adam:
    def __init__(self, shapes, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1 - self.beta2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def split_by_class(nodes, labels: np.ndarray, rng: np.random.Generator,
                   cut) -> tuple[list[int], list[int]]:
    """``cut(size)`` random nodes of each class of ``nodes``, and the rest, both sorted.

    Classes go in ascending order; each draws one ``rng`` permutation of
    its nodes in ascending order and takes its first ``cut(size)``.
    """
    by_class: dict[int, list[int]] = {}
    for v in sorted(int(x) for x in nodes):
        by_class.setdefault(int(labels[v]), []).append(v)
    taken, rest = [], []
    for c in sorted(by_class):
        members = by_class[c]
        perm = rng.permutation(len(members))
        take = cut(len(members))
        taken.extend(members[i] for i in perm[:take])
        rest.extend(members[i] for i in perm[take:])
    return sorted(taken), sorted(rest)


def train(g: Graph, labeled, cfg: TrainConfig,
          history: list | None = None) -> GnnModel:
    """Train the classifier on the labeled nodes under training-time smoothing.

    Each epoch draws a fresh interception sample, writes the current token
    into ablated rows, and takes one full-batch Adam step; gradients flow
    into both weight matrices and the token.  Early stopping tracks clean
    validation accuracy with the configured patience and restores the best
    weights.  ``history``, when given, receives (epoch, loss, val_acc) rows.
    """
    labeled = sorted(int(x) for x in labeled)
    if not labeled:
        raise ConfigError("no labeled nodes to train on")
    if g.labels is None:
        raise ConfigError("graph has no labels")
    unlabeled = [v for v in labeled if g.labels[v] < 0]
    if unlabeled:
        raise ConfigError(f"node {unlabeled[0]} is in the labeled set but has no label")
    if np.unique(g.labels[labeled]).size < 2:
        raise ConfigError("training needs at least two classes")
    classes = int(g.labels[labeled].max()) + 1

    rng = np.random.default_rng(cfg.seed)
    d = g.dim
    h = cfg.hidden

    def glorot(fan_in, fan_out, size):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=size)

    model = GnnModel(
        w1=glorot(d, h, (d, h)),
        w2=glorot(h, classes, (h, classes)),
        token=glorot(d, 1, (d,)),
        skip=cfg.skip,
    )

    train_idx, val_idx = split_by_class(labeled, g.labels,
                                        np.random.default_rng((int(cfg.seed), 0xBEEF)),
                                        lambda size: max(1, size // 2))
    if not val_idx:
        val_idx = train_idx
    train_idx = np.asarray(train_idx)
    val_idx = np.asarray(val_idx)

    smooth_cfg = smoothing.SmoothingConfig(p_del=cfg.p_del, p_abl=cfg.p_abl,
                                           seed=(cfg.seed << 1) ^ 0x5EED)
    adam = _Adam([model.w1.shape, model.w2.shape, model.token.shape], lr=cfg.lr)
    keep_prob = 1.0 - cfg.dropout

    clean_a_hat = normalized_adjacency(g.n, g.edges)
    best = (-1.0, None)
    stale = 0
    for epoch in range(cfg.epochs):
        s = smoothing.sample(g, smooth_cfg, epoch)
        x = g.features.copy()
        x[s.ablated] = model.token
        a_hat = normalized_adjacency(g.n, g.edges[s.edge_mask])
        drop = (rng.random(x.shape) < keep_prob) / keep_prob if cfg.dropout > 0.0 else None

        loss, d_w1, d_w2, d_token = loss_and_grads(
            model, a_hat, x, g.labels, train_idx, s.ablated,
            cfg.weight_decay, clean_x=g.features, drop=drop,
        )
        adam.step([model.w1, model.w2, model.token], [d_w1, d_w2, d_token])

        val_pred = np.argmax(_scores(model, clean_a_hat, g.features, g.features), axis=1)
        val_acc = float(np.mean(val_pred[val_idx] == g.labels[val_idx]))
        if history is not None:
            history.append((epoch, float(loss), val_acc))

        if val_acc > best[0]:
            best = (val_acc, (model.w1.copy(), model.w2.copy(), model.token.copy()))
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    if best[1] is not None:
        model.w1, model.w2, model.token = best[1]
    return model


# ---------------------------------------------------------------------------
# checkpoints and vote files


_WEIGHTS = {"w1": 2, "w2": 2, "token": 1}     # checkpoint key -> number of axes


def save_checkpoint(model: GnnModel, path, train_config: TrainConfig | None = None,
                    extra: dict | None = None) -> None:
    """Write ``model`` as JSON, each weight array as its raw float64 bytes.

    ``w1``, ``w2`` and ``token`` are each ``{"shape": [...], "float64_le":
    "..."}``, the base64 of the array's little-endian float64 bytes in C
    order, so every weight reads back bit for bit (``-0.0``, NaN and
    subnormals included) without parsing a number.  The skip flag, the
    sizes, ``train_config`` and the ``extra`` keys are plain JSON.
    """
    payload = {
        **{key: {"shape": list(np.shape(a)),
                 "float64_le": base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode()}
           for key, a in zip(_WEIGHTS, (model.w1, model.w2, model.token))},
        "skip": bool(model.skip),
        "hidden": model.hidden,
        "classes": model.classes,
        "feature_dim": model.dim,
        "train_config": asdict(train_config) if train_config else None,
    }
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True))   # dump runs the pure-Python encoder
        fh.write("\n")


def load_checkpoint(path) -> tuple[GnnModel, dict]:
    """The model a ``save_checkpoint`` file holds, and the file's whole JSON payload.

    Each weight is decoded from its bytes into a new writable float64
    array.  A file that is not such a checkpoint is a ``ConfigError`` that
    names the file and the key: a missing ``w1``, ``w2``, ``token`` or
    ``skip``, a ``skip`` that is not a JSON bool, invalid base64, a byte
    count that does not match ``shape``, weights that do not chain (both
    keys named), or weights as lists of numbers, the form older versions
    wrote, which must be trained again.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"checkpoint {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"checkpoint {path} is not a JSON object")
    for key in (*_WEIGHTS, "skip"):
        if key not in payload:
            raise ConfigError(f"checkpoint {path} has no {key!r}")
    if not isinstance(payload["skip"], bool):     # bool("false") would be True
        raise ConfigError(f"checkpoint {path}: 'skip' is {json.dumps(payload['skip'])}, "
                          "not true or false")
    w1, w2, token = (_weights(path, key, payload[key], axes) for key, axes in _WEIGHTS.items())
    if len(w2) != w1.shape[1]:
        raise ConfigError(f"checkpoint {path}: 'w2' has {len(w2)} rows, "
                          f"but 'w1' has {w1.shape[1]} columns")
    if len(token) != len(w1):
        raise ConfigError(f"checkpoint {path}: 'token' has {len(token)} entries, "
                          f"but 'w1' has {len(w1)} rows")
    return GnnModel(w1=w1, w2=w2, token=token, skip=payload["skip"]), payload


def _weights(path, key: str, entry, axes: int) -> np.ndarray:
    """The float64 array a checkpoint holds under ``key``, bit for bit."""
    def bad(what: str) -> ConfigError:
        return ConfigError(f"checkpoint {path}: {key!r} {what}")

    if isinstance(entry, list):
        raise bad("is a list of numbers, the weight form of an older version; "
                  "re-run `gnncert train`")
    if not isinstance(entry, dict) or set(entry) != {"shape", "float64_le"}:
        raise bad('is not {"shape": [...], "float64_le": "..."}')
    shape = entry["shape"]
    if not (isinstance(shape, list) and len(shape) == axes
            and all(type(size) is int and size >= 0 for size in shape)):
        raise bad(f"has shape {shape!r}, not {axes} sizes >= 0")
    try:
        raw = base64.b64decode(entry["float64_le"], validate=True)
    except (TypeError, ValueError):     # binascii.Error is a ValueError
        raise bad("is not valid base64") from None
    if len(raw) != 8 * math.prod(shape):
        raise bad(f"holds {len(raw)} bytes, but shape {shape} takes {8 * math.prod(shape)}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


class VoteTable:
    """Predictions of an external classifier: one ``(node, sample, class)`` row per vote.

    ``table`` holds the rows as int64, sorted by node and then by sample,
    no ``(node, sample)`` pair twice; it is the only per-row array kept,
    so the input's order is not.  Build one from rows (``rows=``, an
    (m, 3) array) or from a ``{node: {sample: class}}`` dict (``votes=``);
    a repeated pair or a negative node, sample or class is a
    ``VoteFormatError``, the first bad row in table order named.  Rows
    that already ascend by (node, sample), as a vote file written in that
    order gives them, are kept as given, with no sort and no copy when
    they are an int64 array; any other rows are sorted once, stably.  The
    ``votes`` dict is a view built on first read from ``table``: nodes
    ascending, each node's samples ascending.  Certification reads
    ``table`` only.
    """

    def __init__(self, votes: dict[int, dict[int, int]] | None = None, *,
                 rows: np.ndarray | None = None):
        if (votes is None) == (rows is None):
            raise TypeError("VoteTable takes one of votes and rows")
        if votes is not None:
            rows = [(v, i, c) for v, per_node in votes.items() for i, c in per_node.items()]
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
        node, sample = rows[:, 0], rows[:, 1]
        same_node = node[1:] == node[:-1]
        if ((node[1:] > node[:-1]) | (same_node & (sample[1:] >= sample[:-1]))).all():
            self.table = rows
        else:
            self.table = np.take(rows, np.lexsort((sample, node)), axis=0)
            node, sample = self.table[:, 0], self.table[:, 1]
        repeat = np.flatnonzero((node[1:] == node[:-1]) & (sample[1:] == sample[:-1]))
        if repeat.size:
            raise VoteFormatError(f"duplicate vote for node {node[repeat[0]]}, "
                                  f"sample {sample[repeat[0]]}")
        if self.table.min(initial=0) < 0:
            # a tally counts class c in its node's cell c, so -1 lands in the node
            # before, and gather reads count rows ending at sample count - 1 as 0..count-1
            v, i, c = self.table[np.argmax((self.table < 0).any(axis=1))].tolist()
            raise VoteFormatError(f"negative node {v}" if v < 0
                                  else f"negative sample {i} for node {v}" if i < 0
                                  else f"negative class {c} for node {v}, sample {i}")

    @property
    def classes(self) -> int:
        """1 + the largest class voted."""
        return 1 + int(self.table[:, 2].max(initial=-1))

    @functools.cached_property
    def votes(self) -> dict[int, dict[int, int]]:
        """``{node: {sample: class}}`` in ``table``'s order, built on first read."""
        out: dict[int, dict[int, int]] = {}
        for v, i, c in self.table.tolist():
            out.setdefault(v, {})[i] = c
        return out

    def gather(self, nodes: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Classes voted on samples 0..count-1 for the ascending ``nodes`` that hold them all.

        Returns a (count, k) class array, its columns the k nodes that hold
        every sample, in order, and per node the first sample index it has
        no vote for, or ``count`` when it has them all.  A node's rows
        ascend by sample without repeats and no sample is negative, so it
        holds samples 0..count-1 exactly when its count-th row is its own
        and holds sample count - 1; only the class column of those rows is
        gathered.  Only the rows of a node that lacks a sample are
        searched, for the first that does not hold its own rank.
        """
        if not len(self.table):
            return np.zeros((count, 0), dtype=np.int64), np.zeros(len(nodes), np.int64)
        node, sample, cls = self.table.T
        start = np.searchsorted(node, nodes)
        last = np.minimum(start + count, len(node)) - 1
        whole = (start + count <= len(node)) & (node[last] == nodes) & (sample[last] == count - 1)
        # a window of count rows per whole node; a table with a whole node has count rows
        votes = (np.lib.stride_tricks.sliding_window_view(cls, count)[start[whole]].T
                 if whole.any() else np.zeros((count, 0), dtype=np.int64))

        lacking = np.full(len(nodes), count, dtype=np.int64)
        short = np.flatnonzero(~whole)
        want = np.arange(count)
        at = start[short, None] + want
        held = at < len(node)
        np.minimum(at, len(node) - 1, out=at)
        held &= (node[at] == nodes[short, None]) & (sample[at] == want)
        lacking[short] = np.argmin(held, axis=1)
        return votes, lacking


def save_votes(path, rows) -> None:
    """Write (node_id, sample_index, class) rows as CSV with a header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "sample_index", "class"])
        for node, sample_index, cls in rows:
            writer.writerow([int(node), int(sample_index), int(cls)])


def _header_row(row: list[str]) -> bool:
    """Whether a first CSV row is a header: a non-blank row not led by a signed or bare
    integer, a byte-order mark before it ignored."""
    return not blank_row(row) and not row[0].lstrip("\ufeff").strip().lstrip("+-").isdigit()


def load_votes(path) -> VoteTable:
    """Read a vote CSV (header optional) into a ``VoteTable``.

    Every field is a non-negative integer; duplicate (node, sample) pairs
    are errors.  The file is parsed once, in place: its first line alone
    is read to tell a header, then ``load_table`` iterates the rest of the
    open file, with no copy of its text, and ``VoteTable`` keeps rows that
    already ascend and sorts any others once, which finds any repeated
    pair, and refuses a negative field.  Only where that fails is the text
    read, line by line, to name its first bad line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if not _header_row(next(csv.reader([fh.readline().removesuffix("\n")]), [])):
                fh.seek(0)
            table = load_table(fh, np.int64, delimiter=",")
    except ValueError:          # a first line that is not UTF-8: reading the text raises it again
        table = None
    if table is not None and (table.shape[0] == 0 or table.shape[1] == 3):
        try:
            return VoteTable(rows=table)
        except VoteFormatError:
            pass                # a repeated pair or a negative field: the line pass names its line

    text = read_text(path)
    seen: dict[int, set[int]] = {}
    for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if blank_row(row) or (lineno == 1 and _header_row(row)):
            continue
        if len(row) != 3:
            raise VoteFormatError(
                f"{path}: line {lineno}: expected node_id,sample_index,class"
            )
        try:
            if not all(map(numpy_readable, row)):
                raise ValueError
            node, sample_index, cls = (int(x) for x in row)
        except ValueError:
            raise VoteFormatError(
                f"{path}: line {lineno}: non-integer field in {row!r}"
            ) from None
        if min(node, sample_index, cls) < 0:
            raise VoteFormatError(
                f"{path}: line {lineno}: negative field in {row!r}"
            )
        if max(node, sample_index, cls) >= 2 ** 63:
            raise VoteFormatError(f"{path}: line {lineno}: field out of range in {row!r}")
        per_node = seen.setdefault(node, set())
        if sample_index in per_node:
            raise VoteFormatError(
                f"{path}: line {lineno}: duplicate vote for node {node}, "
                f"sample {sample_index}"
            )
        per_node.add(sample_index)
    raise VoteFormatError(f"{path}: not a node_id,sample_index,class CSV")

