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
graph (smoothing samples, derandomization views) in one block-diagonal
sparse pass over that neighbourhood, with the hidden rows bitwise those of
the full forward.  ``forward``, ``forward_all`` and ``train`` run on the
whole graph.

External classifiers are supported through vote files instead of live
models, so certification is not tied to this architecture.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
from dataclasses import dataclass, asdict

import numpy as np
from scipy import sparse

from .errors import ConfigError, VoteFormatError
from .graph import Graph, numpy_readable, read_table, read_text
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


def normalized_adjacency(n: int, edges: np.ndarray,
                         extra_degree: np.ndarray | None = None) -> sparse.csr_matrix:
    """Symmetric degree-normalized aggregation matrix with self-loops, as CSR.

    Row = receiver, column = sender; entry ``(r, c)`` is
    ``inv_sqrt[r] * inv_sqrt[c]`` with ``inv_sqrt = 1 / sqrt(in-degree + 1)``.
    Degrees are counted from the surviving edges of a sample, never the
    clean graph: using clean-graph degrees would leak which edges were
    deleted.  ``edges`` holds distinct ``(src, dst)`` pairs without
    self-loops, as every ``Graph`` stores them.  ``extra_degree[r]`` counts
    surviving in-edges of ``r`` left out of ``edges``: they carry no message
    here but count in the degree, so a block cut from a larger graph keeps
    that graph's normalization.
    """
    # sorting the flat keys row * n + col yields canonical CSR order directly
    key = np.concatenate([edges[:, 1] * n + edges[:, 0], np.arange(n) * (n + 1)])
    key.sort()
    rows, cols = np.divmod(key, n)
    counts = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    degree = counts if extra_degree is None else counts + extra_degree
    inv_sqrt = 1.0 / np.sqrt(degree.astype(np.float64))
    return sparse.csr_matrix((inv_sqrt[rows] * inv_sqrt[cols], cols, indptr),
                             shape=(n, n))


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def propagate(a_hat: sparse.csr_matrix, xw1: np.ndarray,
              rows: np.ndarray | None = None,
              skip_h: np.ndarray | None = None):
    """The model's two-layer aggregation, shared by inference and training.

    ``xw1`` is the first layer's dense product ``X @ W1``: aggregation
    commutes with it, so a caller can compute it once and patch ablated rows
    with ``token @ W1``.  ``skip_h`` is the skip path's hidden layer
    ``relu(X_clean @ W1)``, added before ``W2``.  Returns the hidden
    pre-activation ``z1`` and the hidden input to ``W2``; the caller applies
    ``W2``.

    With ``rows`` the second layer runs for those nodes only, and the first
    for the nodes they read (their in-neighbours and themselves), so ``z1``
    holds those nodes' rows, ascending.  A CSR product computes each row on
    its own, in column order, so every row is bitwise the full pass's.
    """
    if rows is None:
        z1 = a_hat @ xw1
        h2 = a_hat @ _relu(z1)
    else:
        second = a_hat[rows]
        read = np.zeros(a_hat.shape[0], dtype=bool)
        read[second.indices] = True
        z1 = a_hat[read] @ xw1
        rank = np.cumsum(read) - 1          # column -> row of z1, order kept
        second = sparse.csr_matrix((second.data, rank[second.indices], second.indptr),
                                   shape=(second.shape[0], z1.shape[0]))
        h2 = second @ _relu(z1)
    if skip_h is not None:
        h2 = h2 + (skip_h if rows is None else skip_h[rows])
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


def predict_all(model: GnnModel, g: Graph,
                clean_features: np.ndarray | None = None) -> np.ndarray:
    """Argmax class per node; ties resolve to the lowest class index."""
    return np.argmax(forward_all(model, g, clean_features=clean_features), axis=1)


# ---------------------------------------------------------------------------
# batched two-hop-local inference

_CHUNK_BYTES = 2 << 20      # working set of one block-diagonal pass


class TwoHop:
    """The two-hop in-neighbourhood ``V`` of target rows ``R``: all their scores read.

    ``nodes`` is ``V`` ascending; ``edges`` indexes, ascending, the graph
    edges whose receiver lies in ``V``.  A variant of the graph is a kept
    mask over ``edges``.  Senders of ``edges`` may lie outside ``V``: such an
    edge carries no message to ``R`` but counts in its receiver's degree,
    which scales the messages that do.  ``V`` comes from the graph, so it
    holds whatever a deletion anywhere can change about ``R``'s scores.
    """

    def __init__(self, g: Graph, rows):
        self.rows = np.asarray(rows, dtype=np.int64).reshape(-1)
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
        self._n_read = np.count_nonzero(in_u)
        self.edges = np.flatnonzero(in_v[dst])
        self._senders = src[self.edges]
        self._receivers = dst[self.edges]
        to_u = in_u[self._receivers]
        # edges into U carry messages; edges into V \ U only count in degrees
        self._inner = np.flatnonzero(to_u)
        self._outer = np.flatnonzero(~to_u)
        self._inner_src = self._local(self._senders[self._inner])
        self._inner_dst = self._local(self._receivers[self._inner])
        self._outer_dst = self._local(self._receivers[self._outer])
        self._targets = self._local(self.rows)

    def _local(self, ids: np.ndarray) -> np.ndarray:
        # ranks in ascending ``nodes``, so a block's columns keep the graph's order
        return np.searchsorted(self.nodes, ids)

    def adjacency(self, kept: np.ndarray) -> sparse.csr_matrix:
        """Block-diagonal ``normalized_adjacency`` of the variants ``kept`` (b, |edges|).

        Block ``i`` holds variant ``i`` on ``V``.  Its rows for ``R`` and
        their in-neighbours are bitwise the rows of that variant's full
        matrix; other rows hold only their self-loop.
        """
        b, nv = kept.shape[0], self.nodes.size
        offset = np.arange(b, dtype=np.int64)[:, None] * nv
        inner = kept[:, self._inner]
        edges = np.stack([(offset + self._inner_src)[inner],
                          (offset + self._inner_dst)[inner]], axis=1)
        extra = np.bincount((offset + self._outer_dst)[kept[:, self._outer]],
                            minlength=b * nv)
        return normalized_adjacency(b * nv, edges, extra)

    def block_rows(self, b: int) -> np.ndarray:
        """Rows of ``R`` in a ``b``-block matrix, variant-major."""
        return (np.arange(b, dtype=np.int64)[:, None] * self.nodes.size
                + self._targets).reshape(-1)

    def kept_without(self, deleted) -> np.ndarray:
        """(len(deleted), |edges|) kept masks with each set of nodes deleted.

        An edge survives when neither endpoint is deleted, as in
        ``Graph.without_nodes``.
        """
        ends = np.union1d(self.nodes, self._senders)
        sizes = [len(d) for d in deleted]
        flat = np.fromiter(itertools.chain.from_iterable(deleted), dtype=np.int64,
                           count=sum(sizes))
        which = np.repeat(np.arange(len(sizes)), sizes)
        hit = np.isin(flat, ends)           # deletions that touch no edge do nothing
        drop = np.zeros((len(sizes), ends.size), dtype=bool)
        drop[which[hit], np.searchsorted(ends, flat[hit])] = True
        return ~(drop[:, np.searchsorted(ends, self._senders)]
                 | drop[:, np.searchsorted(ends, self._receivers)])


class LocalScorer:
    """Class scores of one model on many variants of one graph, two-hop-locally.

    ``X @ W1`` (and the skip path's ``relu(X @ W1)``) is computed once for
    the whole graph, so the rows a variant reads are bitwise those of the
    full forward; ablated rows are the model's ``token @ W1``.  Variants are
    scored in chunks under a fixed byte budget, so memory grows with ``|V|``
    times the chunk, not with the graph or the number of variants.
    """

    def __init__(self, model: GnnModel, g: Graph):
        _check_dim(model, g)
        self.model, self.g = model, g
        self.xw1 = g.features @ model.w1
        self.token_w1 = model.token @ model.w1
        self.skip_h = _relu(self.xw1) if model.skip else None
        self._x = np.empty(0)

    def chunk(self, hood: TwoHop) -> int:
        """Variants per block-diagonal pass under the byte budget."""
        nv, h = hood.nodes.size, self.model.hidden
        per_variant = 8 * (nv * h + 2 * hood._n_read * h    # X W1 rows, z1, relu(z1)
                           + hood.rows.size * (h + self.model.classes)
                           + 6 * (nv + hood._inner.size))   # building the CSR block
        return max(1, _CHUNK_BYTES // per_variant)

    def hidden(self, hood: TwoHop, kept: np.ndarray,
               ablated: np.ndarray | None = None) -> np.ndarray:
        """(b, |R|, hidden) input to ``W2`` of every variant, in one pass.

        ``ablated`` (b, |V|) marks rows read as ``token @ W1``.  The stacked
        ``X @ W1`` rows go to a buffer the scorer keeps from pass to pass.
        """
        b, nv, h = kept.shape[0], hood.nodes.size, self.model.hidden
        if self._x.size < b * nv * h:
            self._x = np.empty(b * nv * h)
        x = self._x[:b * nv * h].reshape(b, nv, h)
        # mode "clip" writes straight into ``out``; "raise" fills a temporary first
        np.take(self.xw1, hood.nodes, axis=0, out=x[0], mode="clip")
        x[1:] = x[0]
        if ablated is not None:
            x[ablated] = self.token_w1
        h2 = propagate(hood.adjacency(kept), x.reshape(b * nv, h),
                       rows=hood.block_rows(b))[1].reshape(b, hood.rows.size, h)
        if self.skip_h is not None:
            h2 += self.skip_h[hood.rows]
        return h2

    def scores(self, hood: TwoHop, fill, ablation: bool = False):
        """Scores of variants ``0, 1, ...`` of the graph, one pass per chunk.

        ``fill(lo, kept, ablated)`` writes the masks of variants ``lo, lo +
        1, ...`` into the first rows of ``kept`` (chunk, |edges|) and, with
        ``ablation``, of ``ablated`` (chunk, |V|; else None), and returns how
        many it wrote; fewer than a chunk ends the stream.  Yields ``(lo,
        scores)`` per chunk, ``scores`` (b, |R|, classes) being a buffer the
        next chunk overwrites, as are the masks.  ``W2`` is applied per
        variant (``matmul`` over the stack), so each product has the shape
        of a one-graph pass over ``R``.
        """
        step = self.chunk(hood)
        kept = np.empty((step, hood.edges.size), dtype=bool)
        ablated = np.empty((step, hood.nodes.size), dtype=bool) if ablation else None
        out = np.empty((step, hood.rows.size, self.model.classes))
        lo, b = 0, step
        while b == step:
            b = fill(lo, kept, ablated)
            if b:
                h2 = self.hidden(hood, kept[:b], None if ablated is None else ablated[:b])
                yield lo, np.matmul(h2, self.model.w2, out=out[:b])
                lo += b

    def predict_without(self, v: int, deleted) -> list[int]:
        """Class of ``v`` with each set of nodes deleted: ``derandomize``'s batch ``predict``.

        ``deleted`` is an iterable of node sets, read one chunk at a time,
        so memory does not grow with the number of sets.  The hidden rows
        are bitwise ``forward``'s, but ``W2`` multiplies one row here and
        all rows there, and BLAS rounds the two products differently in the
        last bits: at a near-tie of two classes this classifier and
        ``forward``'s argmax may pick different ones.
        """
        hood = TwoHop(self.g, [v])
        deleted = iter(deleted)

        def fill(lo, kept, _):
            sets = list(itertools.islice(deleted, len(kept)))
            kept[:len(sets)] = hood.kept_without(sets)
            return len(sets)

        out: list[int] = []
        for _, scores in self.scores(hood, fill):
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
    drop_mask: np.ndarray | None = None,
    drop_scale: float = 1.0,
):
    """Cross-entropy loss on ``idx`` plus L2, with gradients for w1, w2, token.

    ``x`` is the post-ablation feature matrix (token rows already written),
    so the token gradient is the sum of feature-row gradients over ablated
    nodes.  ``drop_mask`` (inverted-dropout, already including the 1/(1-p)
    scale via ``drop_scale``) applies to both the message path and the skip
    path.
    """
    xd = x * drop_mask * drop_scale if drop_mask is not None else x
    s_pre = None
    if model.skip:
        xc = x if clean_x is None else clean_x
        xcd = xc * drop_mask * drop_scale if drop_mask is not None else xc
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
    if drop_mask is not None:
        d_x *= drop_mask[ablated] * drop_scale
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


def split_labeled(labeled, labels: np.ndarray, seed: int) -> tuple[list[int], list[int]]:
    """Deterministic per-class half/half split of the labeled set into train/val."""
    rng = np.random.default_rng((int(seed), 0xBEEF))
    by_class: dict[int, list[int]] = {}
    for v in sorted(int(x) for x in labeled):
        by_class.setdefault(int(labels[v]), []).append(v)
    train, val = [], []
    for c in sorted(by_class):
        nodes = by_class[c]
        perm = rng.permutation(len(nodes))
        half = max(1, len(nodes) // 2)
        train.extend(nodes[i] for i in perm[:half])
        val.extend(nodes[i] for i in perm[half:])
    return sorted(train), sorted(val)


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
    classes = int(g.labels[labeled].max()) + 1
    if classes < 2:
        raise ConfigError("training needs at least two classes")

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

    train_idx, val_idx = split_labeled(labeled, g.labels, cfg.seed)
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
        if cfg.dropout > 0.0:
            drop_mask = rng.random(x.shape) < keep_prob
            drop_scale = 1.0 / keep_prob
        else:
            drop_mask, drop_scale = None, 1.0

        loss, d_w1, d_w2, d_token = loss_and_grads(
            model, a_hat, x, g.labels, train_idx, s.ablated,
            cfg.weight_decay, clean_x=g.features,
            drop_mask=drop_mask, drop_scale=drop_scale,
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


def save_checkpoint(model: GnnModel, path, train_config: TrainConfig | None = None,
                    extra: dict | None = None) -> None:
    payload = {
        "w1": model.w1.tolist(),
        "w2": model.w2.tolist(),
        "token": model.token.tolist(),
        "skip": bool(model.skip),
        "hidden": model.hidden,
        "classes": model.classes,
        "feature_dim": model.dim,
        "train_config": asdict(train_config) if train_config else None,
    }
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> tuple[GnnModel, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    model = GnnModel(
        w1=np.asarray(payload["w1"], dtype=np.float64),
        w2=np.asarray(payload["w2"], dtype=np.float64),
        token=np.asarray(payload["token"], dtype=np.float64),
        skip=bool(payload["skip"]),
    )
    return model, payload


@dataclass
class VoteTable:
    """Predictions of an external classifier, per (node, sample index)."""

    votes: dict[int, dict[int, int]]

    @functools.cached_property
    def classes(self) -> int:
        """1 + the largest class voted; counted once per table."""
        return 1 + max((max(per_node.values()) for per_node in self.votes.values()
                        if per_node), default=-1)


def save_votes(path, rows) -> None:
    """Write (node_id, sample_index, class) rows as CSV with a header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "sample_index", "class"])
        for node, sample_index, cls in rows:
            writer.writerow([int(node), int(sample_index), int(cls)])


def _blank_row(row: list[str]) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _header_row(row: list[str]) -> bool:
    """Whether a first CSV row is a header: a non-blank row not led by an integer."""
    return not _blank_row(row) and not row[0].strip().lstrip("-").isdigit()


def load_votes(path) -> VoteTable:
    """Read a vote CSV (header optional).

    Every field is a non-negative integer; duplicate (node, sample) pairs are
    errors.  ``votes`` keeps nodes in order of first appearance and each
    node's samples in file order.
    """
    text = read_text(path)
    first, _, rest = text.partition("\n")
    table = read_table(rest if _header_row(next(csv.reader([first]), [])) else text,
                       np.int64, delimiter=",")
    if table is not None and (table.shape[0] == 0
                              or (table.shape[1] == 3 and table.min() >= 0)):
        votes = _group_votes(table.reshape(-1, 3))
        if sum(map(len, votes.values())) == table.shape[0]:    # no duplicate pair
            return VoteTable(votes=votes)

    seen: dict[int, set[int]] = {}
    for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if _blank_row(row) or (lineno == 1 and _header_row(row)):
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


def _group_votes(table: np.ndarray) -> dict[int, dict[int, int]]:
    """``{node: {sample: class}}`` from (node, sample, class) rows.

    A duplicate (node, sample) pair keeps one entry, so the entries number
    fewer than the rows.
    """
    if table.shape[0] == 0:
        return {}
    nodes = table[:, 0]
    order = np.argsort(nodes, kind="stable")        # by node, file order within
    groups = np.split(order, np.flatnonzero(np.diff(nodes[order])) + 1)
    groups.sort(key=lambda rows: rows[0])           # nodes by first appearance
    return {int(nodes[rows[0]]): dict(zip(table[rows, 1].tolist(), table[rows, 2].tolist()))
            for rows in groups}
