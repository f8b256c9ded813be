"""Deterministic label probabilities under keep-k node-deletion smoothing.

Instead of ablating features at random, the simplified distribution keeps a
uniformly chosen set of exactly k receptive-field nodes (plus the target)
and deletes the rest.  Retention sets whose surviving connected-to-target
core is identical produce identical predictions, so the support collapses
into equivalence classes: one classifier evaluation per class, weighted by
the class size, gives the label probabilities exactly.  Class sizes are
binomial coefficients, so everything stays in integer / rational arithmetic.

The classifier is called once per field with every class's retained set,
``predict(rf, retained) -> classes``: the class of ``rf.target`` when a set
is kept and every other member of ``rf`` is deleted.  A retained set is a
representative's ``nodes``, at most k+1 of them, so the call holds no set
that the representatives do not already hold, and the classifier's work
grows with k, not with the field: the deleted sets, ``rf.members - r``,
are never built.  A model scores all of them in batches
(``gcn.LocalScorer.predict_retaining``, which holds its graph), each from
its retained nodes alone: the variant holds them and the edges between
them, plus each kept node's count of in-edges from outside the field, and
no two-hop hood or mask over its edges is built (``gcn.Retention``).
``retained`` is an iterable read once, in order.  ``per_view(g, predict)``
adapts a classifier of one graph view, ``predict(view, target) -> class``,
to that contract, one ``g.without_nodes`` per set: the slow reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import EnumerationRefused, IncompleteRepresentativesError
from .graph import Graph, ReceptiveField

DEFAULT_TAU = 100_000


@dataclass(frozen=True)
class ReducedRepresentative:
    """Connected-to-target core shared by one equivalence class of retention sets.

    ``beta`` is the class size: the number of full retention sets whose
    surviving core equals ``nodes``.
    """

    nodes: frozenset[int]
    beta: int


def retention_count(field_size_excl_target: int, k_rel: float) -> int:
    """Nodes to retain: ceil(d * k_rel), guarded against float round-up noise."""
    d = int(field_size_excl_target)
    if d < 0:
        raise ValueError("field size must be >= 0")
    if d == 0:
        return 0
    return max(0, math.ceil(d * float(k_rel) - 1e-9))


def _undirected_adjacency(rf: ReceptiveField) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {w: set() for w in rf.members}
    for a, b in rf.edges_within:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def enumerate_representatives(
    rf: ReceptiveField,
    k: int,
    tau: int | None = DEFAULT_TAU,
) -> list[ReducedRepresentative]:
    """All reduced representatives with their multiplicities.

    Grows connected sets from the target: a set S of at most k+1 nodes that
    is connected to the target represents C(|V| - |N(S)| - |S|, k+1 - |S|)
    retention sets, one per way of padding S with nodes that do not touch S
    (padding stays disconnected from the target, so the surviving core is S
    itself).  Multiplicities sum to C(d, k) over the complete enumeration.
    Refuses when the fast upper bound C(d, k) on the class count exceeds
    ``tau``.
    """
    if k < 0:
        raise ValueError("retention count k must be >= 0")
    members = rf.members
    d = len(members) - 1
    total = math.comb(d, k) if k <= d else 0
    if k > d:
        raise ValueError(f"cannot retain {k} of {d} non-target field nodes")
    if tau is not None and total > tau:
        raise EnumerationRefused(
            f"C({d}, {k}) = {total} exceeds budget {tau}; "
            f"fall back to Monte-Carlo estimation"
        )

    adj = _undirected_adjacency(rf)
    n_field = len(members)
    found: dict[frozenset[int], int] = {}
    seen: set[frozenset[int]] = set()

    def grow(s: frozenset[int]) -> None:
        if s in seen:
            return
        seen.add(s)
        if len(s) == k + 1:
            found[s] = 1
            return
        nbr = set()
        for u in s:
            nbr |= adj[u]
        nbr -= s
        beta = math.comb(n_field - len(nbr) - len(s), k + 1 - len(s))
        if beta > 0:
            found[s] = beta
        for w in sorted(nbr):
            grow(s | {w})

    grow(frozenset({rf.target}))
    return [
        ReducedRepresentative(nodes=s, beta=b)
        for s, b in sorted(found.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    ]


# ``predict(rf, retained)``: the class of ``rf.target`` with each retained
# set kept and the rest of ``rf.members`` deleted, in order
BatchPredict = Callable[[ReceptiveField, Iterable[frozenset[int]]], Sequence[int]]


def per_view(g: Graph, predict: Callable[[Graph, int], int]) -> BatchPredict:
    """The batch contract for a classifier of one view: one ``g.without_nodes`` per set."""
    def batch(rf: ReceptiveField, retained) -> list[int]:
        return [predict(g.without_nodes(rf.members - r), rf.target) for r in retained]
    return batch


def exact_label_probs(
    rf: ReceptiveField,
    reps: list[ReducedRepresentative],
    k: int,
    predict: BatchPredict,
    classes: int,
) -> tuple[Fraction, ...]:
    """Exact per-class probabilities from one evaluation per representative.

    ``predict(rf, retained)`` is called once, with each representative's
    nodes as its retained set, and returns the target's class in the
    classifier's graph with the other field nodes deleted (isolated), in
    order.
    Probabilities are exact rationals over C(d, k) and sum to 1.
    """
    d = len(rf.members) - 1
    total = math.comb(d, k)
    covered = sum(r.beta for r in reps)
    if covered != total:
        raise IncompleteRepresentativesError(
            f"multiplicities cover {covered} of C({d}, {k}) = {total} retention sets"
        )
    counts = [0] * classes
    predicted = predict(rf, [rep.nodes for rep in reps])
    for rep, c in zip(reps, predicted, strict=True):
        counts[int(c)] += rep.beta
    return tuple(Fraction(c, total) for c in counts)


def savings_ratio(reps: list[ReducedRepresentative], d: int, k: int) -> float:
    """Fraction of the support that actually had to be evaluated."""
    total = math.comb(d, k)
    return len(reps) / total if total else 1.0
