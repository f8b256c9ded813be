"""Monte-Carlo estimation of the smoothed classifier and the certificate rule.

The smoothed prediction for a node is the majority vote of the base
classifier over interception samples.  A first round of ``n0`` samples fixes
the majority and runner-up classes; a disjoint round of ``n1`` samples feeds
one-sided Clopper-Pearson bounds on their probabilities (Bonferroni split
alpha/2 + alpha/2 so both hold simultaneously).  A budget rho is certified
when the lower bound minus the worst-case arrival probability still beats
the upper bound plus it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import special

from .errors import InsufficientSamplesError
from .graph import Graph
from .gcn import GnnModel, LocalScorer, TwoHop, VoteTable
from .smoothing import SmoothingConfig
from . import smoothing
from .bounds import DeltaBound

CP_BISECTION_TOL = 1e-10


def _beta_quantile(q: float, a: float, b: float) -> float:
    """Quantile of Beta(a, b) by bisection on the regularized incomplete beta."""
    lo, hi = 0.0, 1.0
    while hi - lo > CP_BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if special.betainc(a, b, mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def clopper_pearson(successes: int, n: int, alpha_side: float, side: str) -> float:
    """Exact one-sided Bernoulli confidence bound.

    ``side='lower'``: the alpha_side quantile of Beta(successes,
    n - successes + 1), with the 0-successes boundary pinned at 0.
    ``side='upper'``: the (1 - alpha_side) quantile of
    Beta(successes + 1, n - successes), with the all-successes boundary
    pinned at 1.
    """
    if not 0 <= successes <= n or n <= 0:
        raise ValueError(f"invalid counts: {successes} successes of {n}")
    if not 0.0 < alpha_side < 1.0:
        raise ValueError(f"alpha_side must be in (0, 1), got {alpha_side}")
    if side == "lower":
        if successes == 0:
            return 0.0
        return _beta_quantile(alpha_side, successes, n - successes + 1)
    if side == "upper":
        if successes == n:
            return 1.0
        return _beta_quantile(1.0 - alpha_side, successes + 1, n - successes)
    raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")


@dataclass(frozen=True)
class VoteTally:
    """Vote counts for one node: selection round fixes classes, second round counts."""

    node: int
    counts: np.ndarray      # per-class counts over the certification round
    y_star: int
    y_tilde: int
    n0: int
    n1: int
    alpha: float


@dataclass(frozen=True)
class CertificateResult:
    node: int
    prediction: int
    abstain: bool
    p_lower: float
    p_upper: float
    certified_radius: dict[int, int]    # d_min -> largest certified budget
    correct: bool | None = None


def _vote_chunks(model: GnnModel, g: Graph, cfg: SmoothingConfig,
                 n_samples: int, nodes: np.ndarray):
    """Smoothed votes of samples 0..n_samples-1, one ``LocalScorer`` pass at a time.

    Yields ``(lo, classes)``, ``classes`` being a new (b, len(nodes)) array
    whose row j holds the votes under sample ``lo + j``.  Samples are keyed
    by index, so a node sees bitwise the same sampled graphs whether it is
    evaluated alone or with others.  Only the two-hop in-neighbourhood of
    ``nodes`` is read; the hidden rows are bitwise those of one full-graph
    forward per sample.  ``W2`` stays one product per sample, because BLAS
    rounds products of few rows differently: 1-row slices of a 2708 x 64 @
    64 x 7 product differ from the whole product in the last bits on most
    rows, while 20-row slices match.
    """
    if not len(nodes):
        return
    hood = TwoHop(g, nodes)

    def fill(lo, kept, ablated):
        b = min(len(kept), n_samples - lo)
        for j in range(b):
            s = smoothing.sample(g, cfg, lo + j)
            np.take(s.edge_mask, hood.edges, out=kept[j], mode="clip")   # no temporary
            np.take(s.ablated, hood.nodes, out=ablated[j], mode="clip")
        return b

    for lo, scores in LocalScorer(model, g).scores(hood, fill, ablation=True):
        yield lo, np.argmax(scores, axis=2)


def estimate_all(
    classifier: GnnModel | VoteTable,
    g: Graph | None,
    nodes,
    cfg: SmoothingConfig,
    n0: int,
    n1: int,
    alpha: float,
) -> dict[int, VoteTally]:
    """Vote tallies for many nodes, sharing one sample stream.

    Selection uses sample indices 0..n0-1 and the tally uses n0..n0+n1-1, so
    the class choice is independent of the counts the confidence bounds see.
    Votes are counted per chunk of samples; they are never all held at once.
    """
    if n0 < 1 or n1 < 1:
        raise ValueError("n0 and n1 must be >= 1")
    nodes = np.asarray(sorted(int(v) for v in nodes), dtype=np.int64)

    if isinstance(classifier, VoteTable):
        classes = max(classifier.classes, 2)
        preds = np.empty((n0 + n1, len(nodes)), dtype=np.int64)
        for j, v in enumerate(nodes):
            per_node = classifier.votes.get(int(v), {})
            try:
                preds[:, j] = [per_node[i] for i in range(n0 + n1)]
            except KeyError as missing:
                raise InsufficientSamplesError(
                    f"vote table lacks sample {missing.args[0]} for node {v} "
                    f"(need {n0 + n1} samples)"
                ) from None
        chunks = [(0, preds)]
    else:
        classes = classifier.classes
        chunks = _vote_chunks(classifier, g, cfg, n0 + n1, nodes)

    # flat key of a vote: (round, node, class), round 1 being the tally
    counts = np.zeros(2 * len(nodes) * classes, dtype=np.int64)
    cells = np.arange(len(nodes)) * classes
    for lo, preds in chunks:
        tally_round = np.arange(lo, lo + len(preds)) >= n0
        keys = tally_round[:, None] * (len(nodes) * classes) + cells + preds
        counts += np.bincount(keys.ravel(), minlength=counts.size)
    sel_counts, tally_counts = counts.reshape(2, len(nodes), classes)

    out: dict[int, VoteTally] = {}
    for j, v in enumerate(nodes):
        y_star = int(np.argmax(sel_counts[j]))
        runner = sel_counts[j].copy()
        runner[y_star] = -1
        y_tilde = int(np.argmax(runner))
        out[int(v)] = VoteTally(node=int(v), counts=tally_counts[j], y_star=y_star,
                                y_tilde=y_tilde, n0=n0, n1=n1, alpha=alpha)
    return out


def estimate(classifier, g, v: int, cfg: SmoothingConfig,
             n0: int, n1: int, alpha: float) -> VoteTally:
    return estimate_all(classifier, g, [v], cfg, n0, n1, alpha)[int(v)]


def confidence_bounds(tally: VoteTally) -> tuple[float, float]:
    """Simultaneous (Bonferroni alpha/2) lower/upper bounds on the two classes."""
    p_lower = clopper_pearson(int(tally.counts[tally.y_star]), tally.n1,
                              tally.alpha / 2.0, "lower")
    p_upper = clopper_pearson(int(tally.counts[tally.y_tilde]), tally.n1,
                              tally.alpha / 2.0, "upper")
    return p_lower, p_upper


def radius(p_lower: float, p_upper: float, deltas: Iterable[float],
           binary: bool = False) -> int:
    """Largest certified budget, given ``deltas`` = delta(1), delta(2), ...

    Budget rho is certified iff p_lower - delta(rho) > p_upper + delta(rho),
    or in binary mode iff p_lower - delta(rho) > 1/2.  The scan reads no
    delta past the first failure: delta is non-decreasing in rho.
    """
    certified = 0
    for rho, delta in enumerate(deltas, start=1):
        ok = (p_lower - delta > 0.5) if binary else (p_lower - delta > p_upper + delta)
        if not ok:
            break
        certified = rho
    return certified


def certify(
    tally: VoteTally,
    curves: Mapping[int, Sequence[DeltaBound]],
    label: int | None = None,
    binary: bool = False,
) -> CertificateResult:
    """Certificate for one node across the requested minimum attacker distances.

    ``curves[d_min][rho - 1]`` bounds the arrival probability at budget rho;
    budgets 1..len(curve) are scanned.  Abstains (radius 0) when the
    confidence bounds overlap.  Otherwise each radius is ``radius`` of the
    confidence bounds and the curve's values.
    """
    p_lower, p_upper = confidence_bounds(tally)
    abstain = p_lower <= p_upper
    radii = {d_min: 0 if abstain else
             radius(p_lower, p_upper, (b.value for b in curves[d_min]), binary)
             for d_min in sorted(curves)}
    correct = None if label is None else bool(tally.y_star == label and not abstain)
    return CertificateResult(
        node=tally.node, prediction=tally.y_star, abstain=abstain,
        p_lower=p_lower, p_upper=p_upper, certified_radius=radii,
        correct=correct,
    )


# ---------------------------------------------------------------------------
# summaries


def report(results, surfaces: Mapping[int, Mapping[int, int]]) -> dict:
    """Aggregate certificates into curves and scalar metrics.

    ``surfaces[node][d_min]`` is the node's attack-surface size.

    Emits, per minimum distance: the certified-ratio step curve over integer
    radii, the certified-accuracy curve (correct, non-abstaining, and
    certified), the normalized curve over radius / attack-surface size, and
    the areas under both.  The unnormalized area is the plain step sum over
    integer radii; the normalized area is a trapezoid over the node-specific
    breakpoints.  Nodes with an empty attack surface count as fully
    certified (normalized radius 1) unless they abstained.
    """
    results = list(results)
    if not results:
        raise ValueError("no results to report")
    d_mins = sorted({dm for r in results for dm in r.certified_radius})
    have_labels = all(r.correct is not None for r in results)

    summary: dict = {
        "nodes": len(results),
        "abstain_rate": float(np.mean([r.abstain for r in results])),
        "clean_accuracy": (
            float(np.mean([bool(r.correct) for r in results]))
            if have_labels else None
        ),
        "per_d_min": {},
        "conventions": {
            "aucrc": "sum of certified ratio over integer radii 0..max",
            "aucrc_normalized": "trapezoid over radius/attack-surface breakpoints in [0,1]",
            "attack_surface": "receptive-field members at hop distance >= d_min",
            "empty_surface": "normalized radius 1 unless abstained",
        },
    }

    for dm in d_mins:
        radii = np.array([r.certified_radius.get(dm, 0) for r in results])
        max_r = int(radii.max()) if len(radii) else 0
        ratio = [float(np.mean(radii >= r)) for r in range(max_r + 1)]
        entry: dict = {
            "certified_ratio": ratio,
            "aucrc": float(math.fsum(ratio)),
        }
        if have_labels:
            good = np.array([bool(r.correct) for r in results])
            entry["certified_accuracy"] = [
                float(np.mean(good & (radii >= r))) for r in range(max_r + 1)
            ]
            entry["aucrc_accuracy"] = float(math.fsum(entry["certified_accuracy"]))

        norm = []
        for res, r in zip(results, radii):
            surface = surfaces[res.node][dm]
            if surface > 0:
                norm.append(min(1.0, r / surface))
            else:
                norm.append(0.0 if res.abstain else 1.0)
        norm = np.array(norm)
        xs = sorted({0.0, 1.0, *map(float, norm)})
        ys = [float(np.mean(norm >= x)) for x in xs]
        entry["normalized_curve"] = {"x": xs, "ratio": ys}
        entry["aucrc_normalized"] = float(np.trapezoid(ys, xs))
        summary["per_d_min"][dm] = entry

    return summary
