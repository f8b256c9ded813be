"""Monte-Carlo estimation of the smoothed classifier and the certificate rule.

The smoothed prediction for a node is the majority vote of the base
classifier over interception samples.  The votes come from a vote file or
from ``gcn.LocalScorer.sample_votes``; this module tallies and certifies.
A first round of ``n0`` samples fixes the majority and runner-up classes;
a disjoint round of ``n1`` samples feeds one-sided Clopper-Pearson bounds
on their probabilities (Bonferroni split alpha/2 + alpha/2 so both hold
simultaneously).  A budget rho is certified when the lower bound minus the
worst-case arrival probability still beats the upper bound plus it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy import special

from .errors import InsufficientSamplesError
from .graph import Graph
from .gcn import GnnModel, LocalScorer, VoteTable
from .smoothing import SmoothingConfig
from .bounds import DeltaBound

CP_BISECTION_TOL = 1e-10
# the width of the last bracket: halving [0, 1] stops at the first power of
# two at most CP_BISECTION_TOL, 2**-34
CP_CELL = 2.0 ** math.floor(math.log2(CP_BISECTION_TOL))


def _beta_quantile(q, a, b) -> np.ndarray:
    """Quantiles of Beta(a, b), elementwise: the midpoint of the last bracket of a bisection.

    A bisection of [0, 1] on ``betainc(a, b, x) < q`` halves every width
    exactly (the ends are dyadic) and stops at a cell of the ``CP_CELL``
    grid whose left end passes the test (or is 0) and whose right end
    fails it (or is 1).  Where the test is monotone on the grid, only one
    cell does, so it is found straight from ``betaincinv``'s estimate: the
    grid cell holding the estimate, kept where its ends test as a
    bisection's last cell does.  The few elements where they do not are
    bisected as before.  Where the test is monotone, each value is the one
    a bisection of that element alone gives, bit for bit; monotonicity is
    not checked here, and where it fails, the cell kept is still a valid
    last bracket but may not be the one bisection reaches.  Bit equality
    was checked on 118,902 values (``tests/test_estimator.py``).
    """
    cell = np.floor(special.betaincinv(a, b, q) / CP_CELL)
    lo = np.clip(cell, 0.0, 1.0 / CP_CELL - 1.0) * CP_CELL
    hi = lo + CP_CELL
    miss = ~(((lo == 0.0) | (special.betainc(a, b, lo) < q))
             & ((hi == 1.0) | ~(special.betainc(a, b, hi) < q)))
    if miss.any():
        lo[miss], hi[miss] = _bisect(q[miss], a[miss], b[miss])
    return 0.5 * (lo + hi)


def _bisect(q, a, b) -> tuple[np.ndarray, np.ndarray]:
    """The last brackets of a bisection of [0, 1] to ``CP_BISECTION_TOL``, elementwise.

    Every element starts at [0, 1] and every step halves every width, so
    all elements stop together, after the 34 steps one element alone takes.
    """
    lo = np.zeros(np.shape(q))
    hi = np.ones(np.shape(q))
    while np.any(hi - lo > CP_BISECTION_TOL):
        mid = 0.5 * (lo + hi)
        below = special.betainc(a, b, mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return lo, hi


def clopper_pearson(successes, n, alpha_side, side):
    """Exact one-sided Bernoulli confidence bound, elementwise over broadcast arrays.

    ``side='lower'``: the alpha_side quantile of Beta(successes,
    n - successes + 1), with the 0-successes boundary pinned at 0.
    ``side='upper'``: the (1 - alpha_side) quantile of
    Beta(successes + 1, n - successes), with the all-successes boundary
    pinned at 1.  Scalar arguments give a float; any array gives an array
    of the same floats, from one bisection for all elements.
    """
    s, n_, alpha, side_ = np.broadcast_arrays(successes, n, alpha_side, side)
    lower = side_ == "lower"
    for bad, message in (
            (~((0 <= s) & (s <= n_) & (n_ > 0)),
             lambda i: f"invalid counts: {s.flat[i]} successes of {n_.flat[i]}"),
            (~((0.0 < alpha) & (alpha < 1.0)),
             lambda i: f"alpha_side must be in (0, 1), got {alpha.flat[i]}"),
            (~(lower | (side_ == "upper")),
             lambda i: f"side must be 'lower' or 'upper', got {side_.flat[i].item()!r}")):
        if bad.any():
            raise ValueError(message(np.flatnonzero(bad)[0]))
    out = np.where(lower, 0.0, 1.0)       # the pinned boundaries
    free = np.where(lower, s != 0, s != n_)
    out[free] = _beta_quantile(
        np.where(lower, alpha, 1.0 - alpha)[free],
        np.where(lower, s, s + 1)[free],
        np.where(lower, n_ - s + 1, n_ - s)[free],
    )
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class VoteTally:
    """Vote counts for one node: selection round fixes classes, second round counts.

    The run's ``n0``, ``n1`` and ``alpha`` stay with the caller; the tally
    keeps the counts and the bounds they gave.
    """

    node: int
    counts: np.ndarray      # per-class counts over the certification round
    y_star: int
    y_tilde: int
    p_lower: float          # one-sided Clopper-Pearson bounds at alpha/2 each on the
    p_upper: float          # round's counts: y_star's from below, y_tilde's from above


@dataclass(frozen=True)
class CertificateResult:
    node: int
    prediction: int
    abstain: bool
    p_lower: float          # one-sided Clopper-Pearson bounds at alpha/2 each on the
    p_upper: float          # round's counts: y_star's from below, y_tilde's from above
    certified_radius: dict[int, int]    # d_min -> largest certified budget
    correct: bool | None = None


def estimate_all(
    classifier: GnnModel | VoteTable,
    g: Graph | None,
    nodes,
    cfg: SmoothingConfig,
    n0: int,
    n1: int,
    alpha: float,
    missing: dict[int, InsufficientSamplesError] | None = None,
) -> dict[int, VoteTally]:
    """Vote tallies for many nodes, sharing one sample stream.

    Selection uses sample indices 0..n0-1 and the tally uses n0..n0+n1-1, so
    the class choice is independent of the counts the confidence bounds see.
    Votes are counted per chunk of samples; they are never all held at once.
    The confidence bounds of every tally come from one ``clopper_pearson``
    call over all nodes; each is bit for bit that of a call for it alone.

    A vote table that lacks one of a node's samples raises
    ``InsufficientSamplesError``.  Given a dict ``missing``, each such node
    is put there with its error instead and left out of the result, and
    every other node is still tallied in the same pass.
    """
    if n0 < 1 or n1 < 1:
        raise ValueError("n0 and n1 must be >= 1")
    nodes = np.asarray(sorted({int(v) for v in nodes}), dtype=np.int64)

    if isinstance(classifier, VoteTable):
        classes = max(classifier.classes, 2)
        preds, lacking = classifier.gather(nodes, n0 + n1)
        tallied = lacking == n0 + n1
        for v, first in zip(nodes[~tallied].tolist(), lacking[~tallied].tolist()):
            error = InsufficientSamplesError(
                f"vote table lacks sample {first} for node {v} (need {n0 + n1} samples)")
            if missing is None:
                raise error
            missing[v] = error
        nodes, chunks = nodes[tallied], [(0, preds)]
    else:
        classes = classifier.classes
        chunks = LocalScorer(classifier, g).sample_votes(nodes, cfg, n0 + n1)

    # flat key of a vote: (round, node, class), round 1 being the tally
    counts = np.zeros(2 * len(nodes) * classes, dtype=np.int64)
    rows = np.arange(len(nodes))
    cells = rows * classes
    for lo, keys in chunks:
        keys += cells                   # each chunk's classes become its flat keys, in place
        keys[max(n0 - lo, 0):] += len(nodes) * classes     # the tally round's rows
        counts += np.bincount(keys.ravel(order="K"), minlength=counts.size)
    sel_counts, tally_counts = counts.reshape(2, len(nodes), classes)

    # argmax keeps the first maximum; the runner-up is the first maximum of the rest
    y_star = np.argmax(sel_counts, axis=1)
    sel_counts[rows, y_star] = -1
    y_tilde = np.argmax(sel_counts, axis=1)
    p_lower, p_upper = clopper_pearson(
        np.stack([tally_counts[rows, y_star], tally_counts[rows, y_tilde]]), n1,
        alpha / 2.0, [["lower"], ["upper"]]).tolist()
    return {v: VoteTally(node=v, counts=counts, y_star=star, y_tilde=tilde,
                         p_lower=lower, p_upper=upper)
            for v, counts, star, tilde, lower, upper in zip(
                nodes.tolist(), tally_counts, y_star.tolist(), y_tilde.tolist(),
                p_lower, p_upper)}


def estimate(classifier, g, v: int, cfg: SmoothingConfig,
             n0: int, n1: int, alpha: float) -> VoteTally:
    return estimate_all(classifier, g, [v], cfg, n0, n1, alpha)[int(v)]


def certifies(p_lower: float, p_upper: float, delta: float) -> bool:
    """The certificate rule: does a worst-case arrival probability ``delta`` certify?

    True iff p_lower - delta > p_upper + delta.  Monotone in ``delta``,
    also in floating point: a delta that certifies certifies every smaller
    one.  Given ``Fraction``s, as ``derandomize`` gives, the comparison is
    exact.
    """
    return p_lower - delta > p_upper + delta


def radius(p_lower: float, p_upper: float, deltas: Iterable[float]) -> int:
    """Largest certified budget, given ``deltas`` = delta(1), delta(2), ...

    Budget rho is certified iff ``certifies`` holds for delta(rho).  The scan
    reads no delta past the first failure, since delta is non-decreasing in
    rho, so a curve that ends at its first failing budget gives the radius
    of the whole curve.
    """
    certified = 0
    for rho, delta in enumerate(deltas, start=1):
        if not certifies(p_lower, p_upper, delta):
            break
        certified = rho
    return certified


def certify(
    tally: VoteTally,
    curves: Mapping[int, Sequence[DeltaBound] | Callable[..., Sequence[DeltaBound]]],
    label: int | None = None,
) -> CertificateResult:
    """Certificate for one node across the requested minimum attacker distances.

    ``curves[d_min][rho - 1]`` bounds the arrival probability at budget rho;
    budgets 1..len(curve) are scanned.  ``curves[d_min]`` may instead be a
    function that builds the curve when called with ``certifies=passes``,
    the node's certificate predicate (``certifies`` at the tally's
    confidence bounds), so the curve can stop at its first failing budget.
    Abstains (radius 0) when the tally's bounds overlap, and then builds no
    curve.  Otherwise each radius is ``radius`` of the bounds and the
    curve's values.
    """
    p_lower, p_upper = tally.p_lower, tally.p_upper
    abstain = p_lower <= p_upper

    passes = functools.partial(certifies, p_lower, p_upper)

    def scan(curve) -> int:
        if callable(curve):
            curve = curve(certifies=passes)
        return radius(p_lower, p_upper, (b.value for b in curve))

    radii = {d_min: 0 if abstain else scan(curves[d_min]) for d_min in sorted(curves)}
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
