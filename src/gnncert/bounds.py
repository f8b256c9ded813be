"""Bounds on the probability that an adversarial message reaches a target node.

Everything here computes or bounds one number per (receptive field, adversary
budget): the worst-case probability that at least one message from attacker
controlled nodes survives random edge deletion and node ablation and arrives
at the target.  The smoothed classifier's certified radius is the largest
budget for which that probability stays small enough.

Exact values for a fixed attacked set come from inclusion-exclusion over
simple paths (small fields), a child-first loop over the message tree
(tree-shaped fields), or a closed form (ablation-only smoothing).  The exact
worst case over attacker placements comes from a knapsack over branches in
the same child-first loop on tree-shaped fields, for every budget at once,
and from enumerating candidate subsets on any other field.  Upper bounds
come from treating paths / sources as independent: the per-source product
bound, the multiplicative combination of the top sources, and the (weaker)
union bound.  One function, ``_worst_case``, chooses among these for a
(field, d_min, method) and a list of budgets; ``delta_worst_case`` and
``worst_case_curve`` both go through it.  Each number has one
implementation: ``_single_array`` every per-source value of a field,
``_combined_curve`` every combination, and ``_exact_for_set`` the exact
value of a fixed set; the public functions for one value read them.

A certificate needs the exact worst case only where it decides something.
Given the certificate predicate, ``worst_case_curve`` decides each budget
with the cheapest value that settles it, in this order: the
multiplicative bound where it certifies, since the exact value never
exceeds it; the exact value of the top single-source set, then of the
greedy probe's set, where one of them fails, since the exact maximum is at
least as large; and the exact maximum only in the gap between the bound and
both witnesses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotATreeError, ResourceLimitError
from .graph import ReceptiveField
from .smoothing import SmoothingConfig

DEFAULT_MAX_IE_TERMS = 2 ** 20
DEFAULT_SUBSET_CAP = 50_000
# The exact worst case stays within this of the multiplicative bound in floating
# point (tests/test_acceptance.py checks it at this tolerance); a bound that
# certifies with this much to spare decides a certificate as the exact value would.
FKG_TOLERANCE = 1e-12

METHODS = frozenset({
    "node-ablation-exact",
    "single-source",
    "multiplicative",
    "union",
    "inclusion-exclusion-exact",
    "tree-exact",
    "monte-carlo",
    "levine-reference",
})
# the ``method`` of ``delta_worst_case``, ``worst_case_curve`` and ``_worst_case``
WORST_CASE_METHODS = ("multiplicative", "union", "exact-enumeration")


@dataclass(frozen=True)
class DeltaBound:
    """An arrival-probability value tagged with how it was computed.

    ``raw`` keeps the unclamped union sum (which can exceed 1); ``stderr``
    accompanies Monte-Carlo estimates; ``worst_set`` reports the maximizing
    attacker subset found by exact enumeration; ``node`` identifies the
    source of a single-source bound.
    """

    value: float
    method: str
    rho: int
    d_min: int = 0
    node: int | None = None
    raw: float | None = None
    stderr: float | None = None
    worst_set: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"bound value {self.value} outside [0, 1]")


def _clip01(x: float) -> float:
    return min(1.0, max(0.0, x))


# ---------------------------------------------------------------------------
# closed forms


def delta_node_ablation_exact(p_abl: float, rho: int) -> DeltaBound:
    """Arrival probability under ablation-only smoothing: 1 - p_abl**rho.

    With no edge deletion, messages are stopped only at their source, so the
    arrival event is simply "at least one attacked node is not ablated".
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    value = 0.0 if rho == 0 else 1.0 - p_abl ** rho
    return DeltaBound(value=_clip01(value), method="node-ablation-exact", rho=rho)


def max_certifiable_radius(p_abl: float) -> int:
    """Largest budget certifiable under ablation-only smoothing.

    Certification requires the arrival probability 1 - p_abl**rho to stay
    below 1/2, i.e. p_abl above the rho-th root of 1/2.  Probabilities at or
    below 1/2 certify nothing.  The threshold comparison carries a small
    slack (1e-2 on the exponent ratio) so that ablation probabilities quoted
    to three decimals, e.g. 0.933 for radius 10, land on the radius they
    name rather than one below it.
    """
    if not 0.0 < p_abl < 1.0:
        raise ValueError(f"p_abl must be in (0, 1), got {p_abl}")
    if p_abl <= 0.5:
        return 0
    ratio = math.log(0.5) / math.log(p_abl)
    return int(math.floor(ratio + 1e-2))


def levine_delta(n: int, keep: int, rho: int) -> DeltaBound:
    """Reference arrival probability under uniform keep-exactly-k ablation.

    This is the bounding constant of ablation schemes that retain exactly
    ``keep`` of ``n`` elements: 1 - C(n-rho, keep) / C(n, keep).  Kept for
    comparison; the expectation-matched independent scheme is strictly
    tighter for rho > 1.
    """
    if rho < 0 or keep < 0 or n < 0:
        raise ValueError("n, keep, rho must be >= 0")
    if rho == 0:
        return DeltaBound(value=0.0, method="levine-reference", rho=0)
    if keep > n - rho:
        return DeltaBound(value=1.0, method="levine-reference", rho=rho)
    value = 1.0 - math.comb(n - rho, keep) / math.comb(n, keep)
    return DeltaBound(value=_clip01(value), method="levine-reference", rho=rho)


# ---------------------------------------------------------------------------
# single-source bound and combinations


def delta_single_source(rf: ReceptiveField, w: int, cfg: SmoothingConfig) -> DeltaBound:
    """Upper bound on the probability that messages from ``w`` arrive.

    The target itself arrives unless ablated.  For any other source the
    bound multiplies per-path interception probabilities as if paths were
    independent, which is exact for 1- and 2-layer fields (paths from one
    source cannot share edges there) and an upper bound in general.  A node
    outside the field has no qualifying path, hence probability 0.
    """
    return DeltaBound(value=_single_values(rf, cfg).get(w, 0.0), method="single-source",
                      rho=1, node=w)


def _single_values(rf: ReceptiveField, cfg: SmoothingConfig) -> dict[int, float]:
    """``delta_single_source`` value of every member: ``_single_array`` keyed by node."""
    return dict(zip(rf.member_ids.tolist(), _single_array(rf, cfg).tolist()))


def _single_array(rf: ReceptiveField, cfg: SmoothingConfig) -> np.ndarray:
    """Single-source value of every member, aligned with ``rf.member_ids``.

    Computed once per (p_del, p_abl) for every field of ``rf.chunk``, the
    fields built together.  The interception factor ``1 - (1 - p_del)**L``
    of a path depends only on its length ``L``, so it comes from one
    table.  A member's factors are multiplied left to right in path order,
    as ``math.prod`` does: one ``np.multiply.reduceat`` over the rows of
    the members that send a path, whose row runs are nonempty; the others'
    product stays 1.  Only ``1 - product`` is read, and the rounding of a
    plain product lies far below the last bit of that difference, also
    when a factor is tiny.  A target, the one member at distance 0,
    arrives unless ablated.
    """
    chunk = rf.chunk
    key = ("single-source", cfg.p_del, cfg.p_abl)
    if key not in chunk.memo:
        keep, reach = 1.0 - cfg.p_del, 1.0 - cfg.p_abl
        longest = int(chunk.path_length.max(initial=0))
        factor = np.array([1.0 - keep ** length for length in range(longest + 1)])
        factor = factor[chunk.path_length]
        sends = np.diff(chunk.path_offsets) > 0
        product = np.ones(len(sends))
        product[sends] = np.multiply.reduceat(factor, chunk.path_offsets[:-1][sends])
        values = reach * (1.0 - product)
        values = np.where(values > 0.0, np.minimum(values, 1.0), 0.0)    # _clip01
        values[chunk.member_distance == 0] = _clip01(reach)
        chunk.memo[key] = values
    return chunk.memo[key][rf.member_span]


def _sorted_values(singles) -> list[float]:
    """Descending bound values of ``DeltaBound``s or plain numbers."""
    return sorted((s.value if isinstance(s, DeltaBound) else float(s) for s in singles),
                  reverse=True)


def delta_multiplicative(singles, rho: int, d_min: int = 0) -> DeltaBound:
    """Combine the top-rho single-source bounds as if sources were independent.

    1 - prod_i (1 - value_i) over the rho largest values.  Fewer candidates
    than rho means all of them are used.
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    return next(_combined_curve(_sorted_values(singles), "multiplicative", d_min, [rho]))


def delta_union(singles, rho: int, d_min: int = 0) -> DeltaBound:
    """Sum of the top-rho single-source bounds, clamped to 1.

    The unclamped sum is kept in ``raw``; it is not a probability and can
    exceed 1, which is why the multiplicative bound is preferred.
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    return next(_combined_curve(_sorted_values(singles), "union", d_min, [rho]))


# ---------------------------------------------------------------------------
# exact values for a fixed attacked set


def delta_exact_ie(
    rf: ReceptiveField,
    attacked,
    cfg: SmoothingConfig,
    max_terms: int = DEFAULT_MAX_IE_TERMS,
) -> DeltaBound:
    """Exact arrival probability for a fixed attacked set, by inclusion-exclusion.

    Every nonempty subset of the attacked nodes' simple paths contributes
    ``(1-p_del)**a * (1-p_abl)**b`` with alternating sign, where ``a`` counts
    distinct edge coins (``rf.path_coins``) and ``b`` distinct source nodes
    on the subset.  An attacked target composes in independently: it
    arrives iff not ablated, regardless of edges.  Refuses (rather than
    approximates) when 2**paths exceeds ``max_terms``, counting the paths
    before any bit is built.

    The paths are the attacked sources' rows of the path table, found in
    ``rf.path_spans`` (attacked non-members have none), by ascending source
    and in table order.  Only those rows' coins are read, and they and the
    sources get bits in the order first met, numbered with a dict: which
    bit stands for which coin or source changes no ``bit_count``, and
    ``math.fsum`` is exactly rounded in any order, so the value depends
    neither on the numbering nor on the order of the paths.
    """
    attacked = set(int(w) for w in attacked)
    spans = rf.path_spans
    spans = [spans[w] for w in sorted(attacked - {rf.target}) if w in spans]
    n_paths = sum(b - a for a, b in spans)
    if (1 << n_paths) > max_terms:
        raise ResourceLimitError(
            f"inclusion-exclusion over {n_paths} paths needs "
            f"2**{n_paths} terms (> {max_terms}); use the tree or "
            f"multiplicative method"
        )

    # bits number the distinct coins and sources; a simple path's coins are distinct
    coin_bit: dict[int, int] = {}
    path_list = [(sum(1 << coin_bit.setdefault(c, len(coin_bit)) for c in coins[:length]),
                  1 << si)                                      # (edge_bits, source_bits)
                 for si, (a, b) in enumerate(spans)
                 for coins, length in zip(rf.path_coins[a:b].tolist(),
                                          rf.path_length[a:b].tolist())]

    keep_e = 1.0 - cfg.p_del
    keep_n = 1.0 - cfg.p_abl
    terms: list[float] = []

    def expand(i: int, ebits: int, sbits: int, size: int) -> None:
        if i == len(path_list):
            if size:
                t = keep_e ** ebits.bit_count() * keep_n ** sbits.bit_count()
                terms.append(t if size % 2 else -t)
            return
        expand(i + 1, ebits, sbits, size)
        pe, ps = path_list[i]
        expand(i + 1, ebits | pe, sbits | ps, size + 1)

    expand(0, 0, 0, 0)
    p_paths = _clip01(math.fsum(terms))

    if rf.target in attacked:
        value = 1.0 - (1.0 - p_paths) * cfg.p_abl
    else:
        value = p_paths
    return DeltaBound(value=_clip01(value), method="inclusion-exclusion-exact",
                      rho=len(attacked))


def is_tree(rf: ReceptiveField) -> bool:
    return rf.tree_order is not None


def delta_tree_exact(rf: ReceptiveField, attacked, cfg: SmoothingConfig) -> DeltaBound:
    """Exact arrival probability on a tree-shaped receptive field.

    Branches of a tree are independent, so the probability that a node
    receives an adversarial message decomposes over its subtrees:

        arrive(i) = 1 - p_abl * (1 - via_branches(i))   if i is attacked
        arrive(i) = via_branches(i)                     otherwise
        via_branches(i) = 1 - prod_j (1 - (1 - p_del) * arrive(j))

    with the product over i's children (empty for leaves) taken from 1.0,
    left to right in ascending child order.  One loop visits the
    ``(member, parent)`` pairs of ``rf.tree_order``: each child comes
    before its parent, and the children of a node in ascending order, so a
    member's product is complete when it is read and each factor is
    multiplied into its parent's product in that order.  The target comes
    last.  ``_tree_worst_curve`` applies the same floating-point steps in
    the same order, which keeps its maximum over attacker sets equal to the
    maximum of this function's values.
    """
    attacked = set(int(w) for w in attacked)
    order = rf.tree_order
    if order is None:
        raise NotATreeError(f"receptive field of {rf.target} is not a tree")
    keep_e = 1.0 - cfg.p_del
    product: dict[int, float] = {}
    for i, parent in order:
        via = 1.0 - product.get(i, 1.0)
        arrive = 1.0 - cfg.p_abl * (1.0 - via) if i in attacked else via
        product[parent] = product.get(parent, 1.0) * (1.0 - keep_e * arrive)
    return DeltaBound(value=_clip01(arrive), method="tree-exact", rho=len(attacked))


def _exact_for_set(rf: ReceptiveField, attacked, rho: int, d_min: int,
                   cfg: SmoothingConfig, max_terms: int) -> DeltaBound:
    """Exact value of the set ``attacked``, tagged with budget ``rho``, ``d_min`` and the set.

    The one place that picks the exact method for a fixed set:
    ``delta_tree_exact`` on a tree-shaped field, else ``delta_exact_ie``.
    Only the gap scan of ``_worst_case``, which runs on fields with a cycle,
    calls ``delta_exact_ie`` itself, to tag just the maximum of each budget.
    """
    attacked = tuple(sorted(attacked))
    b = (delta_tree_exact(rf, attacked, cfg) if is_tree(rf)
         else delta_exact_ie(rf, attacked, cfg, max_terms=max_terms))
    return DeltaBound(value=b.value, method=b.method, rho=rho, d_min=d_min,
                      worst_set=attacked)


# ---------------------------------------------------------------------------
# worst case over attacker placements


def _tree_worst_curve(rf: ReceptiveField, d_min: int, cfg: SmoothingConfig,
                      rho_max: int) -> list[DeltaBound]:
    """Exact worst case on a tree-shaped field for every budget 1..rho_max.

    ``delta_tree_exact`` is non-decreasing in each child's arrival
    probability, and the subtrees of a node hold disjoint attacker sets, so
    the maximum over placements decomposes (a knapsack over branches).  For
    each node ``i`` and budget ``b``, ``best[i][b]`` is the largest arrival
    at ``i`` over attacker sets of at most ``b`` candidates in its subtree:

        prod[b] = min over splits c_1 + ... + c_m = b of
                  prod_j (1 - (1 - p_del) * best[j][c_j])
        via[b]  = 1 - prod[b]
        best[i][b] = max(via[b], 1 - p_abl * (1 - via[b - 1]))  if i is a candidate
        best[i][b] = via[b]                                     otherwise

    One loop visits the ``(member, parent)`` pairs of ``rf.tree_order``, as
    ``delta_tree_exact`` does: a pair finalizes the member's ``best`` from
    its complete product and merges it into its parent's product, which
    starts at ``[(1.0, ())]``, by a min-product convolution.  Children come
    in ascending order, so each product takes the same floating-point steps
    in the same order as ``delta_tree_exact``.  Every step is monotone in
    floating point, so each value is the float maximum of
    ``delta_tree_exact`` over sets of at most ``b`` candidates, not an
    approximation.  The target comes last; its ``best`` is the curve, and
    budgets past the attack surface repeat the surface value.

    Each entry is a pair: the value and one set that reaches it.  A merge
    keeps the first split with the strictly smallest product and joins the
    two sets it reads, the parent's first; a candidate adds itself where
    attacking it is strictly better.  ``worst_set`` is the target's set,
    padded with the smallest unused candidates to ``min(rho, surface)``
    members.  Cost O(s * R**2) for ``R = min(rho_max, surface)``, plus O(R)
    per entry to copy its set.
    """
    candidates = rf.candidates(d_min)
    top = min(rho_max, len(candidates))
    keep_e = 1.0 - cfg.p_del
    prods: dict[int, list[tuple[float, tuple[int, ...]]]] = {}
    for i, parent in rf.tree_order:
        via = [(1.0 - p, chosen) for p, chosen in prods.pop(i, [(1.0, ())])]
        best = via
        if rf.distance[i] >= d_min:
            best = via[:1]
            for b in range(1, min(len(via) + 1, top + 1)):
                stay = via[min(b, len(via) - 1)]
                hit = 1.0 - cfg.p_abl * (1.0 - via[b - 1][0])
                best.append((hit, via[b - 1][1] + (i,)) if hit > stay[0] else stay)
        if parent < 0:
            break
        prod = prods.get(parent, [(1.0, ())])
        factor = [(1.0 - keep_e * x, chosen) for x, chosen in best]
        merged = []
        for b in range(min(len(prod) + len(factor) - 1, top + 1)):
            low, arg = math.inf, 0
            for c in range(max(0, b - len(prod) + 1), min(b, len(factor) - 1) + 1):
                t = prod[b - c][0] * factor[c][0]
                if t < low:
                    low, arg = t, c
            merged.append((low, prod[b - arg][1] + factor[arg][1]))
        prods[parent] = merged

    curve = []
    for rho in range(1, rho_max + 1):
        value, chosen = best[min(rho, top)]
        taken = set(chosen)
        spare = (w for w in candidates if w not in taken)
        chosen += tuple(itertools.islice(spare, min(rho, top) - len(chosen)))
        curve.append(DeltaBound(value=_clip01(value), method="tree-exact", rho=rho,
                                d_min=d_min, worst_set=tuple(sorted(chosen))))
    return curve


def _combined_curve(values: list[float], method: str, d_min: int, budgets):
    """Multiplicative or union combination of descending ``values`` at each budget, lazily.

    ``multiplicative`` is ``1 - prod(1 - v)`` over each prefix, from a
    running product; ``union`` sums each prefix with ``fsum``.  A budget of
    0 combines nothing, and one past ``len(values)`` combines them all.
    """
    if method == "union":
        for rho in budgets:
            raw = math.fsum(values[:rho])
            yield DeltaBound(value=min(1.0, raw), method="union", rho=rho,
                             d_min=d_min, raw=raw)
    else:
        product, done = 1.0, 0
        for rho in budgets:
            for v in values[done:rho]:
                product *= 1.0 - v
            done = rho
            yield DeltaBound(value=_clip01(1.0 - product), method="multiplicative",
                             rho=rho, d_min=d_min)


def _up_to_failure(entries, certifies=None) -> list[DeltaBound]:
    """``entries`` up to and including the first whose value fails ``certifies``.

    Every entry without a predicate.  Entries past the first failure are
    never computed, since a radius scan stops there.
    """
    if certifies is None:
        return list(entries)
    out = []
    for entry in entries:
        out.append(entry)
        if not certifies(entry.value):
            break
    return out


def _worst_case(rf: ReceptiveField, d_min: int, cfg: SmoothingConfig, method: str,
                budgets, subset_cap: int, max_terms: int,
                certifies=None) -> list[DeltaBound]:
    """Worst-case bounds at each of the ascending positive ``budgets``.

    The one place that picks how a worst case is computed: the combined
    single-source curve for ``multiplicative`` and ``union``; for
    ``exact-enumeration``, one knapsack pass on a tree-shaped field, and on
    a field with a cycle the best ``delta_exact_ie`` over every candidate
    subset of each budget's size, refused at the first budget whose subsets
    exceed ``subset_cap``.  That scan compares the plain float values of
    the subsets in ``itertools.combinations`` order, keeps the first
    maximal one (a later subset must be strictly larger) and builds one
    ``DeltaBound`` per budget.  An empty attack surface gives 0 at every
    budget.

    Given a certificate predicate ``certifies(delta)``, the curve ends at
    its first failing budget, and ``exact-enumeration`` runs
    ``_decided_curve`` instead: its entries decide the predicate exactly as
    the exact maximum would, mostly without computing it.
    """
    if method not in WORST_CASE_METHODS:
        raise ValueError(f"unknown worst-case method {method!r}")
    if not budgets:
        return []
    if method != "exact-enumeration":
        singles = _single_array(rf, cfg)[rf.member_distance >= d_min]
        values = np.sort(singles)[::-1].tolist()
        return _up_to_failure(_combined_curve(values, method, d_min, budgets), certifies)
    if not rf.attack_surface(d_min):
        return _up_to_failure((DeltaBound(value=0.0, method="inclusion-exclusion-exact",
                                          rho=rho, d_min=d_min) for rho in budgets),
                              certifies)
    if certifies is not None:
        return _up_to_failure(_decided_curve(rf, d_min, cfg, budgets, certifies,
                                             subset_cap, max_terms), certifies)
    if is_tree(rf):
        curve = _tree_worst_curve(rf, d_min, cfg, max(budgets))
        return [curve[rho - 1] for rho in budgets]

    candidates = rf.candidates(d_min)
    out = []
    for rho in budgets:
        r = min(rho, len(candidates))
        n_subsets = math.comb(len(candidates), r)
        if n_subsets > subset_cap:
            raise ResourceLimitError(
                f"{n_subsets} candidate subsets exceed cap {subset_cap}; use the "
                f"multiplicative or union method"
            )
        best, worst_set = -1.0, ()
        for subset in itertools.combinations(candidates, r):
            value = delta_exact_ie(rf, subset, cfg, max_terms=max_terms).value
            if value > best:                # strictly: the first maximal subset stays
                best, worst_set = value, subset
        out.append(DeltaBound(value=best, method="inclusion-exclusion-exact", rho=rho,
                              d_min=d_min, worst_set=worst_set))
    return out


def _decided_curve(rf: ReceptiveField, d_min: int, cfg: SmoothingConfig, budgets,
                   certifies, subset_cap: int, max_terms: int):
    """``exact-enumeration`` entries that decide ``certifies``, lazily.

    The exact worst case never exceeds the multiplicative bound ``g`` by more
    than ``FKG_TOLERANCE`` (arrival events are increasing in the coins), and
    never falls below the exact value ``f`` of any one attacker set of the
    budget's size, computed by the same function it maximizes.  The
    predicate is monotone in delta, so at each budget:

    * ``g``, tagged ``multiplicative``, decides when it passes even at
      ``g + FKG_TOLERANCE``;
    * else ``f`` of the top-r single-source set, tagged with that set,
      decides when it fails: it witnesses that the exact maximum fails too;
    * else ``f`` of ``delta_greedy_probe``'s set, a second witness, decides
      the same way when it fails;
    * else the budget falls in the gap ``f < D* <= g`` of both witnesses
      and gets the exact maximum from ``_worst_case``, under ``subset_cap``
      as without a predicate.

    Each entry is computed only when read, so ``_up_to_failure`` stops the
    work at the first failing one.
    """
    candidate = rf.member_distance >= d_min
    singles = _single_array(rf, cfg)[candidate]
    order = np.argsort(-singles, kind="stable")      # ties by node, as members ascend
    ranked = rf.member_ids[candidate][order].tolist()
    for g in _combined_curve(singles[order].tolist(), "multiplicative", d_min, budgets):
        if certifies(g.value + FKG_TOLERANCE):
            yield g
            continue
        entry = _exact_for_set(rf, ranked[:g.rho], g.rho, d_min, cfg, max_terms)
        if certifies(entry.value):
            entry = delta_greedy_probe(rf, g.rho, d_min, cfg, max_terms=max_terms)
        if certifies(entry.value):
            entry = _worst_case(rf, d_min, cfg, "exact-enumeration", [g.rho],
                                subset_cap, max_terms)[0]
        yield entry


def delta_worst_case(
    rf: ReceptiveField,
    rho: int,
    d_min: int,
    cfg: SmoothingConfig,
    method: str = "multiplicative",
    subset_cap: int = DEFAULT_SUBSET_CAP,
    max_terms: int = DEFAULT_MAX_IE_TERMS,
) -> DeltaBound:
    """Bound the arrival probability over all attacker placements of size rho.

    Candidates are field members at hop distance >= d_min (d_min = 1 models
    a target the adversary cannot control).  d_min = 0 intercepts the target
    when it is ablated, so it assumes the classifier reads the target only
    through ablatable features; the CLI refuses a skip checkpoint with it.
    ``multiplicative`` and ``union`` combine the top-rho single-source
    bounds.  ``exact-enumeration`` is the exact maximum on every field and
    reports a maximizing set: tree-shaped fields use the knapsack loop of
    ``_tree_worst_curve`` and are never refused; any other field
    maximizes over every size-rho candidate subset, refusing when the subset
    count exceeds ``subset_cap``.  This is the dispatch ``_worst_case`` at
    budget rho, as in ``worst_case_curve``; a budget rho <= 0 gives 0.
    """
    if rho > 0:
        return _worst_case(rf, d_min, cfg, method, [rho], subset_cap, max_terms)[0]
    _worst_case(rf, d_min, cfg, method, [], subset_cap, max_terms)   # checks the method
    tag = "inclusion-exclusion-exact" if method == "exact-enumeration" else method
    return DeltaBound(value=0.0, method=tag, rho=0, d_min=d_min,
                      raw=0.0 if method == "union" else None)


def delta_greedy_probe(
    rf: ReceptiveField,
    rho: int,
    d_min: int,
    cfg: SmoothingConfig,
    max_terms: int = DEFAULT_MAX_IE_TERMS,
) -> DeltaBound:
    """Lower-bound probe: exact arrival probability of one greedy placement.

    Plays the adversary heuristically, preferring nodes close to the target
    and spreading the budget over different first-hop branches (independent
    branches maximize the chance some message survives).  The result is the
    exact probability for that single placement, hence a lower bound on the
    true worst case.  A lower bound can only show that a budget fails (it is
    ``_decided_curve``'s second witness); never use it to certify one.

    A member's branch is the node next to the target on its first shortest
    path: the first of its rows whose length equals its distance, found for
    every member in one array pass.  The target is its own branch.  The
    candidates, ordered by (distance, node), are dealt round by round over
    the branches in ascending order: each round takes the next candidate
    of every branch that has one, and the first ``rho`` taken are attacked.
    """
    if rho <= 0 or not rf.attack_surface(d_min):
        return DeltaBound(value=0.0, method="inclusion-exclusion-exact",
                          rho=max(rho, 0), d_min=d_min, worst_set=())
    owner = np.repeat(np.arange(rf.size), np.diff(rf.path_offsets))
    shortest = np.flatnonzero(rf.path_length == rf.member_distance[owner])
    first = shortest[np.diff(owner[shortest], prepend=-1) > 0]
    branch = np.full(rf.size, rf.target)
    branch[owner[first]] = rf.path_nodes[first, 0]
    order = np.argsort(rf.member_distance, kind="stable")         # by (distance, node)
    order = order[rf.member_distance[order] >= d_min]
    by_branch: dict[int, list[int]] = {}
    for w, b in zip(rf.member_ids[order].tolist(), branch[order].tolist()):
        by_branch.setdefault(b, []).append(w)
    rounds = itertools.zip_longest(*(by_branch[b] for b in sorted(by_branch)))
    chosen = [w for layer in rounds for w in layer if w is not None][:rho]
    return _exact_for_set(rf, chosen, rho, d_min, cfg, max_terms)


def worst_case_curve(
    rf: ReceptiveField,
    d_min: int,
    cfg: SmoothingConfig,
    method: str = "multiplicative",
    rho_max: int | None = None,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    max_terms: int = DEFAULT_MAX_IE_TERMS,
    certifies=None,
) -> list[DeltaBound]:
    """Worst-case bounds for every budget 1..rho_max (default: attack surface).

    This is the dispatch ``_worst_case`` over budgets 1..rho_max, so each
    entry equals ``delta_worst_case`` at that budget.  The combined curves
    come from one sort and a running product or prefix sums, and the exact
    curve of a tree-shaped field from one knapsack pass for all budgets.

    With a certificate predicate ``certifies(delta)`` (monotone: what
    certifies, certifies every smaller delta) the curve ends at its first
    budget that fails it: a prefix of the full curve for ``multiplicative``
    and ``union``, with the full curve's radius.  The entries of such an
    ``exact-enumeration`` curve need not equal ``delta_worst_case``: each
    passes or fails the predicate exactly when the exact maximum does (see
    ``_decided_curve``).  It computes the exact maximum only at budgets
    that neither the multiplicative bound nor the two exact witnesses
    decide, and refuses only there, so its radius is that of the full exact
    curve.
    """
    if rho_max is None:
        rho_max = rf.attack_surface(d_min)
    return _worst_case(rf, d_min, cfg, method, range(1, rho_max + 1),
                       subset_cap, max_terms, certifies)


# ---------------------------------------------------------------------------
# Monte-Carlo oracle


def delta_monte_carlo(
    rf: ReceptiveField,
    attacked,
    cfg: SmoothingConfig,
    samples: int,
    seed: int | None = None,
) -> DeltaBound:
    """Estimate the arrival probability for a fixed attacked set by sampling.

    Simulates edge deletion, one coin per distinct ``rf.path_coins`` entry
    (so both orientations of an undirected edge fall together), and node
    ablation, then checks by k-hop backward reachability whether any
    attacked, non-ablated node stays connected to the target in the
    surviving graph.  The reachability sweep shares no logic with the
    path-product or inclusion-exclusion computations, so it serves as an
    independent check on them.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    attacked = sorted(set(int(w) for w in attacked))
    rng = np.random.default_rng(cfg.seed if seed is None else seed)

    # every path edge is some path's first edge; its coin is the last of that row
    first_coin = rf.path_coins[np.arange(len(rf.path_length)), rf.path_length - 1]
    logical, coin_of = np.unique(first_coin, return_inverse=True)
    sources = [w for w in attacked if w != rf.target]
    src_pos = {w: i for i, w in enumerate(sources)}
    # work arrays are indexed by position among the field's members, not node id
    col = {w: i for i, w in enumerate(rf.member_ids.tolist())}
    arcs = sorted({(col[a], col[c], coin)
                   for a, c, coin in zip(rf.path_source.tolist(), rf._next_hops().tolist(),
                                         coin_of.tolist())})

    hits = 0
    chunk = 20_000
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        kept = (rng.random((b, len(logical))) >= cfg.p_del
                if len(logical) else np.ones((b, 0), dtype=bool))
        abl = rng.random((b, len(sources) + 1)) < cfg.p_abl

        # within[:, x]: node x reaches the target within <= hop surviving hops
        within = np.zeros((b, len(col)), dtype=bool)
        within[:, col[rf.target]] = True
        frontier = within.copy()
        for _ in range(rf.k):
            new = np.zeros_like(within)
            for a, c, coin in arcs:
                new[:, a] |= frontier[:, c] & kept[:, coin]
            frontier = new & ~within
            within |= frontier

        arrived = np.zeros(b, dtype=bool)
        if rf.target in attacked:
            arrived |= ~abl[:, -1]
        for w in sources:
            if w in col:
                arrived |= within[:, col[w]] & ~abl[:, src_pos[w]]
        hits += int(arrived.sum())
        done += b

    p_hat = hits / samples
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
    return DeltaBound(value=p_hat, method="monte-carlo", rho=len(attacked),
                      stderr=stderr)
