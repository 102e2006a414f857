"""The candidates' integer view, optimum estimation and geometric
partitioning of items.

A solve reads its candidates' integers once, into a CandidateView that
solve_with_details builds per call: one row per candidate in id order,
holding its id, P = profit*lp and W = weight*lw over the lcms lp and lw of
the denominators, int64 while n times the largest value stays below 2^62
and Python ints otherwise. The estimate, the partition, the small pool and
the answer's sums read it and name candidates by row; none of them
compares Fractions per item, and the estimate runs its LP on a
small_items.SmallSolver over them.

The pipeline never knows the true optimum; it works with the estimate
opt_estimate = 2 * half_approx_opt(inst).value, which brackets the optimum
from above within a factor of 2 (the same call returns the LP upper bound
on the optimum that certifies answers). Items are then split by profit
relative to the estimate: profits above eps*opt_estimate are "large" and
get rounded UP to the right endpoint of their geometric interval; profits
in [eps*opt_estimate/K, eps*opt_estimate] are "small" and get rounded DOWN
to a geometric point; profits below eps*opt_estimate/K are discarded in
at-most mode and become zero-profit fillers in exactly-K mode (either way
K of them are worth less than eps*opt_estimate). Small classes and the
fillers keep only their K lightest members -- some optimal solution
survives the pruning because equal-profit items are interchangeable and
lighter is never worse. Exactly-K mode first drops the items no feasible
K-set contains.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .instance_model import Instance, Mode, parse_rational
from .small_items import SmallSolver, _extremes, _rounding, _solve_units, _sum_array, _sum_at

ZERO = Fraction(0)


class TrivialInstanceError(ValueError):
    """Raised when no feasible selection has positive profit; the empty
    selection (exactly K: the K lightest) is optimal."""


@dataclass(frozen=True)
class LargeClass:
    """Geometric profit class of large items.

    index i >= 1 covers original profits in
    (scale*growth^(i-1), scale*growth^i] where scale = eps*opt_estimate and
    growth = 1+eps; every member counts as
    rounded_profit = scale*growth^index. The exact rounded profit is
    materialised lazily: at small eps it runs to tens of thousands of
    digits, which the hot paths never need (they compare and floor through
    certified fixed-point brackets instead). rows are the members' rows in
    the partition's CandidateView, sorted by weight ascending (ties by id),
    and prefix_weights[j] is the total weight of the j lightest members
    times weight_scale, an exact integer -- the only statistic the
    weight-table construction needs. weight_scale is the unit the prefixes
    count in: the lw of the partition's CandidateView, so the fold adds the
    view's integer weights W as they are.
    """

    index: int
    profit_scale: Fraction
    growth: Fraction
    rows: tuple[int, ...]
    prefix_weights: tuple[int, ...]
    weight_scale: int

    @cached_property
    def rounded_profit(self) -> Fraction:
        return self.profit_scale * self.growth**self.index

    @property
    def size(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class SmallClass:
    """Geometric profit class of small items.

    index i >= 0 covers original profits in
    [scale*growth^(-i), scale*growth^(-i+1)) where scale = eps*opt_estimate
    and growth = 1+eps -- rounding DOWN: rounded_profit = scale*growth^(-index)
    is the grid point at or directly below every member's profit, so the
    loss per item is under eps/(1+eps) of its profit (materialised lazily,
    like LargeClass.rounded_profit). rows are the view rows of the class's
    K lightest members, weight ascending, ties by id.
    """

    index: int
    profit_scale: Fraction
    growth: Fraction
    rows: tuple[int, ...]

    @cached_property
    def rounded_profit(self) -> Fraction:
        return self.profit_scale * self.growth**-self.index

    @property
    def size(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Partition:
    """Complete rounding/partitioning state for one solve.

    discarded holds the ids that are not candidates (see Instance.candidates),
    are pruned, or lie below the profit floor eps*opt_estimate/K, except the
    fillers: in exactly-K mode (exactly_k) the K lightest of those, counted
    at profit 0, whose view rows filler_rows holds (weight ascending, ties
    by id). cardinality is carried along because the small-item
    relaxations need K itself, not only z = min(K, ceil(1/eps)). view is
    the solve's CandidateView, whose rows every class and the fillers name;
    it takes no part in equality.
    """

    opt_estimate: Fraction
    epsilon: Fraction
    z: int
    cardinality: int
    budget: Fraction
    large_classes: tuple[LargeClass, ...]
    small_classes: tuple[SmallClass, ...]
    discarded: frozenset[int]
    view: CandidateView = field(compare=False, repr=False)
    exactly_k: bool = False
    filler_rows: tuple[int, ...] = ()

    @property
    def class_count(self) -> int:
        return len(self.large_classes) + len(self.small_classes)

    @property
    def small_item_count(self) -> int:
        return sum(c.size for c in self.small_classes)

    def summary(self) -> dict:
        """JSON-friendly digest (for the --dump-partition debug flag)."""
        return {
            "opt_estimate": str(self.opt_estimate),
            "epsilon": str(self.epsilon),
            "z": self.z,
            "large_classes": [
                {
                    "index": c.index,
                    "rounded_profit": str(c.rounded_profit),
                    "size": c.size,
                }
                for c in self.large_classes
            ],
            "small_classes": [
                {
                    "index": c.index,
                    "rounded_profit": str(c.rounded_profit),
                    "size": c.size,
                }
                for c in self.small_classes
            ],
            "discarded": sorted(self.discarded),
            "fillers": [self.view.ids[r] for r in self.filler_rows],
        }


@dataclass(frozen=True, eq=False)
class CandidateView:
    """The integers of one solve's candidates (see Instance.candidates),
    read once and shared by the estimate, the partition, the small pool and
    the solution's sums.

    A row is the one handle on a candidate from here to the answer: the
    partition's classes, the small pool's units and retrieval all name
    candidates by row, and only the answer reads their ids. Rows ascend by
    id, so an order that breaks its ties by row breaks them by id. ids
    holds the candidates' own id objects (an object array). P = profit*lp
    and W = weight*lw, with lp and lw the lcms of the candidates' profit
    and weight denominators, are sum arrays (small_items._sum_array): int64
    when n times the largest value stays below 2^62, so every sum a
    consumer forms fits, and Python ints otherwise.
    """

    ids: np.ndarray
    P: np.ndarray
    W: np.ndarray
    lp: int
    lw: int

    def totals(self, rows: np.ndarray) -> tuple[Fraction, Fraction]:
        """Exact total profit and weight of the candidates at these rows."""
        return Fraction(int(self.P[rows].sum()), self.lp), Fraction(int(self.W[rows].sum()), self.lw)


def candidate_view(inst: Instance) -> CandidateView:
    """The CandidateView of inst, built afresh on every call: one pass over
    the candidates reads their ids, numerators and denominators."""
    candidates = inst.candidates
    ids = [it.id for it in candidates]
    order = np.argsort(np.array(ids), kind="stable")
    profits = [it.profit for it in candidates]
    weights = [it.weight for it in candidates]
    lp = math.lcm(*{p.denominator for p in profits})
    lw = math.lcm(*{w.denominator for w in weights})
    return CandidateView(
        np.array(ids, dtype=object)[order],
        _sum_array(_numerators(profits, lp))[order],
        _sum_array(_numerators(weights, lw))[order],
        lp,
        lw,
    )


def _numerators(values, den: int) -> list[int]:
    """The numerators of the values over the common denominator den."""
    if den == 1:
        return [v.numerator for v in values]
    return [v.numerator * (den // v.denominator) for v in values]


class _Bounds(NamedTuple):
    value: Fraction
    lp_bound: Fraction


class OptimumEstimate(_Bounds):
    """The estimate's two bounds on OPT (OPT over exactly-K sets in
    exactly-K mode): value <= OPT <= 2*value, and OPT <= lp_bound, the
    value of the LP relaxation whose rounding gave value. It is the pair
    (value, lp_bound); rounding, the view rows of that rounding (None when
    not known), rides along outside the pair."""

    rounding: Optional[np.ndarray] = None

    def __new__(cls, value, lp_bound, rounding=None):
        self = super().__new__(cls, value, lp_bound)
        self.rounding = rounding
        return self


def half_approx_opt(inst: Instance, view: Optional[CandidateView] = None) -> OptimumEstimate:
    """Lower estimate v with v <= OPT <= 2v, and the LP bound it comes from.

    Solves the LP relaxation over the candidate items exactly (cardinality
    row sum x = K in exactly-K mode), on the integers of view (built here
    when not given). Its vertex has at most two fractional components, and
    when it has two they sum to exactly one. Its rounding -- the integral
    part, plus in exactly-K mode the lighter fractional unit -- is feasible
    and loses at most one item's profit, so
    v = max(rounding, best_single) >= LP/2 >= OPT/2, and v <= OPT <= LP.
    The rounding's view rows are the estimate's rounding.
    """
    if view is None:
        view = candidate_view(inst)
    if not len(view.ids):
        return OptimumEstimate(ZERO, ZERO, np.arange(0))
    exactly_k = inst.mode is Mode.EXACT
    P, W, rows = view.P, view.W, np.arange(len(view.ids))
    if not exactly_k:  # the inequality row's pool: positive profits only
        rows = np.flatnonzero(P > 0)
        P, W = P[rows], W[rows]
    pool = SmallSolver(rows, P, W, view.lp, view.lw, inst.cardinality, exactly_k)
    primal, integral, fractional, _, _ = _solve_units(pool, inst.budget, inst.cardinality)
    if exactly_k:
        integral = _rounding(W, integral, fractional)
    value = max(_sum_at(P, integral), _extremes(view.P)[1])  # max(rounding, best_single)
    return OptimumEstimate(Fraction(value, view.lp), Fraction(primal, view.lp), rows[integral])


# ---------------------------------------------------------------------------
# Exact arithmetic on growth powers. By the class-count bound
# _check_partition asserts, an index is at most about log_{1+eps}(K/eps):
# at eps = 1/800 (user eps 1/100) and K = 10^4 about 12,700, where growth**i
# has terms of about 37,000 digits. Three layers keep that affordable:
# (a) the exact terms the bracket fallbacks need are cached per growth and
# built by Python's binary exponentiation; (b) no solve builds a rounded
# profit (SmallSolver.from_partition reads class indices), and reports and
# checks get scale * growth**i, which CPython 3.10+ forms without a gcd of
# two huge integers, as the power's terms are coprime by construction;
# (c) comparisons and floors go through certified fixed-point brackets
# (320 fractional bits, outward rounding) and fall back to exact integers
# only when the bracket straddles the answer, which takes a near-exact tie.
# build_partition takes one bracket per class boundary, not per item. In
# integer profit units P = p*lp, with S = eps*opt_estimate*lp, large class
# i >= 1 is floor(S*g^(i-1)) < P <= floor(S*g^i) and small class j >= 0 is
# ceil(S*g^-j) <= P < ceil(S*g^(1-j)); a ceiling is the floor plus one
# unless _pow_reaches finds the boundary an exact integer, so a profit on a
# boundary joins the class whose rounded profit it equals. _check_partition
# checks every member against its class's bounds through _pow_reaches.
# ---------------------------------------------------------------------------

_BRACKET_BITS = 320
_BRACKET_ONE = 1 << _BRACKET_BITS


class _GrowthPowers(NamedTuple):
    """What one growth has computed of its powers so far."""

    terms: dict  # i -> coprime (numerator, denominator) of growth**i
    ladder: list  # b -> bracket of growth**(2**b)
    brackets: dict  # i -> bracket of growth**i


@lru_cache(maxsize=64)
def _powers(num: int, den: int) -> _GrowthPowers:
    """The power record of growth num/den, kept for the 64 growths used
    last."""
    lo = (num << _BRACKET_BITS) // den
    base = (lo, lo + 1)
    return _GrowthPowers(
        terms={0: (1, 1)},
        ladder=[base],
        brackets={0: (_BRACKET_ONE, _BRACKET_ONE), 1: base},
    )


def _growth_terms(growth: Fraction, i: int) -> tuple[int, int]:
    """Exact (numerator, denominator) of growth**i, coprime, cached."""
    terms = _powers(growth.numerator, growth.denominator).terms
    hit = terms.get(i)
    if hit is None:
        hit = terms[i] = (growth.numerator**i, growth.denominator**i)
    return hit


def _bracket_pow(growth: Fraction, i: int) -> tuple[int, int]:
    """Certified bracket (lo, hi) with lo <= growth**i * 2**BITS <= hi.

    Built from a per-growth ladder of squarings with outward rounding; every
    intermediate is a few hundred bits, so a bracket costs microseconds at
    exponents where the exact power would fill megabytes.
    """
    per = _powers(growth.numerator, growth.denominator)
    hit = per.brackets.get(i)
    if hit is not None:
        return hit
    ladder = per.ladder
    while (1 << len(ladder)) <= i:
        llo, lhi = ladder[-1]
        ladder.append(
            ((llo * llo) >> _BRACKET_BITS, ((lhi * lhi) >> _BRACKET_BITS) + 1)
        )
    lo, hi = _BRACKET_ONE, _BRACKET_ONE
    bit, rem = 0, i
    while rem:
        if rem & 1:
            blo, bhi = ladder[bit]
            lo = (lo * blo) >> _BRACKET_BITS
            hi = ((hi * bhi) >> _BRACKET_BITS) + 1
        rem >>= 1
        bit += 1
    per.brackets[i] = (lo, hi)
    return lo, hi


def _pow_reaches(growth: Fraction, i: int, rn: int, rd: int) -> bool:
    """Exact truth of growth**i >= rn/rd (i >= 0, rn/rd > 0)."""
    lo, hi = _bracket_pow(growth, i)
    rfloor = (rn << _BRACKET_BITS) // rd
    if lo >= rfloor + 1:
        return True
    if hi < rfloor:
        return False
    n, d = _growth_terms(growth, i)
    return n * rd >= d * rn


def geometric_floor(scale: Fraction, growth: Fraction, exponent: int) -> int:
    """Exact floor(scale * growth**exponent) for scale > 0, growth > 1.

    Decides through a fixed-point bracket whenever the value is further than
    ~2^-300 from an integer; the exact big-integer route handles the rest
    (in particular every exact tie, where floor must not round up).
    """
    if exponent >= 0:
        lo, hi = _bracket_pow(growth, exponent)
    else:
        plo, phi = _bracket_pow(growth, -exponent)
        lo = (_BRACKET_ONE * _BRACKET_ONE) // phi
        hi = -((-_BRACKET_ONE * _BRACKET_ONE) // plo)
    sn, sd = scale.numerator, scale.denominator
    flo = (sn * lo) // (sd << _BRACKET_BITS)
    fhi = (sn * hi) // (sd << _BRACKET_BITS)
    if flo == fhi:
        return flo
    if exponent >= 0:
        n, d = _growth_terms(growth, exponent)
    else:
        d, n = _growth_terms(growth, -exponent)
    return (sn * n) // (sd * d)


def _geometric_index_up(ratio: Fraction, eps: Fraction) -> int:
    """Smallest integer i >= 0 with (1+eps)^i >= ratio, by doubling then
    bisecting; every probe is a certified bracket comparison with an exact
    integer fallback."""
    if ratio <= 1:
        return 0
    growth = 1 + eps
    rn, rd = ratio.numerator, ratio.denominator
    hi = 1
    while not _pow_reaches(growth, hi, rn, rd):
        hi *= 2
    lo = hi // 2  # reaches(lo) is False: either 0 (ratio > 1) or a failed probe
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _pow_reaches(growth, mid, rn, rd):
            hi = mid
        else:
            lo = mid
    return hi


def build_partition(
    inst: Instance,
    eps: Fraction,
    estimate: Optional[OptimumEstimate] = None,
    view: Optional[CandidateView] = None,
) -> Partition:
    """Partition the instance's items into geometric profit classes. eps is
    read by parse_rational, so a float raises TypeError.

    Items no feasible selection contains (see Instance.candidates) are
    discarded first; the optimum estimate is computed over what remains,
    unless the caller passes the one it already has, and so is the
    candidates' CandidateView.
    Every class holds its members' view rows by ascending weight, a large
    one with the prefix sums of their view weights W (unit lw); small
    classes, and in exactly-K mode the fillers, are pruned to their K
    lightest members. Classes are
    assigned on the view's integer profits against boundaries computed
    once (see the comment block above): one searchsorted over int64
    profits, one bisect per profit over Python ints. One lexsort on
    (class, W) then orders every class; it is stable and the view's rows
    ascend by id, so ties go by id.
    """
    eps = parse_rational(eps)
    if not (0 < eps < 1):
        raise ValueError(f"epsilon must be in (0,1), got {eps}")
    K = inst.cardinality
    exactly_k = inst.mode is Mode.EXACT

    if view is None:
        view = candidate_view(inst)
    if estimate is None:
        estimate = half_approx_opt(inst, view)
    opt_estimate = 2 * estimate.value
    if opt_estimate <= 0:
        raise TrivialInstanceError(
            "no feasible selection has positive profit; the empty solution is optimal"
        )

    large_floor = eps * opt_estimate  # profits above this are large
    growth = 1 + eps
    P, W = view.P, view.W
    scale = large_floor * view.lp
    sn, sd = scale.numerator, scale.denominator
    floor_p = -(-sn // (sd * K))  # ceil(S/K): below it, discarded or filler
    top = _extremes(P)[1]
    large_bounds = [geometric_floor(scale, growth, 0)]  # floor(S*g^i)
    while large_bounds[-1] < top:
        large_bounds.append(geometric_floor(scale, growth, len(large_bounds)))
    # Small classes start at j0, the class of the largest profit at most
    # floor(S): smallest j with S*g^-j <= that profit. At large K the small
    # profits lie many classes below S, whose bounds nothing needs.
    highest = _extremes(P[P <= large_bounds[0]])[1]
    j0 = _geometric_index_up(scale / highest, eps) if highest else 0
    small_bounds: list[int] = []  # -ceil(S*g^-j) for j >= j0, negated to ascend
    while not small_bounds or -small_bounds[-1] > floor_p:
        j = j0 + len(small_bounds)
        f = geometric_floor(scale, growth, -j)
        exact = f and _pow_reaches(growth, j, sn, sd * f)  # S*g^-j == f
        small_bounds.append(-f if exact else -f - 1)

    # Every class is an interval of P, so one ascending list of cut points
    # gives each profit its slot, the number of cuts at or below it: slot 0
    # lies below the floor, slot s in 1..J+1-j0 is small class J+1-s, and
    # slot s > J+1-j0 is large class s-(J+1-j0).
    J = j0 + len(small_bounds) - 1
    smalls = J + 1 - j0
    cuts = [floor_p, *(-b for b in reversed(small_bounds[:-1])), *(b + 1 for b in large_bounds[:-1])]
    slot = _bisect_right(cuts, P)
    order = np.lexsort((W, slot))
    slots = slot[order]
    starts = np.flatnonzero(slots[1:] != slots[:-1]) + 1

    pruned = [order[:0]]  # rows of the candidates no class keeps
    large_classes, small_classes = [], []
    filler_rows = ()
    for group in np.split(order, starts):
        s = int(slot[group[0]])
        if s > smalls:
            prefix = tuple(accumulate(W[group].tolist(), initial=0))
            rows = tuple(group.tolist())
            large_classes.append(LargeClass(s - smalls, large_floor, growth, rows, prefix, view.lw))
            continue
        if s == 0 and not exactly_k:
            pruned.append(group)
            continue
        pruned.append(group[K:])
        rows = tuple(group[:K].tolist())
        if s == 0:
            filler_rows = rows
        else:
            small_classes.append(SmallClass(J + 1 - s, large_floor, growth, rows))
    small_classes.reverse()  # slots ascend with profit, small indices descend

    discarded = view.ids[np.concatenate(pruned)].tolist()
    if len(view.ids) < inst.n:  # the items no feasible selection contains
        kept = set(view.ids.tolist())
        discarded += [it.id for it in inst.items if it.id not in kept]

    partition = Partition(
        opt_estimate=opt_estimate,
        epsilon=eps,
        z=min(K, math.ceil(1 / eps)),
        cardinality=K,
        budget=inst.budget,
        large_classes=tuple(large_classes),
        small_classes=tuple(small_classes),
        discarded=frozenset(discarded),
        view=view,
        exactly_k=exactly_k,
        filler_rows=filler_rows,
    )
    _check_partition(partition, inst)
    return partition


def _bisect_right(cuts: list[int], values: np.ndarray) -> np.ndarray:
    """bisect_right(cuts, v) for every v of an int64 or object array: one
    searchsorted over int64 (every cut fits, since the cuts stop at the
    largest value), one bisect per value over Python ints."""
    if values.dtype == object:
        return np.array([bisect_right(cuts, v) for v in values.tolist()], dtype=np.intp)
    return np.searchsorted(np.array(cuts, dtype=np.int64), values, side="right")


def _check_partition(partition: Partition, inst: Instance) -> None:
    """Structural invariants, cheap enough to run on every build.

    Every large class counts its weights in the view's unit lw. Membership
    checks run on the view's integer profits P = p*lp at each class's rows,
    with S = eps*opt_estimate*lp, through the exact bracket comparator, so
    they stay cheap even when class indices are huge: a large member of
    class i satisfies growth^(i-1) < P/S <= growth^i, a small member of
    class i satisfies growth^i >= S/P > growth^(i-1) (equivalently
    S*growth^(-i) <= P < S*growth^(-i+1)). Both conditions are intervals in
    P, so every member of a class meets them exactly when its least and its
    greatest P do; only those two are compared to the growth powers.
    """
    eps = partition.epsilon
    opt = partition.opt_estimate
    growth = 1 + eps
    large_floor = eps * opt
    K = partition.cardinality
    n = inst.n
    view = partition.view
    scale = large_floor * view.lp
    sn, sd = scale.numerator, scale.denominator

    for c in partition.large_classes:
        assert c.index >= 1 and c.profit_scale == large_floor and c.growth == growth
        least, greatest = _extremes(view.P[list(c.rows)])
        assert _pow_reaches(growth, c.index, greatest * sd, sn), c
        assert not _pow_reaches(growth, c.index - 1, least * sd, sn), c
        assert len(c.prefix_weights) == c.size + 1 and c.weight_scale == view.lw
    for c in partition.small_classes:
        assert c.index >= 0 and c.profit_scale == large_floor and c.growth == growth
        assert c.size <= K
        least, greatest = _extremes(view.P[list(c.rows)])
        assert _pow_reaches(growth, c.index, sn, sd * least), c
        # For index 0 the upper bound P < S*growth holds by the small/large
        # split itself (P <= S < S*growth).
        if c.index:
            assert not _pow_reaches(growth, c.index - 1, sn, sd * greatest), c
    # Fillers: exactly-K mode only, at most K, each below the profit floor:
    # P*K < S.
    fillers = partition.filler_rows
    assert partition.exactly_k or not fillers
    assert len(fillers) <= K
    if fillers:
        _, greatest = _extremes(view.P[list(fillers)])
        assert greatest * K * sd < sn, fillers

    # Class-count bound: at most ceil(log_{1+eps}(1/eps)) large indices plus
    # ceil(log_{1+eps}(K)) + 1 small indices, together within
    # 2*ceil(log_{1+eps}(K/eps)) + 2; never more than n non-empty classes.
    bound_exp = _geometric_index_up(
        Fraction(partition.cardinality) / eps, eps
    )
    assert partition.class_count <= min(2 * bound_exp + 2, n), (
        partition.class_count,
        bound_exp,
        n,
    )
