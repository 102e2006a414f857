"""Optimum estimation and geometric partitioning of items.

The pipeline never knows the true optimum; it works with the estimate
opt_estimate = 2 * half_approx_opt, which brackets the optimum from above
within a factor of 2. Items are then split by profit relative to the
estimate: profits above eps*opt_estimate are "large" and get rounded UP to
the right endpoint of their geometric interval; profits in
[eps*opt_estimate/K, eps*opt_estimate] are "small" and get rounded DOWN to
a geometric point; profits below eps*opt_estimate/K are discarded in
at-most mode and become zero-profit fillers in exactly-K mode (either way
K of them are worth less than eps*opt_estimate). Small classes and the
fillers keep only their K lightest members -- some optimal solution
survives the pruning because equal-profit items are interchangeable and
lighter is never worse. Exactly-K mode first drops the items no feasible
K-set contains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from .instance_model import Instance, Item, Mode
from .small_items import solve_box_lp

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
    certified fixed-point brackets instead). Members are sorted by weight
    ascending (ties by id) and prefix_weights[j] is the total weight of the
    j lightest members -- the only statistic the weight-table construction
    needs.
    """

    index: int
    profit_scale: Fraction
    growth: Fraction
    members: tuple[Item, ...]
    prefix_weights: tuple[Fraction, ...]

    @cached_property
    def rounded_profit(self) -> Fraction:
        return _scaled_pow(self.profit_scale, self.growth, self.index)

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SmallClass:
    """Geometric profit class of small items.

    index i >= 0 covers original profits in
    [scale*growth^(-i), scale*growth^(-i+1)) where scale = eps*opt_estimate
    and growth = 1+eps -- rounding DOWN: rounded_profit = scale*growth^(-index)
    is the grid point at or directly below every member's profit, so the
    loss per item is under eps/(1+eps) of its profit (materialised lazily,
    like LargeClass.rounded_profit). Members are the class's K lightest
    items, weight ascending, ties by id.
    """

    index: int
    profit_scale: Fraction
    growth: Fraction
    members: tuple[Item, ...]

    @cached_property
    def rounded_profit(self) -> Fraction:
        return _scaled_pow(self.profit_scale, self.growth, -self.index)

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Partition:
    """Complete rounding/partitioning state for one solve.

    discarded holds the ids that are not candidates (see Instance.candidates),
    are pruned, or lie below the profit floor eps*opt_estimate/K, except the
    fillers: in exactly-K mode (exactly_k) the K lightest of those, counted
    at profit 0. cardinality is carried along because the small-item
    relaxations need K itself, not only z = min(K, ceil(1/eps)).
    """

    opt_estimate: Fraction
    epsilon: Fraction
    z: int
    cardinality: int
    budget: Fraction
    large_classes: tuple[LargeClass, ...]
    small_classes: tuple[SmallClass, ...]
    discarded: frozenset[int]
    exactly_k: bool = False
    fillers: tuple[Item, ...] = ()

    @property
    def class_count(self) -> int:
        return len(self.large_classes) + len(self.small_classes)

    @property
    def large_item_count(self) -> int:
        return sum(c.size for c in self.large_classes)

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
            "fillers": [it.id for it in self.fillers],
        }


def half_approx_opt(inst: Instance) -> Fraction:
    """Lower estimate v with v <= OPT <= 2v (OPT over exactly-K sets in
    exactly-K mode).

    Solves the LP relaxation over the candidate items exactly (cardinality
    row sum x = K in exactly-K mode). Its vertex has at most two fractional
    components, and when it has two they sum to exactly one. Its rounding --
    the integral part, plus in exactly-K mode the lighter fractional unit --
    is feasible and loses at most one item's profit, so
    max(rounding, best_single) >= LP/2 >= OPT/2, and it is <= OPT.
    """
    items = inst.candidates
    if not items:
        return ZERO
    best_single = max((it.profit for it in items), default=ZERO)
    exactly_k = inst.mode is Mode.EXACT
    lp = solve_box_lp(items, inst.budget, inst.cardinality, equality=exactly_k)
    ids = lp.integral_ids
    if exactly_k:
        ids = lp.rounded_ids(lambda uid: inst.by_id[uid].weight)
    rounded = sum((inst.by_id[uid].profit for uid in ids), ZERO)
    return max(rounded, best_single, ZERO)


def _ceil_inv(eps: Fraction) -> int:
    return math.ceil(1 / Fraction(eps))


# ---------------------------------------------------------------------------
# Exact arithmetic on growth powers. By the class-count bound
# _check_partition asserts, an index is at most about log_{1+eps}(K/eps):
# at eps = 1/800 (user eps 1/100) and K = 10^4 about 12,700, where growth**i
# has terms of about 37,000 digits. Three layers keep that affordable:
# (a) exact powers are cached per growth and built by Python's
# binary exponentiation; (b) Fractions combining them never run gcd on two
# huge integers -- growth is stored in lowest terms, so its power's terms are
# coprime by construction and only small-versus-huge reductions remain;
# (c) comparisons and floors go through certified fixed-point brackets
# (320 fractional bits, outward rounding) and fall back to exact integers
# only when the bracket straddles the answer, which takes a near-exact tie.
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


# Building a Fraction from a known-coprime pair skips the normalisation gcd,
# which dominates everything else once the integers are huge. The private
# slots are stable across CPython versions; verify once and fall back to the
# plain constructor if the interpreter ever changes them.
def _coprime_fraction_fast(n: int, d: int) -> Fraction:
    f = Fraction.__new__(Fraction)
    f._numerator = n
    f._denominator = d
    return f


try:
    _coprime_fraction = (
        _coprime_fraction_fast
        if _coprime_fraction_fast(3, 4) == Fraction(3, 4)
        else Fraction
    )
except AttributeError:  # pragma: no cover - exotic interpreter
    _coprime_fraction = Fraction


def _growth_terms(growth: Fraction, i: int) -> tuple[int, int]:
    """Exact (numerator, denominator) of growth**i, coprime, cached."""
    terms = _powers(growth.numerator, growth.denominator).terms
    hit = terms.get(i)
    if hit is None:
        hit = terms[i] = (growth.numerator**i, growth.denominator**i)
    return hit


def _growth_pow(growth: Fraction, i: int) -> Fraction:
    return _coprime_fraction(*_growth_terms(growth, i))


def _scaled_pow(scale: Fraction, growth: Fraction, i: int) -> Fraction:
    """Exact scale * growth**i (i may be negative) for scale > 0.

    growth**i has coprime terms, scale is already normalised, so after
    dividing the two small-versus-huge cross gcds out the remaining pair is
    coprime and the Fraction can be assembled without a huge-integer gcd.
    """
    if i >= 0:
        pn, pd = _growth_terms(growth, i)
    else:
        pd, pn = _growth_terms(growth, -i)
    sn, sd = scale.numerator, scale.denominator
    g1 = math.gcd(sn, pd)
    g2 = math.gcd(sd, pn)
    return _coprime_fraction((sn // g1) * (pn // g2), (sd // g2) * (pd // g1))


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


def build_partition(inst: Instance, eps: Fraction) -> Partition:
    """Partition the instance's items into geometric profit classes.

    Items no feasible selection contains (see Instance.candidates) are
    discarded first; the optimum estimate is computed over what remains.
    Large members are stored sorted by ascending weight with prefix sums;
    small classes, and in exactly-K mode the fillers, are pruned to their K
    lightest members.
    """
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError(f"epsilon must be in (0,1), got {eps}")
    K = inst.cardinality
    exactly_k = inst.mode is Mode.EXACT
    candidates = inst.candidates

    opt_estimate = 2 * half_approx_opt(inst)
    if opt_estimate <= 0:
        raise TrivialInstanceError(
            "no feasible selection has positive profit; the empty solution is optimal"
        )

    z = min(K, _ceil_inv(eps))
    large_floor = eps * opt_estimate  # profits above this are large
    small_floor = large_floor / K  # profits below this are discarded or fillers
    growth = 1 + eps

    kept_ids = {it.id for it in candidates}
    discarded = {it.id for it in inst.items if it.id not in kept_ids}
    large_groups: dict[int, list[Item]] = {}
    small_groups: dict[int, list[Item]] = {}
    fillers: list[Item] = []
    for it in candidates:
        p = it.profit
        if p < small_floor:
            discarded.add(it.id)
            if exactly_k:
                fillers.append(it)
        elif p <= large_floor:
            # Round down: smallest i >= 0 with large_floor*(1+eps)^(-i) <= p.
            i = _geometric_index_up(large_floor / p, eps)
            small_groups.setdefault(i, []).append(it)
        else:
            # Round up: smallest i (>= 1 since p > large_floor) with
            # p <= large_floor * (1+eps)^i.
            i = _geometric_index_up(p / large_floor, eps)
            large_groups.setdefault(i, []).append(it)
    fillers = sorted(fillers, key=lambda t: (t.weight, t.id))[:K]
    discarded.difference_update(it.id for it in fillers)

    large_classes = []
    for i in sorted(large_groups):
        members = sorted(large_groups[i], key=lambda t: (t.weight, t.id))
        prefix = [ZERO]
        for it in members:
            prefix.append(prefix[-1] + it.weight)
        large_classes.append(
            LargeClass(
                index=i,
                profit_scale=large_floor,
                growth=growth,
                members=tuple(members),
                prefix_weights=tuple(prefix),
            )
        )

    small_classes = []
    for i in sorted(small_groups):
        members = sorted(small_groups[i], key=lambda t: (t.weight, t.id))
        kept = members[:K]
        discarded.update(it.id for it in members[K:])
        small_classes.append(
            SmallClass(
                index=i,
                profit_scale=large_floor,
                growth=growth,
                members=tuple(kept),
            )
        )

    partition = Partition(
        opt_estimate=opt_estimate,
        epsilon=eps,
        z=z,
        cardinality=K,
        budget=inst.budget,
        large_classes=tuple(large_classes),
        small_classes=tuple(small_classes),
        discarded=frozenset(discarded),
        exactly_k=exactly_k,
        fillers=tuple(fillers),
    )
    _check_partition(partition, inst)
    return partition


def _check_partition(partition: Partition, inst: Instance) -> None:
    """Structural invariants, cheap enough to run on every build.

    Membership checks run on the ratio profit/(eps*opt_estimate) through the
    exact bracket comparator, so they stay cheap even when class indices are
    huge: a large member of class i satisfies
    growth^(i-1) < ratio <= growth^i, a small member of class i satisfies
    growth^i >= 1/ratio > growth^(i-1) (equivalently
    scale*growth^(-i) <= profit < scale*growth^(-i+1)).
    """
    eps = partition.epsilon
    opt = partition.opt_estimate
    growth = 1 + eps
    large_floor = eps * opt
    n = inst.n

    for c in partition.large_classes:
        assert c.index >= 1 and c.profit_scale == large_floor and c.growth == growth
        for it in c.members:
            r = it.profit / large_floor
            assert _pow_reaches(growth, c.index, r.numerator, r.denominator), (
                it,
                c.index,
            )
            assert not _pow_reaches(
                growth, c.index - 1, r.numerator, r.denominator
            ), (it, c.index)
        assert len(c.prefix_weights) == c.size + 1
    for c in partition.small_classes:
        assert c.index >= 0 and c.profit_scale == large_floor and c.growth == growth
        assert c.size <= partition.cardinality
        for it in c.members:
            r = large_floor / it.profit
            assert _pow_reaches(growth, c.index, r.numerator, r.denominator), (
                it,
                c.index,
            )
            # For index 0 the upper bound profit < scale*growth holds by the
            # small/large split itself (profit <= scale < scale*growth).
            if c.index:
                assert not _pow_reaches(
                    growth, c.index - 1, r.numerator, r.denominator
                ), (it, c.index)
    # Fillers: exactly-K mode only, at most K, each below the profit floor.
    assert partition.exactly_k or not partition.fillers
    assert len(partition.fillers) <= partition.cardinality
    for it in partition.fillers:
        assert it.profit * partition.cardinality < large_floor, it

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
