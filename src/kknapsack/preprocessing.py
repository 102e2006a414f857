"""Optimum estimation and geometric partitioning of items.

The pipeline never knows the true optimum; it works with the estimate
opt_estimate = 2 * half_approx_opt, which brackets the optimum from above
within a factor of 2. Items are then split by profit relative to the
estimate: profits above eps*opt_estimate are "large" and get rounded UP to
the right endpoint of their geometric interval; profits in
[eps*opt_estimate/K, eps*opt_estimate] are "small" and get rounded DOWN to
a geometric point; profits below eps*opt_estimate/K are discarded (their
total contribution to any feasible solution is at most eps*opt_estimate).
Small classes keep only their K lightest members -- some optimal solution
survives the pruning because equal-profit items are interchangeable and
lighter is never worse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .instance_model import Instance, Item
from .small_items import upsilon1

ZERO = Fraction(0)


class TrivialInstanceError(ValueError):
    """Raised when no item contributes positive profit within the budget;
    the empty selection is optimal."""


@dataclass(frozen=True)
class LargeClass:
    """Geometric profit class of large items.

    index i >= 1 covers original profits in
    (scale*growth^(i-1), scale*growth^i] where scale = eps*opt_estimate and
    growth = 1+eps; every member counts as
    rounded_profit = scale*growth^index. The exact rounded profit is
    materialised lazily: on profit-shifted instances the indices reach the
    hundreds of thousands and the exact power is an integer with as many
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

    discarded holds the ids dropped for being oversize (weight > budget) or
    below the profit floor eps*opt_estimate/K. cardinality is carried along
    because the small-item relaxations need K itself, not only
    z = min(K, ceil(1/eps)).
    """

    opt_estimate: Fraction
    epsilon: Fraction
    z: int
    cardinality: int
    budget: Fraction
    large_classes: tuple[LargeClass, ...]
    small_classes: tuple[SmallClass, ...]
    discarded: frozenset[int]

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
        }


def _fitting_items(inst: Instance) -> list[Item]:
    return [it for it in inst.items if it.weight <= inst.budget]


def half_approx_opt(inst: Instance) -> Fraction:
    """Lower estimate v with v <= OPT <= 2v.

    Solves the LP relaxation over the fitting items exactly; its optimal
    vertex has at most two fractional components, and when both rows are
    tight the fractional parts sum to exactly one unit, so
    LP <= integral_part + best_single. Hence
    max(integral_part, best_single) >= LP/2 >= OPT/2, and both candidates
    are feasible selections, so the max is also <= OPT.
    """
    fitting = _fitting_items(inst)
    if not fitting:
        return ZERO
    best_single = max((it.profit for it in fitting), default=ZERO)
    lp = upsilon1(fitting, inst.budget, inst.cardinality)
    integral_value = sum(
        (inst.by_id[uid].profit for uid in lp.integral_ids), ZERO
    )
    return max(integral_value, best_single, ZERO)


def _ceil_inv(eps: Fraction) -> int:
    return math.ceil(1 / Fraction(eps))


# ---------------------------------------------------------------------------
# Exact arithmetic on growth powers. Class indices on profit-shifted
# instances reach the hundreds of thousands, where growth**i is a ratio of
# integers with hundreds of thousands of digits. Three layers keep that
# affordable: (a) exact powers are cached per growth and built by Python's
# binary exponentiation; (b) Fractions combining them never run gcd on two
# huge integers -- growth is stored in lowest terms, so its power's terms are
# coprime by construction and only small-versus-huge reductions remain;
# (c) comparisons and floors go through certified fixed-point brackets
# (320 fractional bits, outward rounding) and fall back to exact integers
# only when the bracket straddles the answer, which takes a near-exact tie.
# ---------------------------------------------------------------------------

_POWER_CACHE: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}
_POWER_CACHE_GROWTHS = 64

_BRACKET_BITS = 320
_BRACKET_ONE = 1 << _BRACKET_BITS
# per growth: {"ladder": [bracket of growth^(2^b)], "pow": {i: bracket}}
_BRACKET_CACHE: dict[tuple[int, int], dict] = {}

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
    key = (growth.numerator, growth.denominator)
    per = _POWER_CACHE.get(key)
    if per is None:
        while len(_POWER_CACHE) >= _POWER_CACHE_GROWTHS:
            _POWER_CACHE.pop(next(iter(_POWER_CACHE)))
        per = _POWER_CACHE[key] = {0: (1, 1)}
    hit = per.get(i)
    if hit is None:
        hit = (growth.numerator**i, growth.denominator**i)
        per[i] = hit
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
    key = (growth.numerator, growth.denominator)
    per = _BRACKET_CACHE.get(key)
    if per is None:
        while len(_BRACKET_CACHE) >= _POWER_CACHE_GROWTHS:
            _BRACKET_CACHE.pop(next(iter(_BRACKET_CACHE)))
        base_lo = (growth.numerator << _BRACKET_BITS) // growth.denominator
        per = _BRACKET_CACHE[key] = {
            "ladder": [(base_lo, base_lo + 1)],
            "pow": {0: (_BRACKET_ONE, _BRACKET_ONE), 1: (base_lo, base_lo + 1)},
        }
    hit = per["pow"].get(i)
    if hit is not None:
        return hit
    ladder = per["ladder"]
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
    per["pow"][i] = (lo, hi)
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

    Oversize items (weight > budget) are discarded first; the optimum
    estimate is computed over what remains. Large members are stored sorted
    by ascending weight with prefix sums; small classes are pruned to their
    K lightest members.
    """
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError(f"epsilon must be in (0,1), got {eps}")
    K = inst.cardinality
    fitting = _fitting_items(inst)
    oversize = {it.id for it in inst.items if it.weight > inst.budget}

    opt_estimate = 2 * half_approx_opt(inst)
    if opt_estimate <= 0:
        raise TrivialInstanceError(
            "no fitting item has positive profit; the empty solution is optimal"
        )

    z = min(K, _ceil_inv(eps))
    large_floor = eps * opt_estimate  # profits above this are large
    small_floor = large_floor / K  # profits below this are discarded
    growth = 1 + eps

    discarded = set(oversize)
    large_groups: dict[int, list[Item]] = {}
    small_groups: dict[int, list[Item]] = {}
    for it in fitting:
        p = it.profit
        if p < small_floor:
            discarded.add(it.id)
        elif p <= large_floor:
            # Round down: smallest i >= 0 with large_floor*(1+eps)^(-i) <= p.
            i = _geometric_index_up(large_floor / p, eps)
            small_groups.setdefault(i, []).append(it)
        else:
            # Round up: smallest i (>= 1 since p > large_floor) with
            # p <= large_floor * (1+eps)^i.
            i = _geometric_index_up(p / large_floor, eps)
            large_groups.setdefault(i, []).append(it)

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
