"""Continuous relaxations for the small-item subproblem.

The subproblem: given the small-profit items (geometrically rounded profits,
original weights), a residual weight budget omega and a residual cardinality
cap k, estimate the best achievable profit. Exact integer optimization is
replaced by a ladder of relaxations:

* upsilon1 -- the plain LP relaxation (box constraints + one weight row + one
  cardinality row), solved exactly at a vertex with at most two fractional
  components. Its critical Lagrange multiplier is found by line
  intersection on the convex dual, and its vertex built, on integer keys:
  the data is scaled to integers once, and only the at most two fractional
  components are Fractions.
* upsilon3 -- profit of the best ell items among those individually lighter
  than eps*omega/K, ignoring their (negligible) total weight.
* upsilon4 -- LP relaxation over the remaining items with weights rounded up
  to a geometric grid and the budget scaled by (1-eps), evaluated through its
  Lagrangian dual min_mu L(mu).
* upsilon5 / upsilon2 -- combine upsilon3 and upsilon4 over the split ell,
  maximized by binary search on the first-order difference of the (discretely
  concave) sequence.

All module-level functions compute in exact rational arithmetic, and
SmallSolver answers upsilon1 exactly at every pool size. Only its upsilon2
pools above EXACT_POOL_LIMIT are ranked in float; those values only rank
candidates, and any returned item set is re-checked for feasibility in exact
arithmetic. Ties everywhere are broken deterministically by item id.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

ZERO = Fraction(0)
ONE = Fraction(1)

# SmallSolver pools in the upsilon2 regime (K > 1/eps) above this size are
# ranked in float; upsilon1 pools are exact at every size.
EXACT_POOL_LIMIT = 64

# Number of geometric multiplier samples in the float dual sweep.
MU_GRID_SIZE = 96


def _fraction(v) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)


def _units(items) -> list[tuple[int, Fraction, Fraction]]:
    """Normalize items to (id, profit, weight) triples, id-ascending. Values
    that already are Fractions are kept, not copied."""
    out = []
    for it in items:
        if isinstance(it, tuple):
            uid, p, w = it
        else:
            uid, p, w = it.id, it.profit, it.weight
        out.append((int(uid), _fraction(p), _fraction(w)))
    out.sort(key=lambda t: t[0])
    return out


@dataclass(frozen=True)
class SmallEval:
    """Result of one relaxation evaluation.

    fractional_solution maps item id -> value in [0,1] (only nonzero
    entries); integral_ids are the ids at exactly 1. For upsilon2 results,
    ell and mu record the chosen split and dual multiplier.
    """

    value: Fraction
    fractional_solution: dict
    integral_ids: tuple[int, ...]
    mu: Optional[Fraction] = None
    ell: Optional[int] = None

    @property
    def fractional_count(self) -> int:
        return sum(1 for v in self.fractional_solution.values() if 0 < v < 1)


# ---------------------------------------------------------------------------
# Exact box-LP engine: max p.x st w.x <= budget, 1.x <= cap, 0 <= x <= 1.
# upsilon1 is exactly this program; upsilon4's inner problem reuses it.
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _IntScaling:
    """Units scaled once to integers: P_i = p_i*lp and W_i = w_i*lw, with lp
    and lw the lcm of the profit and weight denominators.

    In these units the adjusted profit p - mu*w is proportional to
    P - nu*W with nu = mu*lp/lw, so at nu = num/den every unit's greedy key
    den*P - num*W is an integer.

    The scaling also caches the greedy passes of one cap at a time. A pass
    depends only on cap and on the value of nu, so it is keyed by the
    reduced num/den, and a new cap drops the old entries. Queries at many
    budgets for one cap, as in the combiner's split sweep, share the
    passes that their multiplier searches have in common.
    """

    P: tuple[int, ...]
    W: tuple[int, ...]
    lp: int
    lw: int
    _cap: Optional[int] = field(default=None, init=False, repr=False)
    _passes: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def of(cls, units) -> "_IntScaling":
        profits = [p for _, p, _ in units]
        weights = [w for _, _, w in units]
        lp = math.lcm(*(p.denominator for p in profits))
        lw = math.lcm(*(w.denominator for w in weights))
        return cls(_over(profits, lp), _over(weights, lw), lp, lw)

    @cached_property
    def top_ratio(self) -> tuple[int, int]:
        """(P, W) of a unit with the largest ratio P/W over W > 0, or (0, 1)
        when every unit is weightless."""
        top_p, top_w = 0, 1
        for p, w in zip(self.P, self.W):
            if w > 0 and p * top_w > top_p * w:
                top_p, top_w = p, w
        return top_p, top_w

    def maximizer(self, cap: int, num: int, den: int):
        """_lightest_maximizer at nu = num/den, cached for the current cap."""
        if cap != self._cap:
            self._cap, self._passes = cap, {}
        g = math.gcd(num, den)
        key = (num // g, den // g)
        found = self._passes.get(key)
        if found is None:
            found = self._passes[key] = _lightest_maximizer(self, cap, *key)
        return found


def _over(values, lcm: int) -> tuple[int, ...]:
    """Numerators of the values over the common denominator lcm. A value
    already over lcm, such as any integer when lcm is 1, keeps its numerator
    object, so integral pools allocate no new ints."""
    return tuple(
        v.numerator if v.denominator == lcm else v.numerator * (lcm // v.denominator)
        for v in values
    )


def _lightest_maximizer(scaled: _IntScaling, cap: int, num: int, den: int):
    """Lightest maximizer S of the inner Lagrangian problem at nu = num/den:
    the top-cap units by positive key den*P - num*W, ties at the cap-th key
    going to the lighter unit and then to the lower index.

    Returns (sum of P over S, sum of W over S, indices of S).
    """
    P, W = scaled.P, scaled.W
    keys = [den * p - num * w for p, w in zip(P, W)]
    chosen = [i for i, key in enumerate(keys) if key > 0]
    if len(chosen) > cap:
        cut = sorted((keys[i] for i in chosen), reverse=True)[cap - 1]
        tied = sorted((W[i], i) for i in chosen if keys[i] == cut)
        chosen = [i for i in chosen if keys[i] > cut]
        chosen += [i for _, i in tied[: cap - len(chosen)]]
    return sum(P[i] for i in chosen), sum(W[i] for i in chosen), chosen


def _critical_multiplier(
    scaled: _IntScaling, budget_w: Fraction, cap: int, pa: int, wa: int
) -> tuple[int, int]:
    """nu* = num/den in lowest terms, the scaled image of
    mu* = min{mu >= 0 : wmin(mu) <= budget}, the leftmost minimizer of the
    convex dual L(mu) = mu*budget + g(mu), by bracketing line intersection.

    Every maximizer S of the inner problem gives a supporting line of L,
    P_S + nu*(budget_w - W_S) in the scaled units (budget_w = budget*lw);
    the lightest one gives the right derivative. The bracket [a, b] keeps
    wmin(a) > budget >= wmin(b). It starts from a = 0, where the caller
    found the lightest selection (pa, wa) over budget, and from b = max P/W,
    where only weightless units keep a positive key. The lines at a and b
    cross at c = (P_a - P_b)/(W_a - W_b). If L(c) lies on the line at a, L
    is linear on [a, c] with negative slope and on [c, b] with slope >= 0,
    so c is mu*. Otherwise c replaces the end whose side of the budget it
    shares. Each replacement strictly raises the slope at a or lowers it at
    b, so the loop ends.
    """
    pb, wb, _ = scaled.maximizer(cap, *scaled.top_ratio)
    while True:
        num, den = pa - pb, wa - wb
        pc, wc, _ = scaled.maximizer(cap, num, den)
        if den * pc - num * wc == den * pa - num * wa:
            g = math.gcd(num, den)
            return num // g, den // g
        if wc > budget_w:
            pa, wa = pc, wc
        else:
            pb, wb = pc, wc


def _vertex(scaled: _IntScaling, budget_w: Fraction, cap: int, num: int, den: int):
    """Optimal LP vertex at the critical multiplier nu* = num/den > 0, built
    on the integer keys den*P - num*W.

    Units with a positive key go in, up to the cap. The weight row is then
    made exactly tight with the units whose key ties the entry threshold
    (the zero-key units when the positive ones fit the cap): full swaps
    first, then one final fractional swap, so at most two components are
    fractional. Returns (integral indices, fractional (index, x) pairs,
    primal sum of P*x, key sum G of a maximizer); den*primal equals
    num*budget_w + G exactly when primal and dual values agree.
    """
    P, W = scaled.P, scaled.W
    bn, bd = budget_w.numerator, budget_w.denominator
    keys = [den * p - num * w for p, w in zip(P, W)]
    integral = [i for i, key in enumerate(keys) if key > 0]
    fractional = []
    if len(integral) <= cap:
        # Pad the weight up to the budget with zero-key units, which are
        # free for the inner objective, heaviest first.
        g = sum(keys[i] for i in integral)
        used = sum(W[i] for i in integral)
        assert bd * used <= bn, "greedy selection exceeds budget at mu*"
        zeros = sorted((-W[i], i) for i, key in enumerate(keys) if key == 0)
        for neg_w, i in zeros[: cap - len(integral)]:
            if bd * used == bn:
                break
            if bd * (used - neg_w) <= bn:
                integral.append(i)
                used -= neg_w
            else:
                fractional.append((i, Fraction(bn - bd * used, -bd * neg_w)))
                break
        assert fractional or bd * used == bn, "cannot make weight row tight at mu*"
    else:
        cut = sorted((keys[i] for i in integral), reverse=True)[cap - 1]
        tied = sorted((W[i], i) for i in integral if keys[i] == cut)
        integral = [i for i in integral if keys[i] > cut]
        fill = cap - len(integral)
        g = sum(keys[i] for i in integral) + fill * cut
        lightest, heaviest = tied[:fill], tied[fill:][::-1]
        used = sum(W[i] for i in integral) + sum(w for w, _ in lightest)
        assert bd * used <= bn, "lightest tied fill already over budget at mu*"
        swaps = 0
        for (w_in, i_in), (w_out, i_out) in zip(heaviest, lightest):
            if bd * used == bn:
                break
            delta = w_in - w_out
            if bd * (used + delta) <= bn:
                used += delta
                swaps += 1
            else:
                lam = Fraction(bn - bd * used, bd * delta)
                fractional = [(i_in, lam), (i_out, ONE - lam)]
                break
        assert fractional or bd * used == bn, "cannot reach weight target from ties"
        integral += [i for _, i in heaviest[:swaps]]
        integral += [i for _, i in lightest[swaps + bool(fractional):]]
    primal = sum(P[i] for i in integral) + sum((P[i] * x for i, x in fractional), ZERO)
    return integral, fractional, primal, g


def solve_box_lp(items, budget: Fraction, cap: int) -> SmallEval:
    """Exact optimum of max p.x st w.x <= budget, sum x <= cap, x in [0,1].

    Fast path: if the minimum-weight top-cap-by-profit selection fits, it is
    integral and optimal. Otherwise the weight row is tight at the optimum:
    the critical Lagrange multiplier is found by an exact line-intersection
    search on integer-scaled data, then a vertex with at most two fractional
    components is constructed at it from the same integer keys.
    """
    units = [u for u in _units(items) if u[1] > 0]
    return _solve_units(units, _IntScaling.of(units), Fraction(budget), cap)


def _solve_units(units, scaled: _IntScaling, budget: Fraction, cap: int) -> SmallEval:
    """solve_box_lp on units already normalized, id-sorted and filtered to
    positive profit, given their integer scaling. Every answer off the fast
    path is certified: its primal value equals the dual value at mu*."""
    cap = max(0, min(int(cap), len(units)))
    if cap == 0 or not units or budget < 0:
        return SmallEval(ZERO, {}, ())

    budget_w = budget * scaled.lw
    top_p, top_w, top = scaled.maximizer(cap, 0, 1)
    if top_w <= budget_w:
        ids = tuple(units[i][0] for i in sorted(top))
        return SmallEval(Fraction(top_p, scaled.lp), dict.fromkeys(ids, ONE), ids, mu=ZERO)

    num, den = _critical_multiplier(scaled, budget_w, cap, top_p, top_w)
    integral, fractional, primal, g = _vertex(scaled, budget_w, cap, num, den)
    assert den * primal == num * budget_w + g, f"primal != dual at nu*={num}/{den}"
    integral.sort()
    ids = tuple(units[i][0] for i in integral)
    x = dict.fromkeys(ids, ONE)
    x.update((units[i][0], v) for i, v in fractional)
    mu = Fraction(num * scaled.lw, den * scaled.lp)
    return SmallEval(Fraction(primal, scaled.lp), x, ids, mu=mu)


def upsilon1(items, omega: Fraction, k: int) -> SmallEval:
    """Exact LP relaxation of the small-item knapsack: weight budget omega,
    cardinality cap k, box-relaxed variables. Vertex optimum, <= 2 fractional
    components."""
    return solve_box_lp(items, Fraction(omega), k)


# ---------------------------------------------------------------------------
# Weight rounding and the typed heavy-side representation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class S2Type:
    """One (profit, rounded weight) class of the heavier small items.
    member_ids are ascending; the type acts as count interchangeable units."""

    profit: Fraction
    rounded_weight: Fraction
    member_ids: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.member_ids)


def round_small_weights(items, omega: Fraction, eps: Fraction, K: int):
    """Split items at the weight threshold eps*omega/K and round the heavy
    side's weights up to the geometric grid (eps*omega/K)*(1+eps)^j.

    Returned as (s1, s2_types): s1 is the light side with original data,
    s2_types groups the heavy side by (profit, rounded weight). The rounding
    guarantees w <= rounded <= (1+eps)*w. Items heavier than omega are
    dropped (they cannot participate at this budget).
    """
    omega = Fraction(omega)
    eps = Fraction(eps)
    if omega <= 0:
        return [], ()
    base = eps * omega / K
    units = _units(items)
    s1 = [u for u in units if u[2] <= base]
    heavy = [u for u in units if base < u[2] <= omega]

    # Geometric ladder of rounded weights covering (base, omega].
    ladder = [base]
    growth = 1 + eps
    while ladder[-1] < omega:
        ladder.append(ladder[-1] * growth)

    grouped: dict[tuple[Fraction, Fraction], list[int]] = {}
    for uid, p, w in heavy:
        j = bisect_left(ladder, w)
        rounded = ladder[j]
        grouped.setdefault((p, rounded), []).append(uid)

    types = tuple(
        S2Type(profit=p, rounded_weight=rw, member_ids=tuple(sorted(ids)))
        for (p, rw), ids in sorted(grouped.items())
    )
    return s1, types


def _expand_types(s2_types) -> list[tuple[int, Fraction, Fraction]]:
    return [
        (uid, t.profit, t.rounded_weight) for t in s2_types for uid in t.member_ids
    ]


# ---------------------------------------------------------------------------
# upsilon3: best-ell light items via bucketed partial sums.
# ---------------------------------------------------------------------------


class WeightBuckets:
    """Light-item selection structure shared across registered query weights.

    thresholds[i] is the light/heavy weight cutoff eps*omega_i/K of the i-th
    registered query weight (ascending). Bucket 0 holds items with weight up
    to thresholds[0] (closed), bucket i the items in (thresholds[i-1],
    thresholds[i]]; the union of buckets 0..i is exactly the light side at
    query weight omega_i. Each bucket stores profits sorted descending with
    partial sums, so a best-ell query runs as a binary search over the
    distinct profit values instead of a global re-sort per query.
    """

    def __init__(self, items, query_weights: Sequence[Fraction], eps: Fraction, K: int):
        self.eps = Fraction(eps)
        self.K = int(K)
        self.query_weights = tuple(sorted(set(Fraction(w) for w in query_weights)))
        self.thresholds = tuple(self.eps * w / self.K for w in self.query_weights)
        self._index = {w: i for i, w in enumerate(self.query_weights)}

        units = _units(items)
        buckets: list[list[Fraction]] = [[] for _ in self.thresholds]
        for _, p, w in units:
            pos = bisect_left(self.thresholds, w)
            if pos < len(self.thresholds):
                buckets[pos].append(p)

        # Per bucket: ascending profits for counting, partial sums of the
        # descending order for value queries.
        self.bucket_profits_asc: list[list[Fraction]] = []
        self.partial_sums: list[list[Fraction]] = []
        all_profits: set[Fraction] = set()
        for profits in buckets:
            asc = sorted(profits)
            self.bucket_profits_asc.append(asc)
            sums = [ZERO]
            for p in reversed(asc):
                sums.append(sums[-1] + p)
            self.partial_sums.append(sums)
            all_profits.update(asc)
        self.distinct_profits_desc = sorted(all_profits, reverse=True)

    def bucket_index(self, omega: Fraction) -> int:
        try:
            return self._index[Fraction(omega)]
        except KeyError:
            raise KeyError(f"query weight {omega} was not registered") from None

    def _count_at_least(self, upto_bucket: int, rho: Fraction) -> int:
        total = 0
        for b in range(upto_bucket + 1):
            asc = self.bucket_profits_asc[b]
            total += len(asc) - bisect_left(asc, rho)
        return total

    def top_ell_sum(self, upto_bucket: int, ell: int) -> Fraction:
        if ell <= 0:
            return ZERO
        avail = sum(len(self.bucket_profits_asc[b]) for b in range(upto_bucket + 1))
        if avail == 0:
            return ZERO
        if ell >= avail:
            return sum(
                (self.partial_sums[b][-1] for b in range(upto_bucket + 1)), ZERO
            )
        # Smallest profit value rho whose at-least count reaches ell; binary
        # search over the distinct profits in descending order.
        vals = self.distinct_profits_desc
        lo, hi = 0, len(vals) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._count_at_least(upto_bucket, vals[mid]) >= ell:
                hi = mid
            else:
                lo = mid + 1
        rho = vals[lo]
        total = ZERO
        strictly_above = 0
        for b in range(upto_bucket + 1):
            asc = self.bucket_profits_asc[b]
            above = len(asc) - bisect_right(asc, rho)
            strictly_above += above
            total += self.partial_sums[b][above]
        total += (ell - strictly_above) * rho
        return total


def upsilon3(buckets: WeightBuckets, omega: Fraction, ell: int) -> Fraction:
    """Sum of the ell largest profits among items with weight at most
    eps*omega/K. ell beyond the available count pads with zeros."""
    return buckets.top_ell_sum(buckets.bucket_index(omega), ell)


# ---------------------------------------------------------------------------
# upsilon4: Lagrangian dual of the typed heavy-side LP.
# ---------------------------------------------------------------------------


def upsilon4(
    items, omega: Fraction, ell: int, k: int, eps: Fraction, K: int
) -> SmallEval:
    """min over mu >= 0 of L(mu, omega, ell, k) -- the dual of the heavy-side
    LP with budget (1-eps)*omega and cardinality cap k-ell.

    solve_box_lp finds the exact critical multiplier and certifies the
    primal vertex against the dual value. The paper's route, a binary
    search over a precomputed breakpoint set, is the desk-scale oracle
    oracles.upsilon4_breakpoints.
    """
    omega = Fraction(omega)
    eps = Fraction(eps)
    _, s2_types = round_small_weights(items, omega, eps, K)
    units = _expand_types(s2_types)
    cap = max(0, min(int(k) - int(ell), len(units)))
    if cap == 0 or not units or omega <= 0:
        return SmallEval(ZERO, {}, (), mu=ZERO)
    return solve_box_lp(units, (1 - eps) * omega, cap)


# ---------------------------------------------------------------------------
# upsilon5 / upsilon2: concave combination over the split ell.
# ---------------------------------------------------------------------------


def upsilon5(
    items,
    buckets: WeightBuckets,
    omega: Fraction,
    ell: int,
    k: int,
    eps: Fraction,
    K: int,
) -> Fraction:
    """upsilon3(omega, ell) + upsilon4(omega, ell, k)."""
    return upsilon3(buckets, omega, ell) + upsilon4(items, omega, ell, k, eps, K).value


def upsilon2(
    items, buckets: WeightBuckets, omega: Fraction, k: int, eps: Fraction, K: int
) -> tuple[Fraction, int]:
    """max over 0 <= ell <= k of upsilon5, by binary search on the sign of
    the first-order difference (the sequence is concave in ell).

    Returns (value, argmax ell) with the smallest maximizing ell.
    """
    k = int(k)
    memo: dict[int, Fraction] = {}

    def u5(ell: int) -> Fraction:
        if ell not in memo:
            memo[ell] = upsilon5(items, buckets, omega, ell, k, eps, K)
        return memo[ell]

    lo, hi = 0, max(0, k)
    while lo < hi:
        mid = (lo + hi) // 2
        if u5(mid + 1) > u5(mid):
            lo = mid + 1
        else:
            hi = mid
    return u5(lo), lo


# ---------------------------------------------------------------------------
# SmallSolver: pool-level evaluator with memoization; float upsilon2 above
# EXACT_POOL_LIMIT.
# ---------------------------------------------------------------------------


class SmallSolver:
    """Evaluates the small-item approximation phi_dag_S(omega, k) for one
    partition's small pool (rounded profits, original weights).

    Dispatch: upsilon1 when K <= 1/eps, upsilon2 otherwise. Results are
    memoized per exact (omega, k). upsilon1 is exact at every pool size: each
    query runs the integer-keyed box-LP engine, whose greedy passes the
    pool's scaling caches per cap. upsilon2 pools larger than
    EXACT_POOL_LIMIT are evaluated in float -- those values only rank
    combiner candidates, and retrieval re-checks every selected item against
    the exact budget. `exact` tells which of the two a pool runs.
    """

    def __init__(self, items, K: int, eps: Fraction, opt_estimate: Fraction):
        self.items = _units(items)
        self.K = int(K)
        self.eps = Fraction(eps)
        self.opt_estimate = Fraction(opt_estimate)
        self.use_upsilon1 = Fraction(self.K) * self.eps <= 1
        self.exact = self.use_upsilon1 or len(self.items) <= EXACT_POOL_LIMIT
        self._memo: dict[tuple[Fraction, int], Fraction] = {}
        self._buckets: Optional[WeightBuckets] = None
        self._registered: set[Fraction] = set()
        self._by_id = {u[0]: u for u in self.items}
        if not self.exact:
            self._ids = np.array([u[0] for u in self.items], dtype=np.int64)
            self._pf = np.array([float(p) for _, p, _ in self.items])
            self._wf = np.array([float(w) for _, _, w in self.items])

    @classmethod
    def from_partition(cls, partition) -> "SmallSolver":
        """Build a solver over a partition's pruned small classes, using the
        class-rounded profits and the original weights."""
        pool = [
            (item.id, klass.rounded_profit, item.weight)
            for klass in partition.small_classes
            for item in klass.members
        ]
        return cls(
            pool,
            K=partition.cardinality,
            eps=partition.epsilon,
            opt_estimate=partition.opt_estimate,
        )

    # -- registration -------------------------------------------------------

    def register_query_weights(self, omegas) -> None:
        """Pre-declare the residual budgets the combiner will query, so the
        bucket structure is built once over all of them."""
        new = {Fraction(w) for w in omegas if Fraction(w) > 0}
        if not new.issubset(self._registered):
            self._registered |= new
            if self.exact and not self.use_upsilon1:
                self._buckets = WeightBuckets(
                    self.items, sorted(self._registered), self.eps, self.K
                )

    def _ensure_registered(self, omega: Fraction) -> None:
        if omega > 0 and omega not in self._registered:
            self.register_query_weights([omega])

    # -- evaluation ---------------------------------------------------------

    def phi_dag(self, omega: Fraction, k: int):
        """Approximation value for residual budget omega, cardinality k."""
        omega = Fraction(omega)
        if omega < 0:
            raise ValueError("negative residual budget")
        k = max(0, min(int(k), self.K))
        key = (omega, k)
        if key not in self._memo:
            self._memo[key] = self._evaluate(omega, k)
        return self._memo[key]

    def _evaluate(self, omega: Fraction, k: int):
        if k == 0 or omega <= 0 or not self.items:
            return ZERO if self.exact else 0.0
        if self.use_upsilon1:
            return _solve_units(*self._lp_pool, omega, k).value
        if self.exact:
            self._ensure_registered(omega)
            value, _ = upsilon2(self.items, self._buckets, omega, k, self.eps, self.K)
            return value
        return self._float_upsilon2(omega, k)[0]

    @cached_property
    def _lp_pool(self):
        """Positive-profit units and their integer scaling, built once so
        that upsilon1 over this pool skips re-normalizing it per query."""
        units = [u for u in self.items if u[1] > 0]
        return units, _IntScaling.of(units)

    def eval_detail(self, omega: Fraction, k: int) -> SmallEval:
        """Full evaluation (with solution structure) for retrieval. Exact
        pools delegate to the upsilon functions; float upsilon2 pools build
        the integral selection greedily with exact feasibility re-checks."""
        omega = Fraction(omega)
        k = max(0, min(int(k), self.K))
        if k == 0 or omega <= 0 or not self.items:
            return SmallEval(ZERO, {}, ())
        if self.use_upsilon1:
            return _solve_units(*self._lp_pool, omega, k)
        if self.exact:
            self._ensure_registered(omega)
            _, ell = upsilon2(self.items, self._buckets, omega, k, self.eps, self.K)
            return self._compose_upsilon2_detail(omega, k, ell)
        return self._float_detail(omega, k)

    def _compose_upsilon2_detail(self, omega: Fraction, k: int, ell: int) -> SmallEval:
        base = self.eps * omega / self.K
        light = [u for u in self.items if u[2] <= base]
        light.sort(key=lambda t: (-t[1], t[0]))
        chosen_light = [uid for uid, p, _ in light[:ell] if p > 0]
        u3_value = sum((p for _, p, _ in light[:ell] if p > 0), ZERO)
        u4 = upsilon4(self.items, omega, ell, k, self.eps, self.K)
        x = {uid: Fraction(1) for uid in chosen_light}
        x.update(u4.fractional_solution)
        integral = tuple(sorted(chosen_light) + list(u4.integral_ids))
        return SmallEval(u3_value + u4.value, x, integral, mu=u4.mu, ell=ell)

    # -- float mode: upsilon2 pools above EXACT_POOL_LIMIT -------------------
    #
    # Values here are heuristic rankings: upper-envelope samples of the exact
    # duals, deterministic for fixed inputs. Feasibility of anything the
    # solver returns never depends on them.

    def _float_lp_value(self, p, w, budget: float, cap: int) -> float:
        """Heavy-side LP relaxation value via dual bisection on the
        multiplier."""
        cap = max(0, min(cap, len(p)))
        if cap == 0 or len(p) == 0 or budget < 0:
            return 0.0
        order = np.lexsort((w, -p))[:cap]
        sel = order[p[order] > 0]
        if float(w[sel].sum()) <= budget:
            return float(p[sel].sum())
        lo, hi = self._bisect_mu(p, w, budget, cap)

        def L(mu: float) -> float:
            adj = p - mu * w
            srt = np.argsort(-adj, kind="stable")
            take = srt[adj[srt] > 0][:cap]
            return mu * budget + float(adj[take].sum())

        return min(L(lo), L(hi))

    def _bisect_mu(self, p, w, budget: float, cap: int, iters: int = 80):
        """Bracket the critical multiplier: smallest mu whose greedy top-cap
        positive-adjusted selection fits within budget."""
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(w > 0, p / np.maximum(w, 1e-300), 0.0)
        lo, hi = 0.0, float(ratios.max(initial=0.0)) * (1 + 1e-9) + 1.0
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            adj = p - mid * w
            srt = np.argsort(-adj, kind="stable")
            take = srt[adj[srt] > 0][:cap]
            if float(w[take].sum()) <= budget:
                hi = mid
            else:
                lo = mid
        return lo, hi

    def _float_heavy(self, omega: Fraction):
        """Light mask, heavy mask, heavy profits, heavy rounded weights
        (floats) for the typed relaxation at budget omega."""
        base = self.eps * omega / self.K
        base_f = float(base)
        light_mask = self._wf <= base_f
        heavy_mask = (~light_mask) & (self._wf <= float(omega))
        ladder = [base]
        growth = 1 + self.eps
        while ladder[-1] < omega:
            ladder.append(ladder[-1] * growth)
        ladder_f = np.array([float(v) for v in ladder])
        hw = self._wf[heavy_mask]
        idx = np.searchsorted(ladder_f, hw * (1 - 1e-12), side="left")
        idx = np.minimum(idx, len(ladder_f) - 1)
        return light_mask, heavy_mask, self._pf[heavy_mask], ladder_f[idx]

    def _dual_profile(self, p, w, budget: float, cap_max: int):
        """min over a geometric multiplier grid of L(mu, cap), vectorized
        over all caps 0..cap_max in one sort per grid point.

        The grid always contains 0; the result is an upper envelope of the
        true dual minima, tight up to the grid resolution, with cost
        independent of cap_max.
        """
        profile = np.zeros(cap_max + 1)
        if cap_max <= 0 or len(p) == 0:
            return profile
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(w > 0, p / np.maximum(w, 1e-300), 0.0)
        mu_max = float(ratios.max(initial=0.0))
        mus = [0.0]
        if mu_max > 0:
            decay = (1e-7) ** (1.0 / (MU_GRID_SIZE - 1))
            mus.extend(mu_max * decay**j for j in range(MU_GRID_SIZE))
        caps = np.arange(cap_max + 1)
        best = np.full(cap_max + 1, np.inf)
        for mu in mus:
            adj = p - mu * w
            vals = np.sort(adj[adj > 0])[::-1]
            prefix = np.concatenate(([0.0], np.cumsum(vals)))
            row = mu * budget + prefix[np.minimum(caps, len(vals))]
            np.minimum(best, row, out=best)
        return best

    def _float_upsilon2(self, omega: Fraction, k: int):
        """Approximate the best split ell between the light top-ell sum and
        the heavy-side dual, scanning all splits on the vectorized profile.
        Returns (value, ell, light ids in profit order)."""
        light_mask, _, hp, hw = self._float_heavy(omega)
        light = sorted(
            (self.items[i] for i in np.flatnonzero(light_mask)),
            key=lambda t: (-t[1], t[0]),
        )
        light = [u for u in light if u[1] > 0]
        light_prefix = np.concatenate(
            ([0.0], np.cumsum([float(p) for _, p, _ in light]))
        )
        budget = float((1 - self.eps) * omega)
        cap_max = min(k, len(hp))
        profile = self._dual_profile(hp, hw, budget, cap_max)
        ells = np.arange(k + 1)
        u3 = light_prefix[np.minimum(ells, len(light))]
        u4 = profile[np.minimum(k - ells, cap_max)]
        totals = u3 + u4
        ell = int(np.argmax(totals))  # first maximum: smallest ell
        # Refine the chosen split's heavy term by bisection for a firmer
        # value than the grid envelope.
        refined = self._float_lp_value(hp, hw, budget, k - ell)
        return float(u3[ell]) + refined, ell, [u[0] for u in light]

    def _float_greedy_order(self, p, w, budget: float, cap: int, ids):
        """Unit ids in decreasing adjusted-profit order at the (approximate)
        critical multiplier -- the retrieval order for the float mode."""
        cap = max(0, min(cap, len(p)))
        if cap == 0 or len(p) == 0:
            return []
        order = np.lexsort((w, -p))[:cap]
        sel = order[p[order] > 0]
        if float(w[sel].sum()) > budget:
            _, hi = self._bisect_mu(p, w, budget, cap)
            adj = p - hi * w
            order = np.argsort(-adj, kind="stable")
            sel = order[adj[order] > 0]
        return [int(i) for i in np.asarray(ids)[sel]]

    def _select_exact(self, ids, budget: Fraction, cap: int) -> tuple[int, ...]:
        """Greedy inclusion in the given order, re-checked against the exact
        budget and cardinality. Every output set is feasible by construction."""
        taken: list[int] = []
        used = ZERO
        for uid in ids:
            if len(taken) >= cap:
                break
            _, p, w = self._by_id[uid]
            if p <= 0:
                continue
            if used + w <= budget:
                taken.append(uid)
                used += w
        return tuple(taken)

    def _eval_from_ids(self, ids, ell: Optional[int] = None) -> SmallEval:
        value = sum((self._by_id[i][1] for i in ids), ZERO)
        return SmallEval(
            value, {i: Fraction(1) for i in ids}, tuple(sorted(ids)), ell=ell
        )

    def _float_detail(self, omega: Fraction, k: int) -> SmallEval:
        _, ell, light_ids = self._float_upsilon2(omega, k)
        chosen = list(light_ids[:ell])
        used = sum((self._by_id[i][2] for i in chosen), ZERO)
        _, heavy_mask, hp, hw = self._float_heavy(omega)
        heavy_ids = self._ids[heavy_mask]
        budget = float((1 - self.eps) * omega)
        order = self._float_greedy_order(hp, hw, budget, k - ell, heavy_ids)
        heavy_sel = self._select_exact(order, omega - used, k - ell)
        return self._eval_from_ids(tuple(chosen) + heavy_sel, ell=ell)


_PARTITION_SOLVERS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def solver_for_partition(partition) -> SmallSolver:
    """SmallSolver for a partition, cached per partition object."""
    solver = _PARTITION_SOLVERS.get(partition)
    if solver is None:
        solver = SmallSolver.from_partition(partition)
        _PARTITION_SOLVERS[partition] = solver
    return solver
