"""Continuous relaxations for the small-item subproblem.

The subproblem: given the small-profit items (geometrically rounded profits,
original weights), a residual weight budget omega and a residual cardinality
cap k, estimate the best achievable profit. Exact integer optimization is
replaced by a ladder of relaxations:

* upsilon1 -- the plain LP relaxation (box constraints + one weight row + one
  cardinality row), solved exactly at a vertex with at most two fractional
  components.
* upsilon3 -- profit of the best ell items among those individually lighter
  than eps*omega/K, ignoring their (negligible) total weight.
* upsilon4 -- LP relaxation over the remaining items with weights rounded up
  to a geometric grid and the budget scaled by (1-eps), evaluated through its
  Lagrangian dual min_mu L(mu).
* upsilon5 / upsilon2 -- combine upsilon3 and upsilon4 over the split ell,
  maximized by binary search on the first-order difference of the (discretely
  concave) sequence.

All module-level functions compute in exact rational arithmetic. SmallSolver
additionally provides a float evaluation mode for pools too large for exact
Fractions; float values only rank candidates, and any returned item set is
re-checked for feasibility in exact arithmetic. Ties everywhere are broken
deterministically by item id.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

ZERO = Fraction(0)

# Pools at or below this size run the literal pairwise-multiplier
# enumeration; larger pools use the float-guided exact search.
PAIR_ENUM_LIMIT = 64

# SmallSolver pools above this size evaluate the relaxations in float.
EXACT_POOL_LIMIT = 64

# Number of geometric multiplier samples in the float dual sweep.
MU_GRID_SIZE = 96


def _units(items) -> list[tuple[int, Fraction, Fraction]]:
    """Normalize items to (id, profit, weight) triples, id-ascending."""
    out = []
    for it in items:
        if isinstance(it, tuple):
            uid, p, w = it
        else:
            uid, p, w = it.id, it.profit, it.weight
        out.append((int(uid), Fraction(p), Fraction(w)))
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


def _greedy_weight_range(units, mu: Fraction, cap: int):
    """Weight range [wmin, wmax] over maximizers of the inner Lagrangian
    problem at multiplier mu, plus the inner optimum g(mu).

    Maximizers take every unit with adjusted profit p - mu*w above the
    entry threshold and fill remaining cardinality from the tied units;
    their total weight spans [lightest fill, heaviest fill], extended by
    optional zero-adjusted units when the threshold is zero.
    """
    positives = []
    zeros = []
    for uid, p, w in units:
        adj = p - mu * w
        if adj > 0:
            positives.append((adj, w, uid))
        elif adj == 0 and p > 0:
            zeros.append(w)

    if len(positives) <= cap:
        g = sum((a for a, _, _ in positives), ZERO)
        wmin = sum((w for _, w, _ in positives), ZERO)
        room = cap - len(positives)
        zeros.sort(reverse=True)
        wmax = wmin + sum(zeros[: min(room, len(zeros))], ZERO)
        return wmin, wmax, g

    positives.sort(key=lambda t: (-t[0], t[2]))
    threshold = positives[cap - 1][0]
    above = [t for t in positives if t[0] > threshold]
    tied_w = sorted(t[1] for t in positives if t[0] == threshold)
    fill = cap - len(above)
    g = sum((a for a, _, _ in above), ZERO) + threshold * fill
    w_above = sum((w for _, w, _ in above), ZERO)
    wmin = w_above + sum(tied_w[:fill], ZERO)
    wmax = w_above + sum(tied_w[len(tied_w) - fill:], ZERO)
    return wmin, wmax, g


def _dual_at(units, mu: Fraction, budget: Fraction, cap: int) -> Fraction:
    _, _, g = _greedy_weight_range(units, mu, cap)
    return mu * budget + g


def _pairwise_multipliers(units) -> list[Fraction]:
    """All positive candidate multipliers: profit/weight ratios plus every
    pairwise crossing ratio (p_i - p_j)/(w_i - w_j) with w_i != w_j."""
    cand = set()
    n = len(units)
    for i in range(n):
        _, pi, wi = units[i]
        if wi > 0 and pi > 0:
            cand.add(pi / wi)
        for j in range(i + 1, n):
            _, pj, wj = units[j]
            if wi != wj:
                r = (pi - pj) / (wi - wj)
                if r > 0:
                    cand.add(r)
    return sorted(cand)


def _critical_multiplier_enum(units, budget: Fraction, cap: int) -> Fraction:
    """Smallest candidate multiplier whose lightest greedy selection fits.

    The lightest-maximizer weight is non-increasing in mu (an exchange
    argument on the inner objective), so binary search over the sorted
    candidate set is valid; the first fitting candidate satisfies the
    subgradient optimality condition wmin <= budget <= wmax.
    """
    cand = _pairwise_multipliers(units)
    lo, hi = 0, len(cand) - 1
    # Precondition (checked by caller): wmin at mu=0 exceeds budget, so the
    # answer is one of the positive candidates.
    while lo < hi:
        mid = (lo + hi) // 2
        wmin, _, _ = _greedy_weight_range(units, cand[mid], cap)
        if wmin <= budget:
            hi = mid
        else:
            lo = mid + 1
    return cand[lo]


def _critical_multiplier_guided(units, budget: Fraction, cap: int) -> Fraction:
    """Float bisection to localize the critical multiplier, then exact
    reconstruction from the pair crossings near the greedy margin.

    Falls back to widening the candidate window and finally to the full
    pairwise enumeration, so the result is always exact.
    """
    pf = np.array([float(p) for _, p, _ in units])
    wf = np.array([float(w) for _, _, w in units])
    bf = float(budget)

    def float_wmin(mu: float) -> float:
        adj = pf - mu * wf
        order = np.argsort(-adj, kind="stable")
        take = order[adj[order] > 0][:cap]
        return float(wf[take].sum())

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(wf > 0, pf / np.maximum(wf, 1e-300), 0.0)
    lo, hi = 0.0, float(ratios.max(initial=0.0)) * (1 + 1e-9) + 1.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if float_wmin(mid) <= bf:
            hi = mid
        else:
            lo = mid

    scale = max(hi, 1.0)
    for widen in (1e-9, 1e-6, 1e-3):
        tol = scale * widen
        window_lo, window_hi = Fraction(max(lo - tol, 0.0)), Fraction(hi + tol)
        mu_mid = 0.5 * (lo + hi)
        adj = pf - mu_mid * wf
        order = np.argsort(-adj, kind="stable")
        pos = order[adj[order] > 0]
        # Margin value: adjusted profit at the cardinality boundary, or 0.
        margin = float(adj[pos[cap - 1]]) if len(pos) >= cap else 0.0
        near = [
            i
            for i in range(len(units))
            if abs(float(adj[i]) - margin) <= tol or abs(float(adj[i])) <= tol
        ]
        if len(near) > 150:
            break
        cand = set()
        for ai in range(len(near)):
            i = near[ai]
            _, pi, wi = units[i]
            if wi > 0 and pi > 0:
                r = pi / wi
                if window_lo <= r <= window_hi:
                    cand.add(r)
            for bj in range(ai + 1, len(near)):
                j = near[bj]
                _, pj, wj = units[j]
                if wi != wj:
                    r = (pi - pj) / (wi - wj)
                    if r > 0 and window_lo <= r <= window_hi:
                        cand.add(r)
        for mu in sorted(cand):
            wmin, wmax, _ = _greedy_weight_range(units, mu, cap)
            if wmin <= budget <= wmax:
                return mu
    return _critical_multiplier_enum(units, budget, cap)


def _vertex_at_multiplier(units, mu: Fraction, budget: Fraction, cap: int):
    """Optimal LP vertex at the critical multiplier.

    Maximizes the inner Lagrangian objective while making the weight row
    exactly tight (for mu > 0), yielding at most two fractional components:
    mandatory units fully in, then the tied/optional units adjusted by full
    swaps plus one final fractional swap.
    Returns (x: dict id->Fraction, value: Fraction).
    """
    positives = []
    zeros = []
    for uid, p, w in units:
        adj = p - mu * w
        if adj > 0:
            positives.append((adj, w, uid, p))
        elif adj == 0 and p > 0:
            zeros.append((w, uid, p))

    x: dict[int, Fraction] = {}

    if len(positives) <= cap:
        # Every positive unit is mandatory; pad weight up to the budget with
        # zero-adjusted units (free for the inner objective).
        used_w = ZERO
        for _, w, uid, _ in positives:
            x[uid] = Fraction(1)
            used_w += w
        room = cap - len(positives)
        residual = budget - used_w
        assert residual >= 0, "greedy selection exceeds budget at mu*"
        if mu > 0 and residual > 0:
            zeros.sort(key=lambda t: (-t[0], t[1]))
            for w, uid, _ in zeros:
                if room <= 0 or residual <= 0:
                    break
                take = min(Fraction(1), residual / w)  # zero-adj => w > 0
                x[uid] = take
                residual -= take * w
                room -= 1
            assert residual == 0, "cannot make weight row tight at mu*"
    else:
        positives.sort(key=lambda t: (-t[0], t[2]))
        threshold = positives[cap - 1][0]
        above = [t for t in positives if t[0] > threshold]
        tied = sorted(
            (t for t in positives if t[0] == threshold), key=lambda t: (t[1], t[2])
        )
        fill = cap - len(above)
        used_w = ZERO
        for _, w, uid, _ in above:
            x[uid] = Fraction(1)
            used_w += w
        target = budget - used_w
        sel = tied[:fill]
        unsel = list(reversed(tied[fill:]))  # heaviest first
        cur = sum((t[1] for t in sel), ZERO)
        assert cur <= target, "lightest tied fill already over budget at mu*"
        for uid in (t[2] for t in sel):
            x[uid] = Fraction(1)
        if cur < target:
            for swap_in, swap_out in zip(unsel, sel):
                delta = swap_in[1] - swap_out[1]
                if cur + delta <= target:
                    x[swap_in[2]] = Fraction(1)
                    x[swap_out[2]] = Fraction(0)
                    cur += delta
                    if cur == target:
                        break
                else:
                    lam = (target - cur) / delta
                    x[swap_in[2]] = lam
                    x[swap_out[2]] = 1 - lam
                    cur = target
                    break
        assert cur == target or mu == 0, "cannot reach weight target from ties"

    x = {uid: v for uid, v in x.items() if v > 0}
    by_id = {uid: (p, w) for uid, p, w in units}
    value = sum((by_id[uid][0] * v for uid, v in x.items()), ZERO)
    return x, value


def solve_box_lp(items, budget: Fraction, cap: int) -> SmallEval:
    """Exact optimum of max p.x st w.x <= budget, sum x <= cap, x in [0,1].

    Fast path: if the minimum-weight top-cap-by-profit selection fits, it is
    integral and optimal. Otherwise the weight row is tight at the optimum
    and the critical Lagrange multiplier is located (pairwise enumeration for
    small unit counts, float-guided exact search above), then a vertex with
    at most two fractional components is constructed at it.
    """
    units = [(uid, p, w) for uid, p, w in _units(items) if p > 0]
    budget = Fraction(budget)
    cap = max(0, min(int(cap), len(units)))
    if cap == 0 or not units or budget < 0:
        return SmallEval(ZERO, {}, ())

    by_top = sorted(units, key=lambda t: (-t[1], t[2], t[0]))[:cap]
    top_w = sum((w for _, _, w in by_top), ZERO)
    if top_w <= budget:
        ids = tuple(sorted(uid for uid, _, _ in by_top))
        value = sum((p for _, p, _ in by_top), ZERO)
        return SmallEval(value, {uid: Fraction(1) for uid in ids}, ids, mu=ZERO)

    if len(units) <= PAIR_ENUM_LIMIT:
        mu = _critical_multiplier_enum(units, budget, cap)
    else:
        mu = _critical_multiplier_guided(units, budget, cap)

    x, value = _vertex_at_multiplier(units, mu, budget, cap)
    dual = _dual_at(units, mu, budget, cap)
    assert value == dual, f"primal {value} != dual {dual} at mu*={mu}"
    integral = tuple(sorted(uid for uid, v in x.items() if v == 1))
    return SmallEval(value, x, integral, mu=mu)


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


def dual_value(
    mu: Fraction, s2_types, omega: Fraction, budget_scale: Fraction, cap: int
) -> Fraction:
    """L(mu) = mu*budget_scale*omega + max over x in [0,1]^units, sum x <= cap
    of sum (p - mu*rounded_w) x -- the greedy top-cap positive adjusted sum."""
    mu = Fraction(mu)
    budget = Fraction(budget_scale) * Fraction(omega)
    adjusted = sorted(
        (
            (t.profit - mu * t.rounded_weight, t.member_ids[0], t.count)
            for t in s2_types
        ),
        key=lambda a: (-a[0], a[1]),
    )
    room = max(0, int(cap))
    g = ZERO
    for adj, _, count in adjusted:
        if adj <= 0 or room == 0:
            break
        take = min(count, room)
        g += adj * take
        room -= take
    return mu * budget + g


@dataclass(frozen=True)
class BreakpointSet:
    """Candidate dual multipliers on the geometric grid.

    values = scale * (1+eps)^b * ((1+eps)^c - 1)/((1+eps)^d - 1) over the
    exponent box, deduplicated, ascending, with 0 prepended and a top cap
    appended. scale carries the K*opt_estimate/omega factor relating the
    profit grid to the rounded-weight grid, so every profit/weight ratio and
    every pairwise crossing of typed units is a member.
    """

    values: tuple[Fraction, ...]
    eps: Fraction
    exponent_bound: int
    scale: Fraction

    @classmethod
    def build(
        cls, eps: Fraction, K: int, opt_estimate: Fraction, omega: Fraction
    ) -> "BreakpointSet":
        eps = Fraction(eps)
        opt_estimate = Fraction(opt_estimate)
        omega = Fraction(omega)
        if omega <= 0 or opt_estimate <= 0:
            return cls((ZERO,), eps, 0, Fraction(1))
        growth = 1 + eps
        # M = ceil(log_{1+eps}(K/eps)): smallest M with (1+eps)^M >= K/eps.
        target = Fraction(K) / eps
        M = 0
        power = Fraction(1)
        while power < target:
            power *= growth
            M += 1
        bound = 2 * M + 1
        guard = M + 1
        if guard > 18:
            raise ValueError(
                f"breakpoint set would need exponent range {guard}; "
                "materialization is only supported at desk scale"
            )
        powers = {0: Fraction(1)}
        for e in range(1, max(bound, guard) + 1):
            powers[e] = powers[e - 1] * growth
            powers[-e] = 1 / powers[e]
        scale = Fraction(K) * opt_estimate / omega
        diffs = [powers[e] - 1 for e in range(-guard, guard + 1) if e != 0]
        vals = {ZERO}
        for b in range(-bound, bound + 1):
            pb = powers[b]
            for dc in diffs:
                for dd in diffs:
                    v = scale * pb * dc / dd
                    if v > 0:
                        vals.add(v)
        cap_value = scale * powers[bound] * (powers[guard] - 1) + 1
        vals.add(cap_value)
        return cls(tuple(sorted(vals)), eps, bound, scale)

    def __len__(self) -> int:
        return len(self.values)


def upsilon4(
    items,
    omega: Fraction,
    ell: int,
    k: int,
    eps: Fraction,
    K: int,
    breakpoints: Optional[BreakpointSet] = None,
) -> SmallEval:
    """min over mu >= 0 of L(mu, omega, ell, k) -- the dual of the heavy-side
    LP with budget (1-eps)*omega and cardinality cap k-ell.

    With an explicit BreakpointSet the minimum is found by convexity-guided
    binary search over it; otherwise by the exact parametric search. Primal
    recovery at mu* is asserted to match the dual value exactly.
    """
    omega = Fraction(omega)
    eps = Fraction(eps)
    cap = int(k) - int(ell)
    _, s2_types = round_small_weights(items, omega, eps, K)
    units = _expand_types(s2_types)
    budget = (1 - eps) * omega
    cap = max(0, min(cap, len(units)))
    if cap == 0 or not units or omega <= 0:
        return SmallEval(ZERO, {}, (), mu=ZERO)

    if breakpoints is None:
        inner = solve_box_lp(units, budget, cap)
        return SmallEval(
            inner.value, inner.fractional_solution, inner.integral_ids, mu=inner.mu
        )

    # Literal route: binary search on the descent direction over the sorted
    # candidate set, exploiting convexity of L in mu.
    vals = breakpoints.values
    memo: dict[int, Fraction] = {}

    def L(i: int) -> Fraction:
        if i not in memo:
            memo[i] = _dual_at(units, vals[i], budget, cap)
        return memo[i]

    lo, hi = 0, len(vals) - 1
    while hi - lo > 2:
        mid = (lo + hi) // 2
        if L(mid) <= L(mid + 1):
            hi = mid + 1
        else:
            lo = mid
    best_i = min(range(lo, hi + 1), key=lambda i: (L(i), i))
    mu = vals[best_i]
    wmin, wmax, _ = _greedy_weight_range(units, mu, cap)
    # Optimality certificate: 0 must lie in the subdifferential of L at mu*.
    # At mu = 0 only the right derivative matters (wmin <= budget).
    if not (wmin <= budget and (mu == 0 or budget <= wmax)):
        raise ArithmeticError(
            f"breakpoint set does not contain the optimal multiplier near {mu}"
        )
    x, value = _vertex_at_multiplier(units, mu, budget, cap)
    dual = _dual_at(units, mu, budget, cap)
    assert value == dual, f"upsilon4 primal {value} != dual {dual}"
    integral = tuple(sorted(uid for uid, v in x.items() if v == 1))
    return SmallEval(value, x, integral, mu=mu)


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
# SmallSolver: pool-level evaluator with memoization and a float fast mode.
# ---------------------------------------------------------------------------


class SmallSolver:
    """Evaluates the small-item approximation phi_dag_S(omega, k) for one
    partition's small pool (rounded profits, original weights).

    Dispatch: upsilon1 when K <= 1/eps, upsilon2 otherwise. Results are
    memoized per exact (omega, k). Pools larger than EXACT_POOL_LIMIT are
    evaluated in float -- those values only rank combiner candidates, and
    retrieval re-checks every selected item against the exact budget -- while
    pools within the limit run fully exact rational arithmetic.
    """

    def __init__(self, items, K: int, eps: Fraction, opt_estimate: Fraction):
        self.items = _units(items)
        self.K = int(K)
        self.eps = Fraction(eps)
        self.opt_estimate = Fraction(opt_estimate)
        self.use_upsilon1 = Fraction(self.K) * self.eps <= 1
        self.exact = len(self.items) <= EXACT_POOL_LIMIT
        self._memo: dict[tuple[Fraction, int], Fraction] = {}
        self._buckets: Optional[WeightBuckets] = None
        self._registered: set[Fraction] = set()
        self._by_id = {u[0]: u for u in self.items}
        # Shared top-profit prefix for the upsilon1 fast path.
        self._by_top = sorted(self.items, key=lambda t: (-t[1], t[2], t[0]))
        self._top_wsum = [ZERO]
        self._top_psum = [ZERO]
        for _, p, w in self._by_top:
            self._top_wsum.append(self._top_wsum[-1] + w)
            self._top_psum.append(self._top_psum[-1] + p)
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
        if self.exact:
            if self.use_upsilon1:
                return self._upsilon1_value(omega, k)
            self._ensure_registered(omega)
            value, _ = upsilon2(self.items, self._buckets, omega, k, self.eps, self.K)
            return value
        if self.use_upsilon1:
            return self._float_lp_value(self._pf, self._wf, float(omega), k)
        return self._float_upsilon2(omega, k)[0]

    def _upsilon1_value(self, omega: Fraction, k: int) -> Fraction:
        j = min(k, len(self._by_top))
        while j and self._by_top[j - 1][1] <= 0:
            j -= 1
        if self._top_wsum[j] <= omega:
            return self._top_psum[j]
        return upsilon1(self.items, omega, k).value

    def eval_detail(self, omega: Fraction, k: int) -> SmallEval:
        """Full evaluation (with solution structure) for retrieval. Exact
        pools delegate to the upsilon functions; float pools build the
        integral selection greedily with exact feasibility re-checks."""
        omega = Fraction(omega)
        k = max(0, min(int(k), self.K))
        if k == 0 or omega <= 0 or not self.items:
            return SmallEval(ZERO, {}, ())
        if self.exact:
            if self.use_upsilon1:
                return upsilon1(self.items, omega, k)
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

    # -- float mode ---------------------------------------------------------
    #
    # Values here are heuristic rankings: upper-envelope samples of the exact
    # duals, deterministic for fixed inputs. Feasibility of anything the
    # solver returns never depends on them.

    def _float_lp_value(self, p, w, budget: float, cap: int) -> float:
        """LP relaxation value via dual bisection on the multiplier."""
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
        if self.use_upsilon1:
            order = self._float_greedy_order(
                self._pf, self._wf, float(omega), k, self._ids
            )
            return self._eval_from_ids(self._select_exact(order, omega, k))
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
