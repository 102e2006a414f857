"""The continuous relaxation for the small-item subproblem.

The subproblem: given the small-profit items (geometrically rounded profits,
original weights), a residual weight budget omega and a residual cardinality
cap k, estimate the best achievable profit. Exact integer optimization is
replaced by upsilon1, the plain LP relaxation (box constraints + one weight
row + one cardinality row), solved exactly at a vertex with at most two
fractional components. Its critical Lagrange multiplier is found by line
intersection on the convex dual, and its vertex built, on integer keys: the
data is scaled to integers once, and only the at most two fractional
components are Fractions.

upsilon1 answers every query at every K. When K > 1/eps the paper switches
to a ladder of relaxations over a light/heavy split of the pool; production
does not. The vertex has at most two fractional components and each small
item's profit is at most eps*opt_estimate, so dropping them loses at most
2*eps*opt_estimate -- tighter than the 4*eps*opt_estimate the ladder is
allowed. The ladder is kept in oracles.py as a desk-scale reference.

All arithmetic is exact. Ties everywhere are broken deterministically by
item id.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional

ZERO = Fraction(0)
ONE = Fraction(1)


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
    entries); integral_ids are the ids at exactly 1; mu is the critical
    dual multiplier.
    """

    value: Fraction
    fractional_solution: dict
    integral_ids: tuple[int, ...]
    mu: Optional[Fraction] = None

    @property
    def fractional_count(self) -> int:
        return sum(1 for v in self.fractional_solution.values() if 0 < v < 1)


# ---------------------------------------------------------------------------
# Exact box-LP engine: max p.x st w.x <= budget, 1.x <= cap, 0 <= x <= 1.
# upsilon1 is exactly this program; oracles.upsilon4 reuses it.
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
# SmallSolver: pool-level evaluator with memoization.
# ---------------------------------------------------------------------------


class SmallSolver:
    """Evaluates the small-item approximation phi_dag_S(omega, k) for one
    partition's small pool (rounded profits, original weights).

    Every query is upsilon1, run by the integer-keyed box-LP engine over the
    pool's positive-profit units, whose greedy passes the pool's scaling
    caches per cap. Values are memoized per exact (omega, k).
    """

    # Every pool is solved exactly; benchmark traces read this flag.
    exact = True

    def __init__(self, items, K: int):
        self.items = _units(items)
        self.K = int(K)
        self._memo: dict[tuple[Fraction, int], Fraction] = {}
        units = [u for u in self.items if u[1] > 0]
        self._lp_pool = units, _IntScaling.of(units)

    @classmethod
    def from_partition(cls, partition) -> "SmallSolver":
        """Build a solver over a partition's pruned small classes, using the
        class-rounded profits and the original weights."""
        pool = [
            (item.id, klass.rounded_profit, item.weight)
            for klass in partition.small_classes
            for item in klass.members
        ]
        return cls(pool, K=partition.cardinality)

    def register_query_weights(self, omegas) -> None:
        """Announce the residual budgets the combiner will query. Nothing is
        precomputed from them; the call is where benchmark traces count the
        combiner's splits."""

    def phi_dag(self, omega: Fraction, k: int) -> Fraction:
        """Approximation value for residual budget omega, cardinality k."""
        omega = Fraction(omega)
        if omega < 0:
            raise ValueError("negative residual budget")
        k = max(0, min(int(k), self.K))
        key = (omega, k)
        if key not in self._memo:
            self._memo[key] = _solve_units(*self._lp_pool, omega, k).value
        return self._memo[key]

    def eval_detail(self, omega: Fraction, k: int) -> SmallEval:
        """Full evaluation (with solution structure) for retrieval: the LP
        vertex, whose integral ids are a feasible selection."""
        k = max(0, min(int(k), self.K))
        return _solve_units(*self._lp_pool, Fraction(omega), k)


_PARTITION_SOLVERS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def solver_for_partition(partition) -> SmallSolver:
    """SmallSolver for a partition, cached per partition object."""
    solver = _PARTITION_SOLVERS.get(partition)
    if solver is None:
        solver = SmallSolver.from_partition(partition)
        _PARTITION_SOLVERS[partition] = solver
    return solver
