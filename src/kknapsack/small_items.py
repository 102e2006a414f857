"""The continuous relaxation for the small-item subproblem.

The subproblem: given the small-profit items (geometrically rounded profits,
original weights), a residual weight budget omega and a residual cardinality
k, estimate the best achievable profit. Exact integer optimization is
replaced by upsilon1, the plain LP relaxation (box constraints + one weight
row + one cardinality row), solved exactly at a vertex with at most two
fractional components (sum x = k in exactly-K mode, where two fractional
components sum to one). Its critical Lagrange multiplier is found by line
intersection on the convex dual, and its vertex built, on integer keys: the
data is scaled to integers once, and only the at most two fractional
components are Fractions. Each greedy pass ranks the units by float64 keys
with a proven error bound in one numpy pass, and computes the exact integer
key only for the units that bound cannot place: those near zero at the sign
test and those near the cap-th key at the cap cut.

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

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from operator import itemgetter
from typing import Optional

import numpy as np

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

    def rounded_ids(self, weight_of) -> tuple[int, ...]:
        """Rounding of a vertex under sum x = cap: the integral ids plus the
        lighter fractional unit. The two fractional parts sum to one, so the
        count is cap and min(w_a, w_b) <= x_a*w_a + x_b*w_b fits."""
        # Every value lies in (0, 1], so the fractional ones are those with
        # a denominator other than 1, found without comparing Fractions.
        frac = [i for i, v in self.fractional_solution.items() if v.denominator != 1]
        assert not frac or (
            len(frac) == 2 and sum(self.fractional_solution[i] for i in frac) == 1
        ), self.fractional_solution
        if not frac:
            return self.integral_ids
        return self.integral_ids + (min(frac, key=lambda i: (weight_of(i), i)),)


# ---------------------------------------------------------------------------
# Exact box-LP engine: max p.x st w.x <= budget, 1.x <= cap (or = cap under
# the equality row), 0 <= x <= 1.
# upsilon1 is exactly this program; oracles.upsilon4 reuses it.
# ---------------------------------------------------------------------------


# Bound on the error of every float key kf (see _IntScaling.float_keys): on
# keys scaled into [-1, 1], |kf - key/scale| <= 6u + 8u^2 + 7*2^-1075 with
# u = 2^-53. The slack up to 8u also covers the rounding of cf +- 2*KEY_ERROR
# at the cap cut.
KEY_ERROR = 8 * 2.0**-53 + 2.0**-1000


@dataclass(eq=False)
class _IntScaling:
    """Units scaled once to integers: P_i = p_i*lp and W_i = w_i*lw, with lp
    and lw the lcm of the profit and weight denominators.

    In these units the adjusted profit p - mu*w is proportional to
    P - nu*W with nu = mu*lp/lw, so at nu = num/den every unit's greedy key
    den*P - num*W is an integer. The scaling also keeps P/2^e and W/2^f in
    float64, with e and f the bit lengths of max P and max W, from which
    float_keys ranks every unit at once; P and W are also kept as arrays
    for summing selections, int64 when no sum of them can reach 2^62 and
    Python ints otherwise.

    The scaling also caches greedy passes. A pass depends only on cap and
    on the value of nu, so it is keyed by the reduced num/den. The pass at
    nu = 0, the top cap units by profit, is kept for every cap; the passes
    at nu > 0 are kept for one cap at a time, and a new cap drops them.
    Queries at many budgets for one cap, as in the combiner's split sweep,
    share the passes that their multiplier searches have in common, and
    the vertex at nu* reuses the search's last pass. passes and exact_keys
    count the greedy passes run and the units keyed exactly in them.
    equality selects the row sum x = cap over sum x <= cap.
    """

    P: tuple[int, ...]
    W: tuple[int, ...]
    lp: int
    lw: int
    equality: bool = False
    passes: int = field(default=0, init=False)
    exact_keys: int = field(default=0, init=False)
    _cap: Optional[int] = field(default=None, init=False, repr=False)
    _passes: dict = field(default_factory=dict, init=False, repr=False)
    _tops: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self._e = max(self.P, default=0).bit_length()
        self._f = max(self.W, default=0).bit_length()
        # Python's int true division rounds correctly, down to subnormals.
        pd, wd = 1 << self._e, 1 << self._f
        self._pf = np.array([p / pd for p in self.P], dtype=np.float64)
        self._wf = np.array([w / wd for w in self.W], dtype=np.float64)
        self.P_array = _sum_array(self.P, self._e)
        self.W_array = _sum_array(self.W, self._f)

    @classmethod
    def of(cls, units, equality: bool = False) -> "_IntScaling":
        profits = [p for _, p, _ in units]
        weights = [w for _, _, w in units]
        lp = math.lcm(*{p.denominator for p in profits})
        lw = math.lcm(*{w.denominator for w in weights})
        return cls(_over(profits, lp), _over(weights, lw), lp, lw, equality)

    @cached_property
    def top_ratio(self) -> tuple[int, int]:
        """(P, W) of a unit with the largest ratio P/W over W > 0, or (0, 1)
        when every unit is weightless."""
        top_p, top_w = 0, 1
        for p, w in zip(self.P, self.W):
            if w > 0 and p * top_w > top_p * w:
                top_p, top_w = p, w
        return top_p, top_w

    @cached_property
    def lightest(self) -> list[int]:
        """lightest[c] is the least total W of c units."""
        return list(itertools.accumulate(sorted(self.W), initial=0))

    def float_keys(self, num: int, den: int) -> np.ndarray:
        """Every unit's key den*P - num*W divided by s = max(den*2^e, num*2^f),
        in float64, each within KEY_ERROR of its exact value.

        With a = den*2^e and b = num*2^f the scaled key is
        (a/s)*(P/2^e) - (b/s)*(W/2^f): both factors are at most 1 and both
        fractions lie in [0, 1), so the five correctly rounded operations
        (two stored fractions, one ratio, one product, one difference) err
        by at most u each relative to terms at most 1, and the subnormal
        ones by at most 2^-1075 absolute. Nothing can overflow.
        """
        a, b = den << self._e, num << self._f
        if a >= b:
            return self._pf - (b / a) * self._wf
        return (a / b) * self._pf - self._wf

    def maximizer(self, cap: int, num: int, den: int):
        """_lightest_maximizer at nu = num/den: cached for every cap at
        nu = 0, without its pass (no vertex is built there), and for the
        current cap at nu > 0."""
        if num == 0:
            found = self._tops.get(cap)
            if found is None:
                found = self._tops[cap] = (*_lightest_maximizer(self, cap, 0, 1)[:3], None)
            return found
        if cap != self._cap:
            self._cap, self._passes = cap, {}
        g = math.gcd(num, den)
        key = (num // g, den // g)
        found = self._passes.get(key)
        if found is None:
            found = self._passes[key] = _lightest_maximizer(self, cap, *key)
        return found


def _sum_array(values, bits: int) -> np.ndarray:
    """values, each under 2^bits, as an array whose selections sum exactly:
    int64 when no sum can reach 2^62, Python ints otherwise."""
    fits = len(values) << bits < 1 << 62
    return np.array(values, dtype=np.int64 if fits else object)


def _over(values, lcm: int) -> tuple[int, ...]:
    """Numerators of the values over the common denominator lcm. A value
    already over lcm, such as any integer when lcm is 1, keeps its numerator
    object, so integral pools allocate no new ints; any other value is
    scaled once and shared by its repeats, as class-rounded profits are."""
    scaled: dict[tuple[int, int], int] = {}
    out = []
    for v in values:
        n, d = v.numerator, v.denominator
        if d == lcm:
            out.append(n)
            continue
        key = (n, d)
        x = scaled.get(key)
        if x is None:
            x = scaled[key] = n * (lcm // d)
        out.append(x)
    return tuple(out)


def _greedy_pass(scaled: _IntScaling, cap: int, num: int, den: int):
    """The units at nu = num/den split by the entry threshold of the greedy
    selection on keys den*P - num*W: returns (above, cut, tied).

    When at most cap keys are positive (inequality row only), cut is None,
    above holds the units with a positive key and tied the (W, index) pairs
    of the zero-key units. Otherwise cut is the cap-th largest key, above
    holds the units keyed above it and tied the (W, index) pairs of the
    units at it; the equality row ranks every unit, so its cut may be zero
    or negative.

    The pass is exact while almost every unit is ranked in float. With
    E = KEY_ERROR, a float key above E is positive and one below -E is not;
    only |kf| <= E gets its exact integer key (for the inequality row's
    sign test). At the cap cut, cf, the cap-th largest float key among the
    ranked units, lies within E of the exact cap-th key, so float
    keys above cf + 2E are above the cut and those below cf - 2E under it;
    only the band between is keyed exactly and ranked by exact key.
    """
    P, W = scaled.P, scaled.W
    kf = scaled.float_keys(num, den)
    scaled.passes += 1
    if scaled.equality:
        exact = {}
        pos = np.arange(len(P))
    else:
        unsure = (abs(kf) <= KEY_ERROR).nonzero()[0].tolist()
        exact = {i: den * P[i] - num * W[i] for i in unsure}
        pos = (kf > KEY_ERROR).nonzero()[0]
        extra = [i for i, key in exact.items() if key > 0]
        if extra:
            pos = np.concatenate((pos, extra))
        if len(pos) <= cap:
            scaled.exact_keys += len(exact)
            return pos, None, [(W[i], i) for i, key in exact.items() if key == 0]
    kpos = kf[pos]
    rank = len(pos) - cap
    cf = np.partition(kpos, rank)[rank]
    high = kpos > cf + 2 * KEY_ERROR
    above = pos[high]
    band = pos[~high & (kpos >= cf - 2 * KEY_ERROR)].tolist()
    for i in band:
        if i not in exact:
            exact[i] = den * P[i] - num * W[i]
    scaled.exact_keys += len(exact)
    cut = sorted((exact[i] for i in band), reverse=True)[cap - len(above) - 1]
    extra = [i for i in band if exact[i] > cut]
    if extra:
        above = np.concatenate((above, extra))
    return above, cut, [(W[i], i) for i in band if exact[i] == cut]


def _lightest_maximizer(scaled: _IntScaling, cap: int, num: int, den: int):
    """Lightest maximizer S of the inner Lagrangian problem at nu = num/den:
    the top-cap units by key den*P - num*W (only positive keys under the
    inequality row), ties at the cap-th key going to the lighter unit and
    then to the lower index.

    Returns (sum of P over S, sum of W over S, S as the index array of the
    units keyed above the cut and the list of tied units filled in, the
    pass's (cut, tied)), with tied sorted when cut is not None.
    """
    above, cut, tied = _greedy_pass(scaled, cap, num, den)
    fill = []
    if cut is not None:
        tied.sort()
        fill = [i for _, i in tied[: cap - len(above)]]
    p_sum = int(scaled.P_array[above].sum()) + sum(map(scaled.P.__getitem__, fill))
    w_sum = int(scaled.W_array[above].sum()) + sum(map(scaled.W.__getitem__, fill))
    return p_sum, w_sum, (above, fill), (cut, tied)


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
    where only weightless units keep a positive key; under the equality row
    from b = max P - min P + 1, where every lighter unit keys above every
    heavier one, so the selection is the cap lightest, which the caller
    found to fit. The lines at a
    and b cross at c = (P_a - P_b)/(W_a - W_b). If L(c) lies on the line at
    a, L is linear on [a, c] with negative slope and on [c, b] with
    slope >= 0, so c is mu*. Otherwise c replaces the end whose side of the
    budget it shares. Each replacement strictly raises the slope at a or
    lowers it at b, so the loop ends.
    """
    if scaled.equality:
        end = (max(scaled.P) - min(scaled.P) + 1, 1)
    else:
        end = scaled.top_ratio
    pb, wb, *_ = scaled.maximizer(cap, *end)
    while True:
        num, den = pa - pb, wa - wb
        pc, wc, *_ = scaled.maximizer(cap, num, den)
        if den * pc - num * wc == den * pa - num * wa:
            g = math.gcd(num, den)
            return num // g, den // g
        if wc > budget_w:
            pa, wa = pc, wc
        else:
            pb, wb = pc, wc


def _vertex(scaled: _IntScaling, budget_w: Fraction, cap: int, num: int, den: int):
    """Optimal LP vertex at the critical multiplier nu* = num/den > 0, built
    on the integer keys den*P - num*W of the greedy pass at nu*, which the
    multiplier search has left in the scaling's cache.

    Units keyed above the entry threshold go in. The weight row is then
    made exactly tight with the units whose key ties it (the zero-key units
    when the selection stops short of the cap): full swaps first, then one
    final fractional swap, so at most two components are fractional.
    Returns (integral indices, fractional (index, x) pairs, primal sum of
    P*x, key sum G of a maximizer); den*primal equals num*budget_w + G
    exactly when primal and dual values agree.
    """
    P = scaled.P
    bn, bd = budget_w.numerator, budget_w.denominator
    _, _, (above, _), (cut, tied) = scaled.maximizer(cap, num, den)
    integral = above.tolist()
    p_above = int(scaled.P_array[above].sum())
    used = int(scaled.W_array[above].sum())
    g = den * p_above - num * used
    fractional = []
    if cut is None:
        # Pad the weight up to the budget with zero-key units, which are
        # free for the inner objective, heaviest first.
        assert bd * used <= bn, "greedy selection exceeds budget at mu*"
        zeros = sorted(tied, key=lambda t: (-t[0], t[1]))
        for w, i in zeros[: cap - len(integral)]:
            if bd * used == bn:
                break
            if bd * (used + w) <= bn:
                integral.append(i)
                used += w
            else:
                fractional.append((i, Fraction(bn - bd * used, bd * w)))
                break
        assert fractional or bd * used == bn, "cannot make weight row tight at mu*"
    else:
        # tied is sorted and shared with the cache: only read slices of it.
        fill = cap - len(integral)
        g += fill * cut
        lightest, heaviest = tied[:fill], tied[fill:][::-1]
        used += sum(w for w, _ in lightest)
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
    primal = p_above + sum(map(P.__getitem__, integral[len(above):]))
    primal += sum((P[i] * x for i, x in fractional), ZERO)
    return integral, fractional, primal, g


def solve_box_lp(
    items, budget: Fraction, cap: int, *, equality: bool = False
) -> Optional[SmallEval]:
    """Exact optimum of max p.x st w.x <= budget, sum x <= cap, x in [0,1];
    with equality, sum x = cap over every unit, zero profits included, and
    None when no cap units fit the budget.

    Fast path: if the minimum-weight top-cap-by-profit selection fits, it is
    integral and optimal. Otherwise the weight row is tight at the optimum:
    the critical Lagrange multiplier is found by an exact line-intersection
    search on integer-scaled data, then a vertex with at most two fractional
    components is constructed at it from the same integer keys.
    """
    units = _units(items)
    if not equality:
        units = [u for u in units if u[1] > 0]
    scaled = _IntScaling.of(units, equality)
    return _evaluation(units, scaled, _solve_units(scaled, Fraction(budget), int(cap)))


def _solve_units(scaled: _IntScaling, budget: Fraction, cap: int):
    """solve_box_lp on a scaled pool as a raw vertex (primal, integral,
    fractional, num, den): the value times lp, pool indices, and nu*, 0/1 on
    the fast path and None/None when nothing is taken; None if infeasible.
    Every answer off the fast path is certified: its primal value equals
    the dual value at nu*."""
    n = len(scaled.P)
    if scaled.equality:
        if budget < 0 or not 0 <= cap <= n or scaled.lightest[cap] > budget * scaled.lw:
            return None
    else:
        cap = max(0, min(cap, n))
    if cap == 0 or budget < 0:
        return 0, [], [], None, None

    budget_w = budget * scaled.lw
    top_p, top_w, (above, fill), _ = scaled.maximizer(cap, 0, 1)
    if top_w <= budget_w:
        return top_p, above.tolist() + fill, [], 0, 1

    num, den = _critical_multiplier(scaled, budget_w, cap, top_p, top_w)
    integral, fractional, primal, g = _vertex(scaled, budget_w, cap, num, den)
    assert den * primal == num * budget_w + g, f"primal != dual at nu*={num}/{den}"
    return primal, integral, fractional, num, den


def _evaluation(units, scaled: _IntScaling, raw) -> Optional[SmallEval]:
    """The SmallEval of a raw vertex from _solve_units over these units."""
    if raw is None:
        return None
    primal, integral, fractional, num, den = raw
    ids = tuple(units[i][0] for i in sorted(integral))
    x = dict.fromkeys(ids, ONE)
    x.update((units[i][0], v) for i, v in fractional)
    mu = None if num is None else Fraction(num * scaled.lw, den * scaled.lp)
    return SmallEval(Fraction(primal, scaled.lp), x, ids, mu=mu)


def upsilon1(items, omega: Fraction, k: int) -> SmallEval:
    """Exact LP relaxation of the small-item knapsack: weight budget omega,
    cardinality cap k, box-relaxed variables. Vertex optimum, <= 2 fractional
    components."""
    return solve_box_lp(items, Fraction(omega), k)


# ---------------------------------------------------------------------------
# SmallSolver: pool-level evaluator.
# ---------------------------------------------------------------------------


class SmallSolver:
    """Evaluates the small-item approximation phi_dag_S(omega, k) for one
    partition's small pool (rounded profits, original weights).

    Every query is upsilon1, run by the integer-keyed box-LP engine over the
    pool's units, whose greedy passes the pool's scaling caches per cap:
    the positive-profit units, or with exactly_k every unit, zero-profit
    fillers included; then a query takes exactly k units and is None when
    no k units fit omega. items holds the pool as id-ascending
    (id, profit, weight) triples and scaled their integer view.
    """

    # Every pool is solved exactly; benchmark traces read this flag.
    exact = True

    def __init__(self, units, scaled: _IntScaling, K: int):
        self.items = units
        self.scaled = scaled
        self.K = int(K)

    @classmethod
    def of(cls, items, K: int, exactly_k: bool = False) -> "SmallSolver":
        """Solver over arbitrary items or (id, profit, weight) triples."""
        units = _units(items)
        if not exactly_k:
            units = [u for u in units if u[1] > 0]
        return cls(units, _IntScaling.of(units, exactly_k), K)

    @property
    def passes(self) -> int:
        """Greedy passes run over the pool so far."""
        return self.scaled.passes

    @property
    def exact_keys(self) -> int:
        """Units keyed exactly, as Python ints, over those passes."""
        return self.scaled.exact_keys

    @classmethod
    def from_partition(cls, partition) -> "SmallSolver":
        """Build a solver over a partition's pruned small classes, using the
        class-rounded profits and the original weights, plus its zero-profit
        fillers in exactly-K mode. The integer view is built in one pass:
        each class's rounded profit is scaled once for all its members, and
        the Fractions the partition holds are used as they are."""
        groups = [(c.rounded_profit, c.members) for c in partition.small_classes]
        groups.append((ZERO, partition.fillers))
        lp = math.lcm(*(p.denominator for p, _ in groups))
        rows = []  # (id, profit, weight, P)
        for p, members in groups:
            scaled_p = p.numerator * (lp // p.denominator)
            rows += [(it.id, p, it.weight, scaled_p) for it in members]
        rows.sort(key=itemgetter(0))
        weights = [r[2] for r in rows]
        lw = math.lcm(*{w.denominator for w in weights})
        P = tuple(r[3] for r in rows)
        scaled = _IntScaling(P, _over(weights, lw), lp, lw, partition.exactly_k)
        return cls([r[:3] for r in rows], scaled, partition.cardinality)

    def register_query_weights(self, weights) -> None:
        """Announce the splits the combiner's sweep enumerated, one entry
        each (their scaled table weights); the sweep then queries only the
        splits its bounds leave open. Nothing is precomputed from them; the
        call is where benchmark traces count the combiner's splits."""

    def top_scaled(self, k: int) -> Optional[int]:
        """The most k units give with the weight row dropped, times
        scaled.lp: the top k by profit, phi_dag's fast-path pass. It bounds
        phi_dag(omega, k) from above at every omega. None when exactly k
        units are more than the pool holds (exactly-K mode)."""
        k = max(0, min(int(k), self.K))
        scaled = self.scaled
        n = len(scaled.P)
        if scaled.equality and k > n:
            return None
        k = min(k, n)
        return scaled.maximizer(k, 0, 1)[0] if k else 0

    def phi_dag(self, omega: Fraction, k: int) -> Optional[Fraction]:
        """Approximation value for residual budget omega, cardinality k;
        None when exactly k units cannot fit omega (exactly-K mode only)."""
        omega = Fraction(omega)
        if omega < 0:
            raise ValueError("negative residual budget")
        k = max(0, min(int(k), self.K))
        scaled = self.scaled
        raw = _solve_units(scaled, omega, k)
        return None if raw is None else Fraction(raw[0], scaled.lp)

    def eval_detail(self, omega: Fraction, k: int) -> Optional[SmallEval]:
        """Full evaluation (with solution structure) for retrieval: the LP
        vertex, whose integral ids are a feasible selection (in exactly-K
        mode, its rounded_ids are). None where phi_dag is None."""
        k = max(0, min(int(k), self.K))
        scaled = self.scaled
        return _evaluation(self.items, scaled, _solve_units(scaled, Fraction(omega), k))


def solver_for_partition(partition) -> SmallSolver:
    """SmallSolver for a partition; the combiner's entry point, which
    benchmark traces wrap to count pools."""
    return SmallSolver.from_partition(partition)
