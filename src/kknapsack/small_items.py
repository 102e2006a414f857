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
test and those near the cap-th key at the cap cut. A SmallSolver holds one
pool's integers and passes: the estimate's LP pool, or a partition's small
pool, whose integer profits come from the class indices.

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
from typing import Optional, Sequence

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
    dual multiplier. rounded_ids, the selection retrieval takes, are the
    integral ids plus, under the row sum x = cap, the lighter fractional
    unit (_rounding); never compared, and None from the oracles.
    """

    value: Fraction
    fractional_solution: dict
    integral_ids: tuple[int, ...]
    mu: Optional[Fraction] = None
    rounded_ids: Optional[tuple[int, ...]] = field(default=None, compare=False)

    @property
    def fractional_count(self) -> int:
        return sum(1 for v in self.fractional_solution.values() if 0 < v < 1)


# ---------------------------------------------------------------------------
# Exact box-LP engine: max p.x st w.x <= budget, 1.x <= cap (or = cap under
# the equality row), 0 <= x <= 1.
# upsilon1 is exactly this program; oracles.upsilon4 reuses it.
# ---------------------------------------------------------------------------


# Bound on the error of every float key kf (see SmallSolver.float_keys): on
# keys scaled into [-1, 1], |kf - key/scale| <= 6u + 8u^2 + 7*2^-1075 with
# u = 2^-53. The slack up to 8u also covers the rounding of cf +- 2*KEY_ERROR
# at the cap cut.
KEY_ERROR = 8 * 2.0**-53 + 2.0**-1000


@dataclass(eq=False)
class SmallSolver:
    """One small pool: the units the box-LP engine ranks, scaled to
    integers, and the caches its queries share. Each query is upsilon1 over
    the pool, phi_dag_S(omega, k) for a partition's small pool (rounded
    profits, original weights).

    ids labels the units in ascending order: item ids, or the candidate
    view's rows for the estimate's pool. The units are the positive-profit
    ones, or with equality every unit, zero-profit fillers included; then a
    query takes exactly k units and is None when no k units fit omega (the
    row sum x = cap over sum x <= cap). K caps every query's k.

    Unit i has P_i = p_i*lp and W_i = w_i*lw, with lw a common denominator
    of the weights and lp a positive rational that makes every profit
    integral: a common denominator of the profits, or one divided by a
    common factor of the scaled profits (see from_partition). In these
    units the adjusted profit p - mu*w is proportional to P - nu*W with
    nu = mu*lp/lw, so at nu = num/den every unit's greedy key den*P - num*W
    is an integer. P and W are sum arrays (see _sum_array): int64 when no
    sum of them can reach 2^62, Python ints otherwise, so selections sum
    exactly; single values are read as Python ints before they meet a
    multiplier. The pool also keeps P/2^e and W/2^f in float64, with e and
    f the bit lengths of max P and max W, from which float_keys ranks every
    unit at once.

    The pool caches greedy passes. A pass depends only on cap and on the
    value of nu, so it is keyed by the reduced num/den. The pass at nu = 0,
    the top cap units by profit, is kept for every cap; the passes at
    nu > 0 are kept for one cap at a time, and a new cap drops them.
    Queries at many budgets for one cap, as in the combiner's split sweep,
    share the passes that their multiplier searches have in common, and the
    vertex at nu* reuses the search's last pass. passes and exact_keys
    count the greedy passes run and the units keyed exactly in them.
    """

    ids: Sequence
    P: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)
    lp: Fraction
    lw: int
    K: int
    equality: bool = False
    passes: int = field(default=0, init=False)
    exact_keys: int = field(default=0, init=False)
    _cap: Optional[int] = field(default=None, init=False, repr=False)
    _passes: dict = field(default_factory=dict, init=False, repr=False)
    _tops: dict = field(default_factory=dict, init=False, repr=False)

    # Every pool is solved exactly; benchmark traces read this flag.
    exact = True

    def __post_init__(self):
        self._e = _extremes(self.P)[1].bit_length()
        self._f = _extremes(self.W)[1].bit_length()
        self._pf = _over_power(self.P, self._e)
        self._wf = _over_power(self.W, self._f)

    @classmethod
    def of(cls, items, K: int, exactly_k: bool = False) -> "SmallSolver":
        """The pool of arbitrary items or (id, profit, weight) triples."""
        units = _units(items)
        if not exactly_k:
            units = [u for u in units if u[1] > 0]
        profits = [p for _, p, _ in units]
        weights = [w for _, _, w in units]
        lp = math.lcm(*{p.denominator for p in profits})
        lw = math.lcm(*{w.denominator for w in weights})
        P = _sum_array([p.numerator * (lp // p.denominator) for p in profits])
        W = _sum_array([w.numerator * (lw // w.denominator) for w in weights])
        return cls([u[0] for u in units], P, W, lp, lw, int(K), exactly_k)

    @classmethod
    def from_partition(cls, partition) -> "SmallSolver":
        """The pool of a partition's pruned small classes, plus its
        zero-profit fillers in exactly-K mode, read by their rows in the
        partition's candidate view: the weights are the view's W, and the
        profits come from the class indices alone.

        Small class j counts its members at S*g^-j, with S its profit_scale
        and g = c/b its growth in lowest terms. Over the pooled indices
        jmin..jmax, class j gets P_j = b^(j-jmin) * c^(jmax-j) and the
        fillers 0, so P_j/lp is the rounded profit for
        lp = c^jmax / (S * b^jmin). The P of classes jmin and jmax are
        coprime powers, so P is the coprime integer vector proportional to
        the rounded profits, and no rounded profit is built. At large K the
        pool reaches deep classes, and P over a plain common denominator of
        the rounded profits would take 82 bits instead of 28 on uniform
        n = 2000, K = 1024."""
        view, classes = partition.view, partition.small_classes
        lp, profits = Fraction(1), []
        if classes:
            S, g = classes[0].profit_scale, classes[0].growth
            b, c = g.denominator, g.numerator
            jmin, jmax = classes[0].index, classes[-1].index  # indices ascend
            lp = g**jmax * b ** (jmax - jmin) / S
            profits = [b ** (j.index - jmin) * c ** (jmax - j.index) for j in classes]
        groups = [j.rows for j in classes] + [partition.filler_rows]
        rows = np.concatenate(groups)
        P = _sum_array(profits + [0], count=len(rows))
        P = np.repeat(P, [len(r) for r in groups])
        order = np.argsort(rows, kind="stable")  # view rows ascend by id
        rows = rows[order]
        return cls(
            view.ids[rows].tolist(), P[order], view.W[rows], lp, view.lw,
            partition.cardinality, partition.exactly_k,
        )

    @cached_property
    def top_ratio(self) -> tuple[int, int]:
        """(P, W) of a unit with the largest ratio P/W over W > 0, or (0, 1)
        when every unit is weightless.

        On int64 units the float ratio (P/2^e)/(W/2^f) is within 3u of the
        exact one, u = 2^-53 (two correctly rounded conversions, exact
        power-of-two scalings, one division), so only the units within
        2^-49 of the largest float ratio are compared exactly."""
        P, W = self.P, self.W
        heavy = np.flatnonzero(W > 0)
        if heavy.size and object not in (P.dtype, W.dtype):
            ratio = self._pf[heavy] / self._wf[heavy]
            heavy = heavy[ratio >= ratio.max() * (1 - 2.0**-49)]
        top_p, top_w = 0, 1
        for i in heavy.tolist():
            p, w = int(P[i]), int(W[i])
            if p * top_w > top_p * w:
                top_p, top_w = p, w
        return top_p, top_w

    @cached_property
    def top_sums(self) -> list[int]:
        """top_sums[c] is the greatest total P of c units."""
        return list(itertools.accumulate(np.sort(self.P)[::-1].tolist(), initial=0))

    @cached_property
    def lightest(self) -> list[int]:
        """lightest[c] is the least total W of c units."""
        return list(itertools.accumulate(np.sort(self.W).tolist(), initial=0))

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

    def register_query_weights(self, weights) -> None:
        """Announce the splits the combiner's sweep enumerated, one entry
        each (their scaled table weights); the sweep then queries only the
        splits its bounds leave open. Nothing is precomputed from them; the
        call is where benchmark traces count the combiner's splits."""

    def top_scaled(self, k: int) -> Optional[int]:
        """The most k units give with the weight row dropped, in P units
        (times lp): the sum of the k largest P, the value of phi_dag's
        fast-path pass. It bounds phi_dag(omega, k) from above at every
        omega. None when exactly k units are more than the pool holds
        (exactly-K mode)."""
        k = max(0, min(int(k), self.K))
        n = len(self.P)
        if self.equality and k > n:
            return None
        return self.top_sums[min(k, n)]

    def phi_dag(self, omega: Fraction, k: int) -> Optional[Fraction]:
        """Approximation value for residual budget omega, cardinality k;
        None when exactly k units cannot fit omega (exactly-K mode only)."""
        omega = Fraction(omega)
        if omega < 0:
            raise ValueError("negative residual budget")
        raw = _solve_units(self, omega, max(0, min(int(k), self.K)))
        return None if raw is None else Fraction(raw[0], self.lp)

    def eval_detail(self, omega: Fraction, k: int) -> Optional[SmallEval]:
        """Full evaluation (with solution structure) for retrieval: the LP
        vertex, whose rounded_ids are a feasible selection. None where
        phi_dag is None."""
        k = max(0, min(int(k), self.K))
        return _evaluation(self, _solve_units(self, Fraction(omega), k))


def _sum_array(values, count: Optional[int] = None) -> np.ndarray:
    """Non-negative Python ints as an array whose sums of up to count of
    them (default: all) are exact: int64 when count times the largest
    cannot reach 2^62, Python ints otherwise."""
    bits = max(values, default=0).bit_length()
    fits = (len(values) if count is None else count) << bits < 1 << 62
    return np.array(values, dtype=np.int64 if fits else object)


def _sum_at(values: np.ndarray, idx) -> int:
    """The exact sum of values at the indices idx, a list or an array."""
    return int(values[idx].sum()) if len(idx) else 0


def _extremes(values: np.ndarray) -> tuple[int, int]:
    """(least, greatest) of the values as Python ints, (0, 0) when there
    are none. Object arrays hold Python ints, so Python's own min and max
    read them."""
    if not len(values):
        return 0, 0
    if values.dtype == object:
        ints = values.tolist()
        return min(ints), max(ints)
    return int(values.min()), int(values.max())


def _over_power(values: np.ndarray, bits: int) -> np.ndarray:
    """values / 2^bits in float64, each correctly rounded. On int64 the
    conversion is correctly rounded and dividing by a power of two is then
    exact (the quotients are at least 2^-63, far above the subnormals);
    Python's int true division rounds correctly, down to subnormals."""
    if values.dtype != object:
        return values.astype(np.float64) / float(1 << bits)
    d = 1 << bits
    return np.array([v / d for v in values.tolist()], dtype=np.float64)


def _greedy_pass(pool: SmallSolver, cap: int, num: int, den: int):
    """The units at nu = num/den split by the entry threshold of the greedy
    selection on keys den*P - num*W: returns (above, cut, tied).

    When at most cap keys are positive (inequality row only), cut is None,
    above holds the units with a positive key and tied the (W, index) pairs
    of the zero-key units. Otherwise cut is the cap-th largest key, above
    holds the units keyed above it and tied the (W, index) pairs of the
    units at it; the equality row ranks every unit, so its cut may be zero
    or negative. tied is sorted.

    The pass is exact while almost every unit is ranked in float. With
    E = KEY_ERROR, a float key above E is positive and one below -E is not;
    only |kf| <= E gets its exact integer key (for the inequality row's
    sign test). At the cap cut, cf, the cap-th largest float key among the
    ranked units, lies within E of the exact cap-th key, so float
    keys above cf + 2E are above the cut and those below cf - 2E under it;
    only the band between is keyed exactly and ranked by exact key.
    """
    kf = pool.float_keys(num, den)
    pool.passes += 1
    if pool.equality:
        pos, kpos = None, kf  # every unit is ranked
    else:
        pos = (kf > KEY_ERROR).nonzero()[0]
        unsure = _band_keys(pool, (abs(kf) <= KEY_ERROR).nonzero()[0], num, den)
        extra = [i for i, _, key in unsure if key > 0]
        if extra:
            pos = np.concatenate((pos, extra))
        if len(pos) <= cap:
            return pos, None, sorted((w, i) for i, w, key in unsure if key == 0)
        kpos = kf[pos]
    rank = len(kpos) - cap
    cf = np.partition(kpos, rank)[rank]
    high = kpos > cf + 2 * KEY_ERROR
    above = high.nonzero()[0]
    band = (~high & (kpos >= cf - 2 * KEY_ERROR)).nonzero()[0]
    if pos is not None:
        above, band = pos[above], pos[band]
    band = _band_keys(pool, band, num, den)
    cut = sorted((key for _, _, key in band), reverse=True)[cap - len(above) - 1]
    extra = [i for i, _, key in band if key > cut]
    if extra:
        above = np.concatenate((above, extra))
    return above, cut, sorted((w, i) for i, w, key in band if key == cut)


def _band_keys(pool: SmallSolver, idx: np.ndarray, num: int, den: int) -> list:
    """(index, W, exact key den*P - num*W) of the units at idx, in Python
    ints, counted in pool.exact_keys."""
    if not idx.size:
        return []
    pool.exact_keys += len(idx)
    P, W = pool.P[idx].tolist(), pool.W[idx].tolist()
    return [(i, w, den * p - num * w) for i, p, w in zip(idx.tolist(), P, W)]


def _lightest_maximizer(pool: SmallSolver, cap: int, num: int, den: int):
    """Lightest maximizer S of the inner Lagrangian problem at nu = num/den:
    the top-cap units by key den*P - num*W (only positive keys under the
    inequality row), ties at the cap-th key going to the lighter unit and
    then to the lower index.

    Returns (sum of P over S, sum of W over S, S as the index array of the
    units keyed above the cut and the list of tied units filled in, the
    pass's (cut, tied)).
    """
    above, cut, tied = _greedy_pass(pool, cap, num, den)
    P, W = pool.P, pool.W
    p_sum, w_sum = _sum_at(P, above), _sum_at(W, above)
    fill = []
    if cut is not None:
        filled = tied[: cap - len(above)]
        fill = [i for _, i in filled]
        p_sum += _sum_at(P, fill)
        w_sum += sum(w for w, _ in filled)
    return p_sum, w_sum, (above, fill), (cut, tied)


def _critical_multiplier(
    pool: SmallSolver, budget_w: Fraction, cap: int, pa: int, wa: int
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
    if pool.equality:
        least, greatest = _extremes(pool.P)
        end = (greatest - least + 1, 1)
    else:
        end = pool.top_ratio
    pb, wb, *_ = pool.maximizer(cap, *end)
    while True:
        num, den = pa - pb, wa - wb
        pc, wc, *_ = pool.maximizer(cap, num, den)
        if den * pc - num * wc == den * pa - num * wa:
            g = math.gcd(num, den)
            return num // g, den // g
        if wc > budget_w:
            pa, wa = pc, wc
        else:
            pb, wb = pc, wc


def _vertex(pool: SmallSolver, budget_w: Fraction, cap: int, num: int, den: int):
    """Optimal LP vertex at the critical multiplier nu* = num/den > 0, built
    on the integer keys den*P - num*W of the greedy pass at nu*, which the
    multiplier search has left in the pool's cache.

    Units keyed above the entry threshold go in. The weight row is then
    made exactly tight with the units whose key ties it (the zero-key units
    when the selection stops short of the cap): full swaps first, then one
    final fractional swap, so at most two components are fractional.
    Returns (integral indices, fractional (index, x) pairs, primal sum of
    P*x, key sum G of a maximizer); den*primal equals num*budget_w + G
    exactly when primal and dual values agree.
    """
    P = pool.P
    bn, bd = budget_w.numerator, budget_w.denominator
    _, _, (above, _), (cut, tied) = pool.maximizer(cap, num, den)
    integral = above.tolist()
    p_above = _sum_at(P, above)
    used = _sum_at(pool.W, above)
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
    primal = p_above + _sum_at(P, integral[len(above):])
    primal += sum((int(P[i]) * x for i, x in fractional), ZERO)
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
    pool = SmallSolver.of(items, cap, equality)
    return _evaluation(pool, _solve_units(pool, Fraction(budget), int(cap)))


def _solve_units(pool: SmallSolver, budget: Fraction, cap: int):
    """solve_box_lp on a pool as a raw vertex (primal, integral, fractional,
    num, den): the value times lp, pool indices, and nu*, 0/1 on the fast
    path and None/None when nothing is taken; None if infeasible. Every
    answer off the fast path is certified: its primal value equals the dual
    value at nu*."""
    n = len(pool.P)
    if pool.equality:
        if budget < 0 or not 0 <= cap <= n or pool.lightest[cap] > budget * pool.lw:
            return None
    else:
        cap = max(0, min(cap, n))
    if cap == 0 or budget < 0:
        return 0, [], [], None, None

    budget_w = budget * pool.lw
    top_p, top_w, (above, fill), _ = pool.maximizer(cap, 0, 1)
    if top_w <= budget_w:
        return top_p, above.tolist() + fill, [], 0, 1

    num, den = _critical_multiplier(pool, budget_w, cap, top_p, top_w)
    integral, fractional, primal, g = _vertex(pool, budget_w, cap, num, den)
    assert den * primal == num * budget_w + g, f"primal != dual at nu*={num}/{den}"
    return primal, integral, fractional, num, den


def _rounding(W: np.ndarray, integral: list, fractional: list) -> list:
    """The exactly-K rounding of a vertex under sum x = cap, in pool indices:
    the integral part plus the lighter fractional unit, ties to the lower
    index. The two fractional parts sum to one, so the count is cap, and
    min(W_a, W_b) <= x_a*W_a + x_b*W_b keeps the weight row."""
    if not fractional:
        return integral
    assert len(fractional) == 2 and sum(x for _, x in fractional) == 1, fractional
    return integral + [min((i for i, _ in fractional), key=lambda i: (int(W[i]), i))]


def _evaluation(pool: SmallSolver, raw) -> Optional[SmallEval]:
    """The SmallEval of a raw vertex from _solve_units over the pool."""
    if raw is None:
        return None
    primal, integral, fractional, num, den = raw
    ids = pool.ids
    integral = sorted(integral)
    integral_ids = tuple(map(ids.__getitem__, integral))
    x = dict.fromkeys(integral_ids, ONE)
    x.update((ids[i], v) for i, v in fractional)
    if pool.equality:
        integral = _rounding(pool.W, integral, fractional)
    mu = None if num is None else Fraction(num * pool.lw, den * pool.lp)
    rounded_ids = tuple(map(ids.__getitem__, integral))
    return SmallEval(Fraction(primal, pool.lp), x, integral_ids, mu, rounded_ids)


def upsilon1(items, omega: Fraction, k: int) -> SmallEval:
    """Exact LP relaxation of the small-item knapsack: weight budget omega,
    cardinality cap k, box-relaxed variables. Vertex optimum, <= 2 fractional
    components."""
    return solve_box_lp(items, Fraction(omega), k)


def solver_for_partition(partition) -> SmallSolver:
    """SmallSolver for a partition; the combiner's entry point, which
    benchmark traces wrap to count pools."""
    return SmallSolver.from_partition(partition)
