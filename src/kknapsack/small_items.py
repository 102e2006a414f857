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
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .instance_model import _extremes, _sum_array, scaled_column

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

    fractional_solution maps a unit's label (SmallSolver.ids: an item id,
    or a view row) -> value in [0,1] (only nonzero entries); integral_ids
    are the labels at exactly 1; mu is the critical dual multiplier.
    rounded_ids, the selection retrieval takes, are the integral labels
    plus, under the row sum x = cap, the lighter fractional unit
    (_rounding); never compared, and None from the oracles.
    """

    value: Fraction
    fractional_solution: dict
    integral_ids: tuple[int, ...]
    mu: Optional[Fraction] = None
    rounded_ids: Optional[tuple[int, ...]] = field(default=None, compare=False)


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
    integers, and the passes its queries share. Each query is upsilon1 over
    the pool, phi_dag_S(omega, k) for a partition's small pool (rounded
    profits, original weights).

    ids labels the units in ascending order: an array of item ids, or of
    the view's rows, as in the estimate's pool and a partition's. The units
    are the positive-profit ones, or with equality every unit, zero-profit
    fillers included; then a query takes exactly k units and is None when
    no k units fit omega (the row sum x = cap over sum x <= cap). K caps
    every query's k.

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

    The pool memoizes greedy passes and query vertices for its life: one
    estimate or one pipeline run, so the memo is bounded by that run's
    queries. A pass depends only on cap and on the value of nu, so it is
    keyed by cap and the reduced num/den. Queries at many budgets, as in
    the combiner's split sweep, share the passes that their multiplier
    searches have in common, at every cap, and the vertex at nu* reuses the
    search's last pass. A vertex is keyed by (omega, k), so eval_detail on
    a split phi_dag answered solves nothing. passes and exact_keys count
    the greedy passes run and the units keyed exactly in them.

    A partition's pool is built from runs (from_partition): P is
    np.repeat(values, counts)[order] with values descending, so max P, the
    floats P/2^e and top_sums, where top_sums[c] is the greatest total P of
    c <= K units, come from one value per class, not from every unit.
    """

    ids: np.ndarray
    P: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)
    lp: Fraction
    lw: int
    K: int
    equality: bool = False
    passes: int = field(default=0, init=False)
    exact_keys: int = field(default=0, init=False)
    _passes: dict = field(default_factory=dict, init=False, repr=False)
    _vertices: dict = field(default_factory=dict, init=False, repr=False)
    runs: InitVar[Optional[tuple]] = None

    # Every pool is solved exactly; benchmark traces read this flag.
    exact = True

    def __post_init__(self, runs):
        self._max_p = _extremes(self.P)[1] if runs is None else runs[0][0]
        self._e = self._max_p.bit_length()
        self._f = _extremes(self.W)[1].bit_length()
        self._wf = _over_power(self.W, self._f)
        if runs is None:
            self._pf = _over_power(self.P, self._e)
            return
        values, counts, order = runs
        self._pf = np.repeat(_over_power(np.array(values, object), self._e), counts)[order]
        units = itertools.chain.from_iterable(map(itertools.repeat, values, counts))
        self.top_sums = list(itertools.accumulate(itertools.islice(units, self.K), initial=0))

    @classmethod
    def of(cls, items, K: int, exactly_k: bool = False) -> "SmallSolver":
        """The pool of arbitrary items or (id, profit, weight) triples."""
        units = [u for u in _units(items) if exactly_k or u[1] > 0]
        pn, pd, wn, wd = (
            np.array([getattr(u[k], f) for u in units], object)
            for k in (1, 2)
            for f in ("numerator", "denominator")
        )
        (P, lp), (W, lw) = scaled_column(pn, pd), scaled_column(wn, wd)
        return cls(np.array([u[0] for u in units], dtype=object), P, W, lp, lw, int(K), exactly_k)

    @classmethod
    def from_partition(cls, partition) -> "SmallSolver":
        """The pool of a partition's pruned small classes, plus its
        zero-profit fillers in exactly-K mode, labelled by their rows in the
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
        n = 2000, K = 1024. The classes ascend by index, so their P descend:
        with the fillers last, they are the pool's runs."""
        view, classes = partition.view, partition.small_classes
        lp, profits = Fraction(1), []
        if classes:
            S, g = classes[0].profit_scale, classes[0].growth
            b, c = g.denominator, g.numerator
            jmin, jmax = classes[0].index, classes[-1].index  # indices ascend
            lp = g**jmax * b ** (jmax - jmin) / S
            profits = [b ** (j.index - jmin) * c ** (jmax - j.index) for j in classes]
        groups = [j.rows for j in classes] + [partition.filler_rows]
        values, counts = profits + [0], [len(r) for r in groups]
        rows = np.fromiter(itertools.chain(*groups), np.intp, sum(counts))
        P = np.repeat(_sum_array(np.array(values, object), count=len(rows)), counts)
        order = np.argsort(rows)  # distinct view rows, which ascend by id
        rows = rows[order]
        return cls(
            rows, P[order], view.W[rows], lp, view.lw,
            partition.cardinality, partition.exactly_k, runs=(values, counts, order),
        )

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
        """_lightest_maximizer at nu = num/den, memoized by cap and the
        reduced num/den."""
        g = math.gcd(num, den)
        key = (cap, num // g, den // g)
        found = self._passes.get(key)
        if found is None:
            found = self._passes[key] = _lightest_maximizer(self, *key)
        return found

    def register_query_weights(self, weights) -> None:
        """Announce the splits the combiner's sweep enumerated, one entry
        each (their scaled table weights); the sweep then queries only the
        splits its bounds leave open. Nothing is precomputed from them; the
        call is where benchmark traces count the combiner's splits."""

    def top_scaled(self, k: int) -> Optional[int]:
        """The most k units of a partition's pool give with the weight row
        dropped, in P units (times lp): the sum of the k largest P, the
        value of phi_dag's fast-path pass. It bounds phi_dag(omega, k) from
        above at every omega. None when exactly k units are more than the
        pool holds (exactly-K mode)."""
        k = self._clamp(k)
        n = len(self.P)
        if self.equality and k > n:
            return None
        return self.top_sums[min(k, n)]

    def phi_dag(self, omega: Fraction, k: int) -> Optional[Fraction]:
        """Approximation value for residual budget omega, cardinality k;
        None when exactly k units cannot fit omega (exactly-K mode only)."""
        raw = self._query(omega, k)
        return None if raw is None else Fraction(raw[0], self.lp)

    def eval_detail(self, omega: Fraction, k: int) -> Optional[SmallEval]:
        """Full evaluation (with solution structure) for retrieval: the LP
        vertex, whose rounded_ids are a feasible selection. None where
        phi_dag is None."""
        return _evaluation(self, self._query(omega, k))

    def _clamp(self, k: int) -> int:
        return max(0, min(int(k), self.K))

    def _query(self, omega: Fraction, k: int):
        """_solve_units at omega, with k clamped to [0, K], memoized by
        both; a negative omega raises ValueError."""
        key = Fraction(omega), self._clamp(k)
        if key[0] < 0:
            raise ValueError("negative residual budget")
        if key not in self._vertices:
            self._vertices[key] = _solve_units(self, *key)
        return self._vertices[key]


def _sum_at(values: np.ndarray, idx) -> int:
    """The exact sum of values at the indices idx, a list or an array."""
    return int(values[idx].sum()) if len(idx) else 0


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
    pool: SmallSolver, budget_w: Fraction, cap: int, pa: int, wa: int, pb: int, wb: int
) -> tuple[int, int]:
    """nu* = num/den in lowest terms, the scaled image of
    mu* = min{mu >= 0 : wmin(mu) <= budget}, the leftmost minimizer of the
    convex dual L(mu) = mu*budget + g(mu), by bracketing line intersection.

    Every maximizer S of the inner problem gives a supporting line of L,
    P_S + nu*(budget_w - W_S) in the scaled units (budget_w = budget*lw);
    the lightest one gives the right derivative. The bracket [a, b] keeps
    wmin(a) > budget >= wmin(b). It starts from the sums (pa, wa) and
    (pb, wb) of the caller's passes at a = 0, over budget, and at
    b = max P + 1, within it. There every unit with W > 0, so W >= 1,
    keys below every weightless one: under the inequality row only
    weightless units keep a positive key, and under the equality row every
    lighter unit keys above every heavier one, so the selection is the cap
    lightest. The lines at a and b cross at c = (P_a - P_b)/(W_a - W_b).
    If L(c) lies on the line at a, L is linear on [a, c] with negative
    slope and on [c, b] with slope >= 0, so c is mu*. Otherwise c replaces
    the end whose side of the budget it shares. Each replacement strictly
    raises the slope at a or lowers it at b, so the loop ends.
    """
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
    p_sum, w_sum, (above, fill), (cut, tied) = pool.maximizer(cap, num, den)
    p_above = p_sum - _sum_at(P, fill)
    used = w_sum - sum(w for w, _ in tied[: len(fill)])
    g = den * p_above - num * used
    taken, fractional = [], []  # the units taken beyond above
    if cut is None:
        # Pad the weight up to the budget with zero-key units, which are
        # free for the inner objective, heaviest first.
        assert bd * used <= bn, "greedy selection exceeds budget at mu*"
        zeros = sorted(tied, key=lambda t: (-t[0], t[1]))
        for w, i in zeros[: cap - len(above)]:
            if bd * used == bn:
                break
            if bd * (used + w) <= bn:
                taken.append(i)
                used += w
            else:
                fractional.append((i, Fraction(bn - bd * used, bd * w)))
                break
        assert fractional or bd * used == bn, "cannot make weight row tight at mu*"
    else:
        # tied is sorted and shared with the cache: only read slices of it.
        fill = cap - len(above)
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
        taken += [i for _, i in heaviest[:swaps]]
        taken += [i for _, i in lightest[swaps + bool(fractional):]]
    primal = p_above + _sum_at(P, taken)
    primal += sum((int(P[i]) * x for i, x in fractional), ZERO)
    return np.concatenate((above, np.array(taken, dtype=np.intp))), fractional, primal, g


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
    if pool.equality and (budget < 0 or not 0 <= cap <= n):
        return None
    cap = max(0, min(cap, n))
    if cap == 0 or budget < 0:
        return 0, np.arange(0), [], None, None

    budget_w = budget * pool.lw
    top_p, top_w, (above, fill), _ = pool.maximizer(cap, 0, 1)
    if top_w <= budget_w:
        return top_p, np.concatenate((above, np.array(fill, dtype=np.intp))), [], 0, 1

    # The right end's pass weighs 0 under the inequality row; under the
    # equality row it is the cap lightest units (see _critical_multiplier).
    end_p, end_w, *_ = pool.maximizer(cap, pool._max_p + 1, 1)
    if end_w > budget_w:
        return None
    num, den = _critical_multiplier(pool, budget_w, cap, top_p, top_w, end_p, end_w)
    integral, fractional, primal, g = _vertex(pool, budget_w, cap, num, den)
    assert den * primal == num * budget_w + g, f"primal != dual at nu*={num}/{den}"
    return primal, integral, fractional, num, den


def _rounding(W: np.ndarray, integral: np.ndarray, fractional: list) -> np.ndarray:
    """The exactly-K rounding of a vertex under sum x = cap, in pool indices:
    the integral part plus the lighter fractional unit, never a tie (_vertex
    makes a swap fractional only when w_in > w_out). The parts sum to one, so
    the count is cap, and min(W_a, W_b) <= x_a*W_a + x_b*W_b keeps the budget."""
    if not fractional:
        return integral
    assert len(fractional) == 2 and sum(x for _, x in fractional) == 1, fractional
    return np.append(integral, min((i for i, _ in fractional), key=lambda i: int(W[i])))


def _evaluation(pool: SmallSolver, raw) -> Optional[SmallEval]:
    """The SmallEval of a raw vertex from _solve_units over the pool."""
    if raw is None:
        return None
    primal, integral, fractional, num, den = raw
    ids = pool.ids
    integral = np.sort(integral)
    integral_ids = tuple(ids[integral].tolist())
    x = dict.fromkeys(integral_ids, ONE)
    x.update(zip(ids[[i for i, _ in fractional]].tolist(), (v for _, v in fractional)))
    rounded = _rounding(pool.W, integral, fractional) if pool.equality else integral
    rounded_ids = integral_ids + tuple(ids[rounded[len(integral):]].tolist())
    mu = None if num is None else Fraction(num * pool.lw, den * pool.lp)
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
