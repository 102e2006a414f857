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
components are Fractions.

A greedy pass ranks the units by float64 keys with a proven error bound
(one np.partition, one mask, one product summing it) and keys exactly only
the band of units the bound cannot place. A SmallSolver holds one pool's
integers and passes: the estimate's, in id order, or a partition's small
pool, in the order of its class runs, whose pass at nu = 0 it reads off
the runs. One vertex builder serves both cardinality rows.

upsilon1 answers every query at every K. When K > 1/eps the paper switches
to a ladder of relaxations over a light/heavy split of the pool; production
does not. The vertex has at most two fractional components and each small
item's profit is at most eps*opt_estimate, so dropping them loses at most
2*eps*opt_estimate -- tighter than the 4*eps*opt_estimate the ladder is
allowed. The ladder, and an entry point that solves the LP on an item
list, are kept in oracles.py as desk-scale references.

All arithmetic is exact. Ties everywhere are broken deterministically by
item id.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .instance_model import _extremes, _sum_array


# ---------------------------------------------------------------------------
# Exact box-LP engine: max p.x st w.x <= budget, 1.x <= cap (or = cap under
# the equality row), 0 <= x <= 1.
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

    ids labels the units: view rows in the estimate's pool and a
    partition's, item ids in oracles.solver_of's. They ascend, except in a
    partition's pool, which lists its units in run order (from_partition).
    Either way, units of equal key and equal W lie in ascending id order,
    so the index tie-breaks below break ties by id. The units are the
    positive-profit ones, or with equality every unit, zero-profit fillers
    included; then a query takes exactly k units and is None when no k
    units fit omega (the row sum x = cap over sum x <= cap). K caps every
    query's k.

    Unit i has P_i = p_i*lp and W_i = w_i*lw, with lw a common denominator
    of the weights and lp a positive rational that makes every profit
    integral: a common denominator of the profits, or one divided by a
    common factor of the scaled profits (see from_partition). In these
    units the adjusted profit p - mu*w is proportional to P - nu*W with
    nu = mu*lp/lw, so at nu = num/den every unit's greedy key den*P - num*W
    is an integer. P and W are sum arrays (see _sum_array): int64 when no
    sum of them can reach 2^62, Python ints otherwise, so selections sum
    exactly. The pool also keeps the rows (P, W) stacked, so that one take
    reads both at any units, and P/2^e and W/2^f in float64 (e, f the bit
    lengths of max P and max W) for float_keys.

    The pool memoizes greedy passes and query vertices for its life: one
    estimate or one pipeline run, so the memo is bounded by that run's
    queries. A pass depends only on cap and on the value of nu, so it is
    keyed by cap and the reduced num/den; the split sweep's searches share
    passes, and the vertex at nu* reuses the search's last one. A vertex is
    keyed by (omega, k), so eval_detail on a split phi_dag answered solves
    nothing. passes and exact_keys count the passes and their exact keys.

    A partition's pool is built from runs (from_partition): P is
    np.repeat(values, counts) with values descending, so max P and the
    floats P/2^e come from one value per class, not from every unit. A run
    lists its units by ascending W, then view row, so the first c units are
    the pass at nu = 0's selection for cap c, and such a pool reads that
    pass (left_end) from prefix sums of its first K units instead of
    running it.
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
        self._min_w, max_w = _extremes(self.W)
        self._f = max_w.bit_length()
        self._wf = _over_power(self.W, self._f)
        self._pw = np.empty((2, len(self.P)), np.result_type(self.P, self.W))
        self._pw[0], self._pw[1] = self.P, self.W
        self._runs_sums = None
        if runs is None:
            self._pf = _over_power(self.P, self._e)
            return
        values, counts = runs
        self._pf = np.repeat(_over_power(np.array(values, object), self._e), counts)
        self._runs_sums = np.cumsum(self._pw[:, : self.K], 1)

    @classmethod
    def from_partition(cls, partition) -> "SmallSolver":
        """The pool of a partition's pruned small classes, plus its
        zero-profit fillers in exactly-K mode, labelled by their rows in the
        partition's candidate view and listed in run order: class by class,
        each class by ascending W and then view row, the fillers last, as
        the tail of the partition's kept_rows (the classes' and the fillers'
        np.intp arrays). The weights are the view's W, and the profits come
        from the class indices alone.

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
        with the fillers last, they are the pool's runs. Two units of equal
        key and equal W have equal P, so they share a class, where run order
        is view-row order and so id order."""
        view, classes = partition.view, partition.small_classes
        lp, profits = Fraction(1), []
        if classes:
            S, g = classes[0].profit_scale, classes[0].growth
            b, c = g.denominator, g.numerator
            jmin, jmax = classes[0].index, classes[-1].index  # indices ascend
            lp = g**jmax * b ** (jmax - jmin) / S
            profits = [b ** (j.index - jmin) * c ** (jmax - j.index) for j in classes]
        values = profits + [0]
        counts = [j.size for j in classes] + [len(partition.filler_rows)]
        kept = partition.kept_rows  # the small classes' and the fillers' rows come last
        rows = kept[len(kept) - sum(counts) :]
        P = np.repeat(_sum_array(np.array(values, object), count=len(rows)), counts)
        return cls(
            rows, P, view.W[rows], lp, view.lw,
            partition.cardinality, partition.exactly_k, runs=(values, counts),
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

    def left_end(self, cap: int):
        """(P sum, W sum, units) of the pass at nu = 0 for
        1 <= cap <= len(P): the selection of the cap largest P, lightest
        then lowest index first among ties, and the left end of the
        multiplier search's bracket. A partition's pool reads it from its
        runs, whose first cap units it is; any other pool runs the pass,
        which is memoized."""
        if self._runs_sums is None:
            found = self.maximizer(cap, 0, 1)
            return found[0], found[1], _selection(found, cap)
        p_sum, w_sum = self._runs_sums[:, cap - 1].tolist()
        return p_sum, w_sum, np.arange(cap)

    def top_scaled(self, k: int) -> Optional[int]:
        """The most k units of the pool give with the weight row dropped,
        in P units (times lp): the sum of the k largest P, the value of
        phi_dag's fast-path pass. It bounds phi_dag(omega, k) from above at
        every omega. None when exactly k units are more than the pool holds
        (exactly-K mode)."""
        k, n = self._clamp(k), len(self.P)
        if self.equality and k > n:
            return None
        k = min(k, n)
        return self.left_end(k)[0] if k else 0

    def phi_dag(self, omega: Fraction, k: int) -> Optional[Fraction]:
        """Approximation value for residual budget omega, cardinality k;
        None when exactly k units cannot fit omega (exactly-K mode only)."""
        raw = self._query(omega, k)
        return None if raw is None else Fraction(raw[0], self.lp)

    def eval_detail(self, omega: Fraction, k: int) -> Optional[np.ndarray]:
        """The labels (ids) of the selection retrieval takes at this query:
        the LP vertex's integral units, plus under the row sum x = k the
        lighter fractional unit (_rounding), a feasible selection. None
        where phi_dag is None."""
        raw = self._query(omega, k)
        if raw is None:
            return None
        _, integral, fractional, _, _ = raw
        return self.ids[_rounding(self.W, integral, fractional) if self.equality else integral]

    def _clamp(self, k: int) -> int:
        return max(0, min(int(k), self.K))

    def _query(self, omega: Fraction, k: int):
        """_solve_units at omega, with k clamped to [0, K], memoized by
        both; a negative omega raises ValueError."""
        omega, k = Fraction(omega), self._clamp(k)
        if omega.numerator < 0:
            raise ValueError("negative residual budget")
        key = omega.numerator, omega.denominator, k  # ints hash faster
        if key not in self._vertices:
            self._vertices[key] = _solve_units(self, omega, k)
        return self._vertices[key]


def _over_power(values: np.ndarray, bits: int) -> np.ndarray:
    """values / 2^bits in float64, each correctly rounded. On int64 the
    conversion is correctly rounded and dividing by a power of two is then
    exact (the quotients are at least 2^-63, far above the subnormals);
    Python's int true division rounds correctly, down to subnormals."""
    if values.dtype != object:
        return values.astype(np.float64) / float(1 << bits)
    d = 1 << bits
    return np.array([v / d for v in values.tolist()], dtype=np.float64)


def _kth(keys: np.ndarray, k: int) -> float:
    """The k-th smallest of keys (from 0), partitioning keys in place.
    np.partition would copy them again and costs about 2.5 us more a call
    on 2000 units, where a whole greedy pass takes about 18 us."""
    keys.partition(k)
    return keys.item(k)


def _lightest_maximizer(pool: SmallSolver, cap: int, num: int, den: int):
    """Lightest maximizer S of the inner Lagrangian problem at nu = num/den,
    1 <= cap <= len(pool.P): the top-cap units by key den*P - num*W (only
    positive keys under the inequality row), ties at the cap-th key going to
    the lighter unit and then to the lower index.

    Returns (P over S, W over S, above, cut, tied, P over above, W over
    above). Under the inequality row with at most cap positive keys, cut is
    None, above holds the positive-key units and tied the zero-key ones.
    Otherwise cut is the cap-th largest key (zero or negative only under the
    equality row), above holds the units keyed above it and tied those at
    it, of which S takes the first cap - |above|. tied holds sorted
    (W, index, P) triples; above is an index array.

    With E = KEY_ERROR, a float key below -E is negative, so the inequality
    row ranks only the units keyed at least -E. cf, the cap-th largest float
    key among the ranked, lies within E of the exact cap-th key c*, so keys
    above hi = cf + 2E are above c* and keys below lo = cf - 2E under it;
    the inequality row clips hi to at least E (keys above it are positive)
    and lo to at least -E. Fewer than cap units key above hi, and the band
    [lo, hi] holds every unit at c* and, when c* <= 0, every non-negative
    key not above hi. So the band's exact keys decide S. 15 numpy calls
    under the equality row and 14 under the inequality row (3 fewer with an
    empty band), and under the inequality row 3 more when more than cap
    keys may be positive, which the partition and a new band need.
    """
    pool.passes += 1
    kf = pool.float_keys(num, den)
    if pool.equality:
        cf = _kth(kf.copy(), len(kf) - cap)
        hi, lo = cf + 2 * KEY_ERROR, cf - 2 * KEY_ERROR
        ranked = kf >= lo
    else:
        hi, lo = KEY_ERROR, -KEY_ERROR
        ranked = kf >= lo  # the keys that may be >= 0
        rank = np.count_nonzero(ranked) - cap
        if rank > 0:  # else at most cap keys are positive: no cut
            cf = _kth(kf[ranked], rank)
            hi, lo = max(cf + 2 * KEY_ERROR, hi), max(cf - 2 * KEY_ERROR, lo)
            ranked = kf >= lo
    high = kf > hi
    above = high.nonzero()[0]
    band = (ranked ^ high).nonzero()[0]
    p_sum, w_sum = pool._pw.take(above, 1).sum(1).tolist()
    bp = bw = units = []
    if band.size:
        pool.exact_keys += band.size
        (bp, bw), units = pool._pw.take(band, 1).tolist(), band.tolist()
    keys = [den * p - num * w for p, w in zip(bp, bw)]
    need = cap - len(above)  # >= 1 after a partition: fewer than cap keys above hi
    cuts = keys if pool.equality else [key for key in keys if key > 0]
    cut = sorted(cuts, reverse=True)[need - 1] if 0 < need <= len(cuts) else None
    assert cut is not None or not pool.equality, "the equality row's cut is outside the band"
    level = 0 if cut is None else cut
    extra, tied = [], []
    for key, p, w, i in zip(keys, bp, bw, units):
        if key > level:
            extra.append(i)
            p_sum += p
            w_sum += w
        elif key == level:
            tied.append((w, i, p))
    tied.sort()
    if extra:
        above = np.concatenate((above, np.array(extra, np.intp)))
    p_above, w_above = p_sum, w_sum
    if cut is not None:
        for w, _, p in tied[: cap - len(above)]:
            p_sum += p
            w_sum += w
    return p_sum, w_sum, above, cut, tied, p_above, w_above


def _selection(found, cap: int) -> np.ndarray:
    """The indices of a pass's selection S: above, then the tied units S
    takes."""
    _, _, above, cut, tied, _, _ = found
    if cut is None:
        return above
    fill = [i for _, i, _ in tied[: cap - len(above)]]
    return np.concatenate((above, np.array(fill, dtype=np.intp)))


def _critical_multiplier(
    pool: SmallSolver, fits: int, cap: int, pa: int, wa: int, pb: int, wb: int
) -> tuple[int, int]:
    """nu* = num/den in lowest terms, the scaled image of
    mu* = min{mu >= 0 : wmin(mu) <= budget}, the leftmost minimizer of the
    convex dual L(mu) = mu*budget + g(mu), by bracketing line intersection.

    Every maximizer S of the inner problem gives a supporting line of L,
    P_S + nu*(budget_w - W_S) in the scaled units (budget_w = budget*lw);
    the lightest one gives the right derivative. A selection fits when its
    W is at most fits = floor(budget_w). The bracket [a, b] keeps
    wmin(a) > budget >= wmin(b), from the caller's sums (pa, wa) at a = 0
    and (pb, wb) at b = max P + 1. The lines at a and b cross at
    c = (P_a - P_b)/(W_a - W_b). If L(c) lies on the line
    at a, L is linear on [a, c] with negative slope and on [c, b] with
    slope >= 0, so c is mu*. Otherwise c replaces the end whose side of the
    budget it shares. Each replacement strictly raises the slope at a or
    lowers it at b, so the loop ends.
    """
    while True:
        num, den = pa - pb, wa - wb
        pc, wc, *_ = pool.maximizer(cap, num, den)
        if den * pc - num * wc == den * pa - num * wa:
            g = math.gcd(num, den)
            return num // g, den // g
        if wc > fits:
            pa, wa = pc, wc
        else:
            pb, wb = pc, wc


def _vertex(pool: SmallSolver, bn: int, bd: int, cap: int, num: int, den: int):
    """Optimal LP vertex at the critical multiplier nu* = num/den > 0, built
    on the integer keys den*P - num*W of the greedy pass at nu*, which the
    multiplier search has left in the pool's cache.

    Units keyed above the cut go in, and the fill = cap - |above| lightest
    units at the cut. The weight row is then made exactly tight by swapping
    the heaviest units at the cut for the lightest inside: full swaps
    first, then one final fractional swap, so at most two components are
    fractional. Under sum x <= cap with fewer than cap positive keys there
    is no cut: the fill unused slots are weightless, profitless slack units
    (index None, key 0) ahead of the zero-key units, so the swaps pad the
    weight row with zero-key units, which are free for the inner
    objective. Slack units never reach the returned rows. The tie order
    among equal weights: with slack, zero-key units go in heaviest first,
    the lower index first; with a cut, the higher index first (the pass's
    tied list reversed).
    The scaled budget is bn/bd. Returns (integral indices, fractional
    (index, x) pairs, primal sum of P*x, key sum G of a maximizer);
    den*primal equals num*bn/bd + G exactly when primal and dual values
    agree.
    """
    _, _, above, cut, tied, primal, used = pool.maximizer(cap, num, den)
    fill = cap - len(above)
    if cut is None:  # sorted anew: the pass memo's tied list is shared
        cut, tied = 0, [(0, None, 0)] * fill + sorted(tied, key=lambda t: (t[0], -t[1]))
    g = den * primal - num * used + fill * cut
    lightest, heaviest = tied[:fill], tied[fill:][::-1]
    used += sum(w for w, _, _ in lightest)
    assert bd * used <= bn, "lightest fill already over budget at mu*"
    swaps, fractional = 0, []  # full swaps, and the (unit, x) parts
    for unit_in, unit_out in zip(heaviest, lightest):
        if bd * used == bn:
            break
        delta = unit_in[0] - unit_out[0]
        if bd * (used + delta) <= bn:
            used += delta
            swaps += 1
        else:
            share, q = bn - bd * used, bd * delta  # x = share/q in, the rest out
            fractional = [(unit_in, Fraction(share, q)), (unit_out, Fraction(q - share, q))]
            break
    assert fractional or bd * used == bn, "cannot make weight row tight at mu*"
    taken = heaviest[:swaps] + lightest[swaps + bool(fractional):]
    primal += sum(p for _, _, p in taken)
    if fractional:  # one Fraction for the two parts, not four operations on them
        primal = Fraction(primal * q + unit_in[2] * share + unit_out[2] * (q - share), q)
    integral = np.array([i for _, i, _ in taken if i is not None], dtype=np.intp)
    fractional = [(unit[1], x) for unit, x in fractional if unit[1] is not None]
    return np.concatenate((above, integral)), fractional, primal, g


def _solve_units(pool: SmallSolver, budget: Fraction, cap: int):
    """Exact optimum of max P.x/lp st W.x <= budget*lw, sum x <= cap (with
    equality: = cap, None when no cap units fit), 0 <= x <= 1, over the pool,
    as a raw vertex (primal, integral, fractional, num, den): the value times
    lp, pool indices, and nu*, 0/1 on the fast path and None/None when
    nothing is taken.

    Fast path: if the pass at nu = 0 (SmallSolver.left_end, read the same
    way on every pool) fits, its selection is integral and optimal.
    Otherwise the weight row is tight, and that pass is the bracket's left
    end: the critical multiplier comes from _critical_multiplier and the
    vertex from _vertex, certified by primal value == dual value at nu*.

    The search's bracket starts at a = 0 and b = max P + 1. At b every unit
    with W >= 1 keys below every weightless one: under the inequality row
    only weightless units key positive, so with none the selection is empty
    and no pass runs; under the equality row the selection is the cap
    lightest, and decides whether any cap units fit.
    """
    n = len(pool.P)
    if pool.equality and (budget < 0 or not 0 <= cap <= n):
        return None
    cap = max(0, min(cap, n))
    if cap == 0 or budget < 0:
        return 0, np.arange(0), [], None, None

    bn, bd = budget.numerator * pool.lw, budget.denominator  # budget*lw = bn/bd
    fits = bn // bd  # the most W that fits
    top_p, top_w, units = pool.left_end(cap)
    if top_w <= fits:
        return top_p, units, [], 0, 1
    end_p = end_w = 0  # the inequality row's pass at b when no unit is weightless
    if pool.equality or not pool._min_w:
        end_p, end_w, *_ = pool.maximizer(cap, pool._max_p + 1, 1)
        if end_w > fits:
            return None
    num, den = _critical_multiplier(pool, fits, cap, top_p, top_w, end_p, end_w)
    integral, fractional, primal, g = _vertex(pool, bn, bd, cap, num, den)
    assert den * bd * primal == num * bn + g * bd, f"primal != dual at nu*={num}/{den}"
    return primal, integral, fractional, num, den


def _rounding(W: np.ndarray, integral: np.ndarray, fractional: list) -> np.ndarray:
    """The exactly-K rounding of a vertex under sum x = cap, in pool indices:
    the integral part plus the lighter fractional unit, never a tie (_vertex
    makes a swap fractional only when w_in > w_out). The parts sum to one, so
    the count is cap, and min(W_a, W_b) <= x_a*W_a + x_b*W_b keeps the budget."""
    if not fractional:
        return integral
    assert len(fractional) == 2 and fractional[0][1] + fractional[1][1] == 1, fractional
    return np.append(integral, min((i for i, _ in fractional), key=lambda i: int(W[i])))


def solver_for_partition(partition) -> SmallSolver:
    """SmallSolver for a partition; the combiner's entry point, which
    benchmark traces wrap to count pools."""
    return SmallSolver.from_partition(partition)
