"""Independent reference implementations ("oracles") used only by tests.

Every oracle recomputes its answer with exact arithmetic, by a route other
than the production path it checks: the meet-in-the-middle search and the
count-indexed DP know nothing of rounding or grids; the generic table
convolution enumerates all profit and cardinality splits; the closed-form
single-class table and the subset enumeration build tables without
convolving; the LP enumerator visits every vertex shape of the two-row
relaxation, the multiplier enumerator binary-searches all of its pairwise
crossings, and lightest_maximizer_int keys every unit of one greedy pass
as a Python int; the column scanner and the paper's divide-and-conquer
slice search (enumerate_slices, slice_index) re-derive slice costs from
raw table reads; full_split_sweep asks the small solver it is given for
every fitting split, the sweep the combiner prunes by its bounds.

Four oracles reuse a production helper, and so do not check that helper:
- reference_partition reads the estimate through
  preprocessing.half_approx_opt;
- exhaustive_table starts from large_items.trivial_table;
- base_table uses large_items.snap_class_profit and trivial_table;
- upsilon4 solves its LP with solve_box_lp.

solve_box_lp and upsilon1 are not references but an adapter: they run
production's box-LP engine (small_items._solve_units) on a pool built from
an item list (solver_of), and report its vertex as a SmallEval. The tests
check that engine through them, against lp_vertex, critical_multiplier_enum
and the Lagrangian dual. profit_at reads the largest fitting grid index of
one table column, for the table tests and the convolution walkthrough.

reference_validate checks every item with Fraction comparisons, one at a
time; validate_instance must return the same report from its integer
checks. reference_candidates compares Fractions too, with a heap for the
K lightest; instance_model.candidate_rows must pick the same items from
its integer columns.

reference_partition classifies every item one at a time: geometric_index_up
searches its class index on its Fraction ratio to the class floor, by
doubling and then bisection over exact Fraction powers, and members are
sorted as Fractions. build_partition must return the same partition from
the integer class thresholds of its one walk over the powers.

The paper's small-side ladder for K > 1/eps also lives here (weight
rounding, WeightBuckets, upsilon2 through upsilon5), because production
answers every small-side query with upsilon1 instead. upsilon2_linear
checks the ladder's split search.
All guards here are hard errors -- an oracle silently falling back would
defeat its purpose.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .instance_model import (
    InfeasibleInstanceError,
    Instance,
    Item,
    Mode,
    ValidationReport,
    exact_sum,
)
from .instance_model import scaled_column
from .large_items import (
    INT_INF,
    INT_WEIGHT_LIMIT,
    ProfitGrid,
    Stage,
    WeightTable,
    snap_class_profit,
    trivial_table,
)
from . import preprocessing
from .preprocessing import LargeClass, Partition, SmallClass
from .small_items import SmallSolver, _rounding, _solve_units

ZERO = Fraction(0)
ONE = Fraction(1)

BRUTE_FORCE_LIMIT = 22
LP_VERTEX_LIMIT = 12
EXHAUSTIVE_TABLE_LIMIT = 14
COLUMN_SCAN_LIMIT = 10_000
DP_CELL_LIMIT = 50_000_000
DP_FALLBACK_OPS_LIMIT = 5_000_000

_NEG_INF = -(1 << 62)
# The generic convolution adds two possibly-infinite cells; sentinels are
# remapped below half of INT_INF so the sum can never overflow int64.
_SOFT_INF = 1 << 61


class OracleMethod(enum.Enum):
    BRUTE_FORCE = "brute_force"
    EXACT_DP = "exact_dp"
    LP_VERTEX = "lp_vertex"


@dataclass(frozen=True)
class OracleResult:
    """value is None when an exact-cardinality instance is infeasible.
    assignment (LP oracle only) maps item id -> x in [0, 1]."""

    value: Optional[Fraction]
    solution: Optional[frozenset[int]]
    method: OracleMethod
    assignment: Optional[Mapping[int, Fraction]] = None


# ---------------------------------------------------------------------------
# Meet-in-the-middle exhaustive search.
# ---------------------------------------------------------------------------

def _enumerate_half(items: Sequence) -> list[tuple[Fraction, Fraction, int, tuple[int, ...]]]:
    """(weight, profit, count, ids) of every subset of the given items."""
    subsets = [(ZERO, ZERO, 0, ())]
    for it in items:
        subsets += [
            (w + it.weight, p + it.profit, c + 1, ids + (it.id,))
            for (w, p, c, ids) in subsets
        ]
    return subsets


def brute_force(inst: Instance) -> OracleResult:
    """Exact optimum by meet-in-the-middle subset enumeration (n <= 22).

    Splits the items in half, tabulates one half per cardinality sorted by
    weight with running best-profit pointers, and scans the other half's
    subsets against it. Handles both the at-most and the exact cardinality
    modes with arbitrary rational data.
    """
    if inst.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute_force handles at most {BRUTE_FORCE_LIMIT} items, got {inst.n}")
    K = inst.cardinality
    half = inst.n // 2
    a_side = _enumerate_half(inst.items[:half])
    b_side = _enumerate_half(inst.items[half:])

    # bucket[c] = (weights ascending, best (profit, ids) among prefixes).
    buckets: dict[int, tuple[list[Fraction], list[tuple[Fraction, tuple[int, ...]]]]] = {}
    by_count: dict[int, list[tuple[Fraction, Fraction, tuple[int, ...]]]] = {}
    for w, p, c, ids in b_side:
        if c <= K and w <= inst.budget:
            by_count.setdefault(c, []).append((w, p, ids))
    for c, entries in by_count.items():
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        weights = [e[0] for e in entries]
        best: list[tuple[Fraction, tuple[int, ...]]] = []
        cur_p, cur_ids = None, None
        for w, p, ids in entries:
            if cur_p is None or p > cur_p:
                cur_p, cur_ids = p, ids
            best.append((cur_p, cur_ids))
        buckets[c] = (weights, best)

    best_value: Optional[Fraction] = None
    best_ids: tuple[int, ...] = ()
    exact = inst.mode is Mode.EXACT

    def consider(value: Fraction, ids: tuple[int, ...]) -> None:
        nonlocal best_value, best_ids
        if best_value is None or value > best_value:
            best_value, best_ids = value, ids

    for wa, pa, ca, ids_a in a_side:
        if ca > K or wa > inst.budget:
            continue
        remaining = inst.budget - wa
        counts = [K - ca] if exact else range(0, K - ca + 1)
        for cb in counts:
            bucket = buckets.get(cb)
            if bucket is None:
                continue
            weights, best = bucket
            pos = bisect_right(weights, remaining) - 1
            if pos < 0:
                continue
            pb, ids_b = best[pos]
            consider(pa + pb, ids_a + ids_b)

    if best_value is None:
        return OracleResult(value=None, solution=None, method=OracleMethod.BRUTE_FORCE)
    return OracleResult(
        value=best_value,
        solution=frozenset(best_ids),
        method=OracleMethod.BRUTE_FORCE,
    )


# ---------------------------------------------------------------------------
# Count-indexed dynamic program over integer weights.
# ---------------------------------------------------------------------------

def exact_dp(inst: Instance) -> OracleResult:
    """Exact optimum value by DP over (count, weight) states.

    Requires integer weights and budget -- a hard error otherwise. Integer
    profits run vectorised; rational profits fall back to a small pure-
    Python table. Value only (no solution ids): this oracle checks numbers,
    retrieval is checked elsewhere.
    """
    if inst.budget.denominator != 1 or any(it.weight.denominator != 1 for it in inst.items):
        raise ValueError("exact_dp requires an integer budget and integer weights")
    W = int(inst.budget)
    K = inst.cardinality
    if W < 0:
        raise ValueError("negative budget")
    if (K + 1) * (W + 1) > DP_CELL_LIMIT:
        raise ValueError(f"DP table would exceed {DP_CELL_LIMIT} cells")

    integral_profits = all(it.profit.denominator == 1 for it in inst.items)
    profit_mass = sum((abs(it.profit) for it in inst.items), ZERO)
    if integral_profits and profit_mass < (1 << 59):
        value = _dp_int(inst, W, K)
    else:
        value = _dp_fraction(inst, W, K)

    if inst.mode is Mode.EXACT and value is None:
        return OracleResult(value=None, solution=None, method=OracleMethod.EXACT_DP)
    return OracleResult(value=Fraction(value), solution=None, method=OracleMethod.EXACT_DP)


def _dp_int(inst: Instance, W: int, K: int):
    dp = np.full((K + 1, W + 1), _NEG_INF, dtype=np.int64)
    dp[0, :] = 0
    for it in inst.items:
        w = int(it.weight)
        p = int(it.profit)
        if w > W:
            continue
        for k in range(K, 0, -1):
            np.maximum(dp[k, w:], dp[k - 1, : W + 1 - w] + p, out=dp[k, w:])
    if inst.mode is Mode.EXACT:
        v = int(dp[K, W])
        return None if v < _NEG_INF // 2 else v
    return int(dp[: K + 1, W].max())


def _dp_fraction(inst: Instance, W: int, K: int):
    if inst.n * (K + 1) * (W + 1) > DP_FALLBACK_OPS_LIMIT:
        raise ValueError("rational-profit DP fallback is limited to small instances")
    dp: list[list[Optional[Fraction]]] = [[None] * (W + 1) for _ in range(K + 1)]
    dp[0] = [ZERO] * (W + 1)
    for it in inst.items:
        w = int(it.weight)
        p = it.profit
        if w > W:
            continue
        for k in range(K, 0, -1):
            row, prev = dp[k], dp[k - 1]
            for b in range(W, w - 1, -1):
                src = prev[b - w]
                if src is not None:
                    cand = src + p
                    if row[b] is None or cand > row[b]:
                        row[b] = cand
    if inst.mode is Mode.EXACT:
        return dp[K][W]
    finite = [row[W] for row in dp if row[W] is not None]
    return max(finite)


# ---------------------------------------------------------------------------
# The validation reference: Fraction comparisons, item by item.
# ---------------------------------------------------------------------------

def reference_validate(inst: Instance) -> ValidationReport:
    """The report validate_instance must return, checked item by item with
    Fraction comparisons: duplicate ids and negative values are errors,
    oversize items (w > W) warnings and removable."""
    errors: list[str] = []
    warnings: list[str] = []
    removable: set[int] = set()

    if inst.cardinality < 1:
        errors.append(f"cardinality must be >= 1, got {inst.cardinality}")
    if inst.budget < 0:
        errors.append(f"budget must be >= 0, got {inst.budget}")

    seen: set[int] = set()
    fitting = 0
    for it in inst.items:
        if it.id in seen:
            errors.append(f"duplicate item id {it.id}")
        seen.add(it.id)
        if it.profit < 0:
            errors.append(f"item {it.id}: negative profit {it.profit}")
        if it.weight < 0:
            errors.append(f"item {it.id}: negative weight {it.weight}")
        if it.weight > inst.budget:
            warnings.append(f"item {it.id}: weight exceeds budget (removable)")
            removable.add(it.id)
        else:
            fitting += 1

    if not inst.items:
        warnings.append("trivial instance: no items")
    if inst.mode is Mode.EXACT and fitting < inst.cardinality:
        warnings.append(
            f"exact mode: only {fitting} items fit individually, "
            f"fewer than K={inst.cardinality}; instance is infeasible"
        )

    return ValidationReport(tuple(errors), tuple(warnings), frozenset(removable))


def reference_candidates(inst: Instance) -> tuple[Item, ...]:
    """The items some feasible selection contains, in input order: those
    that fit, and in exactly-K mode fit beside the K-1 lightest others, i.e.
    weigh at most the budget minus the K-1 lightest. Raises
    InfeasibleInstanceError when no K items fit together."""
    fitting = _within(inst.items, inst.budget)
    if inst.mode is not Mode.EXACT:
        return tuple(fitting)
    K = inst.cardinality
    if len(fitting) < K:
        raise InfeasibleInstanceError(f"only {len(fitting)} items fit individually, need {K}")
    lightest = heapq.nsmallest(K, (it.weight for it in fitting))
    total = exact_sum(lightest)
    if total > inst.budget:
        raise InfeasibleInstanceError(f"the {K} lightest items weigh {total} > budget {inst.budget}")
    return tuple(_within(fitting, inst.budget - exact_sum(lightest[:-1])))


def _within(items, budget) -> list[Item]:
    """The items whose weight a/b is at most budget c/d: a*d <= c*b."""
    c, d = budget.numerator, budget.denominator
    return [it for it in items if (w := it.weight).numerator * d <= c * w.denominator]


# ---------------------------------------------------------------------------
# The partition reference: one index search per item, Fraction sorts.
# ---------------------------------------------------------------------------

def geometric_index_up(ratio: Fraction, eps: Fraction) -> int:
    """Smallest integer i >= 0 with (1+eps)^i >= ratio: doubling, then
    bisection, every probe an exact Fraction power."""
    growth = 1 + eps
    if ratio <= 1:
        return 0
    hi = 1
    while growth**hi < ratio:
        hi *= 2
    lo = hi // 2  # growth**lo < ratio: either lo = 0 or a failed probe
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if growth**mid >= ratio:
            hi = mid
        else:
            lo = mid
    return hi


def reference_partition(inst: Instance, eps: Fraction) -> Partition:
    """The partition build_partition must return, classified item by item:
    each profit's class index is geometric_index_up on its Fraction ratio
    to eps*opt_estimate, with no boundary computed in advance, and members
    are sorted by (weight, id) as Fractions. A member's row is the rank of
    its id among the sorted candidate ids, as in the candidate view, and
    every class and the fillers hold theirs in an np.intp array; the
    partition carries candidate_view(inst) to read its rows by, which takes
    no part in computing them. Large prefix sums count in the lcm of the
    candidates' weight denominators, taken here from the items themselves.
    The discarded ids are collected as one set, item by item, and must
    equal the partition's discarded, which it derives from the rows its
    classes and fillers keep. The estimate is read through
    preprocessing.half_approx_opt at call time, like build_partition."""
    eps = Fraction(eps)
    K = inst.cardinality
    exactly_k = inst.mode is Mode.EXACT
    candidates = reference_candidates(inst)
    opt_estimate = 2 * preprocessing.half_approx_opt(inst).value
    large_floor = eps * opt_estimate
    small_floor = large_floor / K
    growth = 1 + eps

    row_of = {uid: r for r, uid in enumerate(sorted(it.id for it in candidates))}
    discarded = {it.id for it in inst.items if it.id not in row_of}
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
            i = geometric_index_up(large_floor / p, eps)
            small_groups.setdefault(i, []).append(it)
        else:
            # Round up: smallest i >= 1 with p <= large_floor*(1+eps)^i.
            i = geometric_index_up(p / large_floor, eps)
            large_groups.setdefault(i, []).append(it)

    def lightest_first(members):
        return sorted(members, key=lambda t: (t.weight, t.id))

    def rows(members) -> np.ndarray:
        return np.array([row_of[it.id] for it in members], np.intp)

    fillers = lightest_first(fillers)[:K]
    discarded.difference_update(it.id for it in fillers)
    lw = math.lcm(*(it.weight.denominator for it in candidates))
    large_classes = []
    for i in sorted(large_groups):
        members = lightest_first(large_groups[i])
        prefix = [0]
        for it in members:
            prefix.append(prefix[-1] + int(it.weight * lw))
        large_classes.append(
            LargeClass(i, large_floor, growth, rows(members), tuple(prefix), lw)
        )
    small_classes = []
    for i in sorted(small_groups):
        members = lightest_first(small_groups[i])
        discarded.update(it.id for it in members[K:])
        small_classes.append(SmallClass(i, large_floor, growth, rows(members[:K])))
    partition = Partition(
        opt_estimate=opt_estimate,
        epsilon=eps,
        z=min(K, math.ceil(1 / eps)),
        cardinality=K,
        large_classes=tuple(large_classes),
        small_classes=tuple(small_classes),
        view=preprocessing.candidate_view(inst),
        exactly_k=exactly_k,
        filler_rows=rows(fillers),
    )
    assert partition.discarded == discarded, discarded ^ partition.discarded
    return partition


# ---------------------------------------------------------------------------
# Weight-table references: full (min,+) enumeration, subset enumeration,
# the closed-form single-class table and the structural invariants.
# ---------------------------------------------------------------------------

def naive_convolve(a: WeightTable, b: WeightTable) -> WeightTable:
    """out(q, k) = min over profit/cardinality splits of a + b, enumerating
    every split; values only (no backpointers). The reference against which
    the structured class convolution is compared bit for bit."""
    if a.grid != b.grid or a.weight_scale != b.weight_scale or a.inf != b.inf:
        raise ValueError("tables must share a grid, a weight scale and a sentinel")
    grid = a.grid
    m, z = grid.m, grid.z
    # int64 sums of two sentinels would overflow; object cells cannot.
    soft = _SOFT_INF if a.inf == INT_INF else a.inf
    av = np.minimum(a.values, soft)
    bv = np.minimum(b.values, soft)
    out = np.empty((m + 1, z + 1), dtype=av.dtype)
    qs = np.arange(m + 1)
    for q in range(m + 1):
        b_shift = bv[np.maximum(q - qs, 0)]  # row q1 -> b at residual
        for k in range(z + 1):
            cand = av[:, : k + 1] + b_shift[:, k::-1]
            out[q, k] = cand.min()
    out[out >= soft] = a.inf
    return WeightTable(grid, out, weight_scale=a.weight_scale, inf=a.inf)


def exhaustive_table(grid, items, exactly_k: bool = False) -> WeightTable:
    """Min-weight table over an arbitrary item set by subset enumeration
    (n <= 14): cell (q, k) gets the lightest subset with at most k items
    (exactly k when exactly_k) whose total profit reaches q*delta. Cells
    hold weights times the lcm of the items' weight denominators, and the
    sentinel follows the fold's rule (INT_INF while the scaled total stays
    below INT_WEIGHT_LIMIT, else object cells above the total). The unit
    may differ from the one build_phi_L folds in (the CandidateView's lw,
    which also counts the denominators of items outside the table), so
    compare tables by value_at."""
    items = list(items)
    if len(items) > EXHAUSTIVE_TABLE_LIMIT:
        raise ValueError(f"exhaustive_table handles at most {EXHAUSTIVE_TABLE_LIMIT} items")
    m, z = grid.m, grid.z
    weight_scale = 1
    for it in items:
        weight_scale = math.lcm(weight_scale, it.weight.denominator)
    total = sum((it.weight for it in items), ZERO) * weight_scale
    inf = INT_INF if total < INT_WEIGHT_LIMIT else int(total) + INT_INF
    out = trivial_table(grid, weight_scale, inf, exactly_k).values.copy()
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            profit = sum((it.profit for it in combo), ZERO)
            weight = sum((it.weight for it in combo), ZERO)
            count = len(combo)
            if count > z:
                continue
            q_top = min(int(profit / grid.delta), m)
            scaled = weight * weight_scale
            assert scaled.denominator == 1, (weight, weight_scale)
            scaled = scaled.numerator
            for q in range(q_top + 1):
                for k in range(count, count + 1 if exactly_k else z + 1):
                    if scaled < out[q, k]:
                        out[q, k] = scaled
    return WeightTable(grid, out, weight_scale=weight_scale, inf=inf)


def base_table(grid, cls, inf: int = INT_INF) -> WeightTable:
    """Single-class table in closed form, with backpointers and a stage, in
    the class's own weight unit.

    Reaching grid profit q needs theta = ceil(q / tau) members (each worth
    tau grid units); the lightest choice is the first theta members, weight
    prefix_weights[theta]; infeasible if theta exceeds k or the class size.
    """
    weight_scale = cls.weight_scale
    tau = snap_class_profit(grid, cls)
    m, z = grid.m, grid.z
    table = trivial_table(grid, weight_scale, inf)
    values, backptr = table.values, table.backptr
    prefix = cls.prefix_weights
    for q in range(1, m + 1):
        theta = -(-q // tau)
        if theta > cls.size:
            continue
        for k in range(theta, z + 1):
            values[q, k] = prefix[theta]
            backptr[q, k] = theta
    table.stage = Stage(prev=trivial_table(grid, weight_scale, inf), cls=cls, tau=tau)
    return table


def check_table(table: WeightTable, exactly_k: bool = False) -> None:
    """Assert the structural invariants; cheap enough for tests to call on
    every table they build. Both kinds: column k=0 is infinite for q >= 1
    and values are non-decreasing in q. At most k: row q=0 is all zeros and
    values are non-increasing in k. Exactly k: cell (0, 0) is 0, and
    nothing orders the columns."""
    grid = table.grid
    m, z = grid.m, grid.z
    # The integer cells, every infinite one read as the sentinel itself.
    cells = np.minimum(table.values, table.inf)
    for k in range(1 if exactly_k else z + 1):
        assert cells[0, k] == 0
    for q in range(1, m + 1):
        assert not table.is_finite(q, 0)
    for q in range(1, m + 1):
        for k in range(z + 1):
            v = cells[q, k]
            assert cells[q - 1, k] <= v
            if k and not exactly_k:
                assert v <= cells[q, k - 1]


# ---------------------------------------------------------------------------
# The combiner's split sweep without bounds.
# ---------------------------------------------------------------------------

def full_split_sweep(table: WeightTable, small, budget: Fraction, K: int):
    """Every split (k, x) whose table cell fits the budget, asked of the
    small solver in the sweep order, k ascending and then anchors
    ascending, with no bound and no weight dedup. Returns ((k, x), total)
    of the first maximum, total = x*delta + phi_dag(budget - phi(x, k),
    K - k), the number of splits whose total ties it, and the number of
    splits asked. Splits the small side cannot answer (None, exactly-K
    mode) are skipped."""
    grid = table.grid
    best = None
    ties = asked = 0
    for k in range(grid.z + 1):
        for x in grid.anchor_indices():
            if not table.is_finite(x, k) or table.value_at(x, k) > budget:
                continue
            asked += 1
            sv = small.phi_dag(budget - table.value_at(x, k), K - k)
            if sv is None:
                continue
            total = grid.profit_value(x) + sv
            if best is None or total > best[1]:
                best, ties = ((k, x), total), 1
            elif total == best[1]:
                ties += 1
    if best is None:
        raise AssertionError("no split of the sweep is feasible")
    return best[0], best[1], ties, asked


def profit_at(table: WeightTable, budget: Fraction, k: int) -> int:
    """Largest grid index q with phi(q, k) <= budget (>= 0; row 0 is free).

    The column is non-decreasing in q, so this is a binary search. A scaled
    integer cell fits under the rational budget iff it is at most
    floor(budget * weight_scale).
    """
    grid = table.grid
    if not 0 <= k <= grid.z:
        raise ValueError(f"cardinality slot {k} outside 0..{grid.z}")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    cap = min(math.floor(budget * table.weight_scale), table.inf - 1)
    return int(np.searchsorted(table.values[:, k], cap, side="right")) - 1


# ---------------------------------------------------------------------------
# The box LP on an item list: production's engine on a pool of its own.
# ---------------------------------------------------------------------------


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
    rounded_ids, the selection SmallSolver.eval_detail returns, are the
    integral labels plus, under the row sum x = cap, the lighter fractional
    unit (small_items._rounding); never compared, and None from upsilon4's
    empty case.
    """

    value: Fraction
    fractional_solution: dict
    integral_ids: tuple[int, ...]
    mu: Optional[Fraction] = None
    rounded_ids: Optional[tuple[int, ...]] = field(default=None, compare=False)


def solver_of(items, K: int, exactly_k: bool = False) -> SmallSolver:
    """The SmallSolver pool of arbitrary items or (id, profit, weight)
    triples, labelled by item id: every unit with equality, else the
    positive-profit ones."""
    units = [u for u in _units(items) if exactly_k or u[1] > 0]
    pn, pd, wn, wd = (
        np.array([getattr(u[k], f) for u in units], object)
        for k in (1, 2)
        for f in ("numerator", "denominator")
    )
    (P, lp), (W, lw) = scaled_column(pn, pd), scaled_column(wn, wd)
    return SmallSolver(np.array([u[0] for u in units], dtype=object), P, W, lp, lw, int(K), exactly_k)


def _evaluation(pool: SmallSolver, raw) -> Optional[SmallEval]:
    """The SmallEval of a raw vertex of small_items._solve_units over the
    pool: its labels, x values and mu = nu*lw/lp; None for None."""
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


def query_evaluation(pool: SmallSolver, omega: Fraction, k: int) -> Optional[SmallEval]:
    """The SmallEval of a pool's query (omega, k), read from the vertex the
    pool memoizes for phi_dag and eval_detail."""
    return _evaluation(pool, pool._query(omega, k))


def solve_box_lp(
    items, budget: Fraction, cap: int, *, equality: bool = False
) -> Optional[SmallEval]:
    """Exact optimum of max p.x st w.x <= budget, sum x <= cap, x in [0,1];
    with equality, sum x = cap over every unit, zero profits included, and
    None when no cap units fit the budget. Production's engine
    (small_items._solve_units) on a pool of the items of its own."""
    pool = solver_of(items, cap, equality)
    return _evaluation(pool, _solve_units(pool, Fraction(budget), int(cap)))


def upsilon1(items, omega: Fraction, k: int) -> SmallEval:
    """Exact LP relaxation of the small-item knapsack: weight budget omega,
    cardinality cap k, box-relaxed variables. Vertex optimum, <= 2 fractional
    components."""
    return solve_box_lp(items, Fraction(omega), k)


# ---------------------------------------------------------------------------
# Two-row LP by vertex enumeration.
# ---------------------------------------------------------------------------

def lp_vertex(
    items, budget: Fraction, cardinality: int, *, equality: bool = False
) -> OracleResult:
    """Exact optimum of max p.x st w.x <= budget, sum x <= cardinality (or
    sum x = cardinality with equality), 0 <= x <= 1, by enumerating every
    vertex shape (n <= 12). Under the equality row the value is None when
    no point is feasible.

    A vertex has at most two coordinates strictly inside their box. The
    enumeration covers: all-integral points; one fractional coordinate
    making the weight row tight (a fractional coordinate tightening only
    the cardinality row would have to be integral, so that shape is
    degenerate; under the equality row the coordinates sum to an integer,
    so the shape cannot occur); and two fractional coordinates with both
    rows tight (skipping equal weights, whose 2x2 system is singular and
    realised by other shapes).
    """
    entries = [(it.id, Fraction(it.profit), Fraction(it.weight)) for it in items]
    n = len(entries)
    if n > LP_VERTEX_LIMIT:
        raise ValueError(f"lp_vertex handles at most {LP_VERTEX_LIMIT} items, got {n}")
    if budget < 0 or cardinality < 0:
        raise ValueError("budget and cardinality must be non-negative")

    best_value: Optional[Fraction] = None
    best_x: dict[int, Fraction] = {}

    def consider(value: Fraction, x: dict[int, Fraction]) -> None:
        nonlocal best_value, best_x
        if best_value is None or value > best_value:
            best_value = value
            best_x = {i: v for i, v in x.items() if v != 0}

    ids = list(range(n))
    for mask_bits in itertools.product((0, 1), repeat=n):
        chosen = [i for i in ids if mask_bits[i]]
        w_sum = sum((entries[i][2] for i in chosen), ZERO)
        if w_sum > budget or len(chosen) > cardinality:
            continue
        if equality and len(chosen) != cardinality:
            continue
        p_sum = sum((entries[i][1] for i in chosen), ZERO)
        consider(p_sum, {entries[i][0]: Fraction(1) for i in chosen})

    for frac in ([] if equality else ids):
        fid, fp, fw = entries[frac]
        if fw == 0:
            continue
        others = [i for i in ids if i != frac]
        for mask_bits in itertools.product((0, 1), repeat=len(others)):
            chosen = [others[j] for j in range(len(others)) if mask_bits[j]]
            w_sum = sum((entries[i][2] for i in chosen), ZERO)
            x_f = (budget - w_sum) / fw
            if not 0 < x_f < 1:
                continue
            if len(chosen) + x_f > cardinality:
                continue
            p_sum = sum((entries[i][1] for i in chosen), ZERO) + fp * x_f
            x = {entries[i][0]: Fraction(1) for i in chosen}
            x[fid] = x_f
            consider(p_sum, x)

    for fa, fb in itertools.combinations(ids, 2):
        ida, pa, wa = entries[fa]
        idb, pb, wb = entries[fb]
        if wa == wb:
            continue
        others = [i for i in ids if i not in (fa, fb)]
        for mask_bits in itertools.product((0, 1), repeat=len(others)):
            chosen = [others[j] for j in range(len(others)) if mask_bits[j]]
            c = cardinality - len(chosen)
            if not 0 < c < 2:
                continue
            w_sum = sum((entries[i][2] for i in chosen), ZERO)
            b = budget - w_sum
            x_a = (b - wb * c) / (wa - wb)
            x_b = c - x_a
            if not (0 < x_a < 1 and 0 < x_b < 1):
                continue
            p_sum = sum((entries[i][1] for i in chosen), ZERO) + pa * x_a + pb * x_b
            x = {entries[i][0]: Fraction(1) for i in chosen}
            x[ida], x[idb] = x_a, x_b
            consider(p_sum, x)

    return OracleResult(
        value=best_value,
        solution=None,
        method=OracleMethod.LP_VERTEX,
        assignment=best_x,
    )


def _lightest_maximizer_weight(
    units, mu: Fraction, cap: int, equality: bool = False
) -> Fraction:
    """Weight of the lightest top-cap selection by adjusted profit
    p - mu*w (positive ones only, unless equality), recomputed in
    Fractions."""
    ranked = sorted((mu * w - p, w) for _, p, w in units if equality or p - mu * w > 0)
    return sum((w for _, w in ranked[:cap]), ZERO)


def lightest_maximizer_int(P, W, cap: int, num: int, den: int, equality: bool = False):
    """Reference for small_items._lightest_maximizer: the top-cap units by
    key den*P - num*W (positive keys only, unless equality), ties at the
    cap-th key going to the lighter unit and then to the lower index, with
    every key a Python int.

    Returns (sum of P over the selection, sum of W, sorted indices). P and
    W may be numpy arrays; their values are read as Python ints.
    """
    P, W = [int(p) for p in P], [int(w) for w in W]
    keys = [den * p - num * w for p, w in zip(P, W)]
    chosen = [i for i, key in enumerate(keys) if equality or key > 0]
    if len(chosen) > cap:
        cut = sorted((keys[i] for i in chosen), reverse=True)[cap - 1]
        tied = sorted((W[i], i) for i in chosen if keys[i] == cut)
        chosen = [i for i in chosen if keys[i] > cut]
        chosen += [i for _, i in tied[: cap - len(chosen)]]
    return sum(P[i] for i in chosen), sum(W[i] for i in chosen), sorted(chosen)


def critical_multiplier_enum(
    units, budget: Fraction, cap: int, equality: bool = False
) -> Fraction:
    """Smallest multiplier mu >= 0 whose lightest maximizer of the box LP's
    inner Lagrangian problem fits the budget, by binary search over every
    candidate breakpoint.

    units are (id, profit, weight) triples (with positive profits unless
    equality), and the lightest top-cap-by-profit selection must exceed the
    budget (a ValueError otherwise), while under the equality row the cap
    lightest units must fit it. The lightest-maximizer weight is
    non-increasing in mu (an exchange argument on the inner objective) and
    changes only where a unit's adjusted profit crosses zero (inequality
    row) or another unit's. Those are the positive profit/weight ratios and
    the positive pairwise crossings (p_i - p_j)/(w_i - w_j), all O(u^2) of
    them, so the first fitting candidate is the answer.
    """
    if _lightest_maximizer_weight(units, ZERO, cap, equality) <= budget:
        raise ValueError("the top-cap selection fits: no multiplier to search")
    cand = set()
    for i, (_, pi, wi) in enumerate(units):
        if wi > 0:
            cand.add(pi / wi)
        for _, pj, wj in units[i + 1:]:
            if wi != wj:
                r = (pi - pj) / (wi - wj)
                if r > 0:
                    cand.add(r)
    cand = sorted(cand)
    lo, hi = 0, len(cand) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _lightest_maximizer_weight(units, cand[mid], cap, equality) <= budget:
            hi = mid
        else:
            lo = mid + 1
    return cand[lo]


# ---------------------------------------------------------------------------
# Slice column minima: exhaustive scan and the paper's divide and conquer.
# ---------------------------------------------------------------------------

def column_scan(acc: WeightTable, cls, tau: int, cells) -> list[int]:
    """Smallest argmin of every column of one slice, by scanning every
    member count; re-derives the candidate costs from raw integer cells,
    each min(prefix + cell, acc.inf) so that infinite candidates all tie."""
    if len(cells) > COLUMN_SCAN_LIMIT:
        raise ValueError(f"column_scan is limited to {COLUMN_SCAN_LIMIT} columns")
    assert cls.weight_scale == acc.weight_scale, "class and table units differ"
    prefix = cls.prefix_weights
    out = []
    for q, k in cells:
        best_t = 0
        best_v = None
        for theta in range(0, min(k, cls.size) + 1):
            rest = int(acc.values[max(q - theta * tau, 0), k - theta])
            v = min(prefix[theta] + rest, acc.inf)
            if best_v is None or v < best_v:
                best_v, best_t = v, theta
        out.append(best_t)
    return out


def enumerate_slices(grid: ProfitGrid, tau: int) -> list[list[tuple[int, int]]]:
    """All diagonal slices of direction (tau, 1) covering q>=1 exactly once.

    Starts are the cells a backwards (-tau, -1) walk cannot leave: the k=0
    row (q0 in 1..m) and the cells with q0 <= tau whose predecessor would
    have q <= 0 (q0 in 1..min(tau, m), k0 in 1..z). Walking forward from
    each start until either axis overflows visits every cell with q in 1..m,
    k in 0..z exactly once.
    """
    m, z = grid.m, grid.z
    slices = []

    def walk(q0: int, k0: int) -> list[tuple[int, int]]:
        cells = []
        q, k = q0, k0
        while q <= m and k <= z:
            cells.append((q, k))
            q += tau
            k += 1
        return cells

    for q0 in range(1, m + 1):
        slices.append(walk(q0, 0))
    for q0 in range(1, min(tau, m) + 1):
        for k0 in range(1, z + 1):
            slices.append(walk(q0, k0))
    return slices


def slice_index(
    num_cols: int,
    theta_max: Callable[[int], int],
    evaluate: Callable[[int, int], object],
) -> list[int]:
    """Smallest argmin per column of a slice's candidate costs.

    Requires the one-sided slope property chi(c2) - chi(c1) <= c2 - c1 for
    c1 < c2 (chi = smallest argmin), which class convolution slices satisfy.
    Solves every other column recursively, then scans each skipped column c
    only inside [chi(right) - (right - c), chi(left) + (c - left)]: the
    slope property applied to both solved neighbours proves the window
    contains chi(c), and since chi(c) is the smallest GLOBAL argmin, no
    smaller in-window theta can tie it. Work per recursion level telescopes
    to O(num_cols + max theta).
    """

    chi = [0] * num_cols

    def scan(col: int, lo: int, hi: int) -> int:
        best_t = lo
        best_v = evaluate(col, lo)
        for t in range(lo + 1, hi + 1):
            v = evaluate(col, t)
            if v < best_v:
                best_v, best_t = v, t
        return best_t

    def solve(indices: list[int]) -> None:
        if not indices:
            return
        if len(indices) == 1:
            c = indices[0]
            chi[c] = scan(c, 0, theta_max(c))
            return
        solve(indices[0::2])
        for j in range(1, len(indices), 2):
            c = indices[j]
            left = indices[j - 1]
            hi = min(chi[left] + (c - left), theta_max(c))
            lo = 0
            if j + 1 < len(indices):
                right = indices[j + 1]
                lo = max(chi[right] - (right - c), 0)
            assert lo <= hi, (lo, hi, c)
            chi[c] = scan(c, lo, hi)

    solve(list(range(num_cols)))
    return chi


def slice_search(acc: WeightTable, cls, tau: int, cells) -> list[int]:
    """Smallest argmin of every column of one slice by slice_index, with
    candidate costs re-derived from raw table reads as in column_scan."""
    q0, k0 = cells[0]
    assert cls.weight_scale == acc.weight_scale, "class and table units differ"
    prefix = cls.prefix_weights

    def evaluate(zeta: int, theta: int):
        rho = q0 + (zeta - theta) * tau
        return min(prefix[theta] + int(acc.values[max(rho, 0), k0 + zeta - theta]), acc.inf)

    return slice_index(len(cells), lambda zeta: min(k0 + zeta, cls.size), evaluate)


# ---------------------------------------------------------------------------
# The paper's small-side ladder for K > 1/eps, which production replaces by
# upsilon1 at every K. Weight rounding and the typed heavy-side
# representation.
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

    This runs production's solve_box_lp on the rounded heavy units: it
    finds the exact critical multiplier and certifies the primal vertex
    against the dual value. The paper minimizes the dual over a
    precomputed breakpoint set instead; that route is not kept. What is
    checked here is the rounding and the cap k - ell: TestUpsilon4 and
    acceptance criterion C07 compare the value with lp_vertex on the
    rounded units.
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


def upsilon2_linear(items, buckets, omega: Fraction, k: int, eps: Fraction, K: int) -> tuple[Fraction, int]:
    """(best value, smallest best split) over every split count in 0..k,
    calling the same per-split evaluator the binary search in upsilon2
    uses -- this oracle checks the search, not the evaluator."""
    best_v: Optional[Fraction] = None
    best_ell = 0
    for ell in range(0, k + 1):
        v = upsilon5(items, buckets, omega, ell, k, eps, K)
        if best_v is None or v > best_v:
            best_v, best_ell = v, ell
    return best_v, best_ell
