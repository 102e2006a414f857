"""Independent reference implementations ("oracles") used only by tests.

Every oracle recomputes its answer from first principles with exact
arithmetic and deliberately shares no code with the production paths it
checks: the meet-in-the-middle search and the count-indexed DP know nothing
of rounding or grids; the generic table convolution enumerates all profit
and cardinality splits; the closed-form single-class table and the subset
enumeration build tables without convolving; the LP enumerator visits every
vertex shape of the two-row relaxation; the column scanner and the paper's
divide-and-conquer slice search (enumerate_slices, slice_index) re-derive
slice costs from raw table reads. All guards here are hard errors -- an
oracle silently falling back would defeat its purpose.
"""

from __future__ import annotations

import enum
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .instance_model import Instance, Mode
from .large_items import (
    INT_INF,
    INT_WEIGHT_LIMIT,
    ProfitGrid,
    Stage,
    WeightTable,
    snap_class_profit,
    trivial_table,
)

ZERO = Fraction(0)

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
    NAIVE_CONVOLVE = "naive_convolve"
    LP_VERTEX = "lp_vertex"
    LINEAR_SCAN = "linear_scan"


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


def exhaustive_table(grid, items) -> WeightTable:
    """Min-weight table over an arbitrary item set by subset enumeration
    (n <= 14): cell (q, k) gets the lightest subset with at most k items
    whose total profit reaches q*delta. Cells hold weights times the lcm of
    the items' weight denominators, and the sentinel follows the fold's rule
    (INT_INF while the scaled total stays below INT_WEIGHT_LIMIT, else
    object cells above the total): the format build_phi_L would choose for
    the same item set."""
    items = list(items)
    if len(items) > EXHAUSTIVE_TABLE_LIMIT:
        raise ValueError(f"exhaustive_table handles at most {EXHAUSTIVE_TABLE_LIMIT} items")
    m, z = grid.m, grid.z
    weight_scale = 1
    for it in items:
        weight_scale = math.lcm(weight_scale, it.weight.denominator)
    total = sum((it.weight for it in items), ZERO) * weight_scale
    inf = INT_INF if total < INT_WEIGHT_LIMIT else int(total) + INT_INF
    out = trivial_table(grid, weight_scale, inf).values.copy()
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
                for k in range(count, z + 1):
                    if scaled < out[q, k]:
                        out[q, k] = scaled
    return WeightTable(grid, out, weight_scale=weight_scale, inf=inf)


def base_table(
    grid, cls, weight_scale: int = 1, inf: int = INT_INF
) -> WeightTable:
    """Single-class table in closed form, with backpointers and a stage.

    Reaching grid profit q needs theta = ceil(q / tau) members (each worth
    tau grid units); the lightest choice is the first theta members, weight
    prefix_weights[theta]; infeasible if theta exceeds k or the class size.
    """
    tau = snap_class_profit(grid, cls)
    m, z = grid.m, grid.z
    table = trivial_table(grid, weight_scale, inf)
    values, backptr = table.values, table.backptr
    prefix = [w * weight_scale for w in cls.prefix_weights]
    assert all(w.denominator == 1 for w in prefix), (cls, weight_scale)
    for q in range(1, m + 1):
        theta = -(-q // tau)
        if theta > cls.size:
            continue
        for k in range(theta, z + 1):
            values[q, k] = prefix[theta].numerator
            backptr[q, k] = theta
    table.stage = Stage(prev=trivial_table(grid, weight_scale, inf), cls=cls, tau=tau)
    return table


def check_table(table: WeightTable) -> None:
    """Assert the structural invariants; cheap enough for tests to call on
    every table they build."""
    grid = table.grid
    m, z = grid.m, grid.z
    for k in range(z + 1):
        assert table.value_at(0, k) == ZERO
    for q in range(1, m + 1):
        assert not table.is_finite(q, 0)
    for q in range(1, m + 1):
        for k in range(z + 1):
            v = table.value_at(q, k)
            assert table.value_at(q - 1, k) <= v
            if k:
                assert v <= table.value_at(q, k - 1)


# ---------------------------------------------------------------------------
# Two-row LP by vertex enumeration.
# ---------------------------------------------------------------------------

def lp_vertex(items, budget: Fraction, cardinality: int) -> OracleResult:
    """Exact optimum of max p.x st w.x <= budget, sum x <= cardinality,
    0 <= x <= 1, by enumerating every vertex shape (n <= 12).

    A vertex has at most two coordinates strictly inside their box. The
    enumeration covers: all-integral points; one fractional coordinate
    making the weight row tight (a fractional coordinate tightening only
    the cardinality row would have to be integral, so that shape is
    degenerate); and two fractional coordinates with both rows tight
    (skipping equal weights, whose 2x2 system is singular and realised by
    other shapes).
    """
    entries = [(it.id, Fraction(it.profit), Fraction(it.weight)) for it in items]
    n = len(entries)
    if n > LP_VERTEX_LIMIT:
        raise ValueError(f"lp_vertex handles at most {LP_VERTEX_LIMIT} items, got {n}")
    if budget < 0 or cardinality < 0:
        raise ValueError("budget and cardinality must be non-negative")

    best_value = ZERO
    best_x: dict[int, Fraction] = {}

    def consider(value: Fraction, x: dict[int, Fraction]) -> None:
        nonlocal best_value, best_x
        if value > best_value:
            best_value = value
            best_x = {i: v for i, v in x.items() if v != 0}

    ids = list(range(n))
    for mask_bits in itertools.product((0, 1), repeat=n):
        chosen = [i for i in ids if mask_bits[i]]
        w_sum = sum((entries[i][2] for i in chosen), ZERO)
        if w_sum > budget or len(chosen) > cardinality:
            continue
        p_sum = sum((entries[i][1] for i in chosen), ZERO)
        consider(p_sum, {entries[i][0]: Fraction(1) for i in chosen})

    for frac in ids:
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


# ---------------------------------------------------------------------------
# Slice column minima: exhaustive scan and the paper's divide and conquer.
# ---------------------------------------------------------------------------

def column_scan(acc: WeightTable, cls, tau: int, cells) -> list[int]:
    """Smallest argmin of every column of one slice, by scanning every
    member count; re-derives the candidate costs from raw table reads."""
    if len(cells) > COLUMN_SCAN_LIMIT:
        raise ValueError(f"column_scan is limited to {COLUMN_SCAN_LIMIT} columns")
    prefix = cls.prefix_weights
    out = []
    for q, k in cells:
        best_t = 0
        best_v = None
        for theta in range(0, min(k, cls.size) + 1):
            rho = q - theta * tau
            rest = ZERO if rho <= 0 else acc.value_at(rho, k - theta)
            v = prefix[theta] + rest
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
    prefix = cls.prefix_weights

    def evaluate(zeta: int, theta: int):
        rho = q0 + (zeta - theta) * tau
        rest = ZERO if rho <= 0 else acc.value_at(rho, k0 + zeta - theta)
        return prefix[theta] + rest

    return slice_index(len(cells), lambda zeta: min(k0 + zeta, cls.size), evaluate)


# ---------------------------------------------------------------------------
# Linear-scan split search for the small-item bound.
# ---------------------------------------------------------------------------

def upsilon2_linear(items, buckets, omega: Fraction, k: int, eps: Fraction, K: int) -> tuple[Fraction, int]:
    """(best value, smallest best split) over every split count in 0..k,
    calling the same per-split evaluator the production binary search uses --
    this oracle checks the search, not the evaluator."""
    from .small_items import upsilon5

    best_v: Optional[Fraction] = None
    best_ell = 0
    for ell in range(0, k + 1):
        v = upsilon5(items, buckets, omega, ell, k, eps, K)
        if best_v is None or v > best_v:
            best_v, best_ell = v, ell
    return best_v, best_ell
