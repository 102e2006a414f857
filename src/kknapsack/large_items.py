"""Weight tables over a discrete profit grid for high-profit items.

For items whose rounded profits exceed eps*opt_estimate the solver keeps a
table phi(q, k) = least total weight reaching grid profit at least q*delta
with at most k such items, q in 0..m, k in 0..z, delta = eps*opt_estimate/z.
Profit classes enter one at a time by a structured (min,+) convolution:
every member of a class carries the same snapped profit tau*delta and the
members are weight-sorted, so a cell only needs the best member COUNT theta,
and cells along a diagonal slice (step (tau, 1)) share structure:

    cost_zeta(theta) = prefix[theta] + g(zeta - theta)

with prefix the ascending weight prefix sums and g the accumulator read.
Because prefix has non-decreasing increments, the smallest argmin chi obeys
chi(z2) - chi(z1) <= z2 - z1 for z1 < z2 (it can only climb one row per
column, though it may drop arbitrarily), even through infeasible (infinite)
cells. A divide-and-conquer over columns exploits that: solve every other
column recursively, then pin each remaining column's argmin inside the
window its solved neighbours imply, for O((cols + thetas) log cols) cell
evaluations per slice instead of cols*thetas.

Tables come in two storage kinds with identical semantics: "exact"
(arbitrary-precision cells with a saturating infinity, the reference) and
"int64" (numpy arrays with a large sentinel, for all-integer instances).
The exact kind stores each weight as an integer numerator over one shared
weight_scale denominator (the lcm of the member weights' denominators), so
its cell arithmetic is exact integer addition and comparison -- the same
order, ties and retrievals as raw rationals, without rational-arithmetic
overhead; value_at converts back on read. The int64 kind adds a vectorised
convolution schedule; every schedule produces bit-identical values and
backpointers.

Storage is k-major: int64 values and all backpointers live in C-contiguous
(z+1, m+1) arrays, and the table exposes their transposes, so reads index
[q, k] while a cardinality column k is one contiguous row. Backpointers are
uint8 when z < 256 (a member count never exceeds z) and int32 otherwise.
Retrieval reads only backpointers, so build_phi_L releases each superseded
table's values once the next one exists: the stage chain holds the head
table plus one byte per cell per class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .preprocessing import LargeClass, Partition, geometric_floor
from .rationals import INF, ExtendedRational

ZERO = Fraction(0)

INT_INF = 1 << 62
# Total weights above this forbid the int64 kind: INT_INF plus any stored
# weight must stay below 2**63 for the saturating adds to be overflow-free.
INT_WEIGHT_LIMIT = 1 << 59

EXACT = "exact"
INT64 = "int64"


@dataclass(frozen=True)
class ProfitGrid:
    """Discrete profit axis: values q*delta for q in 0..m.

    z = min(K, ceil(1/eps)) caps the useful cardinality of high-profit items
    (any more would overshoot the optimum estimate); m = z*ceil(1/eps) makes
    the top grid point equal ceil(1/eps)*eps*opt_estimate >= opt_estimate,
    and puts every anchor profit i*eps*opt_estimate exactly on the grid at
    index i*z.
    """

    delta: Fraction
    z: int
    inv_eps: int

    def __post_init__(self):
        if self.z < 1 or self.inv_eps < 1 or self.delta <= 0:
            raise ValueError("grid requires z >= 1, inv_eps >= 1, delta > 0")

    @property
    def m(self) -> int:
        return self.z * self.inv_eps

    @classmethod
    def from_partition(cls, partition: Partition) -> "ProfitGrid":
        eps = partition.epsilon
        inv_eps = math.ceil(1 / eps)
        return cls(
            delta=eps * partition.opt_estimate / partition.z,
            z=partition.z,
            inv_eps=inv_eps,
        )

    def profit_value(self, q: int) -> Fraction:
        return q * self.delta

    def anchor_indices(self) -> list[int]:
        """Grid indices of 0 and the coarse anchors i*eps*opt_estimate."""
        return [0] + [i * self.z for i in range(1, self.inv_eps + 1)]

    @property
    def cell_count(self) -> int:
        return (self.m + 1) * (self.z + 1)


@dataclass
class Stage:
    """One convolution step, kept for solution retrieval. retrieve_items
    reads only prev's backptr and stage, so build_phi_L releases prev's
    values (and, on the stage-less root, its all-zero backptr)."""

    prev: "WeightTable"
    cls: LargeClass
    tau: int


class WeightTable:
    """phi(q, k) storage plus backpointers and the stage chain.

    Invariants (checked by check_table): row q=0 is all zeros; column k=0 is
    infinite for q >= 1; values are non-decreasing in q and non-increasing
    in k. backptr[q, k] is the member count the last convolved class
    contributes to cell (q, k); 0 everywhere on tables that never saw a
    class. Exact-kind cells hold integers scaled by weight_scale (or the INF
    singleton); int64-kind tables always have weight_scale 1.

    Tables built here store int64 values and all backpointers k-major (the
    attributes are .T views of (z+1, m+1) arrays, indexed [q, k]); int64
    tables of either layout are accepted as convolution input. values is None on
    a table build_phi_L has superseded, including one already handed to
    its observer.
    """

    __slots__ = ("grid", "kind", "values", "backptr", "stage", "weight_scale")

    def __init__(self, grid, kind, values, backptr=None, stage=None, weight_scale=1):
        if kind not in (EXACT, INT64):
            raise ValueError(f"unknown table kind {kind!r}")
        if kind == INT64 and weight_scale != 1:
            raise ValueError("the int64 kind requires weight_scale == 1")
        self.grid = grid
        self.kind = kind
        self.values = values
        self.backptr = backptr
        self.stage = stage
        self.weight_scale = weight_scale

    def value_at(self, q: int, k: int) -> ExtendedRational:
        if self.kind == INT64:
            v = int(self.values[q, k])
            return INF if v >= INT_INF else Fraction(v)
        v = self.values[q][k]
        return v if v is INF else Fraction(v, self.weight_scale)

    def is_finite(self, q: int, k: int) -> bool:
        if self.kind == INT64:
            return int(self.values[q, k]) < INT_INF
        return self.values[q][k] is not INF


def backptr_dtype(grid: ProfitGrid):
    """Narrowest dtype holding every member count 0..z."""
    return np.uint8 if grid.z < 256 else np.int32


def trivial_table(
    grid: ProfitGrid, kind: str = EXACT, weight_scale: int = 1
) -> WeightTable:
    """No classes folded yet: profit 0 is free, anything more impossible."""
    m, z = grid.m, grid.z
    if kind == INT64:
        values = np.full((z + 1, m + 1), INT_INF, dtype=np.int64)
        values[:, 0] = 0
        values = values.T
    else:
        values = [[0] * (z + 1)] + [[INF] * (z + 1) for _ in range(m)]
    backptr = np.zeros((z + 1, m + 1), dtype=backptr_dtype(grid)).T
    return WeightTable(grid, kind, values, backptr, stage=None, weight_scale=weight_scale)


def snap_class_profit(grid: ProfitGrid, cls: LargeClass) -> int:
    """Largest tau with tau*delta <= the class's rounded profit.

    Snapping a class profit down onto the grid loses under delta per item,
    i.e. under eps*opt_estimate/z total over any z items. Large profits
    strictly exceed eps*opt_estimate = z*delta, so tau >= z always. The
    floor of (profit_scale/delta) * growth^index is taken through certified
    brackets so the exact rounded profit (astronomically long at the indices
    profit-shifted instances produce) is never materialised.
    """
    tau = geometric_floor(cls.profit_scale / grid.delta, cls.growth, cls.index)
    assert tau >= grid.z, (tau, grid.z)
    return tau


def scale_for(classes) -> int:
    """Shared exact-kind denominator: lcm of all member weight denominators."""
    scale = 1
    for cls in classes:
        for it in cls.members:
            scale = math.lcm(scale, it.weight.denominator)
    return scale


def _scaled_prefix(cls: LargeClass, weight_scale: int) -> list[int]:
    """Member weight prefix sums as exact integers times weight_scale."""
    out = []
    for w in cls.prefix_weights:
        s = w * weight_scale
        assert s.denominator == 1, (w, weight_scale)
        out.append(s.numerator)
    return out


def base_table(
    grid: ProfitGrid,
    cls: LargeClass,
    kind: str = EXACT,
    weight_scale: Optional[int] = None,
) -> WeightTable:
    """Single-class table in closed form.

    Reaching grid profit q needs theta = ceil(q / tau) members (each worth
    tau grid units); the lightest choice is the first theta members, weight
    prefix_weights[theta]; infeasible if theta exceeds k or the class size.
    """
    tau = snap_class_profit(grid, cls)
    m, z = grid.m, grid.z
    if weight_scale is None:
        weight_scale = 1 if kind == INT64 else scale_for([cls])
    table = trivial_table(grid, kind, weight_scale)
    values, backptr = table.values, table.backptr
    if kind == INT64:
        prefix = [int(w) for w in cls.prefix_weights]
        if prefix[-1] >= INT_WEIGHT_LIMIT:
            raise ValueError("weights too large for the int64 table kind")
    else:
        prefix = _scaled_prefix(cls, weight_scale)
    for q in range(1, m + 1):
        theta = -(-q // tau)
        if theta > cls.size:
            continue
        for k in range(theta, z + 1):
            if kind == INT64:
                values[q, k] = prefix[theta]
            else:
                values[q][k] = prefix[theta]
            backptr[q, k] = theta
    table.stage = Stage(prev=trivial_table(grid, kind, weight_scale), cls=cls, tau=tau)
    return table


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


def _slice_evaluator(acc: WeightTable, cls: LargeClass, tau: int, q0: int, k0: int):
    """Column cost function for one slice: cost(zeta, theta) =
    prefix[theta] + acc(q0 + (zeta-theta)*tau, k0 + zeta - theta), with the
    first argument clamped to row 0 (profit already covered)."""
    if acc.kind == INT64:
        prefix = [int(w) for w in cls.prefix_weights]
        accv = acc.values

        def evaluate(zeta: int, theta: int) -> int:
            rho = q0 + (zeta - theta) * tau
            base = prefix[theta]
            if rho <= 0:
                return base
            v = base + int(accv[rho, k0 + zeta - theta])
            return v if v < INT_INF else INT_INF

    else:
        prefix = _scaled_prefix(cls, acc.weight_scale)
        accv = acc.values

        def evaluate(zeta: int, theta: int) -> ExtendedRational:
            rho = q0 + (zeta - theta) * tau
            base = prefix[theta]
            if rho <= 0:
                return base
            return base + accv[rho][k0 + zeta - theta]

    return evaluate


def _convolve_slices(acc: WeightTable, cls: LargeClass, tau: int, schedule: str):
    grid = acc.grid
    out = trivial_table(grid, acc.kind, acc.weight_scale)
    values, backptr = out.values, out.backptr
    size = cls.size
    for cells in enumerate_slices(grid, tau):
        q0, k0 = cells[0]
        evaluate = _slice_evaluator(acc, cls, tau, q0, k0)

        def theta_max(zeta: int) -> int:
            return min(k0 + zeta, size)

        if schedule == "dc":
            chi = slice_index(len(cells), theta_max, evaluate)
        else:  # exhaustive per-column scan, the in-module reference
            chi = []
            for zeta in range(len(cells)):
                best_t, best_v = 0, evaluate(zeta, 0)
                for t in range(1, theta_max(zeta) + 1):
                    v = evaluate(zeta, t)
                    if v < best_v:
                        best_v, best_t = v, t
                chi.append(best_t)
        for zeta, (q, k) in enumerate(cells):
            theta = chi[zeta]
            if acc.kind == INT64:
                values[q, k] = evaluate(zeta, theta)
            else:
                values[q][k] = evaluate(zeta, theta)
            backptr[q, k] = theta
    return values, backptr


def _convolve_vector(acc: WeightTable, cls: LargeClass, tau: int):
    """One numpy pass per member count theta over the k-major table.

    out[k, q] = min over theta of prefix[theta] + acc[k - theta, q - theta*tau]
    (profit index clamped at 0). Starting from the theta=0 candidate (acc
    itself), each pass compares in place with strict <, so the smallest
    theta wins ties, matching the scan schedules bit for bit. Columns
    q <= theta*tau read acc's zero row, i.e. the constant prefix[theta];
    the rest read acc shifted by (theta, theta*tau), cut off past acc's
    last finite profit row (column k=z is each row's minimum). No clamp is
    needed: INT_INF + prefix < 2**63 never beats a stored value <= INT_INF.
    """
    grid = acc.grid
    m, z = grid.m, grid.z
    prefix = [int(w) for w in cls.prefix_weights]
    if prefix[-1] >= INT_WEIGHT_LIMIT:
        raise ValueError("weights too large for the int64 table kind")
    src = np.ascontiguousarray(acc.values.T)
    best = src.copy()
    best_theta = np.zeros((z + 1, m + 1), dtype=backptr_dtype(grid))
    # acc's profit rows 1..last_finite hold every finite shifted read.
    last_finite = int(np.searchsorted(src[z], INT_INF)) - 1
    cand = np.empty((z, min(m, last_finite)), dtype=np.int64)
    less = np.empty((z, m), dtype=bool)

    def improve(theta: int, cols: slice, c) -> None:
        out, out_theta = best[theta:, cols], best_theta[theta:, cols]
        mask = less[: z + 1 - theta, : out.shape[1]]
        np.less(c, out, out=mask)
        np.copyto(out, c, where=mask)
        np.copyto(out_theta, theta, where=mask)

    for theta in range(1, min(cls.size, z) + 1):
        weight, shift = prefix[theta], theta * tau
        improve(theta, slice(1, min(shift, m) + 1), weight)
        width = min(m - shift, last_finite)
        if width > 0:
            c = cand[: z + 1 - theta, :width]
            np.add(src[: z + 1 - theta, 1 : width + 1], weight, out=c)
            improve(theta, slice(shift + 1, shift + 1 + width), c)
    return best.T, best_theta.T


def convolve(acc: WeightTable, cls: LargeClass, schedule: str = "auto") -> WeightTable:
    """Fold one profit class into the accumulator table."""
    tau = snap_class_profit(acc.grid, cls)
    if schedule == "auto":
        schedule = "vector" if acc.kind == INT64 else "dc"
    if schedule == "vector":
        if acc.kind != INT64:
            raise ValueError("the vector schedule requires the int64 kind")
        values, backptr = _convolve_vector(acc, cls, tau)
    elif schedule in ("dc", "scan"):
        values, backptr = _convolve_slices(acc, cls, tau, schedule)
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    return WeightTable(
        acc.grid, acc.kind, values, backptr, Stage(acc, cls, tau), acc.weight_scale
    )


def pick_kind(partition: Partition) -> str:
    """int64 when every large-item weight is a safe integer, else exact."""
    total = ZERO
    for cls in partition.large_classes:
        for it in cls.members:
            if it.weight.denominator != 1:
                return EXACT
            total += it.weight
    if total >= INT_WEIGHT_LIMIT:
        return EXACT
    return INT64


def build_phi_L(
    partition: Partition,
    kind: str = "auto",
    schedule: str = "auto",
    observer: Optional[Callable[[LargeClass, WeightTable], None]] = None,
) -> WeightTable:
    """Fold all large classes (ascending class index) into one table.

    Each superseded table is released once the next exists: its values go
    (retrieval reads only backpointers), and so does the stage-less root's
    all-zero backptr. The returned chain holds the head table plus one
    backpointer byte per cell per class (four when z >= 256). A table
    passed to observer loses its values when the next class is folded.
    """
    if kind == "auto":
        kind = pick_kind(partition)
    grid = ProfitGrid.from_partition(partition)
    scale = 1 if kind == INT64 else scale_for(partition.large_classes)
    acc = trivial_table(grid, kind, scale)
    for cls in partition.large_classes:
        prev, acc = acc, convolve(acc, cls, schedule=schedule)
        prev.values = None
        if prev.stage is None:
            prev.backptr = None
        if observer is not None:
            observer(cls, acc)
    return acc


def profit_at(table: WeightTable, budget: Fraction, k: int) -> int:
    """Largest grid index q with phi(q, k) <= budget (>= 0; row 0 is free).

    The column is non-decreasing in q, so this is a binary search. For the
    int64 kind a fractional budget floors first: integer weights fit under
    budget iff they fit under floor(budget).
    """
    grid = table.grid
    if not 0 <= k <= grid.z:
        raise ValueError(f"cardinality slot {k} outside 0..{grid.z}")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if table.kind == INT64:
        col = table.values[:, k]
        cap = math.floor(budget)
        if cap >= INT_INF:
            cap = INT_INF - 1
        return int(np.searchsorted(col, cap, side="right")) - 1
    # Scaled integer cell fits under the rational budget iff it is at most
    # floor(budget * weight_scale); INF compares greater than any integer.
    cap = math.floor(budget * table.weight_scale)
    col = [table.values[q][k] for q in range(grid.m + 1)]
    lo, hi = 0, grid.m
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if col[mid] <= cap:
            lo = mid
        else:
            hi = mid - 1
    return lo


def retrieve_items(table: WeightTable, q: int, k: int) -> tuple[int, ...]:
    """Item ids realising cell (q, k), by walking the stage chain.

    Only valid on finite cells. Each stage contributes the backpointer's
    count of its class's lightest members; the remaining profit debt drops
    by theta*tau (clamped at zero) and the cardinality slot by theta.
    """
    if not table.is_finite(q, k):
        raise ValueError(f"cell ({q}, {k}) is infeasible; nothing to retrieve")
    ids: list[int] = []
    t = table
    while t.stage is not None:
        stage = t.stage
        theta = int(t.backptr[q, k])
        ids.extend(it.id for it in stage.cls.members[:theta])
        q = max(0, q - theta * stage.tau)
        k -= theta
        t = stage.prev
    assert q == 0 and k >= 0, (q, k)
    return tuple(ids)


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


def large_pool_ids(partition: Partition) -> frozenset[int]:
    return frozenset(
        it.id for cls in partition.large_classes for it in cls.members
    )
