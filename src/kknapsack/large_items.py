"""Weight tables over a discrete profit grid for high-profit items.

For items whose rounded profits exceed eps*opt_estimate the solver keeps a
table phi(q, k) = least total weight reaching grid profit at least q*delta
with at most k such items (exactly k in exactly-K mode), q in 0..m,
k in 0..z, delta = eps*opt_estimate/z. The rows stop at the first coarse
anchor whose profit reaches the estimate's LP bound, at most
ceil(1/eps)*eps*opt_estimate: no cell above it can lead to an answer (see
ProfitGrid.from_partition). The two modes differ
only in the table the folds start from: at most k puts weight 0 at every
(0, k), exactly k only at (0, 0).
Profit classes enter one at a time by a structured (min,+) convolution:
every member of a class carries the same snapped profit tau*delta and the
members are weight-sorted, so a cell only needs the best member COUNT theta:

    out(q, k) = min over theta of prefix[theta] + acc(q - theta*tau, k - theta)

with prefix the ascending weight prefix sums and the profit index clamped
at 0. convolve makes one numpy pass per theta over the whole table; the
strict-< update keeps the smallest argmin theta, the same choice as the
paper's divide-and-conquer slice search (oracles.slice_index), which rests
on the slope property of the argmins along each diagonal slice.

Every table stores integer weights in one unit, its weight_scale: the
folded classes' LargeClass.weight_scale, which is the lw of the solve's
CandidateView (1 for integral instances). A class's prefix sums are the
view's integer weights W summed, so cell arithmetic is exact integer
addition and comparison from the view to the table, and value_at converts
back on read. The cell dtype is decided once per fold: int64 with the
sentinel INT_INF while the scaled total weight of the folded classes stays
below INT_WEIGHT_LIMIT, and otherwise numpy object cells holding
Python ints with a sentinel above that total. A cell is infinite (the
profit is unreachable) iff it holds at least the sentinel, which is the
tables' only infinity: value_at reads such a cell as None.

Storage is k-major: values and backpointers live in C-contiguous (z+1, m+1)
arrays, and the table exposes their transposes, so reads index [q, k] while
a cardinality column k is one contiguous row. Backpointers are uint8 when
z < 256 (a member count never exceeds z) and int32 otherwise. Retrieval
reads only backpointers, so build_phi_L releases each superseded table's
values once the next one exists: the stage chain holds the head table plus
one byte per cell per class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .preprocessing import LargeClass, Partition

INT_INF = 1 << 62
# Scaled total weights at or above this take object cells: INT_INF plus any
# stored weight must stay below 2**63 for int64 adds to be overflow-free.
INT_WEIGHT_LIMIT = 1 << 59


@dataclass(frozen=True)
class ProfitGrid:
    """Discrete profit axis: values q*delta for q in 0..m.

    z = min(K, ceil(1/eps)) caps the useful cardinality of high-profit items
    (any more would overshoot the optimum estimate). Every anchor profit
    i*eps*opt_estimate lies exactly on the grid at index i*z, and the rows
    stop at the top anchor: m = z*top_anchor, for top_anchor at most
    ceil(1/eps) (see from_partition).
    """

    delta: Fraction
    z: int
    top_anchor: int

    def __post_init__(self):
        if self.z < 1 or self.top_anchor < 1 or self.delta <= 0:
            raise ValueError("grid requires z >= 1, top_anchor >= 1, delta > 0")

    @property
    def m(self) -> int:
        return self.z * self.top_anchor

    @classmethod
    def from_partition(cls, partition: Partition) -> "ProfitGrid":
        """The grid of delta = eps*opt_estimate/z whose rows stop at the
        first anchor i*z with i*eps*opt_estimate >= lp_bound, and at
        i = ceil(1/eps) at most. No split above that anchor can answer:
        where its cell (q, k) fits the budget and, in exactly-K mode, its
        small side finds K - k units, those items form a feasible set,
        worth at most OPT <= lp_bound. A member of large class j is worth
        more than eps*opt_estimate*g^(j-1), g = 1+eps, and its snapped
        profit is at most eps*opt_estimate*g^j, so q*delta is below
        g*OPT = OPT + eps*OPT <= lp_bound + eps*opt_estimate (the estimate
        is at least OPT), the next anchor's profit. A fold writes row q
        only from rows at or below q, so every kept cell is the one an
        uncut grid would hold."""
        eps = partition.epsilon
        unit = eps * partition.opt_estimate  # the profit between anchors
        top = min(math.ceil(1 / eps), math.ceil(partition.lp_bound / unit))
        return cls(delta=unit / partition.z, z=partition.z, top_anchor=top)

    def profit_value(self, q: int) -> Fraction:
        return q * self.delta

    def anchor_indices(self) -> list[int]:
        """Grid indices of 0 and the coarse anchors i*eps*opt_estimate."""
        return [0] + [i * self.z for i in range(1, self.top_anchor + 1)]

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

    Invariants (checked by oracles.check_table): column k=0 is infinite for
    q >= 1 and values are non-decreasing in q. At most k: row q=0 is all
    zeros and values are non-increasing in k. Exactly k: cell (0, 0) is 0,
    and nothing orders the columns. Cells hold weights times weight_scale;
    a cell at or above inf is infinite. backptr[q, k] is the member count
    the last convolved class contributes to cell (q, k); 0 everywhere on
    tables that never saw a class.

    values and backptr are indexed [q, k]; tables built here expose them as
    .T views of k-major (z+1, m+1) arrays, and convolve accepts either
    layout. values is None on a table build_phi_L has superseded.
    """

    __slots__ = ("grid", "values", "backptr", "stage", "weight_scale", "inf")

    def __init__(
        self, grid, values, backptr=None, stage=None, weight_scale=1, inf=INT_INF
    ):
        self.grid = grid
        self.values = values
        self.backptr = backptr
        self.stage = stage
        self.weight_scale = weight_scale
        self.inf = inf

    def value_at(self, q: int, k: int) -> Optional[Fraction]:
        """The weight of cell (q, k) as an exact rational, None where the
        cell is infinite."""
        v = int(self.values[q, k])
        return None if v >= self.inf else Fraction(v, self.weight_scale)

    def is_finite(self, q: int, k: int) -> bool:
        return int(self.values[q, k]) < self.inf


def backptr_dtype(grid: ProfitGrid):
    """Narrowest dtype holding every member count 0..z."""
    return np.uint8 if grid.z < 256 else np.int32


def table_format(classes) -> tuple[int, int]:
    """(weight_scale, inf) of the table that folds these classes: their
    shared unit (1 when there are none), and int64 cells with INT_INF while
    their scaled total weight stays below INT_WEIGHT_LIMIT, else object
    cells with a sentinel above the total."""
    scale = classes[0].weight_scale if classes else 1
    total = sum(cls.prefix_weights[-1] for cls in classes)
    return scale, (INT_INF if total < INT_WEIGHT_LIMIT else total + INT_INF)


def trivial_table(
    grid: ProfitGrid,
    weight_scale: int = 1,
    inf: int = INT_INF,
    exactly_k: bool = False,
) -> WeightTable:
    """No classes folded yet: profit 0 is free with any number of slots, or
    with exactly zero items when exactly_k; anything more is impossible."""
    m, z = grid.m, grid.z
    values = np.full((z + 1, m + 1), inf, dtype=np.int64 if inf == INT_INF else object)
    values[: 1 if exactly_k else z + 1, 0] = 0
    backptr = np.zeros((z + 1, m + 1), dtype=backptr_dtype(grid))
    return WeightTable(grid, values.T, backptr.T, None, weight_scale, inf)


def snap_class_profit(grid: ProfitGrid, cls: LargeClass) -> int:
    """Largest tau with tau*delta <= the class's rounded profit.

    Snapping a class profit down onto the grid loses under delta per item,
    i.e. under eps*opt_estimate/z total over any z items. Large profits
    strictly exceed eps*opt_estimate = z*delta, so tau >= z always. tau is
    the floor of r * growth^index for r = profit_scale/delta, taken as one
    integer division of exact powers of growth's numerator and denominator,
    without building the rounded profit as a Fraction.
    """
    r, g = cls.profit_scale / grid.delta, cls.growth
    tau = r.numerator * g.numerator**cls.index // (r.denominator * g.denominator**cls.index)
    assert tau >= grid.z, (tau, grid.z)
    return tau


def convolve(acc: WeightTable, cls: LargeClass) -> WeightTable:
    """Fold one profit class into the accumulator table.

    One numpy pass per member count theta over the k-major table:
    out[k, q] = min over theta of prefix[theta] + acc[k - theta, q - theta*tau]
    (profit index clamped at 0). Starting from the theta=0 candidate (acc
    itself), each pass compares in place with strict <, so the smallest
    theta wins ties. Columns q <= theta*tau read acc's profit-0 cells,
    prefix[theta] + acc[k - theta, 0] (just prefix[theta] at most k); the
    rest read acc shifted by (theta, theta*tau), cut off past acc's last
    finite profit row, the largest over the columns k (exactly k tables
    have no column that is each row's minimum). No clamp is needed: the
    sentinel plus a prefix never beats a stored value, which is at most the
    sentinel, and for int64 cells INT_INF + prefix < 2**63.

    The passes run theta = 1..min(size, z), and on a table whose profit-0
    row is all zero (every at-most table) only up to t = ceil(m/tau): a
    count theta >= t shifts past the top row, so it offers just
    prefix[theta] at every cell it reaches, and a theta > t, reaching no
    cell that t misses, never beats t's prefix[t] <= prefix[theta] under
    the strict <. Exactly-k tables keep every theta.
    """
    grid = acc.grid
    m, z = grid.m, grid.z
    tau = snap_class_profit(grid, cls)
    assert cls.weight_scale == acc.weight_scale, (cls.weight_scale, acc.weight_scale)
    prefix = cls.prefix_weights
    src = np.ascontiguousarray(acc.values.T)
    if src.dtype == np.int64 and prefix[-1] >= INT_WEIGHT_LIMIT:
        raise ValueError("weights too large for int64 cells")
    best = src.copy()
    best_theta = np.zeros((z + 1, m + 1), dtype=backptr_dtype(grid))
    # acc's profit rows 1..last_finite hold every finite shifted read.
    last_finite = int(np.count_nonzero(src < acc.inf, axis=1).max()) - 1
    cand = np.empty((z, min(m, last_finite)), dtype=src.dtype)
    less = np.empty((z, m + 1), dtype=bool)

    def improve(theta: int, cols: slice, c) -> None:
        out, out_theta = best[theta:, cols], best_theta[theta:, cols]
        mask = less[: z + 1 - theta, : out.shape[1]]
        np.less(c, out, out=mask)
        np.copyto(out, c, where=mask)
        np.copyto(out_theta, theta, where=mask)

    counts = min(cls.size, z)
    if not np.count_nonzero(src[:, 0]):
        counts = min(counts, -(-m // tau))
    for theta in range(1, counts + 1):
        weight, shift = prefix[theta], theta * tau
        below = src[: z + 1 - theta, :1] + weight  # acc's profit-0 cells
        improve(theta, slice(0, min(shift, m) + 1), below)
        width = min(m - shift, last_finite)
        if width > 0:
            c = cand[: z + 1 - theta, :width]
            np.add(src[: z + 1 - theta, 1 : width + 1], weight, out=c)
            improve(theta, slice(shift + 1, shift + 1 + width), c)
    return WeightTable(
        grid, best.T, best_theta.T, Stage(acc, cls, tau), acc.weight_scale, acc.inf
    )


def build_phi_L(partition: Partition) -> WeightTable:
    """Fold all large classes (ascending class index) into one table.

    Each superseded table is released once the next exists: its values go
    (retrieval reads only backpointers), and so does the stage-less root's
    all-zero backptr. The returned chain holds the head table plus one
    backpointer byte per cell per class (four when z >= 256).
    """
    grid = ProfitGrid.from_partition(partition)
    acc = trivial_table(
        grid, *table_format(partition.large_classes), exactly_k=partition.exactly_k
    )
    for cls in partition.large_classes:
        prev, acc = acc, convolve(acc, cls)
        prev.values = None
        if prev.stage is None:
            prev.backptr = None
    return acc


def retrieve_items(table: WeightTable, q: int, k: int) -> tuple[int, ...]:
    """The candidate view rows realising cell (q, k), by walking the stage
    chain.

    Only valid on finite cells. Each stage contributes the backpointer's
    count of its class's lightest members, the head of the np.intp array
    LargeClass.rows read as ints; the remaining profit debt drops by
    theta*tau (clamped at zero) and the cardinality slot by theta.
    """
    if not table.is_finite(q, k):
        raise ValueError(f"cell ({q}, {k}) is infeasible; nothing to retrieve")
    rows: list[int] = []
    t = table
    while t.stage is not None:
        stage = t.stage
        theta = int(t.backptr[q, k])
        rows += stage.cls.rows[:theta].tolist()
        q = max(0, q - theta * stage.tau)
        k -= theta
        t = stage.prev
    assert q == 0 and k >= 0, (q, k)
    return tuple(rows)
