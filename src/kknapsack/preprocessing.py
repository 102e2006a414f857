"""The candidates' integer view, optimum estimation and geometric
partitioning of items.

A solve reads its items once, into instance_model.item_columns, and builds
from those a CandidateView per call: one row per candidate in id order,
holding its id, P = profit*lp and W = weight*lw over the lcms lp and lw of
the denominators, int64 while n times the largest value stays below 2^62
and Python ints otherwise. The estimate, the partition, the small pool and
the answer's sums read it and name candidates by row; none of them
compares Fractions per item, and the estimate runs its LP on a
small_items.SmallSolver over them.

The pipeline never knows the true optimum; it works with the estimate
opt_estimate = 2 * half_approx_opt(inst).value, which brackets the optimum
from above within a factor of 2 (the same call returns the LP upper bound
on the optimum that certifies answers). Items are then split by profit
relative to the estimate: profits above eps*opt_estimate are "large" and
get rounded UP to the right endpoint of their geometric interval; profits
in [eps*opt_estimate/K, eps*opt_estimate] are "small" and get rounded DOWN
to a geometric point; profits below eps*opt_estimate/K are discarded in
at-most mode and become zero-profit fillers in exactly-K mode (either way
K of them are worth less than eps*opt_estimate). Small classes and the
fillers keep only their K lightest members -- some optimal solution
survives the pruning because equal-profit items are interchangeable and
lighter is never worse. Exactly-K mode first drops the items no feasible
K-set contains.

The partition's work follows the rows it keeps: at most K the rows below
the floor leave through one mask and never enter the sort, one np.sort of
packed int64 keys orders the rest, and every class and the fillers hold
their rows as np.intp slices of that order. Only a large class's prefix
sums become Python ints on every build. The partition records only the
rows it keeps; the discarded ids, every item outside them, are derived
from those rows and the item columns when something reads them, which no
solve does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Optional

import numpy as np

from .instance_model import ItemColumns, Instance, Mode, _extremes, candidate_rows
from .instance_model import item_columns, parse_rational, scaled_column
from .small_items import SmallSolver, _rounding, _solve_units


class TrivialInstanceError(ValueError):
    """Raised when no feasible selection has positive profit; the empty
    selection (exactly K: the K lightest) is optimal."""


@dataclass(frozen=True, eq=False)
class LargeClass:
    """Geometric profit class of large items.

    index i >= 1 covers original profits in
    (scale*growth^(i-1), scale*growth^i] where scale = eps*opt_estimate and
    growth = 1+eps; every member counts as
    rounded_profit = scale*growth^index. Reports and checks build that
    Fraction lazily; the fold snaps it onto its grid with one exact integer
    division instead (large_items.snap_class_profit). rows are the members'
    rows in the partition's CandidateView, an np.intp array sorted by weight
    ascending (ties by id), and prefix_weights[j] is the total weight of the
    j lightest members times weight_scale, an exact integer -- the only
    statistic the weight-table construction needs. weight_scale is the unit
    the prefixes count in: the lw of the partition's CandidateView, so the
    fold adds the view's integer weights W as they are.
    """

    index: int
    profit_scale: Fraction
    growth: Fraction
    rows: np.ndarray
    prefix_weights: tuple[int, ...]
    weight_scale: int

    @cached_property
    def rounded_profit(self) -> Fraction:
        return self.profit_scale * self.growth**self.index

    @property
    def size(self) -> int:
        return len(self.rows)


@dataclass(frozen=True, eq=False)
class SmallClass:
    """Geometric profit class of small items.

    index i >= 0 covers original profits in
    [scale*growth^(-i), scale*growth^(-i+1)) where scale = eps*opt_estimate
    and growth = 1+eps -- rounding DOWN: rounded_profit = scale*growth^(-index)
    is the grid point at or directly below every member's profit, so the
    loss per item is under eps/(1+eps) of its profit. It is built lazily,
    like LargeClass.rounded_profit; the small pool reads class indices
    instead. rows are the view rows of the class's K lightest members, an
    np.intp array by weight ascending, ties by id.
    """

    index: int
    profit_scale: Fraction
    growth: Fraction
    rows: np.ndarray

    @cached_property
    def rounded_profit(self) -> Fraction:
        return self.profit_scale * self.growth**-self.index

    @property
    def size(self) -> int:
        return len(self.rows)


@dataclass(frozen=True, eq=False)
class Partition:
    """Complete rounding/partitioning state for one solve.

    The partition records only the rows it keeps. kept_rows lists every row
    a class or the fillers keep, as one int array built on first read: the
    large classes', then the small classes', each by ascending index and in
    the class's own order, then the fillers'. The fillers are, in exactly-K
    mode (exactly_k), the K lightest items below the profit floor
    eps*opt_estimate/K, counted at profit 0; filler_rows holds their view
    rows (an np.intp array by weight ascending, ties by id; empty at most
    K). discarded holds the ids of every other item: those that are not
    candidates (see candidate_rows), are pruned, or lie below the floor. It
    is derived on first read as the ids of the view's item columns not
    among the kept rows' ids (ids are distinct in a valid instance), and
    nothing on the solve path reads it. lp_bound is the LP bound on OPT of
    the estimate the partition is built from; it stops the fold's profit
    grid (large_items.ProfitGrid.from_partition). cardinality is carried
    along because the small-item relaxations need K itself, not only
    z = min(K, ceil(1/eps)). view is the solve's CandidateView, whose rows
    every class and the fillers name. A partition and its classes compare
    by identity.
    """

    opt_estimate: Fraction
    lp_bound: Fraction
    epsilon: Fraction
    z: int
    cardinality: int
    large_classes: tuple[LargeClass, ...]
    small_classes: tuple[SmallClass, ...]
    view: CandidateView = field(repr=False)
    exactly_k: bool
    filler_rows: np.ndarray

    @cached_property
    def discarded(self) -> frozenset[int]:
        kept = self.view.ids[self.kept_rows].tolist()
        return frozenset(self.view.columns.ids.tolist()).difference(kept)

    @cached_property
    def kept_rows(self) -> np.ndarray:
        classes = self.large_classes + self.small_classes
        return np.concatenate([c.rows for c in classes] + [self.filler_rows])

    @property
    def small_item_count(self) -> int:
        return sum(c.size for c in self.small_classes)

    def summary(self) -> dict:
        """JSON-friendly digest (for the --dump-partition debug flag)."""

        def classes(group) -> list[dict]:
            return [
                {"index": c.index, "rounded_profit": str(c.rounded_profit), "size": c.size}
                for c in group
            ]

        return {
            "opt_estimate": str(self.opt_estimate),
            "epsilon": str(self.epsilon),
            "z": self.z,
            "large_classes": classes(self.large_classes),
            "small_classes": classes(self.small_classes),
            "discarded": sorted(self.discarded),
            "fillers": self.view.ids[self.filler_rows].tolist(),
        }


@dataclass(frozen=True, eq=False)
class CandidateView:
    """The integers of one solve's candidates (see candidate_rows), built
    once from the item columns and shared by the estimate, the partition,
    the small pool and the solution's sums.

    A row is the one handle on a candidate from here to the answer: the
    partition's classes, the small pool's units and retrieval all name
    candidates by row, and only the answer reads their ids. Rows ascend by
    id, so an order that breaks its ties by row breaks them by id. ids
    holds the candidates' own id objects (an object array). P = profit*lp
    and W = weight*lw, with lp and lw the lcms of the candidates' profit
    and weight denominators, are sum arrays (instance_model._sum_array): int64
    when n times the largest value stays below 2^62, so every sum a
    consumer forms fits, and Python ints otherwise. columns are the item
    columns the view was built from.
    """

    ids: np.ndarray
    P: np.ndarray
    W: np.ndarray
    lp: int
    lw: int
    columns: ItemColumns = field(repr=False)

    def totals(self, rows: np.ndarray) -> tuple[Fraction, Fraction]:
        """Exact total profit and weight of the candidates at these rows."""
        return Fraction(int(self.P[rows].sum()), self.lp), Fraction(int(self.W[rows].sum()), self.lw)


def candidate_view(inst: Instance, columns: Optional[ItemColumns] = None) -> CandidateView:
    """inst's CandidateView, built on every call from its item columns."""
    cols = item_columns(inst) if columns is None else columns
    rows = candidate_rows(inst, cols)
    rows = rows[np.argsort(cols.keys[rows])]  # ids are distinct in a valid instance
    P, lp = scaled_column(cols.pn[rows], cols.pd[rows])
    W, lw = scaled_column(cols.wn[rows], cols.wd[rows])
    return CandidateView(cols.ids[rows], P, W, lp, lw, cols)


@dataclass(frozen=True, eq=False)
class OptimumEstimate:
    """The estimate's two bounds on OPT (OPT over exactly-K sets in
    exactly-K mode): value <= OPT <= 2*value, and OPT <= lp_bound, the
    value of the LP relaxation whose rounding gave value. rounding holds
    the view rows of that rounding (None when not known)."""

    value: Fraction
    lp_bound: Fraction
    rounding: Optional[np.ndarray] = None


def half_approx_opt(inst: Instance, view: Optional[CandidateView] = None) -> OptimumEstimate:
    """inst's OptimumEstimate: v with v <= OPT <= 2v, the LP bound it comes
    from, and the rows of the LP's rounding.

    Solves the LP relaxation exactly (cardinality row sum x = K in exactly-K
    mode) on the integers of view (built here when not given), over the
    positive profits at most K and every candidate exactly K. Its vertex
    has at most two fractional components, and when it has two they sum to
    exactly one. Its rounding -- the integral part, plus in exactly-K mode
    the lighter fractional unit -- is feasible and loses at most one item's
    profit, so v = max(rounding, best_single) >= LP/2 >= OPT/2, and
    v <= OPT <= LP.
    """
    if view is None:
        view = candidate_view(inst)
    exactly_k = inst.mode is Mode.EXACT
    if exactly_k:  # the pool is every candidate
        rows, P, W = np.arange(len(view.P)), view.P, view.W
    else:
        rows = np.flatnonzero(view.P > 0)
        P, W = view.P[rows], view.W[rows]
    pool = SmallSolver(rows, P, W, view.lp, view.lw, inst.cardinality, exactly_k)
    primal, integral, fractional, _, _ = _solve_units(pool, inst.budget, inst.cardinality)
    if exactly_k:
        integral = _rounding(W, integral, fractional)
    value = max(int(P[integral].sum()), _extremes(view.P)[1])  # max(rounding, best_single)
    return OptimumEstimate(Fraction(value, view.lp), Fraction(primal, view.lp), rows[integral])


def build_partition(
    inst: Instance,
    eps: Fraction,
    estimate: Optional[OptimumEstimate] = None,
    view: Optional[CandidateView] = None,
) -> Partition:
    """Partition the instance's items into geometric profit classes. eps is
    read by parse_rational, so a float raises TypeError.

    Items no feasible selection contains (see candidate_rows) are
    discarded first; the optimum estimate is computed over what remains,
    unless the caller passes the one it already has, and so is the
    candidates' CandidateView.
    Every class holds its members' view rows by ascending weight, a large
    one with the prefix sums of their view weights W (unit lw); small
    classes, and in exactly-K mode the fillers, are pruned to their K
    lightest members.

    Classes are assigned on the view's integer profits P = p*lp. With
    S = eps*opt_estimate*lp and g = 1 + eps, large class i >= 1 is
    floor(S*g^(i-1)) < P <= floor(S*g^i) and small class j >= 0 is
    ceil(S*g^-j) <= P < ceil(S*g^(1-j)), so a profit on a boundary joins
    the class whose rounded profit it equals. Each boundary is one exact
    integer division, computed once per class as two walks from S multiply
    the numerator and denominator of S*g^(+-i) by those of g: up to the
    largest profit, and down to the floor. One searchsorted over the
    profits' dtype (int64 profits get int64 cuts: the cuts stop at the
    largest) places every item. One mask picks the rows that are sorted: at
    most K those at or above the floor (the rest are discarded), exactly K
    every row (the fillers are the floor rows' K lightest). They are
    ordered by (class, W, row) with one np.sort of packed int64 keys
    (_class_order; a stable lexsort on (class, W) where a key would pass
    63 bits). The view's rows ascend by id, so ties go by id. Every class
    and the fillers hold their run of that order as an np.intp slice, a
    small class and the fillers cut to the K lightest; only a large
    class's prefix sums become Python ints.
    The partition records only these kept rows; the rows no class keeps
    are never gathered, and discarded is derived from the kept rows on read.
    """
    eps = parse_rational(eps)
    if not (0 < eps < 1):
        raise ValueError(f"epsilon must be in (0,1), got {eps}")
    K = inst.cardinality
    exactly_k = inst.mode is Mode.EXACT

    if view is None:
        view = candidate_view(inst)
    if estimate is None:
        estimate = half_approx_opt(inst, view)
    opt_estimate = 2 * estimate.value
    if opt_estimate <= 0:
        raise TrivialInstanceError(
            "no feasible selection has positive profit; the empty solution is optimal"
        )

    large_floor = eps * opt_estimate  # profits above this are large
    growth = 1 + eps
    c, b = growth.numerator, growth.denominator
    P, W = view.P, view.W
    scale = large_floor * view.lp
    sn, sd = scale.numerator, scale.denominator
    floor_p = -(-sn // (sd * K))  # ceil(S/K): below it, discarded or filler
    top = _extremes(P)[1]
    num, den = sn, sd  # S*g^i
    large_bounds = [num // den]  # floor(S*g^i)
    while large_bounds[-1] < top:
        num, den = num * c, den * b
        large_bounds.append(num // den)
    num, den = sn, sd  # S*g^-j
    small_bounds = [-num // den]  # -ceil(S*g^-j) for j >= 0, negated to ascend
    while -small_bounds[-1] > floor_p:
        num, den = num * b, den * c
        small_bounds.append(-num // den)

    # Every class is an interval of P, so one ascending list of cut points
    # gives each profit its slot, the number of cuts at or below it: slot 0
    # lies below the floor, slot s in 1..smalls is small class smalls-s,
    # and slot s > smalls is large class s-smalls. The last small bound is
    # at or below the floor, which cuts in its place.
    smalls = len(small_bounds)
    cuts = [floor_p, *(-v for v in reversed(small_bounds[:-1])), *(v + 1 for v in large_bounds[:-1])]
    slot = np.searchsorted(np.array(cuts, dtype=P.dtype), P, side="right")
    # At most K every floor row is discarded, so the sort skips them;
    # exactly K the fillers are the floor rows' K lightest, so every row is sorted.
    live = np.flatnonzero((slot > 0) | exactly_k)
    order, slots = _class_order(slot[live], W[live])
    order = live[order]
    starts = np.flatnonzero(np.diff(slots, prepend=-1)).tolist()  # where each slot's run starts

    large_classes, small_classes = [], []
    fillers = order[:0]
    for s, a, z in zip(slots[starts].tolist(), starts, starts[1:] + [len(order)]):
        rows = order[a:z]
        if s > smalls:
            prefix = tuple(accumulate(W[rows].tolist(), initial=0))
            large_classes.append(LargeClass(s - smalls, large_floor, growth, rows, prefix, view.lw))
            continue
        rows = rows[:K]
        if s == 0:
            fillers = rows
        else:
            small_classes.append(SmallClass(smalls - s, large_floor, growth, rows))
    small_classes.reverse()  # slots ascend with profit, small indices descend

    partition = Partition(
        opt_estimate=opt_estimate,
        lp_bound=estimate.lp_bound,
        epsilon=eps,
        z=min(K, math.ceil(1 / eps)),
        cardinality=K,
        large_classes=tuple(large_classes),
        small_classes=tuple(small_classes),
        view=view,
        exactly_k=exactly_k,
        filler_rows=fillers,
    )
    return partition


def _class_order(slot: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions 0..n-1 sorted by (slot, W, position), and the slots in
    that order: the order of a stable lexsort on (slot, W), for slots and
    weights >= 0 (validation rejects negative weights). While they fit in
    63 bits, the three are packed into one int64 key per position,
    slot << (w + r) | W << r | position for w and r the bit lengths of the
    largest W and position, and one np.sort of the keys gives both. Object
    weights, or keys past 63 bits, take the lexsort."""
    n = len(slot)
    if n and W.dtype != object:
        r = (n - 1).bit_length()
        shift = int(W.max()).bit_length() + r
        if int(slot.max()).bit_length() + shift <= 63:
            keys = np.sort(slot << shift | W << r | np.arange(n))
            return keys & ((1 << r) - 1), keys >> shift
    order = np.lexsort((W, slot))
    return order, slot[order]
