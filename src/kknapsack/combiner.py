"""Top-level approximation solves, one pipeline for both cardinality modes.

Round and partition the items, fold the high-profit classes into a weight
table, then sweep the splits of the budget and cardinality between the
table side and the small-item relaxations -- table-side candidates are the
coarse anchor profits x (multiples of eps*opt_estimate) crossed with the
slot count k in 0..z; the small side answers the remaining budget and
slots, asked only for the splits that no earlier split dominates (at most
K) and whose upper bound can still win. The winning split is materialised
into actual item ids and reported with profits recomputed exactly from the
original instance.

Exactly-K mode ("pick exactly K") runs the same layers with exactly-k
semantics, read from the instance's mode: the estimate and partition keep
only items some feasible K-set contains and keep low-profit items as
zero-profit fillers, a table cell holds exactly k large items, a small
query takes exactly its k units (a split whose small side cannot is
skipped), and retrieval rounds the small vertex by adding the lighter of its
two fractional units. The error analysis is the at-most one; see the
README's accuracy contract.

A solve climbs three rungs at most and stops at the first answer the
estimate's LP bound certifies: the pipeline at the user's eps, then the
estimate's LP rounding completed greedily, then the pipeline at eps/8, the
paper's scheme, whose answer stands without a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

# InfeasibleInstanceError is re-exported for callers; evaluate_solution and
# make_solution stay importable here because the benchmark's per-layer trace
# wraps them.
from .instance_model import (  # noqa: F401
    InfeasibleInstanceError,
    Instance,
    Mode,
    Solution,
    evaluate_solution,
    feasibility_violations,
    item_columns,
    make_solution,
    parse_rational,
    validate_instance,
)
from .large_items import build_phi_L, retrieve_items
from .preprocessing import CandidateView, OptimumEstimate, build_partition, candidate_view
from .preprocessing import half_approx_opt
from .small_items import solver_for_partition


class InvalidInstanceError(ValueError):
    """The instance failed structural validation."""


@dataclass(frozen=True)
class SplitCandidate:
    """One evaluated split of budget and slots between the two sides."""

    grid_index: int
    large_slots: int
    large_weight: Fraction
    small_budget: Fraction
    small_value: Fraction
    total: Fraction


def solve(inst: Instance, eps_user) -> Solution:
    sol, _ = solve_with_details(inst, eps_user)
    return sol


def solve_with_details(inst: Instance, eps_user) -> tuple[Solution, dict]:
    """Solve and return (solution, diagnostics). eps_user is read by
    parse_rational: a Fraction, int or string, and a float raises TypeError.

    An answer stands when the LP bound certifies it: value >=
    (1 - eps_user/2) * lp_bound >= (1 - eps_user/2) * OPT, which holds for
    any feasible selection. Three rungs are tried in turn, and the first
    answer so certified stands:
    - coarse: the pipeline at internal accuracy eps_user;
    - rounding: the estimate's LP rounding, in at-most mode completed
      greedily (see completed_rounding);
    - fine: the pipeline at eps_user/8, the accuracy the paper's analysis
      needs for (1 - eps_user) * OPT; its answer stands uncertified.
    The items are read once per call (item_columns) for validation and the
    CandidateView; the estimate and its LP bound once for all rungs.
    Diagnostics carry the rung that answered (answer: coarse, rounding or
    fine; trivial when every selection is worth 0), internal_eps (the
    accuracy of the last pipeline run: eps_user/8 when the fine rung
    answered, else eps_user), fell_back (the fine rung answered),
    opt_estimate, lp_bound and certified_ratio = value / lp_bound, plus,
    when a pipeline answered, that run's partition, folded table, chosen
    split and counters for debug dumps."""
    eps_user = parse_rational(eps_user)
    if not 0 < eps_user < 1:
        raise ValueError(f"epsilon must be in (0,1), got {eps_user}")
    columns = item_columns(inst)
    report = validate_instance(inst, columns)
    if not report.ok:
        raise InvalidInstanceError("; ".join(report.errors))

    exactly_k = inst.mode is Mode.EXACT
    view = candidate_view(inst, columns)
    estimate = half_approx_opt(inst, view)
    lp_bound = estimate.lp_bound
    if estimate.value <= 0:
        # Every feasible selection is worth 0 (and so is the LP), and the
        # estimate's rounding is optimal: empty at most K, and exactly K the
        # K lightest by (W, id), which fit (candidate_rows checked).
        # certified_ratio 1.
        details = {"answer": "trivial", "trivial": True, "internal_eps": eps_user}
        if exactly_k:
            details.update(exact_mode=True, rounds=[])
        details.update(fell_back=False, lp_bound=lp_bound, certified_ratio=Fraction(1))
        return _view_solution(inst, view, estimate.rounding, eps_user), details

    target = (1 - eps_user / 2) * lp_bound
    sol, details = solve_at_accuracy(inst, eps_user, eps_user, estimate, view)
    rounds = [{"internal_eps": eps_user}]
    answer = "coarse"
    if sol.total_profit < target:
        rows = completed_rounding(inst, view, estimate.rounding)
        sol, answer = _view_solution(inst, view, rows, eps_user), "rounding"
        details = {"internal_eps": eps_user, "opt_estimate": 2 * estimate.value}
        if sol.total_profit < target:
            sol, details = solve_at_accuracy(inst, eps_user, eps_user / 8, estimate, view)
            rounds.append({"internal_eps": eps_user / 8})
            answer = "fine"
    details.update(
        answer=answer,
        fell_back=answer == "fine",
        lp_bound=lp_bound,
        certified_ratio=sol.total_profit / lp_bound,
    )
    if exactly_k:
        # Read by the benchmark's per-layer trace (exactk.rounds and
        # exactk.grid_m) until the solver reports its own trace.
        details.update(exact_mode=True, rounds=rounds)
        if answer != "rounding":
            details["final"] = {"grid_m": details["grid_m"]}
    return sol, details


def completed_rounding(inst: Instance, view: CandidateView, rounding: np.ndarray) -> np.ndarray:
    """The view rows of a feasible selection built from the estimate's LP
    rounding (OptimumEstimate.rounding).

    In exactly-K mode the rounding itself: the integral part plus the
    lighter fractional unit, K units that fit. In at-most mode the integral
    part, which fits, completed greedily: the other positive-profit
    candidates in order of decreasing P (ties: lighter W, then lower row)
    each join while fewer than K are taken and their weight fits. Only the
    candidates that fit the initial room are sorted; the longest fitting
    prefix joins at once (a cumulative sum), then each step jumps to the
    next candidate that fits, until the least weight left (a suffix
    minimum) exceeds the room."""
    if inst.mode is Mode.EXACT:
        return rounding
    P, W = view.P, view.W
    room = math.floor(inst.budget * view.lw) - int(W[rounding].sum())
    if W.dtype != object:
        room = min(room, 1 << 62)  # every sum of an int64 W is below 2^62
    free = (P > 0) & (W <= room)
    free[rounding] = False
    rest = np.flatnonzero(free)
    rest = rest[np.lexsort((rest, W[rest], -P[rest]))]
    w = W[rest]
    slots = inst.cardinality - len(rounding)
    at = min(int(np.searchsorted(np.cumsum(w), room, "right")), slots)
    picked = [rounding, rest[:at]]
    room -= int(w[:at].sum())
    slots -= at
    least = np.minimum.accumulate(w[::-1])[::-1]  # least weight from each position on
    while slots and at < len(w) and least[at] <= room:
        at += int(np.argmax(w[at:] <= room))
        picked.append(rest[at : at + 1])
        room -= int(w[at])
        slots -= 1
        at += 1
    return np.concatenate(picked)


def _view_solution(inst: Instance, view: CandidateView, rows: np.ndarray, eps_user) -> Solution:
    """The Solution of the candidates at these view rows, with make_solution's
    exact sums read from the view's integers. The only place a solve reads
    its candidates' ids; the rows must be distinct and feasible."""
    ids = frozenset(view.ids[rows].tolist())
    assert len(ids) == len(rows), "a candidate is selected twice"
    profit, weight = view.totals(rows)
    sol = Solution(ids, profit, weight, len(rows), eps_user)
    violations = feasibility_violations(inst, sol.total_weight, sol.count)
    assert not violations, violations
    return sol


def solve_at_accuracy(
    inst: Instance,
    eps_user: Fraction,
    eps_int: Fraction,
    estimate: OptimumEstimate,
    view: Optional[CandidateView] = None,
) -> tuple[Solution, dict]:
    """One run of the pipeline at internal accuracy eps_int on a validated,
    non-trivial instance (estimate.value > 0): partition, fold, split sweep
    and retrieval, on the candidates' view (built here when not given).
    At eps_int = eps_user/8 this is the paper's scheme and
    the answer is at least (1 - eps_user) * OPT; solve_with_details calls it
    at both of its levels. Retrieval takes the winning split's view rows
    from the table's backpointers and from SmallSolver.eval_detail (the
    vertex phi_dag solved, rounded); the answer reads their ids once.

    The sweep enumerates the splits (k, x) whose table cell fits the
    budget, keeping the largest anchor per table weight within each k, and
    answers with the first maximum of the full sweep in its order (k
    ascending, then anchors ascending). At most K it then drops every split
    (k, x) of table weight w that a split (k', x') with k' < k, x' >= x and
    w' <= w dominates: that split is worth at least as much, since phi_dag
    cannot fall as its cap or budget rises, and comes earlier in the order.
    Exactly K a cell holds exactly k items and a query takes exactly its
    cap, so that monotonicity fails and no split is dropped this way. Of
    the splits left, it searches best-first: each split is bounded by
    x*delta + top(K - k), where top(c) is the small side's value for c
    units with the weight row dropped, and only the splits whose bound can
    still beat the best total, or tie it from earlier in the sweep order,
    are asked of the small side."""
    if view is None:
        view = candidate_view(inst)
    partition = build_partition(inst, eps_int, estimate, view)
    table = build_phi_L(partition)
    grid = table.grid
    small = solver_for_partition(partition)
    K = partition.cardinality

    # The fitting anchor cells of each k, read as one column. Within one k,
    # a split whose table weight recurs at a larger anchor asks the same
    # small query for less table profit, so only the largest anchor per
    # weight is kept; a dropped split is strictly below its group's best.
    # Columns are non-decreasing in q, so equal weights are adjacent.
    # Bounds and totals are exact integers (totals: rationals) in units of
    # 1/(delta.denominator * ln), with the pool's profits P/lp, lp = ln/ld:
    # x*delta is x*step and top(c) is top*ld*dd.
    ln, ld = small.lp.numerator, small.lp.denominator
    dd = grid.delta.denominator
    step = grid.delta.numerator * ln
    anchors = np.array(grid.anchor_indices())
    fit = min(math.floor(inst.budget * table.weight_scale), table.inf - 1)
    # Cross-k dominance, at most K only (see above): cover[i] is the least
    # weight at an anchor >= anchors[i] over the columns k' < k, and a split
    # is dominated when cover at its anchor is at most its own weight.
    cover = None
    if inst.mode is Mode.AT_MOST:
        cover = np.full(len(anchors), table.inf, table.values.dtype)
    enumerated = []  # the scaled table weight of every split
    dominated = 0
    heads = []  # (bound of the largest anchor, k, top(K - k), anchors, weights)
    for k in range(grid.z + 1):
        cells = table.values[anchors, k]
        idx = np.flatnonzero(cells <= fit)
        if not idx.size:
            continue
        keep = idx[np.append(cells[idx[1:]] != cells[idx[:-1]], True)]
        enumerated += cells[keep].tolist()
        if cover is not None:
            kept = keep[cover[keep] > cells[keep]]
            dominated += keep.size - kept.size
            cover = np.minimum(cover, np.minimum.accumulate(cells[::-1])[::-1])
            keep = kept
            if not keep.size:
                continue
        xs, weights = anchors[keep].tolist(), cells[keep].tolist()
        top = small.top_scaled(K - k)
        if top is not None:  # exactly-K: else the pool has no K - k units
            top *= ld * dd
            heads.append((xs[-1] * step + top, k, top, xs, weights))
    small.register_query_weights(enumerated)
    heads.sort(key=lambda h: (-h[0], h[1]))

    best = None  # (total in units, k, x, large weight, omega, small value)
    queries = 0
    for head, k, top, xs, weights in heads:
        if best is not None and head < best[0]:
            break  # every later k is bounded by its head, at most this one
        # Bounds fall with x, so the first split that cannot win ends its k.
        for x, w in zip(reversed(xs), reversed(weights)):
            bound = x * step + top
            if best is not None and (
                bound < best[0] or (bound == best[0] and (k, x) > best[1:3])
            ):
                break
            lw = Fraction(w, table.weight_scale)
            omega = inst.budget - lw
            sv = small.phi_dag(omega, K - k)
            queries += 1
            if sv is None:  # exactly-K: no K - k small units fit omega
                continue
            total = x * step + sv * (ln * dd)
            if (
                best is None
                or total > best[0]
                or (total == best[0] and (k, x) < best[1:3])
            ):
                best = (total, k, x, lw, omega, sv)
    # At most K, (k=0, x=0) is always feasible. Exactly K, so is (j, 0) for
    # the j large items among the K lightest: the fold keeps the j lightest
    # large items and the small pool the K - j lightest others, and
    # j <= z, since j > 1/eps large items would be worth more than
    # opt_estimate.
    assert best is not None
    _, k, x, lw, omega, sv = best
    split = SplitCandidate(
        grid_index=x,
        large_slots=k,
        large_weight=lw,
        small_budget=omega,
        small_value=sv,
        total=grid.profit_value(x) + sv,
    )

    large_rows = retrieve_items(table, x, k)
    small_rows = small.eval_detail(omega, K - k)
    rows = np.concatenate((np.array(large_rows, dtype=np.intp), small_rows))
    sol = _view_solution(inst, view, rows, eps_user)

    details = {
        "internal_eps": eps_int,
        "opt_estimate": partition.opt_estimate,
        "z": grid.z,
        "grid_m": grid.m,
        "table_cells": grid.cell_count,
        "split": split,
        "split_count": len(enumerated),
        "split_dominated": dominated,
        "split_queries": queries,
        "partition": partition,
        "table": table,
        "large_rows": tuple(sorted(large_rows)),
        "small_rows": tuple(np.sort(small_rows).tolist()),
        "small_pool": len(small.ids),
        "small_passes": small.passes,
        "small_exact_keys": small.exact_keys,
    }
    return sol, details
