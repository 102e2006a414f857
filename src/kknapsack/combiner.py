"""Top-level approximation solves, one pipeline for both cardinality modes.

Round and partition the items, fold the high-profit classes into a weight
table, then sweep the splits of the budget and cardinality between the
table side and the small-item relaxations -- table-side candidates are the
coarse anchor profits x (multiples of eps*opt_estimate) crossed with the
slot count k in 0..z; the small side answers the remaining budget and
slots, asked only for the splits whose upper bound can still win. The
winning split is materialised into actual item ids and reported with
profits recomputed exactly from the original instance.

Exactly-K mode ("pick exactly K") runs the same layers with exactly-k
semantics, read from the instance's mode: the estimate and partition keep
only items some feasible K-set contains and keep low-profit items as
zero-profit fillers, a table cell holds exactly k large items, a small
query takes exactly its k units (a split whose small side cannot is
skipped), and retrieval rounds the small vertex by adding the lighter of its
two fractional units. The error analysis is the at-most one; see the
README's accuracy contract.

A solve runs the pipeline at two internal accuracies at most: first at the
user's eps, kept only when the estimate's LP bound certifies the answer,
then at eps/8, the paper's scheme.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# InfeasibleInstanceError is re-exported for callers; evaluate_solution stays
# importable here because the benchmark's per-layer trace wraps it.
from .instance_model import (  # noqa: F401
    InfeasibleInstanceError,
    Instance,
    Mode,
    Solution,
    evaluate_solution,
    feasibility_violations,
    make_solution,
    validate_instance,
)
from .large_items import build_phi_L, retrieve_items
from .preprocessing import OptimumEstimate, build_partition, half_approx_opt
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
    """Solve and return (solution, diagnostics).

    The pipeline runs first at the coarse internal accuracy eps_user, and
    that answer stands only when the LP bound certifies it: value >=
    (1 - eps_user/2) * lp_bound >= (1 - eps_user/2) * OPT. Otherwise the
    same pipeline runs again at eps_user/8, the accuracy the paper's
    analysis needs for (1 - eps_user) * OPT, and its answer stands. The
    estimate, and with it the LP bound, is computed once for both levels.
    Diagnostics carry the level that answered (internal_eps), fell_back,
    lp_bound and certified_ratio = value / lp_bound, plus that level's
    partition, folded table and chosen split for debug dumps."""
    eps_user = Fraction(eps_user)
    if not 0 < eps_user < 1:
        raise ValueError(f"epsilon must be in (0,1), got {eps_user}")
    report = validate_instance(inst)
    if not report.ok:
        raise InvalidInstanceError("; ".join(report.errors))

    exactly_k = inst.mode is Mode.EXACT
    estimate = half_approx_opt(inst)
    lp_bound = estimate.lp_bound
    if estimate.value <= 0:
        # Every feasible selection is worth 0 (and so is the LP): take none,
        # or in exactly-K mode the K lightest, which fit (Instance.candidates
        # checked). The answer is optimal, certified_ratio 1.
        ids, details = (), {"trivial": True, "internal_eps": eps_user}
        if exactly_k:
            lightest = heapq.nsmallest(
                inst.cardinality, inst.candidates, key=lambda it: (it.weight, it.id)
            )
            ids = [it.id for it in lightest]
            details.update(exact_mode=True, rounds=[])
        details.update(fell_back=False, lp_bound=lp_bound, certified_ratio=Fraction(1))
        return make_solution(inst, ids, eps_user), details

    target = (1 - eps_user / 2) * lp_bound
    rounds = []
    for eps_int in (eps_user, eps_user / 8):
        sol, details = solve_at_accuracy(inst, eps_user, eps_int, estimate)
        rounds.append({"internal_eps": eps_int})
        if sol.total_profit >= target:
            break
    details.update(
        fell_back=len(rounds) > 1,
        lp_bound=lp_bound,
        certified_ratio=sol.total_profit / lp_bound,
    )
    if exactly_k:
        # Read by the benchmark's per-layer trace (exactk.rounds and
        # exactk.grid_m) until the solver reports its own trace.
        details.update(exact_mode=True, rounds=rounds, final={"grid_m": details["grid_m"]})
    return sol, details


def solve_at_accuracy(
    inst: Instance, eps_user: Fraction, eps_int: Fraction, estimate: OptimumEstimate
) -> tuple[Solution, dict]:
    """One run of the pipeline at internal accuracy eps_int on a validated,
    non-trivial instance (estimate.value > 0): partition, fold, split sweep
    and retrieval. At eps_int = eps_user/8 this is the paper's scheme and
    the answer is at least (1 - eps_user) * OPT; solve_with_details calls it
    at both of its levels.

    The sweep enumerates the splits (k, x) whose table cell fits the
    budget, keeping the largest anchor per table weight within each k, and
    answers with the first maximum of the full sweep in its order (k
    ascending, then anchors ascending). It searches best-first: each split
    is bounded by x*delta + top(K - k), where top(c) is the small side's
    value for c units with the weight row dropped, and only the splits
    whose bound can still beat the best total, or tie it from earlier in
    the sweep order, are asked of the small side."""
    partition = build_partition(inst, eps_int, estimate)
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
    # 1/(delta.denominator * lp): x*delta is x*step and top(c) is top*dd.
    lp, dd = small.scaled.lp, grid.delta.denominator
    step = grid.delta.numerator * lp
    anchors = np.array(grid.anchor_indices())
    fit = min(math.floor(inst.budget * table.weight_scale), table.inf - 1)
    enumerated = []  # the scaled table weight of every split
    heads = []  # (bound of the largest anchor, k, top(K - k), anchors, weights)
    for k in range(grid.z + 1):
        cells = table.values[anchors, k]
        idx = np.flatnonzero(cells <= fit)
        if not idx.size:
            continue
        keep = idx[np.append(cells[idx[1:]] != cells[idx[:-1]], True)]
        xs, weights = anchors[keep].tolist(), cells[keep].tolist()
        enumerated += weights
        top = small.top_scaled(K - k)
        if top is not None:  # exactly-K: else the pool has no K - k units
            heads.append((xs[-1] * step + top * dd, k, top * dd, xs, weights))
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
            total = x * step + sv * (lp * dd)
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

    large_ids = retrieve_items(table, x, k)
    small_detail = small.eval_detail(omega, K - k)
    small_ids = small_detail.integral_ids
    if partition.exactly_k:
        small_ids = small_detail.rounded_ids(lambda uid: inst.by_id[uid].weight)
    ids = frozenset(large_ids) | frozenset(small_ids)
    sol = make_solution(inst, ids, eps_user)
    violations = feasibility_violations(inst, sol.total_weight, sol.count)
    assert not violations, violations

    details = {
        "internal_eps": eps_int,
        "opt_estimate": partition.opt_estimate,
        "z": grid.z,
        "grid_m": grid.m,
        "table_cells": grid.cell_count,
        "split": split,
        "split_count": len(enumerated),
        "split_queries": queries,
        "partition": partition,
        "table": table,
        "large_ids": tuple(sorted(large_ids)),
        "small_ids": tuple(sorted(small_ids)),
        "small_pool": len(small.items),
        "small_passes": small.passes,
        "small_exact_keys": small.exact_keys,
    }
    return sol, details
