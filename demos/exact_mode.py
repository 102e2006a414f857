#!/usr/bin/env python3
"""Exactly-K selection: the same pipeline with exactly-k semantics.

Requiring exactly K items (not at most K) changes what a feasible selection
is, not how the solver works. It runs the at-most pipeline with four
differences:

- an item is kept only if it fits beside the K-1 lightest other items,
  since no feasible K-set contains any other;
- items below the profit floor are kept as zero-profit fillers, because a
  K-set may need them to fill its slots;
- a weight-table cell and a small-side LP take exactly k items;
- the small LP's vertex has no or two fractional parts, which sum to one,
  so retrieval adds the lighter of the two.

Like every solve, it first runs at internal accuracy eps and keeps that
answer only when it reaches (1 - eps/2) times the LP bound on OPT (here the
LP with the row sum x = K); otherwise it solves again at eps/8. The script
prints which level answered and the certified ratio value / LP.

This script runs one normal exactly-K solve, one where fillers must fill
the selection, one all-zero-profit solve and one infeasible instance, then
verifies each outcome against exhaustive enumeration.

Usage:
  python3 demos/exact_mode.py
"""

import itertools
from fractions import Fraction

from kknapsack import (
    InfeasibleInstanceError,
    Instance,
    Item,
    Mode,
    evaluate_solution,
    solve_with_details,
)


def exact_optimum(inst):
    """Best profit over subsets of exactly K items within budget, or None."""
    best = None
    for combo in itertools.combinations(inst.items, inst.cardinality):
        if sum((it.weight for it in combo), Fraction(0)) <= inst.budget:
            p = sum((it.profit for it in combo), Fraction(0))
            if best is None or p > best:
                best = p
    return best


def build(data, budget, k):
    return Instance(
        items=tuple(
            Item(id=i, profit=Fraction(p), weight=Fraction(w))
            for i, (p, w) in enumerate(data, start=1)
        ),
        budget=Fraction(budget),
        cardinality=k,
        mode=Mode.EXACT,
    )


def main() -> int:
    ok = True
    eps = Fraction(1, 4)

    print("=" * 64)
    print("1. regular exactly-3 instance")
    print("=" * 64)
    inst = build(
        [(60, 9), (44, 6), (31, 4), (20, 3), (12, 2), (5, 1), (1, 1)],
        budget=10,
        k=3,
    )
    sol, details = solve_with_details(inst, eps)
    report = evaluate_solution(inst, sol)
    part = details["partition"]
    print(f"selected {sorted(sol.selected)}: profit {sol.total_profit}, "
          f"weight {sol.total_weight}, count {sol.count}")
    print(f"feasible: {report.feasible}")
    print(f"answered at internal eps {details['internal_eps']} "
          f"(fell back to eps/8: {details['fell_back']}), "
          f"certified ratio value/LP = {float(details['certified_ratio']):.4f}")
    print(f"grid m = {details['grid_m']}, "
          f"large slots {details['split'].large_slots}, "
          f"small ids {part.view.ids[list(details['small_rows'])].tolist()}")
    print(f"discarded: {sorted(part.discarded)} (item 1 fits alone, but no "
          "feasible 3-set holds it)")
    opt = exact_optimum(inst)
    print(f"exhaustive exactly-3 optimum: {opt}")
    ok &= report.feasible and sol.count == 3 and 1 in part.discarded
    ok &= sol.total_profit >= (1 - eps) * opt
    ok &= details["fell_back"] or details["certified_ratio"] >= 1 - eps / 2

    print()
    print("=" * 64)
    print("2. fillers: two valuable items, the rest nearly worthless")
    print("=" * 64)
    inst_f = build([(500, 6), (400, 6), (1, 1), (1, 1), (2, 2), (1, 3)], budget=14, k=4)
    sol_f, details_f = solve_with_details(inst_f, eps)
    report_f = evaluate_solution(inst_f, sol_f)
    part_f = details_f["partition"]
    fillers = part_f.view.ids[part_f.filler_rows].tolist()
    print(f"selected {sorted(sol_f.selected)}: profit {sol_f.total_profit}, "
          f"weight {sol_f.total_weight}, count {sol_f.count}")
    print(f"zero-profit fillers kept by the partition: {fillers}")
    opt_f = exact_optimum(inst_f)
    print(f"exhaustive exactly-4 optimum: {opt_f}")
    ok &= report_f.feasible and sol_f.count == 4 and bool(fillers)
    ok &= sol_f.total_profit >= (1 - eps) * opt_f

    print()
    print("=" * 64)
    print("3. all profits zero (any feasible 2-item set is optimal)")
    print("=" * 64)
    inst0 = build([(0, 4), (0, 2), (0, 7), (0, 5)], budget=9, k=2)
    sol0, details0 = solve_with_details(inst0, eps)
    report0 = evaluate_solution(inst0, sol0)
    print(f"selected {sorted(sol0.selected)}: weight {sol0.total_weight}, "
          f"count {sol0.count}, feasible {report0.feasible}")
    print(f"trivial: {details0.get('trivial', False)} "
          "(the estimate is 0, so the K lightest are returned)")
    ok &= report0.feasible and sol0.count == 2

    print()
    print("=" * 64)
    print("4. infeasible: no 3 items fit in the budget")
    print("=" * 64)
    inst_bad = build([(9, 8), (7, 7), (5, 6), (3, 9)], budget=14, k=3)
    try:
        solve_with_details(inst_bad, eps)
        print("solver returned a solution -- WRONG, should have raised")
        ok = False
    except InfeasibleInstanceError as exc:
        print(f"raised InfeasibleInstanceError: {exc}")
        ok &= exact_optimum(inst_bad) is None

    print()
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
