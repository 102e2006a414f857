#!/usr/bin/env python3
"""Walkthrough of the large-item weight table and its structured folding.

Large items (profit above eps * estimate) are grouped into classes of equal
rounded profit. For each class the solver answers: "cheapest way to reach
at least q grid steps of profit with at most k items". Classes fold into an
accumulated table one at a time; each fold is a (min, +) convolution that
only needs the best member count per cell, so the implementation makes one
vectorised pass per member count instead of scanning every split.

This script folds the classes into one table, prints it, queries it, and
cross-checks a cell against direct subset enumeration.

Usage:
  python3 demos/convolution_walkthrough.py
"""

import itertools
from fractions import Fraction

from kknapsack import Instance, Item, Mode, build_partition
from kknapsack.large_items import build_phi_L, profit_at, retrieve_items
from kknapsack.rationals import INF


def main() -> int:
    # Three profit tiers far enough apart to land in distinct classes.
    data = [
        (96, 5),
        (94, 7),
        (78, 3),
        (76, 4),
        (75, 6),
        (26, 2),
        (25, 3),
    ]
    inst = Instance(
        items=tuple(
            Item(id=i, profit=Fraction(p), weight=Fraction(w))
            for i, (p, w) in enumerate(data, start=1)
        ),
        budget=Fraction(15),
        cardinality=3,
        mode=Mode.AT_MOST,
    )
    eps = Fraction(1, 8)
    partition = build_partition(inst, eps)

    print("=" * 72)
    print(f"profit grid and large classes at eps = {eps}")
    print("=" * 72)

    table = build_phi_L(partition)
    grid = table.grid
    for cls in partition.large_classes:  # folded in this order
        print(f"folded class {cls.index} "
              f"(rounded profit {cls.rounded_profit}, {cls.size} member(s)); "
              f"table {grid.m + 1} x {grid.z + 1} cells")
    print(f"grid spacing delta = {grid.delta}, z = {grid.z} (cardinality cap "
          f"for large items), top profit covered = {grid.m * grid.delta}")

    # Print the final table: minimum weight to reach q grid steps with <= k
    # items; '-' marks unreachable cells.
    print()
    header = "  q\\k " + "".join(f"{k:>8}" for k in range(grid.z + 1))
    print(header)
    for q in range(0, grid.m + 1, max(1, grid.m // 12)):
        row = [f"{q:>5} "]
        for k in range(grid.z + 1):
            v = table.value_at(q, k) if table.is_finite(q, k) else None
            row.append(f"{str(v) if v is not None else '-':>8}")
        print("".join(row))

    print()
    ok = True
    by_id = {it.id: it for cls in partition.large_classes for it in cls.members}
    rounded = {
        it.id: cls.rounded_profit
        for cls in partition.large_classes
        for it in cls.members
    }
    for omega, k in [(Fraction(15), 3), (Fraction(8), 2), (Fraction(3), 1)]:
        q = profit_at(table, omega, k)
        ids = retrieve_items(table, q, k) if q > 0 else ()
        weight = sum((by_id[i].weight for i in ids), Fraction(0))
        print(f"budget {omega}, k={k}: {q} grid steps "
              f"(profit >= {q * grid.delta}), witness {sorted(ids)} "
              f"weighing {weight}")
        ok &= weight <= omega and len(ids) <= k

        # Cross-check: no subset of large items beats the table's answer by
        # a full grid step beyond the documented discretization slack.
        best = Fraction(0)
        pool = list(by_id.values())
        for r in range(k + 1):
            for combo in itertools.combinations(pool, r):
                if sum((it.weight for it in combo), Fraction(0)) <= omega:
                    p = sum((rounded[it.id] for it in combo), Fraction(0))
                    best = max(best, p)
        slack = (grid.z + 1) * grid.delta
        ok &= Fraction(0) <= best - q * grid.delta <= slack
        print(f"  exhaustive check: best rounded profit {best}, "
              f"gap {best - q * grid.delta} <= {slack}")

    print()
    print(f"{len(partition.large_classes)} class fold(s); "
          f"INF sentinel prints as {INF!r}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
