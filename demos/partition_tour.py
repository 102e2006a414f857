#!/usr/bin/env python3
"""Tour of the profit partition: estimate, geometric classes, discards.

The solver never works on raw profits. It first computes a 2-approximation
of the optimum, then snaps every item onto a geometric ladder around that
estimate: items worth more than eps * estimate become "large" (few of them
can ever be picked), the rest become "small" (handled by a continuous
relaxation), and items below eps * estimate / K are dropped entirely (even
K of them cannot perturb the answer by more than eps * estimate).

This script prints the partition for one fixed instance at two accuracies
and audits the bookkeeping invariants as it goes.

Usage:
  python3 demos/partition_tour.py
"""

from fractions import Fraction

from kknapsack import Instance, Item, Mode, build_partition, half_approx_opt


def members(partition, inst, cls):
    """The items of a class: its rows in the partition's candidate view
    name candidates, whose ids the instance looks up."""
    return [inst.by_id[i] for i in partition.view.ids[cls.rows]]


def show(partition, inst) -> bool:
    ok = True
    print(f"  optimum estimate : {partition.opt_estimate}"
          f" (2 * greedy half-approximation {half_approx_opt(inst).value})")
    large_floor = partition.epsilon * partition.opt_estimate
    keep_floor = large_floor / partition.cardinality
    print(f"  large-item floor : profit > {large_floor}")
    print(f"  keep floor       : profit >= {keep_floor}")
    for cls in partition.large_classes:
        items = members(partition, inst, cls)
        print(f"  large class {cls.index:>2}  rounded profit {cls.rounded_profit}"
              f"  members {[it.id for it in items]}")
        for it in items:
            # Large profits round UP onto the ladder, by less than (1+eps).
            ok &= it.profit <= cls.rounded_profit
            ok &= cls.rounded_profit <= (1 + partition.epsilon) * it.profit
    for cls in partition.small_classes:
        items = members(partition, inst, cls)
        print(f"  small class {cls.index:>2}  rounded profit {cls.rounded_profit}"
              f"  members {[it.id for it in items]}")
        for it in items:
            # Small profits round DOWN onto the ladder (never overstated).
            ok &= cls.rounded_profit <= it.profit
            ok &= it.profit <= (1 + partition.epsilon) * cls.rounded_profit
    print(f"  discarded ids    : {sorted(partition.discarded)}")
    counted = (
        sum(c.size for c in partition.large_classes)
        + partition.small_item_count
        + len(partition.discarded)
    )
    ok &= counted == len(inst.items)
    print(f"  accounting       : {counted} of {len(inst.items)} items placed")
    return ok


def main() -> int:
    # Profits spread over two orders of magnitude force a mixed partition.
    data = [
        (100, 7),
        (85, 6),
        (34, 4),
        (21, 3),
        (13, 2),
        (8, 2),
        (5, 1),
        (3, 1),
        (2, 1),
        (1, 1),
    ]
    inst = Instance(
        items=tuple(
            Item(id=i, profit=Fraction(p), weight=Fraction(w))
            for i, (p, w) in enumerate(data, start=1)
        ),
        budget=Fraction(12),
        cardinality=4,
        mode=Mode.AT_MOST,
    )

    ok = True
    for eps in (Fraction(1, 4), Fraction(1, 8)):
        print("=" * 64)
        print(f"partition at eps = {eps}")
        print("=" * 64)
        partition = build_partition(inst, eps)
        ok &= show(partition, inst)
        print()

    # Tightening eps can only shrink the discard set: the keep floor drops.
    coarse = build_partition(inst, Fraction(1, 4))
    fine = build_partition(inst, Fraction(1, 8))
    ok &= set(fine.discarded) <= set(coarse.discarded)
    print("finer accuracy discards a subset of the coarser discards:",
          sorted(fine.discarded), "<=", sorted(coarse.discarded))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
