"""Core problem types, validation, solution evaluation, and mode conversion.

An instance is a set of items with exact-rational profits and weights, a
weight budget W, a cardinality bound K, and a constraint mode: select at most
K items, or exactly K. All bookkeeping here is exact (fractions.Fraction);
solver modules may work in scaled integers internally but every
feasibility statement made to a caller goes through this module's exact sums.
"""

from __future__ import annotations

import csv
import enum
import heapq
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .rationals import exact_sum, format_rational, parse_rational


class InfeasibleInstanceError(Exception):
    """Exact mode: no K items fit within the budget."""


class Mode(enum.Enum):
    AT_MOST = "at_most"
    EXACT = "exact"


@dataclass(frozen=True)
class Item:
    id: int
    profit: Fraction
    weight: Fraction


@dataclass(frozen=True)
class Instance:
    items: tuple[Item, ...]
    budget: Fraction
    cardinality: int
    mode: Mode = Mode.AT_MOST

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))

    @cached_property
    def by_id(self) -> Mapping[int, Item]:
        return {it.id: it for it in self.items}

    @cached_property
    def candidates(self) -> tuple[Item, ...]:
        """The items some feasible selection contains, in input order: those
        that fit, and in exactly-K mode fit beside the K-1 lightest others,
        i.e. weigh at most the budget minus the K-1 lightest. Raises
        InfeasibleInstanceError when no K items fit together."""
        fitting = [it for it in self.items if it.weight <= self.budget]
        if self.mode is not Mode.EXACT:
            return tuple(fitting)
        K = self.cardinality
        if len(fitting) < K:
            raise InfeasibleInstanceError(
                f"only {len(fitting)} items fit individually, need {K}"
            )
        lightest = heapq.nsmallest(K, (it.weight for it in fitting))
        total = exact_sum(lightest)
        if total > self.budget:
            raise InfeasibleInstanceError(
                f"the {K} lightest items weigh {total} > budget {self.budget}"
            )
        room = self.budget - exact_sum(lightest[:-1])
        return tuple(it for it in fitting if it.weight <= room)

    @property
    def n(self) -> int:
        return len(self.items)

    @cached_property
    def is_integral(self) -> bool:
        """True when every profit, weight, and the budget are integers."""
        if self.budget.denominator != 1:
            return False
        return all(
            it.profit.denominator == 1 and it.weight.denominator == 1
            for it in self.items
        )


@dataclass(frozen=True)
class Solution:
    selected: frozenset[int]
    total_profit: Fraction
    total_weight: Fraction
    count: int
    epsilon_used: Fraction
    opt_lower_bound: Fraction

    def __post_init__(self):
        object.__setattr__(self, "selected", frozenset(self.selected))


def make_solution(inst: Instance, ids: Iterable[int], epsilon_used: Fraction) -> Solution:
    """Build a Solution with sums recomputed exactly from the instance."""
    ids = frozenset(ids)
    profit = exact_sum(inst.by_id[i].profit for i in ids)
    weight = exact_sum(inst.by_id[i].weight for i in ids)
    return Solution(
        selected=ids,
        total_profit=profit,
        total_weight=weight,
        count=len(ids),
        epsilon_used=epsilon_used,
        opt_lower_bound=profit,
    )


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()
    removable_ids: frozenset[int] = frozenset()

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    total_profit: Fraction
    total_weight: Fraction
    count: int
    violations: tuple[str, ...] = ()


def validate_instance(inst: Instance) -> ValidationReport:
    """Structural checks. Duplicate ids and negative values are fatal;
    oversize items (w > W) are flagged removable, never removed here."""
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


def evaluate_solution(inst: Instance, sol: Solution) -> FeasibilityReport:
    """Recompute sums for a claimed solution and judge feasibility exactly."""
    unknown = [i for i in sol.selected if i not in inst.by_id]
    if unknown:
        raise KeyError(f"solution references unknown item ids: {sorted(unknown)}")

    profit = exact_sum(inst.by_id[i].profit for i in sol.selected)
    weight = exact_sum(inst.by_id[i].weight for i in sol.selected)
    count = len(sol.selected)
    violations = feasibility_violations(inst, weight, count)
    return FeasibilityReport(
        feasible=not violations,
        total_profit=profit,
        total_weight=weight,
        count=count,
        violations=violations,
    )


def feasibility_violations(inst: Instance, weight: Fraction, count: int) -> tuple[str, ...]:
    """Why a selection of this exact total weight and item count is
    infeasible: over the budget, or against the count rule of inst's mode.
    Empty when it is feasible."""
    violations: list[str] = []
    if weight > inst.budget:
        violations.append(f"weight {weight} exceeds budget {inst.budget} by {weight - inst.budget}")
    if inst.mode is Mode.AT_MOST:
        if count > inst.cardinality:
            violations.append(f"cardinality {count} exceeds bound {inst.cardinality}")
    else:
        if count != inst.cardinality:
            violations.append(f"cardinality {count} != required {inst.cardinality}")
    return tuple(violations)


# ---------------------------------------------------------------------------
# Serialization: JSON (canonical) and CSV (items only; budget/K from caller).
# ---------------------------------------------------------------------------

def instance_to_dict(inst: Instance) -> dict:
    return {
        "budget": format_rational(inst.budget),
        "cardinality": inst.cardinality,
        "mode": inst.mode.value,
        "items": [
            {
                "id": it.id,
                "profit": format_rational(it.profit),
                "weight": format_rational(it.weight),
            }
            for it in inst.items
        ],
    }


def instance_from_dict(data: Mapping) -> Instance:
    try:
        items = tuple(
            Item(
                id=int(entry["id"]),
                profit=parse_rational(entry["profit"]),
                weight=parse_rational(entry["weight"]),
            )
            for entry in data["items"]
        )
        return Instance(
            items=items,
            budget=parse_rational(data["budget"]),
            cardinality=int(data["cardinality"]),
            mode=Mode(data.get("mode", "at_most")),
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed instance data: {exc}") from exc


def dumps_instance(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), indent=2) + "\n"


def loads_instance(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed instance JSON: {exc}") from exc
    return instance_from_dict(data)


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_instance(fh.read())


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(inst))


def load_instance_csv(path, budget, cardinality: int, mode: Mode = Mode.AT_MOST) -> Instance:
    """CSV variant: header id,profit,weight; budget/cardinality supplied."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return _instance_from_csv(fh, budget, cardinality, mode)


def _instance_from_csv(fh, budget, cardinality: int, mode: Mode) -> Instance:
    reader = csv.DictReader(fh)
    required = {"id", "profit", "weight"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise ValueError(f"CSV instance must have header columns {sorted(required)}")
    items = []
    try:
        for row in reader:
            items.append(
                Item(
                    id=int(row["id"]),
                    profit=parse_rational(row["profit"]),
                    weight=parse_rational(row["weight"]),
                )
            )
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed CSV instance row: {exc}") from exc
    return Instance(
        items=tuple(items),
        budget=parse_rational(budget),
        cardinality=int(cardinality),
        mode=mode,
    )


def save_instance_csv(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "profit", "weight"])
        for it in inst.items:
            writer.writerow([it.id, format_rational(it.profit), format_rational(it.weight)])
