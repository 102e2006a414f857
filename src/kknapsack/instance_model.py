"""Core problem types, validation, solution evaluation, and mode conversion.

An instance is a set of items with exact-rational profits and weights, a
weight budget W, a cardinality bound K, and a constraint mode: select at most
K items, or exactly K. All bookkeeping here is exact (fractions.Fraction);
solver modules may work in scaled integers internally but every
feasibility statement made to a caller goes through this module's exact sums.
The instance file formats write rationals as "num/den" or plain integers
and read those or decimal strings (parse_rational, format_rational).
"""

from __future__ import annotations

import csv
import enum
import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np


def exact_sum(values: Iterable[Fraction]) -> Fraction:
    """Exact sum, as sum(values, Fraction(0)) but with one gcd instead of
    one per term: the numerators are added over the lcm of the
    denominators."""
    values = list(values)
    den = math.lcm(*{v.denominator for v in values})
    if den == 1:
        return Fraction(sum(v.numerator for v in values))
    return Fraction(sum(v.numerator * (den // v.denominator) for v in values), den)


def parse_rational(text) -> Fraction:
    """Parse "3/4", "0.25", "7", or a plain int into an exact Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, (bool, float)):
        # Fraction(float) would convert the binary expansion exactly, which
        # is almost never what a file author meant, and a bool is an int
        # that reads JSON's true as 1. Require strings.
        raise TypeError(f"rational values must be int or string, not {type(text).__name__}")
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Inverse of parse_rational: "num/den", or "num" for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class InfeasibleInstanceError(Exception):
    """Exact mode: no K items fit within the budget."""


class Mode(enum.Enum):
    AT_MOST = "at_most"
    EXACT = "exact"


@dataclass(frozen=True, slots=True)
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
        fitting = _within(self.items, self.budget)
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
        return tuple(_within(fitting, self.budget - exact_sum(lightest[:-1])))

    @property
    def n(self) -> int:
        return len(self.items)


def _within(items, budget) -> list[Item]:
    """The items whose weight a/b is at most budget c/d: a*d <= c*b."""
    c, d = budget.numerator, budget.denominator
    return [it for it in items if (w := it.weight).numerator * d <= c * w.denominator]


@dataclass(frozen=True)
class Solution:
    selected: frozenset[int]
    total_profit: Fraction
    total_weight: Fraction
    count: int
    epsilon_used: Fraction

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
    oversize items (w > W) are flagged removable, never removed here.

    The checks read integers, not Fraction comparisons: duplicates show as
    equal neighbours among the sorted ids (an array of 8 bytes per id,
    where a set's table takes about 50), negative values as negative
    numerators, and an oversize weight a/b against the budget c/d as
    a*d > c*b. With c >= 0 that needs a*d > c, so the weight denominators
    are read only when the largest weight numerator passes that. Messages are built
    for the flagged items only, in item order; the report equals
    oracles.reference_validate's, which compares item by item."""
    errors: list[str] = []
    warnings: list[str] = []

    if inst.cardinality < 1:
        errors.append(f"cardinality must be >= 1, got {inst.cardinality}")
    if inst.budget < 0:
        errors.append(f"budget must be >= 0, got {inst.budget}")

    items = inst.items
    ids = [it.id for it in items]
    wn = [it.weight.numerator for it in items]
    ids_sorted = np.sort(np.array(ids))
    if (
        (ids_sorted[1:] == ids_sorted[:-1]).nonzero()[0].size
        or min(wn, default=0) < 0
        or min((it.profit.numerator for it in items), default=0) < 0
    ):
        seen: set[int] = set()
        for it in items:
            if it.id in seen:
                errors.append(f"duplicate item id {it.id}")
            seen.add(it.id)
            if it.profit.numerator < 0:
                errors.append(f"item {it.id}: negative profit {it.profit}")
            if it.weight.numerator < 0:
                errors.append(f"item {it.id}: negative weight {it.weight}")

    bn, bd = inst.budget.numerator, inst.budget.denominator
    oversize = []
    if bn < 0 or max(wn, default=0) * bd > bn:
        oversize = [it.id for it in items if (w := it.weight).numerator * bd > bn * w.denominator]
    warnings += [f"item {uid}: weight exceeds budget (removable)" for uid in oversize]
    if not items:
        warnings.append("trivial instance: no items")
    fitting = len(items) - len(oversize)
    if inst.mode is Mode.EXACT and fitting < inst.cardinality:
        warnings.append(
            f"exact mode: only {fitting} items fit individually, "
            f"fewer than K={inst.cardinality}; instance is infeasible"
        )

    return ValidationReport(tuple(errors), tuple(warnings), frozenset(oversize))


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


def _integer(value) -> int:
    """An integral JSON field: an int (not a bool) or a string holding one.
    int() alone would truncate 2.5 to 2 and read true as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def instance_from_dict(data: Mapping) -> Instance:
    try:
        items = tuple(
            Item(
                id=_integer(entry["id"]),
                profit=parse_rational(entry["profit"]),
                weight=parse_rational(entry["weight"]),
            )
            for entry in data["items"]
        )
        return Instance(
            items=items,
            budget=parse_rational(data["budget"]),
            cardinality=_integer(data["cardinality"]),
            mode=Mode(data.get("mode", "at_most")),
        )
    except (KeyError, TypeError, ValueError) as exc:
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
    except (TypeError, ValueError) as exc:
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
