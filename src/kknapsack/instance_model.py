"""Core problem types, validation, solution evaluation, and mode conversion.

An instance is a set of items with exact-rational profits and weights, a
weight budget W, a cardinality bound K, and a constraint mode: select at most
K items, or exactly K. All bookkeeping here is exact (fractions.Fraction);
solver modules may work in scaled integers internally but every
feasibility statement made to a caller goes through this module's exact sums.
A solve reads each item once, into integer columns (item_columns), and
validation, the candidates and their view are numpy passes over those. The
instance file formats write rationals as "num/den" or plain integers
and read those or decimal strings (parse_rational, format_rational).
"""

from __future__ import annotations

import csv
import enum
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional

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
    """One item. profit and weight are kept as given when they are ints or
    Fractions (subclasses included, bools excluded); another integral
    number, such as a numpy integer, becomes an int, and anything else, a
    float included, raises TypeError naming the item, the rule
    parse_rational applies to files. id follows the same rule with int
    alone kept as given, as Instance's cardinality does."""

    id: int
    profit: Fraction
    weight: Fraction

    def __post_init__(self):
        if type(self.id) is int and type(self.profit) in _EXACT and type(self.weight) in _EXACT:
            return
        object.__setattr__(self, "id", _exact_value(self.id, f"item {self.id!r}: id", (int,)))
        for name in ("profit", "weight"):
            object.__setattr__(self, name, _exact_value(getattr(self, name), f"item {self.id}: {name}"))


_EXACT = frozenset({int, Fraction})  # the value types Item keeps without a check


def _exact_value(value, name: str, kept: tuple = (int, Fraction)):
    """value as an Item or Instance field holds it: kept as given when it
    is one of kept (subclasses included, bools excluded), an int when it is
    another numbers.Integral, and otherwise a TypeError naming the field."""
    if isinstance(value, bool) or not isinstance(value, (numbers.Integral, *kept)):
        kinds = " or a ".join(k.__name__ for k in kept)
        raise TypeError(f"{name} must be an {kinds}, not {type(value).__name__}")
    return value if isinstance(value, kept) else int(value)


@dataclass(frozen=True)
class Instance:
    """A knapsack instance. budget is checked as an Item's values are, and
    cardinality by the same rule with int alone kept as given; negative
    values are validate_instance's errors."""

    items: tuple[Item, ...]
    budget: Fraction
    cardinality: int
    mode: Mode = Mode.AT_MOST

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "budget", _exact_value(self.budget, "budget"))
        object.__setattr__(self, "cardinality", _exact_value(self.cardinality, "cardinality", (int,)))

    @cached_property
    def by_id(self) -> Mapping[int, Item]:
        return {it.id: it for it in self.items}

    @property
    def n(self) -> int:
        return len(self.items)


class ItemColumns(NamedTuple):
    """Row i is item i: its own id object, the id as an integer key, and the
    numerators and denominators pn/pd, wn/wd (int64, or Python ints past int64)."""

    ids: np.ndarray
    keys: np.ndarray
    pn: np.ndarray
    pd: np.ndarray
    wn: np.ndarray
    wd: np.ndarray


def item_columns(inst: Instance) -> ItemColumns:
    """inst's ItemColumns: one pass reads each id, and each profit and weight
    with one as_integer_ratio() call (a Fraction's, or a plain int's). A
    denominator column of ones, as on integral instances, is not converted
    value by value."""
    ids, pn, pd, wn, wd = columns = [], [], [], [], []
    add_id, add_pn, add_pd, add_wn, add_wd = (c.append for c in columns)
    for it in inst.items:
        a, b = it.profit.as_integer_ratio()
        c, d = it.weight.as_integer_ratio()
        add_id(it.id)
        add_pn(a)
        add_pd(b)
        add_wn(c)
        add_wd(d)
    return ItemColumns(
        np.array(ids, dtype=object), _column(ids), _column(pn), _column(pd, ones=True),
        _column(wn), _column(wd, ones=True),
    )


def _column(values: list, ones: bool = False) -> np.ndarray:
    if ones and values.count(1) == len(values):  # a denominator column of integral values
        return np.ones(len(values), np.int64)
    try:
        return np.fromiter(values, np.int64, len(values))
    except OverflowError:  # a value past int64
        return np.array(values, dtype=object)


def _bits(values: np.ndarray) -> int:
    return max(map(abs, _extremes(values))).bit_length()


def _exceeds(num: np.ndarray, den: np.ndarray, c: int, d: int) -> np.ndarray:
    """num/den > c/d (den, d > 0) as num*d > c*den, in int64 while it fits."""
    if max(_bits(num) + d.bit_length(), c.bit_length() + _bits(den)) > 62:
        num, den = num.astype(object), den.astype(object)
    return num * d > c * den


def scaled_column(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, int]:
    """(num*(L//den) as a sum array, L) for L the lcm of the positive den."""
    lcm = math.lcm(*set(den.tolist())) if _extremes(den)[1] > 1 else 1
    if lcm > 1 and _bits(num) + lcm.bit_length() > 62:
        num, den = num.astype(object), den.astype(object)
    return _sum_array(num if lcm == 1 else num * (lcm // den)), lcm


def candidate_rows(inst: Instance, columns: ItemColumns) -> np.ndarray:
    """The ascending rows of the items some feasible selection contains: those
    that fit, and exactly K, fit beside the K-1 lightest others (one
    np.partition). Raises InfeasibleInstanceError when no K items fit together."""
    bn, bd = inst.budget.numerator, inst.budget.denominator
    rows = np.flatnonzero(~_exceeds(columns.wn, columns.wd, bn, bd))
    if inst.mode is not Mode.EXACT:
        return rows
    K = inst.cardinality
    if len(rows) < K:
        raise InfeasibleInstanceError(f"only {len(rows)} items fit individually, need {K}")
    W, lw = scaled_column(columns.wn[rows], columns.wd[rows])
    lightest = np.partition(W, K - 1)[:K]
    total = int(lightest.sum())
    if (w := Fraction(total, lw)) > inst.budget:
        raise InfeasibleInstanceError(f"the {K} lightest items weigh {w} > budget {inst.budget}")
    # W/lw <= budget - (the K-1 lightest): W <= floor(budget*lw) - (total - the K-th).
    return rows[W <= (bn * lw) // bd - (total - (int(lightest.max()) if K else 0))]


def _sum_array(values: np.ndarray, count: Optional[int] = None) -> np.ndarray:
    """Non-negative integers whose sums of up to count (default: all) are exact:
    int64 when count times the largest cannot reach 2^62, else Python ints."""
    fits = (len(values) if count is None else count) << _extremes(values)[1].bit_length() < 1 << 62
    return values.astype(np.int64 if fits else object)


def _extremes(values: np.ndarray) -> tuple[int, int]:
    """(least, greatest) of the values as Python ints, (0, 0) when empty."""
    return (int(values.min()), int(values.max())) if len(values) else (0, 0)


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


def validate_instance(inst: Instance, columns: Optional[ItemColumns] = None) -> ValidationReport:
    """Structural checks. Duplicate ids and negative values are fatal;
    oversize items (w > W) are flagged removable, never removed here.

    The checks read inst's item columns (read here when not given): one sort
    of the ids, the columns' signs, and a*d > c*b for a weight a/b against
    the budget c/d. Messages are built for the flagged items only, in item
    order; the report equals oracles.reference_validate's."""
    errors: list[str] = []
    warnings: list[str] = []

    if inst.cardinality < 1:
        errors.append(f"cardinality must be >= 1, got {inst.cardinality}")
    if inst.budget < 0:
        errors.append(f"budget must be >= 0, got {inst.budget}")

    cols = item_columns(inst) if columns is None else columns
    keys, repeats = np.sort(cols.keys), set()
    if (keys[1:] == keys[:-1]).any():  # the later items of each repeated id
        order = np.argsort(cols.keys, kind="stable")
        repeats = set(order[1:][cols.keys[order[1:]] == cols.keys[order[:-1]]].tolist())
    for i in sorted(repeats.union(np.flatnonzero((cols.pn < 0) | (cols.wn < 0)).tolist())):
        uid, p = cols.ids[i], Fraction(int(cols.pn[i]), int(cols.pd[i]))
        w = Fraction(int(cols.wn[i]), int(cols.wd[i]))
        errors += [f"duplicate item id {uid}"] * (i in repeats)
        errors += [f"item {uid}: negative profit {p}"] * (p < 0)
        errors += [f"item {uid}: negative weight {w}"] * (w < 0)

    over = _exceeds(cols.wn, cols.wd, inst.budget.numerator, inst.budget.denominator)
    oversize = cols.ids[over].tolist()
    warnings += [f"item {uid}: weight exceeds budget (removable)" for uid in oversize]
    if not inst.items:
        warnings.append("trivial instance: no items")
    fitting = inst.n - len(oversize)
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
    """An integral field of a JSON instance, or a CSV instance's
    cardinality: an integral number (not a bool) or a string holding one.
    int() alone would truncate 2.5 to 2 and read true as 1."""
    if isinstance(value, bool) or not isinstance(value, (numbers.Integral, str)):
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
        cardinality=_integer(cardinality),
        mode=mode,
    )


def save_instance_csv(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "profit", "weight"])
        for it in inst.items:
            writer.writerow([it.id, format_rational(it.profit), format_rational(it.weight)])
