"""Shared test fixtures and the acceptance-criteria reporting hook.

best_subset below is a deliberately naive full enumeration used to
cross-check both the solver and the oracles module; it must stay
independent of any package internals beyond the instance types.
dual_value is the box LP's Lagrangian dual, the certificate the small-side
tests check the LP engine's answers against, and evaluation_counter counts
the engine's greedy passes. solve_fine runs the solver's
pipeline once at the paper's internal accuracy, for the tests that inspect
that pipeline's structure. partition_fields is what tests compare two
partitions by, since a partition and its classes compare by identity.
checked_partitions runs oracles.check_partition on every partition the
tests build, since production solves do not check their partitions.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import kknapsack.small_items as small_items
from kknapsack import oracles, preprocessing
from kknapsack.combiner import solve_at_accuracy
from kknapsack.instance_model import Instance, Item, Mode, validate_instance
from kknapsack.preprocessing import half_approx_opt

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

ZERO = Fraction(0)


def F(num, den=None) -> Fraction:
    return Fraction(num) if den is None else Fraction(num, den)


def items_of(triples) -> tuple[Item, ...]:
    """(id, profit, weight) triples -> Item tuple."""
    return tuple(
        Item(id=int(i), profit=Fraction(p), weight=Fraction(w)) for i, p, w in triples
    )


def inst_of(triples, budget, cardinality, mode=Mode.AT_MOST) -> Instance:
    return Instance(
        items=items_of(triples),
        budget=Fraction(budget),
        cardinality=int(cardinality),
        mode=mode,
    )


def member_ids(part, rows) -> list:
    """The ids of the candidates at these rows of the partition's view."""
    return part.view.ids[list(rows)].tolist()


def partition_fields(part) -> dict:
    """The fields two partitions of one instance must agree on: the
    estimate, epsilon, z, K, the mode, discarded, the fillers' rows and
    every field of every class, with each row array as a list of ints.
    view takes no part."""
    fields = _fields(part, skip={"view"})
    fields["large_classes"] = [_fields(c) for c in part.large_classes]
    fields["small_classes"] = [_fields(c) for c in part.small_classes]
    fields["discarded"] = part.discarded
    return fields


def _fields(record, skip=()) -> dict:
    """A dataclass instance's fields by name, arrays as lists."""
    out = {}
    for field in dataclasses.fields(record):
        if field.name not in skip:
            value = getattr(record, field.name)
            out[field.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def best_subset(inst: Instance, exact_count: int | None = None):
    """Full-enumeration optimum: (value, frozenset of ids), or None when no
    feasible selection exists (only possible with exact_count). At-most mode
    always admits the empty set. Exponential; keep n small."""
    items = inst.items
    if exact_count is None:
        sizes = range(0, min(inst.cardinality, len(items)) + 1)
    else:
        if exact_count > len(items):
            return None
        sizes = [exact_count]
    best = None
    for r in sizes:
        for combo in itertools.combinations(items, r):
            weight = sum((it.weight for it in combo), ZERO)
            if weight > inst.budget:
                continue
            value = sum((it.profit for it in combo), ZERO)
            if best is None or value > best[0]:
                best = (value, frozenset(it.id for it in combo))
    return best


def dual_value(units, mu, budget, cap, equality=False):
    """The box LP's Lagrangian dual at multiplier mu >= 0 on the weight row:
    mu*budget plus the cap largest adjusted profits p - mu*w over the
    (id, profit, weight) units, the positive ones only unless equality
    (sum x = cap). Every primal-feasible value is at most this, so a
    feasible point that reaches it is optimal."""
    adjusted = sorted((p - mu * w for _, p, w in units), reverse=True)[:cap]
    return mu * budget + sum((a for a in adjusted if equality or a > 0), ZERO)


def evaluation_counter(monkeypatch):
    """Wrap the greedy pass of the box-LP engine
    (small_items._lightest_maximizer); the returned list's single entry
    counts its calls."""
    calls = [0]
    original = small_items._lightest_maximizer

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(small_items, "_lightest_maximizer", counted)
    return calls


def solve_fine(inst: Instance, eps):
    """(solution, details) of a solve at internal accuracy eps/8 alone:
    validation, the estimate and one pipeline run, without the certified
    coarse level that solve_with_details tries first."""
    eps = Fraction(eps)
    assert validate_instance(inst).ok
    return solve_at_accuracy(inst, eps, eps / 8, half_approx_opt(inst))


@pytest.fixture
def mk_inst():
    return inst_of


@pytest.fixture(autouse=True, scope="session")
def checked_partitions():
    """Every module that binds preprocessing.build_partition (the package,
    combiner, and the test modules that import the name) gets, for the
    whole session, a wrapper that runs oracles.check_partition on each
    partition it returns. The check is looked up on each call, so a test
    can count it; the wrapper's __wrapped__ is the production function."""
    build = preprocessing.build_partition

    @functools.wraps(build)
    def checked(inst, *args, **kwargs):
        partition = build(inst, *args, **kwargs)
        oracles.check_partition(partition, inst)
        return partition

    with pytest.MonkeyPatch.context() as mp:
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get("build_partition") is build:
                mp.setattr(module, "build_partition", checked)
        yield


# ---------------------------------------------------------------------------
# Acceptance-criteria reporting: tests in test_acceptance.py record one line
# per criterion through the `criterion` fixture; the terminal-summary hook
# prints them after the run so the pass/fail ledger survives output capture.
# ---------------------------------------------------------------------------

_ACCEPTANCE_LINES: dict[str, tuple[str, bool, str]] = {}


@pytest.fixture
def criterion():
    def record(num: str, description: str, passed: bool, detail: str = ""):
        _ACCEPTANCE_LINES[num] = (description, bool(passed), detail)
        assert passed, f"criterion {num} FAILED: {description} -- {detail}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_ACCEPTANCE_LINES):
        description, passed, detail = _ACCEPTANCE_LINES[num]
        status = "PASS" if passed else "FAIL"
        line = f"[PRIMARY {num}] {status} -- {description}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
