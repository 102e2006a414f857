"""Instances, solutions, feasibility judgments, and io."""

import copy
import json
import pickle
import random
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import F, ZERO, inst_of, items_of
from kknapsack import solve_with_details
from kknapsack.generator import DISTRIBUTIONS, generate_instance
from kknapsack.instance_model import (
    InfeasibleInstanceError,
    Instance,
    Item,
    Mode,
    candidate_rows,
    dumps_instance,
    evaluate_solution,
    instance_from_dict,
    item_columns,
    load_instance,
    load_instance_csv,
    loads_instance,
    make_solution,
    save_instance,
    save_instance_csv,
    validate_instance,
)
from kknapsack.oracles import reference_candidates, reference_validate
from test_acceptance import c02_instances


class TestInstanceBasics:
    def test_by_id_and_n(self):
        inst = inst_of([(1, 5, 2), (7, 3, 1)], budget=4, cardinality=2)
        assert inst.n == 2
        assert inst.by_id[7].profit == 3
        assert inst.by_id[1].weight == 2

    def test_items_coerced_to_tuple(self):
        inst = Instance(
            items=list(items_of([(1, 2, 3)])), budget=F(3), cardinality=1
        )
        assert isinstance(inst.items, tuple)

    def test_items_are_slotted_and_survive_copies(self):
        # Item keeps no per-instance __dict__; pickling, deep copies and
        # dataclasses.replace still work on it and on Instance.
        inst = inst_of([(1, F(5, 2), 2), (7, 3, F(1, 3))], 4, 2, mode=Mode.EXACT)
        item = inst.items[0]
        assert not hasattr(item, "__dict__")
        assert inst.by_id[7] == inst.items[1]  # fills a cached property first
        for obj in (item, inst):
            for copy_of in (lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy):
                other = copy_of(obj)
                assert other == obj and other is not obj
        assert replace(item, weight=F(3)) == Item(1, F(5, 2), F(3))
        assert replace(item).profit == F(5, 2)
        moved = replace(inst, budget=F(5), mode=Mode.AT_MOST)
        assert (moved.items, moved.budget, moved.mode) == (inst.items, F(5), Mode.AT_MOST)
        assert copy.deepcopy(inst).by_id[1] == item


class TestItemValues:
    """Item keeps int and Fraction values as given, makes another integral
    number an int, and refuses everything else by the item's id."""

    def test_int_and_fraction_values_are_kept(self):
        class Half(Fraction):
            pass

        class Count(int):
            pass

        for profit, weight in [(3, F(5, 2)), (F(7), 4), (Half(1, 2), Count(3))]:
            item = Item(1, profit, weight)
            assert item.profit is profit and item.weight is weight

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8, np.intp])
    def test_numpy_integers_become_ints(self, kind):
        item = Item(1, kind(5), kind(2))
        assert type(item.profit) is int and type(item.weight) is int
        assert (item.profit, item.weight) == (5, 2)
        assert type(Item(2, F(1, 3), kind(4)).weight) is int
        assert type(replace(item, profit=kind(6)).profit) is int

    @pytest.mark.parametrize("value", [0.1, 2.0, True, False, np.float64(1.5), np.bool_(True), "3", None])
    @pytest.mark.parametrize("field", ["profit", "weight"])
    def test_other_values_raise_naming_the_item(self, value, field):
        values = {"profit": F(1), "weight": F(1), field: value}
        with pytest.raises(TypeError, match=f"item 7: {field} must be an int or a Fraction"):
            Item(7, **values)
        with pytest.raises(TypeError, match="item 8: "):
            replace(Item(8, F(1), F(1)), **{field: value})

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_numpy_int_instance_solves_as_its_int_twin(self, mode):
        base = generate_instance("uniform", 60, 6, seed=4, mode=mode)
        ints = replace(base, items=[Item(it.id, int(it.profit), int(it.weight)) for it in base.items])
        numpy_ints = replace(base, items=[
            Item(it.id, np.int64(it.profit), np.int64(it.weight)) for it in base.items
        ])
        assert numpy_ints.items == ints.items
        sol, det = solve_with_details(numpy_ints, F(1, 4))
        ref, det_ref = solve_with_details(ints, F(1, 4))
        assert sol == ref and sol.count
        assert det["answer"] == det_ref["answer"]


class TestItemIds:
    """Item keeps an int id as given, makes another integral number an int,
    and refuses everything else by the id it was given."""

    def test_int_ids_are_kept(self):
        class Label(int):
            pass

        for uid in (7, Label(7), -3, 2**70):
            assert Item(uid, 1, F(1, 2)).id is uid

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8, np.intp])
    def test_numpy_integer_ids_become_ints(self, kind):
        item = Item(kind(7), F(1), 2)
        assert type(item.id) is int and item.id == 7
        assert type(replace(item, id=kind(8)).id) is int

    @pytest.mark.parametrize(
        "value", [1.5, 1.0, True, False, np.float64(1.5), np.bool_(True), F(1), "a", "1", None], ids=repr
    )
    def test_other_ids_raise_naming_the_item(self, value):
        with pytest.raises(TypeError, match=re.escape(f"item {value!r}: id must be an int, not")):
            Item(value, F(1), F(1))
        with pytest.raises(TypeError, match="id must be an int"):
            replace(Item(8, F(1), F(1)), id=value)

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_numpy_id_instance_solves_as_its_int_twin(self, mode):
        base = generate_instance("uniform", 60, 6, seed=4, mode=mode)
        numpy_ids = replace(base, items=[Item(np.int64(it.id), it.profit, it.weight) for it in base.items])
        assert numpy_ids.items == base.items
        sol, det = solve_with_details(numpy_ids, F(1, 4))
        ref, det_ref = solve_with_details(base, F(1, 4))
        assert sol == ref and sol.count
        assert all(type(uid) is int for uid in sol.selected)
        assert det["answer"] == det_ref["answer"]


class TestInstanceValues:
    """Instance checks budget by Item's rule and cardinality by the same
    rule with int alone kept as given."""

    ITEMS = items_of([(1, 3, 2), (2, 4, 3), (3, 5, 4)])

    def test_int_and_fraction_values_are_kept(self):
        class Half(Fraction):
            pass

        class Count(int):
            pass

        for budget, cardinality in [(5, 2), (F(9, 2), Count(2)), (Half(9, 2), 2), (Count(5), 2)]:
            inst = Instance(self.ITEMS, budget, cardinality)
            assert inst.budget is budget and inst.cardinality is cardinality

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8, np.intp])
    def test_numpy_integers_become_ints(self, kind):
        inst = Instance(self.ITEMS, kind(5), kind(2))
        assert type(inst.budget) is int and type(inst.cardinality) is int
        assert (inst.budget, inst.cardinality) == (5, 2)
        assert type(replace(inst, budget=kind(6)).budget) is int

    @pytest.mark.parametrize("value", [4.5, 2.0, True, False, np.float64(1.5), np.bool_(True), "3", None])
    def test_other_budgets_raise_naming_the_field(self, value):
        with pytest.raises(TypeError, match="budget must be an int or a Fraction"):
            Instance(self.ITEMS, value, 2)

    @pytest.mark.parametrize("value", [2.0, True, False, F(2), np.float64(2), np.bool_(True), "2", None])
    def test_other_cardinalities_raise_naming_the_field(self, value):
        with pytest.raises(TypeError, match="cardinality must be an int,"):
            Instance(self.ITEMS, 5, value)

    def test_negative_values_stay_validation_errors(self):
        for budget, cardinality in [(np.int64(-1), 2), (5, np.int64(-1))]:
            assert not validate_instance(Instance(self.ITEMS, budget, cardinality)).ok

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_numpy_int_budget_and_cardinality_solve_as_their_int_twins(self, mode):
        base = generate_instance("uniform", 60, 6, seed=4, mode=mode)
        budget = int(base.budget)
        numpy_ints = replace(base, budget=np.int64(budget), cardinality=np.int64(6))
        sol, det = solve_with_details(numpy_ints, F(1, 4))
        ref, det_ref = solve_with_details(replace(base, budget=budget), F(1, 4))
        assert sol == ref and sol.count
        assert det["answer"] == det_ref["answer"]


class TestValidateInstance:
    def test_clean_instance_passes(self):
        report = validate_instance(inst_of([(1, 5, 2), (2, 3, 1)], 4, 2))
        assert report.ok
        assert report.errors == ()
        assert report.warnings == ()

    def test_duplicate_ids_fatal(self):
        report = validate_instance(inst_of([(7, 1, 1), (7, 2, 2)], 5, 2))
        assert not report.ok
        assert any("duplicate" in e for e in report.errors)

    def test_negative_values_fatal(self):
        report = validate_instance(inst_of([(1, -1, 1), (2, 1, -2)], 5, 2))
        assert not report.ok
        assert sum("negative" in e for e in report.errors) == 2

    def test_bad_cardinality_and_budget_fatal(self):
        report = validate_instance(inst_of([(1, 1, 1)], -1, 0))
        assert not report.ok
        assert len(report.errors) == 2

    def test_oversize_item_warns_and_is_removable(self):
        report = validate_instance(inst_of([(1, 5, 12), (2, 1, 1)], 10, 1))
        assert report.ok  # warning, not error
        assert report.removable_ids == frozenset({1})
        assert any("exceeds budget" in w for w in report.warnings)

    def test_empty_instance_warns(self):
        report = validate_instance(inst_of([], 10, 1))
        assert report.ok
        assert any("no items" in w for w in report.warnings)

    def test_exact_mode_short_pool_warns(self):
        inst = inst_of([(1, 1, 8), (2, 1, 11)], 10, 2, mode=Mode.EXACT)
        report = validate_instance(inst)
        assert report.ok
        assert any("infeasible" in w for w in report.warnings)

    def test_exact_mode_fit_count_with_oversize_and_duplicates(self):
        # Both copies of id 1 fit and both count; both copies of id 3 are
        # oversize and are each reported. Order of every message is input order.
        inst = inst_of(
            [(1, 3, 4), (2, 1, 11), (1, 2, 10), (3, 1, 12), (3, 2, 13)],
            10,
            4,
            mode=Mode.EXACT,
        )
        report = validate_instance(inst)
        assert report.errors == ("duplicate item id 1", "duplicate item id 3")
        assert report.warnings == (
            "item 2: weight exceeds budget (removable)",
            "item 3: weight exceeds budget (removable)",
            "item 3: weight exceeds budget (removable)",
            "exact mode: only 2 items fit individually, fewer than K=4; "
            "instance is infeasible",
        )
        assert report.removable_ids == frozenset({2, 3})
        # At K = 2 the two fitting copies suffice: no infeasibility warning.
        enough = Instance(items=inst.items, budget=inst.budget, cardinality=2, mode=Mode.EXACT)
        assert not any("fit individually" in w for w in validate_instance(enough).warnings)


def _validation_case(seed: int) -> Instance:
    """A seeded instance for the validation comparison. Ids come from a
    small range, so some repeat; about one value in six is negative; values
    and budgets mix plain ints, integral Fractions and fractional ones; a
    few instances have no items."""
    rnd = random.Random(f"validate-{seed}")

    def value(scale):
        v = rnd.randint(-scale // 5, scale)
        kind = rnd.choice(("int", "integral", "fraction"))
        if kind == "int":
            return v
        return Fraction(v) if kind == "integral" else Fraction(v, rnd.randint(2, 9))

    n = 0 if seed % 17 == 0 else rnd.randint(1, 12)
    items = tuple(
        Item(id=rnd.randint(1, n + 3), profit=value(50), weight=value(30)) for _ in range(n)
    )
    budget = value(60) if seed % 5 else Fraction(rnd.randint(1, 200), rnd.randint(2, 7))
    mode = Mode.EXACT if seed % 3 == 0 else Mode.AT_MOST
    return Instance(items=items, budget=budget, cardinality=rnd.randint(0, 6), mode=mode)


class TestValidateMatchesReference:
    """validate_instance's integer checks against reference_validate's
    Fraction comparisons: the same errors, warnings and removable ids, in
    the same order."""

    def test_seeded_instances(self):
        seen = dict.fromkeys(
            ("duplicate", "negative profit", "negative weight", "exceeds budget",
             "fractional budget", "plain int", "no items"), 0,
        )
        for seed in range(400):
            inst = _validation_case(seed)
            report = validate_instance(inst)
            assert report == reference_validate(inst), seed
            text = " ".join(report.errors + report.warnings)
            for key in ("duplicate", "negative profit", "negative weight", "exceeds budget", "no items"):
                seen[key] += key in text
            seen["fractional budget"] += Fraction(inst.budget).denominator > 1
            seen["plain int"] += any(type(it.weight) is int for it in inst.items)
        assert min(seen.values()) >= 10, seen

    def test_negative_budget_with_negative_weights(self):
        # -9/2 exceeds the budget -5 though its numerator -9 does not.
        inst = inst_of([(1, 1, F(-9, 2)), (2, 1, F(-7))], F(-5), 1)
        report = validate_instance(inst)
        assert report == reference_validate(inst)
        assert report.removable_ids == frozenset({1})

    def test_generated_instances(self):
        for dist in ("uniform", "correlated", "subset-sum"):
            for integral in (True, False):
                inst = generate_instance(dist, 40, 5, seed=3, integral=integral)
                tight = Instance(inst.items, inst.budget / 8, 5, Mode.EXACT)
                for case in (inst, tight):
                    assert validate_instance(case) == reference_validate(case)

    def test_values_past_int64(self):
        # Ids and values past int64 put the columns on Python ints; ids
        # mixing signs beyond 2^63 must not be ranked as floats. Ids 2^70 and
        # 2^70 + 1 differ in float64 by nothing.
        big = 2**70
        items = (
            Item(big, F(big + 1, 3), F(big, 7)),
            Item(big + 1, F(5), F(-(big + 3), 11)),
            Item(-(2**65), F(-big), F(2)),
            Item(big, F(1), F(1, big)),
            Item(2**63 + 5, F(2**64, 2**66 + 1), F(big * 3)),
            Item(-(2**65), F(3), F(big)),
        )
        for budget in (F(big), F(big * 3 - 1, 1), F(-1, big)):
            for mode in Mode:
                inst = Instance(items, budget, 3, mode)
                report = validate_instance(inst)
                assert report == reference_validate(inst)
                assert report.errors.count(f"duplicate item id {big}") == 1
                assert any("negative weight" in e for e in report.errors)


class TestItemColumns:
    """item_columns reads each value with one as_integer_ratio() call, a
    Fraction's or a plain int's, and builds a denominator column of ones
    without converting its values. Every column must hold the values' own
    ids, numerators and denominators: int64 while they fit, Python ints
    past int64."""

    @staticmethod
    def assert_columns(inst):
        cols = item_columns(inst)
        values = [(it.id, F(it.profit), F(it.weight)) for it in inst.items]
        assert cols.ids.dtype == object and cols.ids.tolist() == [i for i, _, _ in values]
        assert cols.keys.tolist() == [i for i, _, _ in values]
        assert cols.pn.tolist() == [p.numerator for _, p, _ in values]
        assert cols.pd.tolist() == [p.denominator for _, p, _ in values]
        assert cols.wn.tolist() == [w.numerator for _, _, w in values]
        assert cols.wd.tolist() == [w.denominator for _, _, w in values]
        return cols

    def test_plain_int_values(self):
        base = generate_instance("uniform", 50, 5, seed=2)
        ints = replace(base, items=[Item(it.id, int(it.profit), int(it.weight)) for it in base.items])
        cols = self.assert_columns(ints)
        assert all(c.dtype == np.int64 for c in cols[1:])
        assert cols.pd.tolist() == cols.wd.tolist() == [1] * 50
        assert all((a == b).all() for a, b in zip(cols[1:], item_columns(base)[1:]))
        # Ints beside Fractions, and a denominator column that is not all ones.
        mixed = replace(base, items=[
            Item(it.id, it.profit / 2 if it.id % 3 else int(it.profit), int(it.weight))
            for it in base.items
        ])
        assert 2 in self.assert_columns(mixed).pd.tolist()
        for inst in (ints, mixed):
            sol, _ = solve_with_details(inst, F(1, 4))
            ref, _ = solve_with_details(replace(inst, items=[
                Item(it.id, F(it.profit), F(it.weight)) for it in inst.items
            ]), F(1, 4))
            assert sol == ref

    def test_values_past_int64(self):
        big = 2**70
        items = (
            Item(1, F(big + 1, 3), F(5)),
            Item(2, big, F(7, big)),
            Item(2**64, F(2), 3),
            Item(4, F(1, 2), F(big - 1, 5)),
        )
        cols = self.assert_columns(Instance(items, F(big), 2))
        assert [c.dtype for c in cols] == [object, object, object, np.int64, object, object]
        # Ones stay int64 beside numerators past int64.
        cols = self.assert_columns(Instance((Item(1, big, 3), Item(2, 5, -big)), F(1), 1))
        assert [c.dtype for c in cols[1:]] == [np.int64, object, np.int64, object, np.int64]
        assert cols.pd.tolist() == cols.wd.tolist() == [1, 1]


class TestCandidateRows:
    """candidate_rows on the item columns against
    oracles.reference_candidates, which compares Fractions item by item and
    heaps the K lightest: the same items in input order, or the same
    InfeasibleInstanceError message."""

    @staticmethod
    def verdict(inst) -> str:
        try:
            expected = reference_candidates(inst)
        except InfeasibleInstanceError as exc:
            with pytest.raises(InfeasibleInstanceError) as got:
                candidate_rows(inst, item_columns(inst))
            assert str(got.value) == str(exc)
            return str(exc).split()[0]  # "only" or "the"
        rows = candidate_rows(inst, item_columns(inst))
        assert [inst.items[r] for r in rows.tolist()] == list(expected)
        return "pruned" if len(expected) < inst.n else "all"

    @staticmethod
    def variants(inst):
        """inst in both modes, at its own budget and at budgets that make
        exactly K prune (or fail): between the K lightest weights' total and
        twice it, and just below it."""
        lightest = sum(sorted(it.weight for it in inst.items)[: inst.cardinality])
        for budget in (inst.budget, lightest * F(5, 4), lightest - F(1, 2)):
            for mode in Mode:
                yield Instance(inst.items, budget, inst.cardinality, mode)

    def test_c02_corpus(self):
        seen = {}
        for inst in c02_instances():
            for case in self.variants(inst):
                key = (case.mode, self.verdict(case))
                seen[key] = seen.get(key, 0) + 1
        assert {key[1] for key in seen if key[0] is Mode.EXACT} >= {"all", "pruned", "the"}, seen
        assert {key[1] for key in seen if key[0] is Mode.AT_MOST} == {"all", "pruned"}, seen

    def test_fractional_and_past_int64_values(self):
        verdicts = set()
        for seed, dist in enumerate(DISTRIBUTIONS):
            base = generate_instance(dist, 60, 7, seed=seed, integral=False)
            big = Instance(
                tuple(Item(it.id, it.profit * 2**70 + 1, it.weight * 2**70 + 3) for it in base.items),
                base.budget * 2**70,
                base.cardinality,
            )
            assert item_columns(big).wn.dtype == object
            for inst in (base, big):
                verdicts.update(self.verdict(case) for case in self.variants(inst))
        assert verdicts >= {"pruned", "the"}, verdicts

    def test_exactly_zero_keeps_every_fitting_item(self):
        # No K-1 lightest to leave room for; validation rejects K < 1, but
        # the candidates of such an instance still follow the reference.
        inst = inst_of([(1, 1, 3), (2, 2, 9), (3, 1, 4)], 5, 0, mode=Mode.EXACT)
        assert self.verdict(inst) == "pruned"

    def test_both_infeasible_verdicts(self):
        few = inst_of([(1, 1, 8), (2, 1, 11), (3, 1, 9)], 10, 3, mode=Mode.EXACT)
        heavy = inst_of([(1, 1, F(7, 2)), (2, 1, 4), (3, 1, 5)], 7, 2, mode=Mode.EXACT)
        assert self.verdict(few) == "only"
        assert self.verdict(heavy) == "the"
        with pytest.raises(InfeasibleInstanceError, match="only 2 items fit individually, need 3"):
            candidate_rows(few, item_columns(few))
        with pytest.raises(InfeasibleInstanceError, match="the 2 lightest items weigh 15/2 > budget 7"):
            candidate_rows(heavy, item_columns(heavy))


class TestSolutions:
    def test_make_solution_sums_exactly(self):
        inst = inst_of([(1, F(1, 3), F(1, 2)), (2, F(1, 6), F(1, 4))], 1, 2)
        sol = make_solution(inst, [1, 2], F(1, 4))
        assert sol.total_profit == F(1, 2)
        assert sol.total_weight == F(3, 4)
        assert sol.count == 2
        assert sol.epsilon_used == F(1, 4)

    def test_empty_selection_feasible_at_most(self):
        inst = inst_of([(1, 1, 1)], 1, 1)
        sol = make_solution(inst, [], F(1, 2))
        report = evaluate_solution(inst, sol)
        assert report.feasible
        assert report.total_profit == 0
        assert report.total_weight == 0

    def test_overweight_reports_violation_amount(self):
        inst = inst_of([(1, 1, 3), (2, 1, 3)], 5, 2)
        report = evaluate_solution(inst, make_solution(inst, [1, 2], F(1, 2)))
        assert not report.feasible
        assert any("by 1" in v for v in report.violations)

    def test_cardinality_violation_at_most(self):
        inst = inst_of([(1, 1, 1), (2, 1, 1)], 5, 1)
        report = evaluate_solution(inst, make_solution(inst, [1, 2], F(1, 2)))
        assert not report.feasible
        assert any("exceeds bound" in v for v in report.violations)

    def test_exact_mode_requires_exact_count(self):
        inst = inst_of([(1, 1, 1), (2, 1, 1)], 5, 2, mode=Mode.EXACT)
        short = evaluate_solution(inst, make_solution(inst, [1], F(1, 2)))
        assert not short.feasible
        full = evaluate_solution(inst, make_solution(inst, [1, 2], F(1, 2)))
        assert full.feasible

    def test_unknown_ids_raise(self):
        from kknapsack.instance_model import Solution

        inst = inst_of([(1, 1, 1)], 5, 1)
        bogus = Solution(
            selected=frozenset([99]),
            total_profit=ZERO,
            total_weight=ZERO,
            count=1,
            epsilon_used=F(1, 2),
        )
        with pytest.raises(KeyError):
            evaluate_solution(inst, bogus)


class TestSerialization:
    def _round_trippable(self):
        return inst_of(
            [(1, F(5, 3), 2), (2, 3, F(7, 2)), (3, 1, 1)],
            budget=F(9, 2),
            cardinality=2,
            mode=Mode.EXACT,
        )

    def test_json_round_trip(self, tmp_path):
        inst = self._round_trippable()
        assert loads_instance(dumps_instance(inst)) == inst
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert load_instance(path) == inst

    def test_mode_defaults_to_at_most(self):
        data = {
            "budget": "4",
            "cardinality": 1,
            "items": [{"id": 1, "profit": "2", "weight": "1"}],
        }
        assert instance_from_dict(data).mode is Mode.AT_MOST

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "{}",
            '{"budget": "4", "cardinality": 1}',
            '{"budget": "4", "cardinality": 1, "items": [{"id": 1}]}',
            '{"budget": "1/0", "cardinality": 1, "items": []}',
        ],
    )
    def test_malformed_json_raises_value_error(self, text):
        with pytest.raises(ValueError):
            loads_instance(text)

    @pytest.mark.parametrize(
        "field, value",
        [("cardinality", 2.5), ("id", 1.7), ("cardinality", True)],
    )
    def test_integral_fields_are_not_truncated(self, field, value):
        # int() would read 2.5 as 2, 1.7 as 1 and true as 1.
        data = {
            "budget": "4",
            "cardinality": 2,
            "items": [{"id": 1, "profit": "2", "weight": "1"}],
        }
        (data if field == "cardinality" else data["items"][0])[field] = value
        with pytest.raises(ValueError, match="malformed instance data"):
            instance_from_dict(data)
        data["cardinality"], data["items"][0]["id"] = "3", " 7 "
        inst = instance_from_dict(data)
        assert inst.cardinality == 3 and inst.items[0].id == 7

    @pytest.mark.parametrize(
        "field, value", [("profit", True), ("weight", False), ("budget", True)]
    )
    def test_rational_fields_reject_bools(self, field, value):
        # bool is an int subclass: parse_rational read true as 1, false as 0.
        data = {
            "budget": "4",
            "cardinality": 2,
            "items": [{"id": 1, "profit": "2", "weight": "1"}],
        }
        (data if field == "budget" else data["items"][0])[field] = value
        with pytest.raises(ValueError, match="malformed instance data"):
            instance_from_dict(data)
        with pytest.raises(ValueError, match="malformed instance data"):
            loads_instance(json.dumps(data))

    def test_csv_round_trip(self, tmp_path):
        inst = self._round_trippable()
        path = tmp_path / "inst.csv"
        save_instance_csv(inst, path)
        back = load_instance_csv(path, inst.budget, inst.cardinality, inst.mode)
        assert back == inst

    @pytest.mark.parametrize("cardinality", [2.7, 2.0, True, F(2), None], ids=repr)
    def test_csv_cardinality_is_not_truncated(self, tmp_path, cardinality):
        # int() read 2.7 as 2 and True as 1; the JSON reader's rule refuses them.
        inst = self._round_trippable()
        path = tmp_path / "inst.csv"
        save_instance_csv(inst, path)
        for K in (2, "2", np.int64(2)):
            assert load_instance_csv(path, inst.budget, K, inst.mode) == inst
        with pytest.raises(ValueError, match="expected an integer"):
            load_instance_csv(path, inst.budget, cardinality, inst.mode)

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_instance_csv(path, 4, 1)

    def test_csv_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,profit,weight\n1,xyz,3\n")
        with pytest.raises(ValueError):
            load_instance_csv(path, 4, 1)

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=0, max_value=100),
                st.fractions(min_value=0, max_value=100),
            ),
            min_size=0,
            max_size=6,
        )
    )
    def test_json_round_trip_property(self, pws):
        items = [(i + 1, p, w) for i, (p, w) in enumerate(pws)]
        inst = inst_of(items, budget=F(13, 3), cardinality=max(1, len(items)))
        assert loads_instance(dumps_instance(inst)) == inst
