"""The reference implementations must agree with plain subset enumeration
and fail loudly outside their envelopes; everything else in the suite leans
on them, so they get their own cross-checks here."""

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import F, ZERO, best_subset, dual_value, inst_of
from kknapsack.instance_model import Item, Mode
from kknapsack.large_items import INT_INF, INT_WEIGHT_LIMIT, ProfitGrid, trivial_table
from kknapsack.oracles import (
    BRUTE_FORCE_LIMIT,
    COLUMN_SCAN_LIMIT,
    EXHAUSTIVE_TABLE_LIMIT,
    LP_VERTEX_LIMIT,
    OracleMethod,
    brute_force,
    check_table,
    column_scan,
    critical_multiplier_enum,
    exact_dp,
    exhaustive_table,
    lp_vertex,
    naive_convolve,
)
from kknapsack.generator import generate_instance


def random_inst(seed, n_max=12, frac=False, mode=Mode.AT_MOST):
    rnd = random.Random(seed)
    n = rnd.randint(1, n_max)
    triples = []
    for uid in range(1, n + 1):
        p = Fraction(rnd.randint(0, 20), rnd.choice([1, 2]) if frac else 1)
        w = Fraction(rnd.randint(1, 15), rnd.choice([1, 3]) if frac else 1)
        triples.append((uid, p, w))
    budget = Fraction(rnd.randint(1, 30))
    K = rnd.randint(1, max(1, n))
    return inst_of(triples, budget, K, mode=mode)


class TestBruteForce:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_full_enumeration(self, seed):
        mode = Mode.EXACT if seed % 3 == 0 else Mode.AT_MOST
        inst = random_inst(seed, frac=seed % 2 == 0, mode=mode)
        got = brute_force(inst)
        want = best_subset(inst, exact_count=inst.cardinality if mode is Mode.EXACT else None)
        if want is None:
            assert got.value is None and got.solution is None
        else:
            value, ids = want
            assert got.value == value
            # The witness must be feasible and achieve the claimed value.
            chosen = [inst.by_id[i] for i in got.solution]
            assert sum((it.profit for it in chosen), ZERO) == value
            assert sum((it.weight for it in chosen), ZERO) <= inst.budget
            if mode is Mode.EXACT:
                assert len(chosen) == inst.cardinality
            else:
                assert len(chosen) <= inst.cardinality
        assert got.method is OracleMethod.BRUTE_FORCE

    def test_size_guard(self):
        inst = inst_of(
            [(i, 1, 1) for i in range(1, BRUTE_FORCE_LIMIT + 2)],
            5,
            2,
        )
        with pytest.raises(ValueError):
            brute_force(inst)

    def test_exact_mode_infeasible(self):
        inst = inst_of([(1, 5, 10), (2, 4, 10)], 9, 2, mode=Mode.EXACT)
        res = brute_force(inst)
        assert res.value is None and res.solution is None


class TestExactDp:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        mode = Mode.EXACT if seed % 3 == 1 else Mode.AT_MOST
        inst = random_inst(seed + 100, mode=mode)  # integral data
        got = exact_dp(inst)
        want = brute_force(inst)
        assert got.value == want.value
        assert got.method is OracleMethod.EXACT_DP

    @pytest.mark.parametrize("seed", range(10))
    def test_fraction_fallback_agrees(self, seed):
        # Rational profits (integer weights) force the pure-Python table.
        rnd = random.Random(seed)
        triples = [
            (uid, Fraction(rnd.randint(1, 12), rnd.choice([2, 3])), rnd.randint(1, 9))
            for uid in range(1, 10)
        ]
        inst = inst_of(triples, rnd.randint(5, 20), rnd.randint(1, 5))
        assert exact_dp(inst).value == brute_force(inst).value

    def test_requires_integer_weights_and_budget(self):
        with pytest.raises(ValueError):
            exact_dp(inst_of([(1, 5, F(1, 2))], 3, 1))
        with pytest.raises(ValueError):
            exact_dp(inst_of([(1, 5, 1)], F(7, 2), 1))

    def test_cell_limit(self):
        inst = inst_of([(1, 5, 1)], 60_000_000, 1)
        with pytest.raises(ValueError):
            exact_dp(inst)

    def test_exact_mode_infeasible_is_none(self):
        inst = inst_of([(1, 5, 10), (2, 4, 10)], 9, 2, mode=Mode.EXACT)
        assert exact_dp(inst).value is None

    def test_big_profit_uses_fallback(self):
        # Profit mass beyond the int64 comfort zone must not overflow.
        big = 1 << 60
        inst = inst_of([(1, big, 1), (2, big, 1)], 2, 2)
        assert exact_dp(inst).value == 2 * big


class TestNaiveConvolve:
    def test_mismatched_tables_raise(self):
        g1 = ProfitGrid(delta=F(1), z=2, inv_eps=2)
        g2 = ProfitGrid(delta=F(2), z=2, inv_eps=2)
        a = trivial_table(g1)
        with pytest.raises(ValueError):
            naive_convolve(a, trivial_table(g2))
        with pytest.raises(ValueError):
            naive_convolve(a, trivial_table(g1, inf=2 * INT_INF))
        with pytest.raises(ValueError):
            naive_convolve(a, trivial_table(g1, weight_scale=3))

    @pytest.mark.parametrize("cells", ["exact", "int64"])
    def test_trivial_is_identity(self, cells):
        # "exact": weights past INT_WEIGHT_LIMIT take Python-int object cells.
        grid = ProfitGrid(delta=F(1), z=2, inv_eps=3)
        unit = F(INT_WEIGHT_LIMIT) if cells == "exact" else F(1)
        items = [
            Item(id=1, profit=F(2), weight=3 * unit),
            Item(id=2, profit=F(4), weight=5 * unit),
        ]
        table = exhaustive_table(grid, items)
        assert table.values.dtype == (object if cells == "exact" else np.int64)
        t = trivial_table(grid, table.weight_scale, table.inf)
        out = naive_convolve(table, t)
        for q in range(grid.m + 1):
            for k in range(grid.z + 1):
                assert out.value_at(q, k) == table.value_at(q, k)


class TestExhaustiveTable:
    def test_size_guard(self):
        grid = ProfitGrid(delta=F(1), z=2, inv_eps=2)
        items = [Item(id=i, profit=F(1), weight=F(1)) for i in range(EXHAUSTIVE_TABLE_LIMIT + 1)]
        with pytest.raises(ValueError):
            exhaustive_table(grid, items)

    def test_tiny_example_by_hand(self):
        # Items (profit 2, weight 3) and (profit 3, weight 1); delta 1.
        grid = ProfitGrid(delta=F(1), z=2, inv_eps=3)
        items = [Item(id=1, profit=F(2), weight=F(3)), Item(id=2, profit=F(3), weight=F(1))]
        t = exhaustive_table(grid, items)
        assert t.value_at(0, 2) == 0
        assert t.value_at(2, 1) == 1  # profit 3 >= 2 at weight 1
        assert t.value_at(3, 1) == 1
        assert t.value_at(4, 2) == 4  # needs both: profit 5 >= 4
        assert t.value_at(5, 2) == 4
        assert not t.is_finite(6, 2)
        assert not t.is_finite(1, 0)

    def test_exactly_k_by_hand(self):
        # The same two items with exactly k: one slot cannot take both, and
        # two slots must, so (0, 2) costs their total weight.
        grid = ProfitGrid(delta=F(1), z=2, inv_eps=3)
        items = [Item(id=1, profit=F(2), weight=F(3)), Item(id=2, profit=F(3), weight=F(1))]
        t = exhaustive_table(grid, items, exactly_k=True)
        assert t.value_at(0, 0) == 0 and t.value_at(0, 1) == 1
        assert t.value_at(0, 2) == 4 and t.value_at(2, 2) == 4
        assert t.value_at(3, 1) == 1 and not t.is_finite(4, 1)
        check_table(t, exactly_k=True)
        with pytest.raises(AssertionError):  # (0, 2) > (0, 1): not an at-most table
            check_table(t)

    def test_scaled_exact_storage(self):
        grid = ProfitGrid(delta=F(1), z=2, inv_eps=2)
        items = [Item(id=1, profit=F(3), weight=F(1, 2))]
        t = exhaustive_table(grid, items)
        assert t.weight_scale == 2
        assert t.values.dtype == np.int64 and t.values[2, 1] == 1
        assert t.value_at(2, 1) == F(1, 2)


class TestLpVertex:
    def test_size_guard_and_validation(self):
        items = [Item(id=i, profit=F(1), weight=F(1)) for i in range(LP_VERTEX_LIMIT + 1)]
        with pytest.raises(ValueError):
            lp_vertex(items, F(5), 2)
        with pytest.raises(ValueError):
            lp_vertex(items[:2], F(-1), 2)
        with pytest.raises(ValueError):
            lp_vertex(items[:2], F(5), -1)

    @pytest.mark.parametrize("seed", range(10))
    def test_assignment_realises_value(self, seed):
        inst = random_inst(seed + 300, n_max=8, frac=True)
        res = lp_vertex(inst.items, inst.budget, inst.cardinality)
        by_id = inst.by_id
        total_p = sum((by_id[i].profit * x for i, x in res.assignment.items()), ZERO)
        total_w = sum((by_id[i].weight * x for i, x in res.assignment.items()), ZERO)
        total_x = sum(res.assignment.values(), ZERO)
        assert total_p == res.value
        assert total_w <= inst.budget
        assert total_x <= inst.cardinality
        assert all(0 < x <= 1 for x in res.assignment.values())
        # Never below the best integral subset, never above profit total.
        integral = best_subset(inst)
        assert res.value >= integral[0]

    def test_two_fractional_vertex(self):
        # Budget 5, cap 1: both rows tight needs x1 + x2 = 1 and
        # 8*x1 + 2*x2 = 5, so x = (1/2, 1/2) worth 8 -- better than the
        # single-fractional shapes (6.25 and 6).
        items = [Item(id=1, profit=F(10), weight=F(8)), Item(id=2, profit=F(6), weight=F(2))]
        res = lp_vertex(items, F(5), 1)
        assert res.value == F(8)
        assert res.assignment == {1: F(1, 2), 2: F(1, 2)}

    def test_equality_row(self):
        # sum x = 2 forces the worthless item 3 in; at budget 4 the single
        # fractional shapes of the inequality row are out.
        items = [
            Item(id=1, profit=F(10), weight=F(8)),
            Item(id=2, profit=F(6), weight=F(2)),
            Item(id=3, profit=F(0), weight=F(1)),
        ]
        assert lp_vertex(items, F(4), 2).value == F(6) + F(10, 4)
        res = lp_vertex(items, F(4), 2, equality=True)
        assert res.value == F(6) + F(10, 7)
        assert res.assignment == {1: F(1, 7), 2: F(1), 3: F(6, 7)}
        assert lp_vertex(items, F(2), 2, equality=True).value is None
        assert lp_vertex(items, F(2), 3, equality=True).value is None
        assert lp_vertex(items, F(11), 3, equality=True).value == 16


class TestCriticalMultiplierEnum:
    def test_two_fractional_vertex(self):
        # The vertex of TestLpVertex: the lines 10 - 8mu and 6 - 2mu cross
        # at mu = 2/3, where L = 10/3 + 14/3 = 8, the LP optimum.
        units = [(1, F(10), F(8)), (2, F(6), F(2))]
        assert critical_multiplier_enum(units, F(5), 1) == F(2, 3)
        with pytest.raises(ValueError):  # item 1 alone fits: nothing to search
            critical_multiplier_enum(units, F(8), 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_leftmost_minimizer_of_the_dual(self, seed):
        # Strong duality: L at the returned multiplier is the LP optimum,
        # and every smaller multiplier gives a strictly larger L.
        inst = random_inst(seed + 700, n_max=9, frac=True)
        units = [(it.id, it.profit, it.weight) for it in inst.items if it.profit > 0]
        cap = min(inst.cardinality, len(units))
        top = sorted(units, key=lambda t: (-t[1], t[2]))[:cap]
        budget = sum((w for _, _, w in top), ZERO) / 2
        assert budget > 0
        mu = critical_multiplier_enum(units, budget, cap)
        optimum = lp_vertex(inst.items, budget, cap).value
        assert dual_value(units, mu, budget, cap) == optimum
        assert dual_value(units, mu * F(999, 1000), budget, cap) > optimum


class TestColumnScan:
    def test_limit(self):
        grid = ProfitGrid(delta=F(1), z=1, inv_eps=1)
        acc = trivial_table(grid)
        cells = [(1, 0)] * (COLUMN_SCAN_LIMIT + 1)
        with pytest.raises(ValueError):
            column_scan(acc, None, 1, cells)


class TestGeneratorContract:
    """The oracle suite leans on generated instances; pin the generator's
    basic promises here once."""

    def test_deterministic(self):
        a = generate_instance("uniform", 15, 4, seed=7)
        b = generate_instance("uniform", 15, 4, seed=7)
        assert a == b

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            generate_instance("zipf", 5, 2, seed=0)

    @pytest.mark.parametrize("dist", ["uniform", "correlated", "subset-sum"])
    def test_instances_are_valid(self, dist):
        from kknapsack.instance_model import validate_instance

        for seed in range(3):
            inst = generate_instance(dist, 20, 5, seed=seed)
            report = validate_instance(inst)
            assert report.ok
            assert inst.n == 20
            assert inst.cardinality == 5
            assert all(it.profit >= 0 for it in inst.items)
            assert all(it.weight >= 0 for it in inst.items)

    def test_fractional_mode(self):
        inst = generate_instance("uniform", 12, 3, seed=1, integral=False)
        assert any(
            it.weight.denominator > 1 or it.profit.denominator > 1
            for it in inst.items
        )
