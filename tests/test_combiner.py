"""End-to-end solves: the split sweep in at-most mode, the same pipeline with
exactly-K semantics, and the diagnostics both report."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import kknapsack.combiner as combiner
from conftest import F, ZERO, best_subset, inst_of
from kknapsack.combiner import (
    InfeasibleInstanceError,
    InvalidInstanceError,
    SplitCandidate,
    solve,
    solve_with_details,
)
from kknapsack.generator import generate_instance
from kknapsack.instance_model import (
    Instance,
    Mode,
    Solution,
    evaluate_solution,
    make_solution,
)
from kknapsack.oracles import brute_force, exact_dp
from kknapsack.small_items import solver_for_partition


def mixed_instance(seed):
    rnd = random.Random(seed)
    dist = rnd.choice(["uniform", "correlated", "subset-sum"])
    n = rnd.randint(4, 14)
    K = rnd.randint(1, 5)
    return generate_instance(
        dist,
        n,
        K,
        seed=seed,
        weight_max=rnd.choice([10, 40]),
        integral=rnd.random() < 0.7,
    )


class TestValidation:
    def test_internal_accuracy_is_fixed(self):
        # eps_int is eps/8, which the accuracy contract's loss terms assume;
        # there is no parameter to change it.
        inst = generate_instance("uniform", 12, 3, seed=5, weight_max=15)
        sol, det = solve_with_details(inst, F(1, 2))
        assert det["internal_eps"] == F(1, 16)
        assert det["partition"].epsilon == F(1, 16)
        assert sol.epsilon_used == F(1, 2)
        with pytest.raises(TypeError):
            solve(inst, F(1, 2), internal_eps=F(1, 3))
        with pytest.raises(TypeError):
            solve_with_details(inst, F(1, 2), internal_eps=F(1, 3))

    def test_epsilon_range(self):
        inst = inst_of([(1, 5, 1)], 3, 1)
        for bad in (0, 1, 2, F(-1, 2)):
            with pytest.raises(ValueError):
                solve(inst, bad)

    def test_invalid_instance(self):
        dup = inst_of([(1, 5, 1), (1, 4, 1)], 3, 1)
        with pytest.raises(InvalidInstanceError):
            solve(dup, F(1, 2))


class TestTrivialAtMost:
    def test_nothing_fits(self):
        inst = inst_of([(1, 5, 10), (2, 4, 20)], 6, 2)
        sol, det = solve_with_details(inst, F(1, 2))
        assert det["trivial"] is True
        assert sol.count == 0
        assert sol.total_profit == 0
        assert sol.selected == frozenset()

    def test_all_profits_zero(self):
        inst = inst_of([(1, 0, 1), (2, 0, 1)], 5, 2)
        sol, det = solve_with_details(inst, F(1, 2))
        assert det["trivial"] is True
        assert sol.total_profit == 0


class TestAtMostGuarantee:
    @pytest.mark.parametrize("seed", range(40))
    def test_vs_brute_force(self, seed):
        inst = mixed_instance(seed)
        eps = random.Random(seed ^ 0xABCD).choice([F(1, 4), F(3, 10), F(1, 2)])
        sol, det = solve_with_details(inst, eps)
        ref = brute_force(inst)
        feas = evaluate_solution(inst, sol)
        assert feas.feasible, feas.violations
        assert sol.total_profit >= (1 - eps) * ref.value
        if not det.get("trivial"):
            # Internal loss bound, tighter than the user-facing guarantee.
            bound = 8 * det["internal_eps"] * det["opt_estimate"]
            assert sol.total_profit >= ref.value - bound

    def test_single_dominant_item(self):
        inst = inst_of([(1, 100, 5), (2, 1, 1), (3, 1, 1)], 5, 2)
        sol = solve(inst, F(1, 4))
        assert sol.total_profit >= F(3, 4) * 100

    def test_small_only_instance(self):
        # Uniform profits: everything lands at or below the small floor.
        inst = inst_of([(i, 2, 1) for i in range(1, 9)], 4, 4)
        sol = solve(inst, F(1, 4))
        assert sol.total_profit == 8  # 4 items of profit 2 always fit


class TestAboveOneOverEps:
    """K * eps_int > 1, the regime where the paper switches the small side
    to its upsilon2 ladder; production keeps the exact box LP."""

    @pytest.mark.parametrize(
        "family,n,K,seed", [("subset-sum", 200, 40, 0), ("subset-sum", 300, 64, 2)]
    )
    def test_subset_sum_guarantee(self, family, n, K, seed):
        # A float ranking of the ladder once returned 0.21 and 0.41 of OPT
        # on these instances.
        eps = F(1, 2)
        inst = generate_instance(family, n, K, seed=seed)
        sol, det = solve_with_details(inst, eps)
        assert inst.cardinality * det["internal_eps"] > 1
        feas = evaluate_solution(inst, sol)
        assert feas.feasible, feas.violations
        assert sol.total_profit >= (1 - eps) * exact_dp(inst).value

    @pytest.mark.parametrize(
        "row",
        [
            "zero-profits",
            "zero-weights",
            "equal-ratios",
            "K-at-least-n",
            "zero-budget",
            "huge-denominators",
        ],
    )
    def test_degenerate_inputs(self, row):
        eps = F(1, 2)
        inst = degenerate_instance(row)
        sol, det = solve_with_details(inst, eps)
        assert inst.cardinality * det["internal_eps"] > 1
        feas = evaluate_solution(inst, sol)
        assert feas.feasible, feas.violations
        integral = inst.budget.denominator == 1 and all(
            it.weight.denominator == 1 for it in inst.items
        )
        opt = exact_dp(inst) if integral else brute_force(inst)
        assert sol.total_profit >= (1 - eps) * opt.value


def degenerate_instance(row):
    """A seeded at-most instance with K >= 17, so that K * eps/8 > 1 at
    eps = 1/2, for one degenerate input shape."""
    rnd = random.Random(row)
    ids = range(1, 41)
    if row == "zero-profits":  # two thirds of the items are worth nothing
        triples = [(i, rnd.choice([0, 0, rnd.randint(1, 50)]), rnd.randint(1, 30)) for i in ids]
        return inst_of(triples, 200, 20)
    if row == "zero-weights":  # a quarter of the items weigh nothing
        triples = [
            (i, rnd.randint(1, 50), 0 if rnd.random() < 0.25 else rnd.randint(1, 30))
            for i in ids
        ]
        return inst_of(triples, 150, 20)
    if row == "equal-ratios":  # every profit is 3 times its weight
        triples = [(i, 3 * w, w) for i, w in ((i, rnd.randint(1, 30)) for i in ids)]
        return inst_of(triples, 173, 20)
    if row == "K-at-least-n":
        triples = [(i, rnd.randint(1, 50), rnd.randint(1, 30)) for i in range(1, 19)]
        return inst_of(triples, 120, 24)
    if row == "zero-budget":  # only the weightless third can be taken
        triples = [
            (i, rnd.randint(1, 50), 0 if i % 3 == 0 else rnd.randint(1, 30)) for i in ids
        ]
        return inst_of(triples, 0, 20)
    assert row == "huge-denominators"
    triples = [
        (
            i,
            Fraction(rnd.randint(1, 10**6), 2**61 + rnd.randint(1, 999)),
            Fraction(rnd.randint(1, 10**6), 2**61 + rnd.randint(1, 999)),
        )
        for i in range(1, 21)
    ]
    return inst_of(triples, Fraction(4 * 10**6, 2**61 + 1), 17)


class TestDeterminismAndKnobs:
    def test_repeat_solves_identical(self):
        inst = mixed_instance(101)
        a = solve(inst, F(1, 4))
        b = solve(inst, F(1, 4))
        assert a.selected == b.selected
        assert a.total_profit == b.total_profit
        assert solve_with_details(inst, F(1, 4))[0].selected == a.selected

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_weight_rescaling_agrees(self, seed):
        # Dividing every weight and the budget by 7 moves the fold to
        # weight_scale 7 without changing any comparison.
        inst = generate_instance("uniform", 16, 4, seed=seed, weight_max=20)
        base, det = solve_with_details(inst, F(1, 4))
        scaled = Instance(
            items=tuple(replace(it, weight=it.weight / 7) for it in inst.items),
            budget=inst.budget / 7,
            cardinality=inst.cardinality,
            mode=inst.mode,
        )
        other, det7 = solve_with_details(scaled, F(1, 4))
        assert other.selected == base.selected
        if det["partition"].large_classes:
            assert det7["table"].weight_scale == 7 * det["table"].weight_scale

    def test_details_surface(self):
        inst = generate_instance("uniform", 18, 4, seed=9, weight_max=25)
        sol, det = solve_with_details(inst, F(1, 4))
        for key in (
            "internal_eps",
            "opt_estimate",
            "z",
            "grid_m",
            "table_cells",
            "split",
            "split_count",
            "partition",
            "table",
            "large_ids",
            "small_ids",
            "small_pool",
            "small_passes",
            "small_exact_keys",
        ):
            assert key in det, key
        assert det["small_pool"] == sum(
            len(c.members) for c in det["partition"].small_classes
        )
        assert det["small_passes"] >= 1
        assert 0 <= det["small_exact_keys"] <= det["small_passes"] * det["small_pool"]
        assert isinstance(det["split"], SplitCandidate)
        assert det["split_count"] >= 1
        assert det["grid_m"] == det["partition"].z * det["table"].grid.inv_eps
        assert frozenset(det["large_ids"]) | frozenset(det["small_ids"]) == sol.selected
        assert det["split"].total == det["split"].small_value + det[
            "table"
        ].grid.profit_value(det["split"].grid_index)


    def test_details_report_a_float_pool(self):
        # K = 20 > 1/eps_int = 16, where the paper would switch to its
        # ladder, over a pool of 50 items: the box LP answers it and the
        # selection is feasible.
        inst = generate_instance("correlated", 300, 20, seed=2)
        sol, det = solve_with_details(inst, F(1, 2))
        assert inst.cardinality * det["internal_eps"] > 1
        pool = sum(len(c.members) for c in det["partition"].small_classes)
        assert pool == 50
        assert det["small_pool"] == pool
        feas = evaluate_solution(inst, sol)
        assert feas.feasible, feas.violations


class TestSplitSweep:
    @pytest.mark.parametrize(
        "family, n, K, eps, seed",
        [
            ("uniform", 60, 6, F(1, 4), 1),
            ("correlated", 200, 8, F(1, 4), 2),
            ("uniform", 40, 4, F(1, 2), 3),
        ],
    )
    def test_pruned_sweep_keeps_the_first_maximum(self, family, n, K, eps, seed):
        # Splits whose table weight recurs at a larger anchor of the same k
        # are dropped; the chosen split must still be the first maximum of
        # the full sweep, in its order (k outer, anchors ascending).
        inst = generate_instance(family, n, K, seed=seed)
        _, det = solve_with_details(inst, eps)
        table, part = det["table"], det["partition"]
        grid = table.grid
        small = solver_for_partition(part)
        full = []
        for k in range(grid.z + 1):
            for x in grid.anchor_indices():
                if table.is_finite(x, k) and table.value_at(x, k) <= inst.budget:
                    omega = inst.budget - table.value_at(x, k)
                    total = grid.profit_value(x) + small.phi_dag(omega, part.cardinality - k)
                    full.append((total, k, x))
        best = max(total for total, _, _ in full)
        first = next((k, x) for total, k, x in full if total == best)
        assert (det["split"].large_slots, det["split"].grid_index) == first
        assert det["split"].total == best
        assert det["split_count"] < len(full)  # some split was dominated


class TestExactMode:
    def exact_inst(self, seed, n=None, K=None):
        rnd = random.Random(seed)
        n = n or rnd.randint(6, 14)
        K = K or rnd.randint(2, min(4, n))
        triples = [
            (uid, rnd.randint(0, 20), rnd.randint(1, 8)) for uid in range(1, n + 1)
        ]
        budget = rnd.randint(K * 2, K * 8)
        return inst_of(triples, budget, K, mode=Mode.EXACT)

    def test_too_few_fitting_items(self):
        inst = inst_of([(1, 5, 1), (2, 4, 99)], 10, 2, mode=Mode.EXACT)
        with pytest.raises(InfeasibleInstanceError):
            solve(inst, F(1, 2))

    def test_lightest_k_exceed_budget(self):
        inst = inst_of([(1, 5, 6), (2, 4, 6), (3, 3, 6)], 11, 2, mode=Mode.EXACT)
        with pytest.raises(InfeasibleInstanceError):
            solve(inst, F(1, 2))

    def test_zero_profit_shortcut(self):
        inst = inst_of([(1, 0, 2), (2, 0, 1), (3, 0, 3)], 4, 2, mode=Mode.EXACT)
        sol, det = solve_with_details(inst, F(1, 2))
        assert sol.count == 2
        assert sol.selected == {1, 2}  # the two lightest
        assert det["trivial"] is True and det["rounds"] == []

    @pytest.mark.parametrize("seed", range(30))
    def test_guarantee_vs_exact_optimum(self, seed):
        inst = self.exact_inst(seed)
        eps = random.Random(seed).choice([F(1, 4), F(1, 2)])
        ref = best_subset(inst, exact_count=inst.cardinality)
        try:
            sol, det = solve_with_details(inst, eps)
        except InfeasibleInstanceError:
            assert ref is None
            return
        assert ref is not None
        assert sol.count == inst.cardinality
        feas = evaluate_solution(inst, sol)
        assert feas.feasible, feas.violations
        assert sol.total_profit >= (1 - eps) * ref[0]
        if not det.get("trivial"):
            assert det["rounds"] == [{"internal_eps": eps / 8}]

    def test_details_surface(self):
        inst = self.exact_inst(77, n=12, K=3)
        sol, det = solve_with_details(inst, F(1, 4))
        assert det["exact_mode"] is True
        assert det["rounds"] == [{"internal_eps": F(1, 32)}]
        assert det["final"] == {"grid_m": det["grid_m"]}
        # One pipeline: the at-most keys, at the same internal accuracy.
        _, det_atmost = solve_with_details(replace(inst, mode=Mode.AT_MOST), F(1, 4))
        assert set(det_atmost) <= set(det)
        assert det["grid_m"] == det["partition"].z * det["table"].grid.inv_eps
        assert det["partition"].exactly_k is True
        assert frozenset(det["large_ids"]) | frozenset(det["small_ids"]) == sol.selected
        assert len(det["large_ids"]) == det["split"].large_slots
        assert len(det["small_ids"]) == 3 - det["split"].large_slots

    def test_grid_does_not_grow_with_k(self):
        # The former profit shift drove the internal accuracy towards
        # eps/(32K); the native pipeline keeps eps/8 in both modes.
        base = generate_instance("uniform", 200, 20, seed=3)
        budget = sum(it.weight for it in base.items) / 4
        for K in (5, 20, 80):
            grids = []
            for mode in (Mode.AT_MOST, Mode.EXACT):
                inst = Instance(items=base.items, budget=budget, cardinality=K, mode=mode)
                sol, det = solve_with_details(inst, F(1, 4))
                grids.append(det["grid_m"])
                assert evaluate_solution(inst, sol).feasible
            assert grids[0] == grids[1] == min(K, 32) * 32

    def test_fillers_complete_the_selection(self):
        # Three valuable items and many nearly worthless light ones: every
        # 6-set needs three items from below the profit floor, which the
        # partition keeps as zero-profit fillers.
        triples = [(1, 900, 5), (2, 800, 5), (3, 700, 5)]
        triples += [(uid, 1, 1) for uid in range(4, 14)]
        inst = inst_of(triples, 18, 6, mode=Mode.EXACT)
        sol, det = solve_with_details(inst, F(1, 4))
        part = det["partition"]
        assert len(part.fillers) == 6  # the K lightest of the ten
        assert sol.count == 6 and {1, 2, 3} <= sol.selected
        assert sol.total_profit == best_subset(inst, exact_count=6)[0]

    def test_items_no_k_set_contains_are_discarded(self):
        # Item 4 fits alone but not beside the two lightest others.
        inst = inst_of(
            [(1, 5, 3), (2, 5, 3), (3, 4, 4), (4, 50, 8)], 12, 3, mode=Mode.EXACT
        )
        sol, det = solve_with_details(inst, F(1, 4))
        assert 4 in det["partition"].discarded
        assert sol.selected == {1, 2, 3}

    def test_pool_equal_to_k(self):
        # K = n: the only candidate set is every item.
        inst = inst_of([(1, 3, 2), (2, 0, 1), (3, 9, 4)], 7, 3, mode=Mode.EXACT)
        sol = solve(inst, F(1, 2))
        assert sol.selected == {1, 2, 3}

    def test_fractional_weights_exact_mode(self):
        inst = inst_of(
            [(1, 9, F(3, 2)), (2, 7, F(5, 2)), (3, 6, F(1, 2)), (4, 2, 2)],
            F(9, 2),
            2,
            mode=Mode.EXACT,
        )
        ref = best_subset(inst, exact_count=2)
        sol = solve(inst, F(1, 4))
        assert sol.count == 2
        assert sol.total_profit >= F(3, 4) * ref[0]
