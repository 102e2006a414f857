"""End-to-end solves: the split sweep in at-most mode, the same pipeline with
exactly-K semantics, and the diagnostics both report."""

import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import kknapsack.combiner as combiner
from conftest import F, ZERO, best_subset, inst_of, member_ids, solve_fine
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
    Item,
    Mode,
    Solution,
    evaluate_solution,
    make_solution,
)
from kknapsack.large_items import ProfitGrid, build_phi_L, convolve, table_format, trivial_table
from kknapsack.oracles import brute_force, exact_dp, full_split_sweep, reference_candidates
from kknapsack.preprocessing import build_partition, candidate_view, half_approx_opt
from kknapsack.small_items import solver_for_partition
from test_acceptance import c02_instances, c11_instances


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
        # eps_int is eps when the LP bound certifies that answer and eps/8,
        # which the accuracy contract's loss terms assume, otherwise; there
        # is no parameter to change either.
        inst = generate_instance("uniform", 12, 3, seed=5, weight_max=15)
        sol, det = solve_with_details(inst, F(1, 2))
        assert det["internal_eps"] == (F(1, 16) if det["fell_back"] else F(1, 2))
        assert det["partition"].epsilon == det["internal_eps"]
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

    def test_epsilon_read_exactly(self):
        # A float's binary expansion is never the accuracy meant (0.1 would
        # run at 3602879701896397/2^55): refused, as the instance formats
        # refuse it; a string parses exactly.
        inst = generate_instance("uniform", 40, 5, seed=3)
        with pytest.raises(TypeError):
            solve(inst, 0.1)
        sol, det = solve_with_details(inst, "1/4")
        assert sol == solve(inst, F(1, 4)) and det["internal_eps"] == F(1, 4)

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


def reference_completion(inst, rounding_ids) -> list:
    """The completed rounding's ids, computed on the instance's Fractions:
    the rounding, then in at-most mode the other positive-profit candidates
    by decreasing profit (ties: lighter, then lower id), each taken while
    fewer than K are taken and it fits."""
    ids = list(rounding_ids)
    if inst.mode is Mode.EXACT:
        return ids
    by_id = inst.by_id
    room = inst.budget - sum((by_id[i].weight for i in ids), ZERO)
    taken = set(ids)
    rest = sorted(
        (it for it in reference_candidates(inst) if it.profit > 0 and it.id not in taken),
        key=lambda it: (-it.profit, it.weight, it.id),
    )
    for it in rest:
        if len(ids) == inst.cardinality:
            break
        if it.weight <= room:
            ids.append(it.id)
            room -= it.weight
    return ids


class TestCompletedRounding:
    """combiner.completed_rounding, the middle rung, stays feasible and
    equals the Fraction reference on degenerate inputs in both modes."""

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    @pytest.mark.parametrize(
        "row",
        [
            "zero-profits",
            "zero-weights",
            "equal-ratios",
            "K-at-least-n",
            "zero-budget",
            "huge-denominators",
            "fractional-weights",
            "huge-values",
        ],
    )
    def test_feasible_on_degenerate_inputs(self, row, mode):
        if row == "fractional-weights":
            inst = generate_instance("correlated", 40, 6, seed=4, integral=False)
        elif row == "huge-values":  # profits near 2^70, weights times 2^70
            base = degenerate_instance("equal-ratios")
            inst = replace(base, items=tuple(
                replace(it, profit=it.profit * 2**70 + it.id, weight=it.weight * 2**70)
                for it in base.items
            ), budget=base.budget * 2**70)
        else:
            inst = degenerate_instance(row)
        inst = replace(inst, mode=mode)
        try:
            view = candidate_view(inst)
        except InfeasibleInstanceError:
            assert mode is Mode.EXACT
            return
        if row in ("huge-denominators", "huge-values"):
            assert view.P.dtype == object or view.W.dtype == object
        estimate = half_approx_opt(inst, view)
        rows = combiner.completed_rounding(inst, view, estimate.rounding)
        ids = view.ids[rows].tolist()
        assert len(set(ids)) == len(ids)
        assert ids == reference_completion(inst, view.ids[estimate.rounding].tolist())
        if mode is Mode.EXACT:
            assert len(ids) == inst.cardinality
        sol = make_solution(inst, ids, F(1, 2))
        feas = evaluate_solution(inst, sol)
        assert feas.feasible, feas.violations
        assert view.totals(rows) == (sol.total_profit, sol.total_weight)
        # The completion never loses the rounding's value.
        assert view.totals(estimate.rounding)[0] <= sol.total_profit
        # Whatever rung answers, the solve is feasible.
        answer, _ = solve_with_details(inst, F(1, 2))
        feas = evaluate_solution(inst, answer)
        assert feas.feasible, feas.violations


    def test_equals_the_plain_scan(self):
        # The prefix, jump and suffix-minimum scan picks the rows, in the
        # same order, that the plain scan below picks one candidate at a
        # time: on C02's corpus, the tie-heavy instances and uniform
        # n = 20000, whose rounding leaves little room for many candidates.
        cases = c02_instances() + tie_heavy_instances()
        cases.append(generate_instance("uniform", 20000, 256, seed=1))
        completed = 0
        for inst in cases:
            view = candidate_view(inst)
            rounding = half_approx_opt(inst, view).rounding
            rows = combiner.completed_rounding(inst, view, rounding)
            assert np.array_equal(rows, plain_completion(inst, view, rounding))
            completed += len(rows) > len(rounding)
        assert completed > len(cases) // 2


def plain_completion(inst, view, rounding):
    """completed_rounding as a plain scan: the positive-profit candidates
    outside the rounding by decreasing P (ties: lighter W, then lower row),
    each taken while fewer than K are taken and it fits."""
    P, W = view.P, view.W
    free = P > 0
    free[rounding] = False
    rest = np.flatnonzero(free)
    rest = rest[np.lexsort((rest, W[rest], -P[rest]))]
    room = math.floor(inst.budget * view.lw) - int(W[rounding].sum())
    picked = []
    for row, w in zip(rest.tolist(), W[rest].tolist()):
        if len(rounding) + len(picked) == inst.cardinality:
            break
        if w <= room:
            picked.append(row)
            room -= w
    return np.concatenate((rounding, np.array(picked, dtype=rounding.dtype)))

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
        base, _ = solve_with_details(inst, F(1, 4))
        scaled = Instance(
            items=tuple(replace(it, weight=it.weight / 7) for it in inst.items),
            budget=inst.budget / 7,
            cardinality=inst.cardinality,
            mode=inst.mode,
        )
        other, _ = solve_with_details(scaled, F(1, 4))
        assert other.selected == base.selected
        _, det = solve_fine(inst, F(1, 4))
        _, det7 = solve_fine(scaled, F(1, 4))
        if det["partition"].large_classes:
            assert det7["table"].weight_scale == 7 * det["table"].weight_scale

    def test_details_surface(self):
        inst = generate_instance("uniform", 18, 4, seed=9, weight_max=25)
        sol, det = solve_fine(inst, F(1, 4))
        for key in (
            "internal_eps",
            "opt_estimate",
            "z",
            "grid_m",
            "table_cells",
            "split",
            "split_count",
            "split_queries",
            "partition",
            "table",
            "large_rows",
            "small_rows",
            "small_pool",
            "small_passes",
            "small_exact_keys",
        ):
            assert key in det, key
        assert det["small_pool"] == det["partition"].small_item_count
        # The chosen split's small query runs at least the pass at nu = 0,
        # unless it asks for no units.
        asks_units = det["small_pool"] > 0 and det["split"].large_slots < inst.cardinality
        assert det["small_passes"] >= asks_units
        assert 0 <= det["small_exact_keys"] <= det["small_passes"] * det["small_pool"]
        assert isinstance(det["split"], SplitCandidate)
        assert 1 <= det["split_queries"] <= det["split_count"]
        assert det["grid_m"] == det["partition"].z * det["table"].grid.top_anchor
        rows = det["large_rows"] + det["small_rows"]
        assert frozenset(member_ids(det["partition"], rows)) == sol.selected
        assert len(rows) == sol.count
        assert det["split"].total == det["split"].small_value + det[
            "table"
        ].grid.profit_value(det["split"].grid_index)


    def test_details_report_a_float_pool(self):
        # K = 20 > 1/eps_int = 16, where the paper would switch to its
        # ladder, over a pool of 50 items: the box LP answers it and the
        # selection is feasible.
        inst = generate_instance("correlated", 300, 20, seed=2)
        sol, det = solve_fine(inst, F(1, 2))
        assert inst.cardinality * det["internal_eps"] > 1
        pool = det["partition"].small_item_count
        assert pool == 50
        assert det["small_pool"] == pool
        feas = evaluate_solution(inst, sol)
        assert feas.feasible, feas.violations

    def test_answer_rejects_a_row_taken_twice(self):
        # The answer concatenates the large and small rows; a row in both
        # would count its candidate twice.
        inst = inst_of([(1, 5, 1), (2, 4, 1), (3, 3, 1)], 3, 2)
        view = candidate_view(inst)
        assert combiner._view_solution(inst, view, np.array([0, 2]), F(1, 4)).count == 2
        with pytest.raises(AssertionError, match="twice"):
            combiner._view_solution(inst, view, np.array([1, 1]), F(1, 4))


def sweep_level(inst, eps_int):
    """(solution, details, ties, asked) of one pipeline run at internal
    accuracy eps_int, whose split must be the first maximum of the unpruned
    sweep; ties counts the splits of that sweep at the maximum and asked
    the splits it asked."""
    sol, det = combiner.solve_at_accuracy(inst, eps_int, eps_int, half_approx_opt(inst))
    part = det["partition"]
    first, total, ties, asked = full_split_sweep(
        det["table"], solver_for_partition(part), inst.budget, part.cardinality
    )
    split = det["split"]
    assert (split.large_slots, split.grid_index) == first
    assert split.total == total
    assert 1 <= det["split_queries"] <= det["split_count"] <= asked
    return sol, det, ties, asked


def in_mode(inst, mode):
    """inst in the given mode; in exactly-K mode its budget is raised, when
    needed, to the weight of the K lightest items, so that it is feasible."""
    if mode is Mode.EXACT:
        lightest = sorted(it.weight for it in inst.items)[: inst.cardinality]
        inst = replace(inst, budget=max(inst.budget, sum(lightest, ZERO)))
    return replace(inst, mode=mode)


def tie_heavy_instances():
    """Subset-sum instances, where profit equals weight, and instances of
    identical items, where every split with the same counts ties."""
    out = []
    for seed in range(12):
        rnd = random.Random(7_000 + seed)
        n, K = rnd.randint(20, 120), rnd.randint(2, 12)
        out.append(generate_instance("subset-sum", n, K, seed=seed, weight_max=30))
    for n, K, budget in ((12, 4, 20), (30, 6, 17), (40, 10, 50)):
        out.append(inst_of([(uid, 5, 5) for uid in range(1, n + 1)], budget, K))
    return out


class TestSplitSweep:
    """The best-first sweep asks the small side only for splits whose bound
    can still win, and must pick the first maximum of the full sweep: the
    same split, by its order (k outer, anchors ascending), and total."""

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
        # are not even enumerated, and most of the rest are never asked.
        inst = generate_instance(family, n, K, seed=seed)
        _, det, _, asked = sweep_level(inst, eps / 8)
        assert det["split_count"] < asked  # some split was dominated

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_c02_corpus_matches_the_full_sweep(self, mode):
        # Each instance at one of its C02 accuracies, at the paper's level
        # eps/8 and at the coarse level eps.
        queries = splits = 0
        for i, inst in enumerate(c02_instances()):
            eps = (F(1, 10), F(3, 10))[i % 2]
            for eps_int in (eps / 8, eps):
                _, det, *_ = sweep_level(in_mode(inst, mode), eps_int)
                queries += det["split_queries"]
                splits += det["split_count"]
        # The bounds settle most splits: at most a quarter are asked (14% at
        # most K and 14% exactly K when this guard was set).
        assert queries <= 0.25 * splits, (queries, splits)

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_tie_heavy_instances_match_the_full_sweep(self, mode):
        tied = 0
        for inst in tie_heavy_instances():
            for eps_int in (F(1, 4), F(1, 16)):
                tied += sweep_level(in_mode(inst, mode), eps_int)[2] > 1
        # At most K, most of these sweeps reach their maximum at several
        # splits; exactly K, a tie at the maximum is rare.
        assert tied >= (15 if mode is Mode.AT_MOST else 1), tied

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_object_cells_match_the_full_sweep(self, mode):
        # Weights and budget times 2^70: the fold takes object cells and the
        # small pool Python-int sums; the split is the unscaled one's.
        for seed, family in enumerate(["uniform", "correlated", "subset-sum"]):
            base = in_mode(generate_instance(family, 60, 6, seed=seed, weight_max=30), mode)
            big = Instance(
                items=tuple(replace(it, weight=it.weight * 2**70) for it in base.items),
                budget=base.budget * 2**70,
                cardinality=base.cardinality,
                mode=mode,
            )
            sol, det, *_ = sweep_level(big, F(1, 16))
            assert det["table"].values.dtype == object
            ref, det_ref, *_ = sweep_level(base, F(1, 16))
            assert sol.selected == ref.selected
            split, split_ref = det["split"], det_ref["split"]
            assert (split.large_slots, split.grid_index) == (
                split_ref.large_slots,
                split_ref.grid_index,
            )


# The exactly-K sweep over the C02 corpus (see test_exactly_k_sweep_is_unchanged):
# small queries asked, read from the sweep's best-first queue over the grid
# cut at lp_bound (1289 over the uncut grid: the cut drops splits whose
# small side has no K - k units), and the answers' total profit, read
# before cross-k dominance.
EXACT_C02_QUERIES = 1268
EXACT_C02_PROFIT = 29375


def dominated_splits(det, budget):
    """The splits the sweep enumerates, as arrays k, x and w (the scaled
    table weight) over the fitting anchor cells with the largest anchor per
    weight within each k, and the matrix by[i, j]: split j dominates split
    i, k_j < k_i, x_j >= x_i and w_j <= w_i. Read cell by cell from the
    table, with no running minimum."""
    table = det["table"]
    fit = budget * table.weight_scale
    splits = []
    for k in range(table.grid.z + 1):
        largest = {}
        for x in table.grid.anchor_indices():
            if table.is_finite(x, k) and table.values[x, k] <= fit:
                largest[int(table.values[x, k])] = x
        splits += [(k, x, w) for w, x in largest.items()]
    k, x, w = (np.array(col) for col in zip(*splits))
    by = (k[None, :] < k[:, None]) & (x[None, :] >= x[:, None]) & (w[None, :] <= w[:, None])
    return k, x, w, by


def sweep_with_asked(inst, eps_int, monkeypatch):
    """sweep_level's run, also returning the (k, scaled table weight) of
    every split the production sweep asked of the small side."""
    asked = []

    def recording(partition):
        small = solver_for_partition(partition)
        phi_dag = small.phi_dag

        def query(omega, cap):
            asked.append((omega, cap))
            return phi_dag(omega, cap)

        small.phi_dag = query
        return small

    with monkeypatch.context() as m:
        m.setattr(combiner, "solver_for_partition", recording)
        sol, det, *_ = sweep_level(inst, eps_int)
    scale, K = det["table"].weight_scale, det["partition"].cardinality
    return sol, det, {(K - cap, (inst.budget - omega) * scale) for omega, cap in asked}


class TestCrossKDominance:
    """At most K, the sweep drops every split (k, x) of table weight w that
    a split (k', x') with k' < k, x' >= x and w' <= w dominates, before its
    bounds are formed. Exactly K it drops none."""

    def check_level(self, inst, eps_int, monkeypatch):
        _, det, asked = sweep_with_asked(inst, eps_int, monkeypatch)
        k, x, w, by = dominated_splits(det, inst.budget)
        dropped = by.any(axis=1)
        assert det["split_count"] == len(k)
        assert det["split_dominated"] == dropped.sum()
        # Each dropped split has a dominator that is kept, and no dropped
        # split is asked; the chosen one (the full sweep's first maximum,
        # checked by sweep_level) is kept.
        assert (by[dropped] & ~dropped).any(axis=1).all()
        kept = {(int(kk), int(ww)) for kk, ww in zip(k[~dropped], w[~dropped])}
        assert asked <= kept
        split = det["split"]
        assert (split.large_slots, split.large_weight * det["table"].weight_scale) in kept
        return det

    def test_c02_corpus(self, monkeypatch):
        dominated = splits = 0
        for i, inst in enumerate(c02_instances()):
            eps = (F(1, 10), F(3, 10))[i % 2]
            for eps_int in (eps / 8, eps):
                det = self.check_level(inst, eps_int, monkeypatch)
                dominated += det["split_dominated"]
                splits += det["split_count"]
        # Most splits are dominated (81% when this guard was set).
        assert dominated >= 0.5 * splits, (dominated, splits)

    def test_tie_heavy_instances(self, monkeypatch):
        dominated = splits = 0
        for inst in tie_heavy_instances():
            for eps_int in (F(1, 4), F(1, 16)):
                det = self.check_level(inst, eps_int, monkeypatch)
                dominated += det["split_dominated"]
                splits += det["split_count"]
        # 84% when this guard was set.
        assert dominated >= 0.5 * splits, (dominated, splits)

    def test_exactly_k_sweep_is_unchanged(self):
        # The C02 corpus in exactly-K mode drops no split by cross-k
        # dominance and answers as the sweep before it did: the profit was
        # read from that sweep, the query count from the best-first queue.
        queries, profit = 0, ZERO
        for i, inst in enumerate(c02_instances()):
            eps = (F(1, 10), F(3, 10))[i % 2]
            for eps_int in (eps / 8, eps):
                sol, det, *_ = sweep_level(in_mode(inst, Mode.EXACT), eps_int)
                assert det["split_dominated"] == 0
                queries += det["split_queries"]
                profit += sol.total_profit
        assert (queries, profit) == (EXACT_C02_QUERIES, EXACT_C02_PROFIT)


def uncut_table(part):
    """The fold of part's large classes over all ceil(1/eps) anchors of its
    grid, keeping every stage's values: the table before the LP cut."""
    grid = ProfitGrid.from_partition(part)
    grid = replace(grid, top_anchor=math.ceil(1 / part.epsilon))
    acc = trivial_table(grid, *table_format(part.large_classes), exactly_k=part.exactly_k)
    for cls in part.large_classes:
        acc = convolve(acc, cls)
    return acc


class TestGridCut:
    """The profit grid stops at the first anchor reaching lp_bound
    (ProfitGrid.from_partition): every row it keeps is the uncut fold's,
    and no split above it can answer."""

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_no_split_above_the_cut_answers(self, mode):
        # C02's corpus and C11's, each at its eps and at eps/8. Above the
        # cut an uncut table may still hold fitting cells exactly K, but
        # their small side never finds K - k units; at most K (where the
        # empty small side always answers) it holds none.
        corpus = [(inst, (F(1, 10), F(3, 10))[i % 2]) for i, inst in enumerate(c02_instances())]
        anchors = [0, 0]  # kept, uncut
        fitting_above = 0
        for inst, eps in corpus + c11_instances():
            inst = in_mode(inst, mode)
            estimate = half_approx_opt(inst)
            if estimate.value == 0:
                continue
            for eps_int in (eps, eps / 8):
                part = build_partition(inst, eps_int, estimate)
                table, full = build_phi_L(part), uncut_table(part)
                m = table.grid.m
                anchors[0] += table.grid.top_anchor
                anchors[1] += full.grid.top_anchor
                assert np.array_equal(table.values, full.values[: m + 1])
                cut, uncut = table, full
                while cut.stage is not None:
                    assert np.array_equal(cut.backptr, uncut.backptr[: m + 1])
                    cut, uncut = cut.stage.prev, uncut.stage.prev
                small = solver_for_partition(part)
                for k in range(full.grid.z + 1):
                    for x in full.grid.anchor_indices():
                        w = full.value_at(x, k)
                        if x <= m or w is None or w > inst.budget:
                            continue
                        fitting_above += 1
                        assert mode is Mode.EXACT, (x, k)
                        assert small.phi_dag(inst.budget - w, inst.cardinality - k) is None
        # The cut binds: it keeps 6668 of 11414 anchors at most K and 6129
        # of 11450 exactly K, where 44 fitting cells lie above it.
        assert anchors[0] < 0.6 * anchors[1]
        assert fitting_above > 0 if mode is Mode.EXACT else fitting_above == 0


class TestBestFirstQueue:
    """The sweep asks the small side for exactly the kept splits that can
    still win: those whose bound x*delta + top(K - k) beats the final
    total, and those whose bound ties it at or before the winner in the
    sweep order (k ascending, then anchors ascending)."""

    def check_level(self, inst, eps_int, monkeypatch):
        _, det, asked = sweep_with_asked(inst, eps_int, monkeypatch)
        k, x, w, by = dominated_splits(det, inst.budget)
        kept = ~by.any(axis=1) if inst.mode is Mode.AT_MOST else np.ones(len(k), bool)
        # top(c): the c largest rounded profits of the small pool, the
        # fillers at 0; exactly K there is no top beyond the pool.
        part = det["partition"]
        pool = sorted(
            [c.rounded_profit for c in part.small_classes for _ in range(c.size)]
            + [ZERO] * len(part.filler_rows),
            reverse=True,
        )
        K, delta = part.cardinality, det["table"].grid.delta
        split = det["split"]
        best, winner = split.total, (split.large_slots, split.grid_index)
        want = set()
        for kk, xx, ww in zip(k[kept].tolist(), x[kept].tolist(), w[kept].tolist()):
            c = K - kk
            if inst.mode is Mode.EXACT and c > len(pool):
                continue
            bound = xx * delta + sum(pool[:c], ZERO)
            if bound > best or (bound == best and (kk, xx) <= winner):
                want.add((kk, ww))
        assert asked == want
        assert det["split_queries"] == len(want)

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_c02_corpus(self, mode, monkeypatch):
        for i, inst in enumerate(c02_instances()):
            eps = (F(1, 10), F(3, 10))[i % 2]
            for eps_int in (eps, eps / 8):
                self.check_level(in_mode(inst, mode), eps_int, monkeypatch)

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_tie_heavy_instances(self, mode, monkeypatch):
        for inst in tie_heavy_instances():
            for eps_int in (F(1, 4), F(1, 32)):
                self.check_level(in_mode(inst, mode), eps_int, monkeypatch)


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

    def test_zero_profit_shortcut_breaks_weight_ties_by_id(self):
        # The answer is the estimate's rounding: the K lightest by weight,
        # the lower id first among equal weights, whatever the input order.
        items = [(5, 0, 2), (3, 0, 1), (9, 0, 2), (1, 0, F(5, 2)), (7, 0, 2), (2, 0, 3)]
        inst = inst_of(items, 6, 3, mode=Mode.EXACT)
        sol, det = solve_with_details(inst, F(1, 2))
        assert sol.selected == {3, 5, 7} and sol.total_weight == 5
        assert det["answer"] == "trivial" and det["trivial"] is True and det["rounds"] == []
        assert det["exact_mode"] is True
        at_most, det = solve_with_details(in_mode(inst, Mode.AT_MOST), F(1, 2))
        assert at_most.selected == frozenset() and det["answer"] == "trivial"

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
            levels = (eps, eps / 8)[: 1 + det["fell_back"]]
            assert det["rounds"] == [{"internal_eps": e} for e in levels]
            assert det["internal_eps"] == levels[-1]

    def test_details_surface(self):
        inst = self.exact_inst(77, n=12, K=3)
        sol, det = solve_with_details(inst, F(1, 4))
        assert det["exact_mode"] is True
        assert det["rounds"][-1] == {"internal_eps": det["internal_eps"]}
        assert det["final"] == {"grid_m": det["grid_m"]}
        # One pipeline: the at-most keys.
        _, det_atmost = solve_with_details(replace(inst, mode=Mode.AT_MOST), F(1, 4))
        assert set(det_atmost) <= set(det)
        assert det["grid_m"] == det["partition"].z * det["table"].grid.top_anchor
        assert 1 <= det["split_queries"] <= det["split_count"]
        assert det["partition"].exactly_k is True
        rows = det["large_rows"] + det["small_rows"]
        assert frozenset(member_ids(det["partition"], rows)) == sol.selected
        assert len(det["large_rows"]) == det["split"].large_slots
        assert len(det["small_rows"]) == 3 - det["split"].large_slots

    def test_grid_does_not_grow_with_k(self):
        # The former profit shift drove the internal accuracy towards
        # eps/(32K); the native pipeline keeps eps/8 in both modes. Of the
        # grid's 32 anchors the rows keep those up to lp_bound: it is half
        # the estimate at K = 5 and 20 (anchor 16) and 0.07% above half at
        # K = 80 (anchor 17), in both modes.
        base = generate_instance("uniform", 200, 20, seed=3)
        budget = sum(it.weight for it in base.items) / 4
        for K in (5, 20, 80):
            grids = []
            for mode in (Mode.AT_MOST, Mode.EXACT):
                inst = Instance(items=base.items, budget=budget, cardinality=K, mode=mode)
                sol, det = solve_fine(inst, F(1, 4))
                grids.append(det["grid_m"])
                assert evaluate_solution(inst, sol).feasible
            assert grids[0] == grids[1] == min(K, 32) * (17 if K == 80 else 16)

    def test_fillers_complete_the_selection(self):
        # Three valuable items and many nearly worthless light ones: every
        # 6-set needs three items from below the profit floor, which the
        # partition keeps as zero-profit fillers.
        triples = [(1, 900, 5), (2, 800, 5), (3, 700, 5)]
        triples += [(uid, 1, 1) for uid in range(4, 14)]
        inst = inst_of(triples, 18, 6, mode=Mode.EXACT)
        sol, det = solve_with_details(inst, F(1, 4))
        part = det["partition"]
        assert len(part.filler_rows) == 6  # the K lightest of the ten
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


class TestCoarseToFine:
    """solve_with_details keeps its answer at eps_int = eps only when the
    LP bound certifies it, value >= (1 - eps/2) * lp_bound, then the
    completed LP rounding under the same certificate, and otherwise answers
    at eps/8."""

    def test_uncertified_coarse_answer_takes_the_rounding(self):
        # The first C02 instance (uniform, n=141, K=13) at eps = 1/10: the
        # coarse answer fails the certificate, the completed rounding meets it.
        eps = F(1, 10)
        inst = c02_instances()[0]
        estimate = half_approx_opt(inst)
        coarse, _ = combiner.solve_at_accuracy(inst, eps, eps, estimate)
        assert coarse.total_profit < (1 - eps / 2) * estimate.lp_bound
        sol, det = solve_with_details(inst, eps)
        assert det["answer"] == "rounding" and not det["fell_back"]
        assert det["internal_eps"] == eps
        view = candidate_view(inst)
        rows = combiner.completed_rounding(inst, view, estimate.rounding)
        assert sol.selected == frozenset(view.ids[rows].tolist())
        assert det["lp_bound"] == estimate.lp_bound
        assert det["certified_ratio"] == sol.total_profit / estimate.lp_bound
        assert det["certified_ratio"] >= 1 - eps / 2
        assert sol.total_profit >= (1 - eps) * exact_dp(inst).value

    def test_uncertified_coarse_answer_falls_back(self):
        # The fifth C02 instance (correlated, n=55, K=2) at eps = 1/10: both
        # the coarse answer and the completed rounding fail the certificate.
        eps = F(1, 10)
        inst = c02_instances()[4]
        estimate = half_approx_opt(inst)
        target = (1 - eps / 2) * estimate.lp_bound
        coarse, _ = combiner.solve_at_accuracy(inst, eps, eps, estimate)
        assert coarse.total_profit < target
        view = candidate_view(inst)
        rows = combiner.completed_rounding(inst, view, estimate.rounding)
        assert view.totals(rows)[0] < target
        sol, det = solve_with_details(inst, eps)
        assert det["answer"] == "fine"
        assert det["fell_back"] and det["internal_eps"] == eps / 8
        assert det["lp_bound"] == estimate.lp_bound
        assert det["certified_ratio"] == sol.total_profit / estimate.lp_bound
        assert sol.total_profit >= (1 - eps) * exact_dp(inst).value

    @pytest.fixture(scope="class")
    def c02_solves(self):
        """(eps, OPT, solution, details) of every C02 solve."""
        out = []
        for inst in c02_instances():
            opt = exact_dp(inst).value
            for eps in (F(1, 10), F(3, 10)):
                out.append((eps, opt, *solve_with_details(inst, eps)))
        return out

    def test_certified_answers_against_exact_dp(self, c02_solves):
        for eps, opt, sol, det in c02_solves:
            assert det["lp_bound"] >= opt
            assert sol.total_profit >= (1 - eps) * opt
            if not det["fell_back"]:  # a coarse or rounding answer
                assert det["internal_eps"] == eps
                assert sol.total_profit >= (1 - eps / 2) * opt

    def test_no_coarse_answer_is_accepted_unchecked(self, c02_solves):
        answers = Counter()
        for eps, _, sol, det in c02_solves:
            assert det["certified_ratio"] == sol.total_profit / det["lp_bound"]
            answers[det["answer"]] += 1
            assert det["fell_back"] == (det["answer"] == "fine")
            if det["fell_back"]:
                assert det["internal_eps"] == eps / 8
            else:
                assert det["certified_ratio"] >= 1 - eps / 2
        # Accepting every coarse answer would never reach the other rungs,
        # and accepting every completed rounding would never fall back. On
        # this corpus a third of the solves take the rounding (67 of 200)
        # and a few fall back (6).
        assert answers["rounding"] > 0
        assert 0 < answers["fine"] < answers["rounding"]
        assert answers["coarse"] + answers["rounding"] + answers["fine"] == len(c02_solves)

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_trivial_instance_reports_the_certificate(self, mode):
        inst = inst_of([(1, 0, 2), (2, 0, 1), (3, 0, 3)], 4, 2, mode=mode)
        _, det = solve_with_details(inst, F(1, 2))
        assert det["trivial"] and not det["fell_back"]
        assert det["lp_bound"] == 0 and det["certified_ratio"] == 1


class TestPerItemWork:
    def test_no_fraction_comparison_per_item(self, monkeypatch):
        # Validation, candidates, the view, the estimate and the partition
        # read integers: a Fraction comparison per item would show as a
        # count that grows with n. The n = 2000 instance is the n = 200
        # uniform one plus 900 zero-profit items that fit and 900 that do
        # not, shuffled under fresh ids, so that the layers after them run
        # alike (generated uniform instances of the two sizes ask different
        # numbers of small-side queries, each comparing a few budgets).
        calls = []
        for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
            original = getattr(Fraction, name)

            def counting(a, b, original=original):
                calls.append(1)
                return original(a, b)

            monkeypatch.setattr(Fraction, name, counting)
        base = generate_instance("uniform", 200, 16, seed=5)
        counts, selections = [], []
        for n in (200, 2000):
            pad = [
                Item(201 + j, F(0) if j % 2 else F(10**6), F(1) if j % 2 else base.budget + 1)
                for j in range(n - 200)
            ]
            items = list(base.items) + pad
            random.Random(n).shuffle(items)
            inst = Instance(tuple(items), base.budget, base.cardinality)
            calls.clear()
            sol, _ = solve_with_details(inst, F(1, 4))
            counts.append(len(calls))
            selections.append(sol.selected)
        assert selections[0] == selections[1]
        assert counts[0] == counts[1] < 200, counts

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_each_item_value_is_read_once(self, mode):
        # A solve reads its items in one pass (instance_model.item_columns)
        # and shares it between validation, the candidates and their view:
        # each profit's and weight's numerator and denominator are read at
        # most once. Any later Fraction comparison or arithmetic on an item
        # value would read them again. An as_integer_ratio() call reads both
        # fields once.
        reads = Counter()

        class Counted(Fraction):
            @property
            def numerator(self):
                reads[id(self), "numerator"] += 1
                return self._numerator

            @property
            def denominator(self):
                reads[id(self), "denominator"] += 1
                return self._denominator

            def as_integer_ratio(self):
                reads[id(self), "numerator"] += 1
                reads[id(self), "denominator"] += 1
                return self._numerator, self._denominator

        base = generate_instance("uniform", 200, 16, seed=5, integral=False)
        items = tuple(Item(it.id, Counted(it.profit), Counted(it.weight)) for it in base.items)
        inst = Instance(items, base.budget, base.cardinality, mode)
        sol, _ = solve_with_details(inst, F(1, 4))
        assert sol.selected and max(reads.values()) == 1
        assert len(reads) == 4 * len(items)  # every value read, each field once

