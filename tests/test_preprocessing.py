"""Optimum estimate and geometric profit classes: the partition's integer
class thresholds, computed with exact powers of the growth, against the
reference partition's per-item index search (oracles.geometric_index_up,
itself checked here against a linear scan)."""

import itertools
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import F, ZERO, best_subset, inst_of, member_ids, partition_fields
from kknapsack import combiner, oracles, preprocessing, solve_with_details
from kknapsack.generator import DISTRIBUTIONS, generate_instance
from kknapsack.instance_model import Instance, Item, Mode
from kknapsack.oracles import check_partition, geometric_index_up, reference_candidates
from kknapsack.oracles import reference_partition
from kknapsack.preprocessing import (
    OptimumEstimate,
    TrivialInstanceError,
    build_partition,
    candidate_view,
    half_approx_opt,
)
from test_acceptance import c02_instances
from test_combiner import in_mode, tie_heavy_instances

ROOT = Path(__file__).resolve().parent.parent


class TestHalfApproxOpt:
    def test_single_item(self):
        estimate = half_approx_opt(inst_of([(1, 10, 1)], 1, 1))
        assert (estimate.value, estimate.lp_bound) == (10, 10)

    def test_nothing_fits(self):
        estimate = half_approx_opt(inst_of([(1, 10, 5)], 1, 1))
        assert (estimate.value, estimate.lp_bound) == (0, 0)

    @pytest.mark.parametrize("seed", range(12))
    def test_two_sided_bound(self, seed):
        dist = ("uniform", "correlated", "subset-sum")[seed % 3]
        inst = generate_instance(dist, 12, 3, seed=100 + seed, weight_max=30)
        estimate = half_approx_opt(inst)
        v, opt = estimate.value, best_subset(inst)[0]
        assert v <= opt <= 2 * v and opt <= estimate.lp_bound

    @pytest.mark.parametrize("seed", range(12))
    def test_two_sided_bound_exactly_k(self, seed):
        # The equality-row LP bounds the best exactly-K value: OPT_K <= LP_K.
        dist = ("uniform", "correlated", "subset-sum")[seed % 3]
        base = generate_instance(dist, 12, 3, seed=100 + seed, weight_max=30)
        budget = sum(it.weight for it in base.items) / 3  # above the 3 lightest
        inst = Instance(base.items, budget, base.cardinality, Mode.EXACT)
        estimate = half_approx_opt(inst)
        v, opt = estimate.value, best_subset(inst, exact_count=inst.cardinality)[0]
        assert v <= opt <= 2 * v and opt <= estimate.lp_bound


class TestGeometricIndexUp:
    """The reference partition's index search."""

    @given(
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(10**6)),
        st.sampled_from([F(1, 2), F(3, 10), F(1, 7), F(2, 3)]),
    )
    def test_geometric_index_up_matches_brute_force(self, ratio, eps):
        got = geometric_index_up(ratio, eps)
        i = 0
        while (1 + eps) ** i < ratio:
            i += 1
        assert got == i

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 23])
    def test_geometric_index_up_exact_tie(self, k):
        eps = F(3, 10)
        assert geometric_index_up((1 + eps) ** k, eps) == k


def reference_classes(inst, eps):
    """Classify items straight from the interval definitions with plain
    Fraction arithmetic and a linear index scan -- independent of the
    partition's integer thresholds and of any index search."""
    opt = 2 * half_approx_opt(inst).value
    lf = eps * opt
    large: dict[int, set] = {}
    small: dict[int, set] = {}
    dropped: set[int] = set()
    for it in inst.items:
        if it.weight > inst.budget:
            dropped.add(it.id)
            continue
        p = it.profit
        if p < lf / inst.cardinality:
            dropped.add(it.id)
        elif p <= lf:
            # Round down to the nearest grid value lf*(1+eps)^(-i) <= p.
            i = 0
            while lf / (1 + eps) ** i > p:
                i += 1
            small.setdefault(i, set()).add(it.id)
        else:
            # Round up to the nearest grid value lf*(1+eps)^i >= p.
            i = 1
            while lf * (1 + eps) ** i < p:
                i += 1
            large.setdefault(i, set()).add(it.id)
    return lf, large, small, dropped


class TestBuildPartition:
    def test_epsilon_range_enforced(self):
        inst = inst_of([(1, 1, 1)], 2, 1)
        for bad in (0, 1, F(3, 2), -1):
            with pytest.raises(ValueError):
                build_partition(inst, bad)

    def test_epsilon_read_exactly(self):
        inst = generate_instance("uniform", 40, 5, seed=3)
        with pytest.raises(TypeError):
            build_partition(inst, 0.1)
        read = partition_fields(build_partition(inst, "1/4"))
        assert read == partition_fields(build_partition(inst, F(1, 4)))

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_rows_are_intp_arrays(self, mode):
        # Every class and the fillers hold their view rows as np.intp
        # arrays, in build_partition's partition and in the reference's.
        base = generate_instance("uniform", 60, 3, seed=0)
        inst = Instance(base.items, sum(it.weight for it in base.items) / 10, 3, mode)
        for part in (build_partition(inst, F(1, 8)), reference_partition(inst, F(1, 8))):
            assert part.large_classes and part.small_classes
            assert (len(part.filler_rows) == 3) == (mode is Mode.EXACT)
            rows = [c.rows for c in part.large_classes + part.small_classes] + [part.filler_rows]
            assert all(type(r) is np.ndarray and r.dtype == np.intp for r in rows)

    def test_one_view_without_arguments(self, monkeypatch):
        # Called alone, the partition builds the candidates' view once and
        # hands it to the estimate.
        calls = []
        view = preprocessing.candidate_view
        monkeypatch.setattr(
            preprocessing, "candidate_view", lambda inst: calls.append(inst) or view(inst)
        )
        build_partition(generate_instance("uniform", 40, 5, seed=3), F(1, 4))
        assert len(calls) == 1

    def test_trivial_when_nothing_fits(self):
        with pytest.raises(TrivialInstanceError):
            build_partition(inst_of([(1, 5, 9)], 2, 1), F(1, 2))

    def test_trivial_when_profits_zero(self):
        with pytest.raises(TrivialInstanceError):
            build_partition(inst_of([(1, 0, 1), (2, 0, 1)], 2, 1), F(1, 2))

    def test_boundary_profit_forms_single_small_class(self):
        # Four copies of (p=1, w=1) under budget 4: the relaxation takes all
        # four, so the optimum estimate is 8 and with eps=1/8 the small/large
        # cutoff lands exactly on every profit. One small class, zero loss.
        inst = inst_of([(i, 1, 1) for i in range(1, 5)], 4, 4)
        part = build_partition(inst, F(1, 8))
        assert part.opt_estimate == 8
        assert part.large_classes == ()
        assert len(part.small_classes) == 1
        klass = part.small_classes[0]
        assert klass.index == 0
        assert klass.rounded_profit == 1
        assert klass.size == 4

    def test_z_formula(self):
        inst = inst_of([(i, 10 + i, 1) for i in range(1, 9)], 8, 6)
        assert build_partition(inst, F(1, 2)).z == 2  # ceil(1/eps) = 2 < K
        assert build_partition(inst, F(1, 10)).z == 6  # K = 6 < 10

    def test_largest_class_index_is_bounded(self):
        # Profits never exceed the optimum estimate, so no large index can
        # exceed the smallest i with (1+eps)^i >= 1/eps.
        for seed in range(6):
            inst = generate_instance("uniform", 20, 5, seed=seed, weight_max=40)
            for eps in (F(1, 2), F(3, 10)):
                cap = geometric_index_up(1 / eps, eps)
                part = build_partition(inst, eps)
                for c in part.large_classes:
                    assert 1 <= c.index <= cap

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_interval_membership_reference(self, seed):
        dist = ("uniform", "correlated", "subset-sum")[seed % 3]
        inst = generate_instance(
            dist, 30, 4, seed=700 + seed, weight_max=25, integral=seed % 2 == 0
        )
        eps = (F(3, 10), F(1, 4), F(1, 2))[seed % 3]
        part = build_partition(inst, eps)
        lf, large_ref, small_ref, dropped_ref = reference_classes(inst, eps)

        assert part.opt_estimate == 2 * half_approx_opt(inst).value

        got_large = {c.index: set(member_ids(part, c.rows)) for c in part.large_classes}
        assert got_large == large_ref
        for c in part.large_classes:
            assert c.rounded_profit == lf * (1 + eps) ** c.index

        # Small classes keep only their K lightest members; the rest join
        # the discarded pool. Membership must still agree per interval.
        K = inst.cardinality
        pruned: set[int] = set()
        got_small = {c.index: set(member_ids(part, c.rows)) for c in part.small_classes}
        assert set(got_small) == set(small_ref)
        for c in part.small_classes:
            ref = small_ref[c.index]
            assert got_small[c.index] <= ref
            assert c.size == min(K, len(ref))
            kept_weights = sorted(
                (inst.by_id[i].weight, i) for i in got_small[c.index]
            )
            all_weights = sorted((inst.by_id[i].weight, i) for i in ref)
            assert kept_weights == all_weights[: c.size]
            pruned |= ref - got_small[c.index]
            assert c.rounded_profit == lf / (1 + eps) ** c.index

        assert part.discarded == frozenset(dropped_ref | pruned)

        # Every item lands in exactly one place.
        classified = set(part.discarded)
        for ids in got_large.values():
            assert not (classified & ids)
            classified |= ids
        for ids in got_small.values():
            assert not (classified & ids)
            classified |= ids
        assert classified == {it.id for it in inst.items}

    @pytest.mark.parametrize("seed", range(6))
    def test_rounding_loss_invariants(self, seed):
        inst = generate_instance("correlated", 24, 5, seed=50 + seed, weight_max=30)
        eps = F(1, 3)
        part = build_partition(inst, eps)
        for c in part.large_classes:
            for it in map(inst.by_id.get, member_ids(part, c.rows)):
                # Round-up: within one growth factor above the true profit.
                assert it.profit <= c.rounded_profit < (1 + eps) * it.profit
        for c in part.small_classes:
            for it in map(inst.by_id.get, member_ids(part, c.rows)):
                # Round-down: within one growth factor below the true profit.
                assert c.rounded_profit <= it.profit
                if c.index:
                    assert it.profit < (1 + eps) * c.rounded_profit
                else:
                    assert it.profit == c.rounded_profit

    @pytest.mark.parametrize("seed", range(6))
    def test_prefix_weights(self, seed):
        inst = generate_instance("uniform", 26, 5, seed=30 + seed, weight_max=30)
        part = build_partition(inst, F(1, 4))
        for c in part.large_classes:
            weights = [inst.by_id[i].weight for i in member_ids(part, c.rows)]
            assert weights == sorted(weights)
            assert c.weight_scale == part.view.lw
            prefix = [ZERO]
            for w in weights:
                prefix.append(prefix[-1] + w)
            assert list(c.prefix_weights) == [p * c.weight_scale for p in prefix]

    def test_estimate_brackets_true_optimum(self):
        for seed in range(8):
            inst = generate_instance("uniform", 14, 4, seed=900 + seed, weight_max=20)
            part = build_partition(inst, F(1, 4))
            opt = best_subset(inst)[0]
            assert opt <= part.opt_estimate <= 2 * opt

    def test_check_partition_accepts_every_build(self):
        for seed in range(5):
            inst = generate_instance(
                "subset-sum", 18, 3, seed=seed, weight_max=15, integral=False
            )
            part = build_partition(inst, F(2, 5))
            check_partition(part, inst)  # must not raise
            summary = part.summary()
            assert len(summary["large_classes"]) == len(part.large_classes)
            assert len(summary["small_classes"]) == len(part.small_classes)


def sort_everything(inst, eps):
    """(large, small, fillers, discarded) by the rule build_partition
    followed before its floor rows skipped the sort: every candidate in one
    stable lexsort on (class, W), each class a run of that order, small
    classes and the fillers cut to their K lightest. Classes are read with
    oracles.geometric_index_up on each distinct view profit; large and
    small are lists of (index, rows), and the ids of the items that are not
    candidates are discarded too."""
    view = candidate_view(inst)
    K, exactly_k = inst.cardinality, inst.mode is Mode.EXACT
    S = eps * 2 * half_approx_opt(inst, view).value * view.lp

    def klass(p):  # ascends with p: the floor, small classes, large classes
        if p * K < S:
            return 0, 0
        if p <= S:
            return 1, -geometric_index_up(S / p, eps)
        return 2, geometric_index_up(p / S, eps)

    P = view.P.tolist()
    key = {p: klass(p) for p in set(P)}
    rank = {k: r for r, k in enumerate(sorted(set(key.values())))}
    order = np.lexsort((view.W, np.array([rank[key[p]] for p in P], dtype=np.intp)))
    large, small, fillers, pruned = [], [], [], []
    for (kind, index), run in itertools.groupby(order.tolist(), lambda r: key[P[r]]):
        run = list(run)
        if kind == 2:
            large.append((index, run))
        elif kind == 1 or exactly_k:
            pruned += run[K:]
            if kind == 1:
                small.append((-index, run[:K]))
            else:
                fillers = run[:K]
        else:
            pruned += run
    candidates = set(view.ids.tolist())
    outside = {it.id for it in inst.items if it.id not in candidates}
    return large, small[::-1], fillers, frozenset(view.ids[list(pruned)].tolist()) | outside


class TestFloorRowsSkipTheSort:
    """build_partition sorts only the rows some class or the fillers may
    keep, lists each class's own rows and builds discarded on read. Its
    classes, fillers and discarded ids must be those of sorting every
    candidate (sort_everything), in both modes."""

    @staticmethod
    def assert_same(inst, eps):
        try:
            part = build_partition(inst, eps)
        except TrivialInstanceError:
            return None
        large, small, fillers, discarded = sort_everything(inst, eps)
        assert [(c.index, c.rows.tolist()) for c in part.large_classes] == large
        assert [(c.index, c.rows.tolist()) for c in part.small_classes] == small
        assert part.filler_rows.tolist() == fillers
        assert part.discarded == discarded
        return part

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_wide_uniform_job(self, monkeypatch, mode):
        # wide-n's uniform job, n = 20000, K = 256, eps = 1/2: about half
        # the rows lie below the floor.
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads

        job = workloads.build_corpus("wide-n", 401, workloads.DEFAULT_CORPUS_SEED, False)[0]
        assert job.instance.n == 20000 and job.instance.cardinality == 256
        part = self.assert_same(in_mode(job.instance, mode), job.eps)
        assert len(part.discarded) > 10_000 and part.small_classes
        assert (len(part.filler_rows) > 0) == (mode is Mode.EXACT)

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_c02_and_tie_heavy_corpora(self, mode):
        # The tie-heavy instances put equal weights at the K-th place of a
        # class, where the tie-break by row decides who is pruned.
        built = [
            self.assert_same(in_mode(inst, mode), eps)
            for inst in c02_instances() + tie_heavy_instances()
            for eps in (F(1, 10), F(3, 10))
        ]
        assert sum(p is not None for p in built) > 200
        assert any(p and p.large_classes for p in built)
        # Some class keeps a row whose P and W a pruned row, a candidate
        # row outside kept_rows, shares.
        def pruned_tie(part):
            P, W = part.view.P, part.view.W
            rows = np.setdiff1d(np.arange(len(P)), part.kept_rows)
            pruned = set(zip(P[rows].tolist(), W[rows].tolist()))
            return any((P[c.rows[-1]], W[c.rows[-1]]) in pruned for c in part.small_classes)

        assert any(pruned_tie(p) for p in built if p)

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_no_row_survives_the_floor(self, mode):
        # K = 1 and eps = 3/4: the floor 2*eps*10/K = 15 lies above every
        # profit, so no class keeps a row; exactly K keeps the lightest as
        # the one filler.
        inst = inst_of([(1, 10, 3), (2, 9, 1), (3, 4, 2)], 10, 1, mode=mode)
        part = self.assert_same(inst, F(3, 4))
        reference = reference_partition(inst, F(3, 4))
        assert not part.large_classes + part.small_classes
        assert partition_fields(part) == partition_fields(reference)
        if mode is Mode.EXACT:
            assert member_ids(part, part.filler_rows) == [2] and part.discarded == {1, 3}
        else:
            assert not len(part.filler_rows) and part.discarded == {1, 2, 3}
        assert part.kept_rows.tolist() == part.filler_rows.tolist()
        sol, _ = solve_with_details(inst, F(3, 4))
        assert sol.count == 1 and sol.total_profit >= F(9)

    def test_discarded_is_built_on_read(self):
        inst = generate_instance("uniform", 300, 4, seed=5)
        part = build_partition(inst, F(1, 4))
        assert "discarded" not in vars(part)
        assert part.discarded == reference_partition(inst, F(1, 4)).discarded
        assert "discarded" in vars(part)

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_discarded_is_every_item_outside_the_kept_rows(self, mode):
        # K = 2, budget 10, eps = 1/4 and opt_estimate 156: profits above
        # 39 are large and those from 19.5 up small. Item 1 does not fit;
        # exactly K, item 2 fits alone but not beside the lightest (weight
        # 1); items 5-7 share one small class, which keeps its 2 lightest;
        # items 8-10 lie below the floor, and exactly K keeps the 2
        # lightest of them as fillers.
        triples = [
            (1, 100, 11), (2, 35, 10), (3, 40, 4), (4, 38, 5),
            (5, 26, 2), (6, 26, 3), (7, 26, 4), (8, 1, 1), (9, 1, 2), (10, 1, 3),
        ]
        inst = inst_of(triples, 10, 2, mode=mode)
        part = self.assert_same(inst, F(1, 4))
        assert part.opt_estimate == 156
        exactly_k = mode is Mode.EXACT
        assert part.discarded == ({1, 2, 7, 10} if exactly_k else {1, 7, 8, 9, 10})
        assert part.discarded == reference_partition(inst, F(1, 4)).discarded
        kept = member_ids(part, part.kept_rows)
        assert len(set(kept)) == len(kept) and part.discarded.isdisjoint(kept)
        assert part.discarded | set(kept) == {it.id for it in inst.items}
        fillers = member_ids(part, part.filler_rows)
        assert fillers == ([8, 9] if exactly_k else [])
        assert part.discarded.isdisjoint(fillers)

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_rows_are_arrays_and_discarded_is_built_on_read(self, monkeypatch, mode):
        # After a solve, every class and the fillers still hold the np.intp
        # arrays build_partition sliced from its sort order, and the
        # discarded ids (among them those of the items that are not
        # candidates: here most of them, and one added last that does not
        # fit) have not been looked for.
        base = generate_instance("uniform", 300, 4, seed=5)
        heavy = Item(10**6, F(5), base.budget + 1)
        inst = Instance(base.items + (heavy,), base.budget, 4, mode)
        built = []

        def spy(*args):
            built.append(build_partition(*args))
            return built[-1]

        monkeypatch.setattr(combiner, "build_partition", spy)
        solve_with_details(inst, F(1, 4))
        part = built[0]
        stored = [c.rows for c in part.large_classes + part.small_classes] + [part.filler_rows]
        assert part.small_classes and all(r.dtype == np.intp for r in stored)
        assert "discarded" not in vars(part)
        assert len(part.kept_rows) == sum(map(len, stored))
        assert len(part.filler_rows) == (4 if mode is Mode.EXACT else 0)
        reference = reference_partition(inst, part.epsilon)
        assert partition_fields(part) == partition_fields(reference)  # discarded agrees
        assert heavy.id in part.discarded
        # Reading the rows (partition_fields above) leaves them arrays.
        assert all(c.rows.dtype == np.intp for c in part.small_classes)


def _order_paths(monkeypatch) -> list:
    """Spy on build_partition's class order: one entry per call, "lexsort"
    when the call fell back to np.lexsort and "packed" otherwise."""
    paths, class_order, lexsort = [], preprocessing._class_order, np.lexsort

    def spy(slot, W):
        fell_back = []
        monkeypatch.setattr(np, "lexsort", lambda keys: fell_back.append(1) or lexsort(keys))
        try:
            return class_order(slot, W)
        finally:
            monkeypatch.setattr(np, "lexsort", lexsort)
            paths.append("lexsort" if fell_back else "packed")

    monkeypatch.setattr(preprocessing, "_class_order", spy)
    return paths


class TestPackedClassOrder:
    """build_partition orders its rows by one np.sort of int64 keys packing
    (slot, W, row), and by a stable lexsort on (slot, W) where a key would
    pass 63 bits or W holds Python ints. On either path its classes, fillers
    and discarded ids must be sort_everything's."""

    def test_order_equals_the_stable_lexsort(self):
        rng = np.random.default_rng(5)
        # (n, largest W, largest slot): ties throughout, then keys of 58
        # bits, then of 74 bits, which take the lexsort.
        for n, w_max, s_max in [(0, 1, 1), (1, 0, 0), (200, 3, 4), (3000, 2**40, 30), (3000, 2**55, 40)]:
            slot, W = rng.integers(0, s_max + 1, n), rng.integers(0, w_max + 1, n)
            order, slots = preprocessing._class_order(slot, W)
            expected = np.lexsort((W, slot))
            assert order.tolist() == expected.tolist()
            assert slots.tolist() == slot[expected].tolist()

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_c02_corpus_packs(self, monkeypatch, mode):
        paths = _order_paths(monkeypatch)
        for inst in c02_instances():
            for eps in (F(1, 10), F(3, 10)):
                TestFloorRowsSkipTheSort.assert_same(in_mode(inst, mode), eps)
        assert len(paths) > 150 and set(paths) == {"packed"}

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_values_times_2_70_take_the_lexsort(self, monkeypatch, mode):
        # Every profit and weight, and the budget, times 2^70: W holds
        # Python ints.
        paths = _order_paths(monkeypatch)
        for seed, family in enumerate(DISTRIBUTIONS):
            big = _times(_boundary_base(family, seed, mode), profit=2**70, weight=2**70)
            assert candidate_view(big).W.dtype == object
            assert TestFloorRowsSkipTheSort.assert_same(big, F(1, 4))
        assert paths == ["lexsort"] * len(DISTRIBUTIONS)

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_key_past_63_bits_takes_the_lexsort(self, monkeypatch, mode):
        # Every item fits the budget, so all 60 are candidates. Weights
        # scaled to a largest W of 56 bits stay int64 in the view (60 of
        # them sum below 2^62), but W, the row (5 or 6 bits) and the slot
        # (3 bits) together need more than 63 bits.
        paths = _order_paths(monkeypatch)
        base = generate_instance("uniform", 60, 6, seed=1, weight_max=200)
        base = Instance(base.items, sum(it.weight for it in base.items), 6, mode)
        big = _times(base, weight=2**56 // int(candidate_view(base).W.max()))
        W = candidate_view(big).W
        assert W.dtype == np.int64 and int(W.max()).bit_length() == 56
        part = TestFloorRowsSkipTheSort.assert_same(big, F(1, 4))
        assert paths == ["lexsort"] and len(part.large_classes + part.small_classes) >= 4
        assert _structure(part) == _structure(build_partition(base, F(1, 4)))
        assert paths == ["lexsort", "packed"]


class TestCheckPartition:
    """check_partition compares only each class's least and greatest
    profit to its bounds; a member outside them must still be caught."""

    def partition(self):
        base = generate_instance("uniform", 60, 3, seed=0)
        budget = sum(it.weight for it in base.items) / 10
        inst = Instance(base.items, budget, 3, Mode.EXACT)
        part = build_partition(inst, F(1, 8))
        assert len(part.large_classes) > 1 and len(part.small_classes) > 1
        assert len(part.filler_rows)
        return inst, part

    @pytest.mark.parametrize("kind", ["large", "small"])
    def test_member_of_another_class_is_rejected(self, kind):
        inst, part = self.partition()
        classes = list(getattr(part, f"{kind}_classes"))
        # Small classes hold at most K members; large ones are not pruned.
        t = next(
            i for i, c in enumerate(classes) if kind == "large" or c.size < part.cardinality
        )
        source = classes[t - 1 if t else t + 1]
        moved = source.rows[source.size // 2]
        extra = {"rows": np.append(classes[t].rows, moved)}
        if kind == "large":
            prefix = classes[t].prefix_weights
            weight = int(part.view.W[moved])
            extra["prefix_weights"] = prefix + (prefix[-1] + weight,)
        classes[t] = replace(classes[t], **extra)
        with pytest.raises(AssertionError):
            check_partition(replace(part, **{f"{kind}_classes": tuple(classes)}), inst)

    @pytest.mark.parametrize(
        "kind, index", [("large", 1), ("large", 2), ("small", 1), ("small", 2), ("small", 3)]
    )
    def test_profit_on_the_open_boundary_is_rejected(self, kind, index):
        # S = eps*opt_estimate = 40 and g = 3/2, so the boundaries S and
        # S*g = 60 are integers: a profit on one of them equals the bound
        # that large class index's lower end and small class index's upper
        # end exclude, and only a strict comparison rejects it there.
        eps, g = F(1, 2), F(3, 2)
        profits = [5, 15, 18, 20, 27, 30, 40, 50, 60, 80]
        inst = inst_of([(i, p, 1 + i % 3) for i, p in enumerate(profits, 1)], 100, 3)
        part = build_partition(inst, eps, OptimumEstimate(F(40), F(80)))
        S = eps * part.opt_estimate
        if kind == "large":
            boundary = math.floor(S * g ** (index - 1))  # large i: floor(S*g^(i-1)) < P
        else:
            boundary = math.ceil(S * g ** (1 - index))  # small i: P < ceil(S*g^(1-i))
        if index == 1:
            assert boundary == S  # the boundary is exact, not rounded
        row = profits.index(boundary)  # rows ascend by id
        assert part.view.P[row] == boundary
        classes = list(getattr(part, f"{kind}_classes"))
        t = next(i for i, c in enumerate(classes) if c.index == index)
        assert row not in classes[t].rows
        extra = {"rows": np.append(classes[t].rows, row)}
        if kind == "large":
            prefix = classes[t].prefix_weights
            extra["prefix_weights"] = prefix + (prefix[-1] + int(part.view.W[row]),)
        classes[t] = replace(classes[t], **extra)
        with pytest.raises(AssertionError):
            check_partition(replace(part, **{f"{kind}_classes": tuple(classes)}), inst)

    def test_every_binding_is_checked(self, monkeypatch):
        # conftest's checked_partitions leaves no module binding the
        # unchecked build_partition, and every binding's builds, and a
        # solve's, reach oracles.check_partition.
        import kknapsack
        import test_acceptance
        import test_large_items
        import test_small_items

        unchecked = preprocessing.build_partition.__wrapped__
        assert not [
            name for name, module in list(sys.modules.items())
            if getattr(module, "__dict__", {}).get("build_partition") is unchecked
        ]
        checked = []
        monkeypatch.setattr(oracles, "check_partition", lambda part, inst: checked.append(part))
        inst = generate_instance("uniform", 40, 4, seed=2)
        builds = [
            preprocessing.build_partition,
            combiner.build_partition,
            kknapsack.build_partition,
            build_partition,
            test_acceptance.build_partition,
            test_large_items.build_partition,
            test_small_items.build_partition,
        ]
        for build in builds:
            part = build(inst, F(1, 4))
            assert checked[-1] is part
        _, det = solve_with_details(inst, F(1, 4))
        assert len(checked) == len(builds) + 1 + det["fell_back"]

    def test_filler_above_the_floor_is_rejected(self):
        inst, part = self.partition()
        small = part.small_classes[-1].rows[0]
        fillers = np.append(part.filler_rows[:-1], small)
        with pytest.raises(AssertionError):
            check_partition(replace(part, filler_rows=fillers), inst)


def _acceptance_corpora():
    """The C01 and C02 instances, each at the internal accuracies their
    solves partition at: the user's eps, and eps/8 after a fallback."""
    for seed in range(500):
        rnd = random.Random(10_000 + seed)
        dist = DISTRIBUTIONS[seed % len(DISTRIBUTIONS)]
        n, K = rnd.randint(4, 18), rnd.randint(1, 6)
        inst = generate_instance(
            dist, n, K, seed=seed, weight_max=rnd.choice([10, 50, 200]),
            integral=rnd.random() < 0.7,
        )
        yield inst, F(1, 4)
        yield inst, F(1, 32)
    for seed in range(100):
        rnd = random.Random(20_000 + seed)
        dist = DISTRIBUTIONS[seed % len(DISTRIBUTIONS)]
        n, K = rnd.randint(30, 200), rnd.randint(2, 20)
        inst = generate_instance(dist, n, K, seed=seed, weight_max=40)
        if inst.budget > 1000:
            inst = Instance(items=inst.items, budget=F(1000), cardinality=K)
        for eps in (F(1, 10), F(3, 10)):
            yield inst, eps
            yield inst, eps / 8


def _assert_matches_reference(inst, eps):
    """build_partition equals the per-item reference; returns the partition,
    or None when the instance is trivial."""
    try:
        part = build_partition(inst, eps)
    except TrivialInstanceError:
        return None
    assert partition_fields(part) == partition_fields(reference_partition(inst, eps))
    return part


class TestIntegerThresholds:
    """build_partition's integer class thresholds, one walk over exact
    powers, against the reference partition, which searches each item's
    class index on its own Fraction ratio."""

    def test_acceptance_corpora(self):
        built = [_assert_matches_reference(inst, eps) for inst, eps in _acceptance_corpora()]
        assert sum(p is not None for p in built) > 650
        assert any(p and p.large_classes for p in built)

    def test_perfbench_quick_corpora(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads

        for name in workloads.WORKLOADS:
            for job in workloads.build_corpus(name, 1, workloads.DEFAULT_CORPUS_SEED, True):
                for eps in (job.eps, job.eps / 8):
                    assert _assert_matches_reference(job.instance, eps) is not None

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    @pytest.mark.parametrize("scale", [F(4**7 * 5**7), F(4**7 * 5**7, 3), F(7, 3)])
    def test_profits_on_boundaries(self, monkeypatch, scale, mode):
        # scale = eps*opt_estimate, fixed by pinning the estimate. Items sit
        # on every boundary scale*g^j (the profit floor scale/K included) and
        # one P-unit either side; scale 4^7*5^7 makes every boundary an
        # integer, the others leave lp > 1 and near-ties in P units.
        eps, K = F(1, 4), 8
        growth = 1 + eps
        pinned = preprocessing.OptimumEstimate(scale / eps / 2, scale / eps)
        monkeypatch.setattr(preprocessing, "half_approx_opt", lambda inst, view=None: pinned)
        bounds = [scale * growth**j for j in range(-10, 7)] + [scale / K]
        lp = math.lcm(*(b.denominator for b in bounds))
        profits = [b + F(d, lp) for b in bounds for d in (-1, 0, 1)] + [ZERO]
        triples = [(i, p, 1 + (7 * i) % 5) for i, p in enumerate(profits, 1)]
        inst = inst_of(triples, 10**6, K, mode=mode)
        part = _assert_matches_reference(inst, eps)
        on_grid = set(bounds[:-1])
        for c in part.large_classes + part.small_classes:
            for i in member_ids(part, c.rows):
                profit = inst.by_id[i].profit
                assert (profit == c.rounded_profit) == (profit in on_grid)
        counted = len(part.discarded) + len(part.filler_rows) + part.small_item_count
        assert counted + sum(c.size for c in part.large_classes) == len(profits)

    @pytest.mark.parametrize("seed", range(6))
    def test_fractional_and_huge_values(self, seed):
        big = 2**70
        base = generate_instance("uniform", 60, 6, seed=seed, integral=False)
        assert math.lcm(*(it.profit.denominator for it in base.items)) > 1
        _assert_matches_reference(base, F(1, 16))
        items = tuple(
            Item(it.id, it.profit * big + it.id, it.weight * big + seed) for it in base.items
        )
        huge = Instance(items, base.budget * big, base.cardinality, base.mode)
        assert max(it.profit for it in huge.items) > 2**62
        _assert_matches_reference(huge, F(1, 16))

    @pytest.mark.parametrize("seed", range(6))
    def test_exactly_k_fillers(self, seed):
        inst = generate_instance("uniform", 80, 12, seed=seed, mode=Mode.EXACT)
        part = _assert_matches_reference(inst, F(1, 16))
        assert part.exactly_k and len(part.filler_rows)
        assert reference_partition(inst, F(1, 16)).summary() == part.summary()

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_cardinality_at_least_n(self, mode):
        base = generate_instance("correlated", 15, 3, seed=4, weight_max=20)
        for K in (15, 20) if mode is Mode.AT_MOST else (15,):
            inst = Instance(base.items, F(10**4), K, mode)
            part = _assert_matches_reference(inst, F(1, 16))
            # Nothing is pruned: only profits below the floor are dropped.
            floor = part.epsilon * part.opt_estimate / K
            assert all(inst.by_id[i].profit < floor for i in part.discarded)

    @pytest.mark.parametrize("family", DISTRIBUTIONS)
    def test_deep_class_indices(self, family):
        # eps = 1/800 puts the small classes of K = 40 more than 2000 steps
        # below the large floor, where each power has tens of thousands of
        # bits.
        inst = generate_instance(family, 60, 40, seed=2)
        part = _assert_matches_reference(inst, F(1, 800))
        assert max(c.index for c in part.large_classes + part.small_classes) > 2000

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    @pytest.mark.parametrize("eps", [F(1, 4), F(1, 32)], ids=["eps1/4", "eps1/32"])
    def test_k_spread_rows_at_k_1024(self, eps, mode):
        # The K = 1024 row of tests/test_scale.py's K-spread (uniform n=2000,
        # seed 3): every profit is small, and the small classes lie far below
        # S, 27-32 classes at eps = 1/4 and 122-225 at eps = 1/32.
        base = generate_instance("uniform", 2000, 1024, seed=3)
        part = _assert_matches_reference(Instance(base.items, base.budget, 1024, mode), eps)
        assert not part.large_classes
        assert min(c.index for c in part.small_classes) >= (27 if eps == F(1, 4) else 122)

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_all_equal_profits(self, mode):
        inst = inst_of([(i, 3, 1 + i % 4) for i in range(1, 21)], 30, 4, mode=mode)
        part = _assert_matches_reference(inst, F(1, 8))
        assert len(part.large_classes + part.small_classes) == 1 and part.small_item_count == 4


def _times(inst, profit=1, weight=1) -> Instance:
    """inst with every profit times profit, and every weight and the budget
    times weight."""
    items = tuple(Item(it.id, it.profit * profit, it.weight * weight) for it in inst.items)
    return Instance(items, inst.budget * weight, inst.cardinality, inst.mode)


def _boundary_base(family, seed, mode, n=60, K=6) -> Instance:
    """A generated instance whose budget holds its K lightest items."""
    base = generate_instance(family, n, K, seed=seed, weight_max=200)
    lightest = sum(sorted(it.weight for it in base.items)[:K])
    return Instance(base.items, max(base.budget, lightest), K, mode)


def _structure(part):
    """A partition by member ids: equal for instances whose profits, or
    weights and budget, differ by a common factor."""
    return (
        [(c.index, member_ids(part, c.rows)) for c in part.large_classes],
        [(c.index, member_ids(part, c.rows)) for c in part.small_classes],
        sorted(part.discarded),
        member_ids(part, part.filler_rows),
    )


def _primes(count: int, above: int) -> list[int]:
    """The first count primes above above, by a sieve."""
    limit = above + 40 * count + 100
    sieve = bytearray([1]) * (limit + 1)
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    found = [i for i in range(above + 1, limit + 1) if sieve[i]]
    assert len(found) >= count
    return found[:count]


class TestViewIntegerBoundary:
    """The candidate view's int64/object rule at its boundary. numpy
    integer arrays wrap silently, without a RuntimeWarning, so a view that
    kept int64 past the rule would sum wrongly without a sign. Each case
    asserts the object path, and that the estimate, the partition and the
    selection are those of the same instance without the factor."""

    EPS = F(1, 4)

    def check(self, big, base, profit=1):
        est, ref = half_approx_opt(big), half_approx_opt(base)
        assert (est.value, est.lp_bound) == (ref.value * profit, ref.lp_bound * profit)
        assert _structure(build_partition(big, self.EPS)) == _structure(
            build_partition(base, self.EPS)
        )
        sol, det = solve_with_details(big, self.EPS)
        ref, det_ref = solve_with_details(base, self.EPS)
        assert sol.selected == ref.selected
        assert sol.total_profit == ref.total_profit * profit
        assert det["fell_back"] == det_ref["fell_back"]

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_profits_near_2_62(self, mode):
        # Each scaled profit fits int64; sums of a few of them do not.
        for seed, family in enumerate(DISTRIBUTIONS):
            base = _boundary_base(family, seed, mode)
            factor = (2**62 - 1) // max(it.profit for it in reference_candidates(base))
            big = _times(base, profit=factor)
            P = candidate_view(big).P
            assert P.dtype == object and 2**61 < max(P) < 2**63
            assert candidate_view(base).P.dtype == np.int64
            self.check(big, base, profit=factor)

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_weights_times_2_70(self, mode):
        for seed, family in enumerate(DISTRIBUTIONS):
            base = _boundary_base(family, seed, mode)
            big = _times(base, weight=2**70)
            assert candidate_view(big).W.dtype == object
            assert candidate_view(base).W.dtype == np.int64
            self.check(big, base)

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_distinct_prime_denominators(self, mode):
        # Profit p_i/q_i over distinct primes q_i: the common denominator L
        # has about n times the bits of one value. The same instance times
        # L has integral profits.
        n = 200
        base = _boundary_base("uniform", 2, mode, n=n, K=16)
        primes = _primes(n, 1000)
        items = tuple(
            Item(it.id, it.profit / q, it.weight) for it, q in zip(base.items, primes)
        )
        prime = Instance(items, sum(it.weight for it in items) / 4, base.cardinality, mode)
        view = candidate_view(prime)
        assert view.P.dtype == object and view.lp.bit_length() > 10 * len(view.ids)
        L = math.lcm(*primes)
        self.check(prime, _times(prime, profit=L), profit=F(1, L))
        reference = reference_partition(prime, self.EPS)
        assert partition_fields(build_partition(prime, self.EPS)) == partition_fields(reference)
