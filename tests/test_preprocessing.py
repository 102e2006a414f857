"""Optimum estimate, geometric profit classes, and the exact big-exponent
arithmetic (cached powers, certified fixed-point brackets) they ride on."""

import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import F, ZERO, best_subset, inst_of
from kknapsack import preprocessing, solve_with_details
from kknapsack.generator import DISTRIBUTIONS, generate_instance
from kknapsack.instance_model import Instance, Item, Mode
from kknapsack.oracles import reference_partition
from kknapsack.preprocessing import (
    TrivialInstanceError,
    _check_partition,
    _geometric_index_up,
    _pow_reaches,
    build_partition,
    candidate_view,
    geometric_floor,
    half_approx_opt,
)

# Growth ratios > 1 built from small integers; exponent ranges keep the
# direct Fraction reference cheap.
growths = st.builds(
    lambda a, b: Fraction(a + b, a), st.integers(1, 50), st.integers(1, 50)
)
ROOT = Path(__file__).resolve().parent.parent
scales = st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1000))


class TestHalfApproxOpt:
    def test_single_item(self):
        assert half_approx_opt(inst_of([(1, 10, 1)], 1, 1)) == (10, 10)

    def test_nothing_fits(self):
        assert half_approx_opt(inst_of([(1, 10, 5)], 1, 1)) == (0, 0)

    @pytest.mark.parametrize("seed", range(12))
    def test_two_sided_bound(self, seed):
        dist = ("uniform", "correlated", "subset-sum")[seed % 3]
        inst = generate_instance(dist, 12, 3, seed=100 + seed, weight_max=30)
        v, lp_bound = half_approx_opt(inst)
        opt = best_subset(inst)[0]
        assert v <= opt <= 2 * v and opt <= lp_bound

    @pytest.mark.parametrize("seed", range(12))
    def test_two_sided_bound_exactly_k(self, seed):
        # The equality-row LP bounds the best exactly-K value: OPT_K <= LP_K.
        dist = ("uniform", "correlated", "subset-sum")[seed % 3]
        base = generate_instance(dist, 12, 3, seed=100 + seed, weight_max=30)
        budget = sum(it.weight for it in base.items) / 3  # above the 3 lightest
        inst = Instance(base.items, budget, base.cardinality, Mode.EXACT)
        v, lp_bound = half_approx_opt(inst)
        opt = best_subset(inst, exact_count=inst.cardinality)[0]
        assert v <= opt <= 2 * v and opt <= lp_bound


class TestBracketComparisons:
    @given(growths, st.integers(0, 80), st.integers(1, 10**6), st.integers(1, 10**6))
    def test_pow_reaches_matches_exact(self, growth, i, rn, rd):
        assert _pow_reaches(growth, i, rn, rd) == (growth**i >= Fraction(rn, rd))

    def test_pow_reaches_exact_ties(self):
        # (3/2)^2 == 9/4: ">= at equality" must answer True, and must flip
        # for the next representable ratios on either side.
        big = 10**40
        assert _pow_reaches(F(3, 2), 2, 9, 4)
        assert _pow_reaches(F(3, 2), 2, 9 * big - 1, 4 * big)
        assert not _pow_reaches(F(3, 2), 2, 9 * big + 1, 4 * big)

    @given(scales, growths, st.integers(-40, 40))
    def test_geometric_floor_matches_reference(self, scale, growth, e):
        assert geometric_floor(scale, growth, e) == math.floor(scale * growth**e)

    def test_geometric_floor_exact_ties(self):
        # Values landing exactly on an integer: floor must not round up.
        assert geometric_floor(F(8, 9), F(3, 2), 2) == 2  # 8/9 * 9/4 == 2
        assert geometric_floor(F(81, 4), F(3, 2), -2) == 9  # 81/4 * 4/9 == 9
        assert geometric_floor(F(1), F(2), 100) == 2**100
        assert geometric_floor(F(1), F(2), -3) == 0  # 1/8

    @pytest.mark.parametrize("exponent", [50_000, -50_000])
    def test_geometric_floor_huge_exponent(self, exponent):
        # The bracket path must agree with the exact big-integer route at
        # exponents where the power has tens of thousands of digits.
        scale, growth = F(12345, 7), F(1025, 1024)
        n = 1025 ** abs(exponent)
        d = 1024 ** abs(exponent)
        if exponent < 0:
            n, d = d, n
        expected = (scale.numerator * n) // (scale.denominator * d)
        assert geometric_floor(scale, growth, exponent) == expected

    @given(
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(10**6)),
        st.sampled_from([F(1, 2), F(3, 10), F(1, 7), F(2, 3)]),
    )
    def test_geometric_index_up_matches_brute_force(self, ratio, eps):
        got = _geometric_index_up(ratio, eps)
        i = 0
        while (1 + eps) ** i < ratio:
            i += 1
        assert got == i

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 23])
    def test_geometric_index_up_exact_tie(self, k):
        eps = F(3, 10)
        assert _geometric_index_up((1 + eps) ** k, eps) == k


def reference_classes(inst, eps):
    """Classify items straight from the interval definitions with plain
    Fraction arithmetic -- independent of the bracket machinery."""
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
        assert len(klass.members) == 4

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
                cap = _geometric_index_up(1 / eps, eps)
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

        got_large = {c.index: {it.id for it in c.members} for c in part.large_classes}
        assert got_large == large_ref
        for c in part.large_classes:
            assert c.rounded_profit == lf * (1 + eps) ** c.index

        # Small classes keep only their K lightest members; the rest join
        # the discarded pool. Membership must still agree per interval.
        K = inst.cardinality
        pruned: set[int] = set()
        got_small = {c.index: {it.id for it in c.members} for c in part.small_classes}
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
            for it in c.members:
                # Round-up: within one growth factor above the true profit.
                assert it.profit <= c.rounded_profit < (1 + eps) * it.profit
        for c in part.small_classes:
            for it in c.members:
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
            weights = [it.weight for it in c.members]
            assert weights == sorted(weights)
            prefix = [ZERO]
            for w in weights:
                prefix.append(prefix[-1] + w)
            assert list(c.prefix_weights) == prefix

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
            _check_partition(part, inst)  # must not raise
            summary = part.summary()
            assert len(summary["large_classes"]) == len(part.large_classes)
            assert len(summary["small_classes"]) == len(part.small_classes)


class TestCheckPartition:
    """_check_partition compares only each class's least and greatest
    profit to its bounds; a member outside them must still be caught."""

    def partition(self):
        base = generate_instance("uniform", 60, 3, seed=0)
        budget = sum(it.weight for it in base.items) / 10
        inst = Instance(base.items, budget, 3, Mode.EXACT)
        part = build_partition(inst, F(1, 8))
        assert len(part.large_classes) > 1 and len(part.small_classes) > 1
        assert part.fillers
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
        moved = source.members[source.size // 2]
        extra = {"members": classes[t].members + (moved,)}
        if kind == "large":
            prefix = classes[t].prefix_weights
            extra["prefix_weights"] = prefix + (prefix[-1] + moved.weight,)
        classes[t] = replace(classes[t], **extra)
        with pytest.raises(AssertionError):
            _check_partition(replace(part, **{f"{kind}_classes": tuple(classes)}), inst)

    def test_filler_above_the_floor_is_rejected(self):
        inst, part = self.partition()
        small = part.small_classes[-1].members[0]
        fillers = part.fillers[:-1] + (small,)
        with pytest.raises(AssertionError):
            _check_partition(replace(part, fillers=fillers), inst)


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
    assert part == reference_partition(inst, eps)
    return part


class TestIntegerThresholds:
    """build_partition's integer class thresholds against the reference
    partition, which searches each item's class with its own brackets."""

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
        monkeypatch.setattr(preprocessing, "half_approx_opt", lambda inst: pinned)
        bounds = [scale * growth**j for j in range(-10, 7)] + [scale / K]
        lp = math.lcm(*(b.denominator for b in bounds))
        profits = [b + F(d, lp) for b in bounds for d in (-1, 0, 1)] + [ZERO]
        triples = [(i, p, 1 + (7 * i) % 5) for i, p in enumerate(profits, 1)]
        inst = inst_of(triples, 10**6, K, mode=mode)
        part = _assert_matches_reference(inst, eps)
        on_grid = set(bounds[:-1])
        for c in part.large_classes + part.small_classes:
            for it in c.members:
                assert (it.profit == c.rounded_profit) == (it.profit in on_grid)
        assert len(part.discarded) + len(part.fillers) + part.large_item_count + (
            part.small_item_count
        ) == len(profits)

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
        assert part.exactly_k and part.fillers

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_cardinality_at_least_n(self, mode):
        base = generate_instance("correlated", 15, 3, seed=4, weight_max=20)
        for K in (15, 20) if mode is Mode.AT_MOST else (15,):
            inst = Instance(base.items, F(10**4), K, mode)
            part = _assert_matches_reference(inst, F(1, 16))
            # Nothing is pruned: only profits below the floor are dropped.
            floor = part.epsilon * part.opt_estimate / K
            assert all(inst.by_id[i].profit < floor for i in part.discarded)

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_all_equal_profits(self, mode):
        inst = inst_of([(i, 3, 1 + i % 4) for i in range(1, 21)], 30, 4, mode=mode)
        part = _assert_matches_reference(inst, F(1, 8))
        assert part.class_count == 1 and part.small_item_count == 4

    def test_no_per_item_index_search(self, monkeypatch):
        # A per-item bracket search would call _geometric_index_up once per
        # item; build_partition must call it a fixed number of times.
        calls = []
        search = preprocessing._geometric_index_up

        def counting(ratio, eps):
            calls.append(ratio)
            return search(ratio, eps)

        monkeypatch.setattr(preprocessing, "_geometric_index_up", counting)
        counts = []
        for n in (200, 2000):
            inst = generate_instance("uniform", n, 16, seed=5)
            part = build_partition(inst, F(1, 16))
            assert part.small_item_count > 16
            counts.append(len(calls))
            calls.clear()
        assert counts[0] == counts[1] <= 2, counts


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
        [(c.index, [it.id for it in c.members]) for c in part.large_classes],
        [(c.index, [it.id for it in c.members]) for c in part.small_classes],
        sorted(part.discarded),
        [it.id for it in part.fillers],
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
        assert half_approx_opt(big) == tuple(v * profit for v in half_approx_opt(base))
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
            factor = (2**62 - 1) // max(it.profit for it in base.candidates)
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
        assert build_partition(prime, self.EPS) == reference_partition(prime, self.EPS)
