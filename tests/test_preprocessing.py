"""Optimum estimate, geometric profit classes, and the exact big-exponent
arithmetic (cached powers, certified fixed-point brackets) they ride on."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import F, ZERO, best_subset, inst_of
from kknapsack.generator import generate_instance
from kknapsack.instance_model import Instance, Mode
from kknapsack.preprocessing import (
    TrivialInstanceError,
    _check_partition,
    _coprime_fraction,
    _geometric_index_up,
    _growth_pow,
    _pow_reaches,
    _scaled_pow,
    build_partition,
    geometric_floor,
    half_approx_opt,
)

# Growth ratios > 1 built from small integers; exponent ranges keep the
# direct Fraction reference cheap.
growths = st.builds(
    lambda a, b: Fraction(a + b, a), st.integers(1, 50), st.integers(1, 50)
)
scales = st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1000))


class TestHalfApproxOpt:
    def test_single_item(self):
        assert half_approx_opt(inst_of([(1, 10, 1)], 1, 1)) == 10

    def test_nothing_fits(self):
        assert half_approx_opt(inst_of([(1, 10, 5)], 1, 1)) == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_two_sided_bound(self, seed):
        dist = ("uniform", "correlated", "subset-sum")[seed % 3]
        inst = generate_instance(dist, 12, 3, seed=100 + seed, weight_max=30)
        v = half_approx_opt(inst)
        opt = best_subset(inst)[0]
        assert v <= opt <= 2 * v


class TestExactPowers:
    @given(growths, st.integers(0, 60))
    def test_growth_pow_matches_reference(self, growth, i):
        assert _growth_pow(growth, i) == growth**i

    @given(scales, growths, st.integers(-60, 60))
    def test_scaled_pow_matches_reference(self, scale, growth, i):
        assert _scaled_pow(scale, growth, i) == scale * growth**i

    @given(st.integers(1, 10**9), st.integers(1, 10**9))
    def test_coprime_fraction_equals_constructor(self, a, b):
        g = math.gcd(a, b)
        n, d = a // g, b // g
        fast = _coprime_fraction(n, d)
        assert fast == Fraction(n, d)
        assert fast.numerator == n and fast.denominator == d


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
    opt = 2 * half_approx_opt(inst)
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

        assert part.opt_estimate == 2 * half_approx_opt(inst)

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
