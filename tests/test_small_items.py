"""Small-item relaxation ladder: the exact box LP, weight rounding, bucketed
top-ell queries, the heavy-side dual, and the split search that combines
them; plus the pool-level SmallSolver plumbing."""

import random
from fractions import Fraction

import pytest

from conftest import F, ZERO, inst_of
from kknapsack.instance_model import Item
from kknapsack.oracles import lp_vertex, upsilon2_linear
from kknapsack.preprocessing import build_partition
from kknapsack.small_items import (
    BreakpointSet,
    EXACT_POOL_LIMIT,
    SmallEval,
    SmallSolver,
    WeightBuckets,
    _critical_multiplier_enum,
    _critical_multiplier_guided,
    _dual_at,
    _expand_types,
    _units,
    round_small_weights,
    solve_box_lp,
    solver_for_partition,
    upsilon1,
    upsilon2,
    upsilon3,
    upsilon4,
    upsilon5,
)


def pool(seed, n, frac=False, pmax=20, wmax=15):
    rnd = random.Random(seed)
    out = []
    for uid in range(1, n + 1):
        p = Fraction(rnd.randint(1, pmax), rnd.choice([1, 2, 3]) if frac else 1)
        w = Fraction(rnd.randint(1, wmax), rnd.choice([1, 2]) if frac else 1)
        out.append((uid, p, w))
    return out


def as_items(units):
    return [Item(id=uid, profit=p, weight=w) for uid, p, w in units]


def check_primal(ev, units, budget, cap):
    by_id = {uid: (p, w) for uid, p, w in units}
    total_p = ZERO
    total_w = ZERO
    total_x = ZERO
    for uid, x in ev.fractional_solution.items():
        assert 0 < x <= 1
        p, w = by_id[uid]
        total_p += p * x
        total_w += w * x
        total_x += x
    assert total_p == ev.value
    assert total_w <= budget
    assert total_x <= cap
    assert ev.fractional_count <= 2


class TestUpsilon1:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_lp_vertex(self, seed):
        rnd = random.Random(1000 + seed)
        units = pool(seed, rnd.randint(1, 10), frac=seed % 2 == 0)
        omega = Fraction(rnd.randint(1, 40), rnd.choice([1, 2]))
        k = rnd.randint(1, 6)
        ev = upsilon1(units, omega, k)
        ref = lp_vertex(as_items(units), omega, k)
        assert ev.value == ref.value
        check_primal(ev, units, omega, k)

    def test_fast_path_is_integral(self):
        units = [(1, F(5), F(1)), (2, F(4), F(2)), (3, F(3), F(10))]
        ev = upsilon1(units, F(5), 2)
        assert ev.value == 9
        assert ev.integral_ids == (1, 2)
        assert ev.mu == 0
        assert ev.fractional_count == 0

    def test_single_fractional_item(self):
        # One item heavier than the budget: take the fitting fraction.
        ev = upsilon1([(1, F(10), F(4))], F(3), 1)
        assert ev.value == F(15, 2)
        assert ev.fractional_solution == {1: F(3, 4)}
        assert ev.integral_ids == ()

    def test_degenerate_inputs(self):
        assert upsilon1([], F(5), 3).value == 0
        assert upsilon1([(1, F(5), F(1))], F(5), 0).value == 0
        assert upsilon1([(1, F(5), F(1))], F(-1), 1).value == 0
        assert upsilon1([(1, F(0), F(1))], F(5), 1).value == 0

    def test_cardinality_row_binds(self):
        # Plenty of budget, cap 1: the LP takes the single best item only.
        units = [(1, F(5), F(1)), (2, F(4), F(1))]
        ev = upsilon1(units, F(100), 1)
        assert ev.value == 5
        assert ev.integral_ids == (1,)

    @pytest.mark.parametrize("seed", range(8))
    def test_multiplier_searches_agree_on_the_dual(self, seed):
        # Both locators must certify the same dual optimum (the multipliers
        # themselves may differ when several satisfy the fit condition).
        rnd = random.Random(40 + seed)
        units = pool(300 + seed, 30, frac=True, pmax=50, wmax=25)
        omega = Fraction(rnd.randint(5, 20))
        cap = rnd.randint(3, 8)
        top = sorted(units, key=lambda t: (-t[1], t[2], t[0]))[:cap]
        if sum((w for _, _, w in top), ZERO) <= omega:
            pytest.skip("fast path: no multiplier search involved")
        mu_e = _critical_multiplier_enum(units, omega, cap)
        mu_g = _critical_multiplier_guided(units, omega, cap)
        assert _dual_at(units, mu_e, omega, cap) == _dual_at(units, mu_g, omega, cap)

    def test_guided_search_used_above_pair_enum_limit(self):
        # 80 units forces the float-guided exact path inside solve_box_lp;
        # its value must still be the exact LP optimum (dual == primal is
        # asserted internally, so equality with the enum dual suffices).
        units = pool(7, 80, frac=True, pmax=60, wmax=30)
        omega = F(55)
        cap = 9
        ev = solve_box_lp(units, omega, cap)
        filtered = [u for u in units if u[1] > 0]
        mu = _critical_multiplier_enum(filtered, omega, cap)
        assert ev.value == _dual_at(filtered, mu, omega, cap)
        check_primal(ev, units, omega, cap)


class TestRoundSmallWeights:
    @pytest.mark.parametrize("seed", range(10))
    def test_split_and_rounding_invariants(self, seed):
        rnd = random.Random(seed)
        units = pool(70 + seed, 25, frac=seed % 2 == 0, wmax=40)
        omega = Fraction(rnd.randint(10, 35))
        eps = Fraction(1, rnd.choice([2, 3, 4]))
        K = rnd.randint(2, 8)
        base = eps * omega / K
        s1, types = round_small_weights(units, omega, eps, K)
        light_ids = {u[0] for u in s1}
        heavy_ids = {uid for t in types for uid in t.member_ids}
        assert light_ids.isdisjoint(heavy_ids)
        for uid, p, w in units:
            if w <= base:
                assert uid in light_ids
            elif w <= omega:
                assert uid in heavy_ids
            else:
                assert uid not in light_ids | heavy_ids
        by_id = {u[0]: u for u in units}
        growth = 1 + eps
        for t in types:
            assert t.member_ids == tuple(sorted(t.member_ids))
            assert t.count == len(t.member_ids)
            # Rounded weight sits on the ladder and brackets every member.
            ratio = t.rounded_weight / base
            j = 0
            while growth**j < ratio:
                j += 1
            assert growth**j == ratio
            for uid in t.member_ids:
                w = by_id[uid][2]
                assert w <= t.rounded_weight <= growth * w
                assert by_id[uid][1] == t.profit

    def test_boundary_item_is_light(self):
        # w == eps*omega/K goes to the light side (closed threshold).
        eps, K, omega = F(1, 2), 4, F(8)
        s1, types = round_small_weights([(1, F(3), F(1))], omega, eps, K)
        assert [u[0] for u in s1] == [1]
        assert types == ()

    def test_nonpositive_budget(self):
        assert round_small_weights([(1, F(3), F(1))], F(0), F(1, 2), 4) == ([], ())


class TestWeightBuckets:
    @pytest.mark.parametrize("seed", range(10))
    def test_top_ell_matches_naive_resort(self, seed):
        rnd = random.Random(500 + seed)
        n = rnd.randint(1, 30)
        # Duplicate profits on purpose: the rho tie-break must still count.
        units = [
            (uid, Fraction(rnd.randint(1, 8)), Fraction(rnd.randint(1, 30), 2))
            for uid in range(1, n + 1)
        ]
        eps = Fraction(1, rnd.choice([2, 3]))
        K = rnd.randint(2, 6)
        omegas = sorted({Fraction(rnd.randint(4, 50)) for _ in range(4)})
        buckets = WeightBuckets(units, omegas, eps, K)
        for omega in omegas:
            base = eps * omega / K
            light = sorted(
                (p for _, p, w in units if w <= base), reverse=True
            )
            for ell in range(0, n + 3):
                naive = sum(light[:ell], ZERO)
                assert upsilon3(buckets, omega, ell) == naive

    def test_unregistered_weight_raises(self):
        buckets = WeightBuckets([(1, F(2), F(1))], [F(10)], F(1, 2), 2)
        with pytest.raises(KeyError):
            upsilon3(buckets, F(11), 1)

    def test_zero_and_negative_ell(self):
        buckets = WeightBuckets([(1, F(2), F(1))], [F(10)], F(1, 2), 2)
        assert upsilon3(buckets, F(10), 0) == 0
        assert buckets.top_ell_sum(0, -3) == 0


class TestUpsilon4:
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_lp_on_rounded_units(self, seed):
        rnd = random.Random(700 + seed)
        units = pool(900 + seed, rnd.randint(1, 9), frac=True, wmax=20)
        omega = Fraction(rnd.randint(4, 30))
        eps = Fraction(1, rnd.choice([2, 3, 4]))
        K = rnd.randint(2, 6)
        ell = rnd.randint(0, 3)
        k = rnd.randint(ell, 6)
        ev = upsilon4(units, omega, ell, k, eps, K)
        _, types = round_small_weights(units, omega, eps, K)
        expanded = as_items(_units(_expand_types(types)))
        cap = max(0, min(k - ell, len(expanded)))
        ref = lp_vertex(expanded, (1 - eps) * omega, cap)
        assert ev.value == ref.value

    def test_zero_cap_or_empty(self):
        assert upsilon4([(1, F(3), F(2))], F(8), 2, 2, F(1, 2), 4).value == 0
        assert upsilon4([], F(8), 0, 3, F(1, 2), 4).value == 0
        assert upsilon4([(1, F(3), F(2))], F(0), 0, 3, F(1, 2), 4).value == 0


def rounded_profit_pool(seed, eps, K, opt, omega, n):
    """Profits on the small-class rounded grid eps*opt*(1+eps)^(-i); weights
    arbitrary positive rationals at most omega. This is the shape the
    breakpoint set's membership argument covers."""
    rnd = random.Random(seed)
    floor = eps * opt / K
    out = []
    for uid in range(1, n + 1):
        p = eps * opt
        for _ in range(rnd.randint(0, 6)):
            nxt = p / (1 + eps)
            if nxt < floor:
                break
            p = nxt
        w = Fraction(rnd.randint(1, int(omega * 4)), 4)
        out.append((uid, p, w))
    return out


class TestBreakpointSet:
    def test_structure(self):
        bset = BreakpointSet.build(F(1, 2), 4, F(40), F(8))
        vals = bset.values
        assert vals[0] == 0
        assert list(vals) == sorted(set(vals))
        # M = ceil(log_1.5(8)) = 6 for K/eps = 8.
        assert bset.exponent_bound == 13
        assert bset.scale == F(4) * F(40) / F(8)

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError):
            BreakpointSet.build(F(1, 100), 10, F(40), F(8))

    @pytest.mark.parametrize("seed", range(8))
    def test_literal_route_matches_parametric(self, seed):
        eps, K, opt, omega = F(1, 2), 4, F(40), F(8)
        units = rounded_profit_pool(seed, eps, K, opt, omega, n=10)
        bset = BreakpointSet.build(eps, K, opt, omega)
        rnd = random.Random(seed)
        ell = rnd.randint(0, 2)
        k = rnd.randint(ell + 1, K)
        via_set = upsilon4(units, omega, ell, k, eps, K, breakpoints=bset)
        parametric = upsilon4(units, omega, ell, k, eps, K)
        assert via_set.value == parametric.value
        assert via_set.mu in bset.values


class TestSplitSearch:
    @pytest.mark.parametrize("seed", range(15))
    def test_binary_search_matches_linear_scan(self, seed):
        rnd = random.Random(1500 + seed)
        units = pool(1600 + seed, rnd.randint(1, 24), frac=seed % 3 == 0, wmax=25)
        omega = Fraction(rnd.randint(5, 40))
        eps = Fraction(1, rnd.choice([2, 3, 4]))
        K = rnd.randint(2, 8)
        k = rnd.randint(1, K)
        buckets = WeightBuckets(units, [omega], eps, K)
        got_v, got_ell = upsilon2(units, buckets, omega, k, eps, K)
        want_v, want_ell = upsilon2_linear(units, buckets, omega, k, eps, K)
        assert got_v == want_v
        assert got_ell == want_ell

    @pytest.mark.parametrize("seed", range(5))
    def test_upsilon5_differences_non_increasing(self, seed):
        rnd = random.Random(1800 + seed)
        units = pool(1900 + seed, 20, wmax=25)
        omega = Fraction(rnd.randint(8, 30))
        eps = Fraction(1, rnd.choice([2, 3]))
        K = 8
        k = rnd.randint(2, K)
        buckets = WeightBuckets(units, [omega], eps, K)
        vals = [upsilon5(units, buckets, omega, ell, k, eps, K) for ell in range(k + 1)]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        assert all(d2 <= d1 for d1, d2 in zip(diffs, diffs[1:]))

    def test_upsilon5_is_the_sum_of_its_parts(self):
        units = pool(42, 12, wmax=20)
        omega, eps, K = F(20), F(1, 2), 4
        buckets = WeightBuckets(units, [omega], eps, K)
        for ell in range(0, 4):
            expected = upsilon3(buckets, omega, ell) + upsilon4(
                units, omega, ell, 4, eps, K
            ).value
            assert upsilon5(units, buckets, omega, ell, 4, eps, K) == expected


class TestSmallSolver:
    def mk_solver(self, n=12, K=4, eps=F(1, 4), seed=0, frac=False):
        return SmallSolver(pool(seed, n, frac=frac), K=K, eps=eps, opt_estimate=F(100))

    def test_dispatch_upsilon1(self):
        solver = self.mk_solver(K=4, eps=F(1, 4))  # K*eps = 1 <= 1
        assert solver.use_upsilon1
        omega, k = F(10), 3
        assert solver.phi_dag(omega, k) == upsilon1(solver.items, omega, k).value

    def test_dispatch_upsilon2(self):
        solver = self.mk_solver(K=8, eps=F(1, 2), seed=3)  # K*eps = 4 > 1
        assert not solver.use_upsilon1
        omega, k = F(15), 5
        got = solver.phi_dag(omega, k)
        buckets = WeightBuckets(solver.items, [omega], solver.eps, solver.K)
        want, _ = upsilon2(solver.items, buckets, omega, k, solver.eps, solver.K)
        assert got == want

    def test_memoization_and_clamping(self):
        solver = self.mk_solver()
        v = solver.phi_dag(F(7), 99)  # k clamps to K
        assert (F(7), solver.K) in solver._memo
        assert solver.phi_dag(F(7), solver.K) is v
        assert solver.phi_dag(F(0), 2) == 0
        with pytest.raises(ValueError):
            solver.phi_dag(F(-1), 2)

    def test_from_partition_uses_rounded_profits(self):
        inst = inst_of([(i, 10 + i, 3 + i % 4) for i in range(1, 10)], 12, 4)
        part = build_partition(inst, F(1, 4))
        solver = SmallSolver.from_partition(part)
        expected = {
            it.id: klass.rounded_profit
            for klass in part.small_classes
            for it in klass.members
        }
        assert {uid: p for uid, p, _ in solver.items} == expected
        assert solver.K == part.cardinality

    def test_solver_for_partition_is_cached(self):
        inst = inst_of([(i, 10 + i, 3 + i % 4) for i in range(1, 10)], 12, 4)
        part = build_partition(inst, F(1, 4))
        assert solver_for_partition(part) is solver_for_partition(part)

    def test_eval_detail_upsilon2_composition(self):
        solver = self.mk_solver(n=20, K=8, eps=F(1, 2), seed=5)
        omega, k = F(18), 6
        detail = solver.eval_detail(omega, k)
        assert detail.value == solver.phi_dag(omega, k)
        assert detail.ell is not None
        by_id = {uid: (p, w) for uid, p, w in solver.items}
        total = sum(
            (by_id[uid][0] * x for uid, x in detail.fractional_solution.items()),
            ZERO,
        )
        assert total == detail.value
        assert set(detail.integral_ids) <= set(by_id)

    def test_float_mode_ranks_and_returns_feasible_sets(self):
        units = pool(11, EXACT_POOL_LIMIT + 16, frac=True, pmax=40, wmax=20)
        K, eps = 10, F(1, 2)
        solver = SmallSolver(units, K=K, eps=eps, opt_estimate=F(400))
        assert not solver.exact
        omega, k = F(45), 7
        value = solver.phi_dag(omega, k)
        assert isinstance(value, float)
        assert solver.phi_dag(omega, k) == value  # memoized, deterministic
        detail = solver.eval_detail(omega, k)
        by_id = {uid: (p, w) for uid, p, w in units}
        assert len(detail.integral_ids) <= k
        assert len(set(detail.integral_ids)) == len(detail.integral_ids)
        exact_w = ZERO
        exact_p = ZERO
        for uid in detail.integral_ids:
            p, w = by_id[uid]
            exact_p += p
            exact_w += w
        assert exact_w <= omega  # feasibility is exact even in float mode
        assert detail.value == exact_p

    def test_float_value_tracks_exact_value(self, monkeypatch):
        units = pool(13, 90, pmax=30, wmax=12)
        K, eps, omega, k = 10, F(1, 2), F(40), 8
        float_solver = SmallSolver(units, K=K, eps=eps, opt_estimate=F(300))
        assert not float_solver.exact
        import kknapsack.small_items as si

        monkeypatch.setattr(si, "EXACT_POOL_LIMIT", 1024)
        exact_solver = SmallSolver(units, K=K, eps=eps, opt_estimate=F(300))
        assert exact_solver.exact
        fv = float_solver.phi_dag(omega, k)
        xv = exact_solver.phi_dag(omega, k)
        assert abs(fv - float(xv)) <= 0.05 * float(xv)
