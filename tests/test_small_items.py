"""Small-item relaxations: the exact box LP and the pool-level SmallSolver
that answers every query with it; plus the paper's ladder, kept as oracles
(weight rounding, bucketed top-ell queries, the heavy-side dual, and the
split search that combines them)."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import F, ZERO, inst_of, solve_fine
from test_acceptance import c02_instances
from test_combiner import in_mode
import kknapsack.small_items as small_items
from kknapsack.generator import generate_instance
from kknapsack.instance_model import Item, Mode
from kknapsack.oracles import (
    BreakpointSet,
    WeightBuckets,
    _dual_at,
    _expand_types,
    box_lp_fractions,
    critical_multiplier_enum,
    lightest_maximizer_int,
    lp_vertex,
    round_small_weights,
    upsilon2,
    upsilon2_linear,
    upsilon3,
    upsilon4,
    upsilon4_breakpoints,
    upsilon5,
)
from kknapsack.combiner import solve_with_details
from kknapsack.preprocessing import LargeClass, SmallClass, build_partition, half_approx_opt
from kknapsack.small_items import (
    SmallSolver,
    _lightest_maximizer,
    _units,
    solve_box_lp,
    upsilon1,
)


def pool(seed, n, frac=False, pmax=20, wmax=15):
    rnd = random.Random(seed)
    out = []
    for uid in range(1, n + 1):
        p = Fraction(rnd.randint(1, pmax), rnd.choice([1, 2, 3]) if frac else 1)
        w = Fraction(rnd.randint(1, wmax), rnd.choice([1, 2]) if frac else 1)
        out.append((uid, p, w))
    return out


SHAPES = ["ties", "equal-ratio", "zero-weights", "fractional", "geometric", "random"]


def shaped_pool(shape, rnd, n):
    """n units of one data shape under distinct random ids:
    ties           p = w, so every profit/weight ratio ties;
    equal-ratio    p = 3w/2 on fractional weights;
    zero-weights   a quarter of the units weigh nothing;
    fractional     profits and weights with denominators up to 9;
    geometric      profits on a (1+eps)^-j class ladder, as after rounding;
    concave        p = floor(sqrt(1000 w)), so heavier units pay less per unit;
    alternating    p = w and p = 2w + 5 in turn;
    random         integers up to 60 and 40.
    """
    ids = rnd.sample(range(1, 10 * n + 1), n)
    out = []
    for j, uid in enumerate(ids):
        w = Fraction(rnd.randint(1, 40))
        if shape == "ties":
            p = w
        elif shape == "equal-ratio":
            w = Fraction(rnd.randint(1, 80), rnd.choice([1, 2, 3]))
            p = 3 * w / 2
        elif shape == "zero-weights":
            w = w if rnd.random() < 0.75 else ZERO
            p = Fraction(rnd.randint(1, 30))
        elif shape == "fractional":
            p = Fraction(rnd.randint(1, 60), rnd.randint(1, 9))
            w = Fraction(rnd.randint(1, 40), rnd.randint(1, 9))
        elif shape == "geometric":
            p = Fraction(40) / Fraction(3, 2) ** rnd.randint(0, 7)
            w = Fraction(rnd.randint(1, 160), 4)
        elif shape == "concave":
            w = Fraction(rnd.randint(1, 400))
            p = Fraction(math.isqrt(1000 * int(w)))
        elif shape == "alternating":
            p = w if j % 2 else 2 * w + 5
        else:
            p = Fraction(rnd.randint(1, 60))
        out.append((uid, p, w))
    return out


WIDE_SHAPES = ["huge-span", "huge-weights", "both-span", "near-ties"]


def wide_pool(shape, rnd, n):
    """n units whose scaled data stress the float-filtered greedy pass:
    huge-span     profits 2^0 .. 2^1200, so P/2^e is subnormal or zero for
                  the small ones;
    huge-weights  weights from 2^62 up, held as Python ints in the pass;
    both-span     profits and weights each spanning 2^1100;
    near-ties     profits and weights near 2^60 that differ in the last
                  bits, so float keys cannot tell most units apart.
    """
    ids = rnd.sample(range(1, 10 * n + 1), n)
    out = []
    for uid in ids:
        if shape == "huge-span":
            p = Fraction(rnd.randint(1, 9) << rnd.randint(0, 1200), rnd.choice([1, 3]))
            w = Fraction(rnd.randint(1, 40))
        elif shape == "huge-weights":
            p = Fraction(rnd.randint(1, 60))
            w = Fraction(rnd.randint(1, 9) << rnd.randint(62, 90))
        elif shape == "both-span":
            p = Fraction(rnd.randint(1, 9) << rnd.randint(0, 1100))
            w = Fraction(rnd.randint(1, 9) << rnd.randint(0, 1100))
        else:
            p = Fraction((1 << 60) + rnd.randint(0, 7))
            w = Fraction((1 << 60) + rnd.randint(0, 7))
        out.append((uid, p, w))
    return out


def positive(units):
    """The units a box LP keeps: positive profit, id order."""
    return sorted(u for u in units if u[1] > 0)


def over_budget_case(units, rnd):
    """(budget, cap) with the lightest top-cap-by-profit selection over the
    budget, so the multiplier search runs; (None, None) if this draw only
    reaches the fast path."""
    cap = rnd.randint(1, len(units))
    top = sorted(units, key=lambda t: (-t[1], t[2]))[:cap]
    top_w = sum((w for _, _, w in top), ZERO)
    budget = top_w * Fraction(rnd.randint(0, 99), 100)
    if top_w <= budget:
        return None, None
    return budget, cap


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
    def test_multiplier_equals_enumeration_oracle(self, seed):
        # The search must return exactly the multiplier of the pairwise
        # enumeration (the smallest one that fits), not just one that
        # certifies the same dual value.
        rnd = random.Random(40 + seed)
        for shape in SHAPES:
            checked = 0
            while checked < 3:
                units = shaped_pool(shape, rnd, rnd.randint(2, 36))
                budget, cap = over_budget_case(units, rnd)
                if budget is None:
                    continue
                ev = solve_box_lp(units, budget, cap)
                assert ev.mu == critical_multiplier_enum(positive(units), budget, cap)
                check_primal(ev, units, budget, cap)
                checked += 1

    def test_large_pool_multiplier_equals_enumeration_oracle(self):
        units = pool(7, 80, frac=True, pmax=60, wmax=30)
        omega = F(55)
        cap = 9
        ev = solve_box_lp(units, omega, cap)
        assert ev.mu == critical_multiplier_enum(positive(units), omega, cap)
        check_primal(ev, units, omega, cap)


def evaluation_counter(monkeypatch):
    """Wrap the greedy evaluator of the multiplier search; the returned
    list's single entry counts its calls."""
    calls = [0]
    original = small_items._lightest_maximizer

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(small_items, "_lightest_maximizer", counted)
    return calls


class TestMultiplierSearchWork:
    @pytest.mark.parametrize("n", [40, 400, 3000])
    @pytest.mark.parametrize("shape", ["ties", "concave", "alternating", "random"])
    def test_evaluations_logarithmic_in_units(self, monkeypatch, shape, n):
        rnd = random.Random(f"work-{shape}-{n}")
        calls = evaluation_counter(monkeypatch)
        searched = 0
        for _ in range(4):
            units = shaped_pool(shape, rnd, n)
            budget, cap = over_budget_case(units, rnd)
            if budget is None:
                continue
            calls[0] = 0
            ev = solve_box_lp(units, budget, cap)  # counts the fast-path pass too
            assert ev.mu > 0
            assert calls[0] <= 2 * len(positive(units)).bit_length() + 8
            searched += 1
        assert searched

    def test_subset_sum_estimate_needs_few_evaluations(self, monkeypatch):
        # Every profit equals its weight: the estimate's LP is all ties.
        inst = generate_instance("subset-sum", 20000, 64, seed=5)
        calls = evaluation_counter(monkeypatch)
        assert half_approx_opt(inst).value > 0
        assert 0 < calls[0] <= 8


def vertex_route(ev, units, cap):
    """Which part of the engine built ev: the mu = 0 fast path, the swaps
    among units tied at the cap-th key, the padding of zero-key units up to
    the budget, or none of these when the positive keys fill it exactly."""
    if ev.mu == 0:
        return "fast"
    keys = {uid: p - ev.mu * w for uid, p, w in units}
    if sum(1 for key in keys.values() if key > 0) > cap:
        return "tied"
    if any(keys[uid] == 0 for uid in ev.fractional_solution):
        return "padding"
    return "positive keys only"


class TestIntegerVertex:
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_fraction_reference(self, seed):
        # Value, x, integral ids and mu all equal the Fraction reference,
        # which builds the vertex at the enumerated multiplier.
        rnd = random.Random(f"vertex-{seed}")
        routes = set()
        for shape in ["ties", "equal-ratio", "zero-weights", "fractional", "geometric"]:
            for _ in range(40):
                units = shaped_pool(shape, rnd, rnd.randint(1, 30))
                cap = rnd.randint(1, len(units))
                total = sum((w for _, _, w in units), ZERO)
                budget = total * Fraction(rnd.randint(0, 100), 100)
                ev = solve_box_lp(units, budget, cap)
                assert ev == box_lp_fractions(positive(units), budget, cap)
                check_primal(ev, units, budget, cap)
                routes.add(vertex_route(ev, units, min(cap, len(positive(units)))))
        assert routes >= {"fast", "padding", "tied"}

    @pytest.mark.parametrize("shape", WIDE_SHAPES)
    def test_wide_pools_equal_fraction_reference(self, shape):
        rnd = random.Random(f"vertex-{shape}")
        searched = 0
        for _ in range(25):
            units = wide_pool(shape, rnd, rnd.randint(1, 24))
            cap = rnd.randint(1, len(units))
            total = sum((w for _, _, w in units), ZERO)
            budget = total * Fraction(rnd.randint(0, 100), 100)
            ev = solve_box_lp(units, budget, cap)
            assert ev == box_lp_fractions(positive(units), budget, cap)
            check_primal(ev, units, budget, cap)
            searched += ev.mu > 0
        assert searched

    def test_padding_with_zero_keys(self):
        # p = w everywhere: at mu* = 1 every key is zero, so the vertex is
        # all padding, heaviest first, with one fractional part.
        units = [(1, F(4), F(4)), (2, F(3), F(3)), (3, F(2), F(2))]
        ev = solve_box_lp(units, F(5), 2)
        assert ev.mu == 1
        assert ev.fractional_solution == {1: F(1), 2: F(1, 3)}
        assert ev.integral_ids == (1,)
        assert ev.value == 5
        assert ev == box_lp_fractions(units, F(5), 2)


def same_pass(got, ref):
    """A production pass and the Python-int reference select the same units
    with the same sums."""
    above, fill = got[2]
    return (got[0], got[1], sorted(above.tolist() + fill)) == ref


class TestFloatFilteredPass:
    """The numpy pass against lightest_maximizer_int, which keys every unit
    as a Python int."""

    def check_pool(self, units, rnd, trials=12):
        units = positive(units)
        n = len(units)
        scaled = SmallSolver.of(units, K=n)
        P, W = scaled.P.tolist(), scaled.W.tolist()
        for _ in range(trials):
            cap = rnd.randint(1, n)
            i, j = rnd.randrange(n), rnd.randrange(n)
            if W[i] > W[j] and P[i] > P[j]:
                # A pairwise crossing, where two keys tie.
                num, den = P[i] - P[j], W[i] - W[j]
            elif W[i] > 0:
                num, den = P[i], W[i]  # unit i's key is zero
            else:
                num, den = rnd.randint(0, 50), rnd.randint(1, 50)
            for nu in [(num, den), (0, 1), scaled.top_ratio]:
                got = _lightest_maximizer(scaled, cap, *nu)
                assert same_pass(got, lightest_maximizer_int(scaled.P, scaled.W, cap, *nu))

    @pytest.mark.parametrize("shape", SHAPES + ["concave", "alternating"] + WIDE_SHAPES)
    def test_matches_python_int_reference(self, shape):
        rnd = random.Random(f"filter-{shape}")
        for _ in range(30):
            self.check_pool(
                (wide_pool if shape in WIDE_SHAPES else shaped_pool)(
                    shape, rnd, rnd.randint(1, 60)
                ),
                rnd,
            )

    def test_subset_sum_and_equal_ratio_ties(self):
        # Every ratio ties: at nu = 1 (or 3/2) every key is zero, and at
        # nu = 0 the cap cuts through runs of equal profits.
        rnd = random.Random("filter-ties")
        for n in (1, 7, 300):
            for ratio in (Fraction(1), Fraction(3, 2)):
                units = [
                    (uid, ratio * w, w)
                    for uid, w in enumerate(
                        (Fraction(rnd.randint(1, 12)) for _ in range(n)), start=1
                    )
                ]
                scaled = SmallSolver.of(units, K=n)
                for cap in {1, max(1, n // 3), n}:
                    for nu in [(0, 1), scaled.top_ratio, (1, 2), (2, 1)]:
                        got = _lightest_maximizer(scaled, cap, *nu)
                        ref = lightest_maximizer_int(scaled.P, scaled.W, cap, *nu)
                        assert same_pass(got, ref)

    def test_wide_pools_take_their_paths(self):
        rnd = random.Random("filter-paths")
        huge_p = SmallSolver.of(wide_pool("huge-span", rnd, 40), K=40)
        small = huge_p._pf[huge_p._pf < 2.0**-1022]
        assert len(small)  # subnormal or flushed to zero
        huge_w = SmallSolver.of(wide_pool("huge-weights", rnd, 40), K=40)
        assert huge_w.W.dtype == object
        plain = SmallSolver.of(shaped_pool("random", rnd, 40), K=40)
        assert plain.W.dtype == np.int64

    @pytest.mark.parametrize("shape", ["ties", "fractional", "geometric"] + WIDE_SHAPES)
    def test_search_intersections_match_reference(self, monkeypatch, shape):
        # Every (num, den) the multiplier search and the fast path visit.
        seen = []
        original = small_items._lightest_maximizer

        def recorded(scaled, cap, num, den):
            got = original(scaled, cap, num, den)
            seen.append((scaled, cap, num, den, got))
            return got

        monkeypatch.setattr(small_items, "_lightest_maximizer", recorded)
        rnd = random.Random(f"filter-search-{shape}")
        pool_of = wide_pool if shape in WIDE_SHAPES else shaped_pool
        for _ in range(20):
            units = pool_of(shape, rnd, rnd.randint(2, 40))
            budget, cap = over_budget_case(units, rnd)
            if budget is not None:
                solve_box_lp(units, budget, cap)
        assert len(seen) >= 20
        for scaled, cap, num, den, got in seen:
            assert same_pass(got, lightest_maximizer_int(scaled.P, scaled.W, cap, num, den))

    def test_exact_keys_stay_rare(self):
        # A filter that silently keyed every unit exactly would stay correct
        # but slow; on this solve about 0.45% of the keys are exact.
        inst = generate_instance("uniform", 5000, 256, seed=1)
        _, det = solve_fine(inst, Fraction(1, 2))
        assert det["small_passes"] > 0
        limit = 0.01 * det["small_passes"] * det["small_pool"]
        assert det["small_exact_keys"] <= limit


class TestExactPoolAtEverySize:
    def test_large_upsilon1_pool_matches_solving_from_scratch(self):
        units = pool(17, 104, frac=True, pmax=40, wmax=20)
        solver = SmallSolver.of(units, K=8)
        rnd = random.Random(3)
        searched = 0
        for _ in range(60):  # caps interleave from one query to the next
            omega = Fraction(rnd.randint(1, 90), rnd.choice([1, 2, 3]))
            k = rnd.choice([1, 3, 8])
            ref = solve_box_lp(units, omega, k)
            assert solver.phi_dag(omega, k) == ref.value
            assert solver.eval_detail(omega, k) == ref
            searched += ref.mu > 0
        assert searched > 20

    def test_sweep_shares_greedy_passes(self, monkeypatch):
        units = pool(19, 150, pmax=60, wmax=30)
        caps = [8, 5, 2]
        omegas = [Fraction(w, 2) for w in range(2, 120, 3)]
        calls = evaluation_counter(monkeypatch)
        solver = SmallSolver.of(units, K=8)
        for k in caps:  # k outermost, as in the combiner's split sweep
            for omega in omegas:
                solver.phi_dag(omega, k)
        swept = calls[0]
        calls[0] = 0
        for k in caps:
            for omega in omegas:
                solve_box_lp(units, omega, k)
        assert swept < calls[0] / 2
        assert solver._cap == caps[-1]  # only the last cap's passes are held


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
        via_set = upsilon4_breakpoints(units, omega, ell, k, eps, K, bset)
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
    def mk_solver(self, n=12, K=4, seed=0, frac=False):
        return SmallSolver.of(pool(seed, n, frac=frac), K=K)

    def test_dispatch_upsilon1(self):
        solver = self.mk_solver(K=4)
        omega, k = F(10), 3
        assert solver.phi_dag(omega, k) == upsilon1(pool(0, 12), omega, k).value

    def test_dispatch_upsilon2(self):
        # K = 8 > 1/eps for the paper's eps = 1/2, where it would switch to
        # the ladder; the solver still answers with the box LP.
        solver = self.mk_solver(n=40, K=8, seed=3, frac=True)
        units = pool(3, 40, frac=True)
        rnd = random.Random(4)
        for _ in range(30):
            omega = Fraction(rnd.randint(1, 60), rnd.choice([1, 2]))
            k = rnd.randint(1, 8)
            ref = solve_box_lp(units, omega, k)
            assert solver.phi_dag(omega, k) == ref.value
            assert solver.eval_detail(omega, k) == ref

    def test_k_clamps_and_negative_budget_raises(self):
        solver = self.mk_solver()
        assert solver.phi_dag(F(7), 99) == solver.phi_dag(F(7), solver.K)
        assert solver.eval_detail(F(7), 99) == solver.eval_detail(F(7), solver.K)
        assert solver.phi_dag(F(0), 2) == 0
        with pytest.raises(ValueError):
            solver.phi_dag(F(-1), 2)

    @pytest.mark.parametrize(
        "family, n, K, eps, mode, seed",
        [
            ("uniform", 80, 8, F(1, 4), Mode.AT_MOST, 1),
            ("correlated", 200, 20, F(1, 2), Mode.AT_MOST, 2),
            ("subset-sum", 100, 6, F(1, 4), Mode.AT_MOST, 3),
            ("uniform", 80, 8, F(1, 4), Mode.EXACT, 4),
            ("correlated", 120, 12, F(1, 2), Mode.EXACT, 5),
        ],
    )
    def test_a_solve_asks_each_query_once(
        self, monkeypatch, family, n, K, eps, mode, seed
    ):
        # SmallSolver keeps no memo: the combiner's sweep keeps one anchor
        # per table weight within each k, so no (omega, k) recurs in one
        # pipeline run, and retrieval evaluates the winning split once. The
        # sweep's bounds may settle a solve with one query, so the guard is
        # that the wrapper saw every query the solve reports.
        asked, details = [], []
        phi_dag, eval_detail = SmallSolver.phi_dag, SmallSolver.eval_detail

        def counted_phi_dag(self, omega, k):
            asked.append((Fraction(omega), int(k)))
            return phi_dag(self, omega, k)

        def counted_eval_detail(self, omega, k):
            details.append((Fraction(omega), int(k)))
            return eval_detail(self, omega, k)

        monkeypatch.setattr(SmallSolver, "phi_dag", counted_phi_dag)
        monkeypatch.setattr(SmallSolver, "eval_detail", counted_eval_detail)
        inst = generate_instance(family, n, K, seed=seed, mode=mode)
        _, det = solve_fine(inst, eps)
        assert len(asked) == det["split_queries"] >= 1
        assert len(set(asked)) == len(asked)
        split = det["split"]
        assert details == [(split.small_budget, K - split.large_slots)]

    def test_from_partition_uses_rounded_profits(self):
        # Every unit's P/lp is its class's rounded profit (0 for a filler),
        # and the nonzero P are coprime, on every kind of pool.
        kinds = set()
        for inst, eps in rounded_pool_cases():
            part = build_partition(inst, eps)
            solver = SmallSolver.from_partition(part)
            expected = {
                it.id: klass.rounded_profit
                for klass in part.small_classes
                for it in klass.members
            }
            expected.update((it.id, ZERO) for it in part.fillers)
            assert solver.ids == sorted(expected)
            P = solver.P.tolist()
            value = {p: Fraction(p) / solver.lp for p in set(P)}
            assert all(value[p] == expected[uid] for uid, p in zip(solver.ids, P))
            assert math.gcd(*P) == (1 if any(P) else 0)
            assert solver.K == part.cardinality
            kinds.add(("single class", len(part.small_classes) == 1))
            kinds.add(("fillers", bool(part.fillers)))
            kinds.add(("deep", max((c.index for c in part.small_classes), default=0) >= 100))
        assert all((kind, True) in kinds for kind in ("single class", "fillers", "deep"))

    def test_solves_build_no_rounded_profit(self, monkeypatch):
        def built(_):
            raise AssertionError("a solve built a rounded profit")

        for klass in (SmallClass, LargeClass):
            monkeypatch.setattr(klass, "rounded_profit", property(built))
        for inst, eps in rounded_pool_cases():
            sol, _ = solve_with_details(inst, eps)
            assert sol.count <= inst.cardinality


def rounded_pool_cases():
    """(instance, eps) pairs whose partitions' small pools the pool tests
    check: the C02 corpus in both modes, each instance at one of its C02
    accuracies and at the paper's eps/8; a pool of one class; an exactly-K
    pool with zero-profit fillers; and uniform n=20000, K=1024, whose pool
    of about 9000 units reaches small classes past index 100."""
    for i, inst in enumerate(c02_instances()):
        eps = (F(1, 10), F(3, 10))[i % 2]
        for mode in (Mode.AT_MOST, Mode.EXACT):
            for level in (eps, eps / 8):
                yield in_mode(inst, mode), level
    yield inst_of([(i, 10 + i, 3 + i % 4) for i in range(1, 10)], 12, 4), F(1, 4)
    yield inst_of([(1, 40, 5), (2, 3, 1), (3, 3, 2), (4, 3, 4)], 9, 3), F(1, 2)
    fillers = [(1, 40, 5), (2, 30, 4), (3, 12, 3), (4, 1, 1), (5, 1, 2), (6, 2, 2)]
    yield inst_of(fillers, 9, 4, Mode.EXACT), F(1, 4)
    yield generate_instance("uniform", 20000, 1024, seed=1), F(1, 5)


def with_zero_profits(units, rnd):
    """The units with about a fifth of their profits set to zero, as the
    zero-profit fillers of an exactly-K pool; id order."""
    return sorted((uid, ZERO if rnd.random() < 0.2 else p, w) for uid, p, w in units)


def equality_case(units, rnd):
    """(budget, cap) for the equality row. Mostly the budget lies between
    the cap lightest units' weight and the top-cap-by-profit selection's,
    so the multiplier search runs; about one draw in eight is infeasible."""
    cap = rnd.randint(0, len(units) + (rnd.random() < 0.1))
    weights = sorted(w for _, _, w in units)
    lightest = sum(weights[:cap], ZERO)
    top = sum((w for _, _, w in sorted(units, key=lambda t: (-t[1], t[2]))[:cap]), ZERO)
    if rnd.random() < 0.125:
        return lightest - Fraction(rnd.randint(1, 4), 2), cap
    return lightest + (top - lightest) * Fraction(rnd.randint(0, 100), 100), cap


def check_equality_primal(ev, units, budget, cap):
    """ev is a vertex of the LP with sum x = cap: exactly cap in total,
    within budget, no or two fractional parts summing to one, and its
    rounding (the lighter fractional unit in) is a feasible cap-set."""
    by_id = {uid: (p, w) for uid, p, w in units}
    x = ev.fractional_solution
    assert all(0 < v <= 1 for v in x.values())
    assert sum(x.values(), ZERO) == cap
    assert sum((by_id[uid][0] * v for uid, v in x.items()), ZERO) == ev.value
    assert sum((by_id[uid][1] * v for uid, v in x.items()), ZERO) <= budget
    fractional = [v for v in x.values() if v < 1]
    assert len(fractional) in (0, 2) and sum(fractional, ZERO) in (0, 1)
    ids = ev.rounded_ids
    assert len(set(ids)) == cap
    assert sum((by_id[uid][1] for uid in ids), ZERO) <= budget


def check_against_fractions(units, budget, cap):
    """The engine's exact-cap answer equals the Fraction reference, down to
    the vertex; off the fast path its multiplier is the enumerated one and
    its value is the dual value there (the primal == dual certificate)."""
    ev = solve_box_lp(units, budget, cap, equality=True)
    ref = box_lp_fractions(units, budget, cap, equality=True)
    assert ev == ref
    if ev is None:
        return None
    check_equality_primal(ev, units, budget, cap)
    if ev.mu:
        assert ev.mu == critical_multiplier_enum(units, budget, cap, equality=True)
        assert ev.value == _dual_at(units, ev.mu, budget, cap, equality=True)
    return ev


class TestEqualityRow:
    """The box LP with sum x = cap, as exactly-K mode asks it: every unit
    ranks, zero profits included, the cut may be zero or negative, and a
    query the cap lightest units cannot fit is infeasible."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_lp_vertex(self, seed):
        rnd = random.Random(f"equality-lp-{seed}")
        units = pool(seed, rnd.randint(1, 10), frac=seed % 2 == 0)
        units = [(uid, p, ZERO if rnd.random() < 0.15 else w) for uid, p, w in units]
        units = with_zero_profits(units, rnd)
        for _ in range(4):
            budget, cap = equality_case(units, rnd)
            ev = solve_box_lp(units, budget, cap, equality=True)
            ref = lp_vertex(as_items(units), max(budget, ZERO), cap, equality=True)
            if ev is None:
                assert ref.value is None or budget < 0
                continue
            assert ev.value == ref.value
            check_equality_primal(ev, units, budget, cap)

    @pytest.mark.parametrize("shape", SHAPES + ["concave", "alternating"])
    def test_equals_fraction_reference(self, shape):
        rnd = random.Random(f"equality-fractions-{shape}")
        searched = infeasible = 0
        for _ in range(60):
            units = with_zero_profits(shaped_pool(shape, rnd, rnd.randint(1, 30)), rnd)
            ev = check_against_fractions(units, *equality_case(units, rnd))
            infeasible += ev is None
            searched += ev is not None and bool(ev.mu)
        assert searched >= 10 and infeasible

    @pytest.mark.parametrize("shape", WIDE_SHAPES)
    def test_wide_pools_equal_fraction_reference(self, shape):
        rnd = random.Random(f"equality-wide-{shape}")
        searched = 0
        for _ in range(25):
            units = with_zero_profits(wide_pool(shape, rnd, rnd.randint(1, 24)), rnd)
            ev = check_against_fractions(units, *equality_case(units, rnd))
            searched += ev is not None and bool(ev.mu)
        assert searched

    def test_cuts_at_zero_and_below(self, monkeypatch):
        # The vertex pass at mu* cuts at the cap-th key, whatever its sign.
        cuts = []
        original = small_items._greedy_pass

        def recorded(scaled, cap, num, den):
            out = original(scaled, cap, num, den)
            cuts.append(out[1])
            return out

        monkeypatch.setattr(small_items, "_greedy_pass", recorded)
        rnd = random.Random("equality-cuts")
        for shape in ["ties", "random", "zero-weights"]:
            for _ in range(40):
                units = with_zero_profits(shaped_pool(shape, rnd, rnd.randint(2, 20)), rnd)
                check_against_fractions(units, *equality_case(units, rnd))
        assert None not in cuts
        assert any(c == 0 for c in cuts) and any(c < 0 for c in cuts)

    def test_zero_profit_pool_takes_the_cap_lightest(self):
        units = [(1, ZERO, F(5)), (2, ZERO, F(1)), (3, ZERO, F(3)), (4, ZERO, F(2))]
        ev = solve_box_lp(units, F(10), 3, equality=True)
        assert ev.value == 0 and ev.integral_ids == (2, 3, 4)
        assert solve_box_lp(units, F(5), 3, equality=True) is None
        # At most, a zero-profit pool has nothing to take.
        assert solve_box_lp(units, F(10), 3).integral_ids == ()

    def test_weightless_units(self):
        units = [(1, F(3), ZERO), (2, F(9), F(4)), (3, F(1), ZERO)]
        ev = solve_box_lp(units, ZERO, 2, equality=True)
        assert ev.integral_ids == (1, 3) and ev.value == 4
        assert solve_box_lp(units, ZERO, 3, equality=True) is None
        # Half of unit 2 fits; the other half slot goes to weightless unit 3,
        # and rounding keeps the lighter of the two.
        ev = check_against_fractions(units, F(2), 2)
        assert ev.value == 8
        assert ev.fractional_solution == {1: 1, 2: F(1, 2), 3: F(1, 2)}
        assert ev.rounded_ids == (1, 3)

    def test_cap_equal_to_pool_size(self):
        units = [(1, F(3), F(2)), (2, ZERO, F(1)), (3, F(7), F(4))]
        ev = solve_box_lp(units, F(7), 3, equality=True)
        assert ev.integral_ids == (1, 2, 3) and ev.value == 10
        assert solve_box_lp(units, F(13, 2), 3, equality=True) is None
        assert solve_box_lp(units, F(100), 4, equality=True) is None

    def test_infeasible_queries(self):
        units = pool(3, 8)
        lightest = sum(sorted(w for _, _, w in units)[:4], ZERO)
        assert solve_box_lp(units, lightest, 4, equality=True) is not None
        assert solve_box_lp(units, lightest - F(1, 2), 4, equality=True) is None
        assert solve_box_lp(units, F(-1), 0, equality=True) is None
        assert solve_box_lp(units, F(0), 0, equality=True).value == 0
        solver = SmallSolver.of(units, K=9, exactly_k=True)
        assert solver.phi_dag(lightest - F(1, 2), 4) is None
        assert solver.eval_detail(lightest - F(1, 2), 4) is None
        assert solver.phi_dag(F(1000), 9) is None  # more slots than units

    @pytest.mark.parametrize("shape", SHAPES + WIDE_SHAPES)
    def test_pass_matches_python_int_reference(self, shape):
        rnd = random.Random(f"equality-pass-{shape}")
        pool_of = wide_pool if shape in WIDE_SHAPES else shaped_pool
        for _ in range(20):
            units = with_zero_profits(pool_of(shape, rnd, rnd.randint(1, 50)), rnd)
            n = len(units)
            scaled = SmallSolver.of(units, K=n, exactly_k=True)
            P, W = scaled.P.tolist(), scaled.W.tolist()
            end = (max(P) - min(P) + 1, 1)
            for _ in range(6):
                cap = rnd.randint(1, n)
                i, j = rnd.randrange(n), rnd.randrange(n)
                if W[i] != W[j]:
                    # A pairwise crossing, where two keys tie.
                    num, den = abs(P[i] - P[j]), abs(W[i] - W[j])
                else:
                    num, den = rnd.randint(0, 50), rnd.randint(1, 50)
                for nu in [(num, den), (0, 1), end]:
                    got = _lightest_maximizer(scaled, cap, *nu)
                    ref = lightest_maximizer_int(scaled.P, scaled.W, cap, *nu, equality=True)
                    assert same_pass(got, ref)
            # At the bracket's right end the selection is the cap lightest.
            cap = rnd.randint(1, n)
            assert _lightest_maximizer(scaled, cap, *end)[1] == scaled.lightest[cap]

    def test_solver_matches_solving_from_scratch(self):
        units = with_zero_profits(pool(23, 60, frac=True, pmax=40, wmax=20), random.Random(5))
        solver = SmallSolver.of(units, K=12, exactly_k=True)
        rnd = random.Random(6)
        answered = 0
        for _ in range(60):
            omega = Fraction(rnd.randint(1, 200), rnd.choice([1, 2, 3]))
            k = rnd.choice([1, 4, 12])
            ref = solve_box_lp(units, omega, k, equality=True)
            assert solver.phi_dag(omega, k) == (None if ref is None else ref.value)
            assert solver.eval_detail(omega, k) == ref
            answered += ref is not None
        assert answered > 20
