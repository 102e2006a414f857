"""Acceptance suite: eleven end-to-end checks, one per release criterion.

Each test computes a verdict over its full corpus, then records exactly one
pass/fail line through the `criterion` fixture (printed in the terminal
summary). Failures carry counts and worst cases in the detail string.
"""

import itertools
import random
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import F, ZERO, evaluation_counter, inst_of, member_ids, solve_fine
from test_large_items import class_items, mk_class, share_unit
from kknapsack.combiner import InfeasibleInstanceError, solve_with_details
from kknapsack.generator import DISTRIBUTIONS, generate_instance
from kknapsack.instance_model import Instance, Item, Mode, evaluate_solution
from kknapsack.large_items import (
    ProfitGrid,
    build_phi_L,
    convolve,
    retrieve_items,
    snap_class_profit,
    table_format,
    trivial_table,
)
from kknapsack.oracles import (
    WeightBuckets,
    _expand_types,
    base_table,
    brute_force,
    column_scan,
    enumerate_slices,
    exact_dp,
    exhaustive_table,
    lp_vertex,
    naive_convolve,
    profit_at,
    round_small_weights,
    slice_search,
    upsilon1,
    upsilon2,
    upsilon2_linear,
    upsilon4,
    upsilon5,
)
from kknapsack.preprocessing import build_partition


def run_criterion(criterion, num, description, body):
    """Run the corpus computation; a crash still records a FAIL line."""
    try:
        passed, detail = body()
    except Exception as exc:  # pragma: no cover - only on broken builds
        criterion(num, description, False, f"crashed: {exc!r}")
        raise
    criterion(num, description, passed, detail)


# ---------------------------------------------------------------------------
# 1. Approximation guarantee at desk scale.
# ---------------------------------------------------------------------------

def test_c01_guarantee_small_scale(criterion):
    def body():
        eps = F(1, 4)
        count, failures, worst = 0, 0, 1.0
        start = time.perf_counter()
        for seed in range(500):
            rnd = random.Random(10_000 + seed)
            dist = DISTRIBUTIONS[seed % len(DISTRIBUTIONS)]
            n = rnd.randint(4, 18)
            K = rnd.randint(1, 6)
            inst = generate_instance(
                dist,
                n,
                K,
                seed=seed,
                weight_max=rnd.choice([10, 50, 200]),
                integral=rnd.random() < 0.7,
            )
            sol, _ = solve_with_details(inst, eps)
            ref = brute_force(inst)
            count += 1
            feas = evaluate_solution(inst, sol)
            if not feas.feasible:
                failures += 1
                continue
            if ref.value > 0:
                ratio = float(sol.total_profit / ref.value)
                worst = min(worst, ratio)
            if sol.total_profit < (1 - eps) * ref.value:
                failures += 1
        elapsed = time.perf_counter() - start
        ok = failures == 0 and elapsed < 300
        return ok, (
            f"{count} instances, {failures} failures, worst ratio "
            f"{worst:.4f}, {elapsed:.1f}s (limit 300s)"
        )

    run_criterion(
        criterion,
        "01",
        "value >= 0.75*OPT on 500 mixed instances (n<=18, K<=6), under 5 min",
        body,
    )


# ---------------------------------------------------------------------------
# 2. Mid-scale guarantee against the integer DP.
# ---------------------------------------------------------------------------

def c02_instances():
    """The 100 integer at-most instances of criterion 2 (n <= 200,
    K <= 20, budget <= 1000)."""
    out = []
    for seed in range(100):
        rnd = random.Random(20_000 + seed)
        dist = DISTRIBUTIONS[seed % len(DISTRIBUTIONS)]
        n = rnd.randint(30, 200)
        K = rnd.randint(2, 20)
        inst = generate_instance(dist, n, K, seed=seed, weight_max=40)
        if inst.budget > 1000:
            inst = Instance(
                items=inst.items,
                budget=Fraction(1000),
                cardinality=K,
                mode=Mode.AT_MOST,
            )
        out.append(inst)
    return out


def test_c02_guarantee_mid_scale(criterion):
    def body():
        failures, count, worst = 0, 0, 1.0
        for inst in c02_instances():
            ref = exact_dp(inst)
            for eps in (F(1, 10), F(3, 10)):
                sol, _ = solve_with_details(inst, eps)
                count += 1
                if ref.value > 0:
                    worst = min(worst, float(sol.total_profit / ref.value))
                if sol.total_profit < (1 - eps) * ref.value:
                    failures += 1
        return failures == 0, (
            f"{count} solves over 100 instances (n<=200, K<=20, W<=1000), "
            f"{failures} failures, worst ratio {worst:.4f}"
        )

    run_criterion(
        criterion,
        "02",
        "value >= (1-eps)*OPT vs exact DP on 100 integer instances, eps in {0.1, 0.3}",
        body,
    )


# ---------------------------------------------------------------------------
# Shared random table systems for criteria 3 and 4.
# ---------------------------------------------------------------------------

def _table_system(seed, integral):
    """Grid + classes with |X| <= 64 (m <= 63) and z <= 8; fractional-weight
    systems stay smaller."""
    rnd = random.Random(seed)
    if integral:
        z = rnd.randint(1, 8)
        inv = rnd.randint(1, max(1, 63 // z))
    else:
        z = rnd.randint(1, 6)
        inv = rnd.randint(1, max(1, min(4, 24 // z)))
    delta = Fraction(rnd.randint(1, 5), rnd.choice([1, 1, 2]))
    grid = ProfitGrid(delta=delta, z=z, top_anchor=inv)
    growth = Fraction(rnd.randint(3, 9), 2)
    classes = []
    next_id = 1
    for _ in range(rnd.randint(1, 4)):
        scale = z * delta * Fraction(rnd.randint(2, 9), 2)
        count = rnd.randint(1, 5)
        if integral:
            weights = [Fraction(rnd.randint(1, 50)) for _ in range(count)]
        else:
            weights = [
                Fraction(rnd.randint(1, 50), rnd.choice([1, 2, 3, 5]))
                for _ in range(count)
            ]
        classes.append(
            mk_class(rnd.randint(0, 2), scale, growth, weights, first_id=next_id)
        )
        next_id += count
    return grid, share_unit(classes)


def _fold(grid, classes):
    acc = trivial_table(grid, *table_format(classes))
    for cls in classes:
        acc = convolve(acc, cls)
    return acc


def _naive_fold(grid, classes):
    fmt = table_format(classes)
    acc = trivial_table(grid, *fmt)
    for cls in classes:
        acc = naive_convolve(acc, base_table(grid, cls, fmt[1]))
    return acc


def test_c03_convolution_oracle_equivalence(criterion):
    def body():
        mismatches = 0
        systems = 0
        for seed in range(200):
            integral = seed % 5 != 0  # 160 integral + 40 fractional systems
            grid, classes = _table_system(seed, integral)
            got = _fold(grid, classes)
            want = _naive_fold(grid, classes)
            systems += 1
            same = (
                np.array_equal(got.values, want.values)
                and got.weight_scale == want.weight_scale
            )
            if not same:
                mismatches += 1
                continue
            by_row = {it.id: it for cls in classes for it in class_items(cls)}
            for q in range(grid.m + 1):
                for k in range(grid.z + 1):
                    if not got.is_finite(q, k):
                        continue
                    rows = retrieve_items(got, q, k)
                    w = sum((by_row[r].weight for r in rows), ZERO)
                    if w != got.value_at(q, k):
                        mismatches += 1
        return mismatches == 0, f"{systems} systems, {mismatches} mismatches"

    run_criterion(
        criterion,
        "03",
        "structured convolution == naive convolution bit-exactly on 200 systems, "
        "retrieved sets realise every finite cell",
        body,
    )


def test_c03_theta_cap_keeps_every_cell():
    # At most K, convolve folds only the member counts theta <= ceil(m/tau);
    # exactly K it folds every theta <= min(size, z). On C03's systems in
    # both modes, every cell's value and backpointer equal those of the
    # column scan, which tries every theta at every cell.
    capped = 0
    for seed in range(200):
        grid, classes = _table_system(seed, seed % 5 != 0)
        cells = [(q, k) for q in range(grid.m + 1) for k in range(grid.z + 1)]
        for exactly_k in (False, True):
            acc = trivial_table(grid, *table_format(classes), exactly_k=exactly_k)
            for cls in classes:
                tau = snap_class_profit(grid, cls)
                out = convolve(acc, cls)
                for (q, k), theta in zip(cells, column_scan(acc, cls, tau, cells)):
                    rest = int(acc.values[max(q - theta * tau, 0), k - theta])
                    value = min(cls.prefix_weights[theta] + rest, acc.inf)
                    assert min(int(out.values[q, k]), out.inf) == value, (seed, q, k)
                    assert out.backptr[q, k] == theta, (seed, q, k)
                if not exactly_k:
                    counts = min(cls.size, grid.z)
                    capped += counts - min(counts, -(-grid.m // tau))
                acc = out
    # The at-most folds leave out 504 member counts, which the exactly-K
    # folds of the same classes fold.
    assert capped == 504


def test_c04_slope_property_and_slice_minima(criterion):
    def body():
        slope_violations = 0
        argmin_mismatches = 0
        slices = 0
        for seed in range(60):
            grid, classes = _table_system(seed + 600, seed % 2 == 0)
            acc = trivial_table(grid, *table_format(classes))
            for cls in classes:
                tau = snap_class_profit(grid, cls)
                out = convolve(acc, cls)
                for cells in enumerate_slices(grid, tau):
                    chis = column_scan(acc, cls, tau, cells)
                    slices += 1
                    if any(b - a > 1 for a, b in zip(chis, chis[1:])):
                        slope_violations += 1
                    got = [int(out.backptr[q, k]) for q, k in cells]
                    if slice_search(acc, cls, tau, cells) != chis:
                        argmin_mismatches += 1
                    if got != chis:
                        argmin_mismatches += 1
                acc = out
        ok = slope_violations == 0 and argmin_mismatches == 0
        return ok, (
            f"{slices} slices over 60 systems: {slope_violations} slope "
            f"violations, {argmin_mismatches} argmin mismatches"
        )

    run_criterion(
        criterion,
        "04",
        "column argmins drift by at most one per step on every slice; "
        "divide-and-conquer and production minima == exhaustive column scan",
        body,
    )


# ---------------------------------------------------------------------------
# 5. Discretization loss of the large-item table.
# ---------------------------------------------------------------------------

def test_c05_discretization_bound(criterion):
    def body():
        checked = 0
        failures = 0
        instances = 0
        seed = 0
        rnd = random.Random(99)
        while instances < 100 and seed < 2000:
            seed += 1
            inst = generate_instance(
                "uniform", rnd.randint(8, 24), rnd.randint(2, 6),
                seed=30_000 + seed, weight_max=30,
            )
            part = build_partition(inst, F(1, 8))
            pool = [
                (c.rounded_profit, inst.by_id[i].weight)
                for c in part.large_classes
                for i in member_ids(part, c.rows)
            ]
            if not 1 <= len(pool) <= 10:
                continue
            instances += 1
            table = build_phi_L(part)
            grid = table.grid
            delta = grid.delta
            # Every subset of the large pool once; queries scan this list.
            subsets = []
            for r in range(len(pool) + 1):
                for combo in itertools.combinations(pool, r):
                    subsets.append(
                        (
                            len(combo),
                            sum((w for _, w in combo), ZERO),
                            sum((p for p, _ in combo), ZERO),
                        )
                    )
            for _ in range(20):
                omega = Fraction(rnd.randint(0, int(inst.budget * 4)), 4)
                k = rnd.randint(0, grid.z)
                exact = max(
                    (p for cnt, w, p in subsets if cnt <= k and w <= omega),
                    default=ZERO,
                )
                q = profit_at(table, omega, k)
                loss = exact - q * delta
                checked += 1
                if not (0 <= loss <= (grid.z + 1) * delta):
                    failures += 1
        ok = failures == 0 and instances == 100
        return ok, (
            f"{instances} instances x 20 queries = {checked} checks, "
            f"{failures} outside [0, (z+1)*delta]"
        )

    run_criterion(
        criterion,
        "05",
        "table profit vs exact rounded-profit optimum within (z+1)*delta "
        "on 100 instances with <= 10 large items",
        body,
    )


# ---------------------------------------------------------------------------
# 6. Scripted non-convergence example.
# ---------------------------------------------------------------------------

def test_c06_discretization_counterexample(criterion):
    def body():
        # Two classes of two items each over total budget omega = 1 and
        # reference optimum 1: both classes hold a (1/8, omega/2) item; the
        # first adds (1/3, omega/4), the second (1/6, omega/4). Picking the
        # 1/3 and 1/6 items yields profit exactly 1/2 at weight omega/2 --
        # but 1/3 and 1/6 never sit on a power-of-two grid, so every grid
        # discretization must add a third item and pay omega instead, no
        # matter how fine the grid gets.
        opt = F(1)
        omega = F(1)
        s1 = [
            (1, opt / 8, omega / 2),
            (2, opt / 3, omega / 4),
        ]
        s2 = [
            (3, opt / 8, omega / 2),
            (4, opt / 6, omega / 4),
        ]
        all_items = s1 + s2

        # Continuous side: cheapest subset of at most 3 items with exact
        # profit sum >= opt/2, by full enumeration.
        exact_best = None
        for r in range(4):
            for combo in itertools.combinations(all_items, r):
                if sum((p for _, p, _ in combo), ZERO) >= opt / 2:
                    w = sum((w for _, _, w in combo), ZERO)
                    if exact_best is None or w < exact_best:
                        exact_best = w
        if exact_best != omega / 2:
            return False, f"continuous optimum {exact_best} != omega/2"

        failures = []
        for d in (3, 4, 6):
            grid = ProfitGrid(delta=opt / 2**d, z=3, top_anchor=-(-(2**d) // 3))
            t1 = exhaustive_table(
                grid, [Item(id=i, profit=p, weight=w) for i, p, w in s1]
            )
            t2 = exhaustive_table(
                grid, [Item(id=i, profit=p, weight=w) for i, p, w in s2]
            )
            folded = naive_convolve(t1, t2)
            q_half = 2 ** (d - 1)  # grid index of profit opt/2
            got = folded.value_at(q_half, 3)
            if got != omega:
                failures.append(f"d={d}: {got} != omega")
        ok = not failures
        detail = (
            "continuous=omega/2; discretized=omega at d in {3,4,6}"
            if ok
            else "; ".join(failures)
        )
        return ok, detail

    run_criterion(
        criterion,
        "06",
        "scripted example: exact min weight omega/2 vs omega under every "
        "power-of-two profit grid",
        body,
    )


# ---------------------------------------------------------------------------
# 7. LP exactness of the two relaxation solvers.
# ---------------------------------------------------------------------------

def test_c07_lp_exactness(criterion):
    def body():
        u1_bad = u1_frac_bad = u4_bad = 0
        for seed in range(300):
            rnd = random.Random(70_000 + seed)
            n = rnd.randint(1, 10)
            units = [
                (
                    uid,
                    Fraction(rnd.randint(0, 30), rnd.choice([1, 2, 3])),
                    Fraction(rnd.randint(1, 20), rnd.choice([1, 2])),
                )
                for uid in range(1, n + 1)
            ]
            omega = Fraction(rnd.randint(1, 50), rnd.choice([1, 2]))
            k = rnd.randint(1, 7)
            ev = upsilon1(units, omega, k)
            ref = lp_vertex(
                [Item(id=u, profit=p, weight=w) for u, p, w in units], omega, k
            )
            if ev.value != ref.value:  # == implies any relative tolerance
                u1_bad += 1
            if sum(0 < v < 1 for v in ev.fractional_solution.values()) > 2:
                u1_frac_bad += 1

        for seed in range(300):
            rnd = random.Random(80_000 + seed)
            n = rnd.randint(1, 8)
            units = [
                (
                    uid,
                    Fraction(rnd.randint(1, 30), rnd.choice([1, 2])),
                    Fraction(rnd.randint(1, 24), rnd.choice([1, 2, 4])),
                )
                for uid in range(1, n + 1)
            ]
            omega = Fraction(rnd.randint(2, 40))
            eps = Fraction(1, rnd.choice([2, 3, 4]))
            K = rnd.randint(2, 6)
            ell = rnd.randint(0, 2)
            kk = rnd.randint(ell, 6)
            ev4 = upsilon4(units, omega, ell, kk, eps, K)
            _, types = round_small_weights(units, omega, eps, K)
            expanded = [
                Item(id=u, profit=p, weight=w)
                for u, p, w in _expand_types(types)
            ]
            cap = max(0, min(kk - ell, len(expanded)))
            ref4 = lp_vertex(expanded, (1 - eps) * omega, cap)
            if ev4.value != ref4.value:
                u4_bad += 1
        ok = u1_bad == u1_frac_bad == u4_bad == 0
        return ok, (
            f"300 box-LP programs: {u1_bad} value mismatches, {u1_frac_bad} "
            f"vertices with >2 fractional; 300 dual programs: {u4_bad} mismatches"
        )

    run_criterion(
        criterion,
        "07",
        "upsilon1/upsilon4 equal the vertex-enumeration LP optimum exactly "
        "(within 1e-12/1e-9), vertices have <= 2 fractional components",
        body,
    )


# ---------------------------------------------------------------------------
# 8. Relaxation error bounds against the exact small-item optimum.
# ---------------------------------------------------------------------------

def _small_pools(base_seed, eps, want, n_range, K_range):
    """Partitions with a non-empty small pool of at most 22 items, as
    (pool, K, opt_estimate, budget) tuples."""
    out = []
    seed = 0
    rnd = random.Random(base_seed)
    while len(out) < want and seed < 3000:
        seed += 1
        inst = generate_instance(
            "uniform",
            rnd.randint(*n_range),
            rnd.randint(*K_range),
            seed=base_seed + seed,
            weight_max=rnd.choice([15, 40]),
            integral=rnd.random() < 0.5,
        )
        try:
            part = build_partition(inst, eps)
        except Exception:
            continue
        pool = [
            (i, c.rounded_profit, inst.by_id[i].weight)
            for c in part.small_classes
            for i in member_ids(part, c.rows)
        ]
        if not 1 <= len(pool) <= 22:
            continue
        out.append((pool, part.cardinality, part.opt_estimate, inst.budget))
    return out


def _phi_small(pool, omega, k):
    res = brute_force(inst_of(pool, omega, k, mode=Mode.AT_MOST))
    return res.value


def test_c08_relaxation_error_bounds(criterion):
    def body():
        rnd = random.Random(1)
        u1_checked = u1_bad = 0
        eps1 = F(1, 4)
        for pool, K, opt_hat, W in _small_pools(40_000, eps1, 25, (8, 18), (2, 4)):
            assert K * eps1 <= 1
            for _ in range(4):
                omega = Fraction(rnd.randint(0, int(W * 2)), 2)
                k = rnd.randint(1, K)
                v1 = upsilon1(pool, omega, k).value
                phi = _phi_small(pool, omega, k)
                u1_checked += 1
                if abs(v1 - phi) > 2 * eps1 * opt_hat:
                    u1_bad += 1

        u2_checked = u2_bad = 0
        eps2 = F(1, 2)
        u2_pools = _small_pools(50_000, eps2, 25, (8, 18), (4, 8))
        for pool, K, opt_hat, W in u2_pools:
            if K * eps2 <= 1:
                continue
            omegas = [Fraction(rnd.randint(1, int(W * 2)), 2) for _ in range(4)]
            buckets = WeightBuckets(pool, omegas, eps2, K)
            for omega in omegas:
                k = rnd.randint(1, K)
                v2, _ = upsilon2(pool, buckets, omega, k, eps2, K)
                phi = _phi_small(pool, omega, k)
                u2_checked += 1
                if abs(v2 - phi) > 4 * eps2 * opt_hat:
                    u2_bad += 1

        # Production answers the K > 1/eps regime with upsilon1 as well; its
        # vertex drops at most two fractional items of profit <= eps*opt.
        big_checked = big_bad = 0
        big_worst = ZERO
        for pool, K, opt_hat, W in u2_pools:
            if K * eps2 <= 1:
                continue
            for _ in range(8):
                omega = Fraction(rnd.randint(0, int(W * 2)), 2)
                k = rnd.randint(1, K)
                v1 = upsilon1(pool, omega, k).value
                phi = _phi_small(pool, omega, k)
                big_checked += 1
                big_worst = max(big_worst, abs(v1 - phi) / (eps2 * opt_hat))
                if abs(v1 - phi) > 2 * eps2 * opt_hat:
                    big_bad += 1
        ok = (
            u1_bad == u2_bad == big_bad == 0
            and u1_checked >= 100
            and u2_checked >= 100
            and big_checked >= 100
        )
        return ok, (
            f"|u1-phi|<=2*eps*opt: {u1_bad}/{u1_checked} failures; "
            f"|u2-phi|<=4*eps*opt: {u2_bad}/{u2_checked} failures; "
            f"K>1/eps |u1-phi|<=2*eps*opt: {big_bad}/{big_checked} failures "
            f"(worst {float(big_worst):.2f}*eps*opt)"
        )

    run_criterion(
        criterion,
        "08",
        "small-item relaxations track the exact subpool optimum within "
        "2*eps*opt (u1 regime), 4*eps*opt (u2 regime) and 2*eps*opt (u1 "
        "in the u2 regime)",
        body,
    )


# ---------------------------------------------------------------------------
# 9. Concavity of the split objective; search == scan.
# ---------------------------------------------------------------------------

def test_c09_split_concavity_and_search(criterion):
    def body():
        concavity_bad = search_bad = queries = 0
        rnd = random.Random(2)
        for pool, K, _, W in _small_pools(60_000, F(1, 2), 30, (10, 20), (4, 8)):
            omegas = [Fraction(rnd.randint(1, int(W * 2)), 2) for _ in range(2)]
            buckets = WeightBuckets(pool, omegas, F(1, 2), K)
            for omega in omegas:
                k = rnd.randint(2, K)
                queries += 1
                vals = [
                    upsilon5(pool, buckets, omega, ell, k, F(1, 2), K)
                    for ell in range(k + 1)
                ]
                diffs = [b - a for a, b in zip(vals, vals[1:])]
                if any(d2 > d1 for d1, d2 in zip(diffs, diffs[1:])):
                    concavity_bad += 1
                got = upsilon2(pool, buckets, omega, k, F(1, 2), K)
                want = upsilon2_linear(pool, buckets, omega, k, F(1, 2), K)
                if got != want:
                    search_bad += 1
        ok = concavity_bad == 0 and search_bad == 0 and queries >= 50
        return ok, (
            f"{queries} (omega,k) queries: {concavity_bad} concavity "
            f"violations, {search_bad} binary/linear mismatches"
        )

    run_criterion(
        criterion,
        "09",
        "split objective has non-increasing differences in ell; binary-search "
        "split == linear scan on every tested query",
        body,
    )


# ---------------------------------------------------------------------------
# 10. Wall-time independence from the cardinality bound.
# ---------------------------------------------------------------------------

@pytest.mark.timing
def test_c10_cardinality_independence_trend(criterion):
    # The pipeline at internal accuracy 1/10 (solve_fine at eps = 4/5), and
    # the public solve, which tries eps_int = 4/5 first. Each repetition
    # times every K once, so a change in the host's speed during the run
    # reaches every K alike.
    def body():
        base = generate_instance("uniform", 2000, 16, seed=7, weight_max=1000)
        insts = {
            K: Instance(
                items=base.items,
                budget=base.budget,
                cardinality=K,
                mode=Mode.AT_MOST,
            )
            for K in (16, 64, 256, 1024)
        }
        runs = {"pipeline": solve_fine, "solve": solve_with_details}
        walls = {name: {K: [] for K in insts} for name in runs}
        z_seen = set()
        for _ in range(5):
            for K, inst in insts.items():
                for name, run in runs.items():
                    t0 = time.perf_counter()
                    _, det = run(inst, F(4, 5))
                    walls[name][K].append(time.perf_counter() - t0)
                    if name == "pipeline":
                        z_seen.add(det["z"])
        medians = {
            name: {K: statistics.median(w) for K, w in per_k.items()}
            for name, per_k in walls.items()
        }
        spreads = {name: max(m.values()) / min(m.values()) for name, m in medians.items()}
        ok = all(s < 2.0 for s in spreads.values()) and z_seen == {10}
        detail = "; ".join(
            f"{name} medians "
            + ", ".join(f"K={k}: {v * 1000:.0f}ms" for k, v in medians[name].items())
            + f", spread {spreads[name]:.2f}x"
            for name in medians
        ) + f" (< 2x required); pipeline z always 10: {z_seen == {10}}"
        return ok, detail

    run_criterion(
        criterion,
        "10",
        "n=2000: median wall time varies < 2x across K in {16, 64, 256, 1024}, "
        "for the pipeline at internal accuracy 1/10 and for the public solve",
        body,
    )


def test_c10_small_side_work_does_not_grow_with_k():
    # C10's instance has no large class at internal accuracy 1/10, so every
    # split has x = 0 and the same table weight, and the split at k = 0
    # dominates the rest: one small query at every K, and a bounded number
    # of greedy passes however many slots it has.
    base = generate_instance("uniform", 2000, 16, seed=7, weight_max=1000)
    for K in (16, 64, 256, 1024):
        inst = Instance(items=base.items, budget=base.budget, cardinality=K, mode=Mode.AT_MOST)
        _, det = solve_fine(inst, F(4, 5))
        assert det["internal_eps"] == F(1, 10)
        assert det["split_queries"] == 1, (K, det["split_queries"])
        assert det["small_passes"] <= 16, (K, det["small_passes"])



def test_k_spread_rows_pass_counts(monkeypatch):
    # The exactly-K rows of tests/test_scale.py's K-spread test (uniform
    # n = 2000, seed 3, the K = 1024 budget, eps = 1/4): the greedy passes of
    # one public solve, the estimate's LP and the pipeline pool's queries
    # together. A pool of partition classes reads its pass at nu = 0 from
    # the class runs, so below K = 1024 only the estimate's fast-path pass
    # runs. A change that adds passes fails here without a timer.
    base = generate_instance("uniform", 2000, 1024, seed=3)
    calls = evaluation_counter(monkeypatch)
    counts = {}
    for K in (16, 64, 256, 1024):
        inst = Instance(items=base.items, budget=base.budget, cardinality=K, mode=Mode.EXACT)
        calls[0] = 0
        solve_with_details(inst, F(1, 4))
        counts[K] = calls[0]
    assert counts == {16: 1, 64: 1, 256: 1, 1024: 22}, counts

# ---------------------------------------------------------------------------
# 11. Exact-cardinality mode.
# ---------------------------------------------------------------------------

def c11_instances():
    """The 200 exactly-K (instance, eps) pairs of criterion 11 (n <= 16,
    K <= 5), some of them infeasible."""
    out = []
    for seed in range(200):
        rnd = random.Random(90_000 + seed)
        n = rnd.randint(6, 16)
        K = rnd.randint(2, 5)
        integral = rnd.random() < 0.8
        triples = []
        for uid in range(1, n + 1):
            p = Fraction(rnd.randint(0, 25))
            w = (
                Fraction(rnd.randint(1, 10))
                if integral
                else Fraction(rnd.randint(1, 20), 2)
            )
            triples.append((uid, p, w))
        budget = Fraction(rnd.randint(K, K * 7))
        out.append((inst_of(triples, budget, K, mode=Mode.EXACT), rnd.choice([F(1, 4), F(1, 2)])))
    return out


def test_c11_exact_mode_equivalence(criterion):
    def body():
        failures = infeasible_agree = solved = 0
        for inst, eps in c11_instances():
            K = inst.cardinality
            ref = brute_force(inst)
            try:
                sol, _ = solve_with_details(inst, eps)
            except InfeasibleInstanceError:
                if ref.value is None:
                    infeasible_agree += 1
                else:
                    failures += 1
                continue
            if ref.value is None:
                failures += 1
                continue
            solved += 1
            feas = evaluate_solution(inst, sol)
            if (
                not feas.feasible
                or sol.count != K
                or sol.total_profit < (1 - eps) * ref.value
            ):
                failures += 1
        ok = failures == 0
        return ok, (
            f"200 instances: {solved} solved with exactly K items and the "
            f"guarantee, {infeasible_agree} infeasible (solver and oracle "
            f"agree), {failures} failures"
        )

    run_criterion(
        criterion,
        "11",
        "exact-cardinality mode returns exactly K items at >= (1-eps)*OPT; "
        "infeasibility verdicts match the oracle on 200 instances",
        body,
    )
