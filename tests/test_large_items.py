"""Weight tables over the profit grid: snapping, slices, the three
convolution schedules, retrieval, and the scaled-integer exact storage."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import F, ZERO, inst_of
from kknapsack.instance_model import Item
from kknapsack.large_items import (
    EXACT,
    INT64,
    INT_WEIGHT_LIMIT,
    ProfitGrid,
    WeightTable,
    base_table,
    build_phi_L,
    check_table,
    convolve,
    enumerate_slices,
    large_pool_ids,
    pick_kind,
    profit_at,
    retrieve_items,
    scale_for,
    snap_class_profit,
    trivial_table,
)
from kknapsack.oracles import column_scan, exhaustive_table, naive_convolve
from kknapsack.preprocessing import LargeClass, build_partition
from kknapsack.rationals import INF
from kknapsack.generator import generate_instance


def mk_class(index, profit_scale, growth, weights, first_id=1):
    """LargeClass from raw member weights (sorted ascending here)."""
    weights = sorted(Fraction(w) for w in weights)
    members = tuple(
        Item(id=first_id + j, profit=Fraction(profit_scale), weight=w)
        for j, w in enumerate(weights)
    )
    prefix = [ZERO]
    for w in weights:
        prefix.append(prefix[-1] + w)
    return LargeClass(
        index=index,
        profit_scale=Fraction(profit_scale),
        growth=Fraction(growth),
        members=members,
        prefix_weights=tuple(prefix),
    )


def make_system(seed, frac=False, max_classes=3, max_members=4, z_max=6):
    """Random grid + classes; profit scales chosen so every snapped step
    count tau lands at or above z, as partition-produced classes guarantee."""
    rnd = random.Random(seed)
    z = rnd.randint(1, z_max)
    inv = rnd.randint(1, 4)
    delta = Fraction(rnd.randint(1, 6), rnd.choice([1, 2, 3]) if frac else 1)
    grid = ProfitGrid(delta=delta, z=z, inv_eps=inv)
    growth = Fraction(rnd.randint(3, 9), 2)
    classes = []
    next_id = 1
    for _ in range(rnd.randint(1, max_classes)):
        scale = z * delta * Fraction(rnd.randint(2, 9), 2)
        count = rnd.randint(1, max_members)
        if frac:
            weights = [
                Fraction(rnd.randint(1, 40), rnd.choice([1, 2, 3, 5, 7]))
                for _ in range(count)
            ]
        else:
            weights = [Fraction(rnd.randint(1, 40)) for _ in range(count)]
        classes.append(
            mk_class(rnd.randint(0, 2), scale, growth, weights, first_id=next_id)
        )
        next_id += count
    return grid, classes


def fold(grid, classes, kind, schedule="auto"):
    scale = 1 if kind == INT64 else scale_for(classes)
    acc = trivial_table(grid, kind, scale)
    for cls in classes:
        acc = convolve(acc, cls, schedule=schedule)
    return acc


def naive_fold(grid, classes, kind):
    scale = 1 if kind == INT64 else scale_for(classes)
    acc = trivial_table(grid, kind, scale)
    for cls in classes:
        acc = naive_convolve(acc, base_table(grid, cls, kind, weight_scale=scale))
    return acc


def assert_same_values(a, b):
    grid = a.grid
    for q in range(grid.m + 1):
        for k in range(grid.z + 1):
            assert a.value_at(q, k) == b.value_at(q, k), (q, k)


class TestProfitGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProfitGrid(delta=F(1), z=0, inv_eps=2)
        with pytest.raises(ValueError):
            ProfitGrid(delta=F(0), z=1, inv_eps=2)
        with pytest.raises(ValueError):
            ProfitGrid(delta=F(1), z=1, inv_eps=0)

    def test_shape_and_anchors(self):
        grid = ProfitGrid(delta=F(3, 2), z=4, inv_eps=3)
        assert grid.m == 12
        assert grid.cell_count == 13 * 5
        assert grid.anchor_indices() == [0, 4, 8, 12]
        assert grid.profit_value(5) == F(15, 2)

    def test_from_partition_covers_the_estimate(self):
        inst = inst_of([(i, 7 + i, 2 + i % 3) for i in range(1, 12)], 9, 4)
        for eps in (F(1, 4), F(3, 10), F(2, 3)):
            part = build_partition(inst, eps)
            grid = ProfitGrid.from_partition(part)
            assert grid.z == part.z
            assert grid.delta == eps * part.opt_estimate / part.z
            # Anchor profits i*eps*opt sit exactly on the grid, and the top
            # grid point reaches the optimum estimate.
            assert grid.profit_value(grid.anchor_indices()[1]) == eps * part.opt_estimate
            assert grid.profit_value(grid.m) >= part.opt_estimate


class TestSnapClassProfit:
    def test_boundary_profit_snaps_to_z(self):
        grid = ProfitGrid(delta=F(2), z=5, inv_eps=2)
        cls = mk_class(0, 5 * F(2), F(3, 2), [1])  # rounded profit z*delta
        assert snap_class_profit(grid, cls) == 5

    def test_fractional_multiple(self):
        # Profit 2.7 * (z * delta) with z = 10, delta = 1 snaps to 27 steps.
        grid = ProfitGrid(delta=F(1), z=10, inv_eps=3)
        cls = mk_class(0, F(27), F(3, 2), [1])
        assert snap_class_profit(grid, cls) == 27

    @pytest.mark.parametrize("seed", range(15))
    def test_floor_bracket(self, seed):
        grid, classes = make_system(seed, frac=seed % 2 == 0)
        for cls in classes:
            tau = snap_class_profit(grid, cls)
            p = cls.profit_scale * cls.growth**cls.index
            assert tau * grid.delta <= p < (tau + 1) * grid.delta
            assert tau >= grid.z

    def test_below_grid_profit_rejected(self):
        grid = ProfitGrid(delta=F(2), z=5, inv_eps=2)
        tiny = mk_class(0, F(3), F(3, 2), [1])  # 3 < z*delta = 10
        with pytest.raises(AssertionError):
            snap_class_profit(grid, tiny)


class TestTrivialAndBase:
    @pytest.mark.parametrize("kind", [EXACT, INT64])
    def test_trivial_table(self, kind):
        grid = ProfitGrid(delta=F(1), z=3, inv_eps=2)
        t = trivial_table(grid, kind)
        check_table(t)
        assert t.value_at(0, 0) == 0
        assert not t.is_finite(1, 3)
        assert t.stage is None

    def test_base_table_prefix_semantics(self):
        # Class of weights {1,2,3}, each member worth tau = 3 grid steps of
        # delta = 10/3 (so tau*delta = 10): profit 10 needs one member,
        # profit 20 two, profit 40 would need four > |class|.
        grid = ProfitGrid(delta=F(10, 3), z=3, inv_eps=4)
        cls = mk_class(0, F(10), F(3, 2), [1, 2, 3])
        table = base_table(grid, cls)
        check_table(table)
        assert table.value_at(3, 2) == 1
        assert table.value_at(6, 2) == 3
        assert not table.is_finite(12, 3)
        # Partial steps round member counts up: 4 steps already need two.
        assert table.value_at(4, 2) == 3
        assert table.backptr[3, 2] == 1
        assert table.backptr[6, 2] == 2

    @pytest.mark.parametrize("kind", [EXACT, INT64])
    @pytest.mark.parametrize("schedule", ["dc", "scan", "vector"])
    def test_base_equals_convolving_the_trivial_table(self, kind, schedule):
        if schedule == "vector" and kind == EXACT:
            pytest.skip("vector schedule is int64-only")
        grid, classes = make_system(4, frac=False, max_classes=1)
        cls = classes[0]
        scale = 1 if kind == INT64 else scale_for([cls])
        via_convolve = convolve(trivial_table(grid, kind, scale), cls, schedule)
        base = base_table(grid, cls, kind, weight_scale=scale)
        assert_same_values(base, via_convolve)
        assert np.array_equal(
            np.asarray(base.backptr), np.asarray(via_convolve.backptr)
        )


class TestSlices:
    @pytest.mark.parametrize(
        "z,inv,tau", [(1, 1, 1), (3, 2, 4), (5, 3, 2), (4, 2, 19), (6, 4, 7)]
    )
    def test_cells_covered_exactly_once(self, z, inv, tau):
        grid = ProfitGrid(delta=F(1), z=z, inv_eps=inv)
        seen = {}
        for cells in enumerate_slices(grid, tau):
            q0, k0 = cells[0]
            assert k0 == 0 or q0 <= tau  # valid slice start
            for i, (q, k) in enumerate(cells):
                assert (q, k) == (q0 + i * tau, k0 + i)  # direction (tau, 1)
                assert (q, k) not in seen
                seen[(q, k)] = True
        expected = {(q, k) for q in range(1, grid.m + 1) for k in range(z + 1)}
        assert set(seen) == expected


class TestConvolve:
    def test_empty_class_is_identity(self):
        grid, classes = make_system(7, frac=False)
        acc = fold(grid, classes, INT64)
        empty = mk_class(1, grid.z * grid.delta * 2, F(3, 2), [], first_id=99)
        out = convolve(acc, empty, schedule="scan")
        assert_same_values(acc, out)
        assert int(np.asarray(out.backptr).max()) == 0

    def test_two_singleton_classes(self):
        # Members worth 2 and 3 grid steps, weights 3 and 4: the only way to
        # reach 5 steps with two slots is both members, total weight 7.
        grid = ProfitGrid(delta=F(1), z=2, inv_eps=3)
        a = mk_class(0, F(2), F(3, 2), [3], first_id=1)
        b = mk_class(0, F(3), F(3, 2), [4], first_id=2)
        out = convolve(convolve(trivial_table(grid, EXACT), a), b)
        assert out.value_at(5, 2) == 7
        assert sorted(retrieve_items(out, 5, 2)) == [1, 2]
        assert not out.is_finite(6, 2)
        assert out.value_at(3, 1) == 4  # class b alone covers 3 steps

    @pytest.mark.parametrize("seed", range(10))
    def test_schedules_bit_identical_int64(self, seed):
        grid, classes = make_system(seed, frac=False)
        dc = fold(grid, classes, INT64, "dc")
        scan = fold(grid, classes, INT64, "scan")
        vector = fold(grid, classes, INT64, "vector")
        assert np.array_equal(dc.values, scan.values)
        assert np.array_equal(dc.values, vector.values)
        assert np.array_equal(np.asarray(dc.backptr), np.asarray(scan.backptr))
        assert np.array_equal(np.asarray(dc.backptr), np.asarray(vector.backptr))

    @pytest.mark.parametrize("seed", range(10))
    def test_schedules_bit_identical_exact(self, seed):
        grid, classes = make_system(100 + seed, frac=True)
        dc = fold(grid, classes, EXACT, "dc")
        scan = fold(grid, classes, EXACT, "scan")
        assert dc.values == scan.values
        assert np.array_equal(np.asarray(dc.backptr), np.asarray(scan.backptr))

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("kind", [EXACT, INT64])
    def test_fold_matches_naive_reference(self, seed, kind):
        grid, classes = make_system(
            200 + seed, frac=(kind == EXACT and seed % 2 == 0)
        )
        assert_same_values(fold(grid, classes, kind), naive_fold(grid, classes, kind))

    def test_fold_matches_subset_enumeration_for_uniform_profits(self):
        # When every member's exact profit equals its class's snapped grid
        # profit, the discrete table and the subset-enumeration table agree
        # cell for cell (no rounding is happening anywhere).
        from kknapsack.oracles import exhaustive_table

        grid = ProfitGrid(delta=F(2), z=3, inv_eps=3)
        tau = 4  # profit 8 = tau * delta
        cls = mk_class(0, F(8), F(3, 2), [2, 5, 9])
        assert snap_class_profit(grid, cls) == tau
        folded = fold(grid, [cls], EXACT)
        reference = exhaustive_table(grid, cls.members)
        assert_same_values(folded, reference)

    def test_vector_requires_int64(self):
        grid, classes = make_system(3)
        acc = trivial_table(grid, EXACT, scale_for(classes))
        with pytest.raises(ValueError):
            convolve(acc, classes[0], schedule="vector")

    def test_unknown_schedule_rejected(self):
        grid, classes = make_system(3)
        acc = trivial_table(grid, INT64)
        with pytest.raises(ValueError):
            convolve(acc, classes[0], schedule="zigzag")

    @pytest.mark.parametrize("seed", range(6))
    def test_slope_property_on_every_slice(self, seed):
        # The divide-and-conquer schedule is only correct because smallest
        # argmins drift by at most one per column step; check that on the
        # exhaustive per-column champion of every slice of every stage.
        grid, classes = make_system(300 + seed, frac=seed % 2 == 0)
        kind = EXACT if seed % 2 == 0 else INT64
        scale = 1 if kind == INT64 else scale_for(classes)
        acc = trivial_table(grid, kind, scale)
        for cls in classes:
            tau = snap_class_profit(grid, cls)
            for cells in enumerate_slices(grid, tau):
                chis = column_scan(acc, cls, tau, cells)
                for left, right in zip(chis, chis[1:]):
                    assert right - left <= 1
            acc = convolve(acc, cls, schedule="dc")

    @pytest.mark.parametrize("seed", range(6))
    def test_dc_matches_column_scan_oracle(self, seed):
        grid, classes = make_system(400 + seed, frac=seed % 2 == 1)
        kind = INT64 if seed % 2 == 0 else EXACT
        scale = 1 if kind == INT64 else scale_for(classes)
        acc = trivial_table(grid, kind, scale)
        for cls in classes:
            tau = snap_class_profit(grid, cls)
            out = convolve(acc, cls, schedule="dc")
            for cells in enumerate_slices(grid, tau):
                expected = column_scan(acc, cls, tau, cells)
                got = [int(out.backptr[q, k]) for q, k in cells]
                assert got == expected
            acc = out


def vector_fold_checked(acc, classes):
    """Fold classes with the vector schedule, asserting after every class
    that values and backpointers equal the dc schedule's bit for bit."""
    for cls in classes:
        vector = convolve(acc, cls, "vector")
        dc = convolve(acc, cls, "dc")
        assert np.array_equal(vector.values, dc.values)
        assert np.array_equal(vector.backptr, dc.backptr)
        assert vector.backptr.dtype == dc.backptr.dtype
        acc = vector
    return acc


def last_finite_row(table):
    grid = table.grid
    return max(q for q in range(grid.m + 1) if table.is_finite(q, grid.z))


class TestVectorFoldEdges:
    """The vector schedule reads constant prefixes below theta*tau, cuts
    its shifted reads at the accumulator's last finite row and stores
    narrow backpointers; each edge of that is checked against dc and the
    naive (min,+) enumeration."""

    def check(self, grid, classes):
        table = vector_fold_checked(trivial_table(grid, INT64), classes)
        naive = naive_fold(grid, classes, INT64)
        assert np.array_equal(table.values, naive.values)
        check_table(table)
        return table

    def test_tall_grid_with_low_last_finite_row(self):
        # Exactly-K shape: m = 60 while no z = 3 items reach past row 19,
        # so most of every shifted read lies past the last finite row.
        grid = ProfitGrid(delta=F(1), z=3, inv_eps=20)
        classes = [
            mk_class(0, F(4), F(2), [3, 5], first_id=1),
            mk_class(0, F(5), F(2), [2], first_id=3),
            mk_class(0, F(3), F(2), [1, 4], first_id=4),
        ]
        table = self.check(grid, classes)
        assert last_finite_row(table) < grid.m // 3

    def test_member_profit_reaches_past_top_row(self):
        # tau = 7 > m = 6 (every theta >= 1 covers the grid); tau = 3 hits
        # m exactly at theta = 2 and overshoots at theta = 3.
        grid = ProfitGrid(delta=F(1), z=3, inv_eps=2)
        wide = mk_class(0, F(7), F(2), [2, 3, 4], first_id=1)
        edge = mk_class(0, F(3), F(2), [1, 1, 5], first_id=4)
        self.check(grid, [wide, edge])
        self.check(grid, [edge, wide])

    def test_class_larger_than_z(self):
        grid = ProfitGrid(delta=F(1), z=2, inv_eps=3)
        classes = [
            mk_class(0, F(2), F(2), [1, 2, 3, 4, 5], first_id=1),
            mk_class(0, F(3), F(2), [2, 2, 6, 7], first_id=6),
        ]
        self.check(grid, classes)

    def test_empty_class(self):
        grid, classes = make_system(7, frac=False)
        empty = mk_class(1, grid.z * grid.delta * 2, F(3, 2), [], first_id=99)
        table = self.check(grid, classes + [empty])
        assert int(table.backptr.max()) == 0

    def test_z_at_least_256_takes_int32_backpointers(self):
        # Full (min,+) enumeration is O((m*z)^2) on this 513 x 257 grid, so
        # the scan schedule, which evaluates every candidate, stands in for
        # the naive reference.
        grid = ProfitGrid(delta=F(1), z=256, inv_eps=2)
        classes = [
            mk_class(0, F(300), F(2), [4, 9], first_id=1),
            mk_class(0, F(260), F(2), [1, 3, 8], first_id=3),
        ]
        table = vector_fold_checked(trivial_table(grid, INT64), classes)
        assert table.backptr.dtype == np.int32
        scan = fold(grid, classes, INT64, "scan")
        assert np.array_equal(table.values, scan.values)
        assert np.array_equal(table.backptr, scan.backptr)
        # Two members of the tau = 260 class pass the top row 512.
        assert table.value_at(512, 2) == 1 + 3
        assert table.backptr[512, 2] == 2

    def test_q_major_input_table(self):
        # exhaustive_table builds a C-contiguous (m+1, z+1) array, the
        # transpose of the layout convolve produces.
        grid = ProfitGrid(delta=F(1), z=3, inv_eps=4)
        items = [
            Item(id=1, profit=F(3), weight=F(2)),
            Item(id=2, profit=F(5), weight=F(4)),
            Item(id=3, profit=F(4), weight=F(1)),
        ]
        acc = exhaustive_table(grid, items, INT64)
        assert acc.values.flags.c_contiguous
        cls = mk_class(0, F(4), F(2), [1, 3, 3, 6], first_id=10)
        out = vector_fold_checked(acc, [cls])
        naive = naive_convolve(acc, base_table(grid, cls, INT64))
        assert np.array_equal(out.values, naive.values)
        check_table(out)


class TestLeanStages:
    def test_build_phi_l_holds_head_values_and_byte_backpointers(self):
        inst = generate_instance("correlated", 300, 16, seed=0)
        part = build_partition(inst, F(1, 80))
        table = build_phi_L(part)
        grid = table.grid
        assert table.kind == INT64 and grid.z < 256
        assert len(part.large_classes) > 100
        cells = grid.cell_count
        chain, t = [], table
        while t is not None:
            chain.append(t)
            t = t.stage.prev if t.stage is not None else None
        assert len(chain) == len(part.large_classes) + 1
        assert table.values is not None
        assert all(t.values is None for t in chain[1:])
        staged = [t for t in chain if t.stage is not None]
        assert all(t.backptr.dtype == np.uint8 for t in staged)
        held = sum(
            (t.values.nbytes if t.values is not None else 0)
            + (t.backptr.nbytes if t.backptr is not None else 0)
            for t in chain
        )
        assert held == 8 * cells + len(part.large_classes) * cells
        by_id = {it.id: it for cls in part.large_classes for it in cls.members}
        retrieved = 0
        for k in range(grid.z + 1):
            for q in grid.anchor_indices():
                if not table.is_finite(q, k):
                    continue
                ids = retrieve_items(table, q, k)
                assert len(ids) <= k and len(set(ids)) == len(ids)
                weight = sum((by_id[i].weight for i in ids), ZERO)
                assert weight == table.value_at(q, k)
                retrieved += 1
        assert retrieved > grid.z

    def test_observer_table_loses_values_after_next_fold(self):
        inst = generate_instance("uniform", 24, 6, seed=0, weight_max=30)
        part = build_partition(inst, F(1, 8))
        seen = []
        table = build_phi_L(part, observer=lambda cls, acc: seen.append(acc))
        assert seen[-1] is table and table.values is not None
        assert all(t.values is None for t in seen[:-1])


class TestScaledStorage:
    def test_int64_kind_rejects_scales(self):
        grid = ProfitGrid(delta=F(1), z=2, inv_eps=2)
        vals = np.zeros((grid.m + 1, grid.z + 1), dtype=np.int64)
        with pytest.raises(ValueError):
            WeightTable(grid, INT64, vals, weight_scale=3)

    def test_unknown_kind_rejected(self):
        grid = ProfitGrid(delta=F(1), z=2, inv_eps=2)
        with pytest.raises(ValueError):
            WeightTable(grid, "float32", [])

    def test_scale_for_is_lcm_of_weight_denominators(self):
        cls_a = mk_class(0, F(10), F(3, 2), [F(1, 2), F(3, 4)])
        cls_b = mk_class(0, F(10), F(3, 2), [F(2, 3)], first_id=5)
        assert scale_for([cls_a]) == 4
        assert scale_for([cls_a, cls_b]) == 12
        assert scale_for([]) == 1

    def test_exact_cells_store_scaled_integers(self):
        grid = ProfitGrid(delta=F(2), z=2, inv_eps=2)
        cls = mk_class(0, F(4), F(3, 2), [F(1, 2), F(5, 3)])
        table = base_table(grid, cls)
        assert table.weight_scale == 6
        finite = [
            v
            for row in table.values
            for v in row
            if v is not INF
        ]
        assert all(isinstance(v, int) for v in finite)
        assert table.value_at(2, 1) == F(1, 2)
        assert table.value_at(2, 2) == F(1, 2)
        assert table.value_at(4, 2) == F(1, 2) + F(5, 3)


class TestPickKindAndBuild:
    def test_pick_kind(self):
        # One dominant profit keeps a single item above the large floor.
        inst = inst_of([(1, 40, F(7, 2)), (2, 10, 1), (3, 1, 1)], 5, 2)
        part = build_partition(inst, F(1, 4))
        assert any(part.large_classes)
        assert pick_kind(part) == EXACT  # fractional large weight
        inst2 = inst_of([(1, 40, 3), (2, 10, 1), (3, 1, 1)], 5, 2)
        part2 = build_partition(inst2, F(1, 4))
        assert any(part2.large_classes)
        assert pick_kind(part2) == INT64

    def test_pick_kind_overflow_guard(self):
        big = INT_WEIGHT_LIMIT
        inst = inst_of([(1, 40, big), (2, 10, big)], 2 * big, 2)
        part = build_partition(inst, F(1, 4))
        assert any(
            it.weight == big for c in part.large_classes for it in c.members
        )
        assert pick_kind(part) == EXACT

    def test_build_phi_l_no_large_items(self):
        # All profits tie at the small/large boundary, so no large classes.
        inst = inst_of([(i, 1, 1) for i in range(1, 5)], 4, 4)
        part = build_partition(inst, F(1, 8))
        table = build_phi_L(part)
        assert part.large_classes == ()
        assert table.stage is None
        assert not table.is_finite(1, part.z)

    def test_build_phi_l_single_class_equals_base(self):
        inst = inst_of([(1, 40, 3), (2, 10, 5), (3, 1, 1)], 9, 2)
        part = build_partition(inst, F(1, 4))
        assert len(part.large_classes) == 1
        grid = ProfitGrid.from_partition(part)
        table = build_phi_L(part)
        base = base_table(grid, part.large_classes[0], table.kind)
        assert_same_values(table, base)

    @pytest.mark.parametrize("seed", [0, 2, 4, 5, 6])
    def test_build_phi_l_matches_naive_fold(self, seed):
        inst = generate_instance("uniform", 24, 6, seed=seed, weight_max=30)
        part = build_partition(inst, F(1, 8))
        assert len(part.large_classes) >= 2
        table = build_phi_L(part)
        grid = ProfitGrid.from_partition(part)
        reference = naive_fold(grid, part.large_classes, table.kind)
        assert_same_values(table, reference)
        check_table(table)

    def test_observer_sees_ascending_classes(self):
        inst = generate_instance("uniform", 24, 6, seed=0, weight_max=30)
        part = build_partition(inst, F(1, 8))
        assert len(part.large_classes) >= 2
        seen = []
        build_phi_L(part, observer=lambda cls, acc: seen.append(cls.index))
        assert seen == sorted(c.index for c in part.large_classes)

    def test_large_pool_ids(self):
        inst = generate_instance("uniform", 24, 6, seed=11, weight_max=30)
        part = build_partition(inst, F(1, 8))
        pool = large_pool_ids(part)
        assert pool
        assert pool == {
            it.id for c in part.large_classes for it in c.members
        }


class TestProfitAt:
    def test_known_column(self):
        grid = ProfitGrid(delta=F(10, 3), z=3, inv_eps=4)
        table = base_table(grid, mk_class(0, F(10), F(3, 2), [1, 2, 3]))
        assert profit_at(table, F(0), 2) == 0
        assert profit_at(table, F(1), 2) == 3  # exactly the lightest member
        assert profit_at(table, F(5, 2), 2) == 3
        assert profit_at(table, F(3), 2) == 6
        assert profit_at(table, F(100), 3) == 9
        assert profit_at(table, F(100), 0) == 0

    def test_validation(self):
        grid = ProfitGrid(delta=F(1), z=2, inv_eps=2)
        table = trivial_table(grid, INT64)
        with pytest.raises(ValueError):
            profit_at(table, F(1), 5)
        with pytest.raises(ValueError):
            profit_at(table, F(-1), 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_linear_scan(self, seed):
        rnd = random.Random(9000 + seed)
        grid, classes = make_system(500 + seed, frac=seed % 2 == 0)
        kind = EXACT if seed % 2 == 0 else INT64
        table = fold(grid, classes, kind)
        budgets = [F(rnd.randint(0, 90), rnd.choice([1, 2, 3])) for _ in range(12)]
        # Exact-tie budgets: every finite cell value must admit itself.
        for q in range(grid.m + 1):
            if table.is_finite(q, grid.z):
                budgets.append(table.value_at(q, grid.z))
        for budget in budgets:
            for k in range(grid.z + 1):
                expected = 0
                for q in range(grid.m + 1):
                    v = table.value_at(q, k)
                    if v is not INF and v <= (
                        math.floor(budget) if kind == INT64 else budget
                    ):
                        expected = q
                assert profit_at(table, budget, k) == expected


class TestRetrieve:
    def test_infeasible_cell_raises(self):
        grid = ProfitGrid(delta=F(1), z=2, inv_eps=2)
        with pytest.raises(ValueError):
            retrieve_items(trivial_table(grid, INT64), 1, 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_retrieved_sets_realise_cells(self, seed):
        grid, classes = make_system(600 + seed, frac=seed % 3 == 0)
        kind = EXACT if seed % 3 == 0 else INT64
        table = fold(grid, classes, kind)
        by_id = {it.id: it for cls in classes for it in cls.members}
        tau_of = {}
        for cls in classes:
            tau = snap_class_profit(grid, cls)
            for it in cls.members:
                tau_of[it.id] = tau
        for q in range(grid.m + 1):
            for k in range(grid.z + 1):
                if not table.is_finite(q, k):
                    continue
                ids = retrieve_items(table, q, k)
                assert len(ids) == len(set(ids))
                assert len(ids) <= k
                weight = sum((by_id[i].weight for i in ids), ZERO)
                assert weight == table.value_at(q, k)
                # Grid-step accounting: the snapped profits cover q steps.
                steps = sum(tau_of[i] for i in ids)
                assert steps >= q


class TestGridRefinement:
    """Halving the grid spacing can only shrink the profit-side gap, and the
    gap reaches zero once every class profit is a multiple of the spacing."""

    def test_halving_spacing_shrinks_profit_gap_to_zero(self):
        # Profits 80 and 72 snap inexactly at spacings 32 and 16 (80/32 and
        # 72/16 are not integers) and exactly from spacing 8 downward.
        classes = [
            mk_class(0, F(80), F(2), [F(2), F(3)], first_id=1),
            mk_class(0, F(72), F(2), [F(1), F(4)], first_id=3),
        ]
        items = [it for cls in classes for it in cls.members]

        def exact_opt(omega, k):
            best = ZERO
            for r in range(k + 1):
                for combo in itertools.combinations(items, r):
                    if sum((it.weight for it in combo), ZERO) <= omega:
                        best = max(best, sum((it.profit for it in combo), ZERO))
            return best

        queries = [(F(4), 2), (F(5), 2), (F(3), 1)]
        gaps = {query: [] for query in queries}
        for delta in (F(32), F(16), F(8), F(4)):
            grid = ProfitGrid(delta=delta, z=2, inv_eps=-(-80 // delta))
            assert grid.m * delta >= F(160)  # top of the grid covers 80+80
            table = fold(grid, classes, INT64)
            for omega, k in queries:
                got = profit_at(table, omega, k) * delta
                gap = exact_opt(omega, k) - got
                assert gap >= 0
                gaps[(omega, k)].append(gap)
        for gap_seq in gaps.values():
            assert all(a >= b for a, b in zip(gap_seq, gap_seq[1:]))
            # Both profits are multiples of the two finest spacings.
            assert gap_seq[2] == gap_seq[3] == 0
        # The coarsest grid genuinely loses profit on some query.
        assert any(gap_seq[0] > 0 for gap_seq in gaps.values())


class TestOffGridClassProfits:
    """Two 2-item groups whose light members are worth one third and one
    sixth of the reference profit: those values never land on a halving
    grid, so the discrete weight answer stays at twice the true minimum
    weight at every refinement, while the discrete profit answer stays
    within (z+1) grid steps of exact."""

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_weight_gap_persists_profit_gap_bounded(self, d):
        opt, omega = F(1), F(1)
        s1 = [
            Item(id=1, profit=opt / 8, weight=omega / 2),
            Item(id=2, profit=opt / 3, weight=omega / 4),
        ]
        s2 = [
            Item(id=3, profit=opt / 8, weight=omega / 2),
            Item(id=4, profit=opt / 6, weight=omega / 4),
        ]
        items = s1 + s2
        delta = opt / 2**d
        grid = ProfitGrid(delta=delta, z=3, inv_eps=-(-(2**d) // 3))
        folded = naive_convolve(
            exhaustive_table(grid, s1), exhaustive_table(grid, s2)
        )

        def subsets(k):
            for r in range(k + 1):
                yield from itertools.combinations(items, r)

        # Weight side at the (opt/2, 3) query: exact needs omega/2 (the two
        # light items alone), the discrete table needs a third item.
        exact_weight = min(
            sum((it.weight for it in combo), ZERO)
            for combo in subsets(3)
            if sum((it.profit for it in combo), ZERO) >= opt / 2
        )
        assert exact_weight == omega / 2
        q_half = 2 ** (d - 1)
        assert folded.value_at(q_half, 3) == omega

        # One-sided: the discrete weight never undercuts the exact minimum.
        for q in range(grid.m + 1):
            for k in range(grid.z + 1):
                if not folded.is_finite(q, k):
                    continue
                exact_at = min(
                    (
                        sum((it.weight for it in combo), ZERO)
                        for combo in subsets(k)
                        if sum((it.profit for it in combo), ZERO) >= q * delta
                    ),
                    default=None,
                )
                assert exact_at is not None
                assert folded.value_at(q, k) >= exact_at

        # Profit side at budget omega/2: within (z+1) grid steps of exact.
        exact_profit = max(
            (
                sum((it.profit for it in combo), ZERO)
                for combo in subsets(3)
                if sum((it.weight for it in combo), ZERO) <= omega / 2
            ),
            default=ZERO,
        )
        assert exact_profit == opt / 2
        gap = exact_profit - profit_at(folded, omega / 2, 3) * delta
        assert 0 <= gap <= (grid.z + 1) * delta
