"""Weight tables over the profit grid: snapping, slices, the numpy
convolution pass against the paper's divide-and-conquer slice search and
the exhaustive column scan, retrieval, and the fold's choice between int64
and arbitrary-precision (object) cells.

Tests parametrized over cell storage call them "int64" and "exact": exact
cells are the numpy object dtype holding Python ints, which the fold takes
once the scaled total weight reaches INT_WEIGHT_LIMIT; those systems
multiply every weight by HUGE to get there."""

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from conftest import F, ZERO, inst_of, member_ids, solve_fine
from kknapsack.combiner import solve_with_details
from kknapsack.instance_model import Item, Mode
from kknapsack.large_items import (
    INT_WEIGHT_LIMIT,
    ProfitGrid,
    build_phi_L,
    convolve,
    retrieve_items,
    snap_class_profit,
    table_format,
    trivial_table,
)
from kknapsack.oracles import (
    EXHAUSTIVE_TABLE_LIMIT,
    base_table,
    brute_force,
    check_table,
    column_scan,
    enumerate_slices,
    exhaustive_table,
    naive_convolve,
    profit_at,
    slice_search,
)
from kknapsack.preprocessing import LargeClass, build_partition
from kknapsack.generator import generate_instance

# Multiplying every weight by this sends a fold to object cells.
HUGE = Fraction(INT_WEIGHT_LIMIT)


def mk_class(index, profit_scale, growth, weights, first_id=1):
    """LargeClass from raw member weights (sorted ascending here), its
    prefix sums counted in the lcm of the weights' denominators. Its rows
    stand for the ids first_id, first_id + 1, ..., so retrieval returns
    those ids."""
    weights = sorted(Fraction(w) for w in weights)
    unit = math.lcm(*(w.denominator for w in weights))
    return LargeClass(
        index=index,
        profit_scale=Fraction(profit_scale),
        growth=Fraction(growth),
        rows=np.arange(first_id, first_id + len(weights), dtype=np.intp),
        prefix_weights=tuple(accumulate((int(w * unit) for w in weights), initial=0)),
        weight_scale=unit,
    )


def class_items(cls):
    """The members of a class built by mk_class as Items: each id is its
    row, each weight a step of the prefix sums read in the class's unit,
    and each profit the class's profit_scale. Classes of a real partition
    read their members with instance_members instead."""
    prefix, unit = cls.prefix_weights, cls.weight_scale
    return [
        Item(id=row, profit=cls.profit_scale, weight=Fraction(b - a, unit))
        for row, a, b in zip(cls.rows.tolist(), prefix, prefix[1:])
    ]


def instance_members(inst, part, cls):
    """The instance's own Items behind a partition class, by row: read
    through the view's ids, not rebuilt from the partition's prefix sums."""
    return dict(zip(cls.rows, map(inst.by_id.get, member_ids(part, cls.rows))))


def share_unit(classes):
    """The classes recounted in one unit, the lcm of their own, as a
    partition's classes all count in its view's lw."""
    unit = math.lcm(*(cls.weight_scale for cls in classes))
    return [
        replace(
            cls,
            prefix_weights=tuple(p * (unit // cls.weight_scale) for p in cls.prefix_weights),
            weight_scale=unit,
        )
        for cls in classes
    ]


def make_system(
    seed, frac=False, max_classes=3, max_members=4, z_max=6, huge=False
):
    """Random grid + classes; profit scales chosen so every snapped step
    count tau lands at or above z, as partition-produced classes guarantee.
    huge multiplies every weight by HUGE without changing the draws."""
    rnd = random.Random(seed)
    z = rnd.randint(1, z_max)
    inv = rnd.randint(1, 4)
    delta = Fraction(rnd.randint(1, 6), rnd.choice([1, 2, 3]) if frac else 1)
    grid = ProfitGrid(delta=delta, z=z, top_anchor=inv)
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
        if huge:
            weights = [w * HUGE for w in weights]
        classes.append(
            mk_class(rnd.randint(0, 2), scale, growth, weights, first_id=next_id)
        )
        next_id += count
    return grid, share_unit(classes)


def cell_dtype(cells):
    return object if cells == "exact" else np.int64


def fold(grid, classes):
    acc = trivial_table(grid, *table_format(classes))
    for cls in classes:
        acc = convolve(acc, cls)
    return acc


def naive_fold(grid, classes):
    fmt = table_format(classes)
    acc = trivial_table(grid, *fmt)
    for cls in classes:
        acc = naive_convolve(acc, base_table(grid, cls, fmt[1]))
    return acc


def assert_matches_search(out, acc, cls, search=slice_search):
    """out == convolve(acc, cls) cell for cell, values and backpointers,
    rebuilt from an oracle's per-slice argmins and exact value_at reads
    (None where the argmin reads an infinite cell)."""
    grid = acc.grid
    tau = snap_class_profit(grid, cls)
    for k in range(grid.z + 1):
        assert out.value_at(0, k) == ZERO and out.backptr[0, k] == 0
    for cells in enumerate_slices(grid, tau):
        for (q, k), theta in zip(cells, search(acc, cls, tau, cells)):
            rho = q - theta * tau
            rest = ZERO if rho <= 0 else acc.value_at(rho, k - theta)
            weight = Fraction(cls.prefix_weights[theta], cls.weight_scale)
            expected = None if rest is None else weight + rest
            assert out.value_at(q, k) == expected, (q, k)
            assert out.backptr[q, k] == theta, (q, k)


def assert_same_values(a, b):
    grid = a.grid
    for q in range(grid.m + 1):
        for k in range(grid.z + 1):
            assert a.value_at(q, k) == b.value_at(q, k), (q, k)


class TestProfitGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProfitGrid(delta=F(1), z=0, top_anchor=2)
        with pytest.raises(ValueError):
            ProfitGrid(delta=F(0), z=1, top_anchor=2)
        with pytest.raises(ValueError):
            ProfitGrid(delta=F(1), z=1, top_anchor=0)

    def test_shape_and_anchors(self):
        grid = ProfitGrid(delta=F(3, 2), z=4, top_anchor=3)
        assert grid.m == 12
        assert grid.cell_count == 13 * 5
        assert grid.anchor_indices() == [0, 4, 8, 12]
        assert grid.profit_value(5) == F(15, 2)

    def test_from_partition_covers_the_estimate(self):
        # The first instance's lp_bound is half its estimate. The second's LP
        # takes 49/51 of a second item (lp_bound 100 + 4900/51 against an
        # estimate of 200), so its rows reach the last of the ceil(1/eps)
        # anchors.
        wide = inst_of([(1, 100, 51), (2, 100, 51)], 100, 2)
        cases = [(inst_of([(i, 7 + i, 2 + i % 3) for i in range(1, 12)], 9, 4), eps, top)
                 for eps, top in ((F(1, 4), 2), (F(3, 10), 2), (F(2, 3), 1))]
        for inst, eps, top in cases + [(wide, F(1, 4), 4)]:
            part = build_partition(inst, eps)
            grid = ProfitGrid.from_partition(part)
            assert grid.z == part.z
            assert grid.delta == eps * part.opt_estimate / part.z
            # Anchor profits i*eps*opt sit exactly on the grid. The top
            # anchor is the first to reach lp_bound.
            assert grid.profit_value(grid.anchor_indices()[1]) == eps * part.opt_estimate
            assert grid.top_anchor == top <= math.ceil(1 / eps)
            assert grid.profit_value(grid.m - grid.z) < part.lp_bound <= grid.profit_value(grid.m)


class TestSnapClassProfit:
    def test_boundary_profit_snaps_to_z(self):
        grid = ProfitGrid(delta=F(2), z=5, top_anchor=2)
        cls = mk_class(0, 5 * F(2), F(3, 2), [1])  # rounded profit z*delta
        assert snap_class_profit(grid, cls) == 5

    def test_fractional_multiple(self):
        # Profit 2.7 * (z * delta) with z = 10, delta = 1 snaps to 27 steps.
        grid = ProfitGrid(delta=F(1), z=10, top_anchor=3)
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
        grid = ProfitGrid(delta=F(2), z=5, top_anchor=2)
        tiny = mk_class(0, F(3), F(3, 2), [1])  # 3 < z*delta = 10
        with pytest.raises(AssertionError):
            snap_class_profit(grid, tiny)


class TestTrivialAndBase:
    @pytest.mark.parametrize("cells", ["exact", "int64"])
    def test_trivial_table(self, cells):
        grid = ProfitGrid(delta=F(1), z=3, top_anchor=2)
        weight = HUGE if cells == "exact" else F(1)
        t = trivial_table(grid, *table_format([mk_class(0, F(3), F(2), [weight])]))
        assert t.values.dtype == cell_dtype(cells)
        check_table(t)
        assert t.value_at(0, 0) == 0
        assert not t.is_finite(1, 3)
        assert t.stage is None

    def test_base_table_prefix_semantics(self):
        # Class of weights {1,2,3}, each member worth tau = 3 grid steps of
        # delta = 10/3 (so tau*delta = 10): profit 10 needs one member,
        # profit 20 two, profit 40 would need four > |class|.
        grid = ProfitGrid(delta=F(10, 3), z=3, top_anchor=4)
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

    @pytest.mark.parametrize("cells", ["exact", "int64"])
    @pytest.mark.parametrize("schedule", ["dc", "scan", "vector"])
    def test_base_equals_convolving_the_trivial_table(self, cells, schedule):
        # schedule names the argmin search: the paper's divide and conquer
        # and the exhaustive scan (both oracles), or the production pass.
        grid, classes = make_system(4, frac=False, max_classes=1, huge=cells == "exact")
        cls = classes[0]
        acc = trivial_table(grid, *table_format([cls]))
        base = base_table(grid, cls, table_format([cls])[1])
        assert base.values.dtype == cell_dtype(cells)
        if schedule == "vector":
            via_convolve = convolve(acc, cls)
            assert_same_values(base, via_convolve)
            assert np.array_equal(base.backptr, via_convolve.backptr)
        else:
            search = slice_search if schedule == "dc" else column_scan
            assert_matches_search(base, acc, cls, search)


class TestSlices:
    @pytest.mark.parametrize(
        "z,inv,tau", [(1, 1, 1), (3, 2, 4), (5, 3, 2), (4, 2, 19), (6, 4, 7)]
    )
    def test_cells_covered_exactly_once(self, z, inv, tau):
        grid = ProfitGrid(delta=F(1), z=z, top_anchor=inv)
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
        acc = fold(grid, classes)
        empty = mk_class(1, grid.z * grid.delta * 2, F(3, 2), [], first_id=99)
        out = convolve(acc, empty)
        assert_same_values(acc, out)
        assert int(np.asarray(out.backptr).max()) == 0

    def test_two_singleton_classes(self):
        # Members worth 2 and 3 grid steps, weights 3 and 4: the only way to
        # reach 5 steps with two slots is both members, total weight 7.
        grid = ProfitGrid(delta=F(1), z=2, top_anchor=3)
        a = mk_class(0, F(2), F(3, 2), [3], first_id=1)
        b = mk_class(0, F(3), F(3, 2), [4], first_id=2)
        out = convolve(convolve(trivial_table(grid), a), b)
        assert out.value_at(5, 2) == 7
        assert sorted(retrieve_items(out, 5, 2)) == [1, 2]
        assert not out.is_finite(6, 2)
        assert out.value_at(3, 1) == 4  # class b alone covers 3 steps

    @staticmethod
    def check_schedules(grid, classes, cells):
        """The production pass equals the paper's divide-and-conquer slice
        search and the exhaustive column scan bit for bit, class by class."""
        acc = trivial_table(grid, *table_format(classes))
        assert acc.values.dtype == cell_dtype(cells)
        for cls in classes:
            out = convolve(acc, cls)
            assert_matches_search(out, acc, cls, slice_search)
            assert_matches_search(out, acc, cls, column_scan)
            acc = out

    @pytest.mark.parametrize("seed", range(10))
    def test_schedules_bit_identical_int64(self, seed):
        grid, classes = make_system(seed, frac=False)
        self.check_schedules(grid, classes, "int64")

    @pytest.mark.parametrize("seed", range(10))
    def test_schedules_bit_identical_exact(self, seed):
        grid, classes = make_system(100 + seed, frac=True, huge=True)
        self.check_schedules(grid, classes, "exact")

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("cells", ["exact", "int64"])
    def test_value_at_is_none_exactly_on_infinite_cells(self, seed, cells):
        # The integer sentinel is the tables' one infinity: value_at reads it
        # as None, on the trivial table and after every class of the fold.
        grid, classes = make_system(seed, frac=True, huge=cells == "exact")
        table = trivial_table(grid, *table_format(classes))
        for cls in [None, *classes]:
            if cls is not None:
                table = convolve(table, cls)
            assert table.values.dtype == cell_dtype(cells)
            for q in range(grid.m + 1):
                for k in range(grid.z + 1):
                    v = table.value_at(q, k)
                    assert (v is None) == (not table.is_finite(q, k)), (q, k)
                    assert v is None or v * table.weight_scale == table.values[q, k]

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("cells", ["exact", "int64"])
    def test_fold_matches_naive_reference(self, seed, cells):
        grid, classes = make_system(
            200 + seed, frac=seed % 2 == 0, huge=cells == "exact"
        )
        table = fold(grid, classes)
        assert table.values.dtype == cell_dtype(cells)
        assert_same_values(table, naive_fold(grid, classes))

    def test_fold_matches_subset_enumeration_for_uniform_profits(self):
        # When every member's exact profit equals its class's snapped grid
        # profit, the discrete table and the subset-enumeration table agree
        # cell for cell (no rounding is happening anywhere).
        from kknapsack.oracles import exhaustive_table

        grid = ProfitGrid(delta=F(2), z=3, top_anchor=3)
        tau = 4  # profit 8 = tau * delta
        cls = mk_class(0, F(8), F(3, 2), [2, 5, 9])
        assert snap_class_profit(grid, cls) == tau
        folded = fold(grid, [cls])
        reference = exhaustive_table(grid, class_items(cls))
        assert_same_values(folded, reference)

    @pytest.mark.parametrize("seed", range(6))
    def test_slope_property_on_every_slice(self, seed):
        # The divide-and-conquer slice search is only correct because
        # smallest argmins drift by at most one per column step; check that
        # on the exhaustive per-column champion of every slice of every stage.
        grid, classes = make_system(300 + seed, frac=seed % 2 == 0)
        acc = trivial_table(grid, *table_format(classes))
        for cls in classes:
            tau = snap_class_profit(grid, cls)
            for cells in enumerate_slices(grid, tau):
                chis = column_scan(acc, cls, tau, cells)
                for left, right in zip(chis, chis[1:]):
                    assert right - left <= 1
            acc = convolve(acc, cls)

    @pytest.mark.parametrize("seed", range(6))
    def test_dc_matches_column_scan_oracle(self, seed):
        # Both the oracle slice search and the production backpointers.
        grid, classes = make_system(400 + seed, frac=seed % 2 == 1)
        acc = trivial_table(grid, *table_format(classes))
        for cls in classes:
            tau = snap_class_profit(grid, cls)
            out = convolve(acc, cls)
            for cells in enumerate_slices(grid, tau):
                expected = column_scan(acc, cls, tau, cells)
                assert slice_search(acc, cls, tau, cells) == expected
                got = [int(out.backptr[q, k]) for q, k in cells]
                assert got == expected
            acc = out


def vector_fold_checked(acc, classes, search=slice_search):
    """Fold classes with convolve, asserting after every class that values
    and backpointers equal the oracle search's bit for bit."""
    for cls in classes:
        out = convolve(acc, cls)
        assert_matches_search(out, acc, cls, search)
        assert out.backptr.dtype == (np.uint8 if acc.grid.z < 256 else np.int32)
        acc = out
    return acc


def last_finite_row(table):
    grid = table.grid
    return max(q for q in range(grid.m + 1) if table.is_finite(q, grid.z))


class TestVectorFoldEdges:
    """The numpy pass reads constant prefixes below theta*tau, cuts its
    shifted reads at the accumulator's last finite row and stores narrow
    backpointers; each edge of that is checked against the divide-and-
    conquer slice search and the naive (min,+) enumeration."""

    def check(self, grid, classes):
        table = vector_fold_checked(trivial_table(grid), classes)
        naive = naive_fold(grid, classes)
        assert np.array_equal(table.values, naive.values)
        check_table(table)
        return table

    def test_tall_grid_with_low_last_finite_row(self):
        # Exactly-K shape: m = 60 while no z = 3 items reach past row 19,
        # so most of every shifted read lies past the last finite row.
        grid = ProfitGrid(delta=F(1), z=3, top_anchor=20)
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
        grid = ProfitGrid(delta=F(1), z=3, top_anchor=2)
        wide = mk_class(0, F(7), F(2), [2, 3, 4], first_id=1)
        edge = mk_class(0, F(3), F(2), [1, 1, 5], first_id=4)
        self.check(grid, [wide, edge])
        self.check(grid, [edge, wide])

    def test_class_larger_than_z(self):
        grid = ProfitGrid(delta=F(1), z=2, top_anchor=3)
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
        # the column scan, which evaluates every candidate, stands in for
        # the naive reference.
        grid = ProfitGrid(delta=F(1), z=256, top_anchor=2)
        classes = [
            mk_class(0, F(300), F(2), [4, 9], first_id=1),
            mk_class(0, F(260), F(2), [1, 3, 8], first_id=3),
        ]
        table = vector_fold_checked(trivial_table(grid), classes, column_scan)
        assert table.backptr.dtype == np.int32
        # Two members of the tau = 260 class pass the top row 512.
        assert table.value_at(512, 2) == 1 + 3
        assert table.backptr[512, 2] == 2

    def test_q_major_input_table(self):
        # exhaustive_table builds a C-contiguous (m+1, z+1) array, the
        # transpose of the layout convolve produces.
        grid = ProfitGrid(delta=F(1), z=3, top_anchor=4)
        items = [
            Item(id=1, profit=F(3), weight=F(2)),
            Item(id=2, profit=F(5), weight=F(4)),
            Item(id=3, profit=F(4), weight=F(1)),
        ]
        acc = exhaustive_table(grid, items)
        assert acc.values.flags.c_contiguous
        cls = mk_class(0, F(4), F(2), [1, 3, 3, 6], first_id=10)
        out = vector_fold_checked(acc, [cls])
        naive = naive_convolve(acc, base_table(grid, cls))
        assert np.array_equal(out.values, naive.values)
        check_table(out)


class TestLeanStages:
    def test_build_phi_l_holds_head_values_and_byte_backpointers(self):
        inst = generate_instance("correlated", 300, 16, seed=0)
        part = build_partition(inst, F(1, 80))
        table = build_phi_L(part)
        grid = table.grid
        assert table.values.dtype == np.int64 and grid.z < 256
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
        by_row = {}
        for cls in part.large_classes:
            by_row.update(instance_members(inst, part, cls))
        retrieved = 0
        for k in range(grid.z + 1):
            for q in grid.anchor_indices():
                if not table.is_finite(q, k):
                    continue
                rows = retrieve_items(table, q, k)
                assert len(rows) <= k and len(set(rows)) == len(rows)
                weight = sum((by_row[r].weight for r in rows), ZERO)
                assert weight == table.value_at(q, k)
                retrieved += 1
        assert retrieved > grid.z


def check_object_fold(inst, eps):
    """The fold at internal accuracy eps/8 took object cells, and on them:
    values equal the naive fold, backpointers equal the column-scan argmins,
    retrieval realises every finite cell; and solve's answer reaches
    (1 - eps) * OPT."""
    sol, _ = solve_with_details(inst, eps)
    _, det = solve_fine(inst, eps)
    table, classes = det["table"], det["partition"].large_classes
    grid = table.grid
    assert table.values.dtype == object
    assert_same_values(table, naive_fold(grid, classes))
    acc = trivial_table(grid, *table_format(classes))
    for cls in classes:
        out = convolve(acc, cls)
        tau = snap_class_profit(grid, cls)
        for cells in enumerate_slices(grid, tau):
            got = [int(out.backptr[q, k]) for q, k in cells]
            assert got == column_scan(acc, cls, tau, cells)
        acc = out
    assert np.array_equal(acc.backptr, table.backptr)
    ids = det["partition"].view.ids
    for q in range(grid.m + 1):
        for k in range(grid.z + 1):
            if table.is_finite(q, k):
                rows = list(retrieve_items(table, q, k))
                weight = sum((inst.by_id[i].weight for i in ids[rows]), ZERO)
                assert weight == table.value_at(q, k)
    assert sol.total_profit >= (1 - eps) * brute_force(inst).value


class TestPickKindAndBuild:
    """The fold picks its cell dtype once from its classes, then builds."""

    def test_fractional_weights_fold_as_int64(self):
        inst = generate_instance("correlated", 60, 8, seed=0, integral=False)
        _, det = solve_fine(inst, F(1, 4))
        table, classes = det["table"], det["partition"].large_classes
        assert len(classes) >= 20
        assert table.values.dtype == np.int64
        assert table.weight_scale == det["partition"].view.lw > 1
        assert_same_values(table, fold(table.grid, classes))

    def test_huge_weights_fold_as_object(self):
        big = INT_WEIGHT_LIMIT
        inst = inst_of([(1, 40, big), (2, 10, big)], 2 * big, 2)
        check_object_fold(inst, F(1, 4))

    def test_huge_denominators_fold_as_object(self):
        # Weights near 1 over distinct primes near 10**6: their lcm, hence
        # the scaled total, passes INT_WEIGHT_LIMIT.
        inst = inst_of(
            [
                (1, 40, 3 + F(1, 1000003)),
                (2, 30, 2 + F(2, 1000033)),
                (3, 25, 4 + F(3, 1000037)),
                (4, 12, F(5, 2)),
                (5, 3, 1),
            ],
            8,
            3,
        )
        check_object_fold(inst, F(1, 4))

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
        base = base_table(grid, part.large_classes[0], table_format(part.large_classes)[1])
        assert_same_values(table, base)

    @pytest.mark.parametrize("seed", [0, 2, 4, 5, 6])
    def test_build_phi_l_matches_naive_fold(self, seed):
        inst = generate_instance("uniform", 24, 6, seed=seed, weight_max=30)
        part = build_partition(inst, F(1, 8))
        assert len(part.large_classes) >= 2
        table = build_phi_L(part)
        grid = ProfitGrid.from_partition(part)
        reference = naive_fold(grid, part.large_classes)
        assert_same_values(table, reference)
        check_table(table)

    def test_stage_chain_folds_ascending_classes(self):
        inst = generate_instance("uniform", 24, 6, seed=0, weight_max=30)
        part = build_partition(inst, F(1, 8))
        assert len(part.large_classes) >= 2
        folded, t = [], build_phi_L(part)
        while t.stage is not None:
            folded.append(t.stage.cls.index)
            t = t.stage.prev
        assert folded[::-1] == sorted(c.index for c in part.large_classes)


# Large items weigh halves and small ones sevenths, so the view's unit lw = 14
# has a factor 7 that no large member's weight denominator has.
VIEW_UNIT_SYSTEMS = {
    Mode.AT_MOST: [
        (1, 25, 5), (2, 31, F(11, 2)), (3, 30, F(7, 2)), (4, 49, 6),
        (5, 9, F(15, 7)), (6, 9, F(27, 7)), (7, 6, F(8, 7)), (8, 5, F(20, 7)),
        (9, 7, F(26, 7)), (10, 9, 1),
    ],
    Mode.EXACT: [
        (1, 50, F(11, 2)), (2, 57, 5), (3, 39, 6), (4, 49, F(7, 2)),
        (5, 12, F(6, 7)), (6, 7, F(8, 7)), (7, 10, F(15, 7)), (8, 2, F(13, 7)),
        (9, 11, F(8, 7)), (10, 9, F(15, 7)),
    ],
}


class TestViewUnit:
    """The fold counts weights in the partition's view unit lw, which may
    exceed the lcm of the large members' own weight denominators."""

    @pytest.mark.parametrize("mode", [Mode.AT_MOST, Mode.EXACT])
    def test_fold_counts_in_the_view_unit(self, mode):
        inst = inst_of(VIEW_UNIT_SYSTEMS[mode], 10, 4, mode=mode)
        eps = F(1, 4)
        part = build_partition(inst, eps)
        classes = part.large_classes
        assert len(classes) >= 2 and part.small_classes
        members = [instance_members(inst, part, c).values() for c in classes]
        assert {it.weight.denominator for m in members for it in m} <= {1, 2}
        assert part.view.lw == 14
        table = build_phi_L(part)
        assert table.weight_scale == part.view.lw
        grid = table.grid
        if mode is Mode.EXACT:
            reference = exhaustive_table(
                grid, snapped_members(grid, classes, members), exactly_k=True
            )
        else:
            reference = naive_fold(grid, classes)
        assert_same_values(table, reference)
        sol, _ = solve_with_details(inst, eps)
        assert sol.total_profit >= (1 - eps) * brute_force(inst).value

    def test_convolve_refuses_another_unit(self):
        grid = ProfitGrid(delta=F(1), z=2, top_anchor=3)
        halves = mk_class(0, F(2), F(3, 2), [F(1, 2), F(3, 2)])
        assert halves.weight_scale == 2
        with pytest.raises(AssertionError):
            convolve(trivial_table(grid), halves)
        assert_same_values(
            convolve(trivial_table(grid, 2), halves), base_table(grid, halves)
        )


class TestProfitAt:
    def test_known_column(self):
        grid = ProfitGrid(delta=F(10, 3), z=3, top_anchor=4)
        table = base_table(grid, mk_class(0, F(10), F(3, 2), [1, 2, 3]))
        assert profit_at(table, F(0), 2) == 0
        assert profit_at(table, F(1), 2) == 3  # exactly the lightest member
        assert profit_at(table, F(5, 2), 2) == 3
        assert profit_at(table, F(3), 2) == 6
        assert profit_at(table, F(100), 3) == 9
        assert profit_at(table, F(100), 0) == 0

    def test_validation(self):
        grid = ProfitGrid(delta=F(1), z=2, top_anchor=2)
        table = trivial_table(grid)
        with pytest.raises(ValueError):
            profit_at(table, F(1), 5)
        with pytest.raises(ValueError):
            profit_at(table, F(-1), 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_linear_scan(self, seed):
        rnd = random.Random(9000 + seed)
        grid, classes = make_system(500 + seed, frac=seed % 2 == 0)
        table = fold(grid, classes)
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
                    if v is not None and v <= budget:
                        expected = q
                assert profit_at(table, budget, k) == expected


class TestRetrieve:
    def test_infeasible_cell_raises(self):
        grid = ProfitGrid(delta=F(1), z=2, top_anchor=2)
        with pytest.raises(ValueError):
            retrieve_items(trivial_table(grid), 1, 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_retrieved_sets_realise_cells(self, seed):
        grid, classes = make_system(600 + seed, frac=seed % 3 == 0)
        table = fold(grid, classes)
        by_id = {it.id: it for cls in classes for it in class_items(cls)}
        tau_of = {}
        for cls in classes:
            tau = snap_class_profit(grid, cls)
            for row in cls.rows:
                tau_of[row] = tau
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
        items = [it for cls in classes for it in class_items(cls)]

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
            grid = ProfitGrid(delta=delta, z=2, top_anchor=-(-80 // delta))
            assert grid.m * delta >= F(160)  # top of the grid covers 80+80
            table = fold(grid, classes)
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
        grid = ProfitGrid(delta=delta, z=3, top_anchor=-(-(2**d) // 3))
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


def exact_fold(grid, classes):
    """convolve from the exactly-k trivial table."""
    acc = trivial_table(grid, *table_format(classes), exactly_k=True)
    for cls in classes:
        acc = convolve(acc, cls)
    return acc


def snapped_members(grid, classes, members=None):
    """Every member under its class's snapped grid profit, so that subset
    enumeration sums the same profits the fold does. members holds each
    class's Items (class_items of each by default)."""
    if members is None:
        members = map(class_items, classes)
    return [
        Item(id=it.id, profit=snap_class_profit(grid, cls) * grid.delta, weight=it.weight)
        for cls, items in zip(classes, members)
        for it in items
    ]


class TestExactlyKTables:
    """Tables whose cell (q, k) takes exactly k large items: the fold starts
    from a table with only (0, 0) free, reads acc's profit-0 cells below
    theta*tau, and cuts its shifted reads at the last finite row of any
    column, since no column is each row's minimum."""

    def test_trivial_table_frees_only_the_origin(self):
        grid = ProfitGrid(delta=F(1), z=3, top_anchor=2)
        table = trivial_table(grid, exactly_k=True)
        finite = [(q, k) for q in range(grid.m + 1) for k in range(grid.z + 1)
                  if table.is_finite(q, k)]
        assert finite == [(0, 0)]
        check_table(table, exactly_k=True)

    @pytest.mark.parametrize("seed", range(12))
    def test_fold_matches_subset_enumeration(self, seed):
        grid, classes = make_system(700 + seed, frac=seed % 2 == 0, huge=seed % 4 == 3)
        table = exact_fold(grid, classes)
        check_table(table, exactly_k=True)
        reference = exhaustive_table(grid, snapped_members(grid, classes), exactly_k=True)
        assert_same_values(table, reference)

    @pytest.mark.parametrize("seed", range(6))
    def test_backpointers_match_column_scan(self, seed):
        grid, classes = make_system(800 + seed, frac=seed % 2 == 1)
        acc = trivial_table(grid, *table_format(classes), exactly_k=True)
        for cls in classes:
            tau = snap_class_profit(grid, cls)
            out = convolve(acc, cls)
            for cells in enumerate_slices(grid, tau):
                expected = column_scan(acc, cls, tau, cells)
                assert [int(out.backptr[q, k]) for q, k in cells] == expected
                assert slice_search(acc, cls, tau, cells) == expected
            acc = out

    def test_column_z_below_its_rows_minimum(self):
        # z = 3 but the first class has two members: after it, column k = 3
        # is infinite in every row while columns 1 and 2 reach profit row 8.
        # A fold that cut its reads at column z's last finite row would
        # drop every finite read of the second class.
        grid = ProfitGrid(delta=F(1), z=3, top_anchor=4)
        first = mk_class(0, F(4), F(2), [3, 5], first_id=1)
        second = mk_class(0, F(5), F(2), [2], first_id=3)
        acc = exact_fold(grid, [first])
        assert not any(acc.is_finite(q, 3) for q in range(grid.m + 1))
        assert acc.is_finite(8, 2)
        table = convolve(acc, second)
        assert table.value_at(12, 3) == 10  # all three items
        reference = exhaustive_table(grid, snapped_members(grid, [first, second]), exactly_k=True)
        assert_same_values(table, reference)
        check_table(table, exactly_k=True)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 5])
    def test_build_phi_l_on_exactly_k_partitions(self, seed):
        inst = generate_instance("uniform", 24, 4, seed=seed, weight_max=30, mode=Mode.EXACT)
        part = build_partition(inst, F(1, 16))
        assert part.exactly_k and part.large_classes
        assert sum(c.size for c in part.large_classes) <= EXHAUSTIVE_TABLE_LIMIT
        table = build_phi_L(part)
        grid = table.grid
        check_table(table, exactly_k=True)
        by_row = {}
        for c in part.large_classes:
            by_row.update(instance_members(inst, part, c))
        members = [[by_row[r] for r in c.rows] for c in part.large_classes]
        reference = exhaustive_table(
            grid, snapped_members(grid, part.large_classes, members), exactly_k=True
        )
        assert_same_values(table, reference)
        # Every finite cell retrieves exactly k items of its weight.
        for q in grid.anchor_indices():
            for k in range(grid.z + 1):
                if table.is_finite(q, k):
                    rows = retrieve_items(table, q, k)
                    assert len(rows) == k
                    assert sum((by_row[r].weight for r in rows), ZERO) == table.value_at(q, k)
