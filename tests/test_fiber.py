import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import thmc
from thmc import (
    Family,
    Fiber,
    NegativityViolation,
    PathTable,
    apply_move,
    connectivity,
    enumerate_families,
    enumerate_fiber,
    initial_frequency_classes,
    realizable_stats,
    suff_stat,
    sweep,
    table_text,
)
from thmc import fiber
from thmc.core import all_paths, transitions
from thmc.fiber import BudgetExceeded, disconnected


def naive_fiber(T, b):
    """Filter every table of the forced total count; the independent oracle."""
    total = sum(b)
    if total % (T - 1) != 0:
        return set()
    n = total // (T - 1)
    paths = list(all_paths(T))
    found = set()
    for combo in itertools.combinations_with_replacement(paths, n):
        table = PathTable.from_paths(combo) if combo else PathTable(T)
        if suff_stat(table).as_tuple() == tuple(b):
            found.add(table)
    return found


class TestEnumerateFiber:
    def test_indispensable_pair(self):
        fib = enumerate_fiber(3, (2, 2, 0, 2))
        assert {table_text(t) for t in fib.elements} == {
            "111:1 122:2",
            "112:2 222:1",
        }

    def test_forced_singleton(self):
        fib = enumerate_fiber(3, (2, 0, 0, 0))
        assert [table_text(t) for t in fib.elements] == ["111:1"]

    def test_two_element_fiber(self):
        fib = enumerate_fiber(3, (1, 1, 1, 1))
        assert {table_text(t) for t in fib.elements} == {
            "112:1 221:1",
            "122:1 211:1",
        }

    def test_empty_when_no_path_fits(self):
        assert len(enumerate_fiber(3, (1, 0, 0, 1))) == 0

    def test_empty_when_total_not_divisible(self):
        assert len(enumerate_fiber(3, (1, 1, 1, 0))) == 0

    def test_agrees_with_naive_filter(self):
        # completeness on every realizable statistic at T=3, n <= 3
        for b in realizable_stats(3, 3):
            fib = enumerate_fiber(3, b)
            assert set(fib.elements) == naive_fiber(3, b.as_tuple())

    def test_all_elements_share_statistic(self):
        fib = enumerate_fiber(4, (2, 2, 1, 1))
        assert len(fib) > 1
        for t in fib.elements:
            assert suff_stat(t) == fib.b

    def test_canonical_order_is_deterministic(self):
        a = enumerate_fiber(4, (2, 2, 1, 1)).elements
        b = enumerate_fiber(4, (2, 2, 1, 1)).elements
        assert a == b
        assert len(set(a)) == len(a)

    # Tables of 5 paths, so the budget of 5 admits the search and stops it
    # at the sixth of the 265 tables.
    def test_element_budget(self, monkeypatch):
        monkeypatch.setattr(fiber, "MAX_FIBER_ELEMENTS", 5)
        with pytest.raises(BudgetExceeded) as err:
            enumerate_fiber(4, (3, 4, 4, 4))
        assert err.value.partial_count == 5

    def test_tables_of_more_paths_than_the_budget_refused(self, monkeypatch):
        def refuse(T, *args):
            raise AssertionError(f"built the cells of T={T}")

        monkeypatch.setattr(fiber, "MAX_FIBER_ELEMENTS", 10)
        monkeypatch.setattr(fiber, "_fitting_cells", refuse)
        with pytest.raises(BudgetExceeded, match="11 paths") as err:
            enumerate_fiber(3, (22, 0, 0, 0))
        assert err.value.partial_count == 0
        assert err.value.nodes_visited == 0

    def test_node_budget(self, monkeypatch):
        monkeypatch.setattr(fiber, "MAX_DFS_NODES", 10)
        with pytest.raises(BudgetExceeded) as err:
            enumerate_fiber(4, (6, 6, 6, 6))
        assert err.value.nodes_visited == 11

    def test_T_over_dense_cap_rejected_before_cells(self, monkeypatch):
        def refuse(T, *args):
            raise AssertionError(f"built the cells of T={T}")

        monkeypatch.setattr(fiber, "_fitting_cells", refuse)
        with pytest.raises(ValueError, match="T <= 24"):
            enumerate_fiber(40, (39, 0, 0, 0))

    # The cells are built suffix by suffix, dropping each suffix whose
    # statistic already exceeds the target; the reference filters every
    # column of the configuration matrix.
    @pytest.mark.parametrize("T", range(3, 13))
    def test_fitting_cells_match_the_configuration_filter(self, T):
        columns = thmc.configuration(T).T
        rng = np.random.default_rng(T)
        targets = [(0, 0, 0, 0), (T - 1, 0, 0, 0), (0, 1, 1, T - 3), (1, 1, 1, 0)]
        targets += [tuple(rng.integers(0, T, size=4)) for _ in range(20)]
        for target in targets:
            fits = (columns <= target).all(axis=1)
            cells, stats = fiber._fitting_cells(T, target)
            assert cells.tolist() == np.flatnonzero(fits).tolist()
            assert stats.tolist() == columns[fits].tolist()

    @pytest.mark.parametrize("b", [
        (2.9, 0, 0, 2.2),
        (2.0, 0, 0, 2),
        (True, 1, 1, 1),
        ("2", 0, 0, 2),
    ])
    def test_non_integer_statistic_rejected(self, b):
        with pytest.raises(ValueError, match="nonnegative integer"):
            enumerate_fiber(3, b)

    def test_numpy_integer_statistic_accepted(self):
        b = tuple(np.int64(v) for v in (2, 2, 0, 2))
        assert enumerate_fiber(3, b).cells == enumerate_fiber(3, (2, 2, 0, 2)).cells

    # The search runs only over the cells whose own statistic fits, so the
    # 15 single-path tables take 30 nodes of the 1000 allowed.
    def test_single_path_fiber_in_few_nodes(self, monkeypatch):
        b = (1, 1, 1, 12)
        expected = [
            (i,) for i, p in enumerate(all_paths(16)) if transitions(p).as_tuple() == b
        ]
        monkeypatch.setattr(fiber, "MAX_DFS_NODES", 1000)
        fib = enumerate_fiber(16, b)
        assert len(fib) == 15
        assert list(fib.cells) == sorted(expected, reverse=True)

    # A node keeps its cells as (cell, count) runs and takes only the counts
    # the later cells can complete: one table of 10**6 paths takes 2 nodes.
    def test_single_table_of_many_paths_in_few_nodes(self, monkeypatch):
        monkeypatch.setattr(fiber, "MAX_DFS_NODES", 10)
        fib = enumerate_fiber(3, (2 * 10**6, 0, 0, 0))
        assert fib.cells == ((0,) * 10**6,)
        assert fiber.fiber_texts(fib) == ["111:1000000"]
        # Its one run key, 2,000,001, passes its 10**6 cells, so the token
        # is found by search, with no index by key.
        from thmc import _bulk

        keys = _bulk.run_keys(3, fib._rows)
        assert keys[keys != 0].tolist() == [2_000_001]
        assert _bulk.Tokens(3, keys)._table[2] is None

    # Pushing only the children the suffix bound admits takes 30,983 nodes.
    def test_children_pushed_only_when_completable(self, monkeypatch):
        monkeypatch.setattr(fiber, "MAX_DFS_NODES", 40_000)
        assert len(enumerate_fiber(4, (6, 6, 6, 6))) == 3390

    def test_two_path_fiber_matches_pairs_of_paths(self, monkeypatch):
        T, b = 14, (2, 2, 2, 20)
        by_stat = {}
        for i, p in enumerate(all_paths(T)):
            by_stat.setdefault(transitions(p).as_tuple(), []).append(i)
        expected = set()
        for s, cells in by_stat.items():
            rest = tuple(x - y for x, y in zip(b, s))
            for i in cells:
                for j in by_stat.get(rest, ()):
                    expected.add(tuple(sorted((i, j))))
        monkeypatch.setattr(fiber, "MAX_DFS_NODES", 3 * 10**5)
        fib = enumerate_fiber(T, b)
        assert len(fib) == len(expected) == 532
        assert list(fib.cells) == sorted(expected, reverse=True)


class TestConnectivity:
    def test_full_set_connects_indispensable_pair(self):
        fib = enumerate_fiber(3, (2, 2, 0, 2))
        assert connectivity(fib).n_components == 1

    def test_without_sliding_pair_stays_split(self):
        fib = enumerate_fiber(3, (2, 2, 0, 2))
        report = connectivity(
            fib, ["type1", "crossing", "2x2", "type4", "type2"]
        )
        assert report.component_sizes == (1, 1)

    def test_two_by_two_connects_balanced_fiber(self):
        fib = enumerate_fiber(3, (1, 1, 1, 1))
        assert connectivity(fib, [Family.TWO_BY_TWO]).n_components == 1

    def test_component_sizes_sum(self):
        fib = enumerate_fiber(4, (2, 2, 1, 1))
        report = connectivity(fib, ["crossing"])
        assert sum(report.component_sizes) == report.fiber_size == len(fib)

    def test_explicit_move_list(self):
        from thmc import deg3_sliding

        fib = enumerate_fiber(3, (2, 2, 0, 2))
        report = connectivity(fib, [deg3_sliding(3, 1, 1, 1)])
        assert report.n_components == 1
        assert report.move_set == ("custom",)

    # A move set is either Moves or family tokens: a token after a Move is
    # refused as such, and a Move after a token is not a valid family.
    def test_mixed_move_list_rejected(self):
        fib = enumerate_fiber(3, (2, 2, 0, 2))
        move = enumerate_families(3, ["crossing"])[0]
        with pytest.raises(TypeError, match="either Moves or family tokens"):
            connectivity(fib, [move, "type1"])
        with pytest.raises(ValueError, match="is not a valid Family"):
            connectivity(fib, ["type1", move])

    # An empty selection reads no family's draws, so no cap on T applies:
    # every table of a fiber is then a component of its own.
    def test_empty_selection_is_not_capped(self):
        assert len(sweep(7, 2, [])) == 229
        report = connectivity(enumerate_fiber(7, (2, 1, 1, 2)), [])
        assert report.component_sizes == (1,) * 6

    def test_T_mismatch_rejected(self):
        from thmc import deg3_sliding

        fib = enumerate_fiber(3, (2, 2, 0, 2))
        with pytest.raises(ValueError):
            connectivity(fib, [deg3_sliding(4, 1, 1, 1)])

    def test_empty_fiber_rejected(self):
        with pytest.raises(ValueError):
            connectivity(enumerate_fiber(3, (1, 0, 0, 1)))

    # The last table of this three-table fiber is a neighbour of the first,
    # which connectivity always expands, so leaving it out must be caught.
    INCOMPLETE_FIBER = (
        "from thmc import Fiber, connectivity, enumerate_fiber\n"
        "fib = enumerate_fiber(3, (0, 1, 1, 2))\n"
        "assert len(fib) == 3\n"
        "part = Fiber(3, fib.b, fib.cells[:2])\n"
        "try:\n"
        "    connectivity(part)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )

    # Each table is rendered from the texts of the cells present, each cell
    # rendered once, not from a text per path of {1,2}^20.
    def test_T20_renders_only_the_cells_present(self, monkeypatch):
        from thmc import _bulk, type1_deg1

        fib = enumerate_fiber(20, (1, 1, 1, 16))
        rendered = []
        real_cell_texts = _bulk.cell_texts

        def counted(T, cells):
            rendered.extend(cells.tolist())
            return real_cell_texts(T, cells)

        monkeypatch.setattr(_bulk, "cell_texts", counted)
        move = type1_deg1((2, 2, 1, 1) + (2,) * 16, 1, 5, 6)
        report = connectivity(fib, [move])
        assert len(fib) == 19 and report.n_components == 18
        assert report.component_tables == tuple(
            tuple(table_text(fib.elements[i]) for i in c) for c in report.components
        )
        assert sorted(rendered) == sorted(set().union(*fib.cells))

    # One table of 2,000 copies of the path 111 has C(2000, 3) triples of
    # positions but one distinct sub-multiset of each size; the search must
    # probe only those.  Run in a child, so a slow search fails the test
    # instead of stalling the suite.
    def test_one_table_of_many_paths_probes_distinct_sub_multisets(self):
        script = (
            "from thmc import connectivity, enumerate_fiber\n"
            "fib = enumerate_fiber(3, (4000, 0, 0, 0))\n"
            "assert len(fib) == 1 and len(fib.cells[0]) == 2000\n"
            "print(connectivity(fib).components)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(thmc.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True, timeout=10,
        )
        assert out.stdout == "((0,),)\n"

    # Rows too wide for an int64 key are keyed by their big-endian bytes,
    # not by Python ints whose weights run to base**(n-1): one table of
    # 100,000 copies of 111 took about 20 s and 670 MiB that way, and takes
    # about 1 s so.  Run in a child, as above.
    def test_one_table_past_int64_keys_in_linear_time(self):
        script = (
            "from thmc import connectivity, enumerate_fiber\n"
            "fib = enumerate_fiber(3, (200000, 0, 0, 0))\n"
            "print(connectivity(fib).component_sizes)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(thmc.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True, timeout=10,
        )
        assert out.stdout == "(1,)\n"

    def test_move_outside_fiber_raises(self):
        fib = enumerate_fiber(3, (0, 1, 1, 2))
        part = Fiber(3, fib.b, fib.cells[:2])
        with pytest.raises(AssertionError, match="move led outside the enumerated fiber"):
            connectivity(part)

    def test_move_outside_fiber_raises_under_optimize(self):
        assert self.run_optimized(self.INCOMPLETE_FIBER).startswith(
            "move led outside the enumerated fiber"
        )

    @staticmethod
    def run_optimized(script):
        env = dict(os.environ, PYTHONPATH=str(Path(thmc.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, check=True,
        )
        return out.stdout

    # The first table of the same fiber, '212:1 222:1', is reached only by
    # the degree-1 move 121 <-> 212, so its class multiset falls one table
    # short of the two that the class {121, 212} and the cell 222 make.
    MISSING_DEGREE_ONE_NEIGHBOUR = (
        "from thmc import Fiber, connectivity, enumerate_fiber\n"
        "fib = enumerate_fiber(3, (0, 1, 1, 2))\n"
        "assert len(fib) == 3\n"
        "part = Fiber(3, fib.b, fib.cells[1:])\n"
        "try:\n"
        "    connectivity(part)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )

    def test_missing_degree_one_neighbour_raises(self):
        fib = enumerate_fiber(3, (0, 1, 1, 2))
        assert fiber.fiber_texts(fib)[0] == "212:1 222:1"
        part = Fiber(3, fib.b, fib.cells[1:])
        with pytest.raises(AssertionError, match="move led outside the enumerated fiber"):
            connectivity(part)

    def test_missing_degree_one_neighbour_raises_under_optimize(self):
        assert self.run_optimized(self.MISSING_DEGREE_ONE_NEIGHBOUR).startswith(
            "move led outside the enumerated fiber"
        )


class TestSweep:
    # A selection with type I moves is indexed on points and reads no
    # family's draws; any other is read from its families' decoded draws,
    # once per selection and family.  No Move is built for the index, and
    # a sweep finds its components on class multisets without calling
    # connectivity.
    def test_moves_indexed_once_per_selection(self, monkeypatch):
        reads = []
        indexed = []
        connectivity_calls = []
        real_draws, real_connectivity = fiber._draws, fiber.connectivity
        real_move_index = fiber._move_index

        def counted_draws(*args):
            reads.append(args)
            return real_draws(*args)

        def counted_move_index(*args):
            indexed.append(args)
            return real_move_index(*args)

        def counted_connectivity(*args, **kwargs):
            connectivity_calls.append(args)
            return real_connectivity(*args, **kwargs)

        def refuse(self):
            raise AssertionError("built a Move")

        monkeypatch.setattr(fiber, "_draws", counted_draws)
        monkeypatch.setattr(fiber, "connectivity", counted_connectivity)
        fiber._family_index.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(thmc.moves.Move, "__post_init__", refuse)
            assert len(sweep(4, 3)) > 1
            fiber._resolve_moves(4, None)
            assert reads == []
            connectivity_calls.clear()
            reports = sweep(4, 3, ["crossing", "type2"])
            fiber._resolve_moves(4, ["crossing", "type2"])
        assert connectivity_calls == [] and len(reports) > 1
        assert sorted(reads) == [(4, Family.CROSSING), (4, Family.TYPE2_DEG1)]

        # An explicit move list, even a one-pass iterator, is indexed once
        # per sweep, not once per fiber.
        moves = enumerate_families(4, ["crossing", "type2"])
        monkeypatch.setattr(fiber, "_move_index", counted_move_index)
        # Reports compare by identity, so their contents are compared.
        def contents(reports):
            return [(r.fiber.cells, r.components, r.move_set) for r in reports]

        assert contents(sweep(4, 3, iter(moves))) == contents(sweep(4, 3, moves))
        assert connectivity_calls == []
        assert len(indexed) == 2

    # Nothing is rendered before a read.  A swept fiber read alone renders
    # the tokens of its own tables, as a lone fiber does: each read renders
    # each of its cells once, since fibers keep no token table.
    def test_texts_rendered_only_when_read(self, monkeypatch):
        from thmc import _bulk

        rendered = []
        real_cell_texts = _bulk.cell_texts

        def counted(T, cells):
            rendered.extend(cells.tolist())
            return real_cell_texts(T, cells)

        monkeypatch.setattr(_bulk, "cell_texts", counted)
        reports = sweep(4, 3)
        assert len(reports) > 1 and rendered == []
        level = [r for r in reports if r.fiber_size and len(r.fiber.cells[0]) == 3]
        assert len(level) > 1 and rendered == []
        for r in level[-1], level[0]:
            for read in lambda: r.component_tables, lambda: fiber.fiber_texts(r.fiber):
                rendered.clear()
                assert read()
                assert sorted(rendered) == sorted(set().union(*r.fiber.cells))

    # A swept fiber and report hold their class multisets, sizes and roots,
    # and repr, ==, hash and component_sizes read nothing else: no table is
    # built, of a level or of a fiber.  A lone fiber's repr leaves out its
    # cells, which for one table of 10**6 paths run to millions of
    # characters.
    def test_repr_eq_hash_and_sizes_build_no_table(self, monkeypatch):
        from thmc import _bulk

        lone = enumerate_fiber(3, (2 * 10**6, 0, 0, 0))

        def refuse(*args, **kwargs):
            raise AssertionError("built tables")

        monkeypatch.setattr(_bulk, "tables", refuse)
        monkeypatch.setattr(fiber, "_levels", refuse)
        monkeypatch.setattr(fiber, "_enumerate_cells", refuse)
        reports = sweep(6, 4)
        assert len(reports) == 1430
        for r in reports:
            for x in r, r.fiber:
                assert repr(x) and x == x and hash(x) == hash(x)
            assert sum(r.component_sizes) == r.fiber_size
        assert reports[0] != reports[1] and reports[0].fiber != reports[1].fiber
        assert repr(reports[-1]) == (
            "ConnectivityReport(fiber=Fiber(T=6, b=TransitionStat(b11=20, b12=0, "
            "b21=0, b22=0)), move_set=('type1', 'crossing', '2x2', 'type4', "
            "'type2', 'deg3-sliding'))"
        )
        assert repr(lone) == "Fiber(T=3, b=TransitionStat(b11=2000000, b12=0, b21=0, b22=0))"

    # A table of distinct paths is rendered by joining the cells' tokens, and
    # only a table with a repeated path counts its paths; both must give
    # what table_text gives for the table's PathTable.
    @pytest.mark.parametrize("T, n_max", [(3, 4), (4, 3)])
    def test_fiber_texts_match_table_text(self, T, n_max):
        kinds = set()
        for report in sweep(T, n_max):
            fib = report.fiber
            assert fiber.fiber_texts(fib) == [table_text(t) for t in fib.elements]
            kinds.update(len(set(cells)) == len(cells) for cells in fib.cells)
        assert kinds == {True, False}

    def test_full_set_T4_n3(self):
        reports = sweep(4, 3)
        assert reports
        assert disconnected(reports) == []

    def test_restricted_families_split_by_initial_frequency(self):
        reports = sweep(4, 3, ["type1", "crossing", "2x2", "type4"])
        for report in reports:
            fib = enumerate_fiber(4, report.b)
            assert set(report.components) == set(initial_frequency_classes(fib))

    def test_stat_filter(self):
        reports = sweep(4, 2, stat_filter=lambda b: b.b11 == 0)
        assert reports
        for report in reports:
            assert report.b.b11 == 0

    # The 8 paths of T=3 make C(8 + 2, 2) = 45 tables of n <= 2, and the 7
    # classes of the six families C(7 + 2, 2) = 36 class multisets: a sweep
    # counts the multisets, and realizable_stats, which builds the tables,
    # counts every table.  The report's table budget is checked in
    # tests/test_cli.py.
    def test_element_budget_counts_every_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated tables")

        monkeypatch.setattr(fiber, "MAX_FIBER_ELEMENTS", 36)
        assert sum(r.fiber_size for r in sweep(3, 2)) == 45
        monkeypatch.setattr(fiber, "MAX_FIBER_ELEMENTS", 35)
        monkeypatch.setattr(fiber, "_fitting_cells", refuse)
        with pytest.raises(BudgetExceeded, match="^36 class multisets of n <= 2"):
            sweep(3, 2)
        monkeypatch.setattr(fiber, "MAX_FIBER_ELEMENTS", 44)
        with pytest.raises(BudgetExceeded, match="^45 tables of n <= 2"):
            realizable_stats(3, 2)

    # C(2**20 + 10**6, 10**6) has 616,430 digits, and math.comb took about
    # 32 s to find them; the running product stops once it passes 10**18.
    def test_huge_sweep_refused_without_its_exact_count(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated tables")

        monkeypatch.setattr(fiber, "_fitting_cells", refuse)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as err:
            realizable_stats(20, 10**6)
        assert time.perf_counter() - start < 2
        assert str(err.value) == (
            "more than 1e+18 tables of n <= 1000000 at T=20 exceed the budget "
            "of 1000000"
        )
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            realizable_stats(3, -1)
        # An empty selection names no family, and so no family's cap on T.
        with pytest.raises(ValueError, match="T must be >= 3"):
            sweep(2, 1, [])

    # The tables of n = 0 hold no path, so no cell is built at any T, also
    # past the dense cap.
    @pytest.mark.parametrize("T", [22, 25])
    def test_empty_statistic_built_without_cells(self, monkeypatch, T):
        def refuse(T, *args):
            raise AssertionError(f"built the cells of T={T}")

        monkeypatch.setattr(fiber, "_fitting_cells", refuse)
        assert realizable_stats(T, 0) == [thmc.TransitionStat(0, 0, 0, 0)]

    def test_realizable_stats_match_brute_force(self):
        paths = list(all_paths(3))
        seen = set()
        for n in range(0, 3):
            for combo in itertools.combinations_with_replacement(paths, n):
                table = PathTable.from_paths(combo) if combo else PathTable(3)
                seen.add(suff_stat(table).as_tuple())
        assert {b.as_tuple() for b in realizable_stats(3, 2)} == seen


class TestClassSweep:
    """Past the enumeration cap of T = 6 a sweep runs on class multisets
    alone, up to the point index's cap of T = 8."""

    # The fiber sizes are products over class multisets; a level of tables
    # of T=7 or T=8 would be 1.2e7 or 1.9e8 rows.  _extend enumerates the
    # class multisets too, so it refuses only the 2**T cells, and the
    # builder of one fiber's tables refuses outright.
    @pytest.mark.parametrize("T, fibers, tables", [
        (7, 2035, 12_082_785),
        (8, 2800, 186_043_585),
    ])
    def test_fiber_sizes_count_every_table(self, monkeypatch, T, fibers, tables):
        from thmc import _bulk

        real_extend = _bulk._extend

        def extend(rows, keys, cell_key):
            if len(cell_key) == 1 << T:
                raise AssertionError("built a level of tables")
            return real_extend(rows, keys, cell_key)

        def refuse(*args):
            raise AssertionError("built a fiber's tables")

        monkeypatch.setattr(_bulk, "_extend", extend)
        monkeypatch.setattr(_bulk, "tables", refuse)
        reports = sweep(T, 4)
        assert len(reports) == fibers
        assert sum(r.fiber_size for r in reports) == tables == math.comb(2**T + 4, 4)
        assert disconnected(reports) == []

    # A multiset's table count is prod_c C(|c| + k_c - 1, k_c), exact in
    # int64 where every partial product fits and in Python ints past it.
    @pytest.mark.parametrize("cells, n", [(20, 4), (400, 12)])
    def test_table_counts_are_exact(self, cells, n):
        from thmc import _bulk

        size = np.array([1, 2, 3, 4, cells - 10])
        multisets = np.sort(np.random.default_rng(cells).integers(0, 5, size=(50, n)), axis=1)
        expected = [
            math.prod(math.comb(int(size[c]) + k - 1, k) for c, k in Counter(m.tolist()).items())
            for m in multisets
        ]
        counted = _bulk.counts(multisets, size)
        assert counted.dtype == (np.int64 if cells == 20 else object)
        assert counted.tolist() == expected

    # Each swept fiber's tables, built when read, and its components equal
    # those of connectivity on the DFS enumeration of the fiber under the
    # path-level index, built from every decoded draw of the families.
    # connectivity takes moves or families, and a selection with type I
    # moves is indexed on points, so the path-level index stands in for the
    # one it resolves once the sweep is done.  Without the sliding moves,
    # fibers of three paths split; at n <= 3 only those are compared, since
    # the DFS takes most of a minute over all.
    @pytest.mark.parametrize("families, n_max, split", [
        (tuple(Family), 2, 0),
        (tuple(f for f in Family if f is not Family.DEG3_SLIDING), 2, 0),
        (tuple(f for f in Family if f is not Family.DEG3_SLIDING), 3, 10),
    ])
    def test_matches_lone_fibers_past_the_enumeration_cap(
        self, monkeypatch, families, n_max, split
    ):
        path_level = path_level_index(7, families)
        reports = sweep(7, n_max, families)
        assert [r.b for r in reports] == realizable_stats(7, n_max)
        assert len(disconnected(reports)) == split

        def resolve(T, move_set):
            assert (T, move_set) == (7, families)
            return path_level

        monkeypatch.setattr(fiber, "_resolve_moves", resolve)
        for report in reports if n_max < 3 else disconnected(reports):
            fib = enumerate_fiber(7, report.b)
            lone = connectivity(fib, families)
            assert report.component_sizes == lone.component_sizes
            assert report.fiber.cells == fib.cells
            assert report.components == lone.components


def minimal_generators_by_degree(T, n_max):
    """Degree-n moves in every minimal Markov basis, for n = 1..n_max.

    In a fiber of total n, two tables are joined by moves of lower degree
    exactly when a chain of tables, each sharing a path with the next,
    links them; each such component past the first needs one generator of
    degree n (Takemura & Aoki (2004), Ann. Inst. Statist. Math. 56:1-17).
    Uses the one-pass enumeration of the sweep and no move family.
    """
    counts = []
    for rows, starts, _ in itertools.islice(fiber._levels(T, n_max), 1, None):
        generators = 0
        bounds = [*starts.tolist(), len(rows)]
        for a, b in zip(bounds, bounds[1:]):
            tables = rows[a:b].tolist()
            parent = list(range(len(tables)))

            def root(i):
                while parent[i] != i:
                    i = parent[i]
                return i

            holder = {}
            for i, table in enumerate(tables):
                for cell in table:
                    a, b = sorted((root(i), root(holder.setdefault(cell, i))))
                    parent[b] = a
            generators += sum(1 for i in range(len(tables)) if parent[i] == i) - 1
        counts.append(generators)
    return tuple(counts)


@pytest.mark.parametrize("T, counts", [
    (3, (1, 3, 2, 0)),
    (4, (4, 24, 4, 0)),
    (5, (14, 82, 6, 0)),
])
def test_minimal_basis_has_degree_at_most_three(T, counts):
    assert minimal_generators_by_degree(T, 4) == counts


def reference_components(fib, moves):
    """Components by union-find over every element, move and sign, with the
    DFS enumeration and apply_move as the only program parts used."""
    index = {t: i for i, t in enumerate(fib.elements)}
    parent = list(range(len(fib.elements)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, table in enumerate(fib.elements):
        for move in moves:
            for sign in (1, -1):
                try:
                    other = apply_move(table, move, sign)
                except NegativityViolation:
                    continue
                a, b = sorted((root(i), root(index[other])))
                parent[b] = a
    groups = {}
    for i in range(len(fib.elements)):
        groups.setdefault(root(i), []).append(i)
    return sorted(tuple(g) for g in groups.values())


class TestSweepOracle:
    def check(self, T, n_max, move_set, moves):
        reports = sweep(T, n_max, move_set)
        assert [r.b for r in reports] == realizable_stats(T, n_max)
        for report in reports:
            fib = enumerate_fiber(T, report.b)
            comps = reference_components(fib, moves)
            assert report.fiber_size == len(fib)
            assert list(report.components) == comps
            assert report.component_tables == tuple(
                tuple(table_text(fib.elements[i]) for i in c) for c in comps
            )

    @pytest.mark.parametrize("T", [3, 4, 5])
    @pytest.mark.parametrize(
        "families",
        [
            None,
            ["type1", "crossing"],
            ["type1", "crossing", "2x2", "type4"],
            ["deg3-sliding", "type2"],
            # At T=5 some crossing moves keep a type II class on both sides.
            ["crossing", "type2"],
        ],
    )
    def test_sweep_matches_dfs_and_apply_move(self, T, families):
        self.check(T, 3 if T < 5 else 2, families, enumerate_families(T, families))

    # Degree-1 moves alone leave no mapped move; type I with sliding moves
    # leaves mapped moves over classes of several cells.
    @pytest.mark.parametrize("T", [4, 5])
    @pytest.mark.parametrize(
        "families, mapped", [(["type1", "type2"], False), (["type1", "deg3-sliding"], True)]
    )
    def test_explicit_moves_match_dfs_and_apply_move(self, T, families, mapped):
        moves = enumerate_families(T, families)
        index = fiber._resolve_moves(T, moves)
        assert (index.reps < index.cells).any()
        assert bool(index.moves) == mapped
        self.check(T, 3 if T < 5 else 2, moves, moves)


def brute_components(fib, moves):
    """Components by union-find over tables: each move, with each sign,
    applied to every table as a dense count vector.  The DFS enumeration
    and the path encoding are the only program parts used."""
    from thmc.core import encode

    counts = np.zeros((len(fib.cells), 1 << fib.T), dtype=np.int64)
    for i, cells in enumerate(fib.cells):
        np.add.at(counts[i], list(cells), 1)
    index = {row.tobytes(): i for i, row in enumerate(counts)}
    deltas = np.zeros((len(moves), 1 << fib.T), dtype=np.int64)
    for k, move in enumerate(moves):
        for path, d in move.deltas:
            deltas[k, encode(path)] = d
    parent = list(range(len(counts)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for delta in np.concatenate([deltas, -deltas]):
        moved = counts + delta
        for i in np.flatnonzero((moved >= 0).all(axis=1)).tolist():
            a, b = sorted((root(i), root(index[moved[i].tobytes()])))
            parent[b] = a
    groups = {}
    for i in range(len(counts)):
        groups.setdefault(root(i), []).append(i)
    return sorted(tuple(g) for g in groups.values())


class TestComponentsOracle:
    """The components of a sweep, found for each table count at once, and
    those of connectivity on a lone enumerated fiber equal brute force on
    every fiber; each case splits some fibers."""

    def check(self, T, n_max, move_set, moves, split):
        reports = sweep(T, n_max, move_set)
        assert [r.b for r in reports] == realizable_stats(T, n_max)
        assert sum(not r.connected for r in reports) == split
        for report in reports:
            fib = enumerate_fiber(T, report.b)
            comps = brute_components(fib, moves)
            assert list(report.components) == comps
            assert list(connectivity(fib, move_set).components) == comps

    @pytest.mark.parametrize("T, n_max, families, split", [
        (3, 5, ["type1", "crossing"], 255),
        (4, 4, ["crossing", "2x2"], 335),
        (4, 3, [f.value for f in Family if f is not Family.DEG3_SLIDING], 4),
    ])
    def test_family_selection(self, T, n_max, families, split):
        self.check(T, n_max, families, enumerate_families(T, families), split)

    # Two crossing moves, the type II swap of 121 and 212, and one sliding
    # move: degrees 1, 2 and 3, with one class of two cells.
    def test_explicit_move_list(self):
        moves = [enumerate_families(3)[i] for i in (0, 1, 3, 5)]
        assert sorted(m.degree for m in moves) == [1, 2, 2, 3]
        self.check(3, 4, moves, moves, 35)

    # Tables of 20 paths over the classes present have keys past int64,
    # which are then kept as Python ints.
    def test_lone_fiber_of_many_paths(self):
        moves = enumerate_families(4, ["type1", "crossing"])
        fib = enumerate_fiber(4, (25, 5, 5, 25))
        assert len(fib) == 3228 and len(fib.cells[0]) == 20
        report = connectivity(fib, ["type1", "crossing"])
        assert report.n_components == 31
        assert list(report.components) == brute_components(fib, moves)


def path_level_index(T, families):
    """The index of a selection built from every decoded draw of its
    families, chunk by chunk, also past the enumeration cap."""
    draws = thmc.moves._draws
    return fiber._move_index((c for f in families for _, _, *c in draws(T, f)), ())


def assert_index_form(index_cells, reps, moves):
    """The array form of a move index: ``cells`` strictly ascending, each
    rep at most its cell and a rep of itself; one int64 array per degree
    d >= 2 that has moves, by degree, each row a negative half then a
    positive half of reps or unnamed cells, each half sorted, the negative
    half the smaller, and the rows strictly ascending."""
    cells, reps = index_cells.tolist(), reps.tolist()
    assert index_cells.dtype == np.int64 and cells == sorted(set(cells))
    rep_of = dict(zip(cells, reps))
    assert all(r <= c and rep_of[r] == r for c, r in rep_of.items())
    degrees = [m.shape[1] // 2 for m in moves]
    assert degrees == sorted(set(degrees)) and min(degrees, default=2) >= 2
    for m, d in zip(moves, degrees):
        assert m.dtype == np.int64 and m.shape == (len(m), 2 * d) and len(m)
        rows = [tuple(r) for r in m.tolist()]
        assert all(a < b for a, b in zip(rows, rows[1:]))
        for row in rows:
            negative, positive = row[:d], row[d:]
            assert list(negative) == sorted(negative) and list(positive) == sorted(positive)
            assert negative < positive
            assert all(rep_of.get(c, c) == c for c in row)


class TestPointIndex:
    """A selection with type I moves is indexed on points; it must give the
    index the path-level builder gives from every decoded draw: the same
    cells, reps and mapped moves, array for array, both in the form
    :func:`assert_index_form` checks.  Past the enumeration cap the
    path-level side still reads every decoded draw."""

    SELECTIONS = [
        tuple(Family),
        tuple(f for f in Family if f is not Family.DEG3_SLIDING),
        (Family.TYPE1_DEG1, Family.CROSSING, Family.TWO_BY_TWO, Family.TYPE4),
        (Family.TYPE1_DEG1, Family.CROSSING),
        (Family.TYPE1_DEG1, Family.TYPE2_DEG1),
    ]

    # Each trade's moves are made distinct as they are traded, so the
    # call's peak follows the distinct moves, not every candidate: at T=8,
    # about 0.4 MiB, against 1.6 MiB when all candidates were kept.
    def test_peak_follows_the_distinct_moves(self):
        from thmc import _points

        _points.index(8, tuple(Family))
        tracemalloc.start()
        try:
            _points.index(8, tuple(Family))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    # Up to the enumeration cap, every selection's index, built on points
    # with type I moves and from the decoder's arrays without, has the
    # array form.
    @pytest.mark.parametrize("T", range(3, thmc.moves.ENUMERATION_T_CAP + 1))
    def test_every_selection_has_the_form(self, T):
        for k in range(1, len(Family) + 1):
            for families in itertools.combinations(Family, k):
                index = fiber._family_index(T, families)
                assert_index_form(index.cells, index.reps, index.moves)

    @pytest.mark.parametrize("T", range(3, 9))
    def test_equals_path_level_index(self, T):
        from thmc import _points

        for families in self.SELECTIONS:
            path_level = path_level_index(T, families)
            cells, reps, moves = _points.index(T, families)
            assert_index_form(cells, reps, moves)
            assert_index_form(path_level.cells, path_level.reps, path_level.moves)
            assert np.array_equal(cells, path_level.cells)
            assert np.array_equal(reps, path_level.reps)
            assert len(moves) == len(path_level.moves)
            assert all(map(np.array_equal, moves, path_level.moves))

    # The path-level index reads each family's decoded draws a chunk at a
    # time, as arrays, and keeps each chunk's rows distinct, so at T=8 the
    # six families' index peaks at about 25 MiB once the decoder is built,
    # against 42 MiB when each move was rebuilt as tuples.
    def test_path_level_peak(self):
        from thmc import _bulk  # noqa: F401

        thmc.moves._decoder(8)
        tracemalloc.start()
        try:
            path_level_index(8, tuple(Family))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20
