import itertools

import pytest

from thmc import (
    Family,
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
from thmc.core import all_paths
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

    def test_element_budget(self):
        with pytest.raises(BudgetExceeded) as err:
            enumerate_fiber(4, (6, 6, 6, 6), max_elements=5)
        assert err.value.partial_count == 5

    def test_node_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_fiber(4, (6, 6, 6, 6), max_nodes=10)

    def test_T_over_dense_cap_rejected_before_cells(self, monkeypatch):
        def refuse(T):
            raise AssertionError(f"built all 2**{T} cells")

        monkeypatch.setattr(fiber, "_cell_stats", refuse)
        with pytest.raises(ValueError, match="T <= 24"):
            enumerate_fiber(40, (39, 0, 0, 0))


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
        assert len(report.representatives) == report.n_components

    def test_explicit_move_list(self):
        from thmc import deg3_sliding

        fib = enumerate_fiber(3, (2, 2, 0, 2))
        report = connectivity(fib, [deg3_sliding(3, 1, 1, 1)])
        assert report.n_components == 1
        assert report.move_set == ("custom",)

    def test_T_mismatch_rejected(self):
        from thmc import deg3_sliding

        fib = enumerate_fiber(3, (2, 2, 0, 2))
        with pytest.raises(ValueError):
            connectivity(fib, [deg3_sliding(4, 1, 1, 1)])

    def test_empty_fiber_rejected(self):
        with pytest.raises(ValueError):
            connectivity(enumerate_fiber(3, (1, 0, 0, 1)))


class TestSweep:
    def test_moves_indexed_once_per_selection(self, monkeypatch):
        enumerations = []
        connectivity_calls = []
        real_enumerate, real_connectivity = fiber.enumerate_families, fiber.connectivity

        def counted_enumerate(*args, **kwargs):
            enumerations.append(args)
            return real_enumerate(*args, **kwargs)

        def counted_connectivity(*args, **kwargs):
            connectivity_calls.append(args)
            return real_connectivity(*args, **kwargs)

        monkeypatch.setattr(fiber, "enumerate_families", counted_enumerate)
        monkeypatch.setattr(fiber, "connectivity", counted_connectivity)
        reports = sweep(4, 3, ["crossing", "type2"])
        assert len(connectivity_calls) == len(reports) > 1
        assert len(enumerations) <= 1

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

    def test_realizable_stats_match_brute_force(self):
        paths = list(all_paths(3))
        seen = set()
        for n in range(0, 3):
            for combo in itertools.combinations_with_replacement(paths, n):
                table = PathTable.from_paths(combo) if combo else PathTable(3)
                seen.add(suff_stat(table).as_tuple())
        assert {b.as_tuple() for b in realizable_stats(3, 2)} == seen


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
    @pytest.mark.parametrize("T", [3, 4])
    @pytest.mark.parametrize(
        "families",
        [
            None,
            ["type1", "crossing"],
            ["type1", "crossing", "2x2", "type4"],
            ["deg3-sliding", "type2"],
        ],
    )
    def test_sweep_matches_dfs_and_apply_move(self, T, families):
        moves = enumerate_families(T, families)
        reports = sweep(T, 3, families)
        assert [r.b for r in reports] == realizable_stats(T, 3)
        for report in reports:
            fib = enumerate_fiber(T, report.b)
            comps = reference_components(fib, moves)
            assert report.fiber_size == len(fib)
            assert list(report.components) == comps
            assert report.representatives == tuple(fib.elements[c[0]] for c in comps)
            assert report.component_tables == tuple(
                tuple(table_text(fib.elements[i]) for i in c) for c in comps
            )
