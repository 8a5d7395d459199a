"""Exhaustive fiber enumeration and connectivity checking under move subsets.

A fiber is the set of all nonnegative integer frequency tables sharing one
transition statistic.  Enumerating small fibers exhaustively and checking
which move families connect them is the desk-scale oracle for the basis
claims: a family set is a Markov basis exactly when every fiber comes out
as a single component.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    DENSE_T_CAP,
    MIN_T,
    Path,
    PathTable,
    TransitionStat,
    all_paths,
    decode,
    path_str,
    transitions,
)
from .moves import Family, Move, enumerate_families

#: Default enumeration budgets.
MAX_FIBER_ELEMENTS = 10**6
MAX_DFS_NODES = 10**8


class BudgetExceeded(RuntimeError):
    """Fiber enumeration hit a budget; carries the partial element count."""

    def __init__(self, message: str, partial_count: int, nodes_visited: int) -> None:
        super().__init__(message)
        self.partial_count = partial_count
        self.nodes_visited = nodes_visited


@dataclass(frozen=True)
class Fiber:
    """All tables with a given transition statistic, canonically ordered."""

    T: int
    b: TransitionStat
    elements: tuple[PathTable, ...]

    def __len__(self) -> int:
        return len(self.elements)


@lru_cache(maxsize=None)
def _cell_stats(T: int) -> tuple[tuple[int, int, int, int], ...]:
    """Per-path transition 4-tuples, indexed by path encoding."""
    return tuple(transitions(p).as_tuple() for p in all_paths(T))


@lru_cache(maxsize=None)
def _suffix_max(T: int) -> tuple[tuple[int, int, int, int], ...]:
    """suffix_max[m][k]: max of transition k over cells with index >= m."""
    stats = _cell_stats(T)
    out = [(0, 0, 0, 0)] * (len(stats) + 1)
    for m in range(len(stats) - 1, -1, -1):
        nxt = out[m + 1]
        cur = stats[m]
        out[m] = tuple(max(a, b) for a, b in zip(cur, nxt))  # type: ignore[assignment]
    return tuple(out)


def _enumerate_raw(
    T: int,
    target: tuple[int, int, int, int],
    max_elements: int,
    max_nodes: int,
) -> list[tuple[tuple[int, int], ...]]:
    """Depth-first enumeration over cells in encoding order.

    Returns each table as a tuple of (cell index, count) pairs.  A branch
    is cut when a transition budget goes negative or exceeds what the
    remaining cells can consume given the number of paths still to place.
    """
    total = sum(target)
    if total % (T - 1) != 0:
        return []
    stats = _cell_stats(T)
    smax = _suffix_max(T)
    ncells = len(stats)
    results: list[tuple[tuple[int, int], ...]] = []
    prefix: list[tuple[int, int]] = []
    nodes = 0

    def recurse(m: int, rem: tuple[int, int, int, int]) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceeded(
                f"DFS node budget {max_nodes} exceeded", len(results), nodes
            )
        rem_total = sum(rem)
        if rem_total == 0:
            if len(results) >= max_elements:
                raise BudgetExceeded(
                    f"fiber element budget {max_elements} exceeded",
                    len(results),
                    nodes,
                )
            results.append(tuple(prefix))
            return
        if m == ncells:
            return
        n_rem = rem_total // (T - 1)
        cap = smax[m]
        if any(r > n_rem * c for r, c in zip(rem, cap)):
            return
        s = stats[m]
        kmax = n_rem
        for r, c in zip(rem, s):
            if c:
                kmax = min(kmax, r // c)
        for k in range(0, kmax + 1):
            if k:
                prefix.append((m, k))
            recurse(
                m + 1,
                (
                    rem[0] - k * s[0],
                    rem[1] - k * s[1],
                    rem[2] - k * s[2],
                    rem[3] - k * s[3],
                ),
            )
            if k:
                prefix.pop()

    recurse(0, target)
    return results


def _raw_to_table(T: int, raw: tuple[tuple[int, int], ...]) -> PathTable:
    return PathTable(T, {decode(i, T): c for i, c in raw})


def enumerate_fiber(
    T: int,
    b: TransitionStat | Sequence[int],
    max_elements: int = MAX_FIBER_ELEMENTS,
    max_nodes: int = MAX_DFS_NODES,
) -> Fiber:
    """The complete fiber of a transition statistic.

    Elements are sorted canonically (lexicographically in their dense count
    vectors).  A statistic whose total is not a multiple of T-1 has an
    empty fiber.  T is capped at ``DENSE_T_CAP`` because the search walks
    all 2**T cells.  Raises :class:`BudgetExceeded` past the configured
    budgets.
    """
    if T < MIN_T:
        raise ValueError(f"T must be >= {MIN_T}, got {T}")
    if T > DENSE_T_CAP:
        raise ValueError(f"fiber enumeration is capped at T <= {DENSE_T_CAP}, got {T}")
    if not isinstance(b, TransitionStat):
        b = TransitionStat(*(int(v) for v in b))
    raw = _enumerate_raw(T, b.as_tuple(), max_elements, max_nodes)
    return Fiber(T=T, b=b, elements=tuple(_raw_to_table(T, r) for r in raw))


@dataclass(frozen=True)
class ConnectivityReport:
    """Connected components of a fiber under a move set; ``component_tables``
    renders each component's tables with :func:`table_text`."""

    T: int
    b: TransitionStat
    fiber_size: int
    component_sizes: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    representatives: tuple[PathTable, ...]
    component_tables: tuple[tuple[str, ...], ...]
    move_set: tuple[str, ...]

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def connected(self) -> bool:
        return self.n_components <= 1


def _resolve_moves(
    T: int, move_set: Iterable[Move] | Iterable[Family | str] | None
) -> tuple[list[Move], tuple[str, ...]]:
    if move_set is None:
        return enumerate_families(T), tuple(f.value for f in Family)
    items = list(move_set)
    if items and isinstance(items[0], Move):
        for m in items:
            if m.T != T:  # type: ignore[union-attr]
                raise ValueError(f"move has T={m.T}, fiber has T={T}")  # type: ignore[union-attr]
        return items, ("custom",)  # type: ignore[return-value]
    fams = tuple(Family(f) for f in items)
    return enumerate_families(T, fams), tuple(f.value for f in fams)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.count = n

    def find(self, i: int) -> int:
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            if rj < ri:
                ri, rj = rj, ri
            self.parent[rj] = ri
            self.count -= 1


def _sub_multisets(
    items: tuple[tuple[Path, int], ...], max_size: int
) -> list[tuple[tuple[Path, int], ...]]:
    """Each distinct sub-multiset of at most ``max_size`` paths, as items in
    encoding order."""
    parts: list[tuple[tuple[tuple[Path, int], ...], int]] = [((), 0)]
    for path, count in items:
        parts += [
            (part + ((path, k),), size + k)
            for part, size in parts
            for k in range(1, min(count, max_size - size) + 1)
        ]
    return [part for part, _ in parts]


def connectivity(
    fiber: Fiber,
    move_set: Iterable[Move] | Iterable[Family | str] | None = None,
) -> ConnectivityReport:
    """Connected components of the fiber graph under a move set.

    Two tables are adjacent when some move in the set carries one to the
    other without any count going negative.  ``move_set`` is either a list
    of explicit moves or a selection of families (all six by default).
    Moves are indexed by their negative part, so a table's neighbours are
    found by looking up its sub-multisets up to the largest move degree;
    one sign of each move suffices, because its other sign is found from
    the far end.
    Output is deterministic: components are ordered by their smallest
    element and each is represented by that element.
    """
    moves, description = _resolve_moves(fiber.T, move_set)
    if not fiber.elements:
        raise ValueError("connectivity of an empty fiber is undefined")
    elements = fiber.elements
    n = len(elements)
    by_negative: dict[tuple[tuple[Path, int], ...], list[Move]] = {}
    for move in moves:
        by_negative.setdefault(move.negative.items(), []).append(move)
    max_degree = max((m.degree for m in moves), default=0)
    index = {frozenset(t.items()): i for i, t in enumerate(elements)}
    uf = _UnionFind(n)
    for i, table in enumerate(elements):
        if uf.count == 1:
            break
        for part in _sub_multisets(table.items(), max_degree):
            for move in by_negative.get(part, ()):
                y = dict(table.counts)
                for p, d in move.deltas:
                    c = y.get(p, 0) + d
                    if c:
                        y[p] = c
                    else:
                        del y[p]
                j = index.get(frozenset(y.items()))
                if j is None:
                    raise AssertionError(
                        "move led outside the enumerated fiber; enumeration incomplete"
                    )
                uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    comps = tuple(tuple(groups[r]) for r in sorted(groups))
    return ConnectivityReport(
        T=fiber.T,
        b=fiber.b,
        fiber_size=n,
        component_sizes=tuple(len(c) for c in comps),
        components=comps,
        representatives=tuple(elements[c[0]] for c in comps),
        component_tables=tuple(
            tuple(table_text(elements[i]) for i in c) for c in comps
        ),
        move_set=description,
    )


def _tables_by_stat(
    T: int, n_max: int
) -> Iterator[dict[tuple[int, int, int, int], list[tuple[int, ...]]]]:
    """For n = 0..n_max, every table of total count n grouped by statistic.

    A table is the sorted tuple of its paths' cell indices, and each group
    lists its tables in ``combinations_with_replacement`` order: descending
    in dense count vectors, the reverse of the canonical fiber order.  Since
    sum(b) = n(T-1), each group is a complete fiber.
    """
    stats = _cell_stats(T)
    for n in range(0, n_max + 1):
        groups: dict[tuple[int, int, int, int], list[tuple[int, ...]]] = {}
        for combo in combinations_with_replacement(range(len(stats)), n):
            acc = (0, 0, 0, 0)
            for i in combo:
                s = stats[i]
                acc = (acc[0] + s[0], acc[1] + s[1], acc[2] + s[2], acc[3] + s[3])
            groups.setdefault(acc, []).append(combo)
        yield groups


def realizable_stats(T: int, n_max: int) -> list[TransitionStat]:
    """Every transition statistic realized by a table with total count <= n_max."""
    return [
        TransitionStat(*b) for groups in _tables_by_stat(T, n_max) for b in sorted(groups)
    ]


def initial_frequency_classes(fiber: Fiber) -> tuple[tuple[int, ...], ...]:
    """Partition of the fiber's element indices by initial-frequency vector."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, table in enumerate(fiber.elements):
        x1 = sum(c for p, c in table.items() if p[0] == 1)
        groups.setdefault((x1, table.n - x1), []).append(i)
    return tuple(tuple(groups[k]) for k in sorted(groups))


def sweep(
    T: int,
    n_max: int,
    move_set: Iterable[Move] | Iterable[Family | str] | None = None,
    stat_filter: Callable[[TransitionStat], bool] | None = None,
) -> list[ConnectivityReport]:
    """Connectivity reports for every realizable fiber with total count <= n_max.

    ``stat_filter`` optionally restricts the swept statistics (e.g. to
    fibers with b11 = 0).  Every table is enumerated once and grouped by
    statistic, so each fiber is complete and a report with more than one
    component is a certified disconnection under the move set.  Reports
    come in ascending (total, b) order.
    """
    if move_set is not None:
        move_set = list(move_set)
    _resolve_moves(T, move_set)  # reject a bad T or family before enumerating
    paths = tuple(all_paths(T))
    reports = []
    for groups in _tables_by_stat(T, n_max):
        for b in sorted(groups):
            tables = groups.pop(b)
            stat = TransitionStat(*b)
            if stat_filter is not None and not stat_filter(stat):
                continue
            elements = tuple(
                PathTable(T, Counter(paths[i] for i in combo))
                for combo in reversed(tables)
            )
            reports.append(connectivity(Fiber(T, stat, elements), move_set))
    return reports


def disconnected(reports: Iterable[ConnectivityReport]) -> list[ConnectivityReport]:
    """The reports with more than one component."""
    return [r for r in reports if not r.connected]


def table_text(table: PathTable) -> str:
    """One-line 'path:count' rendering in canonical order, e.g. '111:1 122:2'."""
    return " ".join(f"{path_str(p)}:{c}" for p, c in table.items())
