"""Exhaustive fiber enumeration and connectivity checking under move subsets.

A fiber is the set of all nonnegative integer frequency tables sharing one
transition statistic.  Enumerating small fibers exhaustively and checking
which move families connect them is the desk-scale oracle for the basis
claims: a family set is a Markov basis exactly when every fiber comes out
as a single component.

Inside this module a table is the sorted tuple of its paths' cell indices
(path encodings, one entry per unit of count), so enumeration, the move
index and connectivity all work on tuples of small integers;
:class:`PathTable` objects are built only where a caller asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .core import (
    DENSE_T_CAP,
    MIN_T,
    PathTable,
    TransitionStat,
    all_paths,
    configuration,
    decode,
    encode,
    path_str,
)
from .moves import Family, Move, enumerate_families

#: Enumeration budgets of :func:`enumerate_fiber`, read at each call; the
#: element budget also caps the tables a :func:`sweep` may enumerate.
MAX_FIBER_ELEMENTS = 10**6
MAX_DFS_NODES = 10**8

#: A table as the sorted tuple of its paths' cell indices.
Cells = tuple[int, ...]


class BudgetExceeded(RuntimeError):
    """Fiber enumeration hit a budget; carries the partial element count."""

    def __init__(self, message: str, partial_count: int, nodes_visited: int) -> None:
        super().__init__(message)
        self.partial_count = partial_count
        self.nodes_visited = nodes_visited


def _cells_table(T: int, cells: Cells) -> PathTable:
    return PathTable(T, {decode(i, T): cells.count(i) for i in dict.fromkeys(cells)})


@dataclass(frozen=True)
class Fiber:
    """All tables with a given transition statistic, canonically ordered.

    ``cells[i]`` holds table ``i`` as the sorted tuple of its paths' cell
    indices; ``elements[i]`` is the same table as a :class:`PathTable`,
    built on first use.
    """

    T: int
    b: TransitionStat
    cells: tuple[Cells, ...]

    @cached_property
    def elements(self) -> tuple[PathTable, ...]:
        return tuple(_cells_table(self.T, c) for c in self.cells)

    def __len__(self) -> int:
        return len(self.cells)


@lru_cache(maxsize=None)
def _cell_stats(T: int) -> tuple[tuple[int, int, int, int], ...]:
    """Per-path transition 4-tuples, indexed by path encoding: the columns
    of the configuration matrix."""
    return tuple(zip(*configuration(T).tolist()))


@lru_cache(maxsize=None)
def _path_texts(T: int) -> tuple[str, ...]:
    """Per-path digit strings, indexed by path encoding."""
    return tuple(path_str(p) for p in all_paths(T))


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


def _enumerate_cells(T: int, target: tuple[int, int, int, int]) -> list[Cells]:
    """Depth-first enumeration over cells in encoding order.

    Returns each table as its sorted tuple of cell indices.  A branch is
    cut when a transition budget goes negative or exceeds what the
    remaining cells can consume given the number of paths still to place.
    Raises :class:`BudgetExceeded` past ``MAX_FIBER_ELEMENTS`` tables or
    ``MAX_DFS_NODES`` search nodes.
    """
    max_elements = MAX_FIBER_ELEMENTS
    max_nodes = MAX_DFS_NODES
    total = sum(target)
    if total % (T - 1) != 0:
        return []
    stats = _cell_stats(T)
    smax = _suffix_max(T)
    ncells = len(stats)
    results: list[Cells] = []
    prefix: list[int] = []
    nodes = 0
    # The search has one level per cell, past the recursion limit from
    # T=10, so it keeps an explicit stack of nodes (m, rem, plen, k): cell m
    # is next to decide, rem is the budget left, and the node's prefix is
    # its parent's first plen cells then k copies of cell m - 1.  Children
    # are pushed in reverse, so they are visited in ascending k.
    stack = [(0, target, 0, 0)]
    while stack:
        m, rem, plen, k = stack.pop()
        del prefix[plen:]
        prefix += [m - 1] * k
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
            continue
        if m == ncells:
            continue
        n_rem = rem_total // (T - 1)
        cap = smax[m]
        if any(r > n_rem * c for r, c in zip(rem, cap)):
            continue
        s = stats[m]
        kmax = n_rem
        for r, c in zip(rem, s):
            if c:
                kmax = min(kmax, r // c)
        plen = len(prefix)
        for k in range(kmax, -1, -1):
            stack.append((
                m + 1,
                (
                    rem[0] - k * s[0],
                    rem[1] - k * s[1],
                    rem[2] - k * s[2],
                    rem[3] - k * s[3],
                ),
                plen,
                k,
            ))
    return results


def enumerate_fiber(T: int, b: TransitionStat | Sequence[int]) -> Fiber:
    """The complete fiber of a transition statistic.

    Elements are sorted canonically (lexicographically in their dense count
    vectors).  A statistic whose total is not a multiple of T-1 has an
    empty fiber.  T is capped at ``DENSE_T_CAP`` because the search walks
    all 2**T cells.  Raises :class:`BudgetExceeded` past the module's
    budgets ``MAX_FIBER_ELEMENTS`` and ``MAX_DFS_NODES``.
    """
    if T < MIN_T:
        raise ValueError(f"T must be >= {MIN_T}, got {T}")
    if T > DENSE_T_CAP:
        raise ValueError(f"fiber enumeration is capped at T <= {DENSE_T_CAP}, got {T}")
    if not isinstance(b, TransitionStat):
        b = TransitionStat(*(int(v) for v in b))
    return Fiber(T, b, tuple(_enumerate_cells(T, b.as_tuple())))


@dataclass(frozen=True)
class ConnectivityReport:
    """Connected components of a fiber under a move set; ``component_tables``
    renders each component's tables as :func:`table_text` does."""

    T: int
    b: TransitionStat
    components: tuple[tuple[int, ...], ...]
    component_tables: tuple[tuple[str, ...], ...]
    move_set: tuple[str, ...]

    @property
    def fiber_size(self) -> int:
        return sum(map(len, self.components))

    @property
    def component_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.components))

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def connected(self) -> bool:
        return self.n_components <= 1


_MoveIndex = tuple[dict[Cells, list[Cells]], int]


def _move_index(moves: Sequence[Move]) -> _MoveIndex:
    """The positive cells of each move keyed by its negative cells, and the
    largest move degree.  A move's deltas come in encoding order, so both
    cell tuples come out sorted."""
    by_negative: dict[Cells, list[Cells]] = {}
    for move in moves:
        negative = tuple(encode(p) for p, d in move.deltas if d < 0 for _ in range(-d))
        positive = tuple(encode(p) for p, d in move.deltas if d > 0 for _ in range(d))
        by_negative.setdefault(negative, []).append(positive)
    return by_negative, max((m.degree for m in moves), default=0)


@lru_cache(maxsize=None)
def _family_index(T: int, families: tuple[Family, ...]) -> _MoveIndex:
    return _move_index(enumerate_families(T, families))


def _resolve_moves(
    T: int, move_set: Iterable[Move] | Iterable[Family | str] | None
) -> tuple[_MoveIndex, tuple[str, ...]]:
    """The move index of a move set, and the set's description."""
    items = list(Family if move_set is None else move_set)
    if items and isinstance(items[0], Move):
        for m in items:
            if m.T != T:  # type: ignore[union-attr]
                raise ValueError(f"move has T={m.T}, fiber has T={T}")  # type: ignore[union-attr]
        return _move_index(items), ("custom",)  # type: ignore[arg-type]
    fams = tuple(Family(f) for f in items)
    return _family_index(T, fams), tuple(f.value for f in fams)


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


def _cells_text(texts: Sequence[str] | Mapping[int, str], cells: Cells) -> str:
    return " ".join(f"{texts[i]}:{cells.count(i)}" for i in dict.fromkeys(cells))


def connectivity(
    fiber: Fiber,
    move_set: Iterable[Move] | Iterable[Family | str] | None = None,
) -> ConnectivityReport:
    """Connected components of the fiber graph under a move set.

    Two tables are adjacent when some move in the set carries one to the
    other without any count going negative.  ``move_set`` is either a list
    of explicit moves or a selection of families (all six by default).
    Tables are the fiber's cell-index tuples, and each move is a pair of
    cell-index tuples indexed by its negative part, once per T and family
    selection.  A table's neighbours come from looking up each distinct
    sub-multiset of at most the largest move degree, then removing the
    negative cells, adding the positive ones and sorting; one sign of each
    move suffices, because its other sign is found from the far end.
    Output is deterministic: components are ordered by their smallest
    element, and no :class:`PathTable` is built.
    """
    (by_negative, max_degree), description = _resolve_moves(fiber.T, move_set)
    tables = fiber.cells
    if not tables:
        raise ValueError("connectivity of an empty fiber is undefined")
    n = len(tables)
    index = {t: i for i, t in enumerate(tables)}
    uf = _UnionFind(n)
    for i, table in enumerate(tables):
        if uf.count == 1:
            break
        for size in range(1, min(max_degree, len(table)) + 1):
            for negative in dict.fromkeys(combinations(table, size)):
                for positive in by_negative.get(negative, ()):
                    y = list(table)
                    for c in negative:
                        y.remove(c)
                    y += positive
                    y.sort()
                    j = index.get(tuple(y))
                    if j is None:
                        raise AssertionError(
                            "move led outside the enumerated fiber; "
                            "enumeration incomplete"
                        )
                    uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    comps = tuple(tuple(groups[r]) for r in sorted(groups))
    texts = _path_texts(fiber.T)
    return ConnectivityReport(
        T=fiber.T,
        b=fiber.b,
        components=comps,
        component_tables=tuple(
            tuple(_cells_text(texts, tables[i]) for i in c) for c in comps
        ),
        move_set=description,
    )


def _tables_by_stat(
    T: int, n_max: int
) -> Iterator[dict[tuple[int, int, int, int], list[Cells]]]:
    """For n = 0..n_max, every table of total count n grouped by statistic.

    A table is the sorted tuple of its paths' cell indices, and each group
    lists its tables in ``combinations_with_replacement`` order: descending
    in dense count vectors, the reverse of the canonical fiber order.  Since
    sum(b) = n(T-1), each group is a complete fiber.  Raises
    :class:`BudgetExceeded` before any enumeration when the tables of
    n <= n_max, C(2**T + n_max, n_max) of them, outnumber
    ``MAX_FIBER_ELEMENTS``.
    """
    tables = comb(2**T + n_max, n_max)
    if tables > MAX_FIBER_ELEMENTS:
        raise BudgetExceeded(
            f"{tables} tables of n <= {n_max} at T={T} exceed the budget "
            f"of {MAX_FIBER_ELEMENTS}", 0, 0
        )
    stats = _cell_stats(T)
    for n in range(0, n_max + 1):
        groups: dict[tuple[int, int, int, int], list[Cells]] = {}
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
    # A path starts in state 1 exactly when its encoding is below 2**(T-1).
    half = 1 << (fiber.T - 1)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, cells in enumerate(fiber.cells):
        x1 = sum(1 for c in cells if c < half)
        groups.setdefault((x1, len(cells) - x1), []).append(i)
    return tuple(tuple(groups[k]) for k in sorted(groups))


def sweep(
    T: int,
    n_max: int,
    move_set: Iterable[Move] | Iterable[Family | str] | None = None,
    stat_filter: Callable[[TransitionStat], bool] | None = None,
) -> list[ConnectivityReport]:
    """Connectivity reports for every realizable fiber with total count <= n_max.

    ``stat_filter`` optionally restricts the swept statistics (e.g. to
    fibers with b11 = 0).  Every table is enumerated once, as a cell-index
    tuple, and grouped by statistic, so each fiber is complete and a report
    with more than one component is a certified disconnection under the
    move set.  No fiber builds its ``PathTable`` elements.  Reports come in
    ascending (total, b) order.
    """
    if move_set is not None:
        move_set = list(move_set)
    _resolve_moves(T, move_set)  # reject a bad T or family before enumerating
    reports = []
    for groups in _tables_by_stat(T, n_max):
        for b in sorted(groups):
            tables = groups.pop(b)
            stat = TransitionStat(*b)
            if stat_filter is not None and not stat_filter(stat):
                continue
            tables.reverse()
            reports.append(connectivity(Fiber(T, stat, tuple(tables)), move_set))
    return reports


def disconnected(reports: Iterable[ConnectivityReport]) -> list[ConnectivityReport]:
    """The reports with more than one component."""
    return [r for r in reports if not r.connected]


def table_text(table: PathTable) -> str:
    """One-line 'path:count' rendering in canonical order, e.g. '111:1 122:2'."""
    return " ".join(f"{path_str(p)}:{c}" for p, c in table.items())
