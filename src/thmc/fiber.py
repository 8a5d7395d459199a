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
Each function builds only the cells it uses: :func:`enumerate_fiber` those
that fit its target, a sweep all 2**T once its tables hold a path, and
:func:`fiber_texts` the ``path:1`` token of each cell present, once per
fiber, when a report's texts are first read; a table of distinct paths
is its tokens joined.  ``thmc verify-basis --report`` reads each report's
texts just before it writes that fiber out, and drops them once written.

:func:`connectivity` searches classes of tables, not tables.  A degree-1
move swaps one path for another of the same statistic, so the tables that
differ only by such swaps, those with one multiset of path classes, are
always connected; the search joins these multisets by the other moves
mapped onto classes, after checking that the fiber holds every table of
each multiset (Diaconis & Sturmfels (1998), Ann. Statist. 26:363-397,
Thm 3.1, for moves as fiber connectors).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    DENSE_T_CAP,
    MIN_T,
    PathTable,
    TransitionStat,
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
        return tuple(
            PathTable(self.T, {decode(i, self.T): c.count(i) for i in dict.fromkeys(c)})
            for c in self.cells
        )

    def __len__(self) -> int:
        return len(self.cells)


def _fitting_cells(
    T: int, target: tuple[int, int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The fiber layer's one cell builder: the cells whose statistic is <=
    the target in every coordinate, in encoding order, and their statistics
    as rows; a target of T-1 in every coordinate keeps all 2**T cells.

    Built by putting one state in front of the suffixes built so far:
    first state 1 before every suffix, then state 2, which keeps encoding
    order.  A suffix's statistic only grows as states are put in front, so
    each step drops the suffixes that already exceed the target.
    """
    cells = np.arange(2)
    stats = np.zeros((2, 4), dtype=np.int64)
    for length in range(1, T):
        cells = np.concatenate([cells, cells + (1 << length)])
        stats = np.concatenate([stats, stats])
        # The two leading bits, new state then old first state, index the
        # new first transition.
        stats[np.arange(len(cells)), cells >> (length - 1)] += 1
        keep = (stats <= target).all(axis=1)
        cells, stats = cells[keep], stats[keep]
    return cells, stats


def _enumerate_cells(T: int, target: tuple[int, int, int, int]) -> list[Cells]:
    """Depth-first enumeration over the cells that fit, in encoding order.

    Only a cell whose own statistic is <= the target in every coordinate
    can appear in the fiber, so the search runs over those cells alone
    (:func:`_fitting_cells`).  Returns each table as its sorted tuple of
    cell indices.  A node takes only the counts of its cell that leave a
    budget the later cells can still consume given the number of paths
    still to place.  Raises :class:`BudgetExceeded` past
    ``MAX_FIBER_ELEMENTS`` paths in a table (before any search) or tables,
    or past ``MAX_DFS_NODES`` search nodes.
    """
    max_elements = MAX_FIBER_ELEMENTS
    max_nodes = MAX_DFS_NODES
    total = sum(target)
    if total % (T - 1) != 0:
        return []
    n = total // (T - 1)
    if n > max_elements:
        raise BudgetExceeded(
            f"tables of {n} paths exceed the fiber element budget {max_elements}", 0, 0
        )
    cells, stats = _fitting_cells(T, target)
    cells = cells.tolist()
    # smax[m]: max of each transition over the fitting cells from the m-th on.
    smax = np.maximum.accumulate(stats[::-1]).tolist()[::-1] + [[0, 0, 0, 0]]
    stats = stats.tolist()
    if any(r > n * c for r, c in zip(target, smax[0])):
        return []
    results: list[Cells] = []
    nodes = 0
    # The search has one level per fitting cell, past the recursion limit
    # for long paths, so it keeps an explicit stack of nodes (m, rem, n,
    # runs): fitting cell m is next to decide, rem is the budget left for n
    # paths, and runs holds the (cell, count) pairs taken.  Every node has
    # rem <= n * smax[m], so once its cells are all decided, rem is zero.
    # Children are pushed in reverse, so they are visited in ascending k.
    stack = [(0, target, n, ())]
    while stack:
        m, rem, n, runs = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceeded(
                f"DFS node budget {max_nodes} exceeded", len(results), nodes
            )
        if n == 0:
            if len(results) >= max_elements:
                raise BudgetExceeded(
                    f"fiber element budget {max_elements} exceeded",
                    len(results),
                    nodes,
                )
            results.append(tuple(cell for cell, k in runs for _ in range(k)))
            continue
        # k copies of cell m need k * s <= rem and rem - k * s <= (n - k) * c
        # in each transition, where c bounds every later cell.
        s0, s1, s2, s3 = s = stats[m]
        lo, hi = 0, n
        for r, sj, cj in zip(rem, s, smax[m + 1]):
            if sj:
                hi = min(hi, r // sj)
            if cj > sj:
                hi = min(hi, (n * cj - r) // (cj - sj))
            elif cj < sj:
                lo = max(lo, -((n * cj - r) // (sj - cj)))
        r0, r1, r2, r3 = rem
        for k in range(hi, lo - 1, -1):
            rest = (r0 - k * s0, r1 - k * s1, r2 - k * s2, r3 - k * s3)
            stack.append((m + 1, rest, n - k, runs + ((cells[m], k),) if k else runs))
    return results


def enumerate_fiber(T: int, b: TransitionStat | Sequence[int]) -> Fiber:
    """The complete fiber of a transition statistic.

    Elements are sorted canonically (lexicographically in their dense count
    vectors).  A statistic whose total is not a multiple of T-1 has an
    empty fiber.  T is capped at ``DENSE_T_CAP``, because as many as 2**T
    cells can fit the statistic.  Entries must be nonnegative
    integers (Python or numpy); any other type raises :class:`ValueError`.
    Raises :class:`BudgetExceeded` before any search when each table would
    hold more than ``MAX_FIBER_ELEMENTS`` paths, and during it past
    ``MAX_FIBER_ELEMENTS`` tables or ``MAX_DFS_NODES`` search nodes; a
    search that runs to the node budget prints nothing for about 6 minutes
    (10**7 nodes took 38 s on a 2-core machine).
    """
    if T < MIN_T:
        raise ValueError(f"T must be >= {MIN_T}, got {T}")
    if T > DENSE_T_CAP:
        raise ValueError(f"fiber enumeration is capped at T <= {DENSE_T_CAP}, got {T}")
    if not isinstance(b, TransitionStat):
        b = TransitionStat(*b)
    return Fiber(T, b, tuple(_enumerate_cells(T, b.as_tuple())))


@dataclass(frozen=True)
class ConnectivityReport:
    """Connected components of a fiber under a move set, as lists of the
    fiber's table indices; ``component_tables`` renders them as
    :func:`fiber_texts` does, on first read."""

    fiber: Fiber
    components: tuple[tuple[int, ...], ...]
    move_set: tuple[str, ...]

    @property
    def T(self) -> int:
        return self.fiber.T

    @property
    def b(self) -> TransitionStat:
        return self.fiber.b

    @cached_property
    def component_tables(self) -> tuple[tuple[str, ...], ...]:
        get = fiber_texts(self.fiber).__getitem__
        return tuple([tuple(map(get, c)) for c in self.components])

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


@dataclass(frozen=True)
class _MoveIndex:
    """A move set as :func:`connectivity` reads it.

    The degree-1 moves join cells into classes, the components of the graph
    they make on the cells.  ``classes`` maps each cell they name to the
    smallest cell of its class, and ``sizes`` counts each class's cells; any
    other cell is a class of its own.  ``by_negative`` holds every move of
    degree >= 2 mapped onto classes: its positive class tuple keyed by its
    negative one, with one sign and no duplicates.  ``degree`` is the
    largest mapped degree and ``move_set`` the set's description.
    """

    classes: dict[int, int]
    sizes: dict[int, int]
    by_negative: dict[Cells, list[Cells]]
    degree: int
    move_set: tuple[str, ...]


def _move_index(moves: Sequence[Move], move_set: tuple[str, ...]) -> _MoveIndex:
    """Index a move set: its classes, and the rest of its moves mapped onto
    them.  A mapped move keeps the classes its two parts share, since the
    move still needs them present; one that maps onto itself is dropped."""
    parts = [
        (
            tuple(encode(p) for p, d in m.deltas if d < 0 for _ in range(-d)),
            tuple(encode(p) for p, d in m.deltas if d > 0 for _ in range(d)),
        )
        for m in moves
    ]
    named = sorted({c for part in parts if len(part[0]) == 1 for c in part[0] + part[1]})
    position = {c: i for i, c in enumerate(named)}
    uf = _UnionFind(len(named))
    for negative, positive in parts:
        if len(negative) == 1:
            uf.union(position[negative[0]], position[positive[0]])
    # Each root is the smallest position of its class, so of its smallest cell.
    classes = {c: named[uf.find(i)] for i, c in enumerate(named)}
    by_negative: dict[Cells, list[Cells]] = {}
    mapped = set()
    for negative, positive in parts:
        if len(negative) > 1:
            pair = tuple(tuple(sorted(classes.get(c, c) for c in part))
                         for part in (negative, positive))
            pair = min(pair, pair[::-1])
            if pair[0] != pair[1] and pair not in mapped:
                mapped.add(pair)
                by_negative.setdefault(pair[0], []).append(pair[1])
    return _MoveIndex(
        classes, Counter(classes.values()), by_negative,
        max(map(len, by_negative), default=0), move_set,
    )


@lru_cache(maxsize=None)
def _family_index(T: int, families: tuple[Family, ...]) -> _MoveIndex:
    return _move_index(enumerate_families(T, families), tuple(f.value for f in families))


def _resolve_moves(
    T: int, move_set: Iterable[Move] | Iterable[Family | str] | None
) -> _MoveIndex:
    """The move index of a move set."""
    items = list(Family if move_set is None else move_set)
    if items and isinstance(items[0], Move):
        for m in items:
            if m.T != T:  # type: ignore[union-attr]
                raise ValueError(f"move has T={m.T}, fiber has T={T}")  # type: ignore[union-attr]
        return _move_index(items, ("custom",))  # type: ignore[arg-type]
    return _family_index(T, tuple(Family(f) for f in items))


_INCOMPLETE = "move led outside the enumerated fiber; enumeration incomplete"


def connectivity(
    fiber: Fiber,
    move_set: Iterable[Move] | Iterable[Family | str] | _MoveIndex | None = None,
) -> ConnectivityReport:
    """Connected components of the fiber graph under a move set.

    Two tables are adjacent when some move in the set carries one to the
    other without any count going negative.  ``move_set`` is a list of
    explicit moves, a selection of families (all six by default, indexed
    once per T and selection), or the index :func:`sweep` builds once for
    all its fibers.

    A degree-1 move swaps one path for another of the same statistic, and
    applies to every table holding the first path.  So the tables with one
    class multiset, the multiset of their cells' classes, are all joined by
    degree-1 moves, and a complete fiber holds every such table:
    ``prod_c C(|c| + k_c - 1, k_c)`` of them, where ``k_c`` counts class
    ``c``.  Any table of a multiset can then hold the negative part of a
    move of degree >= 2 whose classes the multiset holds, so such a move
    joins two multisets exactly when its mapped form carries one to the
    other.  The search therefore runs on the distinct multisets, each a
    sorted tuple of its classes' smallest cells; a multiset's neighbours
    come from looking up its distinct sub-multisets of at most the mapped
    degree, then removing the negative classes, adding the positive ones
    and sorting.  One sign of each move suffices, because its other sign is
    found from the far end.  A multiset short of tables, or a move leading
    to a multiset outside the fiber, raises :class:`AssertionError`; the
    first multiset is always expanded.  Without degree-1 moves each table
    is its own multiset and the search runs on the tables directly.  Each
    table takes its multiset's component, and components are ordered by
    their smallest element; no :class:`PathTable` is built, and the texts
    are rendered when first read.
    """
    index = move_set if isinstance(move_set, _MoveIndex) else _resolve_moves(fiber.T, move_set)
    tables = fiber.cells
    if not tables:
        raise ValueError("connectivity of an empty fiber is undefined")
    classes = index.classes
    if classes:
        # A cell outside every class is a class of its own.
        position: dict[Cells, int] = {}
        group = [
            position.setdefault(tuple(sorted(map(classes.get, t, t))), len(position))
            for t in tables
        ]
        held = Counter(group)
        for multiset, g in position.items():
            expected = 1
            for c in dict.fromkeys(multiset):
                k = multiset.count(c)
                expected *= comb(index.sizes.get(c, 1) + k - 1, k)
            if held[g] != expected:
                raise AssertionError(_INCOMPLETE)
        multisets: Sequence[Cells] = list(position)
    else:
        multisets, group = tables, range(len(tables))
        position = {t: i for i, t in enumerate(tables)}
    by_negative, max_degree = index.by_negative, index.degree
    uf = _UnionFind(len(multisets))
    for i, multiset in enumerate(multisets):
        for size in range(1, min(max_degree, len(multiset)) + 1):
            for negative in dict.fromkeys(combinations(multiset, size)):
                for positive in by_negative.get(negative, ()):
                    y = list(multiset)
                    for c in negative:
                        y.remove(c)
                    y += positive
                    y.sort()
                    j = position.get(tuple(y))
                    if j is None:
                        raise AssertionError(_INCOMPLETE)
                    uf.union(i, j)
        if uf.count == 1:
            break
    groups: dict[int, list[int]] = {}
    for i, g in enumerate(group):
        groups.setdefault(uf.find(g), []).append(i)
    return ConnectivityReport(
        fiber=fiber,
        components=tuple(tuple(groups[r]) for r in sorted(groups)),
        move_set=index.move_set,
    )


def _tables_by_stat(
    T: int, n_max: int
) -> Iterator[dict[tuple[int, int, int, int], list[Cells]]]:
    """For n = 0..n_max, every table of total count n grouped by statistic.

    A table is the sorted tuple of its paths' cell indices, and each group
    lists its tables in ``combinations_with_replacement`` order: descending
    in dense count vectors, the reverse of the canonical fiber order.  Since
    sum(b) = n(T-1), each group is a complete fiber.  The cells are built
    only when n_max >= 1.  Raises :class:`BudgetExceeded` before any
    enumeration when the tables of n <= n_max, C(2**T + n_max, n_max) of
    them, outnumber ``MAX_FIBER_ELEMENTS``.
    """
    tables = comb(2**T + n_max, n_max)
    if tables > MAX_FIBER_ELEMENTS:
        raise BudgetExceeded(
            f"{tables} tables of n <= {n_max} at T={T} exceed the budget "
            f"of {MAX_FIBER_ELEMENTS}", 0, 0
        )
    if T < MIN_T:
        raise ValueError(f"T must be >= {MIN_T}, got {T}")
    stats = _fitting_cells(T, (T - 1,) * 4)[1].tolist() if n_max > 0 else []
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
    move set.  The move set is indexed once, before any enumeration, and
    no fiber builds its ``PathTable`` elements or, until they are read, its
    texts.  Reports come in ascending (total, b) order.
    """
    index = _resolve_moves(T, move_set)
    reports = []
    for groups in _tables_by_stat(T, n_max):
        for b in sorted(groups):
            tables = groups.pop(b)
            stat = TransitionStat(*b)
            if stat_filter is not None and not stat_filter(stat):
                continue
            reports.append(connectivity(Fiber(T, stat, tuple(reversed(tables))), index))
    return reports


def disconnected(reports: Iterable[ConnectivityReport]) -> list[ConnectivityReport]:
    """The reports with more than one component."""
    return [r for r in reports if not r.connected]


def table_text(table: PathTable) -> str:
    """One-line 'path:count' rendering in canonical order, e.g. '111:1 122:2'."""
    return " ".join(f"{path_str(p)}:{c}" for p, c in table.items())


def _path_text(T: int, cell: int) -> str:
    return format(cell, f"0{T}b").replace("1", "2").replace("0", "1")


def fiber_texts(fiber: Fiber) -> list[str]:
    """The fiber's tables in order, each as :func:`table_text` renders it.

    Only the cells present are rendered, each once per fiber from its
    binary digits, as its ``path:1`` token.  A table whose paths are all
    distinct is those tokens joined; only a table with a repeated path
    counts its paths.
    """
    paths = {i: _path_text(fiber.T, i) for i in set().union(*fiber.cells)}
    token = {i: f"{text}:1" for i, text in paths.items()}.__getitem__
    texts = []
    for cells in fiber.cells:
        if len(set(cells)) == len(cells):
            texts.append(" ".join(map(token, cells)))
        else:
            texts.append(
                " ".join([f"{paths[i]}:{cells.count(i)}" for i in dict.fromkeys(cells)])
            )
    return texts
