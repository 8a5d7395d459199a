"""Exhaustive fiber enumeration and connectivity checking under move subsets.

A fiber is the set of all nonnegative integer frequency tables sharing one
transition statistic.  Enumerating small fibers exhaustively and checking
which move families connect them is the desk-scale oracle for the basis
claims: a family set is a Markov basis exactly when every fiber comes out
as a single component.

A table is the sorted tuple of its paths' cell indices (path encodings,
one entry per unit of count), or the same indices as one row of an
(N, n) array.  A sweep enumerates the class multisets of each path count,
a level, as one array (:mod:`thmc._bulk`, imported on first use) and finds
the level's fibers, table counts and components on them, with no table
built.  A swept fiber builds its own tables when they are read, and
``thmc verify-basis --report`` builds each level's tables once.

Connectivity is found on classes of tables, not tables.  A degree-1 move
swaps one path for another of the same statistic, so the tables that
differ only by such swaps, those with one multiset of path classes, are
always connected; the other moves, mapped onto classes, join these
multisets, once the fiber is known to hold every table of each multiset
(Diaconis & Sturmfels (1998), Ann. Statist. 26:363-397, Thm 3.1, for
moves as fiber connectors).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

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
# enumerate_families stays a name of this module: perfbench's tracer wraps it.
from .moves import (  # noqa: F401
    Family,
    Move,
    enumerate_families,
    family_entries,
)

#: Enumeration budgets of :func:`enumerate_fiber`, read at each call; the
#: element budget also caps a :func:`sweep`'s class multisets and the
#: tables :func:`_levels` builds.
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
    built on first use.  ``_rows`` holds the tables as array rows; a fiber
    from :func:`sweep` is made with its class multisets and the cells'
    class ids, and builds ``_rows`` and ``cells`` from them when read.
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

    @cached_property
    def _rows(self) -> np.ndarray:
        from . import _bulk

        return _bulk.tables(self)

    @cached_property
    def _keys(self) -> np.ndarray:
        from . import _bulk

        return _bulk.run_keys(self.T, self._rows)

    @cached_property
    def _tokens(self):
        from . import _bulk

        return _bulk.Tokens(self.T, self._keys)

    def __getattr__(self, name: str):
        # Only a swept fiber lacks cells: build them from its rows.
        if name != "cells" or "_multisets" not in vars(self):
            raise AttributeError(name)
        from . import _bulk

        cells = vars(self)["cells"] = tuple(_bulk.tuples(self._rows))
        return cells

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
    :func:`fiber_texts` does, on first read.  One from :func:`sweep` holds
    each component's table count and each class multiset's root, and
    builds ``components`` when read."""

    fiber: Fiber
    components: tuple[tuple[int, ...], ...]
    move_set: tuple[str, ...]

    def __getattr__(self, name: str):
        # Only a swept report lacks components: build them when read.
        if name != "components" or "_roots" not in vars(self):
            raise AttributeError(name)
        from . import _bulk

        fib = self.fiber
        rows = fib._ids[fib._rows]
        components = vars(self)["components"] = _bulk.components(rows, fib._multisets, self._roots)
        return components

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
        return sum(self.component_sizes)

    @property
    def component_sizes(self) -> tuple[int, ...]:
        return vars(self).get("_sizes") or tuple(map(len, self.components))

    @property
    def n_components(self) -> int:
        return len(self.component_sizes)

    @property
    def connected(self) -> bool:
        return self.n_components <= 1


@dataclass(frozen=True)
class _MoveIndex:
    """A move set as :func:`connectivity` reads it.

    The degree-1 moves join cells into classes, the components of the graph
    they make on the cells.  ``classes`` maps each cell they name to the
    smallest cell of its class, and ``sizes`` counts each class's cells; any
    other cell is a class of its own.  ``by_negative`` holds every move of
    degree >= 2 mapped onto classes: its positive class tuple keyed by its
    negative one, with one sign and no duplicates.  ``move_set`` is the
    set's description.
    """

    classes: dict[int, int]
    sizes: dict[int, int]
    by_negative: dict[Cells, list[Cells]]
    move_set: tuple[str, ...]


#: A move's negative and positive parts, each as the sorted tuple of its
#: paths' cell indices, one entry per unit of count.
Parts = tuple[Cells, Cells]


def _parts(entries: Sequence[tuple[int, int]]) -> Parts:
    """A move's parts from its ``(cell, delta)`` entries in cell order."""
    return (
        tuple(c for c, d in entries if d < 0 for _ in range(-d)),
        tuple(c for c, d in entries if d > 0 for _ in range(d)),
    )


def _move_index(parts: Sequence[Parts], move_set: tuple[str, ...]) -> _MoveIndex:
    """Index a move set, given as its moves' parts: its classes, and the
    rest of its moves mapped onto them.  A mapped move keeps the classes
    its two parts share, since the move still needs them present; one that
    maps onto itself is dropped."""
    from . import _bulk

    named = sorted({c for part in parts if len(part[0]) == 1 for c in part[0] + part[1]})
    position = {c: i for i, c in enumerate(named)}
    pairs = np.array(
        [(position[n[0]], position[p[0]]) for n, p in parts if len(n) == 1], dtype=np.intp
    ).reshape(-1, 2)
    label = np.arange(len(named))
    _bulk.join(label, pairs[:, 0], pairs[:, 1])
    # Each root is the smallest position of its class, so of its smallest cell.
    classes = dict(zip(named, [named[r] for r in label.tolist()]))
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
    return _MoveIndex(classes, Counter(classes.values()), by_negative, move_set)


@lru_cache(maxsize=None)
def _family_index(T: int, families: tuple[Family, ...]) -> _MoveIndex:
    """The index of a family selection.  One with type I moves is built on
    points (:func:`thmc._points.index`, capped at ``POINT_INDEX_T_CAP``);
    any other from the families' canonical ``(code, delta)`` entries, where
    a path's code is its cell index, capped as :func:`family_entries` is."""
    move_set = tuple(f.value for f in families)
    if Family.TYPE1_DEG1 in families:
        from . import _points

        return _MoveIndex(*_points.index(T, families), move_set)
    return _move_index(
        [_parts(entries) for f in families for entries in family_entries(T, f)], move_set
    )


def _resolve_moves(
    T: int, move_set: Iterable[Move] | Iterable[Family | str] | None
) -> _MoveIndex:
    """The move index of a move set."""
    items = list(Family if move_set is None else move_set)
    if items and isinstance(items[0], Move):
        for m in items:
            if m.T != T:  # type: ignore[union-attr]
                raise ValueError(f"move has T={m.T}, fiber has T={T}")  # type: ignore[union-attr]
        parts = [
            _parts([(encode(p), d) for p, d in m.deltas])  # type: ignore[union-attr]
            for m in items
        ]
        return _move_index(parts, ("custom",))
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
    once per T and selection), or a move index.

    A degree-1 move swaps one path for another of the same statistic, and
    applies to every table holding the first path.  So the tables with one
    class multiset, the multiset of their cells' classes, are all joined by
    degree-1 moves, and a complete fiber holds every such table:
    ``prod_c C(|c| + k_c - 1, k_c)`` of them, where ``k_c`` counts class
    ``c``.  A move of degree >= 2 then joins two multisets exactly when its
    mapped form carries one to the other.  The fiber's multisets are its
    tables' distinct ones, searched by the kernel of a sweep
    (:func:`thmc._bulk.fiber_group`).  A multiset short of tables, or a
    move leading outside the fiber, raises :class:`AssertionError`.
    Components are ordered by their smallest table.
    """
    from . import _bulk

    index = move_set if isinstance(move_set, _MoveIndex) else _resolve_moves(fiber.T, move_set)
    if not len(fiber._rows):
        raise ValueError("connectivity of an empty fiber is undefined")
    ids, multisets, roots = _bulk.fiber_group(fiber._rows, index)
    if roots is None:
        raise AssertionError(_INCOMPLETE)
    return ConnectivityReport(fiber, _bulk.components(ids, multisets, roots), index.move_set)


#: Table counts :func:`_levels` names in full when it refuses a sweep;
#: past this one it says "more than" it.
_COUNT_SHOWN = 10**18


def _check_count(T: int, n_max: int, items: int, what: str) -> None:
    """Raise :class:`BudgetExceeded` when the multisets of n <= n_max of
    ``items`` things, C(items + n_max, n_max), outnumber
    ``MAX_FIBER_ELEMENTS``.  The count is a running product that stops
    past ``_COUNT_SHOWN``, so a huge n_max costs a few hundred steps."""
    if T < MIN_T:
        raise ValueError(f"T must be >= {MIN_T}, got {T}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    count = j = 1
    while j <= n_max and count <= _COUNT_SHOWN:
        count = count * (items + j) // j
        j += 1
    if count > MAX_FIBER_ELEMENTS:
        shown = count if count <= _COUNT_SHOWN else f"more than {_COUNT_SHOWN:.0e}"
        raise BudgetExceeded(
            f"{shown} {what} of n <= {n_max} at T={T} exceed the budget "
            f"of {MAX_FIBER_ELEMENTS}", 0, 0
        )


def _levels(T: int, n_max: int):
    """:func:`thmc._bulk.levels` over all 2**T cells: for n = 0..n_max, the
    tables of total count n, in complete fibers since sum(b) = n(T-1).
    The cells are built only when n_max >= 1, and only once the tables of
    n <= n_max pass :func:`_check_count`."""
    _check_count(T, n_max, 1 << T, "tables")
    from . import _bulk

    stats = _fitting_cells(T, (T - 1,) * 4)[1] if n_max > 0 else np.zeros((0, 4), np.int64)
    return _bulk.levels(T, n_max, stats)


def realizable_stats(T: int, n_max: int) -> list[TransitionStat]:
    """Every transition statistic realized by a table with total count <= n_max."""
    return [TransitionStat(*b) for _, _, stats in _levels(T, n_max) for b in stats]


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
    fibers with b11 = 0).  The move set is indexed once, and then the
    budget counts its class multisets.  Those of each total count are
    enumerated, all of them, and split into fibers and components in one
    array pass (:func:`thmc._bulk.sweep`), so a report with more than one
    component is a certified disconnection under the move set.  Sizes come
    from table counts, and no table is built until read.  Reports come in
    ascending (total, b) order.
    """
    index = _resolve_moves(T, move_set)
    _check_count(T, n_max, (1 << T) - len(index.classes) + len(index.sizes), "class multisets")
    from . import _bulk

    stats = _fitting_cells(T, (T - 1,) * 4)[1] if n_max else np.zeros((0, 4), np.int64)
    ids, levels = _bulk.sweep(T, n_max, stats, index)
    reports = []
    for n, level in enumerate(levels):
        tokens = _bulk.Tokens.level(T, n)
        for stat, multisets, sizes, roots in level:
            stat = TransitionStat(*stat)
            if stat_filter is not None and not stat_filter(stat):
                continue
            fib, report = Fiber.__new__(Fiber), ConnectivityReport.__new__(ConnectivityReport)
            vars(fib).update(T=T, b=stat, _multisets=multisets, _ids=ids, _tokens=tokens)
            vars(report).update(fiber=fib, move_set=index.move_set, _sizes=sizes, _roots=roots)
            reports.append(report)
    return reports


def disconnected(reports: Iterable[ConnectivityReport]) -> list[ConnectivityReport]:
    """The reports with more than one component."""
    return [r for r in reports if not r.connected]


def table_text(table: PathTable) -> str:
    """One-line 'path:count' rendering in canonical order, e.g. '111:1 122:2'."""
    return " ".join(f"{path_str(p)}:{c}" for p, c in table.items())


def fiber_texts(fiber: Fiber) -> list[str]:
    """The fiber's tables in order, each as :func:`table_text` renders it,
    all at once: their :func:`thmc._bulk.run_keys` looked up among the
    tokens of their level, for a swept fiber, or of their own."""
    if not len(fiber._rows):
        return []
    return fiber._tokens.texts(fiber._keys)
