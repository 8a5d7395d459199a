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
built.  A swept fiber and its report hold those multisets, counts and
components' roots, and build their tables when read;
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
    _check_enumeration_T,
    _draws,
    enumerate_families,
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


class Fiber:
    """All tables with a given transition statistic, canonically ordered.

    ``cells[i]`` holds table ``i`` as the sorted tuple of its paths' cell
    indices; ``elements[i]`` is the same table as a :class:`PathTable`, and
    ``_rows`` all tables as array rows, each built on first use.  A fiber
    from :func:`sweep` holds its class ``multisets`` and each cell's class
    ``ids`` in place of its cells, and builds ``_rows`` from them, then
    ``cells``, when read.  ``repr`` shows T and b, so it builds nothing,
    and fibers compare by identity.
    """

    def __init__(
        self, T: int, b: TransitionStat, cells: tuple[Cells, ...] | None = None,
        multisets: np.ndarray | None = None, ids: np.ndarray | None = None,
    ) -> None:
        if (cells is None) == (multisets is None):
            raise TypeError("a fiber takes either its cells or its class multisets")
        self.T, self.b = T, b
        self._multisets, self._ids = multisets, ids
        if cells is not None:
            # Held in place of the cached property's value.
            self.cells = cells

    def __repr__(self) -> str:
        return f"Fiber(T={self.T}, b={self.b!r})"

    @cached_property
    def cells(self) -> tuple[Cells, ...]:
        from . import _bulk

        return tuple(_bulk.tuples(self._rows))

    @cached_property
    def elements(self) -> tuple[PathTable, ...]:
        return tuple(
            PathTable(self.T, {decode(i, self.T): c.count(i) for i in dict.fromkeys(c)})
            for c in self.cells
        )

    @cached_property
    def _rows(self) -> np.ndarray:
        from . import _bulk

        if self._multisets is None:
            return np.array(self.cells, dtype=np.min_scalar_type((1 << self.T) - 1))
        return _bulk.tables(self._multisets, self._ids)

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


class ConnectivityReport:
    """Connected components of a fiber under a move set, as tuples of the
    fiber's table indices; ``component_tables`` renders them as
    :func:`fiber_texts` does, on first read.  One from :func:`sweep` holds
    each component's table count, ``sizes``, and each class multiset's
    root, ``roots``, in place of ``components``, and builds them when read.
    ``repr`` shows the fiber and move set, so it builds nothing, and
    reports compare by identity.
    """

    def __init__(
        self, fiber: Fiber, components: tuple[tuple[int, ...], ...] | None,
        move_set: tuple[str, ...], sizes: tuple[int, ...] | None = None,
        roots: np.ndarray | None = None,
    ) -> None:
        if (components is None) == (roots is None):
            raise TypeError("a report takes either its components or its roots")
        self.fiber, self.move_set, self._roots = fiber, move_set, roots
        self.T, self.b = fiber.T, fiber.b
        # Each given value is held in place of its cached property's.
        if components is not None:
            self.components = components
        if sizes is not None:
            self.component_sizes = sizes

    def __repr__(self) -> str:
        return f"ConnectivityReport(fiber={self.fiber!r}, move_set={self.move_set!r})"

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        from . import _bulk

        fib = self.fiber
        return _bulk.components(fib._ids[fib._rows], fib._multisets, self._roots)

    @cached_property
    def component_tables(self) -> tuple[tuple[str, ...], ...]:
        get = fiber_texts(self.fiber).__getitem__
        return tuple([tuple(map(get, c)) for c in self.components])

    @property
    def fiber_size(self) -> int:
        return sum(self.component_sizes)

    @cached_property
    def component_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.components))

    @property
    def n_components(self) -> int:
        return len(self.component_sizes)

    @property
    def connected(self) -> bool:
        return self.n_components <= 1


@dataclass(frozen=True, eq=False)
class _MoveIndex:
    """A move set on paths of length ``T`` as :func:`connectivity` reads it,
    in arrays, as both :func:`_move_index`, from the decoder's arrays, and
    :func:`thmc._points.index`, on points, build it.

    The degree-1 moves join cells into classes, the components of the graph
    they make on the cells.  ``cells`` holds the cells they name, ascending,
    and ``reps`` the smallest cell of each one's class; any other cell is a
    class of its own.  ``moves`` holds the other moves mapped onto classes,
    one ``(m, 2d)`` int64 array for each degree d >= 2 that has any, by
    degree, each row a move's negative then positive half in the form of
    :func:`_canonical`.  ``move_set`` is the set's description.
    """

    T: int
    cells: np.ndarray
    reps: np.ndarray
    moves: tuple[np.ndarray, ...]
    move_set: tuple[str, ...]

    @cached_property
    def maps(self) -> tuple[tuple[int, ...], ...]:
        """The state swap and time reversal maps the index is invariant
        under (:func:`thmc._orbits.symmetries`), found on first read."""
        from . import _orbits

        return _orbits.symmetries(self)


def _canonical(rows: np.ndarray) -> np.ndarray:
    """Moves of one degree d mapped onto classes, given as ``(m, 2d)`` rows
    of their negative then positive parts' smallest cells, in the form
    :class:`_MoveIndex` keeps: each half sorted, the smaller half first, no
    row that maps onto itself, and the rows distinct and ascending.  A
    mapped move keeps the classes its two halves share, since the move
    still needs them present."""
    m, width = rows.shape
    halves = rows.reshape(m, 2, width // 2)
    halves.sort(axis=2)
    differ = halves[:, 0] != halves[:, 1]
    first, at = differ.argmax(axis=1), np.arange(m)
    flip = halves[at, 1, first] < halves[at, 0, first]
    halves[flip] = halves[flip, ::-1]
    rows = halves[differ.any(axis=1)].reshape(-1, width)
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def _move_index(T: int, chunks: Iterable[tuple], move_set: tuple[str, ...]) -> _MoveIndex:
    """Index a move set on paths of length T, given as chunks ``(codes,
    deltas, starts)`` of its moves in the flat form of
    :meth:`thmc._decode.Decoder.merged`, a code being a cell index: its
    classes, and the rest of its moves mapped onto them, a degree at a
    time.  Each chunk's rows by degree (:func:`thmc._decode.split`) are
    made distinct as they come."""
    from . import _bulk
    from ._decode import split

    rows = {1: [np.zeros((0, 2), np.int64)]}
    for chunk in chunks:
        for d, part in split(*chunk).items():
            rows.setdefault(d, []).append(_canonical(part))
    swaps = np.concatenate(rows.pop(1))
    cells = _bulk._distinct(swaps)
    label = np.arange(len(cells))
    at = np.searchsorted(cells, swaps)
    _bulk.join(label, at[:, 0], at[:, 1])
    # Each root is the smallest position of its class, so of its smallest cell.
    reps = cells[label]
    moves = []
    for d in sorted(rows):
        mapped = _canonical(_bulk.rep_of(cells, reps, np.concatenate(rows[d])))
        if len(mapped):
            moves.append(mapped)
    return _MoveIndex(T, cells, reps, tuple(moves), move_set)


@lru_cache(maxsize=None)
def _family_index(T: int, families: tuple[Family, ...]) -> _MoveIndex:
    """The index of a family selection.  One with type I moves is built on
    points (:func:`thmc._points.index`, capped at ``POINT_INDEX_T_CAP``);
    any other from the decoder's arrays of every draw of its families
    (:func:`thmc.moves._draws`), capped at ``ENUMERATION_T_CAP`` once a
    family's draws are read, so an empty selection is not capped."""
    move_set = tuple(f.value for f in families)
    if Family.TYPE1_DEG1 in families:
        from . import _points

        return _MoveIndex(T, *_points.index(T, families), move_set)
    if families:
        _check_enumeration_T(T)
    return _move_index(T, (c for f in families for _, _, *c in _draws(T, f)), move_set)


def _resolve_moves(
    T: int, move_set: Iterable[Move] | Iterable[Family | str] | None
) -> _MoveIndex:
    """The move index of a move set."""
    items = list(Family if move_set is None else move_set)
    explicit = {isinstance(m, Move) for m in items}
    if isinstance(move_set, str) or len(explicit) > 1:
        raise TypeError("a move set is either Moves or family tokens")
    if True not in explicit:
        return _family_index(T, tuple(Family(f) for f in items))
    for m in items:
        if m.T != T:
            raise ValueError(f"move has T={m.T}, fiber has T={T}")
    codes, deltas = np.array([(encode(p), d) for m in items for p, d in m.deltas]).T
    starts = np.cumsum([0] + [len(m.deltas) for m in items[:-1]])
    return _move_index(T, [(codes, deltas, starts)], ("custom",))


_INCOMPLETE = "move led outside the enumerated fiber; enumeration incomplete"


def connectivity(
    fiber: Fiber, move_set: Iterable[Move] | Iterable[Family | str] | None = None
) -> ConnectivityReport:
    """Connected components of the fiber graph under a move set.

    Two tables are adjacent when some move in the set carries one to the
    other without any count going negative.  ``move_set`` is a list of
    explicit moves or of family tokens, not both and not a bare token (all
    six families by default, indexed once per T and selection).

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

    index = _resolve_moves(fiber.T, move_set)
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
    enumerated, all of them, and split into fibers and components by array
    searches (:func:`thmc._bulk.sweep`), so a report with more than one
    component is a certified disconnection under the move set.  Sizes come
    from table counts, and no table is built until read (see
    :class:`Fiber`).  Reports come in ascending (total, b) order.

    The search runs on one fiber per orbit of the symmetries the index is
    invariant under, ``_MoveIndex.maps`` (:func:`thmc._orbits.roots`).
    """
    index = _resolve_moves(T, move_set)
    # The cells no degree-1 move names, and one class per smallest cell.
    classes = (1 << T) - len(index.cells) + int(np.count_nonzero(index.reps == index.cells))
    _check_count(T, n_max, classes, "class multisets")
    from . import _bulk

    stats = _fitting_cells(T, (T - 1,) * 4)[1] if n_max else np.zeros((0, 4), np.int64)
    ids, levels = _bulk.sweep(n_max, stats, index)
    reports = []
    for level in levels:
        for stat, multisets, sizes, roots in level:
            stat = TransitionStat(*stat)
            if stat_filter is None or stat_filter(stat):
                fib = Fiber(T, stat, multisets=multisets, ids=ids)
                reports.append(ConnectivityReport(fib, None, index.move_set, sizes, roots))
    return reports


def disconnected(reports: Iterable[ConnectivityReport]) -> list[ConnectivityReport]:
    """The reports with more than one component."""
    return [r for r in reports if not r.connected]


def table_text(table: PathTable) -> str:
    """One-line 'path:count' rendering in canonical order, e.g. '111:1 122:2'."""
    return " ".join(f"{path_str(p)}:{c}" for p, c in table.items())


def fiber_texts(fiber: Fiber) -> list[str]:
    """The fiber's tables in order, each as :func:`table_text` renders it,
    all at once: their :func:`thmc._bulk.run_keys` looked up among their
    own tokens, built on each call."""
    if not len(fiber._rows):
        return []
    from . import _bulk

    keys = _bulk.run_keys(fiber.T, fiber._rows)
    return _bulk.Tokens(fiber.T, keys).texts(keys)
