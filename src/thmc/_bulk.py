"""Array kernels of the fiber layer: the tables, or class multisets, of one
path count, a level, at once.

A level is an (N, n) array, one row per table holding its paths' cells in
ascending order (the sorted tuples of :mod:`thmc.fiber`), or per multiset
its classes.  :func:`levels` builds every row of each count and orders the
rows into fibers; :func:`sweep` finds each fiber's components and table
counts on its class multisets, searching one fiber per symmetry orbit
(:mod:`thmc._orbits`) with a :func:`search` or two per level, and
:func:`tables` builds a swept fiber's tables from its multisets when read.
:class:`Tokens` renders the ``path:count`` tokens of some tables once, so a
run of table keys takes one gather; :mod:`thmc._report` joins a level's
into a report's JSON.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

#: The tables, or class multisets, of one path count as rows in canonical
#: order, the first row of each fiber, and the fibers' statistics.
Level = tuple[np.ndarray, np.ndarray, list[tuple[int, ...]]]


def levels(T: int, n_max: int, stats: np.ndarray) -> Iterator[Level]:
    """For n = 0..n_max, every table of n paths over the cells (or classes)
    whose statistics are the rows of ``stats``, in canonical order: by
    statistic, then by descending cell tuple; with the first row of each
    fiber and the fibers' statistics.  A table's statistic is one key: the
    sum of its cells' statistics in base ``n_max * (T-1) + 1``, which no
    coordinate of a statistic reaches, so keys sort as statistics.
    """
    base = n_max * (T - 1) + 1
    weights = base ** np.arange(3, -1, -1, dtype=np.int64)
    cell_key = (stats * weights).sum(axis=1).astype(np.min_scalar_type(base**4))
    rows = np.zeros((1, 0), dtype=np.min_scalar_type(max(len(stats) - 1, 0)))
    keys = np.zeros(1, dtype=cell_key.dtype)
    for n in range(n_max + 1):
        if n:
            rows, keys = _extend(rows, keys, cell_key)
        yield _fibers(rows, keys, weights, base)


def _fibers(rows: np.ndarray, keys: np.ndarray, weights: np.ndarray, base: int) -> Level:
    """The tables in canonical order, the first row of each fiber and the
    fibers' statistics.  The tables come in ascending cell tuple order, so
    a stable sort of the reversed keys, read backwards, puts them in
    descending order within each statistic."""
    order = np.argsort(keys[::-1], kind="stable")
    np.subtract(len(order) - 1, order, out=order)
    ordered = keys[order]
    starts = _heads(ordered)
    fiber_stats = (ordered[starts, None].astype(np.int64) // weights) % base
    return rows[order], starts, tuples(fiber_stats)


def _extend(
    rows: np.ndarray, keys: np.ndarray, cell_key: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The tables of one more path, with their keys: each table followed
    by each cell from its last one on, which keeps the tables in
    ``combinations_with_replacement`` order."""
    low = rows[:, -1].astype(np.intp) if rows.shape[1] else np.zeros(1, np.intp)
    fan = len(cell_key) - low
    new = _ranges(low, fan)
    rows = np.concatenate([np.repeat(rows, fan, axis=0), new[:, None].astype(rows.dtype)], 1)
    return rows, np.repeat(keys, fan) + cell_key[new]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending; ``np.unique`` would import
    ``numpy.ma``, about 1.6 MiB."""
    values = np.sort(values, axis=None)
    return values[_heads(values)]


def _heads(keys: np.ndarray) -> np.ndarray:
    """The index of the first of each value of the sorted ``keys``."""
    head = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return np.flatnonzero(head)


def _ranges(low: np.ndarray, fan: np.ndarray) -> np.ndarray:
    """The ranges ``low[i] .. low[i] + fan[i] - 1``, concatenated."""
    out = np.repeat(low - (np.cumsum(fan) - fan), fan)
    out += np.arange(len(out))
    return out


def rep_of(cells: np.ndarray, reps: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The smallest cell of the class of each of ``x``: ``reps[i]`` for
    ``cells[i]``, ascending, and itself for any other cell."""
    at = np.searchsorted(cells, x)
    return np.where(np.append(cells, -1)[at] == x, np.append(reps, -1)[at], x)


def classes(cells: np.ndarray, index) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The class id of each of the ascending ``cells`` under a
    :class:`thmc.fiber._MoveIndex`, with each class's size and smallest
    cell, all found by searches in the index's ``cells`` and ``reps``.

    Ids number the classes by smallest cell, so they sort as those cells
    do; their dtype also holds the id ``len(reps)``, which :func:`mapped`
    gives a class none of ``cells`` belongs to.
    """
    rep = rep_of(index.cells, index.reps, cells)
    reps = _distinct(rep)
    ids = np.searchsorted(reps, rep).astype(np.min_scalar_type(len(reps)))
    named = np.sort(index.reps)
    size = np.searchsorted(named, reps, "right") - np.searchsorted(named, reps)
    return ids, np.maximum(size, 1), reps


#: The mapped moves of one degree in class ids: the sorted keys of their
#: distinct negative parts, the bounds of each one's positive parts, and
#: those parts as rows of class ids.
Mapped = tuple[np.ndarray, np.ndarray, np.ndarray]


def mapped(moves: Sequence[np.ndarray], reps: np.ndarray) -> dict[int, Mapped]:
    """The mapped moves of a move index, ``moves``, in the class ids of
    :func:`classes`, by degree: one search of each degree's rows among the
    smallest cells ``reps``.

    A negative part holding a class none of ``reps`` stands for is left
    out, since no table holds it; a positive class of that kind gets the
    id ``len(reps)``, so a move that adds it leads out of the tables.  Ids
    keep the order of smallest cells, so the negative parts kept come
    sorted, and their :func:`_keys` too.
    """
    out = {}
    for rows in moves:
        d = rows.shape[1] // 2
        at = np.searchsorted(reps, rows)
        ids = np.where(np.append(reps, -1)[at] == rows, at, len(reps))
        ids = ids[(ids[:, :d] < len(reps)).all(axis=1)].astype(np.min_scalar_type(len(reps)))
        if len(ids):
            keys = _keys(ids[:, :d], len(reps) + 1)
            start = _heads(keys)
            out[d] = keys[start], np.append(start, len(keys)), ids[:, d:]
    return out


def _keys(rows: np.ndarray, base: int) -> np.ndarray:
    """Each row of class ids below ``base`` as one key, so sorted rows sort
    as their keys do: its digits in that base as an int64 where one holds
    them, and otherwise, as only a fiber of very many paths needs, the
    row's digits as big-endian bytes, which sort as the integer would."""
    width = rows.shape[1]
    if base**width <= np.iinfo(np.int64).max:
        return rows @ base ** np.arange(width - 1, -1, -1, dtype=np.int64)
    digits = np.ascontiguousarray(rows, dtype=np.min_scalar_type(base - 1).newbyteorder(">"))
    return digits.view(f"S{digits.itemsize * width}").reshape(-1)


def join(label: np.ndarray, i: np.ndarray, j: np.ndarray) -> None:
    """Join the components of each pair ``i[k]``, ``j[k]`` in the forest
    ``label``, where each index points at a smaller one or at itself, a
    root, and leave every index pointing at its root.

    Min-label propagation with pointer jumping: each round points every
    index at its root, then hooks the larger root of each pair still split
    under the smaller, so each root stays its component's smallest index.
    """
    while True:
        while True:
            up = label[label]
            if (up == label).all():
                break
            label[:] = up
        a, b = label[i], label[j]
        split = a != b
        if not split.any():
            return
        i, j, a, b = i[split], j[split], a[split], b[split]
        label[np.maximum(a, b)] = np.minimum(a, b)


def search(
    multisets: np.ndarray, moves: dict[int, Mapped], base: int
) -> tuple[np.ndarray, np.ndarray]:
    """The components of the class multisets of a level under the mapped
    moves of :func:`mapped`.

    ``multisets`` holds the distinct multisets as sorted rows of class ids
    below ``base - 1``.  Returns each multiset's label, the smallest index
    of its component, and the multisets a move leads out of, whose
    neighbour is not among them.

    For each mapped degree d and d-subset of columns, one ``searchsorted``
    of the rows' keys among the negative parts' finds the rows holding a
    negative part; such a row's neighbour, with the negative classes
    replaced by the positive ones and sorted, is looked up among the
    level's keys.  Only the leftmost columns holding a sub-multiset probe
    it, and copies of a class past the largest degree are left out, so a
    row of many copies of one class probes each sub-multiset once.  One
    sign of each move suffices, as the other is found from the far end.
    Each column subset's edges are joined (:func:`join`) before the next.
    """
    count, n = multisets.shape
    label = np.arange(count)
    escaped = [np.zeros(0, np.intp)]
    moves = {d: m for d, m in moves.items() if d <= n}
    if moves:
        keys = _keys(multisets, base)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        # A sub-multiset of at most top classes holds no class more than
        # top times, so a row's copies of a class past the top-th are left
        # out of the columns its parts are drawn from.
        top = max(moves)
        kept = np.ones(multisets.shape, dtype=bool)
        kept[:, top:] = multisets[:, top:] != multisets[:, :-top]
        width = int(kept.sum(axis=1).max())
        # The kept columns of each row, in order, then the rest as padding
        # with the id base - 1, which no negative part holds.
        cols = np.argsort(~kept, axis=1, kind="stable")[:, :width]
        pool = np.take_along_axis(multisets, cols, axis=1)
        pool[~np.take_along_axis(kept, cols, axis=1)] = base - 1
        del kept
        for d, (negatives, bounds, positives) in moves.items():
            for part in map(list, combinations(range(width), d)):
                sub = _keys(pool[:, part], base)
                at = np.searchsorted(negatives, sub)
                np.minimum(at, len(negatives) - 1, out=at)
                hit = negatives[at] == sub
                for c in part:
                    if c and c - 1 not in part:
                        hit &= pool[:, c - 1] != pool[:, c]
                rows = np.flatnonzero(hit)
                if not len(rows):
                    continue
                k = at[rows]
                fan = bounds[k + 1] - bounds[k]
                rows = np.repeat(rows, fan)
                near = multisets[rows]
                taken = cols[rows][:, part]
                near[np.arange(len(rows))[:, None], taken] = positives[_ranges(bounds[k], fan)]
                near.sort(axis=1)
                near = _keys(near, base)
                at = np.searchsorted(keys, near)
                np.minimum(at, count - 1, out=at)
                found = keys[at] == near
                escaped.append(rows[~found])
                join(label, rows[found], order[at[found]])
    return label, np.concatenate(escaped)


def counts(multisets: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The table count of each class multiset, ``prod_c C(|c| + k_c - 1,
    k_c)`` for class ``c`` of ``size[c]`` cells held ``k_c`` times, one
    factor ``(|c| + r - 1) / r`` per copy.  Each partial product is whole,
    and at most n times all tables of n paths: int64 where that fits.  A
    class of one cell gives factors of 1 whatever its ``run``, so only the
    columns where some class has more cells are read; a larger class in a
    column after one not read starts its run there."""
    count, n = multisets.shape
    cells = int(size.sum())
    fits = math.comb(cells + n, n) * (cells + n) < 2**63
    out = np.ones(count, dtype=np.int64 if fits else object)
    run = np.ones(count, dtype=np.int64)
    for j in np.flatnonzero(np.take(size > 1, multisets.T).any(axis=1)):
        if j:
            run = np.where(multisets[:, j] == multisets[:, j - 1], run + 1, 1)
        out = out * (size[multisets[:, j]] + run - 1) // run
    return out


def sweep(n_max: int, stats: np.ndarray, index) -> tuple[np.ndarray, Iterator]:
    """The class id of each cell with statistics ``stats`` under a
    :class:`thmc.fiber._MoveIndex` (:func:`classes`, with its moves in
    those ids by :func:`mapped`), and for n = 0..n_max, in ascending
    statistic order, the fibers of n paths: each one's statistic, class
    multisets as sorted rows, each component's table count (:func:`counts`)
    and each multiset's root (:func:`search`).  A level holds every
    multiset, so no move leads out of it.  A multiset's
    first table holds its classes' largest cells, so :func:`levels` over the
    classes ordered by largest cell gives the multisets in that order.

    The search runs on one fiber per orbit of the symmetries the index is
    invariant under, ``index.maps`` (:func:`thmc._orbits.roots`)."""
    from ._orbits import roots
    ids, size, reps = classes(np.arange(len(stats)), index)
    moves = mapped(index.moves, reps)
    top = np.zeros(len(size), np.intp)
    np.maximum.at(top, ids, np.arange(len(ids)))
    by_top = np.argsort(top).astype(ids.dtype)

    def fibers(rows, starts, fiber_stats):
        multisets = by_top[rows]
        multisets.sort(axis=1)
        bounds = [*starts.tolist(), len(rows)]
        label, local = roots(multisets, bounds, fiber_stats, index.maps, moves, len(size) + 1)
        tables = counts(multisets, size)
        held = np.zeros_like(tables)
        np.add.at(held, label, tables)
        root = np.flatnonzero(label == np.arange(len(label)))
        cuts, sizes = np.searchsorted(root, bounds).tolist(), held[root].tolist()
        return [(stat, multisets[a:b], tuple(sizes[i:j]), local[a:b])
                for stat, a, b, i, j in zip(fiber_stats, bounds, bounds[1:], cuts, cuts[1:])]

    return ids, (fibers(*level) for level in levels(index.T, n_max, stats[np.sort(top)]))


def tables(multisets: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """A swept fiber's tables as rows, in canonical order, from its class
    multisets and each cell's class id: for a class held k times, each
    column takes its cells from the one the column before took."""
    count, n = multisets.shape
    members = np.argsort(ids, kind="stable").astype(np.min_scalar_type(max(len(ids) - 1, 0)))
    bounds = np.append(0, np.cumsum(np.bincount(ids)))
    at, of = np.zeros((count, 0), np.intp), np.arange(count)
    for j in range(n):
        c = multisets[of, j].astype(np.intp)
        low = bounds[c]
        if j:
            same = c == multisets[of, j - 1]
            low[same] = at[same, -1]
        fan = bounds[c + 1] - low
        at = np.concatenate([np.repeat(at, fan, axis=0), _ranges(low, fan)[:, None]], axis=1)
        of = np.repeat(of, fan)
    rows = members[at]
    rows.sort(axis=1)
    return rows[np.lexsort(rows.T[::-1])[::-1]] if n else rows


def fiber_group(rows: np.ndarray, index) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """One fiber's tables as sorted rows of class ids under a
    :class:`thmc.fiber._MoveIndex`, the classes of its cells alone
    (:func:`classes`, with the index's moves in their ids by
    :func:`mapped`), their distinct class multisets in the
    order of their first tables, and each multiset's root (:func:`search`),
    or None when a move leads out or a multiset is short (:func:`counts`)."""
    cells = _distinct(rows)
    ids, size, reps = classes(cells, index)
    ids = ids[np.searchsorted(cells, rows)]
    ids.sort(axis=1)
    keys = _keys(ids, len(reps) + 1)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    start = _heads(keys)
    by_first = np.argsort(order[start])
    multisets = ids[order[start[by_first]]]
    held = np.diff(np.append(start, len(keys)))[by_first]
    label, escaped = search(multisets, mapped(index.moves, reps), len(reps) + 1)
    complete = not len(escaped) and (held == counts(multisets, size)).all()
    return ids, multisets, label if complete else None


def components(rows: np.ndarray, multisets: np.ndarray, roots: np.ndarray) -> tuple:
    """The components of a fiber's tables, rows of class ids (sorted here),
    given its class multisets and each one's root, the first multiset of
    its component.  Each table is found among the multisets and grouped by
    its root, so the components come ordered by their first tables."""
    rows.sort(axis=1)
    base = int(multisets.max(initial=0)) + 1
    keys = _keys(multisets, base)
    order = np.argsort(keys, kind="stable")
    root = roots[order[np.searchsorted(keys[order], _keys(rows, base))]]
    tables = np.argsort(root, kind="stable")
    cuts = np.flatnonzero(np.diff(root[tables])) + 1
    return tuple(tuple(t.tolist()) for t in np.split(tables, cuts))


def tuples(rows: np.ndarray) -> list[tuple[int, ...]]:
    """The rows of a 2-d array as tuples, built column by column."""
    return list(zip(*rows.T.tolist())) if rows.shape[1] else [()] * len(rows)


def cell_texts(T: int, cells: np.ndarray) -> list[str]:
    """The path text of each cell, e.g. '1121', from its T binary digits."""
    shifts = np.arange(T - 1, -1, -1, dtype=np.int64)
    digits = (cells.astype(np.int64)[:, None] >> shifts) & 1
    text = (digits + ord("1")).astype(np.uint8).tobytes().decode("ascii")
    return [text[i:i + T] for i in range(0, len(text), T)]


#: Table cells :func:`run_keys` reads at once; bounds its temporaries.
_RUN_CHUNK = 1 << 14


def run_keys(T: int, rows: np.ndarray) -> np.ndarray:
    """The ``path:count`` tokens of each table as integer keys, in the
    shape of ``rows``.

    A run of k equal cells c has key (c * (n + 1) + k) * 2 + e at its first
    position, where e is 1 when the run ends its table, and every other
    position has key 0.  The rows are read flat, a chunk of whole tables at
    a time: a run starts where a table begins or the cell changes.  Only
    the keys span all the tables, so a table of a million copies of one
    path takes one key's temporaries.
    """
    count, n = rows.shape
    keys = np.zeros(rows.shape, dtype=np.min_scalar_type(((1 << T) - 1) * (2 * n + 2) + 2 * n + 1))
    flat, out = rows.reshape(-1), keys.reshape(-1)
    step = max(_RUN_CHUNK // n, 1) * n if n else 1
    for lo in range(0, flat.size, step):
        cells = flat[lo:lo + step]
        head = np.empty(len(cells), dtype=bool)
        np.not_equal(cells[1:], cells[:-1], out=head[1:])
        head[::n] = True
        start = np.flatnonzero(head)
        del head
        stop = np.append(start[1:], len(cells))
        key = cells[start].astype(keys.dtype)
        key *= n + 1
        key += (stop - start).astype(keys.dtype)
        key *= 2
        key += stop % n == 0
        out[lo + start] = key
    return keys


class Tokens:
    """The ``path:count`` token of each distinct nonzero :func:`run_keys`
    key of some tables, rendered on first read: the report writer makes
    one per level, shared by its fibers, and :func:`thmc.fiber.fiber_texts`
    one per call.

    Each cell present is rendered once, from its binary digits, and the
    tokens followed by each line end asked for are kept in an object
    array, so a run of keys takes one gather.  A key's place in it comes
    from an index by key where the largest key is below the tables' cell
    count, and from a search otherwise, as for a table of a million copies
    of one path, whose one key is two million.
    """

    def __init__(self, T: int, keys: np.ndarray) -> None:
        self.T = T
        self._keys = keys
        self._words: dict[str, np.ndarray] = {}

    @cached_property
    def _table(self) -> tuple[np.ndarray, list[str], np.ndarray | None]:
        keys = self._keys
        del self._keys
        n = keys.shape[1]
        distinct = _distinct(keys[keys != 0])
        width = 2 * n + 2
        cells = _distinct(distinct // width)
        paths = dict(zip(cells.tolist(), cell_texts(self.T, cells)))
        tokens = [f"{paths[k // width]}:{k // 2 % (n + 1)}" for k in distinct.tolist()]
        index = None
        if len(distinct) and distinct[-1] < keys.size:
            index = np.zeros(int(distinct[-1]) + 1, distinct.dtype)
            index[distinct] = np.arange(len(distinct))
        return distinct, tokens, index

    def words(self, keys: np.ndarray, end: str) -> list[str]:
        """The token of each of the nonzero ``keys``, in order, followed by
        a space, or by ``end`` where it ends its table."""
        distinct, tokens, index = self._table
        if end not in self._words:
            self._words[end] = np.array(
                [t + (end if k & 1 else " ") for t, k in zip(tokens, distinct.tolist())],
                dtype=object,
            )
        at = np.searchsorted(distinct, keys) if index is None else index[keys]
        return self._words[end][at].tolist()

    def texts(self, keys: np.ndarray) -> list[str]:
        """Each table's ``path:count`` line, as :func:`thmc.fiber.table_text`
        renders it, from the tables' :func:`run_keys`: their tokens joined,
        then split at the line ends."""
        count, n = keys.shape
        if not n:
            return [""] * count
        return "".join(self.words(keys[keys != 0], "\n")).split("\n")[:-1]
