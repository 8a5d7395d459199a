"""Array kernels of the fiber layer: the tables of one path count at once.

The tables of n paths are an (N, n) array, one row per table holding its
paths' cell indices in ascending order, the row form of the sorted tuples
of :mod:`thmc.fiber`; the tables of one count are a level.  :func:`levels`
builds every table of each count and orders them into fibers;
:func:`group` finds each table's class multiset, checks each multiset's
table count and finds the components of every multiset of the level in
one search; :class:`Tokens` renders a level's ``path:count`` tokens once,
and a run of its tables' keys takes one gather of their tokens: a fiber's
lines are its tokens joined, and :mod:`thmc._report` joins a chunk of
fibers' tokens into a report's JSON.  :mod:`thmc.fiber` imports this
module on first use, so a command that sweeps or renders no fiber does
not compile it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np


def levels(
    T: int, n_max: int, stats: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, list[tuple[int, ...]]]]:
    """For n = 0..n_max, every table of n paths over the cells whose
    statistics are the rows of ``stats``, in cell order.

    Yields the tables in canonical order, by statistic and then by
    descending cell tuple, with the first row of each fiber and the fibers'
    statistics.  A table's statistic is one key: the sum of its cells'
    statistics written in base ``n_max * (T-1) + 1``, which no coordinate
    of a statistic reaches, so keys sort as statistics.
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


def _fibers(
    rows: np.ndarray, keys: np.ndarray, weights: np.ndarray, base: int
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, ...]]]:
    """The tables in canonical order, the first row of each fiber and the
    fibers' statistics.  The tables come in ascending cell tuple order, so
    a stable sort of the reversed keys, read backwards, puts them in
    descending order within each statistic."""
    order = np.argsort(keys[::-1], kind="stable")
    np.subtract(len(order) - 1, order, out=order)
    ordered = keys[order]
    starts = np.flatnonzero(np.append(True, ordered[1:] != ordered[:-1]))
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
    rows = np.concatenate(
        [np.repeat(rows, fan, axis=0), new[:, None].astype(rows.dtype)], axis=1
    )
    return rows, np.repeat(keys, fan) + cell_key[new]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending; ``np.unique`` would import
    ``numpy.ma``, about 1.6 MiB."""
    values = np.sort(values, axis=None)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _ranges(low: np.ndarray, fan: np.ndarray) -> np.ndarray:
    """The ranges ``low[i] .. low[i] + fan[i] - 1``, concatenated."""
    out = np.repeat(low - (np.cumsum(fan) - fan), fan)
    out += np.arange(len(out))
    return out


def classes(
    cells: Sequence[int], class_of: dict[int, int], sizes: dict[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The class id of each of the ascending ``cells``, with each class's
    size and smallest cell.

    ``class_of`` maps a cell to its class's smallest cell and ``sizes``
    counts each class's cells; a cell outside ``class_of`` is a class of
    its own.  Ids number the classes by smallest cell, so they sort as
    those cells do; their dtype also holds the id ``len(reps)``, which
    :func:`mapped` gives a class none of ``cells`` belongs to.
    """
    rep = [class_of.get(c, c) for c in cells]
    reps = sorted(set(rep))
    number = {r: i for i, r in enumerate(reps)}
    ids = np.array([number[r] for r in rep], dtype=np.min_scalar_type(len(reps)))
    size = np.array([sizes.get(r, 1) for r in reps], dtype=np.float64)
    return ids, size, np.array(reps, dtype=np.int64)


#: The mapped moves of one degree in class ids: the sorted keys of their
#: distinct negative parts, the bounds of each one's positive parts, and
#: those parts as rows of class ids.
Mapped = tuple[np.ndarray, np.ndarray, np.ndarray]


def mapped(
    by_negative: dict[tuple[int, ...], list[tuple[int, ...]]], reps: np.ndarray
) -> dict[int, Mapped]:
    """The moves mapped onto classes, ``by_negative`` of a move index, in
    the class ids of :func:`classes`, by degree.

    A negative part holding a class none of ``reps`` stands for is left
    out, since no table holds it; a positive class of that kind gets the
    id ``len(reps)``, so a move that adds it leads out of the tables.
    Negative parts of one degree are sorted as tuples, so their
    :func:`_keys` come sorted.
    """
    id_of = dict(zip(reps.tolist(), range(len(reps))))
    parts: dict[int, tuple[list, list, list]] = {}
    for negative in sorted(by_negative):
        ids = [id_of.get(c) for c in negative]
        if None in ids:
            continue
        keys, counts, positives = parts.setdefault(len(ids), ([], [0], []))
        keys.append(ids)
        counts.append(len(by_negative[negative]))
        positives += ([id_of.get(c, len(reps)) for c in p] for p in by_negative[negative])
    dtype = np.min_scalar_type(len(reps))
    return {
        d: (
            _keys(np.array(keys, dtype=dtype), len(reps) + 1),
            np.cumsum(counts),
            np.array(positives, dtype=dtype),
        )
        for d, (keys, counts, positives) in sorted(parts.items())
    }


def _keys(rows: np.ndarray, base: int) -> np.ndarray:
    """Each row of class ids below ``base`` as one integer, its digits in
    that base, so sorted rows sort as their keys do.  The keys are Python
    ints where an int64 could overflow: only a fiber of very many paths
    needs them."""
    width = rows.shape[1]
    exact = base**width <= np.iinfo(np.int64).max
    weights = np.array(
        [base**k for k in range(width - 1, -1, -1)], dtype=np.int64 if exact else object
    )
    return (rows if exact else rows.astype(object)) @ weights


def join(label: np.ndarray, i: np.ndarray, j: np.ndarray) -> None:
    """Join the components of each pair ``i[k]``, ``j[k]`` in the forest
    ``label``, where each index points at a smaller one or at itself, a
    root, and leave every index pointing at its root.

    Min-label propagation with pointer jumping: each round points every
    index at its root, then hooks the larger root of each pair still
    split under the smaller.  A root only moves under a smaller root of
    its component, so each root stays the smallest index of its
    component.
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

    A multiset's neighbours come from its distinct sub-multisets of each
    mapped degree d: for each d-subset of columns, one ``searchsorted`` of
    the rows' keys among the negative parts' finds the rows that hold a
    negative part.  Such a row's neighbour is the row with the negative
    classes replaced by the positive ones, sorted, and its key is looked up
    among the level's.  Only the leftmost columns holding a sub-multiset
    probe it, and copies of a class past the largest degree are left out
    of the columns drawn from, so a row of many copies of one class probes
    each sub-multiset once.  One sign of each move suffices, as the other
    is found from the far end.  The edges of each column subset are
    joined into the labels (:func:`join`) before the next subset's are
    found.
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


def group(
    ids: np.ndarray, starts: np.ndarray, size: np.ndarray, reps: np.ndarray,
    moves: dict[int, Mapped],
) -> list[tuple[np.ndarray | None, np.ndarray, bool, tuple[int, ...]]]:
    """The class multisets of the tables of several fibers, and their
    components under the mapped moves ``moves`` (:func:`mapped`).

    ``ids`` holds the class id of each path of each table, with the tables
    of a fiber contiguous and the fibers beginning at ``starts``; its rows
    are sorted in place.  ``size`` and ``reps`` give each class's size and
    smallest cell, as :func:`classes` returns them.  Distinct multisets
    come from one ``lexsort`` of the sorted rows, and are numbered in the
    order of their first tables, from 0 in each fiber.  For each fiber,
    returns each multiset's root, the first multiset of its component, or
    None when the fiber is one component; the number of each table's
    multiset; whether the fiber is complete, each multiset having all the
    tables its classes make, ``prod_c C(|c| + k_c - 1, k_c)`` for class
    ``c`` held ``k_c`` times, and no move leading out of it; and
    ``tuple(range(len(fiber)))``, the one component of a connected fiber,
    with its ints shared by all the fibers.  The components of all the
    fibers come from one :func:`search` over all the multisets.
    """
    count, n = ids.shape
    fibers = len(starts)
    fiber = np.repeat(
        np.arange(fibers, dtype=np.min_scalar_type(fibers)), np.diff(np.append(starts, count))
    )
    ids.sort(axis=1)
    order = np.lexsort((*ids.T[::-1], fiber))
    ids, fiber_of = ids[order], fiber[order]
    del fiber
    new = np.append(True, (ids[1:] != ids[:-1]).any(axis=1) | (fiber_of[1:] != fiber_of[:-1]))
    first = np.flatnonzero(new)
    rows = ids[first]
    del ids
    fiber_of = fiber_of[first]
    # The product over runs of C(s + k - 1, k), one factor (s + r - 1) / r
    # at the r-th copy of a class.  Each partial product is a whole number,
    # exact in a float below 2**53; a larger one is far from any count held.
    expected = np.ones(len(first))
    run = np.ones(len(first))
    for j in range(n):
        if j:
            run = np.where(rows[:, j] == rows[:, j - 1], run + 1, 1)
        expected = expected * (size[rows[:, j]] + run - 1) / run
    held = np.diff(np.append(first, count))
    short = np.bincount(fiber_of[expected != held], minlength=fibers)
    del expected, run, held
    # Number the multisets in the order of their first tables, from 0 in
    # each fiber, and give each table its multiset's number.
    by_table = np.argsort(order[first])
    fiber_of = fiber_of[by_table]
    bounds = np.append(0, np.cumsum(np.bincount(fiber_of, minlength=fibers)))
    rank = np.empty_like(by_table)
    rank[by_table] = np.arange(len(by_table)) - bounds[fiber_of]
    multiset = np.cumsum(new)
    multiset -= 1
    multiset_of = np.empty_like(multiset)
    multiset_of[order] = rank[multiset]
    del new, first, multiset, order, rank
    label, escaped = search(rows[by_table], moves, len(reps) + 1)
    del rows
    short += np.bincount(fiber_of[escaped], minlength=fibers)
    root = label == np.arange(len(label))
    split = np.bincount(fiber_of[root], minlength=fibers) > 1
    label -= bounds[fiber_of]
    bounds, starts = bounds.tolist(), [*starts.tolist(), count]
    indices = tuple(range(max(b - a for a, b in zip(starts, starts[1:]))))
    return [
        (
            label[bounds[f]:bounds[f + 1]] if s else None,
            multiset_of[starts[f]:starts[f + 1]],
            not k,
            indices[:starts[f + 1] - starts[f]],
        )
        for f, (k, s) in enumerate(zip(short.tolist(), split.tolist()))
    ]


def fiber_group(
    rows: np.ndarray, class_of: dict[int, int], sizes: dict[int, int],
    by_negative: dict[tuple[int, ...], list[tuple[int, ...]]],
) -> tuple[np.ndarray | None, np.ndarray, bool, tuple[int, ...]]:
    """:func:`group` for the tables of one fiber, over the cells they hold."""
    cells = _distinct(rows)
    ids, size, reps = classes(cells.tolist(), class_of, sizes)
    return group(
        ids[np.searchsorted(cells, rows)], np.zeros(1, np.intp), size, reps,
        mapped(by_negative, reps),
    )[0]


def components(multiset_of: np.ndarray, roots: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The components of a fiber's tables, given each table's multiset and
    each multiset's root, the first multiset of its component.  The tables
    are grouped by root, and since each root is the first multiset of its
    component, the components come ordered by their first tables."""
    root = roots[multiset_of]
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
    position has key 0.  The rows are read a chunk of whole tables at a
    time, flat: the run starts are the positions that begin a table or
    differ from the one before, and each run ends where the next begins.
    Only the keys span all the tables, so a table of a million copies of
    one path takes one key's temporaries.
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
    key of some tables, rendered on first read: a sweep makes one per
    level, shared by its fibers, and a lone fiber its own.

    Each cell present is rendered once, from its binary digits, and the
    tokens followed by each line end asked for are kept in an object
    array, so a run of keys takes one gather.  A key's place in it comes
    from an index by key where the largest key is below the tables' cell
    count, so that the index is never longer than the keys, and from a
    search otherwise, as for a table of a million copies of one path,
    whose one key is two million.
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
