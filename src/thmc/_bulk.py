"""Array kernels of the fiber layer: the tables of one path count at once.

The tables of n paths are an (N, n) array, one row per table holding its
paths' cell indices in ascending order, the row form of the sorted tuples
of :mod:`thmc.fiber`.  :func:`levels` builds every table of each count
and orders them into fibers; :func:`group` finds each table's class
multiset and checks each multiset's table count; :func:`texts` renders a
fiber's tables as ``path:count`` lines.  :mod:`thmc.fiber` imports this
module on first use, so a command that sweeps or renders no fiber does not
compile it.
"""

from __future__ import annotations

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
    new = np.repeat(low - (np.cumsum(fan) - fan), fan)
    new += np.arange(len(new))
    rows = np.concatenate(
        [np.repeat(rows, fan, axis=0), new[:, None].astype(rows.dtype)], axis=1
    )
    return rows, np.repeat(keys, fan) + cell_key[new]


def classes(
    cells: Sequence[int], class_of: dict[int, int], sizes: dict[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The class id of each of the ascending ``cells``, with each class's
    size and smallest cell.

    ``class_of`` maps a cell to its class's smallest cell and ``sizes``
    counts each class's cells; a cell outside ``class_of`` is a class of
    its own.  Ids number the classes by smallest cell, so they sort as
    those cells do.
    """
    rep = [class_of.get(c, c) for c in cells]
    reps = sorted(set(rep))
    number = {r: i for i, r in enumerate(reps)}
    ids = np.array([number[r] for r in rep], dtype=np.min_scalar_type(max(len(reps) - 1, 0)))
    size = np.array([sizes.get(r, 1) for r in reps], dtype=np.float64)
    return ids, size, np.array(reps, dtype=np.int64)


def group(
    ids: np.ndarray, starts: np.ndarray, size: np.ndarray, reps: np.ndarray
) -> list[tuple[list[tuple[int, ...]], np.ndarray, bool, tuple[int, ...]]]:
    """The class multisets of the tables of several fibers.

    ``ids`` holds the class id of each path of each table, with the tables
    of a fiber contiguous and the fibers beginning at ``starts``; its rows
    are sorted in place.  ``size`` and ``reps`` give each class's size and
    smallest cell, as :func:`classes` returns them.  For each fiber,
    returns its class multisets, each as the sorted tuple of its classes'
    smallest cells, in the order of their first tables; the index of each
    table's multiset in that list; whether each multiset has all the
    tables its classes make, ``prod_c C(|c| + k_c - 1, k_c)`` for class
    ``c`` held ``k_c`` times; and ``tuple(range(len(fiber)))``, the one
    component of a connected fiber, with its ints shared by all the
    fibers.  Distinct multisets come from one ``lexsort`` of the sorted
    rows.
    """
    count, n = ids.shape
    fibers = len(starts)
    fiber = np.repeat(
        np.arange(fibers, dtype=np.min_scalar_type(fibers)), np.diff(np.append(starts, count))
    )
    ids.sort(axis=1)
    order = np.lexsort((*ids.T[::-1], fiber))
    ids, fiber_of = ids[order], fiber[order]
    new = np.append(True, (ids[1:] != ids[:-1]).any(axis=1) | (fiber_of[1:] != fiber_of[:-1]))
    first = np.flatnonzero(new)
    rows = ids[first]
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
    short = np.bincount(fiber_of[first][expected != held], minlength=fibers)
    # Number the multisets in the order of their first tables, from 0 in
    # each fiber, and give each table its multiset's number.
    by_table = np.argsort(order[first])
    bounds = np.append(0, np.cumsum(np.bincount(fiber_of[first], minlength=fibers)))
    rank = np.empty_like(by_table)
    rank[by_table] = np.arange(len(by_table)) - bounds[fiber_of[first][by_table]]
    multiset = np.cumsum(new)
    multiset -= 1
    multiset_of = np.empty_like(multiset)
    multiset_of[order] = rank[multiset]
    multisets = tuples(reps[rows[by_table]])
    bounds, starts = bounds.tolist(), [*starts.tolist(), count]
    indices = tuple(range(max(b - a for a, b in zip(starts, starts[1:]))))
    return [
        (
            multisets[bounds[f]:bounds[f + 1]],
            multiset_of[starts[f]:starts[f + 1]],
            not s,
            indices[:starts[f + 1] - starts[f]],
        )
        for f, s in enumerate(short.tolist())
    ]


def fiber_group(
    rows: np.ndarray, class_of: dict[int, int], sizes: dict[int, int]
) -> tuple[list[tuple[int, ...]], np.ndarray, bool, tuple[int, ...]]:
    """:func:`group` for the tables of one fiber, over the cells they hold."""
    cells = sorted(set(rows.ravel().tolist()))
    ids, size, reps = classes(cells, class_of, sizes)
    return group(ids[np.searchsorted(cells, rows)], np.zeros(1, np.intp), size, reps)[0]


def components(multiset_of: np.ndarray, roots: list[int]) -> tuple[tuple[int, ...], ...]:
    """The components of a fiber's tables, given each table's multiset and
    each multiset's root, the first multiset of its component.  The tables
    are grouped by root, and since each root is the first multiset of its
    component, the components come ordered by their first tables."""
    root = np.array(roots)[multiset_of]
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


def run_keys(T: int, rows: np.ndarray) -> np.ndarray:
    """The ``path:count`` tokens of each table as integer keys, in the
    shape of ``rows``.

    A run of k equal cells c has key (c * (n + 1) + k) * 2 + e at its first
    position, where e is 1 when the run ends its table, and every other
    position has key 0.  Each position's next run start, found by a running
    minimum from the right, gives the run lengths without a loop over the
    positions.
    """
    count, n = rows.shape
    small = np.min_scalar_type(n)
    position = np.arange(n, dtype=small)
    head = np.ones(rows.shape, dtype=bool)
    head[:, 1:] = rows[:, 1:] != rows[:, :-1]
    after = np.full(rows.shape, n, dtype=small)
    after[:, :-1] = np.where(head[:, 1:], position[1:], after[:, 1:])
    after = np.minimum.accumulate(after[:, ::-1], axis=1)[:, ::-1]
    keys = rows.astype(np.min_scalar_type(((1 << T) - 1) * (2 * n + 2) + 2 * n + 1))
    keys *= n + 1
    keys += after - position
    keys *= 2
    keys += after == n
    keys[~head] = 0
    return keys


def texts(T: int, keys: np.ndarray) -> list[str]:
    """Each table's ``path:count`` line, as :func:`thmc.fiber.table_text`
    renders it, from the tables' :func:`run_keys`.

    Only the cells present are rendered, and each distinct ``path:count``
    token once, with the space or line end that follows it; the lines are
    those tokens joined, then split at the line ends.
    """
    count, n = keys.shape
    if not n:
        return [""] * count
    keys = keys[keys != 0].tolist()
    tokens = dict.fromkeys(keys)
    width = 2 * n + 2
    cells = sorted({k // width for k in tokens})
    paths = dict(zip(cells, cell_texts(T, np.array(cells))))
    for k in tokens:
        tokens[k] = f"{paths[k // width]}:{k // 2 % (n + 1)}" + ("\n" if k & 1 else " ")
    return "".join(map(tokens.__getitem__, keys)).split("\n")[:-1]
