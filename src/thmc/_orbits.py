"""The symmetries of a move index, and a sweep's search of one fiber per
orbit under them.

Two maps of the paths carry the no-initial model onto itself: state swap,
which sends a cell c to c XOR (2**T - 1) and a statistic (b11, b12, b21,
b22) to (b22, b21, b12, b11), and time reversal, which reverses c's T bits
and sends b to (b11, b21, b12, b22).  A map under which a move index is
invariant carries each fiber's class multisets and mapped moves onto those
of the image fiber, class sizes and all, so a fiber splits exactly when
its images do (Aoki & Takemura (2008), "The largest group of invariance
for Markov bases and toric ideals", J. Symbolic Comput. 43:342-358).
Only a sweep imports this module: :func:`thmc._bulk.sweep`, and the
index's ``maps``, found once per index (:class:`thmc.fiber._MoveIndex`).
"""

from __future__ import annotations

import numpy as np

from . import _bulk
from .fiber import _canonical

#: Each map as the coordinates of b that make up its image's, identity
#: first; bit 0 of a map's place here is state swap and bit 1 time reversal.
MAPS = ((0, 1, 2, 3), (3, 2, 1, 0), (0, 2, 1, 3), (3, 1, 2, 0))


def _image(T: int, which: int, cells: np.ndarray) -> np.ndarray:
    """The image of ``cells`` under map ``which`` of :data:`MAPS`."""
    out = cells ^ ((1 << T) - 1) if which & 1 else cells.copy()
    if which & 2:
        bits, out = out, np.zeros_like(out)
        for t in range(T):
            out |= ((bits >> t) & 1) << (T - 1 - t)
    return out


def symmetries(index) -> tuple[tuple[int, ...], ...]:
    """The maps of :data:`MAPS` under which a :class:`thmc.fiber._MoveIndex`
    is invariant, identity first: those that carry its class partition
    onto itself, and each degree's mapped moves, sent through the map,
    :func:`thmc._bulk.rep_of` and :func:`thmc.fiber._canonical`, onto its
    stored rows.  An explicit move list is checked as a selection is.  The
    maps are commuting involutions, so those kept form a group."""
    T, cells, reps = index.T, index.cells, index.reps

    def invariant(which: int) -> bool:
        image = _image(T, which, cells)
        if not np.array_equal(np.sort(image), cells):
            return False
        if not np.array_equal(_bulk.rep_of(cells, reps, image),
                              _bulk.rep_of(cells, reps, _image(T, which, reps))):
            return False
        return all(
            np.array_equal(_canonical(_bulk.rep_of(cells, reps, _image(T, which, rows))), rows)
            for rows in index.moves
        )

    return tuple(m for which, m in enumerate(MAPS) if not which or invariant(which))


def roots(
    multisets: np.ndarray, bounds: list[int], stats: list[tuple[int, ...]],
    maps: tuple[tuple[int, ...], ...], moves: dict, base: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Each class multiset's root, the smallest index of its component,
    and that root's index within its fiber, given a level's multisets,
    its fibers' bounds among them and their statistics, ascending, the
    move index's group (:func:`symmetries`), and the mapped moves and id
    base that :func:`thmc._bulk.search` takes.

    Only the fibers whose b is the smallest in its orbit are searched.  An
    image of a connected one is one component of all its multisets, each
    rooted at the fiber's first; the images of a split one are searched
    too, so their components come in their own tables' order.  Under the
    identity alone every fiber is searched.
    """
    stats = np.array(stats, dtype=np.int64)
    weights = (int(stats.max()) + 1) ** np.arange(3, -1, -1, dtype=np.int64)
    keys = [stats[:, m] @ weights for m in maps]
    key, least = keys[0], np.min(keys, axis=0)
    starts = np.array(bounds[:-1])
    sizes = np.diff(bounds)
    label = np.repeat(starts, sizes)

    def search_fibers(chosen: np.ndarray) -> None:
        rows = np.flatnonzero(np.repeat(chosen, sizes))
        if len(rows):
            label[rows] = rows[_bulk.search(multisets[rows], moves, base)[0]]

    first = key == least
    search_fibers(first)
    split = np.maximum.reduceat(label, starts) > starts
    search_fibers(~first & split[np.searchsorted(key, least)])
    return label, label - np.repeat(starts, sizes)
