"""The move index of a family selection with type I moves, built on points.

A path's point is its transition statistic and its first state; with type
II moves in the selection, its statistic alone.  Such a selection's
classes, the components of its degree-1 moves, are taken to be its
points: that type I moves join all the paths of each point has been
checked, against the path-level index of :mod:`thmc.fiber`, which decodes
every draw of every family, for T = 3..8 only (tests/test_fiber.py,
``TestPointIndex``), so the index serves sweeps and lone fibers up to
``POINT_INDEX_T_CAP`` = 8 and refuses a longer T.  Each family's moves,
mapped onto classes, are then read off the points of path pieces:

- a crossing at time t trades the tails of two paths whose heads end in
  one state, so it trades tail pieces between two head pieces;
- a 2x2 move trades a middle segment between two contexts, a head and a
  tail each, and a type IV move trades the middle state of its windows
  (1, ., 2) or (2, ., 1) between two contexts at different times;
- a degree-3 sliding move names flat and single-step paths, O(T**3) moves.

A piece of L states is known by its statistic, first state and last state,
O(L**2) of them against its 2**L paths, so no path pair is drawn.  A point
is held as the key ``2 * s + first``, where a statistic's ``s`` is
``b11 * T**2 + b12 * T + b21`` (b22 follows from the length), so joining
pieces adds their keys and those of the transitions between them.
The index comes out as the arrays of :class:`thmc.fiber._MoveIndex`,
straight from those of the points: the traded moves as the digits of their
distinct keys, the sliding moves as rows.  :mod:`thmc.fiber` imports this
module on first use.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._bulk import _distinct, number_classes
from .core import MIN_T
from .fiber import _canonical, _fitting_cells
from .moves import Family

#: The largest T :func:`index` serves: ``TestPointIndex`` checks it against
#: the path-level index at T = 3..8, and past that, that the classes are
#: the points rests on no proof.
POINT_INDEX_T_CAP = 8


def _point_keys(T: int, L: int) -> np.ndarray:
    """The point key of each path of L states, by code, with the
    statistic, as the fiber layer's cell builder gives it, written in
    base T."""
    codes, stats = _fitting_cells(L, (L - 1,) * 4)
    return 2 * (stats @ np.array([T * T, T, 1, 0], dtype=np.int64)) + (codes >> (L - 1))


def index(T: int, families: tuple[Family, ...]):
    """The ``cells``, ``reps`` and ``moves`` of a family selection that
    holds type I moves, the arrays of :class:`thmc.fiber._MoveIndex`.

    ``cells`` holds each cell of a class of two or more cells, ascending,
    and ``reps`` its class's smallest cell.  Class numbers stand for
    classes until the end, so a traded move's four classes pack into one
    int64 below ``classes**4``; with at most ``2 * T**3`` classes, that
    holds up to T = 30.  Each call's moves are kept distinct as they are
    traded, so the peak follows the distinct moves.  T is capped at
    ``POINT_INDEX_T_CAP``.
    """
    if T < MIN_T:
        raise ValueError(f"T must be >= {MIN_T}, got {T}")
    if T > POINT_INDEX_T_CAP:
        raise ValueError(f"the point index is capped at T <= {POINT_INDEX_T_CAP}, got {T}")
    point = _point_keys(T, T)
    key = point >> 1 if Family.TYPE2_DEG1 in families else point
    # Each class is numbered by the rank of its smallest cell.
    reps, cls = number_classes(key)
    shared = np.flatnonzero(np.bincount(cls)[cls] > 1)
    of_point = np.zeros(2 * T**3, dtype=np.int64)
    of_point[point] = cls
    R = len(reps)
    by_length = [None] + [_point_keys(T, L) for L in range(1, T)] + [point]

    @lru_cache(maxsize=None)
    def piece(L: int, first: int, last: int | None = None) -> np.ndarray:
        """Twice the statistic keys of the distinct pieces of L states with
        the given first state and, unless None, last state."""
        codes = np.arange(1 << L)
        keep = codes >> (L - 1) == first
        if last is not None:
            keep &= codes & 1 == last
        return _distinct(by_length[L][keep]) - first

    def heads(t: int, last: int) -> np.ndarray:
        """The point keys of the heads of t states ending in ``last``."""
        return np.concatenate([piece(t, f, last) + f for f in range(2)])

    @lru_cache(maxsize=None)
    def context(t: int, u: int, end: int, start: int) -> np.ndarray:
        """Heads of t states ending in ``end`` joined to tails of u states
        starting with ``start``: the points of paths with their middle
        and its two joining transitions left out."""
        return _distinct(heads(t, end)[:, None] + piece(u, start)[None, :])

    # Every traded move as one key: its negative and positive class pairs,
    # the smaller first, each pair a number in base R.
    traded: list[np.ndarray] = []

    def trade(c1, c2, a1, b1, a2, b2) -> None:
        """Moves that trade middles: path 1 is a context of ``c1`` with a
        middle of the first kind, path 2 one of ``c2`` with a middle of
        the second kind.  ``a1`` and ``b1`` hold the key each middle of the
        first and second kind adds in a context of ``c1``, ``a2`` and ``b2``
        in one of ``c2``; the axes are c1, c2, first kind, second kind."""
        p1 = of_point[c1[:, None] + a1][:, None, :, None]
        q1 = of_point[c1[:, None] + b1][:, None, None, :]
        p2 = of_point[c2[:, None] + b2][None, :, None, :]
        q2 = of_point[c2[:, None] + a2][None, :, :, None]
        neg = np.minimum(p1, p2) * R + np.maximum(p1, p2)
        pos = np.minimum(q1, q2) * R + np.maximum(q1, q2)
        move = np.minimum(neg, pos) * (R * R) + np.maximum(neg, pos)
        traded.append(_distinct(move[neg != pos]))

    # Twice the key of the transition from state i to state j.
    step = np.array([[2 * T * T, 2 * T], [2, 0]], dtype=np.int64)
    for family in families:
        if family is Family.CROSSING:
            # At time t the heads end in s; a tail starting with f adds
            # its key and that of the transition from s to f.  At t = 1
            # and t = T a crossing changes no path.
            for t in range(2, T):
                for s in range(2):
                    tails = np.concatenate([piece(T - t, f) + step[s, f] for f in range(2)])
                    head = heads(t, s)
                    trade(head, head, tails, tails, tails, tails)
        elif family is Family.TWO_BY_TWO:
            # At t0 path 1 holds (1, 1) and path 2 (2, 2); the middles are
            # times t0+1..t1.  Path 1's middle ends in e and path 2's in
            # the other state, and each tail starts with the state the
            # other path's middle ends in: e = 0 is pattern A, e = 1 is B.
            for t0 in range(1, T - 1):
                for t1 in range(t0 + 1, T):
                    for e in range(2):
                        m1, m2 = piece(t1 - t0, 0, e), piece(t1 - t0, 1, 1 - e)
                        s1, s2 = 1 - e, e
                        trade(
                            context(t0, T - t1, 0, s1), context(t0, T - t1, 1, s2),
                            m1 + step[0, 0] + step[e, s1], m2 + step[0, 1] + step[1 - e, s1],
                            m1 + step[1, 0] + step[e, s2], m2 + step[1, 1] + step[1 - e, s2],
                        )
        elif family is Family.TYPE4:
            # Windows (i, i, j) and (i, j, j) at times t..t+2: a head of t
            # states ending in i, a middle state, a tail starting with j.
            # The other path's window starts at another time; with the two
            # times swapped the move is the same in the other sign, so each
            # pair of times is traded once.
            for i in range(2):
                j = 1 - i
                a = step[i, i:i + 1] + step[i, j]
                b = step[i, j:j + 1] + step[j, j]
                ctx = [context(t, T - t - 1, i, j) for t in range(1, T - 1)]
                for t in range(len(ctx) - 1):
                    trade(ctx[t], np.concatenate(ctx[t + 1:]), a, b, a, b)
    moves = []
    if traded:
        # A key's digits are class numbers, which sort as the classes'
        # smallest cells do, so the ascending keys give rows in the form.
        keys = _distinct(np.concatenate(traded))
        moves.append(reps[keys[:, None] // R ** np.arange(3, -1, -1) % R])
    if Family.DEG3_SLIDING in families:
        # Flat-1 and the steps at a and b against flat-2 and the steps at
        # a + u and b + T - 1 - u, as deg3_sliding builds them: k ones then
        # T - k twos, k = T and k = 0 giving the flat paths, then the same
        # reversed in time, each also state-swapped.
        k = np.array([(T, a, b, 0, a + u, b + T - 1 - u)
                      for a in range(1, T) for b in range(a, T - a) for u in range(b, T - a)])
        full = (1 << T) - 1
        codes = np.concatenate([(1 << (T - k)) - 1, full ^ ((1 << k) - 1)])
        moves.append(_canonical(reps[cls[np.concatenate([codes, codes ^ full])]]))
    return shared, reps[cls[shared]], tuple(moves)
