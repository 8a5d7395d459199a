"""Array decoding of the proposal sampler's parameter draws, on path codes.

A path is coded by its encoding: a T-bit numeral with time 1 as the top
bit and state 1 as the digit 0, so codes sort as their paths do.  For each
family, :class:`Decoder` turns an array of draws into the null mask and
the signed codes the family's constructor in :mod:`thmc.moves` would give;
:func:`merge` adds up equal codes and drops those that cancel, and
:func:`check` raises unless every merged row is a move.  A decoded move
leaves this module in one form, :meth:`Decoder.merged`'s flat arrays:
the sampler reads them as they are, its lookup tables turn them into
tuples, and :func:`split` cuts them into the rows a move index takes.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .core import encode
from .moves import _2X2_WINDOWS, Family

#: Signed path codes in one decoded draw: a degree-3 sliding move names six
#: paths, the other families two or four.
WIDTH = 6


def popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each nonnegative int64 (numpy 1.24 has no bit count)."""
    x = x - ((x >> 1) & 0x5555555555555555)
    x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0F
    x = x + (x >> 8)
    x = x + (x >> 16)
    x = x + (x >> 32)
    return x & 0x7F


def merge(
    codes: np.ndarray, deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort each row's signed codes, add up equal ones, drop those that cancel.

    Returns the surviving codes and deltas flat, in row order and by code
    within a row, with the row of each.
    """
    rows, width = codes.shape
    order = np.argsort(codes, axis=1, kind="stable")
    order += np.arange(0, rows * width, width)[:, None]
    codes, deltas = codes.ravel()[order.ravel()], deltas.ravel()[order.ravel()]
    new = np.ones(len(codes), dtype=bool)
    new[1:] = codes[1:] != codes[:-1]
    new[::width] = True
    runs = np.flatnonzero(new)
    sums = np.add.reduceat(deltas, runs)
    keep = sums != 0
    runs = runs[keep]
    return codes[runs], sums[keep], runs // width


def check(T: int, codes: np.ndarray, deltas: np.ndarray, starts: np.ndarray) -> None:
    """Raise unless each decoded row is a move.

    ``starts`` indexes the first entry of each row.  Within a row the codes
    must be paths of length T in increasing order with nonzero deltas, and
    the deltas must add up to zero mass and zero net transition statistic.
    With ``e = code >> 1`` (the state one time earlier) a path has
    ``popcount(e & code)`` 2->2 transitions, ``popcount(e)`` transitions
    out of state 2 and ``popcount(code & (2**(T-1) - 1))`` into it; with
    zero mass, zero net change of these three fixes all four counts.  The
    checks are explicit raises, so they hold under ``python -O``.
    """
    full = (1 << T) - 1
    rising = np.ones(len(codes), dtype=bool)
    rising[1:] = codes[1:] > codes[:-1]
    rising[starts] = True
    if ((deltas == 0) | (codes < 0) | (codes > full) | ~rising).any():
        raise AssertionError(
            "decoded draw has a zero delta, a code outside [0, 2**T) "
            "or codes out of order"
        )
    earlier = codes >> 1
    counts = popcount(np.stack([earlier & codes, earlier, codes & (full >> 1)]))
    net = np.add.reduceat(np.vstack([deltas, counts * deltas]), starts, axis=1)
    if net.any():
        raise AssertionError(
            "decoded draw changes the mass or the transition statistic"
        )


def split(
    codes: np.ndarray, deltas: np.ndarray, starts: np.ndarray
) -> dict[int, np.ndarray]:
    """Moves in :meth:`Decoder.merged`'s flat form as rows, by degree d:
    an (m, 2d) array of the moves' negative codes, then their positive
    ones, each in code order and once per unit of count."""
    positive = np.maximum(deltas, 0)
    degree = np.add.reduceat(positive, starts)
    of = np.repeat(degree, np.diff(starts, append=len(codes)))
    parts = [(np.repeat(codes, n), np.repeat(of, n)) for n in (positive - deltas, positive)]
    return {
        d: np.hstack([units[at == d].reshape(-1, d) for units, at in parts])
        for d in set(degree.tolist())
    }


class Decoder:
    """Array decoder of the sampler's parameter draws at one path length.

    Per family, a method turns an (m, slots) array of draws (sign slot
    last, unused here) into the null mask, the path codes of each row and
    their signs, following the family's constructor; :meth:`merged`
    merges and checks the rows.  ``highs`` holds the number of values of
    each slot, and ``strides`` the flat-index weight of each.
    """

    def __init__(self, T: int) -> None:
        self.T = T
        self.full = (1 << T) - 1
        self.pow2 = 1 << np.arange(T - 1, -1, -1, dtype=np.int64)
        self.triples = np.array(
            list(itertools.combinations(range(1, T + 1), 3)), dtype=np.int64
        )
        pairs = [(t0, t1) for t0 in range(1, T - 1) for t1 in range(t0 + 1, T)]
        ctx = [2] * (2 * (T - 3))
        highs = {
            Family.TYPE1_DEG1: [2] * T + [len(self.triples)],
            Family.CROSSING: [2] * (2 * T) + [T],
            Family.TWO_BY_TWO: [2, len(pairs)] + ctx,
            Family.TYPE4: [2, T - 2, T - 2] + ctx if T >= 4 else [],
            Family.TYPE2_DEG1: [2] * T + [T - 2],
            Family.DEG3_SLIDING: [T - 1, T - 1, T - 1, 2, 2],
        }
        # Every draw ends in the fair sign slot.
        self.highs = {f: np.array(h + [2], dtype=np.int64) for f, h in highs.items()}
        self.strides = {
            f: np.append(np.cumprod(h[:0:-1])[::-1], 1) for f, h in self.highs.items()
        }
        # 2x2 swaps, per time pair: the weight of each context bit in the
        # two paths' codes, and the positions t0+1..t1 the paths exchange;
        # per pattern and pair: the codes of the forced windows, and whether
        # the windows agree where they meet.
        self.weights = np.zeros((len(pairs), len(ctx), 2), dtype=np.int64)
        self.exchanged = np.zeros(len(pairs), dtype=np.int64)
        self.forced = np.zeros((2, len(pairs), 2), dtype=np.int64)
        self.fits = np.ones((2, len(pairs)), dtype=bool)
        for q, (t0, t1) in enumerate(pairs):
            free = [t for t in range(1, T + 1) if t not in (t0, t0 + 1, t1, t1 + 1)]
            for side in range(2):
                for j, t in enumerate(free):
                    self.weights[q, side * len(free) + j, side] = 1 << (T - t)
            self.exchanged[q] = ((1 << (t1 - t0)) - 1) << (T - t1)
            for p, pattern in enumerate("AB"):
                for side, (w0, w1) in enumerate(_2X2_WINDOWS[pattern]):
                    states = {t0: w0[0], t0 + 1: w0[1], t1 + 1: w1[1]}
                    if t1 > t0 + 1:
                        states[t1] = w1[0]
                    elif w0[1] != w1[0]:
                        self.fits[p, q] = False
                    self.forced[p, q, side] = sum(
                        (s - 1) << (T - t) for t, s in states.items()
                    )
        self._families = {
            Family.TYPE1_DEG1: self._type1,
            Family.CROSSING: self._crossing,
            Family.TWO_BY_TWO: self._two_by_two,
            Family.TYPE4: self._type4,
            Family.TYPE2_DEG1: self._type2,
            Family.DEG3_SLIDING: self._deg3,
        }

    def merged(
        self,
        parts: Sequence[tuple[Family, np.ndarray]],
        numbers: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The rows of ``parts``, (family, draws) pairs whose rows are
        numbered through the parts in order, that give a move: their
        numbers, their ``(code, delta)`` entries' codes and deltas, flat and
        by code within a row, and the first entry of each row.  A null draw,
        or one whose codes all cancel, gives none, and the merged rows are
        checked with :func:`check` before any is returned.  ``numbers``, a
        permutation of the row numbers, renumbers the rows (the sampler
        passes their draw slots); the rows are returned in the new order."""
        n = sum(len(draws) for _, draws in parts)
        codes = np.full((n, WIDTH), -1, dtype=np.int64)
        deltas = np.zeros((n, WIDTH), dtype=np.int64)
        live = np.zeros(n, dtype=bool)
        at = 0
        for fam, draws in parts:
            ok, fam_codes, signs = self._families[fam](draws)
            end, width = at + len(draws), fam_codes.shape[1]
            rows = slice(at, end) if numbers is None else numbers[at:end]
            codes[rows, :width] = fam_codes
            deltas[rows, :width] = signs
            live[rows] = ok
            at = end
        index = np.flatnonzero(live)
        if not len(index):
            return index, codes[:0, 0], deltas[:0, 0], index
        codes, deltas, rows = merge(codes[index], deltas[index])
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        check(self.T, codes, deltas, starts)
        return index[rows[starts]], codes, deltas, starts

    def _type1(self, d: np.ndarray):
        """:func:`type1_deg1`: T path bits, then a time triple."""
        T = self.T
        code = d[:, :T] @ self.pow2
        t0, t1, t2 = self.triples[d[:, T]].T
        pivot = (code >> (T - t0)) & 1
        ok = ((code >> (T - t1)) & 1 == pivot) & ((code >> (T - t2)) & 1 == pivot)
        between = ((1 << (t2 - t0 - 1)) - 1) << (T - t2 + 1)
        ok &= (code ^ (pivot * self.full)) & between != 0
        # The swapped path: times 1..t0-1, t1..t2-1, t0..t1, then t2+1..T.
        head = code >> (T - t0 + 1)
        first = (code >> (T - t1)) & ((1 << (t1 - t0 + 1)) - 1)
        second = (code >> (T - t2 + 1)) & ((1 << (t2 - t1)) - 1)
        tail = code & ((1 << (T - t2)) - 1)
        swapped = (
            ((((head << (t2 - t1)) | second) << (t1 - t0 + 1)) | first) << (T - t2)
        ) | tail
        return ok, np.stack([code, swapped], axis=1), (1, -1)

    def _crossing(self, d: np.ndarray):
        """:func:`crossing_swap`: two paths' bits, then the time they meet."""
        T = self.T
        c = d[:, : 2 * T].reshape(len(d), 2, T) @ self.pow2
        c1, c2 = c[:, 0], c[:, 1]
        t = d[:, 2 * T] + 1
        ok = ((c1 ^ c2) >> (T - t)) & 1 == 0
        suffix = (1 << (T - t)) - 1
        q1 = (c1 & ~suffix) | (c2 & suffix)
        q2 = (c2 & ~suffix) | (c1 & suffix)
        return ok, np.stack([c1, c2, q1, q2], axis=1), (1, 1, -1, -1)

    def _two_by_two(self, d: np.ndarray):
        """:func:`two_by_two_swap`: the pattern, a time pair, the contexts."""
        pattern, pair = d[:, 0], d[:, 1]
        c = (d[:, None, 2:-1] @ self.weights[pair])[:, 0] + self.forced[pattern, pair]
        c1, c2 = c[:, 0], c[:, 1]
        mid = self.exchanged[pair]
        q1 = (c1 & ~mid) | (c2 & mid)
        q2 = (c2 & ~mid) | (c1 & mid)
        codes = np.stack([c1, c2, q1, q2], axis=1)
        return self.fits[pattern, pair], codes, (1, 1, -1, -1)

    def _type4(self, d: np.ndarray):
        """:func:`type4_move`: the state swap, t0 and t1, the contexts."""
        T = self.T
        if T < 4:
            return np.zeros(len(d), dtype=bool), np.zeros((len(d), 4), np.int64), 0
        # (1,1,2) and (1,2,2), or (2,2,1) and (2,1,1) with the states swapped.
        swap = d[:, 0] * 0b111
        win_a, win_b = encode((1, 1, 2)) ^ swap, encode((1, 2, 2)) ^ swap
        t0, t1 = d[:, 1] + 1, d[:, 2] + 1
        ctx = d[:, 3:-1].reshape(len(d), 2, T - 3) @ self.pow2[3:]

        def put(x, window, t):
            # The context's top t-1 bits, the window at times t..t+2, the rest.
            low = T - t - 2
            return ((x >> low) << (low + 3)) | (window << low) | (x & ((1 << low) - 1))

        p1, q1 = put(ctx[:, 0], win_a, t0), put(ctx[:, 0], win_b, t0)
        p2, q2 = put(ctx[:, 1], win_b, t1), put(ctx[:, 1], win_a, t1)
        return t0 != t1, np.stack([p1, p2, q1, q2], axis=1), (1, 1, -1, -1)

    def _type2(self, d: np.ndarray):
        """:func:`type2_deg1`: T path bits, then the time of the other state."""
        T = self.T
        code = d[:, :T] @ self.pow2
        t = d[:, T] + 2
        first = code >> (T - 1)
        ok = (first == code & 1) & ((code >> (T - t)) & 1 != first)
        # The rotated path: times t..T-1, then 1..t.
        rotated = (((code >> 1) & ((1 << (T - t)) - 1)) << t) | (code >> (T - t))
        return ok, np.stack([code, rotated], axis=1), (1, -1)

    def _deg3(self, d: np.ndarray):
        """:func:`deg3_sliding`: a, b and u, then the swap and reversal flags."""
        T = self.T
        a, b, u = d[:, 0] + 1, d[:, 1] + 1, d[:, 2] + 1
        ok = (a <= b) & (a + b <= T - 1) & (b <= u) & (u <= T - 1 - a)
        # Each path is a single step: k ones then T-k twos, where k = T is
        # the flat path of ones and k = 0 the flat path of twos.
        k = np.stack(
            [np.full_like(a, T), a, b, np.zeros_like(a), a + u, b + T - 1 - u], axis=1
        )
        k *= ok[:, None]  # a + u can pass T on a null draw
        step = (1 << (T - k)) - 1
        # Reversed in time, k ones then T-k twos become T-k twos then k ones.
        codes = step ^ (d[:, 4:5] * (step ^ self.full ^ ((1 << k) - 1)))
        codes ^= d[:, 3:4] * self.full
        return ok, codes, (1, 1, 1, -1, -1, -1)
