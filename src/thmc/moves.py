"""The six move families, their validators, enumerators, and the proposal sampler.

A move is a signed integer table z with A z = 0: adding it to a frequency
table preserves the transition statistic whenever no count goes negative.
Four families additionally preserve the initial-state frequencies; type II
degree-one moves and degree-3 sliding moves shift them by exactly one path.

Times are 1-based throughout, matching the (state, time) node convention of
move graphs.  The constructors build :class:`Move` objects on path tuples.
The proposal sampler decodes its parameter draws in numpy on path codes
(a path's encoding), family by family, following the same rules, and
checks the decoded rows in array form (:mod:`thmc._decode`).  Up to
``ENUMERATION_T_CAP`` each family's draw space is decoded once into a
lookup table, and a family's enumeration lists the moves of that table's
sign +1 slots, each in one sign, so it lists the moves the exact test
proposes by construction.  A basis sweep reads a selection with type I
moves on points instead (:mod:`thmc._points`), and any other from the
decoder's arrays of every draw of its families (:func:`_draws`); the
tests check that both give the same index at T = 3..8, and on that check
rests the claim that the moves a sweep certifies are the moves the test
proposes.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .core import MIN_T, Path, PathTable, decode, path_str

#: Cap on the path length accepted by the family enumerators.
ENUMERATION_T_CAP = 6

#: Proposals :class:`ProposalSampler` draws per block, and draws
#: :func:`_draws` decodes at once, which bounds the decoder's temporary
#: arrays.
_BLOCK = 2048

#: A proposal: the ``(path code, delta)`` entries of the signed move to add
#: to a table, in increasing code order.
Proposal = tuple[tuple[int, int], ...]


class Family(str, Enum):
    """Move family tags; the values are the tokens the CLI accepts."""

    TYPE1_DEG1 = "type1"
    CROSSING = "crossing"
    TWO_BY_TWO = "2x2"
    TYPE4 = "type4"
    TYPE2_DEG1 = "type2"
    DEG3_SLIDING = "deg3-sliding"


FAMILIES: tuple[Family, ...] = tuple(Family)


class MoveError(ValueError):
    """A move constructor's preconditions failed or the move degenerates to zero."""


class NegativityViolation(ValueError):
    """Applying a move would drive some count negative; the step must be rejected."""

    def __init__(self, path: Path, count: int) -> None:
        self.path = path
        self.count = count
        super().__init__(
            f"applying move drives count of path {path_str(path)} to {count}"
        )


@dataclass(frozen=True)
class Move:
    """A signed sparse integer table with balanced, statistic-preserving parts.

    ``deltas`` holds (path, nonzero signed count) pairs in encoding order.
    Construction checks a move's paths: it verifies each path's length and
    states and the order of the deltas, and accumulates the signed change
    of the transition counts and the mass in one pass; both must be zero,
    so the positive and negative parts carry the same mass and statistic.
    Paths of one length over {1, 2} compare as tuples in encoding order.
    The sampler's draws are not built as moves: they are checked for the
    same conditions in array form, on path codes (see
    :func:`thmc._decode.check`).
    """

    T: int
    family: Family
    deltas: tuple[tuple[Path, int], ...]

    def __post_init__(self) -> None:
        if not self.deltas:
            raise MoveError("zero move")
        T = self.T
        if T < MIN_T:
            raise ValueError(f"T must be >= {MIN_T}, got {T}")
        # Signed net change of (b11, b12, b21, b22, mass) over all deltas.
        net = [0, 0, 0, 0, 0]
        last: Path = ()
        for path, delta in self.deltas:
            if len(path) != T:
                raise ValueError(f"path length {len(path)} != expected T={T}")
            prev = 0
            for s in path:
                if s != 1 and s != 2:
                    raise ValueError(f"path entries must be 1 or 2, got {s!r}")
                if prev:
                    net[2 * prev + s - 3] += delta
                prev = s
            if path <= last:
                raise ValueError("move deltas must be sorted by path encoding")
            last = path
            if delta == 0:
                raise ValueError("move deltas must be nonzero")
            net[4] += delta
        if net[4]:
            raise ValueError(f"unbalanced move: net mass {net[4]:+d}")
        if any(net[:4]):
            raise ValueError(
                f"move does not preserve the transition statistic: "
                f"net change {tuple(net[:4])}"
            )

    @cached_property
    def degree(self) -> int:
        """Total count of the positive (equivalently negative) part."""
        return sum(d for _, d in self.deltas if d > 0)

    @cached_property
    def initial_shift(self) -> int:
        """Change in the initial-state-1 frequency when the move is added."""
        return sum(d for p, d in self.deltas if p[0] == 1)

    def canonical_items(self) -> tuple[tuple[Path, int], ...]:
        """Deltas with the global sign normalized.

        The sign is chosen so the support path with the smallest encoding
        carries a positive delta; used as the deduplication key.
        """
        if self.deltas[0][1] > 0:
            return self.deltas
        return tuple((p, -d) for p, d in self.deltas)

    def __repr__(self) -> str:
        return f"Move({self.family.value}, {format_move(self)!r})"


def format_move(move: Move) -> str:
    """Line-oriented text form: signed count and path, e.g. '+1 1121  -1 1211'."""
    pos = [(p, d) for p, d in move.deltas if d > 0]
    neg = [(p, d) for p, d in move.deltas if d < 0]
    return "  ".join(f"{d:+d} {path_str(p)}" for p, d in pos + neg)


def _collect(T: int, family: Family, signed: Iterable[tuple[Path, int]]) -> Move:
    """Accumulate signed path contributions, drop cancellations, build the move."""
    acc: dict[Path, int] = {}
    for path, delta in signed:
        acc[path] = acc.get(path, 0) + delta
    items = tuple(sorted((p, d) for p, d in acc.items() if d))
    if not items:
        raise MoveError("move degenerates to zero")
    return Move(T, family, items)


# ---------------------------------------------------------------------------
# Constructors


def type1_deg1(path: Iterable[int], t0: int, t1: int, t2: int) -> Move:
    """Degree-one move rearranging one path between three visits to a state.

    Requires s_{t0} = s_{t1} = s_{t2} = i with t0 < t1 < t2 and some state
    different from i strictly between t0 and t2.  The returned move carries
    +1 on the path and -1 on the path with the segment [t0, t2] reordered to
    (s_{t1}..s_{t2-1}, s_{t0}..s_{t1}); both initial frequencies and the
    transition statistic are preserved.
    """
    path = tuple(path)
    T = len(path)
    if not (1 <= t0 < t1 < t2 <= T):
        raise MoveError(f"times must satisfy 1 <= t0 < t1 < t2 <= {T}")
    i = path[t0 - 1]
    if path[t1 - 1] != i or path[t2 - 1] != i:
        raise MoveError("path must visit the same state at t0, t1 and t2")
    if not any(path[t - 1] != i for t in range(t0 + 1, t2)):
        raise MoveError("path must leave the pivot state strictly between t0 and t2")
    swapped = (
        path[: t0 - 1] + path[t1 - 1 : t2 - 1] + path[t0 - 1 : t1] + path[t2:]
    )
    return _collect(T, Family.TYPE1_DEG1, [(path, +1), (swapped, -1)])


def crossing_swap(path1: Iterable[int], path2: Iterable[int], t: int) -> Move:
    """Suffix exchange between two paths meeting at the node (i, t).

    The move graph of the result has no edge: the two sides carry exactly
    the same per-time transition counts.
    """
    p1, p2 = tuple(path1), tuple(path2)
    T = len(p1)
    if len(p2) != T:
        raise ValueError(f"path length {len(p2)} != expected T={T}")
    if not 1 <= t <= T:
        raise MoveError(f"t must lie in 1..{T}")
    if p1[t - 1] != p2[t - 1]:
        raise MoveError(f"paths do not meet at time {t}")
    q1 = p1[:t] + p2[t:]
    q2 = p2[:t] + p1[t:]
    return _collect(
        T, Family.CROSSING, [(p1, +1), (p2, +1), (q1, -1), (q2, -1)]
    )


_2X2_WINDOWS = {
    # pattern -> ((path1 window at t0, path1 window at t1),
    #             (path2 window at t0, path2 window at t1))
    "A": (((1, 1), (1, 2)), ((2, 2), (2, 1))),
    "B": (((1, 1), (2, 1)), ((2, 2), (1, 2))),
}


def _paste_windows(
    T: int,
    t0: int,
    t1: int,
    w0: tuple[int, int],
    w1: tuple[int, int],
    prefix: Path,
    interior: Path,
    suffix: Path,
) -> Path:
    if len(prefix) != t0 - 1:
        raise MoveError(f"prefix must have length {t0 - 1}, got {len(prefix)}")
    if len(suffix) != T - t1 - 1:
        raise MoveError(f"suffix must have length {T - t1 - 1}, got {len(suffix)}")
    if t1 == t0 + 1:
        if interior:
            raise MoveError("no interior positions exist when t1 == t0 + 1")
        if w0[1] != w1[0]:
            raise MoveError("window states conflict at the shared position")
        return prefix + (w0[0], w0[1], w1[1]) + suffix
    if len(interior) != t1 - t0 - 2:
        raise MoveError(
            f"interior must have length {t1 - t0 - 2}, got {len(interior)}"
        )
    return prefix + w0 + interior + w1 + suffix


def two_by_two_swap(
    T: int,
    pattern: str,
    t0: int,
    t1: int,
    prefix1: Iterable[int] = (),
    interior1: Iterable[int] = (),
    suffix1: Iterable[int] = (),
    prefix2: Iterable[int] = (),
    interior2: Iterable[int] = (),
    suffix2: Iterable[int] = (),
) -> Move:
    """Degree-two move exchanging the interior segments of two paths.

    The two paths carry anti-aligned transition windows at t0 and t1:
    pattern 'A' puts (1,1)@t0, (1,2)@t1 on the first path against
    (2,2)@t0, (2,1)@t1 on the second; pattern 'B' uses (1,1), (2,1) against
    (2,2), (1,2).  Exchanging positions t0+1..t1 between the paths yields a
    move whose graph is +-{11,22} at t0 against -+{12,21}, reversed at t1.
    Contexts fill the positions the pattern does not force.
    """
    if pattern not in _2X2_WINDOWS:
        raise MoveError(f"pattern must be 'A' or 'B', got {pattern!r}")
    if T < MIN_T:
        raise MoveError(f"T must be >= {MIN_T}")
    if not (1 <= t0 < t1 <= T - 1):
        raise MoveError(f"times must satisfy 1 <= t0 < t1 <= {T - 1}")
    (w10, w11), (w20, w21) = _2X2_WINDOWS[pattern]
    ctx = [tuple(c) for c in
           (prefix1, interior1, suffix1, prefix2, interior2, suffix2)]
    p1 = _paste_windows(T, t0, t1, w10, w11, ctx[0], ctx[1], ctx[2])
    p2 = _paste_windows(T, t0, t1, w20, w21, ctx[3], ctx[4], ctx[5])
    q1 = p1[:t0] + p2[t0:t1] + p1[t1:]
    q2 = p2[:t0] + p1[t0:t1] + p2[t1:]
    return _collect(
        T, Family.TWO_BY_TWO, [(p1, +1), (p2, +1), (q1, -1), (q2, -1)]
    )


def type4_move(
    T: int,
    t0: int,
    t1: int,
    prefix1: Iterable[int] = (),
    suffix1: Iterable[int] = (),
    prefix2: Iterable[int] = (),
    suffix2: Iterable[int] = (),
    swap_states: bool = False,
) -> Move:
    """Width-3 window trade between two paths, swapping (1,1,2) against (1,2,2).

    The first path carries the window (1,1,2) at positions t0..t0+2, the
    second carries (1,2,2) at t1..t1+2; the move replaces the first window
    by (1,2,2) and the second by (1,1,2), trading one 1->1 transition for
    one 2->2 between the paths.  With ``swap_states`` the windows become
    (2,2,1) and (2,1,1); ranging over ordered (t0, t1) pairs this also
    realizes the time reflections.  Coincident paths accumulate into
    multiplicity-2 deltas.
    """
    if T < 4:
        raise MoveError("window trades need T >= 4")
    if t0 == t1:
        raise MoveError("t0 and t1 must differ")
    for t in (t0, t1):
        if not 1 <= t <= T - 2:
            raise MoveError(f"width-3 window at t={t} does not fit in T={T}")
    win_a, win_b = ((1, 1, 2), (1, 2, 2))
    if swap_states:
        win_a, win_b = ((2, 2, 1), (2, 1, 1))
    ctx = [tuple(c) for c in (prefix1, suffix1, prefix2, suffix2)]
    if len(ctx[0]) != t0 - 1 or len(ctx[1]) != T - t0 - 2:
        raise MoveError("path-1 context lengths do not match t0")
    if len(ctx[2]) != t1 - 1 or len(ctx[3]) != T - t1 - 2:
        raise MoveError("path-2 context lengths do not match t1")
    p1 = ctx[0] + win_a + ctx[1]
    p2 = ctx[2] + win_b + ctx[3]
    q1 = ctx[0] + win_b + ctx[1]
    q2 = ctx[2] + win_a + ctx[3]
    return _collect(T, Family.TYPE4, [(p1, +1), (p2, +1), (q1, -1), (q2, -1)])


def type2_deg1(path: Iterable[int], t: int) -> Move:
    """Degree-one rotation of a non-flat cycle, shifting one initial state.

    Requires s_1 = s_T = i and s_t = j != i for the given 1 < t < T.  The
    move carries +1 on the path and -1 on its rotation
    (s_t, ..., s_{T-1}, s_1, ..., s_t), which starts at j: the transition
    statistic is preserved while the initial frequencies shift by one path
    from i to j.
    """
    path = tuple(path)
    T = len(path)
    if not 1 < t < T:
        raise MoveError(f"t must satisfy 1 < t < {T}")
    if path[0] != path[-1]:
        raise MoveError("path must start and end at the same state")
    if path[t - 1] == path[0]:
        raise MoveError("path must visit the other state at time t")
    rotated = path[t - 1 : T - 1] + path[:t]
    return _collect(T, Family.TYPE2_DEG1, [(path, +1), (rotated, -1)])


def _flat(T: int, state: int) -> Path:
    return (state,) * T

def _single_step(T: int, k: int) -> Path:
    """k ones then T-k twos: the single step from 1 to 2 at time k."""
    return (1,) * k + (2,) * (T - k)


def deg3_sliding(
    T: int,
    a: int,
    b: int,
    u: int,
    state_swap: bool = False,
    time_reverse: bool = False,
) -> Move:
    """Degree-3 sliding move between a flat path and two single-step paths.

    For 1 <= a <= b <= T-1 with a + b <= T-1 and b <= u <= T-1-a, the
    positive side is {flat-1, step@a, step@b} and the negative side is
    {flat-2, step@(a+u), step@(b+T-1-u)} (multisets; coincident paths
    accumulate).  The initial frequencies shift by (+1, -1).  The flags
    produce the state-swapped and time-reversed variants.
    """
    if not (1 <= a <= b <= T - 1):
        raise MoveError(f"need 1 <= a <= b <= {T - 1}")
    if a + b > T - 1:
        raise MoveError(f"need a + b <= {T - 1}")
    if not (b <= u <= T - 1 - a):
        raise MoveError(f"u must lie in [{b}, {T - 1 - a}]")
    w_pos = [_flat(T, 1), _single_step(T, a), _single_step(T, b)]
    w_neg = [_flat(T, 2), _single_step(T, a + u), _single_step(T, b + T - 1 - u)]

    def variant(p: Path) -> Path:
        if state_swap:
            p = tuple(3 - s for s in p)
        if time_reverse:
            p = p[::-1]
        return p

    signed = [(variant(p), +1) for p in w_pos] + [(variant(p), -1) for p in w_neg]
    return _collect(T, Family.DEG3_SLIDING, signed)


# ---------------------------------------------------------------------------
# Move graphs and application


@dataclass(frozen=True)
class MoveGraph:
    """Per-time signed transition deltas z^t_{ij} of a move.

    ``steps[t-1]`` is the 4-tuple (z11, z12, z21, z22) at time t; edges of
    a drawn move graph are the nonzero entries, solid for positive and
    dotted for negative, labeled with the magnitude when it exceeds one.
    """

    T: int
    steps: tuple[tuple[int, int, int, int], ...]

    def total(self) -> tuple[int, int, int, int]:
        """Sum over time of each transition delta (zero for any valid move)."""
        return tuple(sum(col) for col in zip(*self.steps))  # type: ignore[return-value]

    def is_empty(self) -> bool:
        return all(v == 0 for step in self.steps for v in step)


def move_graph(move: Move) -> MoveGraph:
    """Per-time transition deltas of a move."""
    steps = [[0, 0, 0, 0] for _ in range(move.T - 1)]
    for path, delta in move.deltas:
        for t, (a, c) in enumerate(zip(path, path[1:])):
            steps[t][(a - 1) * 2 + (c - 1)] += delta
    return MoveGraph(move.T, tuple(tuple(s) for s in steps))


def apply_move(table: PathTable, move: Move, sign: int = 1) -> PathTable:
    """table + sign * move, raising :class:`NegativityViolation` when infeasible.

    The violation names the first offending path in encoding order, the
    signal that an MCMC proposal must be rejected (the chain stays put).
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if table.T != move.T:
        raise ValueError(f"table has T={table.T}, move has T={move.T}")
    counts = dict(table.counts)
    for path, delta in move.deltas:
        new = counts.get(path, 0) + sign * delta
        if new < 0:
            raise NegativityViolation(path, new)
        counts[path] = new
    return PathTable(table.T, counts)


# ---------------------------------------------------------------------------
# Enumeration


@lru_cache(maxsize=None)
def _enumerate_family_cached(T: int, family: Family) -> tuple[Move, ...]:
    """Every move the sampler can draw for one family: the proposals at
    the sign +1 slots of its lookup table, each move in the sign whose
    first delta is positive, sorted.  Path codes sort as their paths do, so
    the moves sort as their deltas do."""
    drawn = set(_lookup_table(T, family)[::2].tolist()) - {None}
    return tuple(
        Move(T, family, tuple((decode(c, T), d) for c, d in entries))
        for entries in sorted(
            {e if e[0][1] > 0 else tuple((c, -d) for c, d in e) for e in drawn}
        )
    )


def _check_enumeration_T(T: int) -> None:
    if T < MIN_T:
        raise ValueError(f"T must be >= {MIN_T}, got {T}")
    if T > ENUMERATION_T_CAP:
        raise ValueError(f"enumeration is capped at T <= {ENUMERATION_T_CAP}, got {T}")


def enumerate_family(T: int, family: Family | str) -> list[Move]:
    """All moves of one family at length T, deduplicated up to global sign.

    The list holds every move :class:`ProposalSampler` can draw for the
    family; T is capped (``ENUMERATION_T_CAP``) because the counts grow quickly.
    """
    _check_enumeration_T(T)
    return list(_enumerate_family_cached(T, Family(family)))


def enumerate_families(
    T: int, families: Iterable[Family | str] | None = None
) -> list[Move]:
    """Concatenated family enumerations (all six families by default)."""
    fams = FAMILIES if families is None else tuple(Family(f) for f in families)
    out: list[Move] = []
    for fam in fams:
        out.extend(enumerate_family(T, fam))
    return out


# ---------------------------------------------------------------------------
# Decoded draws


@lru_cache(maxsize=None)
def _decoder(T: int):
    """The array decoder of the draws at length T.

    Its module is imported here, on first use, so a command that decodes no
    draw does not compile it.
    """
    from ._decode import Decoder

    return Decoder(T)


def _draws(T: int, family: Family) -> Iterator[tuple]:
    """Every draw of one family at sign slot 0, decoded ``_BLOCK`` at a
    time: the flat index of each chunk's first draw, and the arrays
    :meth:`thmc._decode.Decoder.merged` gives for the chunk.  The draws run
    over ``Decoder.highs`` in flat-index order, a whole path or type IV
    context as one code slot.  T is not capped."""
    dec = _decoder(T)
    highs, strides = dec.highs[family], dec.strides[family]
    size = 2 * int(np.prod(highs[:-1]))
    for lo in range(0, size, 2 * _BLOCK):
        flat = np.arange(lo, min(lo + 2 * _BLOCK, size), 2)
        yield lo, *dec.merged([(family, flat[:, None] // strides % highs)])


def proposals(codes: np.ndarray, deltas: np.ndarray, bounds: np.ndarray) -> list[Proposal]:
    """The rows of :meth:`thmc._decode.Decoder.merged`'s flat arrays as
    tuples of ``(code, delta)`` entries, row i from ``bounds[i]`` up to
    ``bounds[i + 1]``: the one place decoded rows become tuples."""
    lo, hi = bounds[0], bounds[-1]
    pairs = list(zip(codes[lo:hi].tolist(), deltas[lo:hi].tolist()))
    cuts = (bounds - lo).tolist()
    return [tuple(pairs[a:b]) for a, b in zip(cuts, cuts[1:])]


@lru_cache(maxsize=None)
def _lookup_table(T: int, family: Family) -> np.ndarray:
    """Every draw of one family, decoded: a 1-D object array that holds by
    flat draw index (sign slot last) each draw's proposal, or None for a
    null draw: the move at the even index, its negation at the odd one,
    shared by the draws of one move.  It is filled element by element,
    since ``np.array`` of a list of tuples would come out 2-D.

    Cached, so the samplers and the family listings of one T share one
    table per family.  Only T <= ``ENUMERATION_T_CAP`` reads it, so the
    cache stays small: the six tables hold about 2.5 MiB at T = 6 and
    0.04 MiB at T = 4 (``tracemalloc``).
    """
    table = np.empty(2 * int(np.prod(_decoder(T).highs[family][:-1])), dtype=object)
    shared: dict = {}
    for lo, index, codes, deltas, starts in _draws(T, family):
        bounds = np.append(starts, len(codes))
        for i, e in zip(index.tolist(), proposals(codes, deltas, bounds)):
            if e not in shared:
                shared[e] = e, tuple((c, -d) for c, d in e)
            table[lo + 2 * i], table[lo + 2 * i + 1] = shared[e]
    return table


#: Longest path the sampler takes: it codes paths as int64 numerals and
#: shifts them by up to T bits.
MAX_SAMPLER_T = 62


def _family_weight(key: object, value: float | str) -> tuple[Family, float]:
    """One entry of a weights mapping, a family or its token and a finite
    number >= 0, as ``(family, weight)``; raise as ``--weights`` reports."""
    if key not in FAMILIES:
        tokens = sorted(f.value for f in FAMILIES)
        raise ValueError(f"unknown family {key!r}; expected one of {tokens}")
    family = Family(key)
    try:
        weight = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"bad weight {value!r} for family {family.value!r}") from None
    if not 0 <= weight < math.inf:
        raise ValueError(f"weight for {family.value!r} must be finite and nonnegative")
    return family, weight


def _normalize_weights(weights: Mapping[Family | str, float] | None) -> tuple[float, ...]:
    """The weight of each family in ``FAMILIES`` order, out of a total of 1:
    uniform for None, else each entry of the mapping (see
    :func:`_family_weight`) over their sum, taken in the mapping's order.
    The sum must be positive and finite."""
    if weights is None:
        return tuple([1.0 / len(FAMILIES)] * len(FAMILIES))
    if not isinstance(weights, Mapping):
        raise TypeError(f"family weights must be a mapping, got {type(weights).__name__}")
    raw = dict(_family_weight(k, w) for k, w in weights.items())
    total = sum(raw.values())
    if not 0 < total < math.inf:
        raise ValueError("family weights must have a positive, finite sum")
    return tuple(raw.get(f, 0.0) / total for f in FAMILIES)


class ProposalSampler:
    """Symmetric random proposal over all six families.

    A family is drawn by weight, its parameters uniformly from a
    table-independent space (times over their admissible ranges from T
    alone, states as fair bits), and a fair sign independently.  A whole
    path, or a type IV context, of L states is drawn as one code uniform
    in ``[0, 2**L)``, which is L fair bits.  Parameter
    draws violating a family's preconditions yield a null proposal.  Since
    the sign is independent and fair, the induced distribution over signed
    moves satisfies q(z) = q(-z), and every constructible move of every
    family has positive probability.

    A proposal is the signed move a draw gives: the ``(code, delta)``
    entries, by code, of the family constructor's move times the sign.

    Proposals are drawn in blocks of ``_BLOCK`` (2,048) from ``rng``, the
    ``random.Random`` the sampler is built with, and from no other:
    :func:`thmc._decode.uniforms` picks the block's
    families from 53-bit doubles, then one :func:`thmc._decode.bounded`
    call per family drawn fills that family's rows, parameter slots and
    sign slot together, each slot exactly uniform by masked rejection.
    Both read the generator's ``randbytes`` as explicitly little-endian
    words, so the stream does not depend on the machine's byte order.
    Each draw keeps the law above, independent of the others, so only the
    random stream differs from drawing one proposal at a time.
    :meth:`sample` returns the next unused proposal of the current block;
    :meth:`span` hands out the unused draws as positions in the block
    itself, which is how the MH chain reads them.

    ``weights`` is None (uniform) or a mapping of family, or token, to a
    finite weight >= 0 (0 if left out), each divided by their positive,
    finite sum (:func:`_normalize_weights`).

    Draws are decoded in numpy, on path codes, and each decoded row is
    checked in array form (zero mass and net transition statistic).  A
    block starts with the increasing array of the draw slots that give a
    move.  Up to ``ENUMERATION_T_CAP`` each family's whole draw space is
    decoded once, on first use, into a lookup table by flat draw index
    (:func:`_lookup_table`, shared by every sampler of that T), whose moves
    :func:`enumerate_family` lists, and a block is ``(slots,
    moves)``, those slots' proposals gathered from the tables.  Above the
    cap a block is decoded as drawn into ``(slots, codes, deltas,
    bounds)``: the rows' codes and sign-applied deltas, flat, and each
    row's bounds in them, which the MH chain screens against its counts.
    T is capped at ``MAX_SAMPLER_T``, where codes still fit an int64.
    """

    def __init__(
        self,
        T: int,
        rng: random.Random,
        weights: Mapping[Family | str, float] | None = None,
    ) -> None:
        if T < MIN_T:
            raise ValueError(f"T must be >= {MIN_T}, got {T}")
        if T > MAX_SAMPLER_T:
            raise ValueError(
                f"T must be <= {MAX_SAMPLER_T} for proposals, got {T}: "
                f"path codes are int64"
            )
        self.T = T
        self.rng = rng
        self.weights = _normalize_weights(weights)
        # Upper bounds of the families' slices of [0, 1).  The weights may
        # sum to a hair off 1, so the last family with positive weight
        # also takes every draw at or above the last cumulative sum.
        last = max(i for i, w in enumerate(self.weights) if w > 0)
        bounds = list(itertools.accumulate(self.weights))
        bounds[last:] = [math.inf] * (len(FAMILIES) - last)
        self._bounds = np.array(bounds)
        self._decoder = _decoder(T)
        self._highs = self._decoder.highs
        # The current block (see the class docstring) and the position of
        # its first unused draw; the first call draws a block.
        self._block: tuple = ()
        self._next = _BLOCK

    def sample(self) -> Optional[Proposal]:
        """The next proposal: the draw :meth:`span` hands out, or None for
        a null draw."""
        block, slot, _ = self.span(1)
        slots = block[0]
        row = int(np.searchsorted(slots, slot))
        if row == len(slots) or slots[row] != slot:
            return None
        if len(block) == 2:
            return block[1][row]
        _, codes, deltas, bounds = block
        return proposals(codes, deltas, bounds[row : row + 2])[0]

    def span(self, m: int) -> tuple[tuple, int, int]:
        """Hand out the next unused draws of the current block, at most
        ``m`` (at least 1): the block and the positions ``start`` to
        ``stop - 1`` of the draws.  A new block is drawn when the current
        one is spent."""
        if self._next == _BLOCK:
            self._draw_block()
        start = self._next
        self._next = min(start + m, _BLOCK)
        return self._block, start, self._next

    def _draw_block(self) -> None:
        """Draw the next ``_BLOCK`` proposals; ``ENUMERATION_T_CAP`` is
        read at each block."""
        from ._decode import bounded, uniforms

        rng = self.rng
        fams = np.searchsorted(self._bounds, uniforms(rng, _BLOCK), side="right")
        drawn = []
        for i, fam in enumerate(FAMILIES):
            slots = np.flatnonzero(fams == i)
            if len(slots):
                highs = self._highs[fam]
                draws = bounded(rng, highs, len(slots))
                drawn.append((fam, slots, draws))
        if self.T > ENUMERATION_T_CAP:
            slots = np.concatenate([s for _, s, _ in drawn])
            parts = [(f, d) for f, _, d in drawn]
            rows, codes, deltas, starts = self._decoder.merged(parts, slots)
            self._block = rows, codes, deltas, np.append(starts, len(codes))
        else:
            block = np.empty(_BLOCK, dtype=object)
            for fam, slots, draws in drawn:
                table = _lookup_table(self.T, fam)  # cached
                block[slots] = table[draws @ self._decoder.strides[fam]]
            slots = np.flatnonzero(block)
            self._block = slots, block[slots].tolist()
        self._next = 0
