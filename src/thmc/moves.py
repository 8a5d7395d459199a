"""The six move families, their validators, enumerators, and the proposal sampler.

A move is a signed integer table z with A z = 0: adding it to a frequency
table preserves the transition statistic whenever no count goes negative.
Four families additionally preserve the initial-state frequencies; type II
degree-one moves and degree-3 sliding moves shift them by exactly one path.

Times are 1-based throughout, matching the (state, time) node convention of
move graphs.  A family's enumeration is every move the proposal sampler can
draw for it, so the moves a basis sweep certifies are the moves the exact
test proposes.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .core import MIN_T, Path, PathTable, path_str

#: Cap on the path length accepted by the family enumerators.
ENUMERATION_T_CAP = 6


class Family(str, Enum):
    """Move family tags; the values are the tokens the CLI accepts."""

    TYPE1_DEG1 = "type1"
    CROSSING = "crossing"
    TWO_BY_TWO = "2x2"
    TYPE4 = "type4"
    TYPE2_DEG1 = "type2"
    DEG3_SLIDING = "deg3-sliding"


FAMILIES: tuple[Family, ...] = tuple(Family)

#: Families that preserve the initial-state frequencies.
INITIAL_PRESERVING = frozenset(
    {Family.TYPE1_DEG1, Family.CROSSING, Family.TWO_BY_TWO, Family.TYPE4}
)


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
    Construction is the one check of a move's paths: it verifies each
    path's length and states and the order of the deltas, and accumulates
    the signed change of the transition counts and the mass in one pass;
    both must be zero, so the positive and negative parts carry the same
    mass and statistic.  Paths of one length over {1, 2} compare as tuples
    in encoding order.
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

    def canonical(self) -> "Move":
        items = self.canonical_items()
        return self if items is self.deltas else Move(self.T, self.family, items)

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
    if swapped == path:
        raise MoveError("move degenerates to zero")
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


def _dedup(moves: Iterable[Move]) -> list[Move]:
    """Keep one move per canonical signed form, in deterministic order."""
    seen: dict[tuple, Move] = {}
    for m in moves:
        key = m.canonical_items()
        if key not in seen:
            seen[key] = m.canonical()
    return [seen[k] for k in sorted(seen)]


@lru_cache(maxsize=None)
def _enumerate_family_cached(T: int, family: Family) -> tuple[Move, ...]:
    """Every move the sampler can draw for one family, deduplicated.

    Walks each parameter draw of :class:`ProposalSampler` with the sign
    slot fixed and skips the draws that yield a null proposal, so the
    enumerated set is exactly the set the chain proposes.
    """
    sampler = ProposalSampler(T)
    draws = itertools.product(*map(range, sampler._highs[family][:-1]))
    moves = (sampler._try_build(family, d + (0,)) for d in draws)
    return tuple(_dedup(m for m in moves if m is not None))


def enumerate_family(T: int, family: Family | str) -> list[Move]:
    """All moves of one family at length T, deduplicated up to global sign.

    The list holds every move :class:`ProposalSampler` can draw for the
    family; T is capped (``ENUMERATION_T_CAP``) because the counts grow quickly.
    """
    if T < MIN_T:
        raise ValueError(f"T must be >= {MIN_T}, got {T}")
    if T > ENUMERATION_T_CAP:
        raise ValueError(f"enumeration is capped at T <= {ENUMERATION_T_CAP}, got {T}")
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
# Random proposal sampling


def _normalize_weights(
    weights: Mapping[Family | str, float] | Sequence[float] | None,
) -> tuple[float, ...]:
    if weights is None:
        return tuple([1.0 / len(FAMILIES)] * len(FAMILIES))
    if isinstance(weights, Mapping):
        unknown = [k for k in weights if k not in FAMILIES]
        if unknown:
            raise ValueError(
                f"unknown family weight key(s) {', '.join(map(repr, unknown))}; "
                f"expected {', '.join(f.value for f in FAMILIES)}"
            )
        vec = [float(weights.get(f, weights.get(f.value, 0.0))) for f in FAMILIES]
    else:
        vec = [float(w) for w in weights]
        if len(vec) != len(FAMILIES):
            raise ValueError(f"expected {len(FAMILIES)} weights, got {len(vec)}")
    if not all(0 <= w < math.inf for w in vec):
        raise ValueError(f"family weights must be finite and nonnegative, got {vec}")
    if abs(sum(vec) - 1.0) > 1e-9:
        raise ValueError(f"family weights must sum to 1, got {sum(vec)}")
    return tuple(vec)


class ProposalSampler:
    """Symmetric random proposal over all six families.

    A family is drawn by weight, its parameters uniformly from a
    table-independent space (times over their admissible ranges from T
    alone, states as fair bits), and a fair sign independently.  Parameter
    draws violating a family's preconditions yield a null proposal.  Since
    the sign is independent and fair, the induced distribution over signed
    moves satisfies q(z) = q(-z), and every constructible move of every
    family has positive probability.

    Up to ``ENUMERATION_T_CAP`` each parameter draw is decoded and
    validated once: its move (or null) is memoised by family and draw
    without the sign slot, and repeats look it up.  Memoising changes no
    random call, so a seed gives the same proposals either way.
    """

    def __init__(
        self,
        T: int,
        weights: Mapping[Family | str, float] | Sequence[float] | None = None,
    ) -> None:
        if T < MIN_T:
            raise ValueError(f"T must be >= {MIN_T}, got {T}")
        self.T = T
        self.weights = _normalize_weights(weights)
        # Upper bounds of the families' slices of [0, 1).  The weights may
        # sum to a hair under 1, so the last family with positive weight
        # also takes every draw at or above the last cumulative sum.
        last = max(i for i, w in enumerate(self.weights) if w > 0)
        self._bounds = list(itertools.accumulate(self.weights))
        self._bounds[last:] = [math.inf] * (len(FAMILIES) - last)
        self._time_triples = list(itertools.combinations(range(1, T + 1), 3))
        self._2x2_pairs = [
            (t0, t1) for t0 in range(1, T - 1) for t1 in range(t0 + 1, T)
        ]
        ctx = [2] * (2 * (T - 3))
        highs = {
            Family.TYPE1_DEG1: [2] * T + [len(self._time_triples)],
            Family.CROSSING: [2] * (2 * T) + [T],
            Family.TWO_BY_TWO: [2, len(self._2x2_pairs)] + ctx,
            Family.TYPE4: [2, T - 2, T - 2] + ctx if T >= 4 else [],
            Family.TYPE2_DEG1: [2] * T + [T - 2],
            Family.DEG3_SLIDING: [T - 1, T - 1, T - 1, 2, 2],
        }
        # Every draw ends in the fair sign slot.
        self._highs = {
            f: np.array(h + [2], dtype=np.int64) for f, h in highs.items()
        }
        # Built move (or None for a null draw) per family and draw without
        # its sign slot.  Kept only where ``enumerate_family`` walks the
        # whole draw space: above that cap draws rarely repeat.
        self._cache: Optional[dict[tuple[Family, bytes], Optional[Move]]] = (
            {} if T <= ENUMERATION_T_CAP else None
        )

    def sample(self, rng: np.random.Generator) -> Optional[tuple[Move, int]]:
        """One proposal draw: a (move, sign) pair or None."""
        fam = FAMILIES[bisect.bisect_right(self._bounds, rng.random())]
        draws = rng.integers(0, self._highs[fam])
        cache = self._cache
        if cache is None:
            move = self._try_build(fam, draws.tolist())
        else:
            key = (fam, draws[:-1].tobytes())
            try:
                move = cache[key]
            except KeyError:
                move = cache[key] = self._try_build(fam, draws.tolist())
        if move is None:
            return None
        return move, 1 if draws[-1] == 0 else -1

    def _try_build(self, fam: Family, d: Sequence[int]) -> Optional[Move]:
        """:meth:`_build`, with None for a draw that yields no move."""
        try:
            return self._build(fam, d)
        except MoveError:
            return None

    def _build(self, fam: Family, d: Sequence[int]) -> Move:
        """Decode one parameter draw (sign slot last, unused here) into a move."""
        T = self.T
        if fam is Family.TYPE1_DEG1:
            (path,) = _split_states(d, T)
            t0, t1, t2 = self._time_triples[d[T]]
            return type1_deg1(path, t0, t1, t2)
        if fam is Family.CROSSING:
            p1, p2 = _split_states(d, T, T)
            return crossing_swap(p1, p2, d[2 * T] + 1)
        if fam is Family.TWO_BY_TWO:
            pattern = "A" if d[0] == 0 else "B"
            t0, t1 = self._2x2_pairs[d[1]]
            mid = max(t1 - t0 - 2, 0)
            ctx = _split_states(
                d[2:-1], t0 - 1, mid, T - t1 - 1, t0 - 1, mid, T - t1 - 1
            )
            return two_by_two_swap(T, pattern, t0, t1, *ctx)
        if fam is Family.TYPE4:
            if T < 4:
                raise MoveError("window trades need T >= 4")
            t0, t1 = d[1] + 1, d[2] + 1
            ctx = _split_states(d[3:-1], t0 - 1, T - t0 - 2, t1 - 1, T - t1 - 2)
            return type4_move(T, t0, t1, *ctx, swap_states=bool(d[0]))
        if fam is Family.TYPE2_DEG1:
            (path,) = _split_states(d, T)
            return type2_deg1(path, d[T] + 2)
        if fam is Family.DEG3_SLIDING:
            a, b, u = d[0] + 1, d[1] + 1, d[2] + 1
            return deg3_sliding(
                T, a, b, u, state_swap=bool(d[3]), time_reverse=bool(d[4])
            )
        raise AssertionError(fam)


def _split_states(bits: Sequence[int], *lengths: int) -> list[Path]:
    """Cut leading fair-bit draws into consecutive state runs of the given lengths."""
    out, pos = [], 0
    for ln in lengths:
        out.append(tuple(v + 1 for v in bits[pos : pos + ln]))
        pos += ln
    return out

