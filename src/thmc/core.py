"""Paths, frequency tables, sufficient statistics, and configuration matrices.

A length-T path over the two states {1, 2} is the atomic observation.  A
dataset of n paths is a sparse nonnegative frequency table over {1,2}^T.
The no-initial-parameter chain model has the 4-vector of total transition
counts (b11, b12, b21, b22) as its sufficient statistic; the variant with
initial-state parameters additionally keeps the two initial-state
frequencies.

All types in this module are immutable values after construction and safe
to share across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

#: Minimum admissible path length.
MIN_T = 3

#: Configuration matrices and other walks over all 2**T cells refuse to run
#: past this length; sparse tables themselves carry no such limit.
DENSE_T_CAP = 24

Path = tuple[int, ...]

_STATES = (1, 2)


def as_path(states: Iterable[int], T: int | None = None) -> Path:
    """Validate a state sequence and return it as a canonical tuple.

    Entries must be 1 or 2 and the length must be at least 3 (and equal to
    ``T`` when given).
    """
    path = tuple(int(s) for s in states)
    if len(path) < MIN_T:
        raise ValueError(f"path length must be >= {MIN_T}, got {len(path)}")
    if T is not None and len(path) != T:
        raise ValueError(f"path length {len(path)} != expected T={T}")
    for s in path:
        if s not in _STATES:
            raise ValueError(f"path entries must be 1 or 2, got {s}")
    return path


def path_str(path: Path) -> str:
    """Render a path as a digit string, e.g. (1, 2, 1) -> '121'."""
    return "".join(str(s) for s in path)


def parse_path(text: str, T: int | None = None) -> Path:
    """Parse a digit string like '1121' into a path."""
    try:
        states = [int(c) for c in text.strip()]
    except ValueError:
        raise ValueError(f"invalid path string {text!r}") from None
    return as_path(states, T)


def encode(path: Path) -> int:
    """Index of a path, reading it as a T-digit base-2 numeral.

    State 1 maps to digit 0 with the most significant digit at t=1, so the
    all-ones path is index 0 and enumeration order is lexicographic.
    """
    idx = 0
    for s in path:
        idx = (idx << 1) | (s - 1)
    return idx


def decode(index: int, T: int) -> Path:
    """Inverse of :func:`encode`; raises on indices outside [0, 2**T)."""
    if T < MIN_T:
        raise ValueError(f"T must be >= {MIN_T}, got {T}")
    if not 0 <= index < (1 << T):
        raise ValueError(f"path index {index} out of range for T={T}")
    return tuple(((index >> (T - 1 - t)) & 1) + 1 for t in range(T))


def all_paths(T: int) -> Iterator[Path]:
    """All paths of length T in encoding (lexicographic) order."""
    if T < MIN_T:
        raise ValueError(f"T must be >= {MIN_T}, got {T}")
    return itertools.product(_STATES, repeat=T)


@dataclass(frozen=True)
class TransitionStat:
    """Total counts of the four ordered transitions over all time steps."""

    b11: int
    b12: int
    b21: int
    b22: int

    def __post_init__(self) -> None:
        # Python ints >= 0, as a sweep makes them, pass in one test; any
        # other values get each field's own check and message.
        b11, b12, b21, b22 = self.b11, self.b12, self.b21, self.b22
        if (type(b11) is type(b12) is type(b21) is type(b22) is int
                and b11 >= 0 and b12 >= 0 and b21 >= 0 and b22 >= 0):
            return
        for name in ("b11", "b12", "b21", "b22"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.b11, self.b12, self.b21, self.b22)

    def total(self) -> int:
        return self.b11 + self.b12 + self.b21 + self.b22

    def swapped(self) -> "TransitionStat":
        """Image under the global state relabeling 1 <-> 2."""
        return TransitionStat(self.b22, self.b21, self.b12, self.b11)


def transitions(path: Path) -> TransitionStat:
    """Counts of the four ordered transitions along one path (sum T-1)."""
    path = as_path(path)
    b = [0, 0, 0, 0]
    for a, c in zip(path, path[1:]):
        b[(a - 1) * 2 + (c - 1)] += 1
    return TransitionStat(*b)


class PathTable:
    """Sparse nonnegative-integer frequency table over {1,2}^T.

    Stored counts are strictly positive (absent paths count zero); entries
    with zero count passed to the constructor are dropped, negative counts
    are rejected.  Instances are immutable and hashable.
    """

    __slots__ = ("_T", "_counts", "_items", "_n", "_hash")

    def __init__(
        self,
        T: int,
        counts: Mapping[Path, int] | Iterable[tuple[Path, int]] = (),
    ) -> None:
        if T < MIN_T:
            raise ValueError(f"T must be >= {MIN_T}, got {T}")
        pairs = counts.items() if isinstance(counts, Mapping) else counts
        acc: dict[Path, int] = {}
        for path, count in pairs:
            path = as_path(path, T)
            count = int(count)
            if count < 0:
                raise ValueError(f"negative count {count} for path {path_str(path)}")
            if count:
                acc[path] = acc.get(path, 0) + count
        object.__setattr__(self, "_T", T)
        object.__setattr__(self, "_counts", acc)
        # Paths of one length over {1, 2} sort as tuples in encoding order.
        object.__setattr__(self, "_items", tuple(sorted(acc.items())))
        object.__setattr__(self, "_n", sum(acc.values()))
        object.__setattr__(self, "_hash", hash((T, self._items)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("PathTable is immutable")

    @classmethod
    def from_paths(cls, paths: Iterable[Iterable[int]]) -> "PathTable":
        """Build a table by counting multiplicities of the given paths."""
        acc: dict[Path, int] = {}
        for p in paths:
            p = as_path(p)
            acc[p] = acc.get(p, 0) + 1
        if not acc:
            raise ValueError("cannot infer T from an empty path collection")
        T = len(next(iter(acc)))
        return cls(T, acc)

    @property
    def T(self) -> int:
        return self._T

    @property
    def n(self) -> int:
        """Total count."""
        return self._n

    @property
    def counts(self) -> Mapping[Path, int]:
        return MappingProxyType(self._counts)

    def items(self) -> tuple[tuple[Path, int], ...]:
        """(path, count) pairs in encoding order."""
        return self._items

    def support(self) -> tuple[Path, ...]:
        return tuple(p for p, _ in self._items)

    def __getitem__(self, path: Iterable[int]) -> int:
        return self._counts.get(tuple(path), 0)

    def __contains__(self, path: Iterable[int]) -> bool:
        return tuple(path) in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[Path]:
        return iter(self.support())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathTable):
            return NotImplemented
        return self._T == other._T and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{path_str(p)}: {c}" for p, c in self._items)
        return f"PathTable(T={self._T}, {{{body}}})"


def suff_stat(table: PathTable) -> TransitionStat:
    """Count-weighted transition totals of a table; entries sum to (T-1)*n."""
    b = [0, 0, 0, 0]
    for path, count in table.items():
        for a, c in zip(path, path[1:]):
            b[(a - 1) * 2 + (c - 1)] += count
    return TransitionStat(*b)


def initial_freq(table: PathTable) -> tuple[int, int]:
    """Frequencies of the two initial states; the pair sums to n."""
    x1 = sum(c for p, c in table.items() if p[0] == 1)
    return (x1, table.n - x1)


def swap_states(table: PathTable) -> PathTable:
    """Image of a table under the global state relabeling 1 <-> 2."""
    return PathTable(
        table.T,
        {tuple(3 - s for s in p): c for p, c in table.items()},
    )


class Variant(str, Enum):
    """Which chain model a configuration matrix or fit refers to."""

    WITHOUT_INITIAL = "without-initial"
    WITH_INITIAL = "with-initial"


def configuration(T: int, variant: Variant = Variant.WITHOUT_INITIAL) -> np.ndarray:
    """Configuration matrix: maps a dense count vector to its sufficient statistic.

    One column per path in encoding order.  The four transition rows count
    occurrences of (1,1), (1,2), (2,1), (2,2); the with-initial variant
    appends the two initial-state indicator rows.  Each call returns a new array.

    Column ``j`` is the path whose state at time ``t`` is bit ``T-1-t`` of
    ``j`` plus one.  So the first ``2**(t+1)`` columns are the first ``2**t``
    with a first state 1 or 2 put in front, and their first transition is
    fixed on each quarter: each step doubles the columns built so far.
    """
    if T < MIN_T:
        raise ValueError(f"T must be >= {MIN_T}, got {T}")
    if T > DENSE_T_CAP:
        raise ValueError(
            f"refusing to materialize a 2**{T}-column matrix (cap T <= {DENSE_T_CAP})"
        )
    variant = Variant(variant)
    rows = 6 if variant is Variant.WITH_INITIAL else 4
    mat = np.zeros((rows, 1 << T), dtype=np.int64)
    for i, row in enumerate(mat[:4]):
        for t in range(1, T):
            q = 1 << (t - 1)
            row[2 * q : 4 * q] = row[: 2 * q]
            row[i * q : (i + 1) * q] += 1
    if variant is Variant.WITH_INITIAL:
        mat[4, : 1 << (T - 1)] = 1
        mat[5, 1 << (T - 1) :] = 1
    return mat
