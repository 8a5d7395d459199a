"""CSV ingestion, symbol mapping, and table serialization.

Input files are plain CSV with two columns ``path,count``; a header line is
optional and ``#`` starts a comment.  External two-symbol alphabets (e.g.
M/F) are mapped onto the internal states {1, 2} with an explicit,
user-visible mapping such as ``M=1,F=2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path as FilePath
from typing import Iterable, Mapping

from .core import PathTable, path_str


class IngestError(ValueError):
    """A malformed input file; ``line`` carries the offending line number."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_mapping(spec: str) -> dict[str, int]:
    """Parse a mapping flag like 'M=1,F=2' into {'M': 1, 'F': 2}.

    Exactly two single-character symbols must map bijectively onto {1, 2}.
    """
    mapping: dict[str, int] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        sym, _, state = item.partition("=")
        sym = sym.strip()
        state = state.strip()
        if len(sym) != 1 or state not in ("1", "2"):
            raise ValueError(f"bad mapping entry {item!r}; expected SYMBOL=1 or SYMBOL=2")
        if sym in mapping:
            raise ValueError(f"symbol {sym!r} mapped twice")
        mapping[sym] = int(state)
    if len(mapping) != 2 or set(mapping.values()) != {1, 2}:
        raise ValueError(
            f"mapping must send exactly two symbols onto states 1 and 2, got {spec!r}"
        )
    return mapping


DEFAULT_MAPPING = {"1": 1, "2": 2}


@dataclass(frozen=True)
class Dataset:
    """Raw ingested records plus the alphabet mapping used to read them."""

    T: int
    mapping: Mapping[str, int]
    records: tuple[tuple[str, int], ...]

    def to_table(self) -> PathTable:
        counts: dict[tuple[int, ...], int] = {}
        for text, count in self.records:
            path = tuple(self.mapping[c] for c in text)
            counts[path] = counts.get(path, 0) + count
        return PathTable(self.T, counts)


def _iter_rows(lines: Iterable[str]):
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield lineno, line


def read_dataset(path: str | FilePath, mapping: Mapping[str, int] | str | None = None) -> Dataset:
    """Read a ``path,count`` CSV into a :class:`Dataset`."""
    if mapping is None:
        mapping = DEFAULT_MAPPING
    elif isinstance(mapping, str):
        mapping = parse_mapping(mapping)
    path = FilePath(path)
    records: list[tuple[str, int]] = []
    T: int | None = None
    # utf-8-sig drops the byte-order mark that spreadsheet exports prepend.
    with path.open("r", encoding="utf-8-sig") as fh:
        for lineno, line in _iter_rows(fh):
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != 2:
                raise IngestError(f"expected 'path,count', got {line!r}", lineno)
            text, count_text = fields
            if not records and text.lower() == "path" and count_text.lower() == "count":
                continue
            try:
                count = int(count_text)
            except ValueError:
                raise IngestError(f"non-integer count {count_text!r}", lineno) from None
            if count < 1:
                raise IngestError(f"count must be >= 1, got {count}", lineno)
            for ch in text:
                if ch not in mapping:
                    raise IngestError(f"unknown symbol {ch!r} in path {text!r}", lineno)
            if T is None:
                T = len(text)
                if T < 3:
                    raise IngestError(f"paths must have length >= 3, got {text!r}", lineno)
            elif len(text) != T:
                raise IngestError(
                    f"ragged path length: {text!r} has {len(text)}, expected {T}", lineno
                )
            records.append((text, count))
    if T is None:
        raise IngestError("no data rows found")
    return Dataset(T=T, mapping=dict(mapping), records=tuple(records))


def ingest(path: str | FilePath, mapping: Mapping[str, int] | str | None = None) -> PathTable:
    """Read a CSV file straight into a :class:`PathTable`."""
    return read_dataset(path, mapping).to_table()


def serialize_table(table: PathTable, mapping: Mapping[str, int] | None = None) -> str:
    """Render a table as ``path,count`` CSV text (round-trips through ingest).

    With a mapping, paths are written in the external alphabet; otherwise
    in the internal 1/2 digits.
    """
    inverse = None
    if mapping is not None:
        inverse = {state: sym for sym, state in mapping.items()}
    lines = ["path,count"]
    for path, count in table.items():
        if inverse is None:
            text = path_str(path)
        else:
            text = "".join(inverse[s] for s in path)
        lines.append(f"{text},{count}")
    return "\n".join(lines) + "\n"


def klotz_path() -> FilePath:
    """Filesystem path of the bundled family-sex-sequence dataset."""
    return FilePath(str(resources.files("thmc").joinpath("data/klotz.csv")))


def klotz_table() -> PathTable:
    """The bundled dataset as a table with the mapping M=1, F=2."""
    return ingest(klotz_path(), {"M": 1, "F": 2})
