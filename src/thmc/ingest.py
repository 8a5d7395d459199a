"""CSV ingestion, symbol mapping, and table serialization.

Input files are plain CSV with two columns ``path,count``; a header line is
optional and ``#`` starts a comment.  External two-symbol alphabets (e.g.
M/F) are mapped onto the internal states {1, 2} with an explicit,
user-visible mapping such as ``M=1,F=2``.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path as FilePath
from typing import Mapping

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

#: Largest count one path may reach in total.
_COUNT_MAX = 2**63 - 1


def ingest(path: str | FilePath, mapping: Mapping[str, int] | str | None = None) -> PathTable:
    """Read a ``path,count`` CSV file into a :class:`PathTable`.

    Duplicate path lines accumulate; each path's total count must be at
    most 2**63 - 1.
    """
    if mapping is None:
        mapping = DEFAULT_MAPPING
    elif isinstance(mapping, str):
        mapping = parse_mapping(mapping)
    path = FilePath(path)
    # utf-8-sig drops the byte-order mark that spreadsheet exports prepend.
    try:
        lines = path.read_text(encoding="utf-8-sig").split("\n")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path} is not UTF-8 text ({exc.reason})") from None
    totals: dict[str, int] = {}
    T: int | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise IngestError(f"expected 'path,count', got {line!r}", lineno)
        text, count_text = fields
        if T is None and text.lower() == "path" and count_text.lower() == "count":
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
        total = totals.get(text, 0) + count
        if total > _COUNT_MAX:
            raise IngestError(
                f"count of path {text!r} reaches {total}, over 2**63 - 1", lineno
            )
        totals[text] = total
    if T is None:
        raise IngestError("no data rows found")
    return PathTable(T, ((tuple(mapping[c] for c in text), c) for text, c in totals.items()))


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
