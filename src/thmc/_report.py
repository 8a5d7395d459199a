"""The fibers of a ``thmc verify-basis`` report as JSON text, a chunk of
fibers at a time.

Each fiber's object is one piece, a :class:`JsonText` that
:func:`thmc.cli._json_pieces` writes as it is: the object's layout, as
``_json_pieces`` lays it out, with its holes filled by the fiber's values
and by its components, whose tables are their run keys' tokens
(:class:`thmc._bulk.Tokens`) gathered for a chunk at once.  Only
``--report`` imports this module, so a sweep without a report does not
compile it.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import _bulk
from .cli import _json_pieces


class JsonText(str):
    """Text in JSON form already: :func:`thmc.cli._json_pieces` writes a
    string whose ``is_json`` is true as it is."""

    is_json = True


def report_fibers(reports: list, levels: Iterator) -> Iterator[JsonText]:
    """Each of the :class:`thmc.fiber.ConnectivityReport` objects in
    ``reports``, in order, as the JSON text of its fiber's object in the
    report's list of fibers.

    The object is laid out once by :func:`thmc.cli._json_pieces`, with the
    :class:`JsonText` ``"\\0"`` in place of T, of each of the four counts
    of b and of the fiber's size, then of the tables of two components, of
    two tables and of one, which show what goes between two tables and
    between two components; the rest of the object, the move set, is what
    the fibers share.  Each fiber fills in these holes.
    ``levels`` yields the tables of each count as :func:`thmc._bulk.levels`
    does, and each count's are built once, when its first fiber is reached,
    and handed to its fibers with their run keys and one token table of
    them all (:meth:`thmc.fiber.Fiber._take_level`).

    The reports are popped off the front of the list a level at a time,
    and written a chunk at a time, consecutive fibers of at most
    ``thmc._bulk._RUN_CHUNK`` table cells in all, or one larger fiber, and
    each chunk's components are rendered by :func:`_chunk_components`
    before the chunk's first fiber is yielded.
    """
    hole, pieces = JsonText("\0"), []
    _json_pieces({"T": hole, "b": [hole] * 4, "fiber_size": hole,
                  "components": [[hole, hole], [hole]],
                  "move_set": list(reports[0].move_set)}, pieces.append, "\n    ")
    *head, end, between, tail = "".join(pieces).split("\0")
    end, between = f'"{end}"', f'"{between}"'
    layout = "%s".join(p.replace("%", "%%") for p in head) + '"%s"' + tail.replace("%", "%%")
    reports.reverse()
    for rows, starts, stats in levels:
        # A sweep reports every fiber of each count, in order of b, so the
        # level's fibers are those of the next len(stats) reports.
        level = [reports.pop() for _ in stats]
        keys = _bulk.run_keys(level[0].T, rows)
        tokens = _bulk.Tokens(level[0].T, keys)
        bounds = [*starts.tolist(), len(rows)]
        for r, lo, hi in zip(level, bounds, bounds[1:]):
            r.fiber._take_level(rows[lo:hi], keys[lo:hi], tokens)
        level.reverse()
        while level:
            chunk = [level.pop()]
            cells = chunk[0].fiber._keys.size
            while level and cells + level[-1].fiber._keys.size <= _bulk._RUN_CHUNK:
                cells += level[-1].fiber._keys.size
                chunk.append(level.pop())
            for r, text in zip(chunk, _chunk_components(chunk, end, between)):
                yield JsonText(layout % (r.T, *r.b.as_tuple(), r.fiber_size, text))


def _chunk_components(chunk: list, end: str, between: str) -> list[str]:
    """The text of the components of each report of ``chunk``, inside their
    outer quotes: each table's tokens ending in ``end``, the text between
    two tables, and ``between`` between two components
    (:func:`report_fibers`).

    The keys are gathered in the order of the components' tables, and
    their tokens in one :meth:`thmc._bulk.Tokens.words`, so a component is
    one join and no table is a string of its own; table texts hold only
    digits, ``:`` and spaces, which need no escaping.  Each component's
    text is cut before its last ``end``, since a table of no paths has no
    tokens.
    """
    # A connected fiber's one component, None here, is all its tables in
    # order, so its components are not read.
    groups = [(r.fiber._keys, c) for r in chunk
              for c in (r.components if r.n_components > 1 else [None])]
    keys = np.concatenate([k if c is None else k[list(c)] for k, c in groups])
    keys, n = keys.reshape(-1), keys.shape[1]
    held = np.flatnonzero(keys)
    sizes = [len(k if c is None else c) for k, c in groups]
    stops = np.searchsorted(held, np.cumsum(sizes) * n).tolist()
    words = chunk[0].fiber._tokens.words(keys[held], end)
    texts = iter(["".join(words[lo:hi])[:-len(end)] for lo, hi in zip([0] + stops, stops)])
    return [between.join([next(texts) for _ in range(r.n_components)]) for r in chunk]
