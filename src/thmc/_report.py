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
    with their run keys and one token table of them all, which its fibers
    are rendered from, each from its own span of the level's tables.

    The fibers are written a chunk at a time, consecutive fibers of at most
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
    T, fibers = reports[0].T, iter(reports)
    for rows, starts, _ in levels:
        keys = _bulk.run_keys(T, rows)
        tokens = _bulk.Tokens(T, keys)
        bounds = [*starts.tolist(), len(rows)]
        # A sweep reports every fiber of each count, in order of b, so the
        # level's fibers are those of the next len(starts) reports, and each
        # one's tables are its span of the level's.
        level = [(next(fibers), lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        first = 0
        while first < len(level):
            stop = first + 1
            while (stop < len(level)
                   and (bounds[stop + 1] - bounds[first]) * rows.shape[1] <= _bulk._RUN_CHUNK):
                stop += 1
            chunk, first = level[first:stop], stop
            texts = _chunk_components(chunk, rows, keys, tokens, end, between)
            for (r, _, _), text in zip(chunk, texts):
                yield JsonText(layout % (r.T, *r.b.as_tuple(), r.fiber_size, text))


def _chunk_components(chunk: list, rows: np.ndarray, keys: np.ndarray,
                      tokens: _bulk.Tokens, end: str, between: str) -> list[str]:
    """The text of the components of each ``(report, lo, hi)`` of ``chunk``,
    a report and its fiber's span of a level's tables ``rows``, with their
    run ``keys`` and ``tokens``, inside their outer quotes: each table's
    tokens ending in ``end``, the text between two tables, and ``between``
    between two components (:func:`report_fibers`).

    The keys are gathered from the level's by table index, in the order of
    the components' tables, and their tokens in one
    :meth:`thmc._bulk.Tokens.words`, so a component is one join and no
    table is a string of its own; table texts hold only digits, ``:`` and
    spaces, which need no escaping.  Each component's text is cut before
    its last ``end``, since a table of no paths has no tokens.
    """
    # The chunk's tables in order, each split fiber's reordered by
    # component, and the table count of each component.  A connected
    # fiber's one component is all its tables in order; a split one's are
    # found on its span of the level's tables, as
    # ConnectivityReport.components finds them on the fiber's own.
    first, sizes = chunk[0][1], []
    order = np.arange(first, chunk[-1][2])
    for r, lo, hi in chunk:
        if r.n_components == 1:
            sizes.append(hi - lo)
        else:
            fib = r.fiber
            parts = _bulk.components(fib._ids[rows[lo:hi]], fib._multisets, r._roots)
            order[lo - first:hi - first] = lo + np.concatenate(parts)
            sizes += map(len, parts)
    n = keys.shape[1]
    keys = keys[order].reshape(-1)
    held = np.flatnonzero(keys)
    stops = np.searchsorted(held, np.cumsum(sizes) * n).tolist()
    words = tokens.words(keys[held], end)
    texts = iter(["".join(words[lo:hi])[:-len(end)] for lo, hi in zip([0] + stops, stops)])
    return [between.join([next(texts) for _ in range(r.n_components)]) for r, _, _ in chunk]
