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


class JsonText(str):
    """Text in JSON form already: :func:`thmc.cli._json_pieces` writes a
    string whose ``is_json`` is true as it is."""

    is_json = True


def report_fibers(reports: list, layout: str) -> Iterator[JsonText]:
    """Each of the :class:`thmc.fiber.ConnectivityReport` objects in
    ``reports``, in order, as the JSON text of its fiber's object.

    ``layout`` is a fiber's object as :func:`thmc.cli._json_pieces` lays it
    out, with the :class:`JsonText` ``"\\0"`` in place of T, of each of the
    four counts of b and of the fiber's size, then of the tables of two
    components, of two tables and of one, which show what goes between two
    tables and between two components; the rest of the object, the move
    set, is what every report shares.  Each fiber fills in these holes.

    The reports are popped off the front of the list a chunk at a time,
    consecutive fibers of one token table of at most
    ``thmc._bulk._RUN_CHUNK`` table cells in all, or one larger fiber, and
    each chunk's components are rendered by :func:`_chunk_components`
    before the chunk's first fiber is yielded.
    """
    *head, end, between, tail = layout.split("\0")
    end, between = f'"{end}"', f'"{between}"'
    layout = "%s".join(p.replace("%", "%%") for p in head) + '"%s"' + tail.replace("%", "%%")
    reports.reverse()
    while reports:
        tokens = reports[-1].fiber._tokens
        chunk = [reports.pop()]
        cells = chunk[0].fiber._keys.size
        while reports and reports[-1].fiber._tokens is tokens:
            cells += reports[-1].fiber._keys.size
            if cells > _bulk._RUN_CHUNK:
                break
            chunk.append(reports.pop())
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
    groups = [(r.fiber._keys, c) for r in chunk for c in r.components]
    # A component of all its fiber's tables holds them in order already.
    keys = np.concatenate([k if len(c) == len(k) else k[list(c)] for k, c in groups])
    keys, n = keys.reshape(-1), keys.shape[1]
    held = np.flatnonzero(keys)
    stops = np.searchsorted(held, np.cumsum([len(c) for _, c in groups]) * n).tolist()
    words = chunk[0].fiber._tokens.words(keys[held], end)
    texts = iter(["".join(words[lo:hi])[:-len(end)] for lo, hi in zip([0] + stops, stops)])
    return [between.join([next(texts) for _ in r.components]) for r in chunk]
