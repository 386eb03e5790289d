"""The one CSV sink behind every artifact writer.

Cells are rendered by type: floats (and ints) at 17 significant digits,
which round-trip every double, booleans as ``true``/``false``, and None as
an empty cell. No cell, and no fixed header, holds a comma, quote or line
break, so a line is its cells joined by commas plus ``\\n``, unquoted: the
text ``csv.writer`` would write. Targets are a path, opened and closed here,
or an open text stream, which is left open.
"""

from __future__ import annotations

import io
import sys
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence


def _cell(value) -> str:
    if value is None:
        return ""
    np = sys.modules.get("numpy")  # a numpy bool exists only once numpy has loaded
    if isinstance(value, bool) or np is not None and isinstance(value, np.bool_):
        return "true" if value else "false"
    return format(value, ".17g")


def _column(values: tuple) -> list[str]:
    # Rendering a whole all-float or all-None column in bulk keeps the
    # per-cell work out of Python frames; ROC curves are 4,000 cells each.
    if set(map(type, values)) == {float}:
        return list(map(format, values, repeat(".17g")))
    if values.count(None) == len(values):
        return [""] * len(values)
    return list(map(_cell, values))


def write_csv(
    out: str | Path | io.TextIOBase,
    header: Sequence[str],
    rows: Iterable[Sequence],
    append: bool = False,
) -> None:
    """Write ``header`` and then ``rows`` to ``out``.

    A path is truncated, or with ``append`` extended. An appending write
    emits the header only when the target is empty (a missing file, or a
    stream that cannot seek such as a pipe, counts as empty), so repeated
    runs accumulate under one header.
    """
    if isinstance(out, (str, Path)):
        with open(out, "a" if append else "w", newline="") as f:
            write_csv(f, header, rows, append)
        return
    if not append or not out.seekable() or out.tell() == 0:
        out.write(",".join(header) + "\n")
    lines = map(",".join, zip(*map(_column, zip(*rows))))
    out.writelines(map("{}\n".format, lines))
