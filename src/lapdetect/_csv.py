"""The one CSV sink behind every artifact writer.

Cells are rendered by type: floats (and ints) at 17 significant digits,
which round-trip every double, booleans as ``true``/``false``, and None as
an empty cell. No cell, and no fixed header, holds a comma, quote or line
break, so a line is its cells joined by commas plus ``\\n``, unquoted, and
a lone empty cell is ``""``: the text ``csv.writer`` would write. Every
line comes from one ``%`` template built from each column's types:
``%.17g`` (``format(x, ".17g")``) for floats only, nothing for None only,
else ``%s`` over cells rendered one by one. Targets are a path, opened and
closed here, or an open text stream, which is left open.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path
from typing import Iterable, Sequence


def _cell(value) -> str:
    if value is None:
        return ""
    np = sys.modules.get("numpy")  # a numpy bool exists only once numpy has loaded
    if isinstance(value, bool) or np is not None and isinstance(value, np.bool_):
        return "true" if value else "false"
    return format(value, ".17g")


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
    rows = list(rows)
    fields, cells = [], []
    for values in zip(*rows):
        if set(map(type, values)) == {float}:
            fields.append("%.17g")
            cells.append(values)
        elif values.count(None) < len(values):
            fields.append("%s")
            cells.append(list(map(_cell, values)))
        else:
            fields.append("")
    template = ",".join(fields) + "\n"
    lines = map(template.__mod__, zip(*cells) if cells else [()] * len(rows))
    if len(header) == 1:  # an empty line would read back as no row at all
        lines = ['""\n' if line == "\n" else line for line in lines]
    out.writelines(lines)
