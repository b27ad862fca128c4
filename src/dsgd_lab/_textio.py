"""Text files given as a path or an open handle, and the one CSV format.

Every CSV the package writes goes through write_csv. Floats at 17 significant
digits round-trip exactly, so a rerun reproduces a file byte for byte.
"""

from __future__ import annotations

import contextlib
import csv


@contextlib.contextmanager
def open_text(target, mode: str = "r", newline: str | None = None):
    """Yield target as a text handle.

    A path (str or bytes) is opened as UTF-8 with the given mode and newline
    handling and closed on exit; anything else is taken to be an open handle
    and is yielded as it is and left open.
    """
    if isinstance(target, (str, bytes)):
        with open(target, mode, encoding="utf-8", newline=newline) as fh:
            yield fh
    else:
        yield target


def write_csv(target, header, rows) -> None:
    """Write the header row, then rows, to a path or an open text handle.

    A float cell (numpy float64 included) is written as format(v, ".17g");
    every other cell is left to csv.writer.
    """
    with open_text(target, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [format(v, ".17g") if isinstance(v, float) else v for v in row]
            for row in rows
        )
