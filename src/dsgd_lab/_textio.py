"""Text arguments that may be a path or an already open handle."""

from __future__ import annotations

import contextlib


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
