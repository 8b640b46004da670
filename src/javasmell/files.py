"""The input and output files of a command, and the one error that stops it.

A bad input or an unwritable output raises ``FatalError`` where the fault
is found. ``cli.main`` alone turns it into one ``error: ...`` line on
stderr and exit 1. ``FatalError`` subclasses no built-in error, so a
``ValueError`` from a bug still shows its traceback.
"""

from __future__ import annotations


class FatalError(Exception):
    """A bad input or an unwritable output; the message names what and where."""


def key_values(path):
    """Yield ``(lineno, key, value)`` for each ``key = value`` line of *path*.

    Key and value are stripped; blank lines and ``#`` comments are skipped,
    and a leading UTF-8 BOM is ignored.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise FatalError(f"{path}:{lineno}: expected key = value")
            yield lineno, key.strip(), value.strip()


def write_text(path, text: str):
    """Write *text* to *path* as UTF-8, newlines untranslated."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise FatalError(f"cannot write {path}: {err}") from None
