"""The input and output files of a command, and the one error that stops it.

Every input file but a Java source is read here, as UTF-8 with a leading
byte-order mark ignored. A bad input, an undecodable one or an unwritable
output raises ``FatalError`` where the fault is found, its message naming
the file. An ``OSError`` from opening an input passes through, since its
message names the file already. ``cli.main`` alone turns either into one
``error: ...`` line on stderr and exit 1. ``FatalError`` subclasses no
built-in error, so a ``ValueError`` from a bug still shows its traceback.
"""

from __future__ import annotations

import csv
import io


class FatalError(Exception):
    """A bad input or an unwritable output; the message names what and where."""


def read_text(path) -> str:
    """The text of *path*: UTF-8, a leading BOM dropped, newlines as ``\\n``."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise FatalError(f"{path}: {err}") from None


def lines(path):
    """Yield ``(lineno, line)`` for each line of *path* that is neither blank
    nor a ``#`` comment, the line without its newline."""
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, line


def key_values(path):
    """Yield ``(lineno, key, value)`` for each ``key = value`` line of *path*,
    key and value stripped."""
    for lineno, line in lines(path):
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


def write_csv(path, rows):
    """Write *rows* to *path* as CSV: ``\\n`` line ends, and a field quoted
    only when it holds a comma, a quote or a newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    write_text(path, buf.getvalue())
