"""Pinned syntax trees and diagnostics for a fixed set of inputs.

Every input is parsed and reduced to one digest that covers, for every node,
its kind, its attributes (frozensets sorted, since their ``repr`` order
follows ``PYTHONHASHSEED``), ``start``/``end``/``line``/``col``/``end_line``,
and every diagnostic's message and position. A ``ParseError`` is digested
as its message. The inputs are every ``.java`` fixture, about 40 prefixes of
each (cut before evenly spaced tokens, so most end mid-construct) and 400
seeded ``random_java`` methods.

The digests in ``fixtures/parse_digests.txt`` were written by

    PYTHONPATH=src python tests/test_parse_digest.py

Any change to what the parser builds or reports shows up here. Rewrite the
file with the command above only when a parse change is intended.
"""

import hashlib
import random
import sys
from pathlib import Path

from javasmell.lexer import SourceFile, tokenize
from javasmell.parser import Diagnostic, ParseError, parse

sys.path.insert(0, str(Path(__file__).parent))
from random_java import random_method  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
DIGESTS = FIXTURES / "parse_digests.txt"
PREFIXES_PER_FILE = 40
RANDOM_METHODS = 400
RANDOM_SEED = 20240501


def inputs():
    """(name, text) pairs, in a fixed order."""
    files = sorted(FIXTURES.glob("*.java")) + sorted((FIXTURES / "corpus").glob("*.java"))
    for path in files:
        name = path.relative_to(FIXTURES).as_posix()
        text = path.read_text(encoding="utf-8")
        yield name, text
        tokens = tokenize(SourceFile(name, text))
        step = max(1, len(tokens) // PREFIXES_PER_FILE)
        for k in range(0, len(tokens), step):
            yield f"{name}@{k}", text[: tokens[k].offset]
    rng = random.Random(RANDOM_SEED)
    for k in range(RANDOM_METHODS):
        yield f"random_java/{k}", random_method(rng)[0]


def canonical(value):
    if isinstance(value, (set, frozenset)):
        return ("set", sorted(canonical(v) for v in value))
    if isinstance(value, dict):
        return ("dict", [(k, canonical(value[k])) for k in sorted(value)])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [canonical(v) for v in value])
    if isinstance(value, Diagnostic):
        return ("diag", value.message, value.file, value.line, value.col)
    return value


def dump(name: str, text: str) -> str:
    src = SourceFile(name.partition("@")[0], text)
    try:
        unit = parse(tokenize(src), src)
    except ParseError as err:
        return f"ParseError {err}\n"
    lines = []
    stack = [(unit, 0)]
    while stack:
        node, depth = stack.pop()
        lines.append(
            f"{depth} {node.kind} {node.start} {node.end} {node.line} {node.col} "
            f"{node.end_line} {canonical(node.attrs)!r}"
        )
        stack.extend((c, depth + 1) for c in reversed(node.children))
    return "\n".join(lines) + "\n"


def digest(name: str, text: str) -> str:
    return hashlib.sha256(dump(name, text).encode("utf-8")).hexdigest()[:16]


def current() -> list:
    return [f"{name} {digest(name, text)}" for name, text in inputs()]


def test_parse_trees_and_diagnostics_match_pinned_digests():
    expected = DIGESTS.read_text(encoding="utf-8").splitlines()
    actual = current()
    assert len(actual) == len(expected)
    changed = [a.partition(" ")[0] for a, e in zip(actual, expected) if a != e]
    assert not changed, f"{len(changed)} inputs parse differently, first: {changed[:5]}"


if __name__ == "__main__":
    DIGESTS.write_text("\n".join(current()) + "\n", encoding="utf-8")
