"""Pinned token streams and lexer errors for a fixed set of inputs.

Every input is lexed and reduced to one digest over each token's kind,
lexeme, line and column, or over the ``ParseError``'s message, line and
column. The inputs are every ``.java`` fixture, about 40 prefixes of each
(cut before evenly spaced tokens, and cut again inside the same tokens,
so strings end unterminated), 400 seeded ``random_java`` methods and the
hand-written edge cases below. A cut's offset follows from the token's line
and column.

The digests in ``fixtures/token_digests.txt`` were written by

    PYTHONPATH=src python tests/test_token_digest.py

Any change to what the lexer produces or reports shows up here. Rewrite the
file with the command above only when a lexer change is intended.
"""

import hashlib
import random
import sys
from pathlib import Path

from javasmell.lexer import ParseError, SourceFile, tokenize

sys.path.insert(0, str(Path(__file__).parent))
from random_java import random_method  # noqa: E402
from conftest import token_offsets  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
DIGESTS = FIXTURES / "token_digests.txt"
PREFIXES_PER_FILE = 40
RANDOM_METHODS = 400
RANDOM_SEED = 20240501

EDGE_CASES = [
    ("empty", ""),
    ("blank", " \t\n\n  \n"),
    ("identifiers", "int $x = _y + a$b_c + __ + $ + _1 + x1$;"),
    ("unicode-identifiers", "String 名前 = ñandú + straße + x² + xⅫ + x½ + 𝒳y + é1;"),
    ("non-ascii-digit-start", "a = ² + ²$ + ²e+1 + ².5 + .² + ①x;"),
    ("non-ascii-decimal-digit", "a = ٣ + ٣.5e-1 + .٣ + x٣;"),
    ("non-ascii-numeric-start", "a = ½;"),
    ("non-ascii-numeric-roman", "a = Ⅻ;"),
    (
        "numbers",
        "a = 0x1p-3 + 0X1P+3 + 1e+5 + 1E-5 + 0xFFe+1 + .5 + 1. + 1..2 + 3_000L"
        " + 1.5e-3f + 0b1010 + 07;",
    ),
    ("number-then-dot-call", "a = 1.toString() + 2.e + 0x.p+1;"),
    ("char-quote", "char c = '\\'';"),
    ("string-backslash", 'String s = "\\\\";'),
    ("string-escapes", 'String s = "a\\"b\\\\" + "\\u0041\\t" + \'"\' + "\'";'),
    ("string-escaped-newline", 'String s = "a\\\nb"; int x;\n y'),
    ("empty-string", 'f("", \'\\0\', "");'),
    ("separators", "void f(int... a) { Runnable r = X::m; g(x -> x); a >>>= 2; } @A"),
    ("operators", "a >>>= b >>> c >>= d >> e <<= f << g >= h <= i == j != k && l || m ++ n -- o"),
    ("compound-assign", "a += 1; a -= 1; a *= 1; a /= 1; a %= 1; a &= 1; a |= 1; a ^= 1;"),
    ("single-ops", "a = b < c > d ! e ~ f ? g : h + i - j * k / l & m | n ^ o % p;"),
    ("ops-run", "a>>>>=b---c+++d->e::::f....g"),
    ("comment-marker-in-string", 'String s = "a */ b // c /* d"; /* e */ // f'),
    (
        "comments",
        "/**/ /***/ /* ** */ /*/ x */ // a /* b\n/* a\n  b\n */ int x; // c\nint y; /* d */",
    ),
    ("line-comment-at-eof", "int x; // done"),
    ("bom", "\ufeffclass A {}"),
    ("bom-only", "\ufeff"),
    ("crlf", "class A {\r\n  int x; // c\r\n  /* d\r\n */ int y;\r\n}\r\n"),
    ("lone-cr", "int x;\rint y;\r"),
    ("form-feed-and-tab", "class A {\f\tint x;\f}\f\n\tint\ty;"),
    ("no-final-newline", "class A {\n}"),
    ("many-newlines", "\n\n\nclass\n\n A\n{\n\n}\n\n\n"),
    ("annotation-type", "@interface Marker { int v() default 1; }"),
    ("text-block", 'String s = """\n    hello\n    """;'),
    ("error-unterminated-string", 'String s = "abc'),
    ("error-string-across-newline", 'String s = "ab\ncd";'),
    ("error-string-ends-in-backslash", 'String s = "abc\\'),
    ("error-unterminated-char", "char c = 'x"),
    ("error-char-ends-in-backslash", "char c = '\\"),
    ("error-unterminated-block-comment", "int x; /* open\n still open"),
    ("error-unterminated-javadoc", "/** open"),
    ("error-backtick", "int x = `;"),
    ("error-hash", "\n\n  #define X"),
    ("error-backslash", "int \\u0041 = 1;"),
    ("error-vertical-tab", "int x;\x0bint y;"),
    ("error-nbsp", "int\xa0x;"),
    ("error-nul", "int x;\x00"),
    ("error-after-crlf", "class A {\r\n  int x = 1;\r\n  char c = '\r\n}"),
]


def inputs():
    """(name, text) pairs, in a fixed order."""
    files = sorted(FIXTURES.glob("*.java")) + sorted((FIXTURES / "corpus").glob("*.java"))
    for path in files:
        name = path.relative_to(FIXTURES).as_posix()
        text = path.read_text(encoding="utf-8")
        yield name, text
        tokens = tokenize(SourceFile(name, text))
        offsets = token_offsets(text, tokens)
        step = max(1, len(tokens) // PREFIXES_PER_FILE)
        for k in range(0, len(tokens), step):
            yield f"{name}@{k}", text[: offsets[k]]
            yield f"{name}@{k}+", text[: offsets[k] + max(1, len(tokens[k].lexeme) // 2)]
    rng = random.Random(RANDOM_SEED)
    for k in range(RANDOM_METHODS):
        yield f"random_java/{k}", random_method(rng)[0]
    for name, text in EDGE_CASES:
        yield f"edge/{name}", text


def dump(name: str, text: str) -> str:
    try:
        tokens = tokenize(SourceFile(name, text))
    except ParseError as err:
        # The label is the lexer error's old class name, kept so that the
        # pinned digests stay valid.
        return f"LexError {err.message!r} {err.line} {err.col}\n"
    return "".join(f"{t.kind} {t.lexeme!r} {t.line} {t.col}\n" for t in tokens)


def digest(name: str, text: str) -> str:
    return hashlib.sha256(dump(name, text).encode("utf-8")).hexdigest()[:16]


def current() -> list:
    return [f"{name} {digest(name, text)}" for name, text in inputs()]


def test_token_streams_and_lex_errors_match_pinned_digests():
    expected = DIGESTS.read_text(encoding="utf-8").splitlines()
    actual = current()
    assert len(actual) == len(expected)
    changed = [a.partition(" ")[0] for a, e in zip(actual, expected) if a != e]
    assert not changed, f"{len(changed)} inputs lex differently, first: {changed[:5]}"


if __name__ == "__main__":
    DIGESTS.write_text("\n".join(current()) + "\n", encoding="utf-8")
