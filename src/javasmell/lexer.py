"""Tokenizer for Java source files.

Produces a flat token stream. Comments are kept in the stream (kind
``comment``), so everything between tokens is whitespace and the original
file is reconstructible from token offsets; the parser skips them, and
``code_line_numbers`` leaves their lines out. Only comments, and string or
character literals holding an escaped line break, span lines.

``tokenize`` is one pass of one compiled master regex, ``_TOKEN_RE``, whose
alternatives are named groups: the name of the group that matched
(``m.lastgroup``) is the token's kind, or says what to do. Whitespace runs
and newlines are matched as well but make no token; newlines, and those
inside multi-line comments and literals, advance the line number and the
offset of the line's first character, from which each token's column
follows. Longest-match rules live in the alternatives' order: comments come
before the ``/`` operator, numbers (``.5``) before the ``.`` separator,
``...`` and ``::`` before ``.`` and ``:``, and multi-character operators
before their prefixes.

A word starts with a letter, ``_`` or ``$``; a number with a digit or with
``.`` and a digit (``str.isalpha``/``str.isdigit``). The regex's word and
digit classes cannot tell a letter from a non-decimal digit such as ``²``,
so a word that starts outside ASCII, and a ``.`` followed by such a
character, go to ``_rare_token``. So do unterminated literals and comments
and illegal characters, which raise ``LexError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

KEYWORDS = frozenset(
    """
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while
    """.split()
)

# true/false/null are literals, not keywords.
WORD_LITERALS = frozenset({"true", "false", "null"})

_WORD_KINDS = {**dict.fromkeys(KEYWORDS, "keyword"), **dict.fromkeys(WORD_LITERALS, "literal")}

# Longest match first; '->' and '::' must win over '-' and ':'.
MULTI_OPERATORS = (
    ">>>=", "<<=", ">>=", ">>>", "->", "==", "!=", "<=", ">=", "&&", "||",
    "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
)

# What follows a number's first character: word characters and dots, and a
# sign right after an exponent letter (e/E; p/P in hexadecimal numbers).
_DECIMAL_TAIL = r"(?:[\w.]|(?<=[eE])[+-])*"
_DECIMAL_TAIL_RE = re.compile(_DECIMAL_TAIL)

_TOKEN_RE = re.compile(
    rf"""
      (?P<space>[ \t\r\f]+)
    | (?P<newline>\n[ \t\r\f]*)
    | (?P<comment>//[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)
    | (?P<word>[A-Za-z_$][\w$]*)
    | (?P<literal>
          0[xX](?:[\w.]|(?<=[pP])[+-])*
        | (?:\d|\.\d){_DECIMAL_TAIL}
        | "(?:[^"\\\n]|\\.)*"
        | '(?:[^'\\\n]|\\.)*'
      )
    | (?P<rare>/\*|\.(?=[^\W\d\x00-\x7f])|[^\W\d][\w$]*)
    | (?P<separator>\.\.\.|::|[(){{}}\[\];,.@])
    | (?P<operator>{"|".join(map(re.escape, MULTI_OPERATORS))}|[=<>!~?:+\-*/&|^%])
    | (?P<illegal>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class LexError(Exception):
    """Unterminated literal/comment or an illegal character."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at {line}:{col}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class SourceFile:
    """One Java compilation unit."""

    path: str
    content: str

    def __post_init__(self):
        if self.content.startswith("\ufeff"):
            self.content = self.content[1:]

    @classmethod
    def from_path(cls, path, root=None) -> "SourceFile":
        p = Path(path)
        rel = p.relative_to(root).as_posix() if root is not None else str(p)
        return cls(rel, p.read_text(encoding="utf-8"))


class Token:
    """One token; ``end`` is the offset just past its lexeme."""

    __slots__ = ("kind", "lexeme", "line", "col", "offset", "end")

    def __init__(self, kind: str, lexeme: str, line: int, col: int, offset: int, end: int):
        self.kind = kind  # keyword | identifier | literal | operator | separator | comment
        self.lexeme = lexeme
        self.line = line
        self.col = col
        self.offset = offset
        self.end = end

    @property
    def length(self) -> int:
        return self.end - self.offset

    def __repr__(self):
        return f"<{self.kind} {self.lexeme!r} {self.line}:{self.col}>"


def tokenize(source: SourceFile) -> list[Token]:
    """Full token stream for *source*, comments included."""
    text = source.content
    toks: list[Token] = []
    append = toks.append
    word_kind = _WORD_KINDS.get
    line, bol, resume = 1, 0, 0
    # A rare token may end where the regex's match does not, so the scan
    # resumes after it.
    while resume is not None:
        matches, resume = _TOKEN_RE.finditer(text, resume), None
        for m in matches:
            kind = m.lastgroup
            if kind == "space":
                continue
            start = m.start()
            if kind == "newline":
                line += 1
                bol = start + 1
                continue
            lexeme = m.group()
            if kind == "word":
                kind = word_kind(lexeme, "identifier")
            elif kind == "comment" or kind == "literal":
                newlines = lexeme.count("\n")
                if newlines:
                    append(Token(kind, lexeme, line, start - bol + 1, start, m.end()))
                    line += newlines
                    bol = start + lexeme.rfind("\n") + 1
                    continue
            elif kind == "rare" or kind == "illegal":
                kind, lexeme = _rare_token(text, start, lexeme, line, start - bol + 1)
                resume = start + len(lexeme)
                append(Token(kind, lexeme, line, start - bol + 1, start, resume))
                break
            append(Token(kind, lexeme, line, start - bol + 1, start, m.end()))
    return toks


def _rare_token(text: str, start: int, lexeme: str, line: int, col: int) -> tuple[str, str]:
    """Kind and lexeme of the token at *start*, which the ``rare`` or
    ``illegal`` alternative matched as *lexeme*; or the ``LexError``."""
    ch = lexeme[0]
    if lexeme == "/*":
        raise LexError("unterminated block comment", line, col)
    if ch in "\"'":
        what = "string" if ch == '"' else "character"
        raise LexError(f"unterminated {what} literal", line, col)
    if ch.isalpha():
        return "identifier", lexeme
    first_digit = start + (ch == ".")
    if text[first_digit].isdigit():
        return "literal", text[start : _DECIMAL_TAIL_RE.match(text, first_digit + 1).end()]
    if ch == ".":
        return "separator", ch
    raise LexError(f"illegal character {ch!r}", line, col)


def code_line_numbers(tokens: list[Token]) -> set[int]:
    """Lines carrying at least one non-comment token."""
    return {t.line for t in tokens if t.kind != "comment"}

