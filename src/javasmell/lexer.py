"""Tokenizer for Java source files.

``tokenize`` returns a file's code tokens as one ``Tokens`` value, four
parallel lists of kinds, lexemes, lines and columns (1-based); indexing or
iterating it makes ``Token`` views, so none is built on the hot path.
Comments make no token: one only advances the line count. Only comments
span lines: a string or character literal ends on its line, so a backslash
before a line break inside one is an unterminated literal, as javac rejects
it.

``tokenize`` is one pass of one compiled master regex, ``_TOKEN_RE``. Each
match takes the horizontal blanks before it. No alternative starts on a
blank and trailing blanks match the final ``\\Z``, so the regex never
backtracks into a run of blanks, which a long run would make quadratic. The
name of the group that matched (``m.lastgroup``) is the token's kind, or
says what to do: newlines, and those inside comments, advance the line
number and the offset of the line's first character, from which columns
follow. Longest-match rules live in the alternatives: a ``.`` before a digit
starts a number and a ``/`` before ``/`` or ``*`` a comment, ``...`` and
``::`` come before ``.`` and ``:``, and multi-character operators before
their prefixes.

A word starts with a letter, ``_`` or ``$``; a number with a decimal digit
or with ``.`` and a decimal digit. The regex's word class cannot tell a
letter from a non-decimal digit such as ``²``, so the ``word`` alternative
takes only ASCII words, and a word holding any other character goes to
``_rare_kind``. That keeps it when it starts with a letter (``str.isalpha``),
a letter number such as ``Ⅻ`` (category ``Nl``), ``_`` or ``$`` and holds no
non-decimal digit (category ``No``), and otherwise raises ``ParseError`` at
the offending character, as javac reports an illegal character.
Unterminated literals and comments and illegal characters go there too, and
raise ``ParseError``.

``ParseError`` is the one syntax error, text ``<message> at <line>:<col>``:
the parser raises it too, and keeps those it recovers from as diagnostics.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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

_TOKEN_RE = re.compile(
    rf"""
    [ \t\r\f]*(?:
      (?P<word>[A-Za-z_$][A-Za-z0-9_$]*(?![\w$]))
    | (?P<separator>\.\.\.|::|[(){{}}\[\];,@]|\.(?!\d))
    | (?P<newline>\n)
    | (?P<operator>{"|".join(map(re.escape, MULTI_OPERATORS))}|[=<>!~?:+\-*&|^%]|/(?![/*]))
    | (?P<literal>
          0[xX](?:[\w.]|(?<=[pP])[+-])*
        | (?:\d|\.\d){_DECIMAL_TAIL}
        | "(?:[^"\\\n]|\\[^\n])*"
        | '(?:[^'\\\n]|\\[^\n])*'
      )
    | (?P<comment>//[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)
    | (?P<rare>/\*|(?:[^\W\d]|\$)[\w$]*)
    | (?P<illegal>[^ \t\r\f])
    | \Z
    )
    """,
    re.VERBOSE,
)


class ParseError(Exception):
    """A syntax error at a 1-based line and column, from the lexer or the
    parser. Its arguments are its fields, so it pickles."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(message, line, col)
        self.message, self.line, self.col = message, line, col

    def __str__(self):
        return f"{self.message} at {self.line}:{self.col}"


@dataclass
class SourceFile:
    """One Java compilation unit."""

    path: str
    content: str

    def __post_init__(self):
        if self.content.startswith("\ufeff"):
            self.content = self.content[1:]

    @classmethod
    def from_path(cls, path, root) -> "SourceFile":
        p = Path(path)
        return cls(p.relative_to(root).as_posix(), p.read_text(encoding="utf-8"))


class Token(NamedTuple):
    """A view of one token of code, at its 1-based line and column."""

    kind: str  # keyword | identifier | literal | operator | separator
    lexeme: str
    line: int
    col: int


@dataclass
class Tokens:
    """The code tokens of one file, in source order, as parallel lists."""

    kinds: list
    lexemes: list
    lines: list
    cols: list

    def __len__(self):
        return len(self.kinds)

    def __getitem__(self, k: int) -> Token:
        return Token(self.kinds[k], self.lexemes[k], self.lines[k], self.cols[k])


def tokenize(source: SourceFile) -> Tokens:
    """The code tokens of *source*, in source order."""
    tokens = Tokens([], [], [], [])
    kinds, lexemes, lines, cols = tokens.kinds, tokens.lexemes, tokens.lines, tokens.cols
    word_kind = _WORD_KINDS.get
    line, bol = 1, 0
    for m in _TOKEN_RE.finditer(source.content):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            bol = m.end()
        elif kind == "comment":
            lexeme = m[kind]
            if "\n" in lexeme:
                line += lexeme.count("\n")
                bol = m.start(kind) + lexeme.rfind("\n") + 1
        elif kind:  # None for the blanks at the end
            lexeme = m[kind]
            col = m.end() - len(lexeme) - bol + 1
            if kind == "word":
                kind = word_kind(lexeme, "identifier")
            elif kind == "rare" or kind == "illegal":
                kind = _rare_kind(lexeme, line, col)
            kinds.append(kind)
            lexemes.append(lexeme)
            lines.append(line)
            cols.append(col)
    return tokens


def _rare_kind(lexeme: str, line: int, col: int) -> str:
    """Kind of the token *lexeme* that the ``rare`` or ``illegal``
    alternative matched, or the ``ParseError`` it stands for."""
    ch = lexeme[0]
    if lexeme == "/*":
        raise ParseError("unterminated block comment", line, col)
    if ch in "\"'":
        what = "string" if ch == '"' else "character"
        raise ParseError(f"unterminated {what} literal", line, col)
    if ch.isalpha() or ch in "_$" or unicodedata.category(ch) == "Nl":
        for k, c in enumerate(lexeme):
            if unicodedata.category(c) == "No":
                raise ParseError(f"illegal character {c!r}", line, col + k)
        return "identifier"
    raise ParseError(f"illegal character {ch!r}", line, col)
