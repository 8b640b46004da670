"""Tokenizer for Java source files.

``tokenize`` returns a file's code tokens as one ``Tokens`` value, three
parallel lists of kinds, lexemes and 1-based lines. A token keeps no column:
``token_starts`` finds each token's offset by the same regex, and ``column``
turns an offset into its 1-based column, so only a reported position costs
one. Comments make no token: one only advances the line count. Only comments
span lines: a string or character literal ends on its line, so a backslash
before a line break inside one is an unterminated literal, as javac rejects
it.

One regex, ``_TOKEN_RE``, holds ``_ALTERNATIVES`` in one group, tried in
order. Each match takes the horizontal blanks before it. No alternative
starts on a blank and trailing blanks match the final ``\\Z``, so a match
never backtracks into a run of blanks, which a long run would make
quadratic. Longest-match rules live in the alternatives: a ``.`` before a
digit starts a number and a ``/`` before ``/`` or ``*`` a comment, ``...``
and ``::`` come before ``.`` and ``:``, and multi-character operators
before their prefixes.

Every file takes one pass. One ``findall`` lists the lexemes of each slice
of the file, with no ``Match`` objects. A slice ends just after the first
newline ``_SLICE`` characters on, so no list holds a whole file. A block
comment that a slice cuts, which ``rare`` matches to the slice's end, is
lexed again from its start in a slice that ends past its first ``*/``; one
that never closes raises at its start. A lexeme's kind is a dict lookup on
the lexeme (keywords, word literals, operators, separators, the newline),
else on its first character. In a file that is not all ASCII the second
table sends a word that starts with an ASCII letter, ``_`` or ``$`` to
``_rare_kind``, since it may hold a non-ASCII character; in an ASCII file
no token takes an extra test.

``_rare_kind`` takes every lexeme that neither table names. A number may
start with any decimal digit (``\\d``, such as ``٣``). A word starts with
a letter (``str.isalpha``), a letter number such as ``Ⅻ`` (category
``Nl``), ``_`` or ``$`` and holds no non-decimal digit (category ``No``,
such as ``²``), which the regex's word class cannot tell from a letter.
Anything else, a lone quote or an illegal character, raises ``ParseError``
as javac reports it. Only then is the token's offset found: the first match
in its slice with its lexeme, since an earlier equal lexeme would have
raised already.

``ParseError`` is the one syntax error, text ``<message> at <line>:<col>``:
the parser raises it too, and keeps those it recovers from as diagnostics.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from unicodedata import category

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

# Longest match first; '->' and '::' must win over '-' and ':'.
MULTI_OPERATORS = (
    ">>>=", "<<=", ">>=", ">>>", "->", "==", "!=", "<=", ">=", "&&", "||",
    "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
)

# What follows a number's first character: word characters and dots, and a
# sign right after an exponent letter (e/E; p/P in hexadecimal numbers).
_DECIMAL_TAIL = r"(?:[\w.]|(?<=[eE])[+-])*"

_ALTERNATIVES = (
    ("word", r"[A-Za-z_$][A-Za-z0-9_$]*(?![\w$])"),
    ("separator", r"\.\.\.|::|[(){}\[\];,@]|\.(?!\d)"),
    ("newline", r"\n"),
    ("operator", "|".join(map(re.escape, MULTI_OPERATORS)) + r"|[=<>!~?:+\-*&|^%]|/(?![/*])"),
    ("literal", r"0[xX](?:[\w.]|(?<=[pP])[+-])*|(?:\d|\.\d)" + _DECIMAL_TAIL
     + r"""|"(?:[^"\\\n]|\\[^\n])*"|'(?:[^'\\\n]|\\[^\n])*'"""),
    ("comment", r"//[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/"),
    ("rare", r"/\*[\s\S]*|(?:[^\W\d]|\$)[\w$]*"),
    ("illegal", r"[^ \t\r\f]"),
)
_TOKEN_RE = re.compile("[ \t\r\f]*(" + "".join(f"{alt}|" for _, alt in _ALTERNATIVES) + r"\Z)")
_SLICE = 4096

# A lexeme's kind: by the lexeme, else by its first character, else _rare_kind's.
_FIXED_KINDS = {**dict.fromkeys(KEYWORDS, "keyword"), **dict.fromkeys(WORD_LITERALS, "literal"),
                **dict.fromkeys((*MULTI_OPERATORS, *"=<>!~?:+-*&|^%/"), "operator"),
                **dict.fromkeys(("...", "::", *"(){}[];,@."), "separator"),
                "\n": "newline", "": "end", '"': "rare", "'": "rare"}
_FIRST_KINDS = {**dict.fromkeys(string.ascii_letters + "_$", "identifier"), "/": "comment",
                **dict.fromkeys(string.digits + ".\"'", "literal")}
# In a file that is not all ASCII, a word may hold a non-ASCII character.
_WIDE_FIRST_KINDS = {**_FIRST_KINDS, **dict.fromkeys(string.ascii_letters + "_$", "rare")}
_CODE_KINDS = frozenset(("identifier", "separator", "operator", "keyword", "literal"))


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
    def from_path(cls, path, name: str) -> "SourceFile":
        """The file at *path*, read as UTF-8 with newlines as ``\\n``,
        named *name*."""
        with open(path, encoding="utf-8") as fh:
            return cls(name, fh.read())


@dataclass
class Tokens:
    """The code tokens of one file, in source order, as parallel lists."""

    kinds: list
    lexemes: list
    lines: list

    def __len__(self):
        return len(self.kinds)


def tokenize(source: SourceFile) -> Tokens:
    """The code tokens of *source*, in source order, or the ``ParseError``
    it holds."""
    text = source.content
    tokens = Tokens([], [], [])
    kinds, lexemes, lines = tokens.kinds, tokens.lexemes, tokens.lines
    fixed, code, findall = _FIXED_KINDS.get, _CODE_KINDS, _TOKEN_RE.findall
    first = (_FIRST_KINDS if text.isascii() else _WIDE_FIRST_KINDS).get
    line, pos, reach, end = 1, 0, 0, len(text)
    while pos < end:
        stop = text.find("\n", max(pos + _SLICE, reach)) + 1 or end
        for lexeme in findall(text, pos, stop):
            kind = fixed(lexeme) or first(lexeme[0], "rare")
            if kind in code:
                kinds.append(kind)
                lexemes.append(lexeme)
                lines.append(line)
            elif kind == "newline":
                line += 1
            elif kind == "comment":
                if lexeme[1] == "*" and not lexeme.endswith("*/", 2):
                    # A block comment open at stop, matched to it by
                    # ``rare``: lex on from its start to past its '*/'.
                    reach, pos = text.find("*/", stop), stop - len(lexeme)
                    if reach < 0:
                        raise ParseError("unterminated block comment", line, column(text, pos))
                    break
                line += lexeme.count("\n")
            elif kind != "end":
                kinds.append(_rare_kind(text, pos, stop, lexeme, line))
                lexemes.append(lexeme)
                lines.append(line)
        else:
            pos = stop
    return tokens


def token_starts(text: str) -> list:
    """The offset in *text* of each code token that ``tokenize`` finds."""
    return [m.start(1) for m in _TOKEN_RE.finditer(text)
            if m[1] not in ("", "\n") and not m[1].startswith(("//", "/*"))]


def column(text: str, offset: int) -> int:
    """The 1-based column of *offset* in *text*."""
    return offset - text.rfind("\n", 0, offset)


def _rare_kind(text: str, pos: int, stop: int, lexeme: str, line: int) -> str:
    """Kind of the token *lexeme*, lexed on *line* from the slice
    *pos*:*stop* of *text*, that neither kind table names, or the
    ``ParseError`` it stands for."""
    ch, at = lexeme[0], 0
    if ch.isdecimal():
        return "literal"
    if ch.isalpha() or ch in "_$" or category(ch) == "Nl":
        # The first non-decimal digit, if any, is not the first character.
        at = 0 if lexeme.isascii() else next((k for k, c in enumerate(lexeme) if category(c) == "No"), 0)
        if not at:
            return "identifier"
        message = f"illegal character {lexeme[at]!r}"
    elif ch in "\"'":
        message = "unterminated string literal" if ch == '"' else "unterminated character literal"
    else:
        message = f"illegal character {ch!r}"
    # An earlier token with this lexeme would have raised: this is the first.
    start = next(m.start(1) for m in _TOKEN_RE.finditer(text, pos, stop) if m[1] == lexeme)
    raise ParseError(message, line, column(text, start + at))
