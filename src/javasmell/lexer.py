"""Tokenizer for Java source files.

``tokenize`` returns a file's code tokens as one ``Tokens`` value, three
parallel lists of kinds, lexemes and 1-based lines. A token keeps no column:
``token_starts`` finds each token's offset by the full pass's regex, and
``column`` turns an offset into its 1-based column, so only a reported
position costs one. Comments make no token: one only advances the line
count. Only comments span lines: a string or character literal ends on its
line, so a backslash before a line break inside one is an unterminated
literal, as javac rejects it.

Two passes match the same ``_ALTERNATIVES``, tried in order. Each match
takes the horizontal blanks before it. No alternative starts on a blank and
trailing blanks match the final ``\\Z``, so a match never backtracks into a
run of blanks, which a long run would make quadratic. Longest-match rules
live in the alternatives: a ``.`` before a digit starts a number and a ``/``
before ``/`` or ``*`` a comment, ``...`` and ``::`` come before ``.`` and
``:``, and multi-character operators before their prefixes.

The fast pass takes a file that is all ASCII and holds no ``\"\"\"``. One
``findall`` of ``_FAST_RE``, whose one group spans all the alternatives,
lists the lexemes of each slice of the file, with no ``Match`` objects. A
slice ends just after the first newline ``_SLICE`` characters on, so no list
holds a whole file. A lexeme's kind is a dict lookup on the lexeme (keywords,
word literals, operators, separators, the newline), else on its first
character. A block comment that a slice cuts, which ``rare`` matches to the
slice's end, is lexed again from its start in a slice that ends past its
first ``*/``. The fast pass hands the file back at a character with no kind,
a lone quote or a comment that never closes. A file it hands back, and every
other file, takes the full pass: ``_TOKEN_RE.finditer``, whose group name
(``m.lastgroup``) is the kind. So every ``ParseError`` is the full pass's.

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
import string
import unicodedata
from dataclasses import dataclass

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
_TOKEN_RE = re.compile(
    "[ \t\r\f]*(?:" + "".join(f"(?P<{kind}>{alt})|" for kind, alt in _ALTERNATIVES) + r"\Z)")
_FAST_RE = re.compile("[ \t\r\f]*(" + "".join(f"{alt}|" for _, alt in _ALTERNATIVES) + r"\Z)")
_SLICE = 4096

_FIXED_KINDS = {**_WORD_KINDS, **dict.fromkeys((*MULTI_OPERATORS, *"=<>!~?:+-*&|^%/"), "operator"),
                **dict.fromkeys(("...", "::", *"(){}[];,@."), "separator"),
                "\n": "newline", "": "end", '"': "illegal", "'": "illegal"}
_FIRST_KINDS = {**dict.fromkeys(string.ascii_letters + "_$", "identifier"), "/": "comment",
                **dict.fromkeys(string.digits + ".\"'", "literal")}
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
    """The code tokens of *source*, in source order."""
    text = source.content
    tokens = _fast_pass(text) if text.isascii() and '"""' not in text else None
    return _full_pass(text) if tokens is None else tokens


def _fast_pass(text: str) -> Tokens | None:
    """The code tokens of the ASCII *text*, or None if it holds an illegal
    character, a lone quote or an unterminated comment."""
    tokens = Tokens([], [], [])
    kinds, lexemes, lines = tokens.kinds, tokens.lexemes, tokens.lines
    fixed, first, code, findall = _FIXED_KINDS.get, _FIRST_KINDS.get, _CODE_KINDS, _FAST_RE.findall
    line, pos, reach, end = 1, 0, 0, len(text)
    while pos < end:
        stop = text.find("\n", max(pos + _SLICE, reach)) + 1 or end
        for lexeme in findall(text, pos, stop):
            kind = fixed(lexeme) or first(lexeme[0], "illegal")
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
                    reach = text.find("*/", stop)
                    if reach < 0:
                        return None
                    pos = stop - len(lexeme)
                    break
                line += lexeme.count("\n")
            elif kind == "illegal":
                return None
        else:
            pos = stop
    return tokens


def _full_pass(text: str) -> Tokens:
    """The code tokens of *text*, or the ``ParseError`` it holds."""
    tokens = Tokens([], [], [])
    kinds, lexemes, lines = tokens.kinds, tokens.lexemes, tokens.lines
    word_kind = _WORD_KINDS.get
    line = 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
        elif kind == "comment":
            line += m[kind].count("\n")
        elif kind:  # None for the blanks at the end
            lexeme = m[kind]
            if kind == "word":
                kind = word_kind(lexeme, "identifier")
            elif kind == "rare" or kind == "illegal":
                kind = _rare_kind(text, m.start(kind), lexeme, line)
            kinds.append(kind)
            lexemes.append(lexeme)
            lines.append(line)
    return tokens


def token_starts(text: str) -> list:
    """The offset in *text* of each code token that ``tokenize`` finds in
    it, from the full pass's regex."""
    return [m.start(m.lastgroup) for m in _TOKEN_RE.finditer(text)
            if m.lastgroup not in (None, "newline", "comment")]


def column(text: str, offset: int) -> int:
    """The 1-based column of *offset* in *text*."""
    return offset - text.rfind("\n", 0, offset)


def _rare_kind(text: str, start: int, lexeme: str, line: int) -> str:
    """Kind of the token *lexeme*, at offset *start* of *text* on *line*,
    that the ``rare`` or ``illegal`` alternative matched, or the
    ``ParseError`` it stands for."""
    ch = lexeme[0]
    if lexeme.startswith("/*"):
        raise ParseError("unterminated block comment", line, column(text, start))
    if ch in "\"'":
        what = "string" if ch == '"' else "character"
        raise ParseError(f"unterminated {what} literal", line, column(text, start))
    if ch.isalpha() or ch in "_$" or unicodedata.category(ch) == "Nl":
        for k, c in enumerate(lexeme):
            if unicodedata.category(c) == "No":
                raise ParseError(f"illegal character {c!r}", line, column(text, start + k))
        return "identifier"
    raise ParseError(f"illegal character {ch!r}", line, column(text, start))
