"""Tokenizer for Java source files.

Produces a flat token stream. Comments are kept in the stream (kind
``comment``) so line accounting can distinguish comment-only lines from code
lines; everything between tokens is whitespace, which makes the original file
reconstructible from token offsets. Non-comment Java tokens never span lines.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
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

SEPARATOR_CHARS = frozenset("(){}[];,.@")

# Longest match first; '->' and '::' must win over '-' and ':'.
MULTI_OPERATORS = (
    ">>>=", "<<=", ">>=", ">>>", "->", "==", "!=", "<=", ">=", "&&", "||",
    "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
)
SINGLE_OPERATORS = frozenset("=<>!~?:+-*/&|^%")

_WS = " \t\r\n\f"


class LexError(Exception):
    """Unterminated literal/comment or an illegal character."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at {line}:{col}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class SourceFile:
    """One Java compilation unit plus its physical-line index."""

    path: str
    content: str
    line_index: list[int] = field(default_factory=list)

    def __post_init__(self):
        if self.content.startswith("\ufeff"):
            self.content = self.content[1:]
        idx = [0]
        for i, ch in enumerate(self.content):
            if ch == "\n":
                idx.append(i + 1)
        # A trailing newline closes the last line rather than opening a new one.
        if len(idx) > 1 and idx[-1] == len(self.content):
            idx.pop()
        self.line_index = idx if self.content else []

    @classmethod
    def from_path(cls, path, root=None) -> "SourceFile":
        p = Path(path)
        rel = p.relative_to(root).as_posix() if root is not None else str(p)
        return cls(rel, p.read_text(encoding="utf-8"))

    @property
    def line_count(self) -> int:
        return len(self.line_index)

    def position(self, offset: int) -> tuple[int, int]:
        """1-based (line, column) for a character offset."""
        if not self.line_index:
            return 1, 1
        row = bisect.bisect_right(self.line_index, offset) - 1
        return row + 1, offset - self.line_index[row] + 1


@dataclass
class Token:
    kind: str  # keyword | identifier | literal | operator | separator | comment
    lexeme: str
    line: int
    col: int
    offset: int

    @property
    def length(self) -> int:
        return len(self.lexeme)

    @property
    def span(self) -> tuple[int, int, int]:
        return (self.line, self.col, self.length)


def tokenize(source: SourceFile) -> list[Token]:
    """Full token stream for *source*, comments included."""
    text = source.content
    n = len(text)
    toks: list[Token] = []
    i = 0
    while i < n:
        ch = text[i]
        if ch in _WS:
            i += 1
            continue
        line, col = source.position(i)

        if ch == "/" and i + 1 < n and text[i + 1] in "/*":
            if text[i + 1] == "/":
                j = text.find("\n", i)
                j = n if j < 0 else j
            else:
                j = text.find("*/", i + 2)
                if j < 0:
                    raise LexError("unterminated block comment", line, col)
                j += 2
            toks.append(Token("comment", text[i:j], line, col, i))
            i = j
            continue

        if ch.isalpha() or ch in "_$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            word = text[i:j]
            if word in KEYWORDS:
                kind = "keyword"
            elif word in WORD_LITERALS:
                kind = "literal"
            else:
                kind = "identifier"
            toks.append(Token(kind, word, line, col, i))
            i = j
            continue

        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            is_hex = text.startswith(("0x", "0X"), i)
            j = i
            while j < n:
                c = text[j]
                if c.isalnum() or c in "_.":
                    j += 1
                elif c in "+-" and j > i and (
                    (text[j - 1] in "pP") if is_hex else (text[j - 1] in "eE")
                ):
                    j += 1
                else:
                    break
            toks.append(Token("literal", text[i:j], line, col, i))
            i = j
            continue

        if ch in "\"'":
            quote = ch
            j = i + 1
            closed = False
            while j < n:
                c = text[j]
                if c == "\\":
                    j += 2
                    continue
                if c == quote:
                    closed = True
                    break
                if c == "\n":
                    break
                j += 1
            if not closed:
                what = "string" if quote == '"' else "character"
                raise LexError(f"unterminated {what} literal", line, col)
            toks.append(Token("literal", text[i : j + 1], line, col, i))
            i = j + 1
            continue

        if text.startswith("...", i) or text.startswith("::", i):
            lex = "..." if text.startswith("...", i) else "::"
            toks.append(Token("separator", lex, line, col, i))
            i += len(lex)
            continue

        if ch in SEPARATOR_CHARS:
            toks.append(Token("separator", ch, line, col, i))
            i += 1
            continue

        matched = None
        for op in MULTI_OPERATORS:
            if text.startswith(op, i):
                matched = op
                break
        if matched is None and ch in SINGLE_OPERATORS:
            matched = ch
        if matched is not None:
            toks.append(Token("operator", matched, line, col, i))
            i += len(matched)
            continue

        raise LexError(f"illegal character {ch!r}", line, col)
    return toks


@dataclass
class LineStats:
    """Physical-line classification; loc == code (non-blank, non-comment)."""

    physical: int
    code: int
    comment_only: int
    blank: int


def code_line_numbers(tokens: list[Token]) -> set[int]:
    """Lines carrying at least one non-comment token."""
    return {t.line for t in tokens if t.kind != "comment"}


def line_stats(source: SourceFile, tokens: list[Token], code: set[int]) -> LineStats:
    """Classify *source*'s lines; *code* is ``code_line_numbers(tokens)``."""
    commentish: set[int] = set()
    for t in tokens:
        if t.kind == "comment":
            commentish.update(range(t.line, t.line + t.lexeme.count("\n") + 1))
    comment_only = len(commentish - code)
    physical = source.line_count
    return LineStats(physical, len(code), comment_only, physical - len(code) - comment_only)
