import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from javasmell.lexer import ParseError, SourceFile, tokenize
from javasmell.pipeline import parse_source

from conftest import token_offsets

FIXTURES = Path(__file__).parent / "fixtures"


def toks(text):
    src = SourceFile("T.java", text)
    return src, tokenize(src)


def test_minimal_class():
    _, tokens = toks("class A {}")
    assert [(t.kind, t.lexeme) for t in tokens] == [
        ("keyword", "class"),
        ("identifier", "A"),
        ("separator", "{"),
        ("separator", "}"),
    ]


def test_token_views_agree_with_the_arrays():
    # bench/traced.py counts a file's tokens as len(tokenize(...)).
    for path in sorted(FIXTURES.rglob("*.java")):
        _, tokens = toks(path.read_text(encoding="utf-8"))
        arrays = list(zip(tokens.kinds, tokens.lexemes, tokens.lines, tokens.cols))
        assert [(t.kind, t.lexeme, t.line, t.col) for t in tokens] == arrays
        assert [(tokens[k].kind, tokens[k].lexeme, tokens[k].line, tokens[k].col)
                for k in range(len(tokens))] == arrays
        assert len(tokens) == len(arrays) == sum(1 for _ in tokens) > 0
        assert len(tokens.kinds) == len(tokens.lexemes) == len(tokens.lines) == len(tokens.cols)


def test_empty_input():
    _, tokens = toks("")
    assert len(tokens) == 0 and list(tokens) == []
    assert parse_source("").code_lines == ()


def test_token_spans_and_kinds():
    _, tokens = toks('int x = 12; String s = "a\\"b"; // done')
    kinds = [t.kind for t in tokens]
    assert kinds == [
        "keyword", "identifier", "operator", "literal", "separator",
        "identifier", "identifier", "operator", "literal", "separator",
    ]
    assert tokens[8].lexeme == '"a\\"b"'
    assert (tokens[0].line, tokens[0].col, len(tokens[0].lexeme)) == (1, 1, 3)


def test_operators_longest_match():
    _, tokens = toks("a >>>= b >>> c >= d -> e :: f ... g")
    ops = [t.lexeme for t in tokens if t.kind in ("operator", "separator") ]
    assert ops == [">>>=", ">>>", ">=", "->", "::", "..."]


def test_word_literals_and_dollar_identifiers():
    _, tokens = toks("boolean b = true; Foo$Bar x = null;")
    assert ("literal", "true") in [(t.kind, t.lexeme) for t in tokens]
    assert ("identifier", "Foo$Bar") in [(t.kind, t.lexeme) for t in tokens]


def test_numeric_literals_stay_single_tokens():
    _, tokens = toks("a = 1e-4 + 0x1F + 3_000L + .5f + 0xFFe; b = 1+2;")
    lits = [t.lexeme for t in tokens if t.kind == "literal"]
    assert "1e-4" in lits and "0x1F" in lits and "3_000L" in lits and ".5f" in lits
    # hex 'e' digit must not swallow the following '+'
    assert "0xFFe" in lits and "1" in lits and "2" in lits


def test_bom_is_stripped():
    src, tokens = toks("\ufeffclass A {}")
    assert tokens[0].lexeme == "class"
    assert (tokens[0].line, tokens[0].col) == (1, 1)


@pytest.mark.parametrize(
    "bad,message",
    [
        ('"unterminated', "unterminated string"),
        ("'x", "unterminated character"),
        ("/* open", "unterminated block comment"),
        ("int x = `;", "illegal character"),
        # Only comments span lines; javac rejects these too.
        ('"a\\\nb"', "unterminated string"),
        ("'\\\n'", "unterminated character"),
        ("a = ² + 1;", "illegal character '²'"),
        ("a = .²;", "illegal character '²'"),
    ],
)
def test_lex_errors_carry_position(bad, message):
    src = SourceFile("T.java", bad)
    with pytest.raises(ParseError) as err:
        tokenize(src)
    assert message in str(err.value)
    assert err.value.line == 1


@pytest.mark.parametrize("word,col", [("x²", 2), ("_x½", 3), ("$x²", 3)])
def test_word_holding_a_non_decimal_digit_is_illegal(word, col):
    with pytest.raises(ParseError) as err:
        tokenize(SourceFile("T.java", f"int {word};"))
    assert (err.value.message, err.value.col) == (f"illegal character {word[-1]!r}", 4 + col)


def test_non_ascii_letters_and_decimal_digits_stay_in_identifiers():
    words = ["xñ", "x٣", "xⅫ", "名前", "é1", "a$b", "$é"]
    _, tokens = toks(" + ".join(words))
    assert [(t.kind, t.lexeme) for t in list(tokens)[::2]] == [("identifier", w) for w in words]


def test_letter_number_starts_an_identifier():
    # javac accepts 'int Ⅻ;': a letter number (category Nl) is a Java letter.
    _, tokens = toks("int Ⅻ; int Ⅻx;")
    assert [(t.kind, t.lexeme) for t in list(tokens)[1::3]] == [("identifier", "Ⅻ"), ("identifier", "Ⅻx")]


def test_long_runs_of_horizontal_space_lex_in_linear_time():
    # Each input takes milliseconds when the regex is linear over blank
    # runs, and minutes if a match backtracks over them quadratically.
    _, tokens = toks(" " * 200_000 + "x")
    assert [(t.kind, t.lexeme, t.line, t.col) for t in tokens] == [("identifier", "x", 1, 200_001)]
    _, tokens = toks("class A { }" + " \t" * 100_000)
    assert [t.lexeme for t in tokens] == ["class", "A", "{", "}"]
    with pytest.raises(ParseError) as err:
        toks('class A { String s = "abc' + " " * 200_000)
    assert (err.value.message, err.value.line, err.value.col) == ("unterminated string literal", 1, 22)


def test_string_may_contain_comment_markers():
    _, tokens = toks('String s = "// /* no comment */";')
    assert [t.lexeme for t in tokens] == ["String", "s", "=", '"// /* no comment */"', ";"]


# ----------------------------------------------------------------------
# reconstruction invariant: each token's lexeme stands at its line and
# column, and the gaps between consecutive tokens hold only whitespace and
# comments, so lexemes, whitespace and comments reproduce the file

_COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)


def assert_reconstructs(text):
    src = SourceFile("T.java", text)
    tokens = tokenize(src)
    rebuilt = []
    pos = 0
    for t, at in zip(tokens, token_offsets(src.content, tokens)):
        gap = src.content[pos:at]
        assert _COMMENT.sub("", gap).strip() == "", f"code between tokens: {gap!r}"
        assert src.content.startswith(t.lexeme, at)
        rebuilt += [gap, t.lexeme]
        pos = at + len(t.lexeme)
    rebuilt.append(src.content[pos:])
    assert "".join(rebuilt) == src.content


def test_reconstruction_on_fixture_corpus():
    for path in sorted((FIXTURES / "corpus").glob("*.java")):
        assert_reconstructs(path.read_text(encoding="utf-8"))
    assert_reconstructs((FIXTURES / "loc_sample.java").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# line-of-code accounting, checked against an independent line classifier


def classify_lines(text):
    """Character scan tracking block comments and string literals; returns
    (code lines, comment-touched lines). Deliberately does not share any code
    with the lexer."""
    code, comment = set(), set()
    line = 1
    in_block = False
    in_str = None
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if in_block:
            comment.add(line)
            if text.startswith("*/", i):
                in_block = False
                i += 2
                continue
            i += 1
            continue
        if in_str:
            code.add(line)
            if ch == "\\":
                i += 2
                continue
            if ch == in_str:
                in_str = None
            i += 1
            continue
        if text.startswith("//", i):
            comment.add(line)
            j = text.find("\n", i)
            i = len(text) if j < 0 else j
            continue
        if text.startswith("/*", i):
            comment.add(line)
            in_block = True
            i += 2
            continue
        if ch in "\"'":
            in_str = ch
            code.add(line)
            i += 1
            continue
        if not ch.isspace():
            code.add(line)
        i += 1
    return code, comment


def test_loc_fixture_57_lines():
    text = (FIXTURES / "loc_sample.java").read_text(encoding="utf-8")
    code, comment = classify_lines(text)
    # Frozen oracle values for this fixture.
    assert text.count("\n") == 57
    assert len(code) == 51
    assert len(comment - code) == 6

    assert len(parse_source(text, "loc_sample.java").code_lines) == 51


def test_line_count_closes_the_last_line_at_a_trailing_newline():
    for text, lines in (("class A {}", 1), ("a\nb\nc", 3), ("\n\n", 2), ("x\n", 1)):
        for t in tokenize(SourceFile("T.java", text)):
            assert 1 <= t.line <= lines


def test_line_stats_agree_with_classifier_across_fixtures():
    for path in sorted((FIXTURES / "corpus").glob("*.java")):
        text = path.read_text(encoding="utf-8")
        code, _ = classify_lines(text)
        assert parse_source(text, path.name).code_lines == tuple(sorted(code))


# ----------------------------------------------------------------------
# code lines as a property over prefixes and one-token deletions of the
# fixture corpus and the LOC sample, which mixes comments into code lines

CORPUS_TEXTS = [
    p.read_text(encoding="utf-8")
    for p in [*sorted((FIXTURES / "corpus").glob("*.java")), FIXTURES / "loc_sample.java"]
]


@st.composite
def corpus_variants(draw):
    """A prefix of a corpus file, or the file with one token deleted."""
    text = draw(st.sampled_from(CORPUS_TEXTS))
    if draw(st.booleans()):
        return text[: draw(st.integers(0, len(text)))]
    tokens = tokenize(SourceFile("T.java", text))
    k = draw(st.integers(0, len(tokens) - 1))
    at = token_offsets(text, tokens)[k]
    return text[:at] + text[at + len(tokens[k].lexeme) :]


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(corpus_variants())
def test_code_lines_agree_with_classifier_on_corpus_variants(text):
    try:
        tokens = tokenize(SourceFile("T.java", text))
        parsed = parse_source(text)
    except ParseError:
        assume(False)
    assert tokens.lines == sorted(tokens.lines)
    assert parsed.code_lines == tuple(sorted(classify_lines(text)[0]))
