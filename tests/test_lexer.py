import random
import re
import shutil
import subprocess
import time
import unicodedata
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from javasmell import lexer
from javasmell.lexer import ParseError, SourceFile, Tokens, column, token_starts, tokenize
from javasmell.pipeline import parse_source

from random_java import random_method
from test_token_digest import EDGE_CASES, RANDOM_SEED

FIXTURES = Path(__file__).parent / "fixtures"


def toks(text):
    src = SourceFile("T.java", text)
    return src, tokenize(src)


def pairs(tokens):
    """(kind, lexeme) of each token."""
    return list(zip(tokens.kinds, tokens.lexemes))


def columns(src):
    """The column of each token of *src*."""
    return [column(src.content, start) for start in token_starts(src.content)]


def test_minimal_class():
    _, tokens = toks("class A {}")
    assert pairs(tokens) == [
        ("keyword", "class"),
        ("identifier", "A"),
        ("separator", "{"),
        ("separator", "}"),
    ]


def assert_starts_agree(src, tokens):
    """Each token's start holds its lexeme, on its line."""
    text, starts = src.content, token_starts(src.content)
    assert len(tokens) == len(starts) == len(tokens.kinds) == len(tokens.lexemes) == len(tokens.lines)
    for lexeme, line, start in zip(tokens.lexemes, tokens.lines, starts):
        assert text.startswith(lexeme, start)
        assert text.count("\n", 0, start) + 1 == line


def test_token_starts_agree_with_tokenize():
    # bench/traced.py counts a file's tokens as len(tokenize(...)).
    rng = random.Random(RANDOM_SEED)
    texts = [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.rglob("*.java"))]
    texts += [random_method(rng)[0] for _ in range(400)]
    # Not all ASCII: a comment, and words, literals and strings holding 'é'.
    texts += [variant for text in texts for variant in ("// é\n" + text, text.replace("e", "é"))]
    for text in texts:
        assert_starts_agree(*toks(text))
    lexed = 0
    for _, text in EDGE_CASES:
        try:
            src, tokens = toks(text)
        except ParseError:
            continue
        assert_starts_agree(src, tokens)
        lexed += 1
    assert lexed > 20


def test_empty_input():
    src, tokens = toks("")
    assert len(tokens) == 0 and tokens.kinds == [] and token_starts(src.content) == []
    assert parse_source("").code_lines == ()


def test_token_spans_and_kinds():
    src, tokens = toks('int x = 12; String s = "a\\"b"; // done')
    assert tokens.kinds == [
        "keyword", "identifier", "operator", "literal", "separator",
        "identifier", "identifier", "operator", "literal", "separator",
    ]
    assert tokens.lexemes[8] == '"a\\"b"'
    assert (tokens.lines[0], columns(src)[0], len(tokens.lexemes[0])) == (1, 1, 3)


def test_operators_longest_match():
    _, tokens = toks("a >>>= b >>> c >= d -> e :: f ... g")
    ops = [lexeme for kind, lexeme in pairs(tokens) if kind in ("operator", "separator")]
    assert ops == [">>>=", ">>>", ">=", "->", "::", "..."]


def test_word_literals_and_dollar_identifiers():
    _, tokens = toks("boolean b = true; Foo$Bar x = null;")
    assert ("literal", "true") in pairs(tokens)
    assert ("identifier", "Foo$Bar") in pairs(tokens)


def test_numeric_literals_stay_single_tokens():
    _, tokens = toks("a = 1e-4 + 0x1F + 3_000L + .5f + 0xFFe; b = 1+2;")
    lits = [lexeme for kind, lexeme in pairs(tokens) if kind == "literal"]
    assert "1e-4" in lits and "0x1F" in lits and "3_000L" in lits and ".5f" in lits
    # hex 'e' digit must not swallow the following '+'
    assert "0xFFe" in lits and "1" in lits and "2" in lits


def test_bom_is_stripped():
    src, tokens = toks("\ufeffclass A {}")
    assert tokens.lexemes[0] == "class"
    assert (tokens.lines[0], columns(src)[0]) == (1, 1)


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
    assert pairs(tokens)[::2] == [("identifier", w) for w in words]


def test_letter_number_starts_an_identifier():
    # javac accepts 'int Ⅻ;': a letter number (category Nl) is a Java letter.
    _, tokens = toks("int Ⅻ; int Ⅻx;")
    assert pairs(tokens)[1::3] == [("identifier", "Ⅻ"), ("identifier", "Ⅻx")]


def test_long_runs_of_horizontal_space_lex_in_linear_time():
    # Each input takes milliseconds when the regex is linear over blank
    # runs, and minutes if a match backtracks over them quadratically.
    src, tokens = toks(" " * 200_000 + "x")
    assert (pairs(tokens), tokens.lines, columns(src)) == ([("identifier", "x")], [1], [200_001])
    _, tokens = toks("class A { }" + " \t" * 100_000)
    assert tokens.lexemes == ["class", "A", "{", "}"]
    with pytest.raises(ParseError) as err:
        toks('class A { String s = "abc' + " " * 200_000)
    assert (err.value.message, err.value.line, err.value.col) == ("unterminated string literal", 1, 22)


def test_string_may_contain_comment_markers():
    _, tokens = toks('String s = "// /* no comment */";')
    assert tokens.lexemes == ["String", "s", "=", '"// /* no comment */"', ";"]


# ----------------------------------------------------------------------
# reconstruction invariant: each token's lexeme stands at its start, and
# the gaps between consecutive tokens hold only whitespace and
# comments, so lexemes, whitespace and comments reproduce the file

_COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)


def assert_reconstructs(text):
    src = SourceFile("T.java", text)
    tokens = tokenize(src)
    rebuilt = []
    pos = 0
    for lexeme, at in zip(tokens.lexemes, token_starts(src.content)):
        gap = src.content[pos:at]
        assert _COMMENT.sub("", gap).strip() == "", f"code between tokens: {gap!r}"
        assert src.content.startswith(lexeme, at)
        rebuilt += [gap, lexeme]
        pos = at + len(lexeme)
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
        for line in tokenize(SourceFile("T.java", text)).lines:
            assert 1 <= line <= lines


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
    lexemes = tokenize(SourceFile("T.java", text)).lexemes
    k = draw(st.integers(0, len(lexemes) - 1))
    at = token_starts(text)[k]
    return text[:at] + text[at + len(lexemes[k]) :]


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


# ----------------------------------------------------------------------
# javac's scanner as the lexer's oracle: every input lexes to the same
# lexemes on the same lines, except the inputs listed below

SCAN = [
    "java",
    "--add-exports", "jdk.compiler/com.sun.tools.javac.parser=ALL-UNNAMED",
    "--add-exports", "jdk.compiler/com.sun.tools.javac.util=ALL-UNNAMED",
    str(Path(__file__).parent / "javac" / "Scan.java"),
]

# Inputs the lexer and javac's scanner read differently (ROADMAP items 2
# and 10), each with its reason. Each must still differ: one that agrees
# has been mended and leaves this list.
KNOWN_DIFFERENCES = {
    # The lexer has no text blocks: it reads '""' and then an unterminated
    # string, and fails the file.
    "text-block": 'class A { String s = """\n    hi\n    """; }\n',
    # javac translates Unicode escapes before it lexes; the lexer fails the
    # file at the backslash.
    "unicode-escape": "class \\u0041 { int x = 1; }\n",
    # A combining mark is a Java identifier part; the lexer fails the file.
    "combining-mark": "class A { int cafe\u0301; }\n",
    # A letter new in Unicode 14: Python's tables have it, JDK 17's do not.
    "unicode-14-letter": "class A { int x\u0870; }\n",
}


def javac_tokens(paths) -> dict:
    """{path: [(line, lexeme)]} as javac's scanner reads each file; a token
    it cannot read has the lexeme ``!error``."""
    out = subprocess.run([*SCAN, *map(str, paths)], capture_output=True, check=True).stdout
    unescape = {"\\": "\\", "t": "\t", "r": "\r", "n": "\n"}
    tokens = {}
    for row in out.decode("utf-8").split("\n")[:-1]:
        if row.startswith("= "):
            current = tokens[row[2:]] = []
        else:
            line, lexeme = row.split("\t", 1)
            current.append((int(line), re.sub(r"\\(.)", lambda m: unescape[m[1]], lexeme)))
    return tokens


def lexer_tokens(path):
    """[(line, lexeme)] as the lexer reads the file at *path*, or its error."""
    try:
        tokens = tokenize(SourceFile.from_path(path, path.name))
    except ParseError as err:
        return str(err)
    return list(zip(tokens.lines, tokens.lexemes))


@pytest.mark.skipif(not shutil.which("java"), reason="javac's scanner (JDK 17) is the lexer's oracle")
def test_lexemes_and_lines_match_javacs_scanner(tmp_path):
    rng = random.Random(RANDOM_SEED)
    paths = sorted(FIXTURES.rglob("*.java"))
    for k in range(200):
        paths.append(tmp_path / f"Random{k}.java")
        paths[-1].write_text(random_method(rng)[0], encoding="utf-8")
    known = []
    for name, text in KNOWN_DIFFERENCES.items():
        known.append(tmp_path / f"{name}.java")
        known[-1].write_text(text, encoding="utf-8")
    javac = javac_tokens(paths + known)
    assert len(javac[str(FIXTURES / "corpus" / "GodModule.java")]) == 339
    for path in paths:
        assert lexer_tokens(path) == javac[str(path)], path.name
    for path in known:
        assert lexer_tokens(path) != javac[str(path)], path.name


# ----------------------------------------------------------------------
# block comments across 4 KB boundaries, long inputs, and ASCII anomalies,
# each with the lexemes, lines or error that the construction fixes


def straddling_file(seed, size=60_000, step=4096):
    """(text, [(line, lexeme)]): one-line statements, with a block comment
    or a Javadoc across each multiple of *step*, and more comments at
    random. Comments hold quotes, '#', '`', '//' and '/*'; strings hold
    comment markers."""
    rng = random.Random(seed)
    text, expected, line, boundary = [], [], 1, step
    length = 0

    def add(piece, tokens=()):
        nonlocal line, length
        expected.extend((line, lexeme) for lexeme in tokens)
        text.append(piece)
        length += len(piece)
        line += piece.count("\n")

    def comment():
        body = "\n".join(
            rng.choice([" * don't", " # x `y`", " a // b /* c", ' say "hi', " ** /", ""])
            for _ in range(rng.randint(2, 6))
        )
        return rng.choice(["/*", "/**"]) + body + rng.choice(["*/", "\n */", "**/"])

    while length < size:
        if length + 130 >= boundary:
            # A comment of at least 130 characters starts before the boundary.
            pad = "x" * 130
            add(comment()[:2] + pad + "\n" + comment()[2:] + rng.choice([" ", "\n"]))
            boundary += step
            continue
        k = len(expected)
        roll = rng.random()
        if roll < 0.2:
            add(comment() + "\n")
        elif roll < 0.3:
            add(f"int a{k} = 1; /* c */ int b{k}; // d /* e\n",
                ["int", f"a{k}", "=", "1", ";", "int", f"b{k}", ";"])
        elif roll < 0.4:
            add(f's = "/* {k} //" + \'*\';\n', ["s", "=", f'"/* {k} //"', "+", "'*'", ";"])
        else:
            add(f"int v{k} = {k} / 2;\n", ["int", f"v{k}", "=", str(k), "/", "2", ";"])
    return "".join(text), expected


def test_comments_across_4096_character_boundaries_keep_lexemes_and_lines():
    for seed in range(3):
        text, expected = straddling_file(seed)
        for k in range(1, len(text) // 4096 + 1):
            head = text[: k * 4096]
            assert head.rfind("/*") > head.rfind("*/"), (seed, k)  # inside a comment
        tokens = tokenize(SourceFile("T.java", text))
        assert list(zip(tokens.lines, tokens.lexemes)) == expected, seed


def test_a_2_mb_block_comment_and_200_000_lines_lex_in_seconds():
    comment = "/**\n" + " * text, 'quoted' and \"more\" /* // #\n" * 55_000 + " */"
    assert len(comment) > 2_000_000
    for text, lexemes, lines in (
        ("class A {" + comment + "}", ["class", "A", "{", "}"], [1, 1, 1, 55_002]),
        ("int x; " + comment.replace("\n", " ") + " int y;", ["int", "x", ";", "int", "y", ";"], [1] * 6),
        ("int a = 1;\n" * 200_000, ["int", "a", "=", "1", ";"] * 200_000,
         [k // 5 + 1 for k in range(1_000_000)]),
    ):
        start = time.perf_counter()
        tokens = tokenize(SourceFile("T.java", text))
        assert time.perf_counter() - start < 10
        assert (tokens.lexemes, tokens.lines) == (lexemes, lines)


@pytest.mark.parametrize(
    "text,message,line,col",
    [
        ('class A { }\n"', "unterminated string literal", 2, 1),
        ("class A { }\n'", "unterminated character literal", 2, 1),
        ("int x;\n" * 10_000 + "int y; /* open\n end", "unterminated block comment", 10_001, 8),
        ("class A {\n  int \\u0041 = 1; }", "illegal character '\\\\'", 2, 7),
        ("class A {\n int x = `; }", "illegal character '`'", 2, 10),
        ("class A {\n#define X\n}", "illegal character '#'", 2, 1),
        ("class A {\n int x;\x00 }", "illegal character '\\x00'", 2, 8),
        ("class A {\n int x;\x0b }", "illegal character '\\x0b'", 2, 8),
        ("int x;\n" * 1199 + 'String s = """\n hi\n """;', "unterminated string literal", 1200, 14),
    ],
    ids=["quote", "apostrophe", "open-comment", "unicode-escape", "backtick", "hash", "nul",
         "vertical-tab", "text-block"],
)
def test_ascii_anomalies_keep_message_line_and_column(text, message, line, col):
    with pytest.raises(ParseError) as err:
        tokenize(SourceFile("T.java", text))
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


@pytest.mark.parametrize(
    "text,message,line,col",
    [
        ("int x²;", "illegal character '²'", 1, 6),
        ("int €x;", "illegal character '€'", 1, 5),
        ("int ‿y;", "illegal character '‿'", 1, 5),
        ("int cafe\u0301;", "illegal character '\u0301'", 1, 9),
        ("int\u00a0x;", "illegal character '\\xa0'", 1, 4),
        ("int x\u200b;", "illegal character '\\u200b'", 1, 6),
        ("int x\u00ady;", "illegal character '\\xad'", 1, 6),
        ("// é\n" * 10_000 + "int y = ²;", "illegal character '²'", 10_001, 9),
        ('// x²\nString s = "x²";\nint x²;', "illegal character '²'", 3, 6),
    ],
    ids=["superscript", "euro", "tie", "combining-mark", "nbsp", "zwsp", "soft-hyphen",
         "later-slice", "after-comment-and-string"],
)
def test_non_ascii_anomalies_keep_message_line_and_column(text, message, line, col):
    with pytest.raises(ParseError) as err:
        tokenize(SourceFile("T.java", text))
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


def test_non_ascii_decimal_digits_and_letters_keep_their_kinds():
    words = ["٣", ".٣", "1٣", "x٣", "Ⅻ", "café", "𝒳", "ǅ"]
    _, tokens = toks(" + ".join(words))
    assert pairs(tokens)[::2] == [("literal", "٣"), ("literal", ".٣"), ("literal", "1٣"),
                                  ("identifier", "x٣"), ("identifier", "Ⅻ"),
                                  ("identifier", "café"), ("identifier", "𝒳"), ("identifier", "ǅ")]


def test_triple_quote_inside_a_line_comment_lexes_as_code_around_it():
    _, tokens = toks('// a """ b\nint x; /* """ */ String s = "\\"\\"\\"";')
    assert list(zip(tokens.kinds, tokens.lexemes, tokens.lines)) == [
        ("keyword", "int", 2), ("identifier", "x", 2), ("separator", ";", 2),
        ("identifier", "String", 2), ("identifier", "s", 2), ("operator", "=", 2),
        ("literal", '"\\"\\"\\""', 2), ("separator", ";", 2),
    ]


# ----------------------------------------------------------------------
# the lexer's former full pass, frozen as a reference: one finditer over
# the whole file, whose group name is the kind. tokenize gives its arrays
# or its error, and token_starts its offsets, on every input at any slice
# size

_TOKEN_RE = re.compile(
    "[ \t\r\f]*(?:" + "".join(f"(?P<{kind}>{alt})|" for kind, alt in lexer._ALTERNATIVES) + r"\Z)")
_WORD_KINDS = {**dict.fromkeys(lexer.KEYWORDS, "keyword"), **dict.fromkeys(lexer.WORD_LITERALS, "literal")}


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


def reference_starts(text):
    """The offsets the reference's regex gives *text*'s code tokens."""
    return [m.start(m.lastgroup) for m in _TOKEN_RE.finditer(text)
            if m.lastgroup not in (None, "newline", "comment")]


HOSTILE = ['"', "'", "/*", "*/", "/**/", "`", "#", "\\", "\x00", "\x0b", '"""', "//", "\n",
           "\\u0041", "é", "\r", "\f", "'\\'", '"\\', "/*/", "*", "/",
           "café", "x²", "Ⅻ", "€x", "‿y", "e\u0301", "٣", ".٣", "1٣", "x٣", "\u00a0", "\u0085",
           "\u00ad", "\u200b", "\ufeff", "𝒳", "ǅ", "\U0001f600"]


def outcome(lex, text):
    """(arrays, None) for the arrays *lex* gives for *text*, or (None, the
    fields of its error)."""
    try:
        tokens = lex(text)
    except ParseError as err:
        return None, (err.message, err.line, err.col)
    return (tokens.kinds, tokens.lexemes, tokens.lines), None


def agrees(text):
    """Whether ``tokenize`` lexes *text*, after checking that it gives the
    reference's arrays or error, and ``token_starts`` its offsets."""
    src = SourceFile("T.java", text)
    arrays, error = outcome(_full_pass, src.content)
    assert outcome(tokenize, src) == (arrays, error)
    assert error is not None or token_starts(src.content) == reference_starts(src.content)
    return error is None


def mutants(rng, texts, count):
    """*count* texts of *texts*, each with one to three hostile strings
    spliced in at random offsets."""
    for _ in range(count):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(HOSTILE) + text[at:]
        yield text


def test_tokenize_agrees_with_the_former_full_pass(monkeypatch):
    rng = random.Random(RANDOM_SEED)
    files = [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.rglob("*.java"))]
    files += [random_method(rng)[0] for _ in range(400)]
    files += [straddling_file(seed, size=20_000)[0] for seed in range(3)]
    edges = [SourceFile("T.java", text).content for _, text in EDGE_CASES]
    edges += [text[:k] for text in edges for k in range(len(text))]
    hostile = list(mutants(rng, files, 1500))
    lexed = []
    for size in (1, 64, 4096):
        monkeypatch.setattr(lexer, "_SLICE", size)
        assert all(map(agrees, files))
        lexed.append([text for text in edges + hostile if agrees(text)])
    assert lexed[0] == lexed[1] == lexed[2]
    assert 800 < len(lexed[0]) < len(edges + hostile) - 800
    assert sum(not text.isascii() for text in lexed[0]) > 200
