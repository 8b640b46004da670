"""Pinned per-file facts and parser diagnostics for a fixed set of inputs.

Every input is parsed to its ``ParsedFile`` and reduced to two digests:

- the facts digest covers every field of the ``ParsedFile`` and of each
  type, field and method in it, every diagnostic's message, file, line
  and column, or the message, line and column of the error that fails the
  file. A type's ``refs`` are pinned as a sorted multiset of (raw name,
  line) pairs: their only reader, ``build_model``, folds them into a set
  and the first line per name, so their order is no output's concern;
- the diagnostics digest covers the diagnostics alone, or the error.

The diagnostics digest runs over every ``.java`` fixture, about 40 prefixes
of each (cut before evenly spaced tokens, so most end mid-construct) and
400 seeded ``random_java`` methods. The facts digest runs over those, the
hand-written cases below, 200 seeded ``random_java`` methods placed in a
class whose fields share names with their parameters, locals and loop
variables, and, one line per corpus file, every copy of the file with one
token blanked out. A token's offset is its ``lexer.token_starts`` entry.

The digests in ``fixtures/facts_digests.txt`` and
``fixtures/diagnostic_digests.txt`` were written by

    PYTHONPATH=src python tests/test_facts_digest.py

Any change to the facts the parser extracts or to what it reports shows up
here. Rewrite the files with the command above only when such a change is
intended.
"""

import dataclasses
import hashlib
import random
import sys
from pathlib import Path

from javasmell.lexer import ParseError, SourceFile, token_starts, tokenize
from javasmell.pipeline import parse_source

sys.path.insert(0, str(Path(__file__).parent))
from random_java import random_method  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
FACTS = FIXTURES / "facts_digests.txt"
DIAGNOSTICS = FIXTURES / "diagnostic_digests.txt"
PREFIXES_PER_FILE = 40
RANDOM_METHODS = 400
RANDOM_SEED = 20240501
METHODS_IN_CLASS = 200
IN_CLASS_SEED = 20240502

# Fields that the generated methods' parameters, locals and loop variables
# shadow, and some they use unshadowed; half of them follow the method.
FIELDS_BEFORE = "    int x, v, i; String names, tag; int[] items;\n"
FIELDS_AFTER = "    long big; int t0, e0, y, z;\n"

HAND_WRITTEN = [
    ("field-declarators-cut", "class A { int a = x ? 1 : 2, b = f(; int c; void m() { a++; c = b; } }"),
    (
        "case-labels-before-a-bad-tail",
        "class A { int FOO, k; void m(int k) { switch (k) { case FOO, BAR: x; case 2 -> { if (a) {} }"
        " case 3, FOO -> y(; default -> z(; case 4 x } } }",
    ),
    (
        "enhanced-for-fallback",
        "class A { int v, w; void m(List<T> xs) { for (T v : xs) v.f(; for (T w : xs) { class L"
        " { int q = w ? 1 : 2; } } for (@A T u : xs) { } for (int i = 0, j; i < w && j; i++, j--) { } } }",
    ),
    (
        "local-class-and-lambda-parameters",
        "class A { int w, x; void m() { class W { int w; void grow() { w++; if (x instanceof B) { } } }"
        " Runnable r = x -> x + w; F g = (w, q) -> this.x; } int n(int w) { return w; } }",
    ),
    (
        "instanceof-ladders",
        "class A { Object o; void m() { if (o instanceof A) { } else if ((o) instanceof B) { }"
        " else if (o instanceof C c) { } else { } if (x) { } else if (o instanceof A) { }"
        " if ((a.b().c) instanceof D) { } else if (a.b().c instanceof E) { } else if (p instanceof F) { }"
        " if (!(o instanceof A)) { } else if ((T) o instanceof B) { } if (o instanceof A)"
        " if (o instanceof B) { } else if (o instanceof C) { } }\n void n() { if (o instanceof A) {"
        " switch (o) { } } else if (o instanceof B) { if (q instanceof R) { } } } }",
    ),
    (
        "switch-selectors",
        "class A { int a, k; void m() { switch (this.a.b[0].c()) { } switch ((T) x) { case 1: }"
        " switch (A.this.k) { } switch (f()) { } switch (\"s\") { } switch (a + b) { }"
        " switch (x instanceof Y) { } switch ((x)) { } switch (x[1][2]) { } switch (super.g) { }"
        " switch (this) { } switch (new T().u) { } switch (a.b.c) { } switch (T.<U>v().w) { }"
        " switch (this(1)) { } switch (s = t) { } switch (c ? d : e) { } switch (1.5) { } } }",
    ),
    ("enum-cut", "class A { enum E { A B } int f; enum G { X(y ? 1 : 2), Z; int q; G() { q = y; } } }"),
    (
        "statement-dropped-after-a-local-class",
        "class A { int f; void m() { if (c) { class L { int g = f; } } else ) ; f++; } class B { } }",
    ),
    (
        "this-hits",
        "class A { int f, g, h, k, j; A(int f) { this.f = f; A.this.g++; (this).h = 1; this.k();"
        " this.j[0] = 2; } }",
    ),
    (
        "qualified-heads",
        "class A { void m() { a.b.c(); x.y = z.w; (p).q(); r[0].s(); t.<U>v(); Foo.class.getName();"
        " u.new V(); w::x; Y.this.z(); } }",
    ),
    (
        "reference-lines",
        "class A { void m() { Object o = (Foo)\n bar; boolean b = o\n instanceof Baz; Qux q =\n"
        " new Qux(); } }",
    ),
    (
        "resources-and-catch",
        "class A { int e, r, s; void m() { try (R r = open(); S s = g()) { } catch (X | Y e) { }"
        " finally { } } }",
    ),
    (
        "rejected-bodies",
        "class A { void a() { } void b() { ; } void c() { throw new E(); } void d() { ; throw x; ; }"
        " void e() { l: throw x; } void f() { { throw x; } } void g() { throw x; throw y; }"
        " void h() { throw x } void i() { throw x; y( } }",
    ),
    ("signatures", "class A { <T> T[] m(int a[], final String... s) [] throws E, F { return null; } }"),
    (
        "visibility-and-constants",
        "interface I { int X = 1; void m(); default void n() { } } enum E { A; E() { } private int p;"
        " public static final int Q = 1; protected int r; } class C { C() { } static final int S = 1; }",
    ),
    (
        "nested-local-classes",
        "class A { int f; void m() { class L { void n() { class M { void o() { f++;"
        " switch (f) { case 1: } } } } } } }",
    ),
    (
        "lambda-expression-body",
        "class A { int a, c; void m() { F f = (a, b) -> a && b ? new X() : (Y) c instanceof Z;"
        " G g = q -> r -> q || r; } }",
    ),
    (
        "initializers",
        "class A { int f; static { switch (f) { case 1: } } { if (f > 0 && g) { } }"
        " void m() { class L { { if (f > 0) { } switch (f) { } } int g = f ? 1 : 2; } } }",
    ),
    ("top-level-record-alone", "record P(int x) { }"),
    ("top-level-annotation-alone", "@interface A { }"),
    ("keyword-alone", "class"),
    ("name-alone", "x"),
    ("package-without-semicolon", "package a.b class A { }"),
    ("imports", "import static a.B.c; import a.*; import a.B; import static d.*; class A { }"),
    (
        "opaque-bodies",
        "class A { int f; enum E { A { int g; } } Object o = new Object() { int h; };"
        " void m() { int k = switch (f) { case 1 -> f; default -> 0; }; } }",
    ),
    ("escaped-line-break-last", 'class A { void m() { x = "a\\\nb"'),
    ("generic-method-call", "class A { void m() { this.<T>f(); A.<T>g(); } }"),
    (
        "sites-dropped-with-their-statement",
        "class A { int f; void m() { if (c) { switch (f) { } if (o instanceof A) { } } else ) ;"
        " switch (g) { } } }",
    ),
    (
        "error-inside-a-lambda",
        "class A { int f; void m() { F g = x -> y(; Object o = new Foo(); if (f > 0 ? a : b) { } } }",
    ),
    ("cast-of-an-instanceof", "class A { void m() { if ((boolean) (o instanceof A)) { } } }"),
    (
        "expressions-across-lines",
        "class A { void m() { Object o = u\n.new V(); Object p = (a)\n.new W[1]; boolean b = x\n.y\n"
        "instanceof Z; Object q = new\nQ(); r\n.s(); (T)\nt.u(); } }",
    ),
    (
        "instanceof-pattern-modifiers",
        "class A { boolean m(Object x) { if (x instanceof final Foo f && f.ok()) { }"
        " return x instanceof @Deprecated Foo g; } }",
    ),
    (
        "intersection-casts",
        "class A { void m() { Runnable r = (Runnable & java.io.Serializable) () -> {};"
        " Object o = (Comparable<String> & java.io.Serializable) \"s\"; } }",
    ),
    ("primitive-array-constructor-reference", "class A { void m() { IntFunction<int[]> a = int[]::new; } }"),
    (
        "arrow-case-statements",
        "class A { void m(int k) { switch (k) { case 1 -> foo(); case 2 -> throw new X(); default -> { } } } }",
    ),
    ("for-with-expression-lists", "class A { int i, j; void m() { for (i = 0, j = 1; i < 3; i++, j++) { } } }"),
    ("primitive-class-literals", "class A { Object a = int.class, b = int[].class; }"),
    ("annotated-package-and-enum-constant", "@Deprecated package p; enum E { @Deprecated A, B }"),
    ("empty-declarations", "; class A { ; int f; ; } ;"),
    ("mismatched-closing-angle", "class A { List<B>>> x; int y; }"),
    ("end-of-file-in-enum-constants", "enum E { A, B,"),
    ("end-of-file-in-enum-members", "enum E { A, B; int f;"),
    ("end-of-file-after-type-parameters", "class A { <T>"),
    ("modifiers-before-a-literal", "class A { void m() { final 5; int k; } }"),
]


def inputs():
    """(name, text) pairs of the diagnostics digest, in a fixed order."""
    files = sorted(FIXTURES.glob("*.java")) + sorted((FIXTURES / "corpus").glob("*.java"))
    for path in files:
        name = path.relative_to(FIXTURES).as_posix()
        text = path.read_text(encoding="utf-8")
        yield name, text
        offsets = token_starts(text)
        step = max(1, len(offsets) // PREFIXES_PER_FILE)
        for k in range(0, len(offsets), step):
            yield f"{name}@{k}", text[: offsets[k]]
    rng = random.Random(RANDOM_SEED)
    for k in range(RANDOM_METHODS):
        yield f"random_java/{k}", random_method(rng)[0]


def fact_inputs():
    """(name, texts) pairs of the facts digest, in a fixed order."""
    for name, text in inputs():
        yield name, [text]
    for name, text in HAND_WRITTEN:
        yield f"hand/{name}", [text]
    rng = random.Random(IN_CLASS_SEED)
    for k in range(METHODS_IN_CLASS):
        text = random_method(rng)[0]
        text = text.replace("class Generated {\n", "class Generated {\n" + FIELDS_BEFORE, 1)
        yield f"in_class/{k}", [text[: -len("}\n")] + FIELDS_AFTER + "}\n"]
    for path in sorted((FIXTURES / "corpus").glob("*.java")):
        text = path.read_text(encoding="utf-8")
        lexemes = tokenize(SourceFile(path.name, text)).lexemes
        yield f"corpus/{path.name}/each-token-blanked", [
            text[:at] + " " * len(lexeme) + text[at + len(lexeme) :]
            for lexeme, at in zip(lexemes, token_starts(text))
        ]


def canonical(value):
    if isinstance(value, (set, frozenset)):
        return ("set", sorted(canonical(v) for v in value))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [canonical(v) for v in value])
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, [
            (f.name, canonical(sorted(value.refs) if f.name == "refs" else getattr(value, f.name)))
            for f in dataclasses.fields(value)
        ])
    return value


def canonical_diagnostics(parsed) -> tuple:
    """Each diagnostic as its message, the file's path, line and column,
    under the label ``Diagnostic``."""
    return ("list", [
        ("Diagnostic", [("message", d.message), ("file", parsed.path), ("line", d.line), ("col", d.col)])
        for d in parsed.diagnostics
    ])


def dump_error(err: ParseError) -> str:
    return f"error {err.message!r} {err.line} {err.col}\n"


def dump_diagnostics(name: str, text: str) -> str:
    try:
        parsed = parse_source(text, name.partition("@")[0])
    except ParseError as err:
        return dump_error(err)
    return "".join(f"{d.message} {d.line} {d.col}\n" for d in parsed.diagnostics)


def dump_facts(name: str, text: str) -> str:
    try:
        parsed = parse_source(text, name.partition("@")[0])
    except ParseError as err:
        return dump_error(err)
    lines = []
    for f in dataclasses.fields(parsed):
        value = canonical_diagnostics(parsed) if f.name == "diagnostics" else canonical(getattr(parsed, f.name))
        lines.append(f"{f.name} {value!r}")
    return "\n".join(lines) + "\n"


def _digest(dumps) -> str:
    h = hashlib.sha256()
    for dump in dumps:
        h.update(dump.encode("utf-8"))
    return h.hexdigest()[:16]


def current_diagnostics() -> list:
    return [f"{name} {_digest([dump_diagnostics(name, text)])}" for name, text in inputs()]


def current_facts() -> list:
    return [
        f"{name} {_digest(dump_facts(name, text) for text in texts)}"
        for name, texts in fact_inputs()
    ]


def _compare(path: Path, actual: list):
    expected = path.read_text(encoding="utf-8").splitlines()
    assert len(actual) == len(expected)
    changed = [a.partition(" ")[0] for a, e in zip(actual, expected) if a != e]
    assert not changed, f"{len(changed)} inputs differ, first: {changed[:5]}"


def test_facts_match_pinned_digests():
    _compare(FACTS, current_facts())


def test_diagnostics_match_pinned_digests():
    _compare(DIAGNOSTICS, current_diagnostics())


if __name__ == "__main__":
    FACTS.write_text("\n".join(current_facts()) + "\n", encoding="utf-8")
    DIAGNOSTICS.write_text("\n".join(current_diagnostics()) + "\n", encoding="utf-8")
