import dataclasses
import pickle
import shutil
import subprocess
import threading
import time
from pathlib import Path

import pytest

from javasmell.lexer import SourceFile, Tokens, tokenize
from javasmell.pipeline import parse_source
from javasmell.parser import LadderSite, ParseError, SwitchSite, _Parser, parse

FIXTURES = Path(__file__).parent / "fixtures"


def parse_text(text, path="T.java"):
    """The facts of *text*: its ``ParsedFile``."""
    return parse_source(text, path)


def ref_names(info):
    return sorted(raw for raw, _ in info.refs)


def diagnostics(parsed):
    return [(d.line, d.message) for d in parsed.diagnostics]


def test_minimal_class_with_method():
    parsed = parse_text("class A { void m(){} }")
    (a,) = parsed.types
    assert (a.qname, a.kind) == ("A", "class")
    (m,) = a.methods
    assert (m.name, m.cc) == ("m", 1)


def test_extends_implements():
    (a,) = parse_text("class A extends B implements C, D {}").types
    assert a.supertype_raw == "B"
    assert ref_names(a) == ["B", "C", "D"]


def test_interface_extends_go_to_interfaces():
    (i,) = parse_text("interface I extends A, B {}").types
    assert i.supertype_raw is None
    assert ref_names(i) == ["A", "B"]


def test_two_top_level_classes():
    assert [t.qname for t in parse_text("class A {}\nclass B {}").types] == ["A", "B"]


def test_package_imports_and_nesting():
    parsed = parse_text(
        """
        package com.example.app;
        import java.util.List;
        import java.io.*;
        import static java.lang.Math.max;
        public class Outer {
            class Inner { }
            static class Helper { }
        }
        """
    )
    assert parsed.package == "com.example.app"
    # A static import names no type.
    assert parsed.imports == (("java.util.List", False), ("java.io", True))
    assert [(t.qname, t.outer) for t in parsed.types] == [
        ("com.example.app.Outer", None),
        ("com.example.app.Outer.Inner", "com.example.app.Outer"),
        ("com.example.app.Outer.Helper", "com.example.app.Outer"),
    ]


@pytest.mark.parametrize(
    "text, package, imports, qnames, diags",
    [
        # A header item out of place is reported where a type declaration
        # was expected, and skipped to its ';'.
        ("package p; package q; class A { }", "p", (), ["p.A"],
         [("expected type declaration, found 'package'", 1, 12)]),
        ("import q.B; package p; class A { }", "", (("q.B", False),), ["A"],
         [("expected type declaration, found 'package'", 1, 13)]),
        ("package p; class A { } import q.B; class C { }", "p", (), ["p.A", "p.C"],
         [("expected type declaration, found 'import'", 1, 24)]),
        ("public import q.B; class A { }", "", (), ["A"],
         [("expected type declaration, found 'import'", 1, 8)]),
        ("package p; ; import q.B; class A { }", "p", (), ["p.A"],
         [("expected type declaration, found 'import'", 1, 14)]),
        ("@Deprecated package p; class A { }", "p", (), ["p.A"], []),
        ("@ class A { }", "", (), ["A"], [("expected identifier, found 'class'", 1, 3)]),
        ("@A;", "", (), [], []),
        # A broken package or import keeps the name read before the error,
        # and the header stays open after it.
        ("package p.; class A { }", "p", (), ["p.A"], [("expected ';', found '.'", 1, 10)]),
        ("package p import q.R; class A { }", "p", (), ["p.A"], [("expected ';', found 'import'", 1, 11)]),
        ("import a.; import b.C; class A { }", "", (("b.C", False),), ["A"],
         [("expected ';', found '.'", 1, 9)]),
        # A stray '}' closes the header.
        ("} import q.B; class A { }", "", (), ["A"], [
            ("expected type declaration, found '}'", 1, 1),
            ("expected type declaration, found 'import'", 1, 3),
        ]),
    ],
)
def test_file_header_shapes(text, package, imports, qnames, diags):
    parsed = parse_text(text)
    assert (parsed.package, parsed.imports) == (package, imports)
    assert [t.qname for t in parsed.types] == qnames
    assert [(d.message, d.line, d.col) for d in parsed.diagnostics] == diags


def test_generics_erased_annotations_dropped():
    (a,) = parse_text(
        """
        class A {
            @Deprecated
            @SuppressWarnings("x")
            private Map<String, List<Integer>> index = new HashMap<>();
            <T extends Comparable<T>> T pick(List<T> items, int[] weights) { return null; }
        }
        """
    ).types
    assert [(f.name, f.visibility) for f in a.fields] == [("index", "private")]
    (m,) = a.methods
    assert (m.name, m.arity) == ("pick", 2)
    # Field, creation, return and parameter types; int names no type.
    assert ref_names(a) == ["HashMap", "List", "Map", "T"]


def test_field_declarator_groups_split():
    (a,) = parse_text("class A { public int a, b = 2, c[]; }").types
    assert [(f.name, f.visibility, f.is_constant) for f in a.fields] == [
        ("a", "public", False), ("b", "public", False), ("c", "public", False)
    ]


def test_constructor_and_varargs():
    parsed = parse_text("class A { A(Integer x) { } void log(String fmt, Object... args) { } }")
    assert parsed.diagnostics == []
    (a,) = parsed.types
    (log,) = a.methods  # the constructor leaves no MethodInfo, only its references
    assert (log.name, log.arity) == ("log", 2)
    assert ref_names(a) == ["Integer", "Object", "String"]


def test_enum_constants_and_members():
    (mode,) = parse_text(
        """
        enum Mode implements Marker {
            ON(1), OFF(0);
            private final int level;
            Mode(int level) { this.level = level; }
            int level() { return level; }
        }
        """
    ).types
    assert mode.kind == "enum"
    assert [f.name for f in mode.fields] == ["level"]
    # The constants are no members, and the constructor leaves no method.
    assert [(m.name, m.visibility, m.field_uses) for m in mode.methods] == [("level", "package", 1)]
    assert ref_names(mode) == ["Marker"]


def test_statement_forms_parse():
    parsed = parse_text(
        """
        class A {
            int work(int[] xs, java.util.List<String> names) {
                int acc = 0;
                for (int i = 0; i < xs.length; i++) { acc += xs[i]; }
                for (String name : names) { acc -= name.length(); }
                while (acc > 100) { acc /= 2; }
                do { acc++; } while (acc < 0);
                switch (acc) {
                    case 1: acc = 2; break;
                    case 2: break;
                    default: break;
                }
                try (AutoCloseable c = open()) {
                    acc = c == null ? acc : acc + 1;
                } catch (RuntimeException | Error e) {
                    throw new IllegalStateException(e);
                } finally {
                    acc--;
                }
                synchronized (this) { acc = acc & 0xFF; }
                assert acc >= 0 : "negative";
                label: while (true) { break label; }
                Runnable r = () -> { int z = 1; };
                Object o = (Object) names;
                boolean b = o instanceof String;
                return acc;
            }
        }
        """
    )
    assert parsed.diagnostics == []
    (work,) = parsed.types[0].methods
    # 1 + for + enhanced-for + while + do + two case labels + ternary +
    # catch + labeled while; the lambda body is opaque.
    assert work.cc == 10
    assert parsed.types[0].hierarchy_sites == [("work", SwitchSite(9, 2, "acc", "acc"))]
    assert work.rejected_body is False
    # Types by line, and the heads of qualified names, which may be variables.
    assert sorted(parsed.types[0].refs) == [
        ("AutoCloseable", 14), ("Error", 16), ("IllegalStateException", 17), ("Object", 25),
        ("Object", 25), ("Runnable", 24), ("RuntimeException", 16), ("String", 6), ("String", 26),
        ("java.util.List", 3), ("name", 6), ("xs", 5),
    ]


def test_case_labels_end_where_an_expression_ends():
    # javac 17 compiles both switches once FOO, BAR and BAZ are int
    # constants. A label may be a conditional, and an arrow label that is a
    # bare name is that name, not a lambda.
    parsed = parse_text(
        "class A { int x; int m(int k) { switch (k) { case true ? 2 : 3: return 1; } return 0; }\n"
        " void n(int k) { switch (k) { case FOO -> foo(x); case BAR, BAZ -> bar(); default -> baz(); } } }"
    )
    assert parsed.diagnostics == []
    assert [(m.name, m.cc, m.field_uses) for m in parsed.types[0].methods] == [("m", 3, 0), ("n", 4, 1)]
    assert parsed.types[0].hierarchy_sites == [
        ("m", SwitchSite(1, 1, "k", "k")), ("n", SwitchSite(2, 3, "k", "k")),
    ]


def test_instanceof_operand_text_and_switch_terminal():
    (a,) = parse_text(
        """
        class A {
            void f(Object payload, Msg msg) {
                if ((payload) instanceof Text) { }
                switch (msg.getKind()) { case 1: break; case 2: break; }
            }
        }
        """
    ).types
    assert a.hierarchy_sites == [
        ("f", LadderSite(4, 1, "payload")),
        ("f", SwitchSite(5, 2, "getKind", "msg.getKind()")),
    ]


def one_token_per_line(text):
    return "\n".join(text.split())


@pytest.mark.parametrize(
    "cond, site, refs",
    [
        ("a == b instanceof T", None, [("T", 2)] * 3),
        ("a instanceof T && b", None, [("T", 2)] * 3),
        ("a + b instanceof T", LadderSite(2, 3, "?"), [("T", 2)] * 3),
        ("a < b instanceof T", LadderSite(2, 3, "?"), [("T", 2)] * 3),
        (one_token_per_line("a && b instanceof T"), None, [("T", 4), ("T", 8), ("T", 12)]),
        (one_token_per_line("a < b instanceof T"), LadderSite(2, 3, "?"), [("T", 2), ("T", 6), ("T", 10)]),
        (one_token_per_line("a ? b : c instanceof T"), None, [("T", 6), ("T", 12), ("T", 18)]),
    ],
)
def test_instanceof_test_and_its_line_follow_precedence(cond, site, refs):
    # A condition is an instanceof test only when instanceof is its loosest
    # operator; the type is referred to where instanceof's left operand starts.
    ladder = "if (%s) { } else if (%s) { } else if (%s) { } else { }" % ((cond,) * 3)
    parsed = parse_text("class A { void m() {\n%s\n} }" % ladder)
    assert parsed.diagnostics == []
    (a,) = parsed.types
    assert a.hierarchy_sites == ([] if site is None else [("m", site)])
    assert sorted(a.refs) == refs


def test_long_call_chains_in_switch_and_instanceof_are_analyzed():
    # A selector or operand text is built link by link, so a chain far
    # longer than the recursion limit allows is read like any other.
    chain = "a" + ".b()" * 1200
    (a,) = parse_text(
        "class A {\n  void f() {\n    switch (%s) { case 1: break; }\n"
        "    if (%s instanceof B) { }\n  }\n}\n" % (chain, chain)
    ).types
    assert a.hierarchy_sites == [("f", SwitchSite(3, 1, "b", chain)), ("f", LadderSite(4, 1, chain))]


def test_kitchen_sink_compilation_unit():
    parsed = parse_text(
        """
        package com.example.transfer;
        import java.util.*;
        public final class ChannelRegistry<T extends Channel> implements Registry<T>, AutoCloseable {
            private static final Map<String, ChannelRegistry<?>> INSTANCES = new ConcurrentHashMap<>();
            protected volatile int flags = 0x1F & ~0b10;
            private String[] names = new String[] { "a", "b" };
            private double ratio = flags > 0 ? 1.5e-3 : .25d;
            static { INSTANCES.put("default", new ChannelRegistry<Channel>()); }
            { flags |= 2; }
            public ChannelRegistry() { this(0); }
            public ChannelRegistry(int flags) { super(); this.flags = flags; }
            @Override
            public synchronized <R> R lookup(String name, Class<R> want) throws RegistryException {
                for (Iterator<T> it = channels(); it.hasNext(); ) {
                    T next = it.next();
                    if (next instanceof NamedChannel && ((NamedChannel) next).name().equals(name)) {
                        return (R) next;
                    }
                }
                outer:
                for (int i = 0, j = names.length - 1; i < j; i++, j--) {
                    switch (names[i].charAt(0)) {
                        case 'a':
                        case 'b': continue outer;
                        default: break outer;
                    }
                }
                do { flags >>>= 1; } while (flags != 0);
                try (Scanner sc = new Scanner(System.in)) {
                    int[][] grid = new int[3][];
                    grid[0] = new int[] {1, 2, 3};
                } catch (RuntimeException | Error e) {
                    throw new RegistryException(e.getMessage(), e);
                } finally {
                    sort(Comparator.comparing(Object::toString));
                }
                Runnable r = () -> System.out.println("hi");
                Supplier<String> s = name::trim;
                return want.cast(null);
            }
            public void close() { }
            interface Marker { }
        }
        """
    )
    assert parsed.diagnostics == []
    registry, marker = parsed.types
    assert (registry.qname, marker.outer) == ("com.example.transfer.ChannelRegistry", registry.qname)
    assert [f.name for f in registry.fields] == ["INSTANCES", "flags", "names", "ratio"]
    # The two constructors leave no method.
    assert [m.name for m in registry.methods] == ["lookup", "close"]
    assert {"Registry", "AutoCloseable", "ConcurrentHashMap", "NamedChannel"} <= set(ref_names(registry))
    lookup = registry.methods[0]
    assert lookup.cc == 9
    assert registry.hierarchy_sites == [("lookup", SwitchSite(23, 2, "charAt", "names[].charAt()"))]


def test_array_creation_with_initializer_forms():
    parsed = parse_text(
        "class A { int[] a = new int[] {1, 2}; int[] b = new int[3]; int[][] c = new int[2][]; }"
    )
    assert parsed.diagnostics == []
    (a,) = parsed.types
    assert [f.name for f in a.fields] == ["a", "b", "c"]
    assert a.refs == ()  # int names no type


def test_unsupported_constructs_become_opaque_with_diagnostic():
    parsed = parse_text(
        """
        class A {
            Runnable r = new Runnable() { public void run() { log("}"); } };
            void after() { }
        }
        """
    )
    (a,) = parsed.types
    assert [f.name for f in a.fields] == ["r"]
    assert [m.name for m in a.methods] == ["after"]
    assert [d.message for d in parsed.diagnostics] == ["anonymous class body skipped"]


def test_unbraced_enhanced_for_reports_the_error_in_its_body():
    # Past a matched "Type name :" header, a body error is reported at its own token.
    text = "class A { void m(List<String> xs) { for (String v : xs) v.f(; int k; } }"
    parsed = parse_text(text)
    (d,) = parsed.diagnostics
    assert (d.message, d.col) == ("unexpected token ';' in expression", text.index("; int k") + 1)
    assert [m.name for m in parsed.types[0].methods] == ["m"]


def test_annotated_loop_variable_keeps_the_loop():
    parsed = parse_text(
        "class A { void m(java.util.List<String> xs) {"
        " for (@Deprecated String u : xs) { if (u.isEmpty()) { } } } }"
    )
    assert parsed.diagnostics == []
    (m,) = parsed.types[0].methods
    assert m.cc == 3  # 1 + enhanced-for + if


def test_annotated_final_local_is_a_declaration():
    parsed = parse_text("class A { int x; void m() { @Deprecated final int x = 1; x++; } }")
    assert parsed.diagnostics == []
    (m,) = parsed.types[0].methods
    assert m.field_uses == 0  # the local x shadows the field


def test_annotated_local_class_is_a_type():
    parsed = parse_text(
        "class A { void m() { @Deprecated class L { int f; } @SuppressWarnings(\"x\")\n T t; } }"
    )
    assert parsed.diagnostics == []
    assert [t.qname for t in parsed.types] == ["A", "A.L"]
    assert sorted(parsed.types[0].refs) == [("T", 2)]  # the type's line, not the annotation's


def test_strictfp_local_class_is_a_type():
    # javac 17 compiles it, warning that strictfp is redundant.
    parsed = parse_text("class P { void m() { strictfp class L { } } }")
    assert parsed.diagnostics == []
    assert [t.qname for t in parsed.types] == ["P", "P.L"]


def test_instanceof_pattern_takes_final_and_annotations():
    # javac 17 compiles both patterns.
    parsed = parse_text(
        "class A { boolean m(Object x) { if (x instanceof final Foo f && f.ok()) { }\n"
        " return x instanceof @Deprecated Bar g; } }"
    )
    assert parsed.diagnostics == []
    (a,) = parsed.types
    assert a.methods[0].cc == 3
    assert ("Foo", 1) in a.refs and ("Bar", 2) in a.refs


def test_intersection_cast_refers_to_every_bound():
    # javac 17 compiles both casts.
    parsed = parse_text(
        "class A { void m() { Runnable r = (Runnable & java.io.Serializable) () -> {};\n"
        ' Object o = (Comparable<String> & java.io.Serializable) "s"; } }'
    )
    assert parsed.diagnostics == []
    assert sorted(parsed.types[0].refs) == [
        ("Comparable", 2), ("Object", 2), ("Runnable", 1), ("Runnable", 1),
        ("java.io.Serializable", 1), ("java.io.Serializable", 2),
    ]


def test_primitive_cast_of_an_increment():
    # javac 17 compiles both: a primitive cast's operand is any unary expression.
    parsed = parse_text("class A { int x; void m() { int y = (int) ++x; long z = (long) --x; } }")
    assert parsed.diagnostics == []
    assert [(m.name, m.field_uses) for m in parsed.types[0].methods] == [("m", 1)]


def test_cast_type_argument_may_hold_braces():
    # javac 17 compiles it: the braces sit in an annotation argument.
    parsed = parse_text("class A { void m() { Object o = (java.util.List<@Ann({1}) String>) x; } }")
    assert parsed.diagnostics == []
    assert sorted(parsed.types[0].refs) == [("Object", 1), ("java.util.List", 1)]


def test_parenthesized_comparisons_parse_in_linear_time():
    # Each '(' in operand position is classified by one scan that ends at
    # its matching ')', so this takes well under a second. A cast probe that
    # reads '<' as the start of type arguments and looks for their '>' to
    # the end of the file takes minutes.
    body = "if ((i < n)) { i++; }\n" * 8000 + "return (a < b) ? a : b;"
    start = time.perf_counter()
    parsed = parse_text("class A { int m(int i, int n, int a, int b) {\n%s\n} }" % body)
    assert time.perf_counter() - start < 20
    assert parsed.diagnostics == []
    assert parsed.types[0].methods[0].cc == 8002


def test_comparison_statements_parse_in_linear_time():
    # javac rejects 'i < n;', but the parser reads it as an expression
    # statement. Each one is first tried as the head of a local variable
    # 'i<...> name', and the skip of the type arguments stops at the ';'.
    # A skip that looks for their '>' to the end of the file takes minutes.
    start = time.perf_counter()
    parsed = parse_text("class A { void m(int i, int n) {\n%s} }" % ("i < n;\n" * 8000))
    assert time.perf_counter() - start < 20
    assert parsed.diagnostics == []
    assert parsed.types[0].methods[0].cc == 1


def test_unbalanced_angle_stops_at_semicolon():
    parsed = parse_text("class A { List<String x; int y; }")
    assert [(d.message, d.col) for d in parsed.diagnostics] == [("unbalanced '<'", 15)]
    assert [f.name for f in parsed.types[0].fields] == ["y"]


def test_parenthesized_expressions_build_no_discarded_error(monkeypatch):
    # Telling a cast from a parenthesized expression, or a local variable's
    # head from a statement that starts with no type, builds no ParseError.
    calls = []
    error = _Parser.error
    monkeypatch.setattr(_Parser, "error", lambda self, *args: calls.append(args) or error(self, *args))
    parsed = parse_text(
        "class A { int x; A(int x) { this.x = x; super.toString(); } void m(int x, int y, int[] a) {"
        " boolean b = (x > 0) == (y > 1); int c = (x + y) * 2; c = (x < y) ? x : y;"
        " c = (a[0]) + (int) y + ((x)); new Object(); \"s\".length(); (a)[0] = 1; ++x; --y; } }"
    )
    assert parsed.diagnostics == []
    assert calls == []


def test_primitive_array_constructor_reference():
    parsed = parse_text("class A { void m() { IntFunction<int[]> a = int[]::new; } }")
    assert parsed.diagnostics == []
    assert ref_names(parsed.types[0]) == ["IntFunction"]


def test_local_class_initializers_count_in_no_method():
    parsed = parse_text(
        "class A { int f; void m() { class L { { if (f > 0) { } } int g = f > 0 ? 1 : 2; } } }"
    )
    assert parsed.diagnostics == []
    (m,) = parsed.types[0].methods
    assert (m.cc, m.field_uses) == (1, 1)
    assert [t.hierarchy_sites for t in parsed.types] == [[], []]


def test_expression_lambda_body_adds_only_names():
    parsed = parse_text(
        "class A { int f, g; Object o;\n"
        "  void m() { F h = x -> (X) o instanceof Y && f > 0 ? g : 0; } }"
    )
    assert parsed.diagnostics == []
    (a,) = parsed.types
    (m,) = a.methods
    assert (m.cc, m.field_uses) == (1, 3)
    assert ref_names(a) == ["F", "Object"]


def test_block_lambda_names_are_no_field_uses():
    parsed = parse_text("class A { int f; void m() { Runnable r = () -> { f++; }; } }")
    assert parsed.diagnostics == []
    assert parsed.types[0].methods[0].field_uses == 0


def test_annotated_resource_is_a_declaration():
    parsed = parse_text(
        "class A { void m(java.io.Reader r0) throws Exception {"
        " try (@Deprecated java.io.Reader r = r0) { } } }"
    )
    assert parsed.diagnostics == []
    assert ref_names(parsed.types[0]) == ["java.io.Reader", "java.io.Reader"]


@pytest.mark.parametrize(
    "text, refs, field_uses",
    [
        # An enhanced-for's variable type is referred to at the line of 'for'.
        (
            "class A { int v, w; void m(java.util.List<String> xs) { for (\n final\n"
            " String v : xs) { w = v; } } }",
            [("String", 1), ("java.util.List", 1)], 1,
        ),
        # A resource's type is referred to at the line where it starts.
        (
            "class A { java.io.Reader r; void m() throws Exception { try (\n"
            " java.io.Reader r = open()) { r.read(); } } }",
            [("java.io.Reader", 1), ("java.io.Reader", 2), ("r", 2)], 0,
        ),
        # A local's type after statement modifiers is referred to at its own line.
        (
            "class A { int xs; void m() {\n final @A\n List<String> xs = null; xs.clear(); } }",
            [("List", 3), ("xs", 3)], 0,
        ),
        # javac rejects a 'public' local; the parser reads it as a local whose
        # type is referred to at the line of 'public'.
        ("class A { int x, y; void m() {\n public\n Integer x = y; x++; } }", [("Integer", 2)], 1),
    ],
)
def test_local_heads_refer_to_their_type_and_shadow_fields(text, refs, field_uses):
    parsed = parse_text(text)
    assert parsed.diagnostics == []
    (a,) = parsed.types
    assert sorted(a.refs) == refs
    assert [m.field_uses for m in a.methods] == [field_uses]


# Constructs javac 17 compiles: receiver parameters, a qualified superclass
# constructor call, a member type of a parameterized type, and a body whose
# one statement the parser does not read (a type annotation on array dims,
# outside the subset), which still makes the body not empty.
JAVAC_PROBE = {
    "T.java": "package p; import java.lang.annotation.*; @Target(ElementType.TYPE_USE) @interface T { }",
    "O.java": "package p; public class O { public class I { public I(O O.this, int k) { }"
    " int g(I this) { return k(); } int k() { return 1; } } }",
    "B.java": "package p; class B extends O.I { B(O o) { o.super(1); } int g() { return new int @T [0].length; } }",
    "Outer.java": "package p; class Outer<V> { class Inner { } }",
    "A.java": "package p; class A { Outer<String>.Inner f;"
    " Object m(Object o) { Outer<String>.Inner x = (Outer<String>.Inner) o; return x; } }",
}


@pytest.mark.skipif(not shutil.which("javac"), reason="javac (JDK 17) tells valid Java")
def test_javac_compiles_the_probe(tmp_path):
    for name, text in JAVAC_PROBE.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    sources = sorted(str(tmp_path / name) for name in JAVAC_PROBE)
    result = subprocess.run(["javac", "-d", str(tmp_path / "classes"), *sources], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "name, qname, diags, fields, methods, refs",
    [
        # A receiver parameter is no parameter; its type is a reference.
        ("O.java", "p.O.I", [], [], [("g", 0, False), ("k", 0, False)], [("I", 1), ("O", 1)]),
        ("B.java", "p.B", [(1, "expected '(', found '@'")], [], [("g", 0, False)], [("O", 1), ("O.I", 1)]),
        (
            "A.java", "p.A", [], ["f"], [("m", 1, False)],
            [("Object", 1), ("Object", 1), ("Outer.Inner", 1), ("Outer.Inner", 1), ("Outer.Inner", 1)],
        ),
    ],
)
def test_javac_probe_facts(name, qname, diags, fields, methods, refs):
    parsed = parse_text(JAVAC_PROBE[name], name)
    assert diagnostics(parsed) == diags
    (info,) = [t for t in parsed.types if t.qname == qname]
    assert [f.name for f in info.fields] == fields
    assert [(m.name, m.arity, m.rejected_body) for m in info.methods] == methods
    assert sorted(info.refs) == refs


def test_top_level_record_is_skipped_not_fatal():
    parsed = parse_text("record P(int x) {\n    int twice() { return 2 * x; }\n}\nclass A { }\n")
    assert [t.qname for t in parsed.types] == ["A"]
    assert diagnostics(parsed) == [(1, "record declaration skipped")]
    alone = parse_text("record P<T>(T x) implements Comparable<P<T>> { }")
    assert alone.types == []
    assert diagnostics(alone) == [(1, "record declaration skipped")]


def test_member_record_is_skipped_not_a_method():
    parsed = parse_text(
        "class A {\n    public record P(int x) { P { } }\n    void record(int h) { }\n    void m() { }\n}\n"
    )
    (a,) = parsed.types
    assert [m.name for m in a.methods] == ["record", "m"]
    assert diagnostics(parsed) == [(2, "record declaration skipped")]


def test_local_record_is_skipped_as_one_statement():
    # Modifiers and annotations do not change that; javac 17 compiles all three.
    parsed = parse_text(
        "class A {\n    void m() {\n        record P(int x) { }\n        record(1);\n        int y = 2;\n"
        "        final record R(int x) { }\n        @Deprecated record Q(int y) { }\n    }\n}\n"
    )
    (a,) = parsed.types
    (m,) = a.methods
    assert (a.end_line, m.cc, m.rejected_body) == (9, 1, False)
    assert diagnostics(parsed) == [(line, "record declaration skipped") for line in (3, 6, 7)]


def test_local_annotation_type_is_skipped():
    # javac rejects it ("annotation type declaration not allowed here").
    parsed = parse_text("class A {\n    void m() {\n        @interface N { }\n    }\n}\n")
    assert [m.name for m in parsed.types[0].methods] == ["m"]
    assert diagnostics(parsed) == [(3, "annotation type declaration skipped")]


def test_annotation_type_alone_is_skipped_not_fatal():
    parsed = parse_text("@interface Marker {\n    int value() default 1;\n}\n")
    assert parsed.types == []
    assert parsed.code_lines == (1, 2, 3)
    assert diagnostics(parsed) == [(1, "annotation type declaration skipped")]


def test_sealed_hierarchy_keeps_every_type():
    parsed = parse_text(
        "sealed interface Shape permits Circle, Square { }\n"
        "final class Circle implements Shape { }\n"
        "non-sealed class Square implements Shape { }\n"
    )
    assert [(t.qname, t.kind, ref_names(t)) for t in parsed.types] == [
        ("Shape", "interface", []),  # a permits list adds no reference
        ("Circle", "class", ["Shape"]),
        ("Square", "class", ["Shape"]),
    ]
    assert parsed.diagnostics == []


def test_sealed_class_permits_after_extends():
    parsed = parse_text("public abstract sealed class B extends A implements I permits C, p.D<T> { }")
    (b,) = parsed.types
    assert (b.supertype_raw, ref_names(b)) == ("A", ["A", "I"])
    assert parsed.diagnostics == []


def test_sealed_and_non_stay_names_outside_modifier_position():
    parsed = parse_text(
        "class A {\n    int sealed;\n    int non;\n"
        "    int m() { return non - sealed; }\n    void sealed() { }\n}\n"
    )
    (a,) = parsed.types
    assert [f.name for f in a.fields] == ["sealed", "non"]
    assert [(m.name, m.field_uses) for m in a.methods] == [("m", 2), ("sealed", 0)]
    assert parsed.diagnostics == []


def test_recoverable_error_keeps_partial_tree():
    parsed = parse_text(
        """
        class A {
            void ok() { }
            void broken( { }
            void alsoOk() { }
        }
        class B { }
        """
    )
    assert [t.qname for t in parsed.types] == ["A", "B"]
    assert parsed.diagnostics
    assert "ok" in [m.name for m in parsed.types[0].methods]


def test_method_reference_cut_off_after_type_arguments_is_recoverable():
    parsed = parse_text("class A { void m() { Object f = X::<T>")
    assert "expected name after '::'" in [d.message for d in parsed.diagnostics]


def test_unrecoverable_raises_parse_error():
    with pytest.raises(ParseError):
        parse_text("class")


def test_pathological_nesting_is_parse_error_not_crash():
    depth = 600
    body = "".join("if (x > %d) { " % i for i in range(depth)) + "x = 0;" + " }" * depth
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_text("class Deep { void f(int x) { %s } }" % body)


def test_nesting_limits_hold():
    # A nested parenthesis or array initializer costs the parser two frames,
    # a nested call or chained lambda three; operators, including the
    # conditional's, prefix operators and casts are read by loops and cost
    # none. Under the default recursion limit it takes 480 nested
    # parentheses, 320 nested calls, 320 chained lambdas, 480 nested array
    # initializers and 190 nested braced blocks, and any number of nested
    # conditionals. A new thread starts with an empty stack, so the frames
    # of the caller (here pytest's) do not count.
    ret = "class A { int f(int x) { return %s; } }"
    texts = (
        ret % ("(" * 480 + "x" + ")" * 480),
        ret % ("f(" * 320 + "x" + ")" * 320),
        ret % ("x -> " * 320 + "x"),
        ret % ("c ? " * 5000 + "x" + " : y" * 5000),
        ret % ("- " * 4000 + "x"),
        ret % ("(A) " * 4000 + "x"),
        "class A { void f() { int[] a = %s; } }" % ("{" * 480 + "1" + "}" * 480),
        "class Deep { void f(int x) { %s } }" % (
            "".join("if (x > %d) { " % i for i in range(190)) + "x = 0;" + " }" * 190
        ),
    )
    results = []
    thread = threading.Thread(target=lambda: results.extend(map(parse_text, texts)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert [r.diagnostics for r in results] == [[]] * 8
    assert [r.types[0].methods[0].cc for r in results] == [1, 1, 1, 5001, 1, 1, 1, 191]


def test_empty_file_is_fine():
    parsed = parse_text("")
    assert (parsed.diagnostics, parsed.types, parsed.package, parsed.imports) == ([], [], "", ())


# ----------------------------------------------------------------------
# structural invariants


def test_spans_inside_file_and_siblings_do_not_interleave():
    for path in sorted((FIXTURES / "corpus").glob("*.java")):
        parsed = parse_text(path.read_text(encoding="utf-8"), path.name)
        last = parsed.code_lines[-1]
        spans = {t.qname: (t.line, t.end_line) for t in parsed.types}
        sibling_end = {}  # outer qname -> end line of its last nested type so far
        for t in parsed.types:
            assert 1 <= t.line <= t.end_line <= last
            if t.outer is not None:
                outer_line, outer_end = spans[t.outer]
                assert outer_line <= t.line and t.end_line <= outer_end
            assert t.line >= sibling_end.get(t.outer, 0), f"types interleave in {path.name}"
            sibling_end[t.outer] = t.end_line


def test_parse_determinism():
    text = (FIXTURES / "corpus" / "GodModule.java").read_text(encoding="utf-8")
    assert parse_text(text) == parse_text(text)


def parse_leaves_input_unchanged(make_tokens, src):
    """Parse a fresh stream from *make_tokens*; a ParseError is allowed.
    Afterwards the stream must still equal a fresh one."""
    tokens = make_tokens()
    try:
        parse(tokens, src)
    except ParseError:
        pass
    assert tokens == make_tokens()


def test_single_token_deletions_always_terminate():
    # Error resilience: parsing any stream with one token removed, or cut
    # off after any token, must finish (partial facts or ParseError), never
    # hang or fail with another exception.
    for path in sorted((FIXTURES / "corpus").glob("*.java")):
        src = SourceFile(path.name, path.read_text(encoding="utf-8"))
        tokens = tokenize(src)
        arrays = (tokens.kinds, tokens.lexemes, tokens.lines, tokens.cols)
        for drop in range(len(tokens)):
            parse_leaves_input_unchanged(lambda: Tokens(*(a[:drop] + a[drop + 1 :] for a in arrays)), src)
        for end in range(len(tokens) + 1):
            parse_leaves_input_unchanged(lambda: Tokens(*(a[:end] for a in arrays)), src)
        assert tokens == tokenize(src)


def test_parsed_file_with_diagnostics_round_trips_through_pickle():
    parsed = parse_text("class A { record R(int x) { } int a = 1, b = f(; void m() { g(; } }")
    back = pickle.loads(pickle.dumps(parsed))
    assert [(d.message, d.line, d.col) for d in back.diagnostics] == [
        ("record declaration skipped", 1, 11),
        ("unexpected token ';' in expression", 1, 48),
        ("unexpected token ';' in expression", 1, 63),
    ]
    assert dataclasses.replace(back, diagnostics=[]) == dataclasses.replace(parsed, diagnostics=[])


def test_parse_error_round_trips_through_pickle():
    err = pickle.loads(pickle.dumps(ParseError("expected ';', found '}'", 3, 14)))
    assert (err.message, err.line, err.col) == ("expected ';', found '}'", 3, 14)
    assert str(err) == "expected ';', found '}' at 3:14"


def test_diagnostics_are_parse_errors_without_traceback():
    text = "class A { int a = 1, b = f(; void m() { g(; } void n() { switch (1) { case 1, ) : } } }"
    parsed = parse_text(text)
    assert [(d.message, d.col) for d in parsed.diagnostics] == [
        ("unexpected token ';' in expression", text.index("; void m") + 1),
        ("unexpected token ';' in expression", text.index("; }") + 1),
        ("unexpected token ')' in expression", text.index(") :") + 1),
    ]
    assert all(isinstance(d, ParseError) and d.__traceback__ is None for d in parsed.diagnostics)
    assert [f.name for f in parsed.types[0].fields] == ["a"]
    assert [(m.name, m.cc) for m in parsed.types[0].methods] == [("m", 1), ("n", 2)]  # case 1 kept
