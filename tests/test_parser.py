import copy
from pathlib import Path

import pytest

from javasmell.lexer import SourceFile, tokenize
from javasmell.parser import ParseError, parse

FIXTURES = Path(__file__).parent / "fixtures"


def top_types(unit):
    return [c for c in unit.children if c.kind == "TypeDecl"]


def parse_text(text, path="T.java"):
    src = SourceFile(path, text)
    return parse(tokenize(src), src), src


def methods_of(type_node):
    return [c for c in type_node.children if c.kind == "MethodDecl"]


def fields_of(type_node):
    return [c for c in type_node.children if c.kind == "FieldDecl"]


def test_minimal_class_with_method():
    unit, _ = parse_text("class A { void m(){} }")
    types = top_types(unit)
    assert len(types) == 1
    assert types[0].attrs["name"] == "A"
    ms = methods_of(types[0])
    assert len(ms) == 1 and ms[0].attrs["name"] == "m"
    assert ms[0].attrs["has_body"]


def test_extends_implements():
    unit, _ = parse_text("class A extends B implements C, D {}")
    t = top_types(unit)[0]
    assert t.attrs["supertype"] == "B"
    assert t.attrs["interfaces"] == ["C", "D"]


def test_interface_extends_go_to_interfaces():
    unit, _ = parse_text("interface I extends A, B {}")
    t = top_types(unit)[0]
    assert t.attrs["supertype"] is None
    assert t.attrs["interfaces"] == ["A", "B"]


def test_two_top_level_classes():
    unit, _ = parse_text("class A {}\nclass B {}")
    assert [t.attrs["name"] for t in top_types(unit)] == ["A", "B"]


def test_package_imports_and_nesting():
    unit, _ = parse_text(
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
    assert unit.attrs["package"] == "com.example.app"
    imports = unit.attrs["imports"]
    assert {i["name"] for i in imports} == {"java.util.List", "java.io", "java.lang.Math.max"}
    assert [i["on_demand"] for i in imports] == [False, True, False]
    outer = top_types(unit)[0]
    nested = [c.attrs["name"] for c in outer.children if c.kind == "TypeDecl"]
    assert nested == ["Inner", "Helper"]


def test_generics_erased_annotations_dropped():
    unit, _ = parse_text(
        """
        class A {
            @Deprecated
            @SuppressWarnings("x")
            private Map<String, List<Integer>> index = new HashMap<>();
            <T extends Comparable<T>> T pick(List<T> items, int[] weights) { return null; }
        }
        """
    )
    t = top_types(unit)[0]
    f = fields_of(t)[0]
    assert f.attrs["type"] == "Map"
    m = methods_of(t)[0]
    assert m.attrs["return_type"] == "T"
    assert m.attrs["params"] == [("List", "items"), ("int", "weights")]


def test_field_declarator_groups_split():
    unit, _ = parse_text("class A { public int a, b = 2, c[]; }")
    t = top_types(unit)[0]
    assert [f.attrs["name"] for f in fields_of(t)] == ["a", "b", "c"]
    assert all(f.attrs["type"] == "int" for f in fields_of(t))


def test_constructor_and_varargs():
    unit, _ = parse_text(
        "class A { A(int x) { } void log(String fmt, Object... args) { } }"
    )
    t = top_types(unit)[0]
    ctors = [c for c in t.children if c.kind == "ConstructorDecl"]
    assert len(ctors) == 1 and ctors[0].attrs["arity"] == 1
    m = methods_of(t)[0]
    assert m.attrs["arity"] == 2


def test_enum_constants_and_members():
    unit, _ = parse_text(
        """
        enum Mode implements Marker {
            ON(1), OFF(0);
            private final int level;
            Mode(int level) { this.level = level; }
            int level() { return level; }
        }
        """
    )
    t = top_types(unit)[0]
    consts = [c.attrs["name"] for c in t.children if c.kind == "EnumConstant"]
    assert consts == ["ON", "OFF"]
    assert len(methods_of(t)) == 1
    assert t.attrs["interfaces"] == ["Marker"]


def test_statement_forms_parse():
    unit, _ = parse_text(
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
    assert unit.attrs["diagnostics"] == []
    kinds = {n.kind for n in unit.walk()}
    assert {"For", "ForEach", "While", "DoWhile", "Switch", "Case", "Default",
            "Try", "Catch", "Sync", "Assert", "Labeled", "Lambda", "Cast",
            "InstanceOf", "Ternary"} <= kinds


def test_instanceof_operand_text_and_switch_terminal():
    unit, _ = parse_text(
        """
        class A {
            void f(Object payload, Msg msg) {
                if ((payload) instanceof Text) { }
                switch (msg.getKind()) { case 1: break; case 2: break; }
            }
        }
        """
    )
    inst = [n for n in unit.walk() if n.kind == "InstanceOf"]
    assert inst[0].attrs["operand_text"] == "payload"
    sw = [n for n in unit.walk() if n.kind == "Switch"][0]
    assert sw.attrs["terminal_name"] == "getKind"
    assert sw.attrs["case_count"] == 2


def test_kitchen_sink_compilation_unit():
    unit, _ = parse_text(
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
    assert unit.attrs["diagnostics"] == []
    registry = top_types(unit)[0]
    assert registry.attrs["interfaces"] == ["Registry", "AutoCloseable"]
    member_kinds = [c.kind for c in registry.children]
    assert member_kinds.count("ConstructorDecl") == 2
    assert member_kinds.count("Initializer") == 2
    assert member_kinds.count("FieldDecl") == 4


def test_array_creation_with_initializer_forms():
    unit, _ = parse_text(
        "class A { int[] a = new int[] {1, 2}; int[] b = new int[3]; int[][] c = new int[2][]; }"
    )
    assert unit.attrs["diagnostics"] == []
    news = [n for n in unit.walk() if n.kind == "ArrayNew"]
    assert len(news) == 3


def test_unsupported_constructs_become_opaque_with_diagnostic():
    unit, _ = parse_text(
        """
        class A {
            Runnable r = new Runnable() { public void run() { log("}"); } };
            void after() { }
        }
        """
    )
    assert top_types(unit)[0].attrs["name"] == "A"
    assert [m.attrs["name"] for m in methods_of(top_types(unit)[0])] == ["after"]
    assert [d.message for d in unit.attrs["diagnostics"]] == ["anonymous class body skipped"]


def record_diagnostics(unit):
    return [(d.line, d.message) for d in unit.attrs["diagnostics"]]


def test_top_level_record_is_skipped_not_fatal():
    unit, _ = parse_text("record P(int x) {\n    int twice() { return 2 * x; }\n}\nclass A { }\n")
    assert [t.attrs["name"] for t in top_types(unit)] == ["A"]
    assert record_diagnostics(unit) == [(1, "record declaration skipped")]
    alone, _ = parse_text("record P<T>(T x) implements Comparable<P<T>> { }")
    assert top_types(alone) == []
    assert record_diagnostics(alone) == [(1, "record declaration skipped")]


def test_member_record_is_skipped_not_a_method():
    unit, _ = parse_text(
        "class A {\n    public record P(int x) { P { } }\n    void record(int h) { }\n    void m() { }\n}\n"
    )
    (a,) = top_types(unit)
    assert [m.attrs["name"] for m in methods_of(a)] == ["record", "m"]
    assert record_diagnostics(unit) == [(2, "record declaration skipped")]


def test_local_record_is_skipped_as_one_statement():
    unit, _ = parse_text(
        "class A {\n    void m() {\n        record P(int x) { }\n        record(1);\n        int y = 2;\n    }\n}\n"
    )
    body = methods_of(top_types(unit)[0])[0].children[0]
    assert [s.kind for s in body.children] == ["Opaque", "ExprStmt", "LocalVar"]
    assert record_diagnostics(unit) == [(3, "record declaration skipped")]


def test_annotation_type_alone_is_skipped_not_fatal():
    unit, _ = parse_text("@interface Marker {\n    int value() default 1;\n}\n")
    assert [c.kind for c in unit.children] == ["Opaque"]
    assert (unit.children[0].line, unit.children[0].end_line) == (1, 3)
    assert record_diagnostics(unit) == [(1, "annotation type declaration skipped")]


def test_sealed_hierarchy_keeps_every_type():
    unit, _ = parse_text(
        "sealed interface Shape permits Circle, Square { }\n"
        "final class Circle implements Shape { }\n"
        "non-sealed class Square implements Shape { }\n"
    )
    assert [(t.attrs["name"], sorted(t.attrs["modifiers"])) for t in top_types(unit)] == [
        ("Shape", ["sealed"]),
        ("Circle", ["final"]),
        ("Square", ["non-sealed"]),
    ]
    assert top_types(unit)[2].attrs["interfaces"] == ["Shape"]
    assert unit.attrs["diagnostics"] == []


def test_sealed_class_permits_after_extends():
    unit, _ = parse_text("public abstract sealed class B extends A implements I permits C, p.D<T> { }")
    (b,) = top_types(unit)
    assert sorted(b.attrs["modifiers"]) == ["abstract", "public", "sealed"]
    assert (b.attrs["supertype"], b.attrs["interfaces"]) == ("A", ["I"])
    assert unit.attrs["diagnostics"] == []


def test_sealed_and_non_stay_names_outside_modifier_position():
    unit, _ = parse_text(
        "class A {\n    int sealed;\n    int non;\n"
        "    int m() { return non - sealed; }\n    void sealed() { }\n}\n"
    )
    (a,) = top_types(unit)
    assert [f.attrs["name"] for f in fields_of(a)] == ["sealed", "non"]
    assert [m.attrs["name"] for m in methods_of(a)] == ["m", "sealed"]
    assert unit.attrs["diagnostics"] == []


def test_recoverable_error_keeps_partial_tree():
    unit, _ = parse_text(
        """
        class A {
            void ok() { }
            void broken( { }
            void alsoOk() { }
        }
        class B { }
        """
    )
    names = [t.attrs["name"] for t in top_types(unit)]
    assert names == ["A", "B"]
    assert unit.attrs["diagnostics"]
    a_methods = [c.attrs["name"] for c in top_types(unit)[0].children if c.kind == "MethodDecl"]
    assert "ok" in a_methods


def test_method_reference_cut_off_after_type_arguments_is_recoverable():
    unit, _ = parse_text("class A { void m() { Object f = X::<T>")
    assert "expected name after '::'" in [d.message for d in unit.attrs["diagnostics"]]


def test_unrecoverable_raises_parse_error():
    with pytest.raises(ParseError):
        parse_text("class")


def test_pathological_nesting_is_parse_error_not_crash():
    depth = 600
    body = "".join("if (x > %d) { " % i for i in range(depth)) + "x = 0;" + " }" * depth
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_text("class Deep { void f(int x) { %s } }" % body)


def test_empty_file_is_fine():
    unit, _ = parse_text("")
    assert unit.attrs["diagnostics"] == []
    assert top_types(unit) == []


# ----------------------------------------------------------------------
# structural invariants


def collect_spans(node, out):
    for child in node.children:
        out.append((child.start, child.end))
        collect_spans(child, out)


def test_spans_inside_file_and_siblings_do_not_interleave():
    for path in sorted((FIXTURES / "corpus").glob("*.java")):
        text = path.read_text(encoding="utf-8")
        unit, src = parse_text(text, path.name)
        n = len(src.content)
        stack = [unit]
        while stack:
            node = stack.pop()
            assert 0 <= node.start <= node.end <= n
            prev_end = None
            for child in node.children:
                assert node.start <= child.start and child.end <= node.end
                if prev_end is not None:
                    assert child.start >= prev_end, f"siblings interleave in {path.name}"
                prev_end = child.end
                stack.append(child)


def test_every_node_has_exactly_one_parent():
    text = (FIXTURES / "corpus" / "GodModule.java").read_text(encoding="utf-8")
    unit, _ = parse_text(text)
    parents = {}
    for node in unit.walk():
        for child in node.children:
            assert id(child) not in parents, "node reachable from two parents"
            parents[id(child)] = node
    assert id(unit) not in parents  # root has none


def node_shape(node):
    return (
        node.kind,
        tuple(sorted((k, repr(v)) for k, v in node.attrs.items() if k != "diagnostics")),
        tuple(node_shape(c) for c in node.children),
    )


def test_parse_determinism():
    text = (FIXTURES / "corpus" / "GodModule.java").read_text(encoding="utf-8")
    first, _ = parse_text(text)
    second, _ = parse_text(text)
    assert node_shape(first) == node_shape(second)


def test_single_token_deletions_always_terminate():
    # Error resilience: parsing any stream with one token removed, or cut
    # off after any token, must finish (partial tree or ParseError), never
    # hang or fail with another exception.
    for path in sorted((FIXTURES / "corpus").glob("*.java")):
        text = path.read_text(encoding="utf-8")
        src = SourceFile(path.name, text)
        tokens = tokenize(src)
        for drop in range(len(tokens)):
            mutated = tokens[:drop] + tokens[drop + 1 :]
            try:
                parse(copy.deepcopy(mutated), src)
            except ParseError:
                pass
        for end in range(len(tokens) + 1):
            try:
                parse(tokens[:end], src)
            except ParseError:
                pass


def recursive_preorder(node):
    yield node
    for child in node.children:
        yield from recursive_preorder(child)


def test_walk_is_recursive_preorder():
    import random

    from random_java import random_method

    rng = random.Random(5150)
    texts = [random_method(rng)[0] for _ in range(40)]
    texts += [p.read_text(encoding="utf-8") for p in sorted((FIXTURES / "corpus").glob("*.java"))]
    for text in texts:
        unit, _ = parse_text(text)
        assert [id(n) for n in unit.walk()] == [id(n) for n in recursive_preorder(unit)]
