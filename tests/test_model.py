import gc
import pickle
import random
import re
import shutil
import subprocess
from types import FunctionType, ModuleType

import pytest

from javasmell.lexer import Token, Tokens
from javasmell.model import build_model
from javasmell.parser import LadderSite, SwitchSite
from javasmell.pipeline import analyze_tree, build_from_sources, parse_source

from conftest import model_of


def test_internal_extends_creates_edges():
    m = model_of(A="package p; class A extends B { }", B="package p; class B { }")
    assert m.supertype == {"p.A": "p.B"}
    assert "p.B" in m.deps["p.A"]
    assert m.subtypes["p.B"] == ["p.A"]


def test_dependency_cycle_edges():
    m = model_of(
        A="package p; class A { C field; }",
        C="package p; class C { A back; }",
    )
    assert "p.C" in m.deps["p.A"]
    assert "p.A" in m.deps["p.C"]


def test_foreign_supertype_suppressed_from_inheritance():
    # Resolution walked by hand: Foreign is not declared anywhere in the
    # project, so it resolves to no type and adds no edge of either kind.
    m = model_of(A="package p; class A extends Foreign { }")
    assert m.resolve("Foreign", m.types["p.A"].file) is None
    assert m.supertype == {}
    assert m.subtypes == {}
    assert m.deps["p.A"] == set()


def test_resolution_precedence_same_package():
    m = model_of(A="package p; class A { B b; }", B="package p; class B { }")
    assert m.resolve("B", m.types["p.A"].file) == "p.B"


def test_resolution_unknown_is_none():
    m = model_of(A="package p; class A { List xs; }")
    assert m.resolve("List", m.types["p.A"].file) is None
    assert m.deps["p.A"] == set()


def test_resolution_same_file_beats_same_package():
    m = model_of(
        Outer="package p; class Outer { class B { } B use; }",
        B="package p; class B { }",
    )
    assert m.resolve("B", m.types["p.Outer"].file) == "p.Outer.B"


def test_same_file_type_beats_a_default_package_type_of_the_same_name():
    # javac 17: class p.B extends p.A. The name 'A' equals the qname of the
    # default-package A, but p.B's file scope is searched first.
    m = build_from_sources(
        {"A.java": "class A { }", "p/B.java": "package p; class A { } class B extends A { }"}
    )
    assert m.supertype == {"p.B": "p.A"}
    assert m.deps["p.B"] == {"p.A"}


def test_single_import_beats_same_package_type():
    # javac 17: class p.U extends q.Node (JLS 6.4.1: a single-type import
    # shadows the package's own types).
    m = build_from_sources(
        {
            "p/Node.java": "package p; public class Node { }",
            "q/Node.java": "package q; public class Node { }",
            "p/U.java": "package p; import q.Node; class U extends Node { }",
        }
    )
    assert m.supertype == {"p.U": "q.Node"}
    assert m.deps["p.U"] == {"q.Node"}
    assert m.subtypes == {"q.Node": ["p.U"]}


def test_single_import_resolves_project_type():
    m = model_of(
        A="package p; import q.Helper; class A { Helper h; }",
        Helper="package q; public class Helper { }",
    )
    assert "q.Helper" in m.deps["p.A"]


def test_single_import_of_library_type_adds_no_edge():
    m = model_of(
        A="package p; import java.util.List; class A { List xs; List.Inner ys; }",
        Inner="package java.util.List; public class Inner { }",
    )
    # java.util.List is no project type, so List.Inner names none either,
    # although a package java.util.List declares an Inner.
    assert m.resolve("List", m.types["p.A"].file) is None
    assert m.resolve("List.Inner", m.types["p.A"].file) is None
    assert m.deps["p.A"] == set()


def test_on_demand_import_resolves_unique_match():
    m = model_of(
        A="package p; import q.*; class A { Helper h; }",
        Helper="package q; public class Helper { }",
    )
    assert "q.Helper" in m.deps["p.A"]


def test_ambiguous_on_demand_imports_go_external():
    # Candidate set enumerated: q.X and r.X both match the on-demand imports.
    m = model_of(
        A="package p; import q.*; import r.*; class A { X x; }",
        QX="package q; public class X { }",
        RX="package r; public class X { }",
    )
    assert m.resolve("X", m.types["p.A"].file) == ("q.X", "r.X")
    assert m.deps["p.A"] == set()
    assert any(d.code == "ambiguous-import" for d in m.diagnostics)


def test_duplicate_type_first_path_wins():
    m = build_from_sources(
        {
            "a/Dup.java": "package p; class Dup { void one() { } }",
            "b/Dup.java": "package p; class Dup { void two() { } }",
        }
    )
    assert [d.code for d in m.diagnostics] == ["duplicate-type"]
    assert [meth.name for meth in m.types["p.Dup"].methods] == ["one"]


def test_ambiguous_import_reported_once_per_file_and_name_at_its_first_use():
    m = build_from_sources(
        {
            "a/Shape.java": "package a; public class Shape { }",
            "b/Shape.java": "package b; public class Shape { }",
            "c/User.java": """package c;
import a.*;
import b.*;
class User extends Shape {
    Shape field;
    Shape make(Shape param) {
        Shape local = new Shape();
        return local;
    }
}""",
            # Abc comes first in qname order, Zed first in the file.
            "c/Two.java": "package c; import a.*; import b.*;\nclass Zed { Shape s; }\nclass Abc { Shape t; }",
        }
    )
    assert [str(d) for d in m.diagnostics] == [
        "c/Two.java:2: ambiguous-import: 'Shape' matches a.Shape, b.Shape",
        "c/User.java:4: ambiguous-import: 'Shape' matches a.Shape, b.Shape",
    ]
    assert m.deps["c.User"] == set()


def test_types_nested_in_a_dropped_duplicate_are_dropped():
    m = build_from_sources(
        {
            "c/Dup.java": "package c;\nclass Dup { class In { } }\nclass Dup { class In2 { Shape s; } }",
            "c/Dup2.java": "package c;\nclass Dup { class In3 { } }",
        }
    )
    assert sorted(m.types) == ["c.Dup", "c.Dup.In"]
    assert m.nested == {"c.Dup": ["c.Dup.In"]}
    assert [(d.code, d.file, d.line) for d in m.diagnostics] == [
        ("duplicate-type", "c/Dup.java", 3),
        ("duplicate-type", "c/Dup2.java", 2),
    ]


def test_extends_cycle_reported_not_silent():
    m = model_of(
        A="package p; class A extends B { }",
        B="package p; class B extends A { }",
    )
    assert any(d.code == "extends-cycle" for d in m.diagnostics)


def cycle_diagnostics(sources):
    return [str(d) for d in build_from_sources(sources).diagnostics]


def test_extends_cycle_reported_once_at_its_first_member():
    # javac rejects each of these; the model reports every cycle once, at
    # its first member by qname, and sorts the reports by that member.
    d = "package p;\nclass D extends F {}\nclass E extends F {}\nclass F extends E {}\n"
    assert cycle_diagnostics({"p/D.java": d}) == ["p/D.java:3: extends-cycle: inheritance cycle: p.E -> p.F"]
    c = "package p;\nclass C extends C {}\n"
    assert cycle_diagnostics({"p/C.java": c}) == ["p/C.java:2: extends-cycle: inheritance cycle: p.C"]
    # A's chain enters the Y-Z cycle before the search reaches B.
    two = {
        "p/A.java": "package p;\nclass A extends Y {}\nclass Y extends Z {}\nclass Z extends Y {}\n",
        "p/B.java": "package p;\nclass K extends B {}\nclass B extends K {}\n",
    }
    assert cycle_diagnostics(two) == [
        "p/B.java:3: extends-cycle: inheritance cycle: p.B -> p.K",
        "p/A.java:3: extends-cycle: inheritance cycle: p.Y -> p.Z",
    ]


def ancestor_count(model, qname) -> int:
    """The supertypes that a cycle-safe walk up the supertype map reaches."""
    seen = {qname}
    cur = model.supertype.get(qname)
    while cur is not None and cur not in seen:
        seen.add(cur)
        cur = model.supertype.get(cur)
    return len(seen) - 1


def test_dit_counts_the_supertypes_a_cycle_safe_walk_reaches():
    # Chains, self-extension, cycles with tails and foreign supertypes.
    rng = random.Random(20241019)
    for _ in range(1500):
        n = rng.randint(1, 9)
        decls = []
        for i in range(n):
            sup = rng.choice([None, None, "Foreign", *(f"T{j}" for j in range(n))])
            decls.append(f"class T{i}" + (f" extends {sup}" if sup else "") + " { }")
        m = build_from_sources({"T.java": "\n".join(decls)})
        assert m.dit == {q: ancestor_count(m, q) for q in m.types}


def test_self_reference_dropped():
    m = model_of(A="package p; class A { A next; }")
    assert m.deps["p.A"] == set()


def test_static_access_edge_only_when_internal():
    m = model_of(
        A="package p; class A { void f() { Object local = this; Config.reset(); local.hashCode(); } }",
        Config="package p; class Config { static void reset() { } }",
    )
    # Both heads are recorded as references; only the type's resolves.
    assert {raw for raw, _ in m.types["p.A"].refs} == {"Object", "Config", "local"}
    assert m.resolve("local", m.types["p.A"].file) is None
    assert m.deps["p.A"] == {"p.Config"}


def test_every_type_ref_resolves_to_internal_or_external(corpus_model):
    assert corpus_model.deps.keys() == corpus_model.types.keys()
    for qname, targets in corpus_model.deps.items():
        assert targets <= corpus_model.types.keys() - {qname}


def test_order_independence(corpus_sources):
    base = build_from_sources(corpus_sources)
    items = list(corpus_sources.items())
    rng = random.Random(7)
    for _ in range(3):
        rng.shuffle(items)
        shuffled = build_model(
            parse_source(text, path) for path, text in items
        )
        assert shuffled.deps == base.deps
        assert shuffled.supertype == base.supertype
        assert shuffled.subtypes == base.subtypes
        assert shuffled.nested == base.nested


def test_incoming_counts(corpus_model):
    assert corpus_model.incoming_count("sample.UnusedReportCache") == 0
    assert corpus_model.incoming_count("sample.Shape") >= 11
    assert corpus_model.incoming_count("sample.GodModule") == 0  # entry point


def test_nested_resolution_through_outer():
    m = model_of(
        Shape="package p; class Shape { static class Circle extends Shape { } }",
        User="package p; class User { void f() { new Shape.Circle(); } }",
    )
    assert "p.Shape.Circle" in m.deps["p.User"]


def test_fully_qualified_names_resolve_to_project_types():
    m = model_of(
        A="package p; public class A { public static class In { } int f; }",
        U="package q; class U { p.A a; p.A.In b; }",
    )
    user = m.types["q.U"].file
    assert m.resolve("p.A", user) == "p.A"
    assert m.resolve("p.A.In", user) == "p.A.In"
    assert m.deps["q.U"] == {"p.A", "p.A.In"}
    assert m.resolve("p.A.Missing", user) is None
    assert m.resolve("A.Missing", m.types["p.A"].file) is None


def test_local_class_modeled_as_nested():
    m = model_of(
        Host="""package p; class Host {
            void build() {
                class Widget { int w; void grow() { w++; } }
                Widget x = new Widget();
                x.grow();
            }
        }"""
    )
    assert "p.Host.Widget" in m.types
    widget = m.types["p.Host.Widget"]
    assert widget.outer == "p.Host"
    assert [f.name for f in widget.fields] == ["w"]
    assert "p.Host.Widget" in m.deps["p.Host"]
    # Only Host is a top-level type in its file.
    assert m.file_top_level[widget.file] == 1


def test_method_facts_recorded_on_method_info():
    m = model_of(
        A="""package p; class A {
            int a; int b; Object kind;
            A() { }
            abstract int none();
            int f(int a) {
                if (kind instanceof String) { } else if (kind instanceof Long) { }
                switch (this.kind) { case 1: break; }
                Runnable r = () -> a > 0 && b > 0;
                return a + b;
            }
            void g() { ; throw new IllegalStateException(); }
        }"""
    )
    a = m.types["p.A"]
    none, f, g = a.methods  # the constructor leaves no MethodInfo
    assert (none.name, none.cc, none.rejected_body) == ("none", None, False)
    # 1 + the If, its else-if and the case label; the lambda's '&&' does
    # not count. 'a' is a parameter, so only 'kind' and 'b' are field uses.
    assert (f.name, f.cc, f.field_uses, f.rejected_body) == ("f", 4, 2, False)
    assert a.hierarchy_sites == [
        ("f", LadderSite(6, 2, "kind")), ("f", SwitchSite(7, 1, "kind", "this.kind"))
    ]
    assert (g.name, g.cc, g.field_uses, g.rejected_body) == ("g", 1, 0, True)


def _reaches_a_token(root) -> bool:
    """Whether a lexer ``Token`` or ``Tokens`` is reachable from *root* by
    following ``gc.get_referents``; classes, modules and functions are not
    followed."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType)):
            continue
        if isinstance(obj, (Token, Tokens)):
            return True
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return False


def test_facts_are_plain_values_that_build_equal_models(corpus_dir, corpus_sources):
    # No token outlives its file's parse: the facts hold plain values only.
    parsed = [parse_source(text, path) for path, text in corpus_sources.items()]
    assert not any(_reaches_a_token(pf) for pf in parsed)
    assert not _reaches_a_token(analyze_tree(corpus_dir))

    before = pickle.loads(pickle.dumps(parsed))
    model = build_model(parsed)
    assert model.nested and model.supertype
    assert parsed == before  # building changed no fact
    assert build_model(before) == model
    # Building again from the same facts gives an equal model.
    assert build_model(parsed) == model


# ----------------------------------------------------------------------
# javac as the oracle for name resolution

# One project with every lookup step, and the two shapes where the model
# once disagreed with javac (Shadow's Top and U's Node). Its classes hold
# only fields and an extends clause, so each one's dependency edges are
# exactly its project-typed fields and its superclass. Shapes the model
# does not follow yet are left out, each with its FOUND in CHANGES.md:
# a member type used from another top-level type of its file; a type
# brought in by a static import; two local classes of one name in one type.
RESOLUTION_PROJECT = {
    # A nested type used in its own file, by simple and qualified name.
    "p/Outer.java": "package p; class Outer { static class In { } In in; static class Sub extends In { Outer.In again; } }",
    "p/Node.java": "package p; public class Node { }",
    "q/Node.java": "package q; public class Node { }",
    "q/Helper.java": "package q; public class Helper { public static class Part { } }",
    # A single-type import that shadows a same-package type.
    "p/U.java": "package p; import q.Node; class U extends Node { p.Node own; }",
    # A same-package type declared in another file.
    "p/Same.java": "package p; class Same extends Outer { Node n; U u; }",
    # A unique on-demand import, by simple and qualified name.
    "r/Uses.java": "package r; import q.*; class Uses extends Helper { Helper.Part part; }",
    # Fully qualified names.
    "r/Fq.java": "package r; class Fq extends q.Helper.Part { p.Node a; q.Node b; q.Helper c; }",
    # A default-package type that the same file's p.Top shadows.
    "Top.java": "class Top { }",
    "p/Shadow.java": "package p; class Top { } class Shadow extends Top { Top t; }",
}

_CLASS_HEADER = re.compile(r"^(?:\w+ )*class (\S+?)(?: extends (\S+?))?(?: implements .*)? \{$")


def javap_classes(root) -> dict:
    """Binary class name -> (superclass, [field types]) for every class file
    under *root*, as one ``javap -p`` prints them."""
    paths = sorted(str(p) for p in root.rglob("*.class"))
    out = subprocess.run(["javap", "-p", *paths], capture_output=True, text=True, check=True).stdout
    classes, current = {}, None
    for line in out.splitlines():
        header = _CLASS_HEADER.match(line)
        if header:
            current = classes[header.group(1)] = (header.group(2), [])
        elif current is not None and line.endswith(";") and "(" not in line:
            ftype, name = line[:-1].split()[-2:]
            if "$" not in name:  # a synthetic field such as this$0
                current[1].append(ftype)
    return classes


@pytest.mark.skipif(
    not (shutil.which("javac") and shutil.which("javap")),
    reason="javac and javap (JDK 17) are the oracle for name resolution",
)
def test_name_resolution_matches_javac(tmp_path):
    src, classes_dir = tmp_path / "src", tmp_path / "classes"
    for rel, text in RESOLUTION_PROJECT.items():
        (src / rel).parent.mkdir(parents=True, exist_ok=True)
        (src / rel).write_text(text, encoding="utf-8")
    subprocess.run(
        ["javac", "-d", str(classes_dir), *sorted(str(src / rel) for rel in RESOLUTION_PROJECT)],
        capture_output=True, text=True, check=True,
    )
    javac = javap_classes(classes_dir)
    m = build_from_sources(RESOLUTION_PROJECT)
    assert sorted(name.replace("$", ".") for name in javac) == sorted(m.types)
    for name, (superclass, field_types) in javac.items():
        qname = name.replace("$", ".")
        named = {t.replace("$", ".") for t in [superclass or "", *field_types]} & m.types.keys()
        expected_super = (superclass or "").replace("$", ".")
        assert m.supertype.get(qname) == (expected_super if expected_super in m.types else None), qname
        assert m.deps[qname] == named - {qname}, qname
