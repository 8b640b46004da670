import math
from pathlib import Path

import pytest

from javasmell.metrics import (
    compute_type_metrics,
    lcom,
    project_metrics,
    write_metrics_csv,
    CSV_COLUMNS,
    _span_loc,
)
from javasmell.pipeline import build_from_sources

from conftest import model_of, parse_java

FIXTURES = Path(__file__).parent / "fixtures"


def method_info(text, name):
    for info in parse_java(text).types:
        for method in info.methods:
            if method.name == name:
                return method
    raise AssertionError(f"no method {name}")


def cc_of(body):
    return method_info(f"class A {{ int m(int x, int y) {body} }}", "m").cc


def test_cc_no_decision_points():
    assert cc_of("{ return x; }") == 1


def test_cc_if_and_switch_example():
    # 1 + if + '&&' + three case labels = 6.
    body = """{
        if (x > 0 && y < 9) { x = y; }
        switch (x) { case 1: break; case 2: break; case 3: break; default: break; }
        return x;
    }"""
    assert cc_of(body) == 6


def test_cc_forty_decision_points_fixture():
    text = (FIXTURES / "deep_branching.java").read_text(encoding="utf-8")
    assert method_info(text, "grind").cc == 41  # lands in the >= 40 bucket


def test_cc_abstract_method_is_absent():
    assert method_info("abstract class A { abstract int m(); }", "m").cc is None


def test_cc_ignores_lambda_bodies():
    assert cc_of("{ Runnable r = () -> { if (x > 0) { } }; return x; }") == 1


def test_cc_monotonic_under_added_if():
    bodies = [
        "{ return x; }",
        "{ while (x > 0) { x--; } return x; }",
        "{ switch (x) { case 1: break; } return x; }",
    ]
    for body in bodies:
        base = cc_of(body)
        with_if = cc_of(body.replace("return x;", "if (y > 0) { y--; } return x;"))
        assert with_if == base + 1


def dits(m) -> dict:
    return {qname: t.dit for qname, t in compute_type_metrics(m).items()}


def test_dit_chain():
    m = model_of(
        A="package p; class A { }",
        B="package p; class B extends A { }",
        C="package p; class C extends B { }",
    )
    assert dits(m) == {"p.A": 0, "p.B": 1, "p.C": 2}


def test_dit_seven_deep_fixture():
    text = (FIXTURES / "deep_hierarchy.java").read_text(encoding="utf-8")
    m = build_from_sources({"deep_hierarchy.java": text})
    assert dits(m)["sample.deep.Layer7"] == 7
    pm = project_metrics(m, compute_type_metrics(m))
    assert pm.dit_histogram[1] == 1  # the one type beyond depth 6


def test_dit_stops_at_external_supertype():
    m = model_of(A="package p; class A extends Foreign { }")
    assert dits(m) == {"p.A": 0}


def test_dit_cycle_acyclic_prefix():
    m = model_of(
        A="package p; class A extends B { }",
        B="package p; class B extends A { }",
        C="package p; class C extends A { }",
    )
    assert dits(m) == {"p.A": 1, "p.B": 1, "p.C": 2}


def test_lcom_single_method_single_field():
    m = model_of(A="package p; class A { int x; void f() { x = 1; } }")
    assert lcom(m.types["p.A"]) == 0.0


def test_lcom_disjoint_halves():
    # Access matrix by hand: two methods, two fields, each method touches
    # only its own field -> 1 - 2/4 = 0.5.
    m = model_of(
        A="""package p; class A {
            int x; int y;
            void f() { x = 1; }
            void g() { y = 2; }
        }"""
    )
    assert lcom(m.types["p.A"]) == 0.5


def test_lcom_absent_without_methods_or_fields():
    m = model_of(A="package p; class A { int x; }", B="package p; class B { void f() { } }")
    assert lcom(m.types["p.A"]) is None
    assert lcom(m.types["p.B"]) is None


def test_lcom_exact_boundary_value(corpus_model):
    # 10 methods, 5 fields, each field touched by exactly two methods:
    # (50 - 10) / 50 == 0.8 exactly, bit-for-bit.
    assert lcom(corpus_model.types["sample.SessionState"]) == 0.8


def test_lcom_shadowed_local_does_not_count():
    m = model_of(
        A="""package p; class A {
            int x;
            void f() { int x = 0; x = 1; }
            void g() { this.x = 2; }
        }"""
    )
    # f touches only its local; g touches the field via this.
    assert lcom(m.types["p.A"]) == 0.5


def test_type_metrics_counts(corpus_model):
    tm = compute_type_metrics(corpus_model)
    gm = tm["sample.GodModule"]
    assert gm.nom == 30 and gm.nopm == 1 and gm.nof == 0
    methods = {m.name: m for m in corpus_model.types["sample.GodModule"].methods}
    assert (methods["touch01"].cc, methods["touch01"].visibility) == (1, "package")
    assert methods["main"].visibility == "public"
    cs = tm["sample.ConnectionSettings"]
    assert (cs.nof, cs.nopf, cs.nopf_nonconst) == (3, 3, 2)
    assert tm["sample.Shape"].nc == 11
    assert tm["sample.MessageBus.Producer"].types_in_file == 1


def test_interface_members_implicitly_public():
    m = model_of(I="package p; interface I { int LIMIT = 3; void f(); }")
    tm = compute_type_metrics(m)["p.I"]
    assert tm.nopm == 1
    assert tm.nopf == 1 and tm.nopf_nonconst == 0  # interface fields are constants


def test_enum_constants_not_counted_as_fields():
    m = model_of(E="package p; enum E { RED, GREEN }")
    tm = compute_type_metrics(m)["p.E"]
    assert tm.nof == 0 and tm.nom == 0


def test_project_metrics_ratios():
    sources = {f"T{i}.java": f"package p; class T{i} {{ }}" for i in range(94)}
    for i in range(6):
        sources[f"C{i}.java"] = f"package p; class C{i} extends T{i} {{ }}"
    m = build_from_sources(sources)
    pm = project_metrics(m, compute_type_metrics(m))
    assert pm.total_types == 100
    assert math.isclose(pm.pct_child_classes, 6.0)


def test_project_metrics_public_field_ratio():
    # 8 public of 24 fields -> 33.3%; counted by a direct scan of the
    # generated sources.
    fields = []
    for i in range(24):
        vis = "public " if i < 8 else "private "
        fields.append(f"{vis}int f{i};")
    src = "package p; class A { %s }" % " ".join(fields)
    m = build_from_sources({"A.java": src})
    pm = project_metrics(m, compute_type_metrics(m))
    assert src.count("public int") == 8 and src.count("int f") == 24
    assert math.isclose(pm.pct_public_fields, 100.0 * 8 / 24)


def test_percent_fields_absent_not_zero():
    m = model_of(A="package p; class A { }")
    pm = project_metrics(m, compute_type_metrics(m))
    assert pm.pct_public_fields is None
    assert pm.pct_public_methods is None


def test_nc_dit_duality(corpus_model):
    tm = compute_type_metrics(corpus_model)
    total_nc = sum(t.nc for t in tm.values())
    with_internal_parent = sum(
        1 for q in corpus_model.types if corpus_model.supertype.get(q) is not None
    )
    assert total_nc == with_internal_parent
    assert total_nc == sum(1 for t in tm.values() if t.dit >= 1)


def test_histograms_sum_to_totals(corpus_model):
    tm = compute_type_metrics(corpus_model)
    pm = project_metrics(corpus_model, tm)
    assert sum(pm.dit_histogram) == pm.total_types
    assert sum(pm.cc_histogram) == pm.total_methods  # every corpus method has a body


def test_metrics_csv_layout(tmp_path, corpus_model):
    tm = compute_type_metrics(corpus_model)
    out = tmp_path / "metrics.csv"
    write_metrics_csv(tm, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(tm)
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["qualified_name"] == sorted(tm)[0]


# randomized equivalence against the generator's own count


def test_cc_random_bodies_match_the_generator_count():
    from random_java import random_method

    import random

    rng = random.Random(20240811)
    for _ in range(60):
        source, expected = random_method(rng)
        assert method_info(source, "generated").cc == expected


def test_lcom_one_walk_shadowing_rules():
    m = model_of(
        A="""package p; class A {
            int a; int b; int c; int d;
            void f(int a) { b = a; int b = 0; this.a = b; }
            void g() { for (int c : new int[0]) { d = c; } try { } catch (Exception d) { } }
        }"""
    )
    # f: 'a' is a parameter and 'b' a later local, so only this.a counts;
    # g: 'c' is the loop variable and 'd' the catch name, so nothing counts.
    assert lcom(m.types["p.A"]) == (8 - 1) / 8


def _span_loc_by_scan(code_lines, start, end):
    return sum(1 for ln in code_lines if start <= ln <= end)


def test_span_loc_matches_full_scan(corpus_sources):
    nested = "".join(
        f"    static class C{i} {{\n        // note\n\n        int x = {i};\n    }}\n"
        for i in range(1200)
    )
    sources = dict(corpus_sources, **{"Big.java": f"package big;\nclass Big {{\n{nested}}}\n"})
    model = build_from_sources(sources)
    spans = 0
    for info in model.types.values():
        code = set(model.file_code_lines[info.file])
        start, end = info.line, info.end_line
        assert _span_loc(model, info.file, start, end) == _span_loc_by_scan(code, start, end)
        spans += 1
    assert spans > 1200
