import itertools
import random
import re

import pytest

from javasmell.files import FatalError
from javasmell.metrics import compute_type_metrics, project_metrics
from javasmell.smells import (
    RuleConfig,
    SmellKind,
    detect_all,
    strongly_connected_components,
)

from conftest import model_of

K = SmellKind
CFG = RuleConfig()


def run_all(model, config=CFG):
    return detect_all(model, compute_type_metrics(model), config)


def detect(kind, model, config=CFG):
    """The findings of one rule, from the full rule set."""
    return [f for f in run_all(model, config) if f.kind is kind]


def kinds_by_subject(findings):
    out = {}
    for f in findings:
        out.setdefault(f.subject, set()).add(f.kind)
    return out


# ----------------------------------------------------------------------
# unutilized abstraction


def test_unutilized_flags_only_unreferenced():
    m = model_of(
        A="package p; class A { void f() { B b = new B(); } }",
        B="package p; class B { }",
        C="package p; class C { }",
    )
    found = detect(K.UNUTILIZED_ABSTRACTION, m)
    # A and C are unreferenced; B is used by A.
    assert {f.subject for f in found} == {"p.A", "p.C"}


def test_unutilized_exempts_main_and_allowlist():
    m = model_of(
        Tool="package p; class Tool { public static void main(String[] args) { } }",
        Listed="package p; class Listed { void f() { } }",
    )
    cfg = RuleConfig(entry_points=("p.Listed",))
    assert detect(K.UNUTILIZED_ABSTRACTION, m, cfg) == []


# ----------------------------------------------------------------------
# insufficient modularization


def test_insufficient_not_flagged_for_small_class():
    m = model_of(
        Small="""package p; class Small {
            void a() { if (1 > 0) { } }
            void b() { }
            void c() { }
        }"""
    )
    assert detect(K.INSUFFICIENT_MODULARIZATION, m) == []


def test_two_top_level_classes_both_flagged():
    m = model_of(Pair="package p; class First { }\nclass Second { }")
    found = detect(K.INSUFFICIENT_MODULARIZATION, m)
    assert {f.subject for f in found} == {"p.First", "p.Second"}
    assert all(f.evidence["types_in_file"] == "2" for f in found)


def test_wmc_clause_fires():
    # 35 methods of cc 3 -> wmc 105 >= 100; the nom clause is raised so only
    # the wmc clause fires. Expected wmc derived by the per-method counter.
    body = "void m%d() { if (a > 0) { } if (a > 1) { } }"
    methods = " ".join(body % i for i in range(35))
    m = model_of(Busy=f"package p; class Busy {{ int a; {methods} }}")
    tm = compute_type_metrics(m)
    assert tm["p.Busy"].wmc == 105
    cfg = RuleConfig(im_min_methods=100)
    found = detect(K.INSUFFICIENT_MODULARIZATION, m, cfg)
    assert len(found) == 1
    assert found[0].evidence["fired"] == "wmc"
    assert found[0].evidence["wmc"] == "105"


# ----------------------------------------------------------------------
# broken hierarchy


def test_throw_only_override_flagged():
    m = model_of(
        Base="package p; class Base { void m() { int x = 1; } }",
        Sub="package p; class Sub extends Base { void m() { throw new X(); } }",
    )
    found = detect(K.BROKEN_HIERARCHY, m)
    assert [f.subject for f in found] == ["p.Sub"]
    assert found[0].evidence["rejected_methods"] == "m"


def test_throw_only_override_of_a_grandparent_method_flagged():
    m = model_of(
        Base="package p; class Base { void m() { int x = 1; } }",
        Mid="package p; class Mid extends Base { }",
        Sub="package p; class Sub extends Mid { void m() { throw new X(); } }",
    )
    found = detect(K.BROKEN_HIERARCHY, m)
    assert [(f.subject, f.evidence["supertype"]) for f in found] == [("p.Sub", "p.Mid")]


@pytest.mark.parametrize(
    "base, sub",
    [
        # m(int) overrides no m(): the arity differs.
        ("class Base { void m() { int x = 1; } }", "void m(int y) { throw new X(); }"),
        # A private m() is not inherited.
        ("class Base { private void m() { int x = 1; } }", "void m() { throw new X(); }"),
    ],
)
def test_throw_only_method_overriding_nothing_not_flagged(base, sub):
    m = model_of(Base=f"package p; {base}", Sub=f"package p; class Sub extends Base {{ {sub} }}")
    assert detect(K.BROKEN_HIERARCHY, m) == []


def test_substantive_overrides_not_flagged():
    m = model_of(
        Base="package p; class Base { int m() { return 0; } }",
        Sub="package p; class Sub extends Base { int m() { return 1; } }",
    )
    assert detect(K.BROKEN_HIERARCHY, m) == []


def test_empty_override_of_abstract_parent_not_flagged():
    # Rejected bequest needs an inherited *concrete* method.
    m = model_of(
        Base="package p; abstract class Base { abstract void m(); }",
        Sub="package p; class Sub extends Base { void m() { } }",
    )
    assert detect(K.BROKEN_HIERARCHY, m) == []


def rejected_by_walk(model, qname):
    """Names of *qname*'s rejected-body methods whose nearest non-private
    namesake of the same arity, on a cycle-safe walk up the supertypes, has
    a body."""
    rejected = []
    for m in model.types[qname].methods:
        if not m.rejected_body:
            continue
        seen, cur = {qname}, model.supertype.get(qname)
        while cur is not None and cur not in seen:
            seen.add(cur)
            hit = next((a for a in model.types[cur].methods
                        if (a.name, a.arity) == (m.name, m.arity) and a.visibility != "private"), None)
            if hit is not None:
                if hit.cc is not None:
                    rejected.append(m.name)
                break
            cur = model.supertype.get(cur)
    return sorted(rejected)


@pytest.mark.parametrize("shared", [True, False], ids=["shared-names", "own-names"])
def test_broken_hierarchy_matches_a_walk_on_random_chains(shared):
    # Chains and forests, with cycles now and then; method names drawn from
    # a small shared pool, or unique to each type apart from a few.
    rng = random.Random(20261020 + shared)
    bodies = ["{ }", "{ throw new X(); }", "{ int x = 1; }", ";"]
    for _ in range(150):
        n = rng.randint(2, 12)
        decls = []
        for i in range(n):
            sup = rng.choice([None, *(f"T{j}" for j in range(max(0, i - 3), i))] or [None])
            if rng.random() < 0.05:
                sup = f"T{rng.randrange(n)}"
            methods = []
            for k in range(rng.randint(0, 4)):
                name = rng.choice("abc") if shared or rng.random() < 0.4 else f"m{i}_{k}"
                private = "private " if rng.random() < 0.2 else ""
                params = ", ".join(f"int p{a}" for a in range(rng.randint(0, 2)))
                body = rng.choice(bodies)
                prefix = "abstract " if body == ";" else ""
                methods.append(f"{private}{prefix}void {name}({params}) {body}")
            extends = f" extends {sup}" if sup else ""
            decls.append(f"abstract class T{i}{extends} {{ {' '.join(methods)} }}")
        model = model_of(T="\n".join(decls))
        found = {f.subject: f.evidence["rejected_methods"] for f in detect(K.BROKEN_HIERARCHY, model)}
        expected = {}
        for q in model.types:
            names = rejected_by_walk(model, q)
            if names:
                expected[q] = ";".join(names)
        assert found == expected, decls


# ----------------------------------------------------------------------
# deficient encapsulation


def test_public_mutable_field_flagged():
    m = model_of(A="package p; class A { public int x; void f() { } }")
    found = detect(K.DEFICIENT_ENCAPSULATION, m)
    assert found and found[0].evidence["fields"] == "x"


def test_public_constants_exempt():
    m = model_of(
        A="package p; class A { public static final int MAX = 3; void f() { } }"
    )
    assert detect(K.DEFICIENT_ENCAPSULATION, m) == []


# ----------------------------------------------------------------------
# cyclic-dependent modularization


def test_two_cycle_yields_two_findings():
    m = model_of(
        A="package p; class A { B b; }",
        B="package p; class B { A a; }",
    )
    found = detect(K.CYCLIC_DEPENDENT_MODULARIZATION, m)
    assert len(found) == 2
    assert all(f.cycle_members == ("p.A", "p.B") for f in found)


def test_dag_yields_no_findings():
    m = model_of(
        A="package p; class A { B b; C c; }",
        B="package p; class B { C c; D d; }",
        C="package p; class C { E e; }",
        D="package p; class D { E e; }",
        E="package p; class E { }",
    )
    assert detect(K.CYCLIC_DEPENDENT_MODULARIZATION, m) == []


def brute_force_sccs(nodes, edges):
    # Mutual reachability via DFS closures.
    reach = {u: {u} for u in nodes}
    for u in nodes:
        stack = [u]
        while stack:
            v = stack.pop()
            for w in edges.get(v, ()):
                if w not in reach[u]:
                    reach[u].add(w)
                    stack.append(w)
    groups = {}
    for u in nodes:
        members = frozenset(v for v in nodes if u in reach[v] and v in reach[u])
        groups[members] = True
    return set(groups)


def test_scc_matches_brute_force_on_random_digraphs():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(1, 8)
        nodes = [f"n{i}" for i in range(n)]
        edges = {
            u: {v for v in nodes if v != u and rng.random() < 0.3} for u in nodes
        }
        ours = {frozenset(c) for c in strongly_connected_components(edges)}
        assert ours == brute_force_sccs(nodes, edges)


# ----------------------------------------------------------------------
# unnecessary abstraction


def test_fields_without_methods_flagged():
    m = model_of(
        Holder="package p; class Holder { int a; int b; }",
        User="package p; class User { void f() { Holder h = new Holder(); } }",
    )
    found = detect(K.UNNECESSARY_ABSTRACTION, m)
    assert [f.subject for f in found] == ["p.Holder"]


def test_marker_interface_flagged():
    m = model_of(M="package p; interface M { }")
    found = detect(K.UNNECESSARY_ABSTRACTION, m)
    assert [f.subject for f in found] == ["p.M"]


def test_plain_enum_not_flagged():
    m = model_of(E="package p; enum E { ON, OFF }")
    assert detect(K.UNNECESSARY_ABSTRACTION, m) == []


# ----------------------------------------------------------------------
# wide hierarchy


def make_hierarchy(n_children):
    sources = {"Base": "package p; class Base { void a() { } void b() { } }"}
    for i in range(n_children):
        sources[f"Child{i}"] = f"package p; class Child{i} extends Base {{ }}"
    return model_of(**sources)


def test_ten_children_flagged_nine_not():
    wide = make_hierarchy(10)
    found = detect(K.WIDE_HIERARCHY, wide)
    assert [f.subject for f in found] == ["p.Base"]
    assert found[0].evidence["nc"] == "10"
    narrow = make_hierarchy(9)
    assert detect(K.WIDE_HIERARCHY, narrow) == []


# ----------------------------------------------------------------------
# imperative abstraction


def test_single_operation_class_flagged():
    m = model_of(Sorter="package p; class Sorter { public void sort(int[] xs) { } }")
    found = detect(K.IMPERATIVE_ABSTRACTION, m)
    assert [f.subject for f in found] == ["p.Sorter"]
    assert found[0].evidence["method"] == "sort"


def test_two_methods_not_flagged():
    m = model_of(
        A="package p; class A { public void f() { } public void g() { } }"
    )
    assert detect(K.IMPERATIVE_ABSTRACTION, m) == []


def test_non_public_single_method_not_flagged():
    m = model_of(A="package p; class A { void f() { } }")
    assert detect(K.IMPERATIVE_ABSTRACTION, m) == []


# ----------------------------------------------------------------------
# multifaceted abstraction


def test_cohesive_class_not_flagged(corpus_model):
    found = detect(K.MULTIFACETED_ABSTRACTION, corpus_model)
    assert [f.subject for f in found] == ["sample.SessionState"]
    assert found[0].evidence["lcom"] == "0.8"


# ----------------------------------------------------------------------
# missing hierarchy


LADDER = """package p; class Inspect {
    String f(Object s) {
        if (s instanceof A) { return "a"; }
        else if (s instanceof B) { return "b"; }
        @THIRD@
        return "x";
    }
    void g() { }
}"""


def test_three_branch_instanceof_ladder_flagged():
    src = LADDER.replace("@THIRD@", 'else if (s instanceof C) { return "c"; }')
    m = model_of(Inspect=src)
    found = detect(K.MISSING_HIERARCHY, m)
    assert len(found) == 1
    assert found[0].evidence["branches"] == "3"
    assert found[0].evidence["operand"] == "s"


def test_ladder_in_a_local_class_is_flagged_once():
    src = """package p; class Outer {
        int f(Object s) {
            class Local {
                String g() {
                    if (s instanceof A) { return "a"; }
                    else if (s instanceof B) { return "b"; }
                    else if (s instanceof C) { return "c"; }
                    return "x";
                }
            }
            return s == null ? 0 : 1;
        }
    }"""
    m = model_of(Outer=src)
    found = detect(K.MISSING_HIERARCHY, m)
    assert [(f.subject, f.evidence["branches"]) for f in found] == [("p.Outer.Local", "3")]
    (f,) = m.types["p.Outer"].methods
    assert f.cc == 2  # 1 + the conditional; the local class's ifs count in g alone
    (g,) = m.types["p.Outer.Local"].methods
    assert g.cc == 4


def test_two_branch_ladder_not_flagged():
    m = model_of(Inspect=LADDER.replace("@THIRD@", ""))
    assert detect(K.MISSING_HIERARCHY, m) == []


def test_mixed_operand_ladder_not_flagged():
    src = """package p; class Inspect {
        String f(Object s, Object t) {
            if (s instanceof A) { return "a"; }
            else if (t instanceof B) { return "b"; }
            else if (s instanceof C) { return "c"; }
            return "x";
        }
    }"""
    m = model_of(Inspect=src)
    assert detect(K.MISSING_HIERARCHY, m) == []


def test_switch_on_tag_name_flagged():
    src = """package p; class Router {
        void route(Msg msg) {
            switch (msg.getKind()) {
                case 1: break;
                case 2: break;
                case 3: break;
            }
        }
        void idle() { }
    }"""
    m = model_of(Router=src)
    found = detect(K.MISSING_HIERARCHY, m)
    assert len(found) == 1
    assert found[0].evidence["pattern"] == "switch"
    assert found[0].evidence["cases"] == "3"


def test_switch_on_plain_selector_not_flagged():
    src = """package p; class Router {
        void route(int x) {
            switch (x) { case 1: break; case 2: break; case 3: break; }
        }
    }"""
    m = model_of(Router=src)
    assert detect(K.MISSING_HIERARCHY, m) == []


# ----------------------------------------------------------------------
# constructors: MissingHierarchy candidates, otherwise in no metric or rule


def test_constructor_counts_in_no_metric():
    m = model_of(
        Job="""package p; class Job {
        int n;
        public Job(int k) { if (k > 0 && k < 9) { n = k; } for (int i = 0; i < k; i++) { n++; } }
        public void run() { if (n > 0) { n--; } }
    }"""
    )
    tm = compute_type_metrics(m)
    t = tm["p.Job"]
    assert (t.nom, t.nopm, t.wmc, t.max_cc) == (1, 1, 2, 2)
    pm = project_metrics(m, tm)
    assert (pm.total_methods, pm.cc_histogram) == (1, (1, 0, 0))
    found = detect(K.IMPERATIVE_ABSTRACTION, m)
    assert [(f.subject, f.evidence["method"]) for f in found] == [("p.Job", "run")]


def test_switch_in_a_constructor_is_a_missing_hierarchy():
    m = model_of(
        Shape="""package p; class Shape {
        int sides;
        Shape(int kind) {
            switch (kind) { case 1: sides = 0; break; case 2: sides = 3; break; case 3: sides = 4; }
        }
    }"""
    )
    found = detect(K.MISSING_HIERARCHY, m)
    assert [(f.subject, f.line, f.evidence["method"], f.evidence["cases"]) for f in found] == [
        ("p.Shape", 4, "Shape", "3")
    ]


def test_body_with_a_statement_that_fails_to_parse_is_not_rejected():
    # 'return 1 +;' is a statement of f's body although it fails to parse,
    # so f neither is empty nor only throws; h's 'throw x' lacks only its ';'.
    m = model_of(
        A="package p; class A { int f() { return 0; } void h() { int x = 1; } }",
        B="package p; class B extends A { int f() { return 1 +; } void h() { throw x } }",
    )
    found = detect(K.BROKEN_HIERARCHY, m)
    assert [(f.subject, f.evidence["rejected_methods"]) for f in found] == [("p.B", "h")]


@pytest.mark.parametrize(
    "base, sub",
    [
        # The subclass's throw-only constructor overrides nothing, not even
        # a method of its name.
        ("void Sub() { int x = 1; }", "Sub() { throw new X(); }"),
        # A throw-only method named like the base's constructor overrides nothing.
        ("Base() { int x = 1; }", "void Base() { throw new X(); }"),
    ],
)
def test_throw_only_constructor_not_a_broken_hierarchy(base, sub):
    m = model_of(Base=f"package p; class Base {{ {base} }}", Sub=f"package p; class Sub extends Base {{ {sub} }}")
    assert detect(K.BROKEN_HIERARCHY, m) == []


# ----------------------------------------------------------------------
# detect_all and cross-cutting properties


def test_empty_project_no_findings():
    m = model_of()
    assert detect_all(m, compute_type_metrics(m), CFG) == []


def test_corpus_purity(corpus_model):
    findings = run_all(corpus_model)
    per_file = {}
    for f in findings:
        per_file.setdefault(f.file, set()).add(f.kind)
    expected = {
        "UnusedReportCache.java": {K.UNUTILIZED_ABSTRACTION},
        "GodModule.java": {K.INSUFFICIENT_MODULARIZATION},
        "StubRenderer.java": {K.BROKEN_HIERARCHY},
        "ConnectionSettings.java": {K.DEFICIENT_ENCAPSULATION},
        "MessageBus.java": {K.CYCLIC_DEPENDENT_MODULARIZATION},
        "TagMarker.java": {K.UNNECESSARY_ABSTRACTION},
        "Shape.java": {K.WIDE_HIERARCHY},
        "OneShotTask.java": {K.IMPERATIVE_ABSTRACTION},
        "SessionState.java": {K.MULTIFACETED_ABSTRACTION},
        "PayloadInspector.java": {K.MISSING_HIERARCHY},
    }
    assert per_file == expected
    # Every kind appears; the cyclic pair contributes one finding per member.
    assert len(findings) == 11


def test_detect_all_sorted_and_deterministic(corpus_model):
    first = run_all(corpus_model)
    second = run_all(corpus_model)
    assert first == second
    assert first == sorted(first, key=lambda f: f.sort_key())


def test_finding_keys_unique(corpus_model):
    keys = [(f.kind, f.subject, f.file, f.line) for f in run_all(corpus_model)]
    assert len(keys) == len(set(keys))


def test_evidence_never_empty(corpus_model):
    assert all(f.evidence for f in run_all(corpus_model))


def test_causal_evidence_consistency(corpus_model):
    for f in run_all(corpus_model):
        if f.kind is K.WIDE_HIERARCHY:
            assert int(f.evidence["nc"]) >= CFG.wh_min_children
        if f.kind is K.DEFICIENT_ENCAPSULATION:
            assert int(f.evidence["nopf_nonconst"]) >= 1
        if f.kind is K.CYCLIC_DEPENDENT_MODULARIZATION:
            assert len(f.cycle_members) >= 2


@pytest.mark.parametrize(
    "attr", ["im_min_methods", "wh_min_children", "ma_min_methods", "mh_min_branches"]
)
def test_threshold_monotonicity(corpus_model, attr):
    tm = compute_type_metrics(corpus_model)
    counts = []
    for bump in range(3):
        cfg = RuleConfig(**{attr: getattr(CFG, attr) + bump})
        counts.append(len(detect_all(corpus_model, tm, cfg)))
    assert counts == sorted(counts, reverse=True)


# ----------------------------------------------------------------------
# configuration


def test_config_file_roundtrip(tmp_path):
    cfg_file = tmp_path / "rules.conf"
    cfg_file.write_text(
        """
        # tuned thresholds
        wide_hierarchy.min_children = 4
        multifaceted_abstraction.min_lcom = 0.5
        unutilized_abstraction.entry_points = p.Main, p.Tool
        """,
        encoding="utf-8",
    )
    cfg = RuleConfig.from_file(cfg_file)
    assert cfg.wh_min_children == 4
    assert cfg.ma_min_lcom == 0.5
    assert cfg.entry_points == ("p.Main", "p.Tool")
    assert "wide_hierarchy.min_children = 4" in cfg.echo_lines()
    # The echo is itself a config file that reads back to the same config.
    for original in (RuleConfig(), cfg):
        echo_file = tmp_path / "echo.conf"
        echo_file.write_text("\n".join(original.echo_lines()) + "\n", encoding="utf-8")
        assert RuleConfig.from_file(echo_file) == original


def test_config_unknown_key_rejected(tmp_path):
    cfg_file = tmp_path / "rules.conf"
    cfg_file.write_text("wide_hierarchy.min_kids = 4\n", encoding="utf-8")
    with pytest.raises(FatalError, match="unknown key"):
        RuleConfig.from_file(cfg_file)


def test_config_ignores_a_utf8_bom(tmp_path):
    cfg_file = tmp_path / "rules.conf"
    cfg_file.write_text("\ufeffwide_hierarchy.min_children = 4\n", encoding="utf-8")
    assert RuleConfig.from_file(cfg_file).wh_min_children == 4


@pytest.mark.parametrize(
    "line, expects",
    [
        ("multifaceted_abstraction.min_lcom = abc", "a number in"),
        ("multifaceted_abstraction.min_lcom = 1.5", "a number in"),
        ("wide_hierarchy.min_children = many", "an integer > 0"),
        ("wide_hierarchy.min_children = 0", "an integer > 0"),
        ("missing_hierarchy.tag_pattern = (type", "a regular expression"),
    ],
)
def test_config_bad_value_names_its_line(tmp_path, line, expects):
    cfg_file = tmp_path / "rules.conf"
    cfg_file.write_text(f"# header\n{line}\n", encoding="utf-8")
    key = line.partition(" ")[0]
    with pytest.raises(FatalError, match="^" + re.escape(f"{cfg_file}:2: {key} expects {expects}")):
        RuleConfig.from_file(cfg_file)


def test_config_validation():
    with pytest.raises(FatalError):
        RuleConfig(wh_min_children=0)
    with pytest.raises(FatalError):
        RuleConfig(ma_min_lcom=1.5)


def test_config_digest_stable():
    assert RuleConfig().digest() == RuleConfig().digest()
    assert RuleConfig().digest() != RuleConfig(wh_min_children=4).digest()
