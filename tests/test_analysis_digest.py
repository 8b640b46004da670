"""Pinned metrics rows and findings for a fixed set of small projects.

Every project is modelled, measured and checked under two rule configs, and
reduced to one digest per config. A digest covers each ``metrics.csv`` row
and every finding in output order: kind, subject, file, line, its evidence
sorted by key, and its cycle members. The projects are seeded ``random_java``
bodies placed as methods of classes whose fields are named ``x``, ``y``,
``names`` and ``items`` (so parameters, locals and loop variables shadow
them and LCOM is not trivial), plus hand-written cases: instanceof ladders
and tag switches inside lambdas, local classes and constructors, ladders
with mixed operands, a switch and a ladder on one line, throw-only and empty
overrides, and every kind of field shadowing.

The digests in ``fixtures/analysis_digests.txt`` were written by

    PYTHONPATH=src python tests/test_analysis_digest.py

Any change to a metric or a rule shows up here. Rewrite the file with the
command above only when such a change is intended.
"""

import hashlib
import random
import sys
import tempfile
from pathlib import Path

from javasmell.metrics import compute_type_metrics, write_metrics_csv
from javasmell.pipeline import build_from_sources
from javasmell.smells import RuleConfig, detect_all

sys.path.insert(0, str(Path(__file__).parent))
from random_java import random_method  # noqa: E402

DIGESTS = Path(__file__).parent / "fixtures" / "analysis_digests.txt"
RANDOM_PROJECTS = 60
RANDOM_SEED = 20250307

CONFIGS = {
    "default": RuleConfig(),
    "tuned": RuleConfig(
        mh_min_branches=2,
        mh_tag_pattern="^(x|y)$|state",
        ma_min_lcom=0.3,
        ma_min_methods=2,
        ma_min_fields=2,
    ),
}

# Parameter lists for the random methods: none, or ones shadowing some of
# the fields (``items`` is needed by the generated enhanced-for loops).
_PARAMS = ("(int[] items)", "(int x, int[] items)", "(int y, int[] items, String names)",
           "(int x, int y, int[] items, String names)")


def _random_body(rng) -> str:
    source, _ = random_method(rng, max_statements=20)
    return source.split("String names) ", 1)[1].rsplit("}", 1)[0]


def _random_project(rng, k: int) -> dict:
    """One or two classes in one file, each with random-body methods."""
    classes = []
    for c in range(rng.randint(1, 2)):
        name = f"R{k}_{c}"
        parent = f" extends R{k}_0" if c == 1 and rng.random() < 0.5 else ""
        methods = []
        for i in range(rng.randint(1, 5)):
            vis = rng.choice(("public ", "", "private "))
            methods.append(f"    {vis}int m{i}{rng.choice(_PARAMS)} {_random_body(rng)}")
        if rng.random() < 0.3:
            methods.append("    void quiet() { }")
        fields = "    int x; int y; public String names; int[] items;\n"
        classes.append(f"class {name}{parent} {{\n{fields}" + "\n".join(methods) + "\n}\n")
    return {f"r/R{k}.java": "package r;\n" + "".join(classes)}


HAND_WRITTEN = {
    "lambdas": {
        "h/Lam.java": """package h;
import java.util.function.*;
class Lam {
    Object a; Object kind; int n;
    void m(Object o) {
        Runnable r = () -> {
            if (o instanceof String) { } else if (o instanceof Integer) { } else if (o instanceof Long) { }
            switch (kind) { case 1: case 2: case 3: break; }
        };
        Predicate<Object> p = v -> v instanceof String && n > 0 || a == null;
        Function<Object, Integer> f = v -> v instanceof Long ? n : kind.hashCode();
        Supplier<Integer> s = () -> n > 0 ? 1 : 2;
        int k = n > 1 ? 1 : 0;
    }
}
""",
    },
    "local_classes": {
        "h/Loc.java": """package h;
class Loc {
    int type; int count; String label;
    void outer(Object o) {
        class Inner {
            int count;
            void visit(Object q) {
                if (q instanceof String) { count++; }
                else if (q instanceof Integer) { label = "i"; }
                else if (q instanceof Long) { type = 2; }
                switch (type) { case 1: break; case 2: break; case 3: break; }
            }
        }
        new Inner().visit(o);
        for (int i = 0; i < count; i++) { if (i > 2 && o != null) { } }
    }
    int other() { return count; }
}
""",
    },
    "constructors": {
        "h/Ctor.java": """package h;
class Ctor {
    final Object shape; int kind; int area;
    Ctor(Object shape, int kind) {
        this.shape = shape;
        this.kind = kind;
        if (shape instanceof Circle) { area = 1; }
        else if (shape instanceof Square) { area = 2; }
        else if (shape instanceof Triangle) { area = 3; }
        else { area = 0; }
        switch (this.kind) { case 0: area++; break; case 1: area--; break; case 2: break; default: }
    }
    Ctor() { this(null, 0); }
    int area() { return area; }
}
class Circle { }
class Square { }
class Triangle { }
""",
    },
    "ladders": {
        "h/Lad.java": """package h;
class Lad {
    Object a; Object b; int state;
    int mixed() {
        if (a instanceof String) { return 1; }
        else if (b instanceof Integer) { return 2; }
        else if (a instanceof Long) { return 3; }
        return 0;
    }
    int notAll() {
        if (a instanceof String) { return 1; }
        else if (state > 2) { return 2; }
        else if (a instanceof Long) { return 3; }
        return 0;
    }
    int parens() {
        if ((a instanceof String)) { return 1; }
        else if (((a instanceof Integer))) { return 2; }
        else if (a instanceof Long) { return 3; }
        else if (a instanceof Double) { return 4; }
        return 0;
    }
    int two() {
        if (this.a instanceof String) { return 1; } else if (this.a instanceof Long) { return 2; }
        return 0;
    }
    int nested() {
        if (a instanceof String) {
            if (b instanceof String) { return 5; } else if (b instanceof Long) { return 6; }
        } else if (a instanceof Long) { return 2; } else { return 3; }
        return 0;
    }
    int oneLine(Object v) {
        switch (state) { case 1: case 2: case 3: break; } if (v instanceof String) { } else if (v instanceof Long) { } else if (v instanceof Byte) { }
        if (v instanceof String) { } else if (v instanceof Long) { } else if (v instanceof Byte) { } switch (getKind()) { case 1: case 2: case 3: break; }
        return state;
    }
    int getKind() { return state; }
}
""",
    },
    "switches": {
        "h/Sw.java": """package h;
class Sw {
    Node node; int type; String text;
    int a() { switch (node.kind) { case 1: return 1; case 2: return 2; case 3: return 3; } return 0; }
    int b() { switch (node.getType()) { case 1, 2, 3: return 1; default: return 0; } }
    int c() { switch ((type)) { case 1: case 2: return 1; } return 0; }
    int d() { switch (text.length()) { case 1: case 2: case 3: case 4: return 1; } return 0; }
    int e(int[] kinds) { switch (kinds[0]) { case 1: case 2: case 3: return 1; } return 0; }
    int f() { switch (this.type) { case 1 -> { return 1; } case 2 -> { return 2; } case 3 -> { return 3; } default -> { return 0; } } }
}
class Node { int kind; int getType() { return kind; } }
""",
    },
    "overrides": {
        "h/Base.java": """package h;
abstract class Base {
    int v;
    void empty() { v = 1; }
    void thrower() { v = 2; }
    void emptyStatements() { v = 3; }
    void throwAfterEmpty() { v = 4; }
    void twoStatements() { v = 5; }
    abstract void abs();
    void kept() { v = 6; }
    void overloaded(int a) { v = a; }
    private void hidden() { v = 7; }
}
""",
        "h/Sub.java": """package h;
class Sub extends Base {
    void empty() { }
    void thrower() { throw new UnsupportedOperationException(); }
    void emptyStatements() { ; ; }
    void throwAfterEmpty() { ; throw new IllegalStateException("no"); }
    void twoStatements() { v = 0; throw new IllegalStateException(); }
    void abs() { }
    void kept() { super.kept(); }
    void overloaded() { }
    void hidden() { }
    Sub() { }
}
""",
        "h/Leaf.java": """package h;
class Leaf extends Sub {
    void kept() { throw new RuntimeException(); }
    void abs() { throw new RuntimeException(); }
}
""",
    },
    "shadowing": {
        "h/Sh.java": """package h;
import java.io.*;
class Sh {
    int a; int b; int c; int d; int e; int f; int g; int h; int r; int u;
    int param(int a) { return a + b; }
    int laterLocal() { int x = b; int b = 0; return x + b; }
    int earlierLocal() { int c = 1; return c; }
    int loopVar() { for (int d : new int[] { 1 }) { e = d; } return 0; }
    int catchName() { try { return f; } catch (RuntimeException g) { return g.hashCode(); } }
    int resource() throws IOException { try (Reader r = new StringReader("")) { return r.read(); } }
    int forInit() { for (int h = 0; h < 3; h++) { u++; } return 0; }
    int explicit(int a, int b) { this.a = a; return this.b + b; }
    int shadowedThenThis() { int c = 0; return this.c + c; }
    int lambdaUse() { java.util.function.IntSupplier s = () -> a + h; return 0; }
    int lambdaParam() { java.util.function.IntUnaryOperator s = g -> g + 1; return 0; }
    int localClassUse() {
        class Tmp { int e; int run(int f) { return e + f + a; } }
        return new Tmp().run(1);
    }
    int qualified(Sh other) { return other.a + other.b; }
    int none() { return 0; }
    abstract static class Abs { int q; abstract int m(); }
}
""",
    },
    "interfaces": {
        "h/Shape.java": """package h;
interface Shape {
    int area();
    default int twice() { return area() > 0 && area() < 10 ? area() * 2 : 0; }
    static Shape unit() { return () -> 1; }
}
""",
        "h/Kind.java": """package h;
enum Kind {
    A, B;
    int code;
    Kind() { code = 1; }
    int describe(Object o) {
        if (o instanceof String) { return 1; } else if (o instanceof Long) { return 2; } else if (o instanceof Byte) { return 3; }
        return code;
    }
}
""",
    },
}


def projects():
    """(name, {path: text}) pairs, in a fixed order."""
    yield from HAND_WRITTEN.items()
    combined = {}
    for sources in HAND_WRITTEN.values():
        combined.update(sources)
    yield "hand_written_together", combined
    rng = random.Random(RANDOM_SEED)
    for k in range(RANDOM_PROJECTS):
        yield f"random/{k}", _random_project(rng, k)


def dump(sources: dict, config: RuleConfig) -> str:
    model = build_from_sources(sources)
    tm = compute_type_metrics(model)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "metrics.csv"
        write_metrics_csv(tm, csv_path)
        lines = csv_path.read_text(encoding="utf-8").splitlines()
    for f in detect_all(model, tm, config):
        lines.append(
            f"{f.kind.value} {f.subject} {f.file} {f.line} "
            f"{sorted(f.evidence.items())!r} {f.cycle_members!r}"
        )
    return "\n".join(lines) + "\n"


def digest(sources: dict, config: RuleConfig) -> str:
    return hashlib.sha256(dump(sources, config).encode("utf-8")).hexdigest()[:16]


def current() -> list:
    return [
        f"{name} {label} {digest(sources, config)}"
        for name, sources in projects()
        for label, config in CONFIGS.items()
    ]


def test_metrics_and_findings_match_pinned_digests():
    expected = DIGESTS.read_text(encoding="utf-8").splitlines()
    actual = current()
    assert len(actual) == len(expected)
    changed = [a.rpartition(" ")[0] for a, e in zip(actual, expected) if a != e]
    assert not changed, f"{len(changed)} projects analyze differently, first: {changed[:5]}"


if __name__ == "__main__":
    DIGESTS.write_text("\n".join(current()) + "\n", encoding="utf-8")
