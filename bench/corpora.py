"""Seeded Java corpora for the javasmell benchmark, with their expected facts.

Each generator writes a source tree plus the facts it knows while building
it, so outputs are checked against the construction and never against a
saved javasmell run:

    facts.json   per-type nom, wmc, max_cc, loc, dit, nc; the expected
                 findings (kind, subject, file, line, cycle members); the
                 files expected to fail; corpus totals
    truth.tsv    ground truth: every expected finding as a true positive
    repo.meta    repository metadata that the README's maturity rule
                 classifies as Developing

Workloads:

    bodies    many mid-sized single-class files whose methods come from the
              seeded method generator in tests/random_java.py (its own
              decision-point count gives the expected cyclomatic complexity)
    linked    a multi-package project with imports, inheritance chains,
              dependency cycles, a wide hierarchy and one planted subject or
              more for each of the ten smell kinds; short method bodies
    monolith  a few very large single-type files, some methods building long
              '+' chains; two files hold a Java text block, which the lexer
              rejects today, so those files are expected to fail

Regenerate one corpus and its facts:

    python3 bench/corpora.py --workload linked --seed 1 --out /tmp/linked
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bodies", "linked", "monolith")

# Default rule thresholds from the README; expected findings are derived
# from the generator's facts with these.
IM_MIN_LOC, IM_MIN_METHODS, IM_MIN_WMC, IM_MIN_MAX_CC = 1000, 30, 100, 20

ANALYSIS_DATE = "2024-06-30"


def _random_java():
    """tests/random_java.py, imported unchanged from the checkout."""
    tests = ROOT / "tests"
    if str(tests) not in sys.path:
        sys.path.insert(0, str(tests))
    import random_java

    return random_java


# ----------------------------------------------------------------------
# emission with line bookkeeping


@dataclass
class Method:
    lines: list  # source lines, indented, every one a code line
    cc: int | None  # None: no body (interface method)


@dataclass
class TypeSpec:
    qname: str
    header: str  # e.g. "public class Foo extends Bar {"
    fields: list = field(default_factory=list)  # code lines
    methods: list = field(default_factory=list)  # Method
    doc: str | None = None  # one-line comment before the header
    dit: int = 0
    nc: int = 0


class JavaFile:
    """One generated file; knows which of its lines are code."""

    def __init__(self, path: str):
        self.path = path
        self.lines: list[str] = []
        self.is_code: list[bool] = []
        self.method_starts: list[int] = []  # of the last type emitted

    def code(self, *lines):
        for line in lines:
            self.lines.append(line)
            self.is_code.append(True)

    def comment(self, *lines):
        for line in lines:
            self.lines.append(line)
            self.is_code.append(False)

    def blank(self):
        self.comment("")

    @property
    def next_line(self) -> int:
        return len(self.lines) + 1

    def emit_type(self, spec: TypeSpec, rng=None) -> dict:
        """Write *spec*; return its facts (line of the header, loc, ...)."""
        if spec.doc:
            self.comment(f"/** {spec.doc} */")
        start = self.next_line
        self.code(spec.header)
        for line in spec.fields:
            self.code("    " + line)
        self.method_starts = []
        for i, m in enumerate(spec.methods):
            self.blank()
            if rng is not None and rng.random() < 0.15:
                self.comment("    // Generated member.")
            elif rng is not None and rng.random() < 0.05:
                self.comment("    /*", f"     * Block comment before member {i}.", "     */")
            self.method_starts.append(self.next_line)
            self.code(*m.lines)
        self.code("}")
        end = self.next_line - 1
        ccs = [m.cc for m in spec.methods if m.cc is not None]
        return {
            "file": self.path,
            "line": start,
            "nom": len(spec.methods),
            "wmc": sum(ccs),
            "max_cc": max(ccs, default=0),
            "loc": sum(self.is_code[start - 1 : end]),
            "dit": spec.dit,
            "nc": spec.nc,
        }

    def write(self, root: Path):
        target = root / self.path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(self.lines) + "\n", encoding="utf-8")


class Corpus:
    """Accumulates files, per-type facts and expected findings."""

    def __init__(self, workload: str, seed: int, out: Path):
        self.workload = workload
        self.seed = seed
        self.out = Path(out)
        self.src = self.out / "src"
        self.files: list[JavaFile] = []
        self.types: dict = {}
        self.findings: list = []
        self.expect_failed: list = []

    def add_file(self, jf: JavaFile, fails: bool = False):
        self.files.append(jf)
        if fails:
            self.expect_failed.append(jf.path)

    def add_type(self, jf: JavaFile, spec: TypeSpec, rng=None) -> dict:
        facts = jf.emit_type(spec, rng)
        self.types[spec.qname] = facts
        return facts

    def expect(self, kind: str, qname: str, line: int | None = None, cycle=()):
        facts = self.types[qname]
        self.findings.append(
            {
                "kind": kind,
                "subject": qname,
                "file": facts["file"],
                "line": facts["line"] if line is None else line,
                "cycle_members": sorted(cycle),
            }
        )

    def expect_insufficient_modularization(self):
        """The README's InsufficientModularization rule over known facts of
        single-type files."""
        for qname, facts in self.types.items():
            if (
                facts["loc"] >= IM_MIN_LOC
                or facts["nom"] >= IM_MIN_METHODS
                or facts["wmc"] >= IM_MIN_WMC
                or facts["max_cc"] >= IM_MIN_MAX_CC
            ):
                self.expect("InsufficientModularization", qname)

    def write(self, rng) -> dict:
        self.src.mkdir(parents=True, exist_ok=True)
        for jf in self.files:
            jf.write(self.src)
        findings = sorted(self.findings, key=lambda f: (f["kind"], f["subject"], f["line"]))
        with open(self.out / "truth.tsv", "w", encoding="utf-8") as fh:
            fh.write(f"# ground truth for {self.workload} seed {self.seed}\n")
            for pair in sorted({(f["subject"], f["kind"]) for f in findings}):
                fh.write(f"{pair[0]}\t{pair[1]}\ttp\n")
        # Developing: commits <= 2000, contributors <= 30, last commit
        # within 9 months of the analysis date, releases <= 2.
        with open(self.out / "repo.meta", "w", encoding="utf-8") as fh:
            fh.write(f"commits = {rng.randint(50, 2000)}\n")
            fh.write(f"contributors = {rng.randint(1, 30)}\n")
            fh.write(f"releases = {rng.randint(0, 2)}\n")
            fh.write(f"last_commit_date = 2024-0{rng.randint(1, 6)}-{rng.randint(10, 28)}\n")
            fh.write(f"analysis_date = {ANALYSIS_DATE}\n")
        methods = sum(t["nom"] for t in self.types.values())
        facts = {
            "workload": self.workload,
            "seed": self.seed,
            "maturity": "Developing",
            "files": {jf.path: len(jf.lines) for jf in self.files},
            "expect_failed": sorted(self.expect_failed),
            "types": dict(sorted(self.types.items())),
            "findings": findings,
            "totals": {
                "files": len(self.files),
                "lines": sum(len(jf.lines) for jf in self.files),
                "types": len(self.types),
                "methods": methods,
                "findings": len(findings),
            },
        }
        (self.out / "facts.json").write_text(json.dumps(facts, indent=1) + "\n", encoding="utf-8")
        return facts


def _generated_method(rj, rng, name: str, max_statements: int) -> Method:
    """A method from tests/random_java.py, renamed; cc is the generator's."""
    source, cc = rj.random_method(rng, max_statements=max_statements)
    lines = source.split("\n")[1:-2]  # drop "class Generated {", "}", ""
    lines[0] = lines[0].replace(" generated(", f" {name}(", 1)
    return Method(lines, cc)


MAIN = Method(["    public static void main(String[] args) {", "        int ready = args.length;", "    }"], 1)


# ----------------------------------------------------------------------
# bodies


def gen_bodies(seed: int, out: Path, files: int = 120, target_lines: int = 300) -> dict:
    rj = _random_java()
    rng = random.Random(f"bodies:{seed}")
    corpus = Corpus("bodies", seed, out)
    for i in range(files):
        pkg = f"com.bench.bodies.g{i % 8}"
        name = f"Body{i}"
        jf = JavaFile(f"{pkg.replace('.', '/')}/{name}.java")
        jf.comment(f"// Generated benchmark input: bodies seed {seed}, file {i}.")
        jf.code(f"package {pkg};")
        jf.blank()
        # main keeps the class clear of UnutilizedAbstraction.
        spec = TypeSpec(f"{pkg}.{name}", f"public class {name} {{", doc=f"Body file {i}.")
        spec.methods.append(MAIN)
        lines = 6
        k = 0
        while lines < target_lines:
            m = _generated_method(rj, rng, f"m{k}", 30)
            spec.methods.append(m)
            lines += len(m.lines) + 1
            k += 1
        corpus.add_type(jf, spec, rng)
        corpus.add_file(jf)
    corpus.expect_insufficient_modularization()
    return corpus.write(rng)


# ----------------------------------------------------------------------
# monolith

TEXT_BLOCK = [
    "    String banner() {",
    '        return """',
    "            javasmell benchmark",
    "            text block",
    '            """;',
    "    }",
]


def _concat_method(name: str, terms: int) -> Method:
    parts = [f'"s{t}"' for t in range(terms)]
    lines = [f"    String {name}() {{"]
    for row in range(0, terms, 12):
        chunk = " + ".join(parts[row : row + 12])
        if row == 0:
            lines.append(f"        return {chunk}")
        else:
            lines.append(f"            + {chunk}")
    lines[-1] += ";"
    lines.append("    }")
    return Method(lines, 1)


def _monolith_type(rj, rng, pkg: str, name: str, methods: int, text_block: bool) -> TypeSpec:
    spec = TypeSpec(f"{pkg}.{name}", f"public class {name} {{", doc=f"Monolith {name}.")
    spec.fields = ["private int x;", "private int y;"]
    spec.methods.append(MAIN)
    for k in range(methods):
        if k % 25 == 7:
            # Long '+' chains, well below the nesting depth that crashes the
            # recursive tree walkers today.
            spec.methods.append(_concat_method(f"cat{k}", rng.randint(120, 200)))
        else:
            spec.methods.append(_generated_method(rj, rng, f"m{k}", 4))
    if text_block:
        spec.methods.insert(len(spec.methods) // 2, Method(TEXT_BLOCK, 1))
    return spec


def gen_monolith(seed: int, out: Path, files: int = 2, methods: int = 1500,
                 text_block_files: int = 2, text_block_methods: int = 300) -> dict:
    rj = _random_java()
    rng = random.Random(f"monolith:{seed}")
    corpus = Corpus("monolith", seed, out)
    pkg = "com.bench.monolith"
    plan = [(f"Mono{i}", methods, False, rng) for i in range(files)]
    # The text-block files do not depend on the seed: they fail every time,
    # and the failure must be the same on every corpus.
    plan += [
        (f"MonoText{i}", text_block_methods, True, random.Random(f"monolith-text:{i}"))
        for i in range(text_block_files)
    ]
    for name, n_methods, text_block, file_rng in plan:
        jf = JavaFile(f"{pkg.replace('.', '/')}/{name}.java")
        jf.comment(f"// Generated benchmark input: monolith {name}.")
        jf.code(f"package {pkg};")
        jf.blank()
        spec = _monolith_type(rj, file_rng, pkg, name, n_methods, text_block)
        facts = jf.emit_type(spec, file_rng)
        if text_block:
            corpus.add_file(jf, fails=True)
        else:
            corpus.types[spec.qname] = facts
            corpus.add_file(jf)
    corpus.expect_insufficient_modularization()
    return corpus.write(rng)


# ----------------------------------------------------------------------
# linked

LINKED = "com.bench.linked"


def _template(rng, name: str, fa: str, fb: str) -> Method:
    """A short method reading or writing own fields, with its known cc."""
    k = rng.randint(0, 9)
    choice = rng.randrange(5)
    if choice == 0:
        return Method([
            f"    int {name}(int x) {{",
            f"        if (x > {k}) {{",
            f"            return {fa} + x;",
            "        }",
            f"        return {fb};",
            "    }",
        ], 2)
    if choice == 1:
        return Method([
            f"    int {name}(int x) {{",
            f"        if (x > {k} && {fa} < x) {{",
            f"            {fa} = x;",
            "        }",
            f"        return {fa};",
            "    }",
        ], 3)
    if choice == 2:
        return Method([
            f"    int {name}(int x) {{",
            f"        return x > {k} ? {fa} : {fb};",
            "    }",
        ], 2)
    if choice == 3:
        return Method([
            f"    int {name}(int x) {{",
            "        int total = 0;",
            "        for (int i = 0; i < x; i++) {",
            f"            total = total + {fa};",
            "        }",
            "        return total;",
            "    }",
        ], 2)
    return Method([
        f"    void {name}(int x) {{",
        f"        {fa} = {fb} + x;",
        "    }",
    ], 1)


class _Linked:
    """Builds the linked project.

    Dependency edges always run from a later-built type to an earlier one
    (interfaces, regular classes by index, chains, the wide hierarchy,
    planted subjects, App last), so the only strongly connected components
    are the planted rings. Every type not planted as unutilized has an
    incoming edge, and App has main.
    """

    def __init__(self, seed: int, out: Path, regular: int, packages: int):
        self.rng = random.Random(f"linked:{seed}")
        self.corpus = Corpus("linked", seed, out)
        self.regular = regular
        self.packages = packages
        self.package_of: dict = {}  # simple name -> package

    def low(self) -> str:
        return f"C{self.rng.randrange(self.regular)}"

    def file(self, pkg: str, name: str, targets=(), qualified=()) -> JavaFile:
        """A file whose imports reach *targets* (simple names) by a
        single-type or an on-demand import; *qualified* ones are written
        with their package and need none."""
        single, demand = set(), set()
        for t in targets:
            tp = self.package_of[t]
            if tp == pkg or t in qualified:
                continue
            if self.rng.random() < 0.5:
                single.add(f"{tp}.{t}")
            else:
                demand.add(tp)
        jf = JavaFile(f"src/main/java/{pkg.replace('.', '/')}/{name}.java")
        jf.comment(f"// Generated benchmark input: linked {name}.")
        jf.code(f"package {pkg};")
        jf.blank()
        imports = [f"import {q};" for q in sorted(single)] + [f"import {p}.*;" for p in sorted(demand)]
        if imports:
            jf.code(*imports)
            jf.blank()
        return jf

    def body(self, spec: TypeSpec, links, methods: int, prefix: str = "m"):
        """Private int fields, one field per link, *methods* short methods
        that read or write the int fields."""
        rng = self.rng
        names = [f"f{k}" for k in range(rng.randint(2, 3))]
        spec.fields += [f"private int {n};" for n in names]
        spec.fields += [f"private {t} link{i};" for i, t in enumerate(links)]
        if rng.random() < 0.3:
            spec.fields.append(f"public static final int LIMIT = {rng.randint(1, 99)};")
        for k in range(methods):
            spec.methods.append(_template(rng, f"{prefix}{k}", rng.choice(names), rng.choice(names)))

    def add(self, pkg: str, name: str, header: str, build, targets=(), dit=0, nc=0) -> JavaFile:
        self.package_of[name] = pkg
        jf = self.file(pkg, name, targets)
        spec = TypeSpec(f"{pkg}.{name}", header, dit=dit, nc=nc, doc=f"Type {name}.")
        build(spec)
        self.corpus.add_type(jf, spec, self.rng)
        self.corpus.add_file(jf)
        return jf

    def generate(self) -> dict:
        rng = self.rng
        corpus = self.corpus
        api = f"{LINKED}.api"
        planted = f"{LINKED}.planted"
        app_refs: list = []  # simple names that only App references

        def interface_method(spec):
            spec.methods.append(Method(["    int apply(int x);"], None))

        n_ifaces = 8
        for s in range(n_ifaces):
            self.add(api, f"Service{s}", f"public interface Service{s} {{", interface_method)

        # Regular classes: C{i} links C{i-1}, so each has an incoming edge,
        # and up to two random earlier classes.
        for i in range(self.regular):
            name = f"C{i}"
            pkg = f"{LINKED}.p{rng.randrange(self.packages)}"
            links = [f"C{i - 1}"] if i else []
            links += [f"C{rng.randrange(i)}" for _ in range(rng.randint(0, 2))] if i else []
            links = list(dict.fromkeys(links))
            iface = None
            if i < n_ifaces:
                iface = i  # every interface gets an implementer
            elif rng.random() < 0.2:
                iface = rng.randrange(n_ifaces)
            header = f"public class {name}"
            targets = list(links)
            if iface is not None:
                header += f" implements Service{iface}"
                targets.append(f"Service{iface}")

            def build(spec, links=links, iface=iface):
                self.body(spec, links, rng.randint(3, 7))
                if iface is not None:
                    spec.methods.append(Method([
                        "    public int apply(int x) {",
                        "        return x + f0;",
                        "    }",
                    ], 1))

            self.add(pkg, name, header + " {", build, targets)
        app_refs.append(f"C{self.regular - 1}")

        # Inheritance chains of known depth; every level overrides step()
        # with a non-empty body.
        for c in range(6):
            depth = rng.randint(2, 8)
            pkg = f"{LINKED}.chain{c}"
            for d in range(depth + 1):
                name = f"Chain{c}L{d}"
                ref = self.low()
                header = f"public class {name}" + (f" extends Chain{c}L{d - 1}" if d else "") + " {"

                def build(spec, ref=ref, d=d):
                    self.body(spec, [ref], rng.randint(2, 5), prefix=f"l{d}m")
                    spec.methods.append(Method([
                        "    public int step(int x) {",
                        f"        return x + {d} + f0;",
                        "    }",
                    ], 1))

                self.add(pkg, name, header, build, [ref], dit=d, nc=1 if d < depth else 0)
            app_refs.append(f"Chain{c}L{depth}")

        # WideHierarchy: one base with 10-14 direct subtypes.
        width = rng.randint(10, 14)
        self.add(planted, "WideBase", "public class WideBase {",
                 lambda spec: self.body(spec, [], 3), nc=width)
        corpus.expect("WideHierarchy", f"{planted}.WideBase")
        for w in range(width):
            name, ref = f"WideLeaf{w}", self.low()
            self.add(planted, name, f"public class {name} extends WideBase {{",
                     lambda spec, ref=ref: self.body(spec, [ref], rng.randint(2, 4), prefix="leaf"),
                     ["WideBase", ref], dit=1)
            app_refs.append(name)

        # CyclicDependentModularization: two rings of 2-4 types.
        for r in range(2):
            ring = [f"Ring{r}N{k}" for k in range(rng.randint(2, 4))]
            for name in ring:
                self.package_of[name] = planted
            for k, name in enumerate(ring):
                links = [ring[(k + 1) % len(ring)], self.low()]
                self.add(planted, name, f"public class {name} {{",
                         lambda spec, links=links: self.body(spec, links, 3), links)
            members = [f"{planted}.{n}" for n in ring]
            for q in members:
                corpus.expect("CyclicDependentModularization", q, cycle=members)

        # UnutilizedAbstraction: nothing references these.
        for k in range(2):
            name, ref = f"Orphan{k}", self.low()
            self.add(planted, name, f"public class {name} {{",
                     lambda spec, ref=ref: self.body(spec, [ref], 3), [ref])
            corpus.expect("UnutilizedAbstraction", f"{planted}.{name}")

        # InsufficientModularization: by method count (wmc stays <= 96), by
        # a method of cc 21, and by two top-level types in one file (both
        # fire).
        self.add(planted, "Monster", "public class Monster {", lambda spec: self.body(spec, [], 32))

        def tangle(spec):
            self.body(spec, [], 2)
            cases = [f"            case {c}: return {c + 1};" for c in range(20)]
            spec.methods.append(Method(
                ["    int route(int code) {", "        switch (code) {"] + cases
                + ["            default: return 0;", "        }", "    }"], 21))

        self.add(planted, "Tangle", "public class Tangle {", tangle)
        self.package_of["Pair"] = self.package_of["PairAux"] = planted
        jf = self.file(planted, "Pair")
        for name, header in (("Pair", "public class Pair {"), ("PairAux", "class PairAux {")):
            spec = TypeSpec(f"{planted}.{name}", header, doc=f"Type {name}.")
            self.body(spec, [], 3)
            corpus.add_type(jf, spec, rng)
            jf.blank()
        corpus.add_file(jf)
        for name in ("Monster", "Tangle", "Pair", "PairAux"):
            corpus.expect("InsufficientModularization", f"{planted}.{name}")
            app_refs.append(name)

        # BrokenHierarchy: a subtype empties an inherited concrete method.
        def bequest(spec):
            self.body(spec, [], 2)
            spec.methods.append(Method(["    public void reset() {", "        f0 = 0;", "    }"], 1))

        def refuser(spec):
            self.body(spec, [], 2, prefix="r")
            spec.methods.append(Method(["    public void reset() {", "    }"], 1))

        self.add(planted, "Bequest", "public class Bequest {", bequest, nc=1)
        self.add(planted, "Refuser", "public class Refuser extends Bequest {", refuser, ["Bequest"], dit=1)
        corpus.expect("BrokenHierarchy", f"{planted}.Refuser")
        app_refs.append("Refuser")

        # DeficientEncapsulation: a public non-constant field.
        def exposed(spec):
            spec.fields.append("public int counter;")
            self.body(spec, [], 3)

        self.add(planted, "Exposed", "public class Exposed {", exposed)
        corpus.expect("DeficientEncapsulation", f"{planted}.Exposed")
        app_refs.append("Exposed")

        # UnnecessaryAbstraction: fields and no methods; an empty interface
        # (App implements it).
        self.add(planted, "Holder", "public class Holder {",
                 lambda spec: spec.fields.extend(["private int a;", "private int b;"]))
        self.add(planted, "Marker", "public interface Marker {", lambda spec: None)
        corpus.expect("UnnecessaryAbstraction", f"{planted}.Holder")
        corpus.expect("UnnecessaryAbstraction", f"{planted}.Marker")
        app_refs.append("Holder")

        # ImperativeAbstraction: one public method, at most two fields.
        def command(spec):
            spec.fields.append("private int runs;")
            spec.methods.append(Method(["    public void execute() {", "        runs = runs + 1;", "    }"], 1))

        self.add(planted, "Command", "public class Command {", command)
        corpus.expect("ImperativeAbstraction", f"{planted}.Command")
        app_refs.append("Command")

        # MultifacetedAbstraction: 6 fields and 10 methods that touch one
        # field each, so lcom = (60 - 10) / 60.
        def facets(spec):
            spec.fields += [f"private int g{k};" for k in range(6)]
            for k in range(10):
                spec.methods.append(Method(
                    [f"    int facet{k}(int x) {{", f"        return g{k % 6} + x;", "    }"], 1))

        self.add(planted, "Facets", "public class Facets {", facets)
        corpus.expect("MultifacetedAbstraction", f"{planted}.Facets")
        app_refs.append("Facets")

        # MissingHierarchy: an instanceof ladder over three regular classes,
        # and a switch on a field named kind. Each finding sits on the
        # second line of the type's last method.
        subjects = []
        while len(subjects) < 3:
            pick = self.low()
            if pick not in subjects:
                subjects.append(pick)

        def dispatcher(spec):
            self.body(spec, [], 2)
            lines = ["    int dispatch(Object o) {"]
            for b, t in enumerate(subjects):
                lines.append(f"        {'if' if b == 0 else '} else if'} (o instanceof {t}) {{")
                lines.append(f"            return {b};")
            lines += ["        }", "        return -1;", "    }"]
            spec.methods.append(Method(lines, 4))

        def router(spec):
            spec.fields.append("private int kind;")
            self.body(spec, [], 2)
            spec.methods.append(Method([
                "    int route() {",
                "        switch (kind) {",
                "            case 0: return 10;",
                "            case 1: return 20;",
                "            case 2: return 30;",
                "            default: return 0;",
                "        }",
                "    }",
            ], 4))

        for name, build, targets in (("Dispatcher", dispatcher, subjects), ("Router", router, [])):
            jf = self.add(planted, name, f"public class {name} {{", build, targets)
            corpus.expect("MissingHierarchy", f"{planted}.{name}", line=jf.method_starts[-1] + 1)
            app_refs.append(name)

        # App: main plus wiring methods that reference every type with no
        # other incoming edge, some by qualified name.
        self.package_of["App"] = LINKED
        qualified = {r for r in app_refs if rng.random() < 0.2}
        jf = self.file(LINKED, "App", app_refs + ["Marker"], qualified)
        spec = TypeSpec(f"{LINKED}.App", "public class App implements Marker {", doc="Entry point.")
        spec.methods.append(Method([
            "    public static void main(String[] args) {",
            "        App app = new App();",
            "        app.wire0(args.length);",
            "    }",
        ], 1))
        for w in range(0, len(app_refs), 8):
            lines = [f"    void wire{w // 8}(int n) {{"]
            for k, ref in enumerate(app_refs[w : w + 8]):
                written = f"{self.package_of[ref]}.{ref}" if ref in qualified else ref
                lines.append(f"        {written} v{k} = new {written}();")
            lines.append("    }")
            spec.methods.append(Method(lines, 1))
        corpus.add_type(jf, spec, rng)
        corpus.add_file(jf)
        return corpus.write(rng)


def gen_linked(seed: int, out: Path, regular: int = 500, packages: int = 12) -> dict:
    return _Linked(seed, out, regular, packages).generate()


GENERATORS = {"bodies": gen_bodies, "linked": gen_linked, "monolith": gen_monolith}


def generate(workload: str, seed: int, out: Path) -> dict:
    return GENERATORS[workload](seed, Path(out))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Generate a seeded benchmark corpus and its facts.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for src/, facts.json, truth.tsv, repo.meta")
    args = ap.parse_args(argv)
    facts = generate(args.workload, args.seed, Path(args.out))
    print(json.dumps(facts["totals"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
