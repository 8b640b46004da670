"""Project model built by merging the plain facts of each parsed file.

The parser leaves each file's facts in a ``ParsedFile`` of plain values:
the package, the imports, and every type with its fields, its methods and
what metrics and smells read of their bodies, and the raw type names its
body refers to. ``build_model`` reads those facts only and leaves them
unchanged.

The model keeps the declared types as parsed, the package/type index used
for name resolution, and each file's code lines and top-level type count.
What it resolves it keeps in maps of its own: each type's kept member types,
the single-parent inheritance forest (class ``extends`` only, as supertype
and subtype maps), each type's depth in it (DIT) and the type-dependency
graph. A cycle of supertypes, which javac rejects, is reported once, at its
first member by qname; a member's depth counts the cycle's other members. A
type declared twice keeps its first declaration, by path, and the later one
is dropped together with every type nested in it.

A written type name resolves once, to a project type or to nothing. Its head
is looked up in javac's order (JLS 6.4.1, 7.5): types declared in the same
file, single-type imports, the same package's top-level types, then
on-demand imports (two matches are ambiguous and resolve to no project type,
with one diagnostic per file and name); the rest walks member types. A fully
qualified name comes last, when none of these finds the head. Anything else,
such as a library type or a variable at the head of a qualified call,
resolves to nothing; the dependency graph joins project types only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .parser import NON_REF_TYPES, ParsedFile


@dataclass
class ModelDiagnostic:
    code: str  # duplicate-type | extends-cycle | ambiguous-import
    message: str
    file: str
    line: int

    def __str__(self):
        return f"{self.file}:{self.line}: {self.code}: {self.message}"


@dataclass
class _FileScope:
    package: str
    simple_names: dict  # simple name -> qname, first declaration wins
    single_imports: dict  # simple name -> full dotted target
    on_demand: list  # package prefixes


@dataclass
class PseudoModel:
    types: dict = field(default_factory=dict)  # qname -> TypeInfo
    deps: dict = field(default_factory=dict)  # qname -> set of the project qnames it refers to
    supertype: dict = field(default_factory=dict)  # qname -> its resolved project supertype
    subtypes: dict = field(default_factory=dict)  # qname -> [qname]
    dit: dict = field(default_factory=dict)  # qname -> how many project supertypes are above it
    nested: dict = field(default_factory=dict)  # qname -> [kept member type qnames]
    incoming: dict = field(default_factory=dict)  # qname -> set of sources
    file_top_level: dict = field(default_factory=dict)  # file -> count
    file_code_lines: dict = field(default_factory=dict)  # file -> sorted [int]
    diagnostics: list = field(default_factory=list)
    _scopes: dict = field(default_factory=dict)  # file -> _FileScope

    # --------------------------------------------------------------
    def incoming_count(self, qname: str) -> int:
        return len(self.incoming.get(qname, ()))

    @cached_property
    def declared(self) -> Counter:
        """(name, arity) -> how many non-private methods of the kept types so declare."""
        methods = (m for t in self.types.values() for m in t.methods if m.visibility != "private")
        return Counter((m.name, m.arity) for m in methods)

    def find_ancestor_method(self, qname: str, name: str, arity: int):
        """First non-private method matching name and arity among the
        ``dit[qname]`` supertypes above *qname*, nearest first."""
        for _ in range(self.dit[qname]):
            qname = self.supertype[qname]
            anc = self.types[qname]
            for m in anc.methods:
                if m.name == name and m.arity == arity and m.visibility != "private":
                    return anc, m
        return None

    def resolve(self, raw: str, file: str):
        """The project qname that the type name *raw*, written in *file*,
        refers to, or None. When two or more on-demand imports match the
        name's head, the sorted tuple of their candidates instead."""
        if raw in NON_REF_TYPES:
            return None
        head, *rest = raw.split(".")
        scope = self._scopes[file]
        q = scope.simple_names.get(head) or scope.single_imports.get(head)
        if q is None:
            top = self.types.get(f"{scope.package}.{head}" if scope.package else head)
            if top is not None and top.outer is None:
                q = top.qname
        if q is None and scope.on_demand:
            candidates = tuple(sorted({pkg + "." + head for pkg in scope.on_demand} & self.types.keys()))
            if len(candidates) > 1:
                return candidates
            q = candidates[0] if candidates else None
        if q is None:  # no type in scope: a fully qualified name, or none
            return raw if raw in self.types else None
        if q not in self.types:
            return None  # a single-type import of no project type lands here
        for seg in rest:
            q += "." + seg
            if q not in self.types:
                return None
        return q


# ----------------------------------------------------------------------
# construction

def build_model(parsed: Iterable[ParsedFile]) -> PseudoModel:
    """Merge the facts of parsed files into a pseudo-model; order-independent.

    The facts are left unchanged: the model keeps the resolutions it makes
    (supertypes, member types) in maps of its own.
    """
    model = PseudoModel()
    files = sorted(parsed, key=lambda pf: pf.path)

    # Pass 1: declarations, per-file scopes and duplicate handling.
    for pf in files:
        path = pf.path
        model.file_code_lines[path] = pf.code_lines
        model.file_top_level[path] = sum(1 for t in pf.types if t.outer is None)

        scope = _FileScope(pf.package, {}, {}, [])
        for name, on_demand in pf.imports:
            if on_demand:
                scope.on_demand.append(name)
            else:
                scope.single_imports.setdefault(name.rpartition(".")[2], name)
        model._scopes[path] = scope

        # qname -> whether this file's latest declaration of it was kept; a
        # nested type's outer is the latest one, since types come in preorder.
        kept: dict = {}
        for info in pf.types:
            qname = info.qname
            if info.outer is not None and not kept[info.outer]:
                kept[qname] = False  # nested in a dropped duplicate
                continue
            kept[qname] = qname not in model.types
            if not kept[qname]:
                other = model.types[qname]
                model.diagnostics.append(
                    ModelDiagnostic(
                        "duplicate-type",
                        f"'{qname}' already declared in {other.file}",
                        path,
                        info.line,
                    )
                )
                continue
            if info.outer is not None:
                model.nested.setdefault(info.outer, []).append(qname)
            model.types[qname] = info
            scope.simple_names.setdefault(info.simple_name, qname)

    # Pass 2: every written type name, resolved once: the supertype link
    # and the dependency edges, each edge counted incoming as it is found.
    # Qnames come sorted, so every subtype list is built sorted.
    ambiguous: dict = {}  # (file, head) -> (first line, candidates)
    for qname in sorted(model.types):
        info = model.types[qname]
        if info.supertype_raw:
            resolved = model.resolve(info.supertype_raw, info.file)
            if resolved in model.types:  # neither None nor an ambiguous name's candidates
                model.supertype[qname] = resolved
                model.subtypes.setdefault(resolved, []).append(qname)
        edges = model.deps[qname] = set()
        for raw, line in info.refs:
            resolved = model.resolve(raw, info.file)
            if isinstance(resolved, tuple):  # an ambiguous name's candidates
                key = (info.file, raw.partition(".")[0])
                if key not in ambiguous or line < ambiguous[key][0]:
                    ambiguous[key] = (line, resolved)
            elif resolved is not None and resolved != qname:  # no self reference
                edges.add(resolved)
                model.incoming.setdefault(resolved, set()).add(qname)
    _depths_and_cycles(model)
    for file, line, head, candidates in sorted(
        (file, line, head, c) for (file, head), (line, c) in ambiguous.items()
    ):
        model.diagnostics.append(
            ModelDiagnostic("ambiguous-import", f"'{head}' matches {', '.join(candidates)}", file, line)
        )
    return model


def _depths_and_cycles(model: PseudoModel):
    """Fill ``model.dit`` from the components of the supertype map, which
    come supertypes first, and report each cycle once, at its first member."""
    sup = model.supertype
    dit = model.dit = dict.fromkeys(model.types, 0)
    adjacency = {q: [s] if s in sup else [] for q, s in sup.items()}
    cycles = []
    for component in strongly_connected_components(adjacency):
        first = component[0]
        if len(component) >= 2 or sup[first] == first:
            cycles.append(component)
            dit.update(dict.fromkeys(component, len(component) - 1))
        else:
            dit[first] = dit[sup[first]] + 1
    for component in sorted(cycles):
        info, message = model.types[component[0]], "inheritance cycle: " + " -> ".join(component)
        model.diagnostics.append(ModelDiagnostic("extends-cycle", message, info.file, info.line))


def strongly_connected_components(adjacency: dict) -> list[list]:
    """Iterative Tarjan (1972) over an adjacency mapping node -> iterable of
    nodes; every successor must be a key. Each component comes sorted."""
    index: dict = {}  # node -> visit order; its size is the next order
    lowlink: dict = {}
    stack: list = []
    on_stack: set = set()
    work: list = []  # (node, iterator over its sorted successors) per open visit
    sccs: list[list] = []

    def visit(node):
        index[node] = lowlink[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(sorted(adjacency[node]))))

    for root in sorted(adjacency):
        if root in index:
            continue
        visit(root)
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    visit(succ)
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component = []
                    while not component or component[-1] != node:
                        component.append(stack.pop())
                    on_stack.difference_update(component)
                    sccs.append(sorted(component))
    return sccs
