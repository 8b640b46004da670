"""Project model built by merging the plain facts of each parsed file.

``file_facts`` reads a file's syntax tree once, right after parsing, and
keeps only values: the package, the imports, and every type with its fields,
its methods and their facts, and the raw type names its body refers to. The
tree is then dropped, so a ``ParsedFile`` holds no syntax node and pickles.
``build_model`` reads those facts only and leaves them unchanged.

The model keeps the declared types with their fields and methods, the
package/type index used for name resolution, and each file's code lines and
top-level type count. On top of those sit the single-parent inheritance
forest (class ``extends`` only) and the type-dependency graph. A type
declared twice keeps its first declaration, by path, and the later one is
dropped together with every type nested in it.

One walk of each method body, ``method_facts``, leaves on ``MethodInfo``
all that metrics and smells read of a body. Besides it, only the preorder
in ``file_facts`` passes through method bodies, for local classes and type
references; the references skip lambdas and local classes, which the
method facts include.

Name resolution precedence: types declared in the same file, then same
package, then single-type imports, then on-demand imports (two matching
on-demand imports are ambiguous and resolve external, with one diagnostic
per file and name), then external.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple

from .lexer import SourceFile
from .parser import NON_REF_TYPES, Node


class External(NamedTuple):
    """Unresolved type reference; one bucket per distinct raw name."""

    name: str


@dataclass
class ModelDiagnostic:
    code: str  # duplicate-type | extends-cycle | ambiguous-import
    message: str
    file: str
    line: int

    def __str__(self):
        return f"{self.file}:{self.line}: {self.code}: {self.message}"


@dataclass
class FieldInfo:
    name: str
    visibility: str
    is_constant: bool


class SwitchSite(NamedTuple):
    """A switch statement, a MissingHierarchy candidate."""

    line: int
    cases: int
    terminal: str  # last identifier of the selector: x.getKind() -> getKind
    selector: str


class LadderSite(NamedTuple):
    """An if/else-if chain whose every condition is an instanceof."""

    line: int
    branches: int
    operand: str | None  # the tested expression when all share it, else None


@dataclass
class MethodInfo:
    name: str
    arity: int
    param_types: tuple
    modifiers: frozenset
    visibility: str
    is_ctor: bool
    has_body: bool
    line: int
    end_line: int
    cc: int | None  # cyclomatic complexity; None without a parsed body
    field_uses: int  # own fields read or written
    rejected_body: bool  # the body is empty or only throws
    hierarchy_sites: tuple  # SwitchSite and LadderSite, in preorder


@dataclass
class TypeInfo:
    qname: str
    simple_name: str
    kind: str  # class | interface | enum
    file: str
    line: int
    end_line: int
    outer: str | None
    supertype_raw: str | None
    fields: list[FieldInfo] = field(default_factory=list)
    methods: list[MethodInfo] = field(default_factory=list)
    refs: tuple = ()  # (raw name, line, internal only) per type reference, in preorder
    nested: list[str] = field(default_factory=list)
    supertype: str | None = None  # resolved, project-internal only


@dataclass
class ParsedFile:
    """The facts of one parsed file; plain values, no syntax node."""

    path: str
    package: str
    imports: tuple  # (dotted name, on demand) per non-static import
    types: list[TypeInfo]  # every type declaration, in preorder
    diagnostics: list  # the parser's recoverable errors
    code_lines: tuple  # sorted numbers of the lines that carry code


@dataclass
class _FileScope:
    package: str
    simple_names: dict  # simple name -> qname, first declaration wins
    single_imports: dict  # simple name -> full dotted target
    on_demand: list  # package prefixes


@dataclass
class PseudoModel:
    types: dict = field(default_factory=dict)  # qname -> TypeInfo
    packages: dict = field(default_factory=dict)  # package -> [qname]
    deps: dict = field(default_factory=dict)  # qname -> set[str | External]
    subtypes: dict = field(default_factory=dict)  # qname -> [qname]
    incoming: dict = field(default_factory=dict)  # qname -> set of sources
    file_top_level: dict = field(default_factory=dict)  # file -> count
    file_code_lines: dict = field(default_factory=dict)  # file -> sorted [int]
    diagnostics: list = field(default_factory=list)
    _scopes: dict = field(default_factory=dict)  # file -> _FileScope

    # --------------------------------------------------------------
    def internal_dep_graph(self) -> dict:
        """Adjacency restricted to project types (externals dropped)."""
        return {
            q: {t for t in targets if isinstance(t, str)}
            for q, targets in self.deps.items()
        }

    def incoming_count(self, qname: str) -> int:
        return len(self.incoming.get(qname, ()))

    def ancestors(self, qname: str):
        """Resolved supertype chain, cycle-safe."""
        seen = {qname}
        cur = self.types[qname].supertype
        while cur is not None and cur not in seen:
            seen.add(cur)
            yield self.types[cur]
            cur = self.types[cur].supertype

    def find_ancestor_method(self, qname: str, name: str, arity: int):
        """First non-private ancestor method matching name and arity."""
        for anc in self.ancestors(qname):
            for m in anc.methods:
                if (
                    not m.is_ctor
                    and m.name == name
                    and m.arity == arity
                    and m.visibility != "private"
                ):
                    return anc, m
        return None

    def resolve(self, raw: str, file: str):
        """Resolve a written type name to a project qname or External."""
        return self._resolve(raw, file)[0]

    def _resolve(self, raw: str, file: str):
        """``resolve``'s result, and the sorted on-demand candidates when
        two or more match the name's head (else None)."""
        if not raw or raw in NON_REF_TYPES:
            return External(raw), None
        if raw in self.types:
            return raw, None
        head, _, rest = raw.partition(".")
        scope = self._scopes.get(file)
        q = None
        if scope is not None:
            q = scope.simple_names.get(head)
            if q is None:
                q = self._package_lookup(scope.package, head)
            if q is None:
                target = scope.single_imports.get(head)
                if target is not None:
                    if target in self.types:
                        q = target
                    else:
                        return External(target + ("." + rest if rest else "")), None
            if q is None and scope.on_demand:
                candidates = sorted(
                    {
                        pkg + "." + head
                        for pkg in scope.on_demand
                        if pkg + "." + head in self.types
                    }
                )
                if len(candidates) == 1:
                    q = candidates[0]
                elif len(candidates) > 1:
                    return External(raw), candidates
        if q is None:
            return External(raw), None
        if rest:
            for seg in rest.split("."):
                nxt = q + "." + seg
                if nxt not in self.types:
                    return External(raw), None
                q = nxt
        return q, None

    def _package_lookup(self, package: str, simple: str):
        for q in self.packages.get(package, ()):
            info = self.types[q]
            if info.outer is None and info.simple_name == simple:
                return q
        return None


# ----------------------------------------------------------------------
# construction

_IMPLICIT_PUBLIC_OWNERS = {"interface"}


def _visibility(modifiers: frozenset, owner_kind: str, is_ctor: bool = False) -> str:
    if "public" in modifiers:
        return "public"
    if "protected" in modifiers:
        return "protected"
    if "private" in modifiers:
        return "private"
    if owner_kind in _IMPLICIT_PUBLIC_OWNERS:
        return "public"
    if owner_kind == "enum" and is_ctor:
        return "private"
    return "package"


_MEMBER_KINDS = ("FieldDecl", "MethodDecl", "ConstructorDecl")
_DECISION_KINDS = frozenset(
    {"If", "While", "DoWhile", "For", "ForEach", "Case", "Catch", "Ternary"}
)


def method_facts(method: Node, field_names=frozenset()) -> tuple:
    """(cc, field uses, rejected body, hierarchy sites) of a method or
    constructor node, read in one iterative preorder of its subtree.

    cc is 1 + if + for + enhanced-for + while + do + case label + catch
    clause + conditional operator + '&&' + '||', None without a parsed body;
    lambda bodies count nothing. Field uses counts the *field_names* the
    method reads or writes: a bare name loses to a parameter, local, loop
    variable or catch name of the same name anywhere in the method, and
    ``this.f`` always counts. A rejected body is empty or only throws. Field
    uses and hierarchy sites include lambdas and local classes.
    """
    body = next((c for c in method.children if c.kind == "Block"), None)
    shadowed = {name for _, name in method.attrs.get("params", ())}
    bare: set = set()
    this_hits: set = set()
    sites: list = []
    links: set = set()  # ids of else-if links, read with the head of their chain
    cc = 1
    lambdas = 0  # lambda bodies open around the current node
    stack = [method]
    while stack:
        n = stack.pop()
        if n is None:  # pushed below a lambda's children: its body ends here
            lambdas -= 1
            continue
        k = n.kind
        if k == "Name":
            if n.attrs["id"] in field_names:
                bare.add(n.attrs["id"])
        elif k == "FieldAccess":
            if n.children and n.children[0].kind == "This":
                this_hits.add(n.attrs["name"])
        elif k == "Binary":
            if not lambdas and n.attrs.get("op") in ("&&", "||"):
                cc += 1
        elif k in _DECISION_KINDS:
            if not lambdas:
                cc += 1
            if k == "If" and id(n) not in links:
                chain = [n]
                while chain[-1].attrs.get("has_else") and chain[-1].children[2].kind == "If":
                    chain.append(chain[-1].children[2])
                    links.add(id(chain[-1]))
                operands = set()
                for link in chain:
                    cond = link.children[0]
                    while cond.kind == "Paren" and cond.children:
                        cond = cond.children[0]
                    if cond.kind != "InstanceOf":
                        break
                    operands.add(cond.attrs.get("operand_text", "?"))
                else:
                    operand = operands.pop() if len(operands) == 1 else None
                    sites.append(LadderSite(n.line, len(chain), operand))
            elif k == "ForEach":
                shadowed.add(n.attrs["var_name"])
            elif k == "Catch":
                shadowed.add(n.attrs["name"])
        elif k == "LocalVar":
            shadowed.update(n.attrs.get("names", ()))
        elif k == "Switch":
            a = n.attrs
            sites.append(SwitchSite(n.line, a["case_count"], a["terminal_name"], a["selector_text"]))
        elif k == "Lambda":
            lambdas += 1
            stack.append(None)
        if n.children:
            stack += n.children[::-1]
    stmts = None if body is None else [c.kind for c in body.children if c.kind != "Empty"]
    rejected = stmts in ([], ["Throw"])
    uses = len(((bare - shadowed) | this_hits) & field_names)
    return (None if body is None else cc), uses, rejected, tuple(sites)


# Node kind -> the attribute naming the type it references.
_TYPE_ATTR = {
    "Parameter": "type", "MethodDecl": "return_type", "LocalVar": "type", "ForEach": "var_type",
    "New": "type", "ArrayNew": "type", "Cast": "type", "InstanceOf": "type",
}


def file_facts(unit: Node, path: str, code_lines) -> ParsedFile:
    """The facts of one parsed file, read in one iterative preorder of its
    tree; the result refers to no syntax node.

    Every type declaration is collected, local classes included (a local
    class is nested in its enclosing type), with its fields and then its
    methods and their ``method_facts``. Each type's ``refs`` are the raw
    type names it refers to, in order: its supertypes and field types, then
    in preorder over its body the parameter, return, local, loop variable,
    creation, cast, instanceof and catch types and the head name of a
    qualified call or field access (internal only: it may be a variable).
    Nested types and lambda bodies add nothing to a type's references.
    """
    package = unit.attrs.get("package") or ""
    types: list = []
    # A stack of child iterators, each with the type it lies in and the list
    # its references go to (None outside a type and inside a lambda).
    stack = [(iter(unit.children), None, None)]
    while stack:
        it, owner, refs = stack[-1]
        for n in it:
            k, a = n.kind, n.attrs
            if k == "TypeDecl":
                info = _type_info(n, package, path, owner)
                types.append(info)
                stack.append((iter(n.children), info, info.refs))
                break
            if refs is not None:
                attr = _TYPE_ATTR.get(k)
                if attr is not None:
                    refs.append((a.get(attr), n.line, False))
                elif k == "Catch":
                    refs.extend((raw, n.line, False) for raw in a.get("types", ()))
                elif (k == "Call" and a.get("has_target") or k == "FieldAccess") and n.children:
                    base = n.children[0]
                    if base.kind == "Name":
                        refs.append((base.attrs["id"], base.line, True))
            if n.children:
                stack.append((iter(n.children), owner, None if k == "Lambda" else refs))
                break
        else:
            stack.pop()
    for info in types:
        info.refs = tuple(r for r in info.refs if r[0] and r[0] not in NON_REF_TYPES)
    imports = tuple(
        (imp["name"], imp["on_demand"]) for imp in unit.attrs.get("imports", ()) if not imp.get("static")
    )
    diagnostics = unit.attrs.get("diagnostics", [])
    return ParsedFile(path, package, imports, types, diagnostics, tuple(sorted(code_lines)))


def _type_info(decl: Node, package: str, path: str, outer: TypeInfo | None) -> TypeInfo:
    """A type declaration's own facts; its ``refs`` start as a list of the
    supertypes and field types, which the caller's walk extends."""
    a, kind = decl.attrs, decl.attrs["type_kind"]
    simple = a["name"]
    if outer is not None:
        qname = f"{outer.qname}.{simple}"
    elif package:
        qname = f"{package}.{simple}"
    else:
        qname = simple
    supertype = a.get("supertype")
    refs = [(raw, decl.line, False) for raw in [supertype, *a.get("interfaces", ())]]
    # Fields first: the methods' facts count their uses.
    members = [c for c in decl.children if c.kind in _MEMBER_KINDS]
    fields = []
    for m in members:
        if m.kind == "FieldDecl":
            mods = m.attrs["modifiers"]
            constant = ("static" in mods and "final" in mods) or kind == "interface"
            fields.append(FieldInfo(m.attrs["name"], _visibility(mods, kind), constant))
            refs.append((m.attrs["type"], m.line, False))
    field_names = {f.name for f in fields}
    methods = []
    for m in members:
        if m.kind != "FieldDecl":
            ma, is_ctor = m.attrs, m.kind == "ConstructorDecl"
            methods.append(MethodInfo(
                ma["name"], ma["arity"], tuple(t for t, _ in ma["params"]), ma["modifiers"],
                _visibility(ma["modifiers"], kind, is_ctor), is_ctor, ma["has_body"],
                m.line, m.end_line, *method_facts(m, field_names),
            ))
    return TypeInfo(
        qname, simple, kind, path, decl.line, decl.end_line,
        None if outer is None else outer.qname, supertype, fields, methods, refs,
    )


def build_model(parsed: Iterable[ParsedFile]) -> PseudoModel:
    """Merge the facts of parsed files into a pseudo-model; order-independent.

    The facts are left unchanged: each type is copied before its nested
    types and its resolved supertype are filled in.
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
            info = replace(info, nested=[])
            if info.outer is not None:
                model.types[info.outer].nested.append(qname)
            model.types[qname] = info
            scope.simple_names.setdefault(info.simple_name, qname)
            model.packages.setdefault(pf.package, []).append(qname)

    for pkg in model.packages.values():
        pkg.sort()

    # Pass 2: inheritance resolution and extends-cycle detection.
    for qname in sorted(model.types):
        info = model.types[qname]
        if info.supertype_raw:
            resolved = model.resolve(info.supertype_raw, info.file)
            if isinstance(resolved, str):
                info.supertype = resolved
                model.subtypes.setdefault(resolved, []).append(qname)
    for lst in model.subtypes.values():
        lst.sort()
    _flag_extends_cycles(model)

    # Pass 3: dependency edges, and the first line at which each file
    # names an ambiguous on-demand import.
    ambiguous: dict = {}  # (file, head) -> (line, candidates)
    for qname in sorted(model.types):
        info = model.types[qname]
        edges = model.deps.setdefault(qname, set())
        for raw, line, internal_only in info.refs:
            resolved, candidates = model._resolve(raw, info.file)
            if candidates:
                key = (info.file, raw.partition(".")[0])
                if key not in ambiguous or line < ambiguous[key][0]:
                    ambiguous[key] = (line, candidates)
            if resolved == qname or (internal_only and not isinstance(resolved, str)):
                continue  # self reference, or an unresolved name that may be a variable
            edges.add(resolved)
    for file, line, head, candidates in sorted(
        (file, line, head, c) for (file, head), (line, c) in ambiguous.items()
    ):
        model.diagnostics.append(
            ModelDiagnostic("ambiguous-import", f"'{head}' matches {', '.join(candidates)}", file, line)
        )

    for src, targets in model.deps.items():
        for tgt in targets:
            if isinstance(tgt, str):
                model.incoming.setdefault(tgt, set()).add(src)
    return model


def _flag_extends_cycles(model: PseudoModel):
    reported: set = set()
    for start in sorted(model.types):
        chain: list = []
        seen: set = set()
        cur = start
        while cur is not None:
            if cur in seen:
                cycle = frozenset(chain[chain.index(cur):])
                if cycle not in reported:
                    reported.add(cycle)
                    info = model.types[cur]
                    model.diagnostics.append(
                        ModelDiagnostic(
                            "extends-cycle",
                            "inheritance cycle: " + " -> ".join(sorted(cycle)),
                            info.file,
                            info.line,
                        )
                    )
                break
            seen.add(cur)
            chain.append(cur)
            cur = model.types[cur].supertype


# ----------------------------------------------------------------------
# convenience used by tests and the pipeline


def parse_source(text: str, path: str = "<memory>.java") -> ParsedFile:
    from .pipeline import parse_file  # the pipeline imports this module

    return parse_file(SourceFile(path, text))


def build_from_sources(sources: dict) -> PseudoModel:
    """Build a model straight from {path: java source text}."""
    return build_model(parse_source(text, path) for path, text in sources.items())
