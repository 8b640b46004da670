"""Recursive-descent parser for a practical Java subset, straight to facts.

Covers packages, imports, type declarations (classes, interfaces, enums,
nested types), fields, methods, constructors, the common statement forms
(if/else, for, enhanced-for, while, do, switch, try/catch/finally, return,
throw, locals, expression statements) and enough of the expression grammar to
see calls, field accesses, object creation, casts, instanceof, the
conditional operator and short-circuit logic. Generic arguments are parsed
and erased to raw names, annotations are parsed and dropped. A lambda's
expression body is parsed and only its names count (for field uses); a block
body is skipped. Anything outside the subset is consumed as an opaque
statement and reported as a diagnostic instead of aborting the file.

Declarations and statements are read by recursive descent. One loop reads
an expression's operands and infix operators and recurses only into
brackets and lambda bodies; one scan to its matching ')' tells whether a
'(' opens a lambda, a cast or a parenthesized expression.

No syntax tree is built. As it parses, the parser fills the file's
``ParsedFile``: every type declaration in preorder (a local class is nested
in its enclosing type) with its fields, its methods, the switches and
instanceof ladders of its methods and constructors, and the raw type names
its body refers to, and on each method what metrics and smells read of its
body. A constructor leaves its sites and references but no method. A
method's own-field uses are resolved when its type closes, since fields may
be declared after the methods. Expressions yield only what a fact
reads of them: the text and last identifier of a switch selector, and
whether an ``if`` condition is an instanceof test and of what.

A syntax error is the lexer's ``ParseError``. One loop,
``recover_until_brace``, reads the items of a file (its package and imports
among them), of a type body, a method body (where a statement that fails
still counts), a block and a switch body, and it alone recovers,
panic-mode: an item that fails to parse is dropped with every fact it added
since the loop's mark, the error is recorded, without its traceback, in the
file's ``diagnostics``, and the loop skips to the next statement boundary.
Field declarators and case labels move the mark past each part they
complete, so those parts stay. Each step consumes at least one token, so a
parse is bounded by the token count.

The parser reads the arrays of ``Tokens`` by index. While it runs, each
ends in an ``eof`` sentinel that is never consumed, so looking ahead needs
no end-of-input test; ``parse`` removes it before it returns or raises, and
raises a ``ParseError``, at the first diagnostic, only when a file with
syntax errors yields no declarations at all, and at 1:1 when the file nests
too deep for the parser's recursion. A column is found only where an error
reports one: the file's first error finds and keeps every token's offset
(``lexer.token_starts``). End of file is reported at the last token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from .lexer import ParseError, SourceFile, Tokens, column, token_starts

PRIMITIVES = frozenset(
    {"boolean", "byte", "short", "char", "int", "long", "float", "double"}
)
# Names that can appear in type position but never refer to a project type.
NON_REF_TYPES = PRIMITIVES | {"void", "var"}

MODIFIER_WORDS = frozenset(
    {
        "public", "protected", "private", "static", "final", "abstract",
        "native", "synchronized", "transient", "volatile", "strictfp",
        "default",
    }
)

# The infix operators besides '?', ':' and instanceof. One looser than
# instanceof, as '?' and ':' are too, moves the line of a later instanceof's
# type and makes the expression no instanceof test; the rest bind at least
# as tight as instanceof.
_LOOSER = frozenset({"||", "&&", "|", "^", "&", "==", "!=", "=", "+=", "-=", "*=", "/=", "%=",
                     "&=", "|=", "^=", "<<=", ">>=", ">>>="})
_TIGHTER = frozenset({"<", ">", "<=", ">=", "<<", ">>", ">>>", "+", "-", "*", "/", "%"})

_PREFIX_OPERATORS = frozenset({"+", "-", "!", "~", "++", "--"})


# ----------------------------------------------------------------------
# facts


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
    """A method, with what the type metrics and the smells read of it; a
    constructor leaves none. cc is 1 + if + for + enhanced-for + while + do
    + case label + catch clause + conditional operator + '&&' + '||'
    outside lambda bodies. Field uses count the own fields it reads or
    writes: a bare name loses to a parameter, local, loop variable or catch
    name of the same name anywhere in the method, and ``this.f`` always
    counts. Field uses include expression-bodied lambdas and local classes.
    The decision points of a local class's methods count in those methods
    alone; those of its initializers count in no method."""

    name: str
    arity: int
    modifiers: frozenset
    visibility: str
    cc: int | None  # cyclomatic complexity; None without a parsed body
    field_uses: int  # own fields read or written
    rejected_body: bool  # the body is empty or only throws


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
    # (method or constructor name, SwitchSite | LadderSite) per site of its
    # methods and constructors, in preorder; a local class's sites sit on
    # the local class, an initializer's on no type.
    hierarchy_sites: list = field(default_factory=list)
    # (raw name, line) per type reference: the supertypes and the field,
    # parameter, return, local, loop variable, creation, cast, instanceof and
    # catch types, and the head name of a qualified call or field access,
    # which may name a variable and then resolves to no project type. Nested
    # types and lambda bodies add nothing here.
    refs: tuple = ()


@dataclass
class ParsedFile:
    """The facts of one parsed file; plain values, no syntax node."""

    path: str
    package: str
    imports: tuple  # (dotted name, on demand) per non-static import
    types: list[TypeInfo]  # every type declaration, in preorder
    diagnostics: list  # the parser's recoverable errors, as ParseErrors with no traceback
    code_lines: tuple  # numbers of the lines that carry code, ascending


def _visibility(modifiers, owner_kind: str) -> str:
    if "public" in modifiers:
        return "public"
    if "protected" in modifiers:
        return "protected"
    if "private" in modifiers:
        return "private"
    if owner_kind == "interface":
        return "public"
    return "package"


class _Method:
    """What the facts read of one method body, gathered as it is parsed.
    A local class's methods and initializers add their names, fields and
    locals to the method around the class, but not their decisions and
    sites."""

    __slots__ = ("decisions", "names", "this_fields", "locals", "sites")

    def __init__(self):
        self.decisions = 0  # decision points outside lambda bodies
        self.names: list = []  # every bare name read or written
        self.this_fields: list = []  # f of every this.f
        self.locals: list = []  # local, loop variable and catch names
        self.sites: list = []  # SwitchSite and LadderSite; None in a slot not filled


class _Parser:
    def __init__(self, tokens: Tokens, source: SourceFile):
        self.arrays = (tokens.kinds, tokens.lexemes, tokens.lines)
        end_line = tokens.lines[-1] if len(tokens) else 1
        for array, end in zip(self.arrays, ("eof", "end of file", end_line)):
            array.append(end)
        self.kind, self.lex, self.line = self.arrays
        self.src = source
        self.starts = None  # each token's offset in the file, found when first asked for
        self.i = 0
        self.diags: list[ParseError] = []
        self.package = ""
        self.imports: list = []
        self.header = "package"  # the header item that may come next: package, import or None
        self.declared = False  # a top-level declaration was parsed
        self.types: list[TypeInfo] = []
        self.type: TypeInfo | None = None  # the innermost open type
        self.refs: list = []  # its references so far
        self.uses: list = []  # its (method, names that count as field uses if fields)
        # The innermost open method's facts; outside methods, a sink no fact reads.
        self.outside = self.acc = _Method()
        self.kept = None  # the fact state the open recovery loop returns to on an error

    # ------------------------------------------------------------------
    # token plumbing; a token is named by its index; self.i stays before eof

    def at(self, lexeme: str, ahead: int = 0) -> bool:
        return self.lex[self.i + ahead] == lexeme

    def accept(self, lexeme: str) -> bool:
        if self.lex[self.i] == lexeme:
            self.i += 1
            return True
        return False

    def expect(self, lexeme: str) -> int:
        i = self.i
        if self.lex[i] != lexeme:
            raise self.error(f"expected '{lexeme}', found '{self.lex[i]}'")
        self.i = i + 1
        return i

    def expect_identifier(self) -> str:
        i = self.i
        if self.kind[i] != "identifier":
            raise self.error(f"expected identifier, found '{self.lex[i]}'")
        self.i = i + 1
        return self.lex[i]

    def start(self, at: int) -> int:
        """Offset of token *at*; end of file's is the last token's. Only a
        file with a token has an error or a modifier to ask for one."""
        if self.starts is None:
            self.starts = token_starts(self.src.content)
            self.starts.append(self.starts[-1])
        return self.starts[at]

    def error(self, message: str, at: int | None = None) -> ParseError:
        at = self.i if at is None else at
        return ParseError(message, self.line[at], column(self.src.content, self.start(at)))

    def diag(self, message: str, at: int | None = None):
        self.diags.append(self.error(message, at))

    def record(self, err: ParseError):
        """Keep a caught *err* as a diagnostic, without its traceback: the
        traceback's frames refer to this parser, so it would be a cycle."""
        self.diags.append(err.with_traceback(None))

    # ------------------------------------------------------------------
    # the fact state a dropped construct returns to

    def mark(self) -> tuple:
        """The fact state to return to when the construct parsed next is
        dropped. Fields and methods need no entry: each is added once
        complete, and stays when the rest of its member fails."""
        acc = self.acc
        return (
            self.type, self.refs, self.uses, len(self.refs), len(self.types), acc,
            acc.decisions, len(acc.names), len(acc.this_fields), len(acc.locals), len(acc.sites),
        )

    def rollback(self, mark: tuple):
        self.type, self.refs, self.uses, refs, types, self.acc = mark[:6]
        decisions, names, this_fields, locals_, sites = mark[6:]
        acc = self.acc
        acc.decisions = decisions
        del self.refs[refs:], self.types[types:]
        del acc.names[names:], acc.this_fields[this_fields:], acc.locals[locals_:], acc.sites[sites:]

    # ------------------------------------------------------------------
    # skipping and recovery

    def skip_statement_like(self):
        """Consume until ';' at depth 0 or a balanced '}' run ends."""
        depth = 0
        while self.kind[self.i] != "eof":
            lex = self.lex[self.i]
            self.i += 1
            if lex == "{":
                depth += 1
            elif lex == "}":
                if depth == 0:
                    self.i -= 1  # belongs to the enclosing block
                    return
                depth -= 1
                if depth == 0:
                    return
            elif lex == ";" and depth == 0:
                return

    def skip_balanced(self, open_: str, close: str, message: str, anchor: int | None):
        """Consume a balanced *open_* ... *close* run starting at *open_*.

        Depth counts every occurrence in a non-literal token, so '>>' closes
        two '<'. Running into the end of input, or into ';' inside '<', which
        no type argument holds, raises *message*, reported at *anchor* or,
        without one, where the run stops.
        """
        start = self.expect(open_)
        depth = 1
        while depth > 0:
            kind, lex = self.kind[self.i], self.lex[self.i]
            if kind == "eof" or lex == ";" and open_ == "<":
                raise self.error(message, anchor)
            self.i += 1
            if kind != "literal":
                depth += lex.count(open_) - lex.count(close)
        if depth < 0:
            raise self.error(f"mismatched '{close}'", start)

    def skip_generics(self):
        self.skip_balanced("<", ">", "unbalanced '<'", self.i)

    def skip_braces(self):
        self.skip_balanced("{", "}", "unbalanced '{'", self.i)

    def skip_dims(self):
        """Skip '[]' pairs, each after any type-use annotations
        (``String @T []``). Annotations before a '[' that opens a dimension
        expression (``new int @T [n]``) are read too; others are left."""
        lex = self.lex
        while True:
            i = self.i
            while lex[self.i] == "@" and self.kind[self.i + 1] == "identifier":
                self.skip_annotation()
            if lex[self.i] != "[":
                self.i = i
                return
            if lex[self.i + 1] != "]":
                return
            self.i += 2

    def recover_until_brace(
        self, parse_one, eof_message: str | None, anchor: int | None = None
    ) -> bool:
        """Call *parse_one* until '}', which it consumes, or end of input.

        The one place that recovers from a syntax error: it drops the facts
        added since ``self.kept``, marked before each item and again by an
        item after each part it keeps, records the error and skips to the
        next statement boundary. Every step consumes at least one token.
        Returns False at end of input, after reporting *eof_message* at
        *anchor*.
        """
        lex, outer = self.lex, self.kept
        while lex[self.i] != "}":
            if self.kind[self.i] == "eof":
                if eof_message:
                    self.diag(eof_message, anchor)
                break
            guard = self.i
            self.kept = self.mark()
            try:
                parse_one()
            except ParseError as err:
                self.rollback(self.kept)
                self.record(err)
                self.skip_statement_like()
            if self.i == guard:
                self.i += 1
        self.kept = outer
        return self.accept("}")

    def skip_annotation(self):
        self.expect("@")
        self.parse_qualified_name()
        if self.at("("):
            self.skip_balanced("(", ")", "unbalanced annotation arguments", None)

    def skip_record(self):
        start = self.i
        self.diag("record declaration skipped", start)
        self.i += 2  # 'record' and the name
        if self.at("<"):
            self.skip_generics()
        self.skip_balanced("(", ")", "unterminated record header", start)
        if self.accept("implements"):
            self.parse_type_list()
        self.skip_braces()

    # ------------------------------------------------------------------
    # shared pieces

    def parse_modifiers(self) -> set[str]:
        mods: set[str] = set()
        lex, kind = self.lex, self.kind
        while True:
            i = self.i
            t = lex[i]
            sealed = t == "sealed" and (kind[i + 1] == "keyword" or lex[i + 1] == "@")
            if t in MODIFIER_WORDS or sealed:
                mods.add(t)
                self.i = i + 1
            elif t == "@" and lex[i + 1] != "interface":
                self.skip_annotation()
            elif t == "non" and lex[i + 1 : i + 3] == ["-", "sealed"] and (
                self.src.content.startswith("non-sealed", self.start(i))  # no gaps
            ):
                self.i = i + 3
                mods.add("non-sealed")
            else:
                return mods

    def parse_qualified_name(self) -> str:
        name = self.expect_identifier()
        while self.lex[self.i] == "." and self.kind[self.i + 1] == "identifier":
            name += "." + self.lex[self.i + 1]
            self.i += 2
        return name

    def parse_type_text(self) -> str:
        """Type reference as written, generics erased, array dims dropped."""
        lex, i = self.lex, self.i
        kind = self.kind[i]
        if kind == "identifier":
            name = self.parse_qualified_name()
        elif kind == "keyword" and lex[i] in NON_REF_TYPES:
            name = lex[i]
            self.i = i + 1
        elif kind == "eof":
            raise self.error("expected type, found end of file")
        else:
            raise self.error(f"expected type, found '{lex[i]}'")
        while lex[self.i] == "<":
            self.skip_generics()
            if lex[self.i] != "." or self.kind[self.i + 1] != "identifier":
                break
            self.i += 1  # Outer<T>.Inner erases to Outer.Inner
            name += "." + self.parse_qualified_name()
        self.skip_dims()
        return name

    def parse_type_list(self, sep: str = ",") -> list[str]:
        names = [self.parse_type_text()]
        while self.accept(sep):
            names.append(self.parse_type_text())
        return names

    def parse_list(self, open_: str, close: str, parse_item, eof_message: str,
                   anchor: int | None = None, sep: str = ","):
        """*open_*, items read by *parse_item* and separated by *sep* (one
        may trail), then *close*. Running into the end of input raises
        *eof_message*, reported at *anchor* or, without one, at the end."""
        self.expect(open_)
        lex = self.lex
        while lex[self.i] != close:
            if self.kind[self.i] == "eof":
                raise self.error(eof_message, anchor)
            parse_item()
            if not self.accept(sep):
                break
        self.expect(close)

    # ------------------------------------------------------------------
    # compilation unit

    def parse_unit(self):
        while self.at("@") and not self.at("interface", 1):
            try:
                self.skip_annotation()
            except ParseError as err:
                self.record(err)
                break
        while self.recover_until_brace(self.parse_top_level, None):
            self.diag("expected type declaration, found '}'", self.i - 1)
            self.header = None

    def parse_top_level(self):
        """The package declaration, first, then import declarations; after
        anything else, a type declaration or ';'."""
        t = self.lex[self.i]
        if t == "import" and self.header or t == "package" and self.header == "package":
            self.header = "import"
            self.i += 1
            if t == "package":
                self.package = self.parse_qualified_name()  # kept when its ';' is missing
                self.expect(";")
                return
            is_static = self.accept("static")
            name = self.parse_qualified_name()
            on_demand = self.at(".") and self.at("*", 1)
            if on_demand:
                self.i += 2
            self.expect(";")
            if not is_static:
                self.imports.append((name, on_demand))
            return
        self.header = None
        if self.accept(";"):
            return
        self.parse_modifiers()
        if not self.parse_declaration():
            raise self.error(f"expected type declaration, found '{self.lex[self.i]}'")
        self.declared = True

    def parse_declaration(self) -> bool:
        """A class, interface, enum, annotation type or record declaration,
        if one starts here; the last two are skipped. A type's modifiers
        are no fact, so they are read before and dropped."""
        lex, i = self.lex, self.i
        if lex[i] in ("class", "interface", "enum"):
            self.parse_type_decl()
        elif lex[i] == "@" and lex[i + 1] == "interface":
            self.skip_annotation_type_decl()
        # 'record' is contextual: only 'record Name (' or 'record Name <' is one.
        elif lex[i] == "record" and self.kind[i + 1] == "identifier" and lex[i + 2] in ("(", "<"):
            self.skip_record()
        else:
            return False
        return True

    def skip_annotation_type_decl(self):
        start = self.expect("@")
        self.expect("interface")
        self.expect_identifier()
        self.diag("annotation type declaration skipped", start)
        if self.at("{"):
            self.skip_braces()

    # ------------------------------------------------------------------
    # type declarations and members

    def parse_type_decl(self):
        kw, line = self.lex[self.i], self.line[self.i]  # class | interface | enum
        self.i += 1
        name = self.expect_identifier()
        supertype, interfaces = None, []
        if self.at("<"):
            self.skip_generics()
        if kw == "class":
            if self.accept("extends"):
                supertype = self.parse_type_text()
            if self.accept("implements"):
                interfaces = self.parse_type_list()
        elif kw == "interface":
            # All extended interfaces are superinterfaces; none is singled
            # out as "the" supertype.
            if self.accept("extends"):
                interfaces = self.parse_type_list()
        else:  # enum
            if self.accept("implements"):
                interfaces = self.parse_type_list()
        if kw != "enum" and self.accept("permits"):
            self.parse_type_list()  # a sealed type's permitted subtypes
        outer, outer_refs, outer_uses, outer_acc = self.type, self.refs, self.uses, self.acc
        if outer is not None:
            qname = f"{outer.qname}.{name}"
        else:
            qname = f"{self.package}.{name}" if self.package else name
        info = TypeInfo(
            qname, name, kw, self.src.path, line, line,
            None if outer is None else outer.qname, supertype,
        )
        self.types.append(info)
        refs = [(raw, line) for raw in [supertype, *interfaces] if raw]
        self.type, self.refs, self.uses = info, refs, []
        if self.acc is not self.outside:  # a local type: its initializers count in no method
            self.acc = _Method()
        if kw == "enum":
            self.parse_enum_body()
        else:
            self.parse_class_body()
        info.end_line = self.line[self.i - 1]  # no token the parser sees spans lines
        fields = {f.name for f in info.fields}
        for method, names in self.uses:
            method.field_uses = len(names & fields)
        info.refs = tuple(r for r in refs if r[0] not in NON_REF_TYPES)
        self.restore_acc(outer_acc)
        self.type, self.refs, self.uses = outer, outer_refs, outer_uses

    def parse_class_body(self):
        self.expect("{")
        self.recover_until_brace(self.parse_member, "unexpected end of file in type body")

    def parse_enum_body(self):
        self.expect("{")
        while not self.at("}") and not self.at(";"):
            if self.kind[self.i] == "eof":
                self.diag("unexpected end of file in enum body")
                return
            while self.at("@"):
                self.skip_annotation()
            constant = self.i
            self.expect_identifier()
            if self.at("("):
                self.parse_list("(", ")", self.parse_expression, "unterminated argument list")
            if self.at("{"):
                self.diag("enum constant body skipped", constant)
                self.skip_braces()
            if not self.accept(","):
                break
        if self.accept(";"):
            self.recover_until_brace(self.parse_member, "unexpected end of file in enum body")
        else:
            self.expect("}")

    def parse_member(self):
        """One member declaration of the open type."""
        if self.accept(";"):
            return
        line = self.line[self.i]
        mods = self.parse_modifiers()
        if self.kind[self.i] == "eof":
            raise self.error("unexpected end of file in type body")
        if self.parse_declaration():
            return
        if self.at("{"):
            return self.parse_block()  # an initializer
        if self.at("<"):
            self.skip_generics()
            if self.kind[self.i] == "eof":
                raise self.error("unexpected end of file after type parameters")

        # Constructor: bare name of the enclosing type followed by '('.
        lex, i = self.lex, self.i
        if lex[i] == self.type.simple_name and self.kind[i] == "identifier" and lex[i + 1] == "(":
            self.i = i + 1
            return self.parse_method(line, mods, None, lex[i])

        type_text = self.parse_type_text()
        name = self.expect_identifier()
        if lex[self.i] == "(":
            return self.parse_method(line, mods, type_text, name)
        self.parse_field_declarators(line, mods, type_text, name)

    def parse_method(self, line, mods, return_type, name):
        """A method at *line*, or a constructor when *return_type* is None.
        A constructor leaves its references, names and sites, but no
        MethodInfo."""
        outer, acc = self.acc, _Method()
        self.acc = acc
        params = self.parse_params()
        self.skip_dims()
        if self.accept("throws"):
            self.parse_type_list()
        leads = None  # the first token of each statement of the body
        if self.at("{"):
            leads, start = [], self.expect("{")
            lead_statement = partial(self.parse_lead_statement, leads)
            self.recover_until_brace(lead_statement, "unexpected end of file in block", start)
        else:
            self.expect(";")
        self.restore_acc(outer)
        self.type.hierarchy_sites += [(name, s) for s in acc.sites if s is not None]
        if return_type is None:
            return
        self.refs.append((return_type, line))
        has_body = leads is not None
        method = MethodInfo(
            name, len(params), frozenset(mods), _visibility(mods, self.type.kind),
            1 + acc.decisions if has_body else None, 0,
            has_body and [lead for lead in leads if lead != ";"] in ([], ["throw"]),
        )
        self.type.methods.append(method)
        shadowed = set(params).union(acc.locals)
        self.uses.append((method, (set(acc.names) - shadowed).union(acc.this_fields)))

    def restore_acc(self, outer: _Method):
        """Make *outer* the open accumulator again. Inside a method, it takes
        the names, fields and locals a local class's method or body gathered."""
        acc, self.acc = self.acc, outer
        if outer is not self.outside:
            outer.names += acc.names
            outer.this_fields += acc.this_fields
            outer.locals += acc.locals

    def parse_params(self) -> list[str]:
        """The parameter names; each type counts as a reference."""
        params: list[str] = []
        param = partial(self.parse_param, params)
        self.parse_list("(", ")", param, "unexpected end of file in parameter list")
        return params

    def parse_param(self, params: list):
        self.parse_modifiers()
        ptype = self.parse_type_text()
        self.accept("...")
        if self.kind[self.i] == "identifier" and self.at(".", 1) and self.at("this", 2):
            self.i += 2  # the qualifier of a receiver parameter
        if not self.accept("this"):  # a receiver parameter is no parameter (JLS 8.4)
            params.append(self.expect_identifier())
            self.skip_dims()
        self.refs.append((ptype, self.line[self.i - 1]))

    def parse_field_declarators(self, line, mods, type_text, name):
        owner = self.type
        visibility = _visibility(mods, owner.kind)
        constant = ("static" in mods and "final" in mods) or owner.kind == "interface"
        while True:
            self.skip_dims()
            if self.accept("="):
                self.parse_variable_init()
            owner.fields.append(FieldInfo(name, visibility, constant))
            self.refs.append((type_text, line))
            self.kept = self.mark()  # a later declarator's error keeps this one
            if not self.accept(","):
                break
            name = self.expect_identifier()
        self.expect(";")

    def parse_variable_init(self):
        """An expression or an array initializer."""
        if self.at("{"):
            init = self.parse_variable_init
            self.parse_list("{", "}", init, "unterminated array initializer", self.i)
        else:
            self.parse_expression()

    # ------------------------------------------------------------------
    # statements

    def parse_block(self):
        """A braced block of statements; ``parse_method`` runs a method body's loop itself."""
        start = self.expect("{")
        self.recover_until_brace(self.parse_statement, "unexpected end of file in block", start)

    def parse_lead_statement(self, leads: list):
        """A statement of a method body; its first token goes to *leads*, even if it fails."""
        leads.append(self.lex[self.i])
        self.parse_statement()

    def parse_statement(self):
        i = self.i
        lex = self.lex[i]
        if lex == "{":
            return self.parse_block()
        if lex == ";":
            self.i = i + 1
            return
        if lex == "if":
            return self.parse_if()
        if lex == "while":
            self.i = i + 1
            self.acc.decisions += 1
            self.parse_parenthesized()
            return self.parse_statement()
        if lex == "do":
            self.i = i + 1
            self.acc.decisions += 1
            self.parse_statement()
            self.expect("while")
            self.parse_parenthesized()
            self.expect(";")
            return
        if lex == "for":
            return self.parse_for()
        if lex == "switch":
            return self.parse_switch()
        if lex == "try":
            return self.parse_try()
        if lex == "return":
            self.i = i + 1
            if self.lex[i + 1] != ";":
                self.parse_expression()
            self.expect(";")
            return
        if lex == "throw":
            self.i = i + 1
            self.parse_expression()
            self.expect(";")
            return
        if lex in ("break", "continue"):
            self.i = i + 1
            if self.kind[i + 1] == "identifier":
                self.i += 1  # label
            self.expect(";")
            return
        if lex == "synchronized":
            self.i = i + 1
            self.parse_parenthesized()
            return self.parse_block()
        if lex == "assert":
            self.i = i + 1
            self.parse_expression()
            if self.accept(":"):
                self.parse_expression()
            self.expect(";")
            return
        kind = self.kind[i]
        if kind == "identifier" and self.lex[i + 1] == ":" and self.lex[i + 2] != ":":
            self.i = i + 2  # label and ':'
            return self.parse_statement()
        if kind == "eof":
            raise self.error("expected statement, found end of file")
        if lex in ("final", "abstract", "static", "strictfp", "@"):
            self.parse_modifiers()
        if self.parse_declaration() or self.try_parse_local_var():
            return
        if self.i != i:  # modifiers were read
            raise self.error("expected declaration after modifiers")
        self.parse_expression()
        self.expect(";")

    def try_head(self, follow: tuple, line: int) -> bool:
        """At '[modifiers] Type name' with a token in *follow* after the
        name: record the local, its type referred to at *line*, step past
        the name and return True. Otherwise consume nothing and return
        False."""
        save = self.i
        try:
            self.parse_modifiers()
            if self.kind[self.i] == "identifier" or self.lex[self.i] in NON_REF_TYPES:
                type_text = self.parse_type_text()
                i = self.i
                if self.kind[i] == "identifier" and self.lex[i + 1] in follow:
                    self.refs.append((type_text, line))
                    self.acc.locals.append(self.lex[i])
                    self.i = i + 1
                    return True
        except ParseError:
            pass
        self.i = save
        return False

    def try_parse_local_var(self) -> bool:
        if not self.try_head(("=", ";", ",", "["), self.line[self.i]):
            return False
        while True:
            self.skip_dims()
            if self.accept("="):
                self.parse_variable_init()
            if not self.accept(","):
                self.expect(";")
                return True
            self.acc.locals.append(self.expect_identifier())

    def parse_if(self):
        """An if statement and the else-if links chained to it. A chain whose
        every condition is an instanceof test leaves a LadderSite in the slot
        that its head reserved, so sites stay in preorder."""
        line = self.line[self.expect("if")]
        acc = self.acc
        slot = len(acc.sites)
        acc.sites.append(None)
        operands = []  # per link: the instanceof operand's text, or None
        while True:
            acc.decisions += 1
            cond = self.parse_parenthesized()
            operands.append(cond if isinstance(cond, str) else None)
            self.parse_statement()
            if not self.accept("else"):
                break
            if not self.accept("if"):
                self.parse_statement()
                break
        if None not in operands:
            shared = operands[0] if len(set(operands)) == 1 else None
            acc.sites[slot] = LadderSite(line, len(operands), shared)

    def parse_for(self):
        line = self.line[self.expect("for")]
        self.expect("(")
        self.acc.decisions += 1
        if self.try_head((":",), line):  # enhanced for: [modifiers] Type name : expr
            self.i += 1  # ':'
            self.parse_expression()
            self.expect(")")
            return self.parse_statement()
        if not self.accept(";") and not self.try_parse_local_var():
            self.parse_expression()
            while self.accept(","):
                self.parse_expression()
            self.expect(";")
        if not self.at(";"):
            self.parse_expression()
        self.expect(";")
        if not self.at(")"):
            self.parse_expression()
            while self.accept(","):
                self.parse_expression()
        self.expect(")")
        self.parse_statement()

    def parse_switch(self):
        """A switch statement; it leaves a SwitchSite in the slot reserved
        at its head, so sites stay in preorder."""
        start = self.expect("switch")
        acc = self.acc
        slot = len(acc.sites)
        acc.sites.append(None)
        selector = self.parse_parenthesized()
        parts, terminal = selector if type(selector) is tuple else (["?"], "")
        self.expect("{")
        labels: list = []
        element = partial(self.parse_switch_element, labels)
        self.recover_until_brace(element, "unexpected end of file in switch", start)
        acc.sites[slot] = SwitchSite(self.line[start], len(labels), terminal, "".join(parts))

    def parse_switch_element(self, labels: list):
        """A statement, or case labels and their tail. Each case label's
        first token goes to *labels*, and the label stays counted when its
        tail fails."""
        if self.accept("default"):
            return self.parse_case_tail()
        if not self.accept("case"):
            return self.parse_statement()
        while True:
            first = self.i
            if self.kind[first] == "identifier" and self.lex[first + 1] == "->":
                self.acc.names.append(self.expect_identifier())  # a name, not a lambda
            else:
                self.parse_expression()
            if self.kind[self.i] == "identifier":  # a pattern's binding
                self.i += 1
            self.acc.decisions += 1
            labels.append(first)
            self.kept = self.mark()
            if not self.accept(","):
                break
        self.parse_case_tail()

    def parse_case_tail(self):
        if not self.accept("->"):
            self.expect(":")
        elif self.lex[self.i] in ("{", "throw"):
            self.parse_statement()
        else:
            self.parse_expression()
            self.expect(";")

    def parse_try(self):
        start = self.expect("try")
        if self.at("("):
            self.parse_list("(", ")", self.parse_resource, "unterminated resource list", start, ";")
        self.parse_block()
        while self.at("catch"):
            line = self.line[self.expect("catch")]
            self.expect("(")
            self.parse_modifiers()
            types = self.parse_type_list("|")
            name = self.expect_identifier()
            self.expect(")")
            self.parse_block()
            self.acc.decisions += 1
            self.acc.locals.append(name)
            self.refs += [(raw, line) for raw in types]
        if self.accept("finally"):
            self.parse_block()

    def parse_resource(self):
        """A resource: a declaration 'Type name = expr' or an expression."""
        if self.try_head(("=",), self.line[self.i]):
            self.i += 1  # '='
        self.parse_expression()

    # ------------------------------------------------------------------
    # expressions

    def parse_expression(self):
        """Operands and infix operators, read by one loop that recurses only
        into brackets and lambda bodies. It yields what a fact may read: an
        instanceof test's text; the text parts and last identifier of a lone
        name, literal, this, super, call, field or array access, as (['a',
        '.b()', '[]'], 'b') with '?' for any other part; None otherwise.

        Precedence decides one thing, kept by two pieces of state: an
        instanceof's type is referred to at the line where its left operand
        starts, after the last looser operator; and the expression is an
        instanceof test only when its last operator is instanceof and no
        looser one precedes it. The test's text is '?' when any operator
        precedes it, else its operand's text."""
        lex = self.lex
        lead = self.i  # where a later instanceof's left operand starts
        value = self.parse_operand()
        looser = False
        conditionals = 0  # '?' read whose ':' is still to come
        while True:
            i = self.i
            t = lex[i]
            if t in _TIGHTER:
                value = None
            elif t == "instanceof":
                self.i = i + 1
                self.parse_modifiers()  # of a pattern: final, annotations
                ty = self.parse_type_text()
                if self.kind[self.i] == "identifier":  # pattern binding
                    self.i += 1
                self.refs.append((ty, self.line[lead]))
                if not looser:
                    value = "".join(value[0]) if type(value) is tuple else "?"
                continue
            else:
                if t == "?":
                    conditionals += 1
                elif t not in _LOOSER:
                    if not conditionals:
                        return value
                    self.expect(":")  # of the innermost '?'
                    conditionals -= 1
                if t == "?" or t == "&&" or t == "||":
                    self.acc.decisions += 1
                looser, value, lead = True, None, i + 1
            self.i = i + 1
            self.parse_operand()

    def parse_parenthesized(self):
        """'(' expression ')'; returns what the expression yields."""
        self.expect("(")
        value = self.parse_expression()
        self.expect(")")
        return value

    def parse_operand(self):
        """Prefix operators and casts, read by a loop, then a primary and its
        postfix chain. A prefix operator leaves nothing a fact reads; a cast
        leaves its operand, unless that is an instanceof test."""
        lex, kind = self.lex, self.kind
        prefixed = cast = False
        while True:
            lead = self.i
            t = lex[lead]
            if t in _PREFIX_OPERATORS:
                self.i = lead + 1
                prefixed = True
                continue
            paren = self.classify_parenthesis() if t == "(" else ""
            if paren != "cast":
                break
            self.i = lead + 1
            types = self.parse_type_list("&")
            self.expect(")")
            self.refs += [(ty, self.line[lead]) for ty in types]
            cast = True
        parts, last = ["?"], ""  # the text parts and the last identifier
        test = None  # an instanceof test's text, while it is the whole operand
        head = this = False  # an unparenthesized name or this, not yet extended
        k = kind[lead]
        if (k == "identifier" and lex[lead + 1] == "->") or paren == "lambda":
            self.parse_lambda()
        elif (k == "identifier" or t == "this" or t == "super") and lex[lead + 1] == "(":
            self.i = lead + 1
            self.parse_list("(", ")", self.parse_expression, "unterminated argument list")
            parts, last = [t + "()"], t
        elif k == "identifier":
            self.i = lead + 1
            self.acc.names.append(t)
            parts, last, head = [t], t, True
        elif k == "literal" or t == "this" or t == "super":
            self.i = lead + 1
            parts, this = [t], t == "this"
        elif t == "(":
            self.i = lead + 1
            inner = self.parse_expression()  # not parse_parenthesized: a frame less per '('
            self.expect(")")
            if type(inner) is tuple:
                parts, last = inner
            else:
                test = inner
        elif t == "new":
            self.i = lead + 1
            self.parse_creation(lead, self.line[lead])
        elif t == "switch":
            # Switch expressions are outside the subset; consume opaquely.
            self.diag("switch expression consumed opaquely", lead)
            self.i = lead + 1
            self.skip_balanced("(", ")", "unterminated switch expression", lead)
            if self.at("{"):
                self.skip_braces()
        elif k == "keyword" and t in NON_REF_TYPES:
            self.i = lead + 1
            self.skip_dims()
            if not self.at("::"):  # int[]::new is left to the postfix loop
                self.expect(".")
                self.expect("class")
        elif k == "eof":
            raise self.error("expected expression, found end of file")
        elif t == "<" and self.skip_constructor_type_arguments():
            t = lex[self.i]  # this or super
            self.i += 1
            self.parse_list("(", ")", self.parse_expression, "unterminated argument list")
            parts, last = [t + "()"], t
        else:
            raise self.error(f"unexpected token '{t}' in expression")
        while True:
            i = self.i
            t = lex[i]
            if t == ".":
                self.i = i + 1
                if lex[i + 1] == "<":
                    self.skip_generics()
                n = self.i
                member = lex[n]
                if kind[n] == "eof":
                    raise self.error("expected member name after '.'", i)
                if member in ("class", "this", "new", "super"):
                    self.i = n + 1
                    if member == "new":
                        self.parse_creation(n, self.line[lead])
                    elif member == "super" and lex[n + 1] == "(":  # outer.super(args)
                        self.parse_list("(", ")", self.parse_expression, "unterminated argument list")
                    # X.this and X.super read as this and super.
                    parts, last = (["?"] if member in ("class", "new") else [member]), ""
                    this = member == "this"
                else:
                    name = self.expect_identifier()
                    if head:
                        self.refs.append((lex[lead], self.line[lead]))
                    if lex[self.i] == "(":
                        self.parse_list("(", ")", self.parse_expression, "unterminated argument list")
                        parts.append(f".{name}()")
                    else:
                        if this:
                            self.acc.this_fields.append(name)
                        parts.append("." + name)
                    last, this = name, False
            elif t == "[":
                self.i = i + 1
                if lex[i + 1] != "]":
                    self.parse_expression()
                self.expect("]")
                parts.append("[]")
                this = False
            elif t == "::":
                self.i = i + 1
                if lex[i + 1] == "<":
                    self.skip_generics()
                if kind[self.i] == "eof":
                    raise self.error("expected name after '::'", i)
                self.i += 1
                parts, last, this = ["?"], "", False
            elif t == "++" or t == "--":
                self.i = i + 1
                parts, last, this = ["?"], "", False
            else:
                break
            head, test = False, None
        if prefixed or (cast and test is not None):
            return None
        return (parts, last) if test is None else test

    def skip_constructor_type_arguments(self) -> bool:
        """At the type arguments of an explicit constructor invocation,
        ``<T>this(args)`` or ``<T>super(args)``: step past them and return
        True. Otherwise consume nothing and return False."""
        start = self.i
        try:
            self.skip_generics()
            if self.lex[self.i] in ("this", "super") and self.lex[self.i + 1] == "(":
                return True
        except ParseError:
            pass
        self.i = start
        return False

    def classify_parenthesis(self) -> str:
        """Classify the '(' at the cursor by one scan to its matching ')':
        'lambda' when '->' follows it and no brace sits inside; 'cast' when
        the angle brackets inside balance and an operand follows; '' for
        anything else. The scan stops at ';', at the end of input and at a
        brace directly inside the parenthesis; a brace deeper in, as in an
        annotation argument, does not stop it."""
        lex, kind = self.lex, self.kind
        j = start = self.i
        depth = angles = 0
        braced = False
        while True:
            j += 1
            t = lex[j]
            if t == ")":
                if depth == 0:
                    break
                depth -= 1
            elif t == "(":
                depth += 1
            elif t == ";" or kind[j] == "eof" or (depth == 0 and (t == "{" or t == "}")):
                return ""
            elif t == "{" or t == "}":
                braced = True
            elif kind[j] != "literal" and ("<" in t or ">" in t):
                angles += t.count("<") - t.count(">")
        nxt = lex[j + 1]
        if nxt == "->":
            return "" if braced else "lambda"
        starts_operand = (
            kind[j + 1] in ("identifier", "literal")
            or nxt in ("(", "this", "super", "new", "!", "~")
            or (lex[start + 1] in PRIMITIVES and nxt in ("+", "-", "++", "--"))
        )
        return "cast" if angles == 0 and starts_operand else ""

    def parse_lambda(self):
        if self.at("("):
            self.skip_balanced("(", ")", "unterminated lambda parameters", None)
        else:
            self.expect_identifier()
        self.expect("->")
        if self.at("{"):
            self.skip_braces()
        else:
            # Only the body's names count. On an error, the enclosing
            # construct's rollback restores what this cuts back.
            refs, decisions = len(self.refs), self.acc.decisions
            self.parse_expression()
            del self.refs[refs:]
            self.acc.decisions = decisions

    def parse_creation(self, new: int, line: int):
        """A creation at token *new*; its type is referred to at *line*,
        where the expression starts ('x.new T()' starts at x)."""
        ty = self.parse_type_text()
        self.refs.append((ty, line))
        dims = self.at("[")  # 'new T[] { ... }' leaves its empty dims to the type
        while self.accept("["):
            if not self.at("]"):
                self.parse_expression()
            self.expect("]")
            self.skip_dims()
        if self.at("{"):
            self.parse_variable_init()
        elif not dims:
            self.parse_list("(", ")", self.parse_expression, "unterminated argument list")
            if self.at("{"):
                self.diag("anonymous class body skipped", new)
                self.skip_braces()


def parse(tokens: Tokens, source: SourceFile) -> ParsedFile:
    """Parse the code tokens of *source*, ``tokenize(source)``, into its
    facts and code lines.

    Recovered errors are listed in the result's ``diagnostics``. When
    none of the file's declarations could be salvaged, a ParseError is
    raised instead, a fresh one with the first diagnostic's fields: a
    raised diagnostic would keep a traceback that refers back to it.
    """
    p = _Parser(tokens, source)
    try:
        p.parse_unit()
    except RecursionError:
        raise ParseError("nesting too deep to parse", 1, 1) from None
    finally:
        for array in p.arrays:
            array.pop()
    if p.diags and not p.declared:
        first = p.diags[0]
        raise ParseError(first.message, first.line, first.col)
    code_lines = tuple(dict.fromkeys(tokens.lines))  # tokens come in line order
    return ParsedFile(source.path, p.package, tuple(p.imports), p.types, p.diags, code_lines)
