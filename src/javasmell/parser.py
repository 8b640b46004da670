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

A syntax error is the lexer's ``ParseError``. Recovery is panic-mode at the
member and statement level: the parser always consumes at least one token
per recovery step, so a parse is bounded by the token count. A construct
that fails to parse is dropped with every fact it added, except the field
declarators and case labels already complete before the error, and the
error is recorded, without its traceback, in the file's ``diagnostics``.
The token list ends in an ``eof`` sentinel that is never consumed, so
looking ahead needs no end-of-input test. ``parse`` raises a
``ParseError``, at the first diagnostic, only when a file with syntax
errors yields no declarations at all, and at 1:1 when the file nests too
deep for the parser's recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from .lexer import ParseError, SourceFile, Token

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

# Infix operator -> precedence level, loosest first: assignment (-2), the
# conditional's '?' (-1), then the binary operators from 0. instanceof sits
# at the relational level; its right side is a type, not an operand.
_LEVEL = {
    op: level
    for level, ops in enumerate(
        (
            ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="),
            ("?",),
            ("||",),
            ("&&",),
            ("|",),
            ("^",),
            ("&",),
            ("==", "!="),
            ("<", ">", "<=", ">=", "instanceof"),
            ("<<", ">>", ">>>"),
            ("+", "-"),
            ("*", "/", "%"),
        ),
        start=-2,
    )
    for op in ops
}


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


# An expression yields what a fact may read of it: a Token for a name,
# literal, this or super; a _Chain for a call, field access or array access;
# a str for an instanceof test, holding its operand's text; None otherwise.


class _Chain:
    """Text and last identifier of a postfix chain, built link by link, so a
    long chain costs no recursion."""

    __slots__ = ("parts", "terminal")

    def __init__(self, text: str, terminal: str = ""):
        self.parts = [text]
        self.terminal = terminal


def _render(value) -> str:
    """Canonical, whitespace-free text of a simple expression: parentheses
    and casts are transparent, call arguments and indexes are dropped."""
    if isinstance(value, Token):
        return value.lexeme
    if isinstance(value, _Chain):
        return "".join(value.parts)
    return "?"


def _terminal(value) -> str:
    """Last identifier of an expression: x.getKind() -> getKind."""
    if isinstance(value, Token):
        return value.lexeme if value.kind == "identifier" else ""
    if isinstance(value, _Chain):
        return value.terminal
    return ""


def _link(value, part: str, terminal: str) -> _Chain:
    """*value* extended by one link ('.f', '.m()' or '[]'). An expression
    has one reader, so a chain grows in place."""
    if not isinstance(value, _Chain):
        value = _Chain(_render(value))
    value.parts.append(part)
    value.terminal = terminal
    return value


class _Parser:
    def __init__(self, tokens: list[Token], source: SourceFile):
        line, col = (tokens[-1].line, tokens[-1].col) if tokens else (1, 1)
        self.eof = Token("eof", "end of file", line, col)
        self.toks = tokens + [self.eof]
        self.src = source
        self.i = 0
        self.diags: list[ParseError] = []
        self.package = ""
        self.imports: list = []
        self.declared = False  # a top-level declaration was parsed
        self.types: list[TypeInfo] = []
        self.type: TypeInfo | None = None  # the innermost open type
        self.refs: list = []  # its references so far
        self.uses: list = []  # its (method, names that count as field uses if fields)
        # The innermost open method's facts; outside methods, a sink no fact reads.
        self.outside = self.acc = _Method()

    # ------------------------------------------------------------------
    # token plumbing; self.i never moves past the eof sentinel

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.i + ahead]

    def at(self, lexeme: str, ahead: int = 0) -> bool:
        return self.toks[self.i + ahead].lexeme == lexeme

    def at_kind(self, kind: str, ahead: int = 0) -> bool:
        return self.toks[self.i + ahead].kind == kind

    def advance(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def accept(self, lexeme: str) -> Token | None:
        t = self.toks[self.i]
        if t.lexeme == lexeme:
            self.i += 1
            return t
        return None

    def expect(self, lexeme: str) -> Token:
        t = self.toks[self.i]
        if t.lexeme != lexeme:
            raise ParseError(f"expected '{lexeme}', found '{t.lexeme}'", t.line, t.col)
        self.i += 1
        return t

    def expect_identifier(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "identifier":
            raise ParseError(f"expected identifier, found '{t.lexeme}'", t.line, t.col)
        self.i += 1
        return t

    def end_line(self) -> int:
        """The line of the last consumed token; no token the parser sees
        spans lines."""
        return self.toks[self.i - 1].line

    def diag(self, message: str, tok: Token | None = None):
        tok = tok or self.toks[self.i]
        self.diags.append(ParseError(message, tok.line, tok.col))

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
        while self.peek() is not self.eof:
            lex = self.advance().lexeme
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

    def skip_balanced(self, open_: str, close: str, message: str, anchor: Token | None):
        """Consume a balanced *open_* ... *close* run starting at *open_*.

        Depth counts every occurrence in a non-literal token, so '>>' closes
        two '<'. Running into the end of input raises *message*, reported at
        *anchor* or, without one, at the end.
        """
        open_tok = self.expect(open_)
        depth = 1
        while depth > 0:
            t = self.toks[self.i]
            if t is self.eof:
                t = anchor or t
                raise ParseError(message, t.line, t.col)
            self.i += 1
            if t.kind != "literal":
                depth += t.lexeme.count(open_) - t.lexeme.count(close)
        if depth < 0:
            raise ParseError(f"mismatched '{close}'", open_tok.line, open_tok.col)

    def skip_generics(self):
        self.skip_balanced("<", ">", "unbalanced '<'", self.peek())

    def skip_braces(self):
        self.skip_balanced("{", "}", "unbalanced '{'", self.peek())

    def skip_dims(self):
        while self.at("[") and self.at("]", 1):
            self.i += 2

    def recover_until_brace(
        self, parse_one, eof_message: str | None, anchor: Token | None = None
    ) -> bool:
        """Call *parse_one* until '}' (left unconsumed) or end of input.

        A syntax error is recovered from (see ``recover``) at the state
        before the construct; every step consumes at least one token.
        Returns False at end of input, after reporting *eof_message* at
        *anchor*.
        """
        while not self.at("}"):
            if self.peek() is self.eof:
                if eof_message:
                    self.diag(eof_message, anchor)
                return False
            guard = self.i
            mark = self.mark()
            try:
                parse_one()
            except ParseError as err:
                self.recover(err, mark)
            if self.i == guard:
                self.advance()
        return True

    def recover(self, err: ParseError, mark: tuple):
        """Drop the facts added since *mark*, record *err* and skip to the
        next statement boundary."""
        self.rollback(mark)
        self.record(err)
        self.skip_statement_like()

    def skip_annotation(self):
        self.expect("@")
        self.parse_qualified_name()
        if self.at("("):
            self.skip_balanced("(", ")", "unbalanced annotation arguments", None)

    def skip_record(self):
        tok = self.advance()
        self.diag("record declaration skipped", tok)
        self.advance()  # name
        if self.at("<"):
            self.skip_generics()
        self.skip_balanced("(", ")", "unterminated record header", tok)
        if self.accept("implements"):
            self.parse_type_list()
        self.skip_braces()

    # ------------------------------------------------------------------
    # shared pieces

    def parse_modifiers(self) -> set[str]:
        mods: set[str] = set()
        while True:
            t = self.peek()
            if t.lexeme == "@" and not self.at("interface", 1):
                self.skip_annotation()
            elif t.kind == "keyword" and t.lexeme in MODIFIER_WORDS:
                mods.add(self.advance().lexeme)
            elif t.lexeme == "sealed" and (self.at_kind("keyword", 1) or self.at("@", 1)):
                mods.add(self.advance().lexeme)
            elif self.at_non_sealed():
                self.i += 3
                mods.add("non-sealed")
            else:
                return mods

    def at_non_sealed(self) -> bool:
        """At 'non-sealed', which lexes as 'non', '-', 'sealed' with no gaps."""
        if not (self.at("non") and self.at("-", 1) and self.at("sealed", 2)):
            return False
        non, minus, sealed = self.toks[self.i : self.i + 3]
        return non.line == sealed.line and non.col + 3 == minus.col == sealed.col - 1

    def parse_qualified_name(self) -> str:
        parts = [self.expect_identifier().lexeme]
        while self.at(".") and self.at_kind("identifier", 1):
            self.advance()
            parts.append(self.advance().lexeme)
        return ".".join(parts)

    def parse_type_text(self) -> str:
        """Type reference as written, generics erased, array dims dropped."""
        t = self.peek()
        if t.kind == "keyword" and t.lexeme in NON_REF_TYPES:
            name = self.advance().lexeme
        elif t.kind == "identifier":
            name = self.parse_qualified_name()
        elif t is self.eof:
            raise ParseError("expected type, found end of file", t.line, t.col)
        else:
            raise ParseError(f"expected type, found '{t.lexeme}'", t.line, t.col)
        if self.at("<"):
            self.skip_generics()
        self.skip_dims()
        return name

    def parse_type_list(self) -> list[str]:
        names = [self.parse_type_text()]
        while self.accept(","):
            names.append(self.parse_type_text())
        return names

    def parse_list(self, open_: str, close: str, parse_item, eof_message: str,
                   anchor: Token | None = None, sep: str = ","):
        """*open_*, items read by *parse_item* and separated by *sep* (one
        may trail), then *close*. Running into the end of input raises
        *eof_message*, reported at *anchor* or, without one, at the end."""
        self.expect(open_)
        while not self.at(close):
            if self.peek() is self.eof:
                t = anchor or self.eof
                raise ParseError(eof_message, t.line, t.col)
            parse_item()
            if not self.accept(sep):
                break
        self.expect(close)

    # ------------------------------------------------------------------
    # compilation unit

    def parse_unit(self):
        if self.peek() is self.eof:
            return
        while self.at("@") and not self.at("interface", 1):
            try:
                self.skip_annotation()
            except ParseError as err:
                self.record(err)
                break
        if self.accept("package"):
            try:
                self.package = self.parse_qualified_name()
                self.expect(";")
            except ParseError as err:
                self.record(err)
                self.skip_statement_like()
        while self.accept("import"):
            try:
                is_static = self.accept("static") is not None
                name = self.parse_qualified_name()
                on_demand = False
                if self.at(".") and self.at("*", 1):
                    self.i += 2
                    on_demand = True
                self.expect(";")
                if not is_static:
                    self.imports.append((name, on_demand))
            except ParseError as err:
                self.record(err)
                self.skip_statement_like()

        while self.recover_until_brace(self.parse_top_level, None):
            self.diag("expected type declaration, found '}'")
            self.advance()

    def parse_top_level(self):
        if self.accept(";"):
            return
        self.parse_modifiers()
        if not self.parse_declaration():
            t = self.peek()
            raise ParseError(f"expected type declaration, found '{t.lexeme}'", t.line, t.col)
        self.declared = True

    def parse_declaration(self) -> bool:
        """A class, interface, enum, annotation type or record declaration,
        if one starts here; the last two are skipped. A type's modifiers
        are no fact, so they are read before and dropped."""
        lex = self.toks[self.i].lexeme
        if lex in ("class", "interface", "enum"):
            self.parse_type_decl()
        elif lex == "@" and self.at("interface", 1):
            self.skip_annotation_type_decl()
        # 'record' is contextual: only 'record Name (' or 'record Name <' is one.
        elif lex == "record" and self.at_kind("identifier", 1) and self.peek(2).lexeme in ("(", "<"):
            self.skip_record()
        else:
            return False
        return True

    def skip_annotation_type_decl(self):
        tok = self.expect("@")
        self.expect("interface")
        self.expect_identifier()
        self.diag("annotation type declaration skipped", tok)
        if self.at("{"):
            self.skip_braces()

    # ------------------------------------------------------------------
    # type declarations and members

    def parse_type_decl(self):
        kw = self.advance()  # class | interface | enum
        name = self.expect_identifier().lexeme
        supertype, interfaces = None, []
        if self.at("<"):
            self.skip_generics()
        if kw.lexeme == "class":
            if self.accept("extends"):
                supertype = self.parse_type_text()
            if self.accept("implements"):
                interfaces = self.parse_type_list()
        elif kw.lexeme == "interface":
            # All extended interfaces are superinterfaces; none is singled
            # out as "the" supertype.
            if self.accept("extends"):
                interfaces = self.parse_type_list()
        else:  # enum
            if self.accept("implements"):
                interfaces = self.parse_type_list()
        if kw.lexeme != "enum" and self.accept("permits"):
            self.parse_type_list()  # a sealed type's permitted subtypes
        outer, outer_refs, outer_uses, outer_acc = self.type, self.refs, self.uses, self.acc
        if outer is not None:
            qname = f"{outer.qname}.{name}"
        else:
            qname = f"{self.package}.{name}" if self.package else name
        info = TypeInfo(
            qname, name, kw.lexeme, self.src.path, kw.line, kw.line,
            None if outer is None else outer.qname, supertype,
        )
        self.types.append(info)
        refs = [(raw, kw.line) for raw in [supertype, *interfaces] if raw]
        self.type, self.refs, self.uses = info, refs, []
        if self.acc is not self.outside:  # a local type: its initializers count in no method
            self.acc = _Method()
        if kw.lexeme == "enum":
            self.parse_enum_body()
        else:
            self.parse_class_body()
        info.end_line = self.end_line()
        fields = {f.name for f in info.fields}
        for method, names in self.uses:
            method.field_uses = len(names & fields)
        info.refs = tuple(r for r in refs if r[0] not in NON_REF_TYPES)
        self.restore_acc(outer_acc)
        self.type, self.refs, self.uses = outer, outer_refs, outer_uses

    def parse_class_body(self):
        self.expect("{")
        if self.recover_until_brace(self.parse_member, "unexpected end of file in type body"):
            self.advance()

    def parse_enum_body(self):
        self.expect("{")
        while not self.at("}") and not self.at(";"):
            if self.peek() is self.eof:
                self.diag("unexpected end of file in enum body")
                return
            while self.at("@"):
                self.skip_annotation()
            ctok = self.expect_identifier()
            if self.at("("):
                self.parse_list("(", ")", self.parse_expression, "unterminated argument list")
            if self.at("{"):
                self.diag("enum constant body skipped", ctok)
                self.skip_braces()
            if not self.accept(","):
                break
        if self.accept(";") and not self.recover_until_brace(
            self.parse_member, "unexpected end of file in enum body"
        ):
            return
        self.expect("}")

    def parse_member(self):
        """One member declaration of the open type."""
        if self.accept(";"):
            return
        start_tok = self.peek()
        mods = self.parse_modifiers()
        t = self.peek()
        if t is self.eof:
            raise ParseError("unexpected end of file in type body", t.line, t.col)
        if self.parse_declaration():
            return
        if t.lexeme == "{":
            return self.parse_block()  # an initializer
        if t.lexeme == "<":
            self.skip_generics()
            t = self.peek()
            if t is self.eof:
                raise ParseError("unexpected end of file after type parameters", t.line, t.col)

        # Constructor: bare name of the enclosing type followed by '('.
        if t.kind == "identifier" and t.lexeme == self.type.simple_name and self.at("(", 1):
            self.advance()
            return self.parse_method(start_tok, mods, None, t.lexeme)

        type_text = self.parse_type_text()
        name_tok = self.expect_identifier()
        if self.at("("):
            return self.parse_method(start_tok, mods, type_text, name_tok.lexeme)
        self.parse_field_declarators(start_tok, mods, type_text, name_tok)

    def parse_method(self, start_tok, mods, return_type, name):
        """A method, or a constructor when *return_type* is None. A
        constructor leaves its references, names and sites, but no
        MethodInfo."""
        outer, acc = self.acc, _Method()
        self.acc = acc
        params = self.parse_params()
        self.skip_dims()
        if self.accept("throws"):
            self.parse_type_list()
        leads = None  # the first token of each statement of the body
        if self.at("{"):
            leads = []
            self.parse_block(partial(self.parse_lead_statement, leads))
        else:
            self.expect(";")
        self.restore_acc(outer)
        self.type.hierarchy_sites += [(name, s) for s in acc.sites if s is not None]
        if return_type is None:
            return
        self.refs.append((return_type, start_tok.line))
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
        # Receiver parameters ("this") and lambda-ish noise are not
        # expected here; a plain identifier is.
        pname = self.expect_identifier().lexeme
        self.skip_dims()
        self.refs.append((ptype, self.end_line()))
        params.append(pname)

    def parse_field_declarators(self, start_tok, mods, type_text, name_tok):
        owner = self.type
        visibility = _visibility(mods, owner.kind)
        constant = ("static" in mods and "final" in mods) or owner.kind == "interface"
        kept = None
        try:
            while True:
                self.skip_dims()
                if self.accept("="):
                    self.parse_variable_init()
                owner.fields.append(FieldInfo(name_tok.lexeme, visibility, constant))
                self.refs.append((type_text, start_tok.line))
                kept = self.mark()  # a later declarator's error keeps this one
                if not self.accept(","):
                    break
                name_tok = self.expect_identifier()
            self.expect(";")
        except ParseError as err:
            if kept is None:
                raise
            self.recover(err, kept)

    def parse_variable_init(self):
        """An expression or an array initializer."""
        if self.at("{"):
            init = self.parse_variable_init
            self.parse_list("{", "}", init, "unterminated array initializer", self.peek())
        else:
            self.parse_expression()

    # ------------------------------------------------------------------
    # statements

    def parse_block(self, parse_one=None):
        open_tok = self.expect("{")
        if self.recover_until_brace(
            parse_one or self.parse_statement, "unexpected end of file in block", open_tok
        ):
            self.advance()

    def parse_lead_statement(self, leads: list):
        """A statement of a method body; its first token goes to *leads*."""
        lead = self.peek().lexeme
        self.parse_statement()
        leads.append(lead)

    def parse_statement(self):
        t = self.peek()
        lex = t.lexeme
        if lex == "{":
            return self.parse_block()
        if lex == ";":
            self.advance()
            return
        if lex == "if":
            return self.parse_if()
        if lex == "while":
            self.advance()
            self.acc.decisions += 1
            self.parse_parenthesized()
            return self.parse_statement()
        if lex == "do":
            self.advance()
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
            self.advance()
            if not self.at(";"):
                self.parse_expression()
            self.expect(";")
            return
        if lex == "throw":
            self.advance()
            self.parse_expression()
            self.expect(";")
            return
        if lex in ("break", "continue"):
            self.advance()
            if self.at_kind("identifier"):
                self.advance()  # label
            self.expect(";")
            return
        if lex == "synchronized":
            self.advance()
            self.parse_parenthesized()
            return self.parse_block()
        if lex == "assert":
            self.advance()
            self.parse_expression()
            if self.accept(":"):
                self.parse_expression()
            self.expect(";")
            return
        if lex in ("final", "abstract", "static", "strictfp", "@"):
            self.parse_modifiers()
            if self.parse_declaration() or self.try_parse_local_var():
                return
            t = self.peek()
            raise ParseError("expected declaration after modifiers", t.line, t.col)
        if t.kind == "identifier" and self.at(":", 1) and not self.at(":", 2):
            self.i += 2  # label and ':'
            return self.parse_statement()
        if self.parse_declaration():
            return
        if t is self.eof:
            raise ParseError("expected statement, found end of file", t.line, t.col)
        if self.try_parse_local_var():
            return
        self.parse_expression()
        self.expect(";")

    def try_head(self, follow: tuple) -> str | None:
        """At '[modifiers] Type name' with a token in *follow* after the
        name: consume what comes before the name and return the type.
        Otherwise consume nothing and return None."""
        save = self.i
        try:
            self.parse_modifiers()
            type_text = self.parse_type_text()
            if self.at_kind("identifier") and self.peek(1).lexeme in follow:
                return type_text
        except ParseError:
            pass
        self.i = save
        return None

    def try_parse_local_var(self) -> bool:
        start = self.peek()
        type_text = self.try_head(("=", ";", ",", "["))
        if type_text is None:
            return False
        self.refs.append((type_text, start.line))
        while True:
            self.acc.locals.append(self.expect_identifier().lexeme)
            self.skip_dims()
            if self.accept("="):
                self.parse_variable_init()
            if not self.accept(","):
                self.expect(";")
                return True

    def parse_if(self):
        """An if statement and the else-if links chained to it. A chain whose
        every condition is an instanceof test leaves a LadderSite in the slot
        that its head reserved, so sites stay in preorder."""
        tok = self.expect("if")
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
            acc.sites[slot] = LadderSite(tok.line, len(operands), shared)

    def parse_for(self):
        tok = self.expect("for")
        self.expect("(")
        self.acc.decisions += 1
        vtype = self.try_head((":",))  # enhanced for: [modifiers] Type name : expr
        if vtype is not None:
            self.acc.locals.append(self.advance().lexeme)
            self.advance()
            self.refs.append((vtype, tok.line))
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
        tok = self.expect("switch")
        acc = self.acc
        slot = len(acc.sites)
        acc.sites.append(None)
        selector = self.parse_parenthesized()
        terminal, text = _terminal(selector), _render(selector)
        self.expect("{")
        labels: list = []
        element = partial(self.parse_switch_element, labels)
        self.recover_until_brace(element, "unexpected end of file in switch", tok)
        self.accept("}")
        acc.sites[slot] = SwitchSite(tok.line, len(labels), terminal, text)

    def parse_switch_element(self, labels: list):
        """A statement, or case labels and their tail. Each case label's
        first token goes to *labels*, and the label stays counted when its
        tail fails."""
        if not (self.at("case") or self.at("default")):
            return self.parse_statement()
        kept = None
        try:
            if self.accept("case"):
                while True:
                    first = self.peek()
                    # No ternary here (':' closes the label); pattern labels
                    # tolerate a trailing binding identifier.
                    self.parse_expression(0)
                    if self.at_kind("identifier"):
                        self.advance()
                    self.acc.decisions += 1
                    labels.append(first)
                    kept = self.mark()
                    if not self.accept(","):
                        break
            else:
                self.advance()
            self.parse_case_tail()
        except ParseError as err:
            if kept is None:
                raise
            self.recover(err, kept)

    def parse_case_tail(self):
        if self.accept("->"):
            if self.at("{"):
                self.parse_block()
            elif self.at("throw"):
                self.parse_statement()
            else:
                self.parse_expression()
                self.expect(";")
        else:
            self.expect(":")

    def parse_try(self):
        tok = self.expect("try")
        if self.at("("):
            self.parse_list("(", ")", self.parse_resource, "unterminated resource list", tok, ";")
        self.parse_block()
        while self.at("catch"):
            ctok = self.advance()
            self.expect("(")
            self.parse_modifiers()
            types = [self.parse_type_text()]
            while self.accept("|"):
                types.append(self.parse_type_text())
            name = self.expect_identifier().lexeme
            self.expect(")")
            self.parse_block()
            self.acc.decisions += 1
            self.acc.locals.append(name)
            self.refs += [(raw, ctok.line) for raw in types]
        if self.accept("finally"):
            self.parse_block()

    def parse_resource(self):
        """A resource: a declaration 'Type name = expr' or an expression."""
        start = self.peek()
        rtype = self.try_head(("=",))
        if rtype is not None:
            self.refs.append((rtype, start.line))
            self.acc.locals.append(self.advance().lexeme)
            self.advance()  # =
        self.parse_expression()

    # ------------------------------------------------------------------
    # expressions; each returns what a fact may read of it (see _Chain)

    def parse_expression(self, min_level: int = -2):
        """Precedence climbing (Pratt 1973) over the operators of _LEVEL that
        bind at *min_level* or tighter; the default takes them all."""
        lead = self.peek()
        left = self.parse_operand()
        while True:
            t = self.peek()
            level = _LEVEL.get(t.lexeme, -3)
            if level < min_level:
                return left
            self.advance()
            if level == -2:  # assignment
                self.parse_expression()
            elif level == -1:  # the conditional
                self.parse_expression()
                self.expect(":")
                self.parse_expression(-1)
                self.acc.decisions += 1
            elif t.lexeme == "instanceof":
                self.parse_modifiers()  # of a pattern: final, annotations
                ty = self.parse_type_text()
                if self.at_kind("identifier"):  # pattern binding
                    self.advance()
                self.refs.append((ty, lead.line))
                left = _render(left)
                continue
            else:
                self.parse_expression(level + 1)
                if t.lexeme in ("&&", "||"):
                    self.acc.decisions += 1
            left = None

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
        prefixed = cast = False
        while True:
            t = self.peek()
            if t.kind == "operator" and t.lexeme in ("+", "-", "!", "~", "++", "--"):
                self.advance()
                prefixed = True
                continue
            types = self.skip_cast() if t.lexeme == "(" else None
            if types is None:
                break
            self.refs += [(ty, t.line) for ty in types]
            cast = True
        lead = self.peek()
        value = self.parse_primary()
        head = None  # an unparenthesized name: a bare call's name or a qualifier
        if value is lead and lead.kind == "identifier":
            if self.at("("):
                self.parse_list("(", ")", self.parse_expression, "unterminated argument list")
                value = _Chain(lead.lexeme + "()", lead.lexeme)
            else:
                self.acc.names.append(lead.lexeme)
                head = lead
        this = value is lead and lead.lexeme == "this"  # this.f is a field use
        while True:
            t = self.peek()
            if t.lexeme == ".":
                self.advance()
                if self.at("<"):
                    self.skip_generics()
                nt = self.peek()
                if nt is self.eof:
                    raise ParseError("expected member name after '.'", t.line, t.col)
                if nt.lexeme in ("class", "this", "new", "super"):
                    self.advance()
                    if nt.lexeme == "new":
                        self.parse_creation(nt, lead.line)
                    # X.this and X.super read as this and super.
                    value = None if nt.lexeme in ("class", "new") else nt
                    this = nt.lexeme == "this"
                    continue
                name = self.expect_identifier().lexeme
                if head is not None and value is head:
                    self.refs.append((head.lexeme, head.line))
                if self.at("("):
                    self.parse_list("(", ")", self.parse_expression, "unterminated argument list")
                    value = _link(value, f".{name}()", name)
                else:
                    if this:
                        self.acc.this_fields.append(name)
                    value = _link(value, "." + name, name)
                this = False
                continue
            if t.lexeme == "[":
                self.advance()
                if not self.at("]"):
                    self.parse_expression()
                self.expect("]")
                value = _link(value, "[]", _terminal(value))
                this = False
                continue
            if t.lexeme == "::":
                self.advance()
                if self.at("<"):
                    self.skip_generics()
                if self.peek() is self.eof:
                    raise ParseError("expected name after '::'", t.line, t.col)
                self.advance()
                value, this = None, False
                continue
            if t.kind == "operator" and t.lexeme in ("++", "--"):
                self.advance()
                value, this = None, False
                continue
            if prefixed or (cast and isinstance(value, str)):
                return None
            return value

    def skip_cast(self) -> list | None:
        """At '(': consume a cast's '(Type)' or '(Type & Type ...)' and
        return its types, or consume nothing and return None."""
        save = self.i
        self.advance()  # (
        try:
            types = [self.parse_type_text()]
            while self.accept("&"):
                types.append(self.parse_type_text())
            self.expect(")")
        except ParseError:
            self.i = save
            return None
        nxt = self.peek()
        starts_operand = (
            nxt.kind in ("identifier", "literal")
            or nxt.lexeme in ("(", "this", "super", "new", "!", "~")
            or (types[0] in PRIMITIVES and nxt.lexeme in ("+", "-"))
        )
        if not starts_operand:
            self.i = save
            return None
        return types

    def lambda_ahead(self) -> bool:
        # At '(': matched close paren directly followed by '->'.
        depth = 0
        j = self.i
        while True:
            t = self.toks[j]
            if t.lexeme == "(":
                depth += 1
            elif t.lexeme == ")":
                depth -= 1
                if depth == 0:
                    return self.toks[j + 1].lexeme == "->"
            elif t.lexeme in ("{", "}", ";") or t is self.eof:
                return False
            j += 1

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

    def parse_creation(self, new_tok, line: int):
        """A creation at *new_tok*; its type is referred to at *line*, where
        the expression starts ('x.new T()' starts at x)."""
        ty = self.parse_type_text()
        self.refs.append((ty, line))
        if self.at("["):
            while self.accept("["):
                if not self.at("]"):
                    self.parse_expression()
                self.expect("]")
            if self.at("{"):
                self.parse_variable_init()
        elif self.at("{"):
            # 'new T[] { ... }': the empty dims were consumed with the type.
            self.parse_variable_init()
        else:
            self.parse_list("(", ")", self.parse_expression, "unterminated argument list")
            if self.at("{"):
                self.diag("anonymous class body skipped", new_tok)
                self.skip_braces()

    def parse_primary(self):
        t = self.peek()
        if t.kind == "literal":
            self.advance()
            return t
        if t.lexeme == "(":
            if self.lambda_ahead():
                return self.parse_lambda()
            self.advance()
            inner = self.parse_expression()
            self.expect(")")
            return inner
        if t.lexeme == "new":
            self.advance()
            return self.parse_creation(t, t.line)
        if t.lexeme in ("this", "super"):
            self.advance()
            if self.at("("):
                self.parse_list("(", ")", self.parse_expression, "unterminated argument list")
                return _Chain(t.lexeme + "()", t.lexeme)
            return t
        if t.lexeme == "switch":
            # Switch expressions are outside the subset; consume opaquely.
            self.diag("switch expression consumed opaquely", t)
            self.advance()
            self.skip_balanced("(", ")", "unterminated switch expression", t)
            if self.at("{"):
                self.skip_braces()
            return None
        if t.kind == "identifier":
            if self.at("->", 1):
                return self.parse_lambda()
            self.advance()
            return t
        if t.kind == "keyword" and t.lexeme in NON_REF_TYPES:
            self.advance()
            self.skip_dims()
            if not self.at("::"):  # int[]::new is left to the postfix loop
                self.expect(".")
                self.expect("class")
            return None
        if t is self.eof:
            raise ParseError("expected expression, found end of file", t.line, t.col)
        raise ParseError(f"unexpected token '{t.lexeme}' in expression", t.line, t.col)


def parse(tokens: list[Token], source: SourceFile) -> ParsedFile:
    """Parse the code tokens of *source* into its facts and code lines.

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
    if p.diags and not p.declared:
        first = p.diags[0]
        raise ParseError(first.message, first.line, first.col)
    code_lines = tuple(dict.fromkeys(t.line for t in tokens))  # tokens come in line order
    return ParsedFile(source.path, p.package, tuple(p.imports), p.types, p.diags, code_lines)
