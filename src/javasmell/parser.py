"""Recursive-descent parser for a practical Java subset.

Covers packages, imports, type declarations (classes, interfaces, enums,
nested types), fields, methods, constructors, the common statement forms
(if/else, for, enhanced-for, while, do, switch, try/catch/finally, return,
throw, locals, expression statements) and enough of the expression grammar to
see calls, field accesses, object creation, casts, instanceof, the
conditional operator and short-circuit logic. Generic arguments are parsed
and erased to raw names, annotations are parsed and dropped, lambda bodies
are kept opaque. Anything outside the subset is consumed as an opaque
statement and reported as a diagnostic instead of aborting the file.

Recovery is panic-mode at the member and statement level: the parser always
consumes at least one token per recovery step, so a parse is bounded by the
token count. The token list ends in an ``eof`` sentinel that is never
consumed, so looking ahead needs no end-of-input test. ``ParseError`` is
raised only when a file with syntax errors yields no declarations at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .lexer import SourceFile, Token

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

ASSIGN_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}
)

# Binary operator -> precedence level, loosest first. instanceof sits at the
# relational level; its right side is a type, not an operand.
_BINARY_LEVEL = {
    op: level
    for level, ops in enumerate(
        (
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
        )
    )
    for op in ops
}


class Node:
    """Generic syntax-tree node; ``attrs`` holds kind-specific data."""

    __slots__ = ("kind", "start", "end", "line", "col", "end_line", "children", "attrs")

    def __init__(self, kind, start, end, line, col, end_line, attrs):
        self.kind = kind
        self.start = start
        self.end = end
        self.line = line
        self.col = col
        self.end_line = end_line
        self.children: list[Node] = []
        self.attrs = attrs

    def walk(self):
        """Preorder over the subtree; iterative, so depth costs no stack."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.children:
                stack += node.children[::-1]

    def __repr__(self):  # keep test failures readable
        bits = ", ".join(f"{k}={v!r}" for k, v in self.attrs.items() if k != "diagnostics")
        return f"<{self.kind} {self.line}:{self.col} {bits}>"


@dataclass
class Diagnostic:
    message: str
    file: str
    line: int
    col: int

    def __str__(self):
        return f"{self.file}:{self.line}:{self.col}: {self.message}"


class ParseError(Exception):
    def __init__(self, message: str, file: str, line: int, col: int):
        super().__init__(f"{file}:{line}:{col}: {message}")
        self.file = file
        self.line = line
        self.col = col


class _Recover(Exception):
    """Internal: recoverable syntax error, reported at *token*."""

    def __init__(self, message: str, token: Token):
        super().__init__(message)
        self.message = message
        self.token = token


def render(node: Node) -> str:
    """Canonical, whitespace-free rendering of simple expressions.

    Used to compare the scrutinee of instanceof ladders and switch selectors;
    parentheses are transparent.
    """
    k = node.kind
    if k == "Name":
        return node.attrs.get("id", "?")
    if k == "FieldAccess":
        return f"{render(node.children[0])}.{node.attrs['name']}"
    if k == "Call":
        base = render(node.children[0]) + "." if node.attrs.get("has_target") else ""
        return f"{base}{node.attrs['name']}()"
    if k == "Paren":
        return render(node.children[0])
    if k == "This":
        return "this"
    if k == "Super":
        return "super"
    if k == "ArrayAccess":
        return render(node.children[0]) + "[]"
    if k == "Literal":
        return node.attrs.get("text", "?")
    if k == "Cast":
        return render(node.children[0])
    return "?"


def terminal_name(node: Node) -> str:
    """Last identifier of an expression: x.getKind() -> getKind."""
    k = node.kind
    if k in ("Call", "FieldAccess"):
        return node.attrs["name"]
    if k == "Name":
        return node.attrs["id"].rpartition(".")[2]
    if k in ("Paren", "Cast", "ArrayAccess"):
        return terminal_name(node.children[0])
    return ""


class _Parser:
    def __init__(self, tokens: list[Token], source: SourceFile):
        toks = [t for t in tokens if t.kind != "comment"]
        line, col, offset = (toks[-1].line, toks[-1].col, toks[-1].offset) if toks else (1, 1, 0)
        self.eof = Token("eof", "end of file", line, col, offset, offset + len("end of file"))
        toks.append(self.eof)
        self.toks = toks
        self.src = source
        self.i = 0
        self.diags: list[Diagnostic] = []

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
            raise _Recover(f"expected '{lexeme}', found '{t.lexeme}'", t)
        self.i += 1
        return t

    def expect_identifier(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "identifier":
            raise _Recover(f"expected identifier, found '{t.lexeme}'", t)
        self.i += 1
        return t

    def last(self) -> Token:
        return self.toks[self.i - 1]

    def node(self, kind: str, tok: Token | None = None, **attrs) -> Node:
        tok = tok or self.toks[self.i]
        return Node(kind, tok.offset, tok.end, tok.line, tok.col, tok.line, attrs)

    def close(self, n: Node) -> Node:
        t = self.toks[self.i - 1]
        if t.end >= n.end:
            n.end = t.end
            n.end_line = t.line + t.lexeme.count("\n")
        return n

    def close_from(self, n: Node, base: Node) -> Node:
        """Close *n* but anchor its start at *base* (left operand)."""
        n.start, n.line, n.col = base.start, base.line, base.col
        return self.close(n)

    def grow(self, kind: str, tok: Token, children: list, **attrs) -> Node:
        """A closed *kind* node at *tok* over *children*, anchored at the first."""
        n = self.node(kind, tok, **attrs)
        n.children = children
        return self.close_from(n, children[0])

    def diag(self, message: str, tok: Token | None = None):
        tok = tok or self.toks[self.i]
        self.diags.append(Diagnostic(message, self.src.path, tok.line, tok.col))

    def diag_recover(self, err: _Recover):
        self.diag(err.message, err.token)

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
                raise _Recover(message, anchor or t)
            self.i += 1
            if t.kind != "literal":
                depth += t.lexeme.count(open_) - t.lexeme.count(close)
        if depth < 0:
            raise _Recover(f"mismatched '{close}'", open_tok)

    def skip_generics(self):
        self.skip_balanced("<", ">", "unbalanced '<'", self.peek())

    def opaque_braces(self) -> Node:
        n = self.node("Opaque")
        self.skip_balanced("{", "}", "unbalanced '{'", self.peek())
        return self.close(n)

    def skip_dims(self):
        while self.at("[") and self.at("]", 1):
            self.i += 2

    def recover_until_brace(
        self, parse_one, into: list, eof_message: str | None, anchor: Token | None = None
    ) -> bool:
        """Call *parse_one* until '}' (left unconsumed) or end of input.

        A node that *parse_one* returns is appended to *into*. A syntax error
        is reported and skipped up to the next statement boundary, and every
        step consumes at least one token. Returns False at end of input,
        after reporting *eof_message* at *anchor*.
        """
        while not self.at("}"):
            if self.peek() is self.eof:
                if eof_message:
                    self.diag(eof_message, anchor)
                return False
            guard = self.i
            try:
                node = parse_one()
                if node is not None:
                    into.append(node)
            except _Recover as err:
                self.diag_recover(err)
                self.skip_statement_like()
            if self.i == guard:
                self.advance()
        return True

    def skip_annotation(self):
        self.expect("@")
        self.parse_qualified_name()
        if self.at("("):
            self.skip_balanced("(", ")", "unbalanced annotation arguments", None)

    def at_record(self) -> bool:
        """At 'record Name (' or 'record Name <' ('record' is contextual)."""
        if not (self.at("record") and self.at_kind("identifier", 1)):
            return False
        return self.peek(2).lexeme in ("(", "<")

    def skip_record(self) -> Node:
        tok = self.advance()
        self.diag("record declaration skipped", tok)
        n = self.node("Opaque", tok)
        self.advance()  # name
        if self.at("<"):
            self.skip_generics()
        self.skip_balanced("(", ")", "unterminated record header", tok)
        if self.accept("implements"):
            self.parse_type_list()
        self.skip_balanced("{", "}", "unbalanced '{'", self.peek())
        return self.close(n)

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
        return non.end == minus.offset and minus.end == sealed.offset

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
            raise _Recover("expected type, found end of file", t)
        else:
            raise _Recover(f"expected type, found '{t.lexeme}'", t)
        if self.at("<"):
            self.skip_generics()
        self.skip_dims()
        return name

    def parse_type_list(self) -> list[str]:
        names = [self.parse_type_text()]
        while self.accept(","):
            names.append(self.parse_type_text())
        return names

    # ------------------------------------------------------------------
    # compilation unit

    def parse_unit(self) -> Node:
        attrs = {"package": None, "imports": [], "file": self.src.path}
        if self.peek() is self.eof:
            return Node("CompilationUnit", 0, 0, 0, 0, 0, attrs)
        unit = self.node("CompilationUnit", **attrs)

        while self.at("@") and not self.at("interface", 1):
            try:
                self.skip_annotation()
            except _Recover as err:
                self.diag_recover(err)
                break
        if self.at("package"):
            self.advance()
            try:
                pkg = self.node("PackageDecl", self.last())
                unit.attrs["package"] = self.parse_qualified_name()
                pkg.attrs["name"] = unit.attrs["package"]
                self.expect(";")
                unit.children.append(self.close(pkg))
            except _Recover as err:
                self.diag_recover(err)
                self.skip_statement_like()
        while self.at("import"):
            tok = self.advance()
            try:
                imp = self.node("ImportDecl", tok)
                is_static = self.accept("static") is not None
                name = self.parse_qualified_name()
                on_demand = False
                if self.at(".") and self.at("*", 1):
                    self.advance()
                    self.advance()
                    on_demand = True
                self.expect(";")
                imp.attrs.update(name=name, on_demand=on_demand, static=is_static)
                unit.attrs["imports"].append(imp.attrs)
                unit.children.append(self.close(imp))
            except _Recover as err:
                self.diag_recover(err)
                self.skip_statement_like()

        while self.recover_until_brace(self.parse_top_level, unit.children, None):
            self.diag("expected type declaration, found '}'")
            self.advance()
        return self.close(unit)

    def parse_top_level(self) -> Node | None:
        if self.accept(";"):
            return None
        mods = self.parse_modifiers()
        t = self.peek()
        if t.lexeme in ("class", "interface", "enum"):
            return self.parse_type_decl(mods)
        if t.lexeme == "@":
            return self.skip_annotation_type_decl()
        if self.at_record():
            return self.skip_record()
        raise _Recover(f"expected type declaration, found '{t.lexeme}'", t)

    def skip_annotation_type_decl(self) -> Node:
        tok = self.expect("@")
        n = self.node("Opaque", tok)
        self.expect("interface")
        self.expect_identifier()
        self.diag("annotation type declaration skipped", tok)
        if self.at("{"):
            self.skip_balanced("{", "}", "unbalanced '{'", self.peek())
        return self.close(n)

    # ------------------------------------------------------------------
    # type declarations and members

    def parse_type_decl(self, mods: set[str]) -> Node:
        kw = self.advance()  # class | interface | enum
        name = self.expect_identifier().lexeme
        decl = self.node("TypeDecl", kw)
        decl.attrs.update(
            name=name,
            type_kind=kw.lexeme,
            modifiers=frozenset(mods),
            supertype=None,
            interfaces=[],
        )
        if self.at("<"):
            self.skip_generics()
        if kw.lexeme == "class":
            if self.accept("extends"):
                decl.attrs["supertype"] = self.parse_type_text()
            if self.accept("implements"):
                decl.attrs["interfaces"] = self.parse_type_list()
        elif kw.lexeme == "interface":
            # All extended interfaces are superinterfaces; none is singled
            # out as "the" supertype.
            if self.accept("extends"):
                decl.attrs["interfaces"] = self.parse_type_list()
        else:  # enum
            if self.accept("implements"):
                decl.attrs["interfaces"] = self.parse_type_list()
        if kw.lexeme != "enum" and self.accept("permits"):
            self.parse_type_list()  # a sealed type's permitted subtypes
        if kw.lexeme == "enum":
            self.parse_enum_body(decl)
        else:
            self.parse_class_body(decl)
        return self.close(decl)

    def parse_class_body(self, decl: Node):
        self.expect("{")
        members = partial(self.parse_member, decl)
        if self.recover_until_brace(members, decl.children, "unexpected end of file in type body"):
            self.advance()

    def parse_enum_body(self, decl: Node):
        self.expect("{")
        while not self.at("}") and not self.at(";"):
            if self.peek() is self.eof:
                self.diag("unexpected end of file in enum body")
                return
            while self.at("@"):
                self.skip_annotation()
            ctok = self.expect_identifier()
            const = self.node("EnumConstant", ctok, name=ctok.lexeme)
            if self.at("("):
                const.children.extend(self.parse_args())
            if self.at("{"):
                self.diag("enum constant body skipped", ctok)
                const.children.append(self.opaque_braces())
            decl.children.append(self.close(const))
            if not self.accept(","):
                break
        members = partial(self.parse_member, decl)
        if self.accept(";") and not self.recover_until_brace(
            members, decl.children, "unexpected end of file in enum body"
        ):
            return
        self.expect("}")

    def parse_member(self, owner: Node) -> Node | None:
        """One member declaration; fields are appended to *owner* directly."""
        if self.accept(";"):
            return None
        start_tok = self.peek()
        mods = self.parse_modifiers()
        t = self.peek()
        if t is self.eof:
            raise _Recover("unexpected end of file in type body", t)
        if t.lexeme == "@" and self.at("interface", 1):
            return self.skip_annotation_type_decl()
        if t.lexeme in ("class", "interface", "enum"):
            return self.parse_type_decl(mods)
        if self.at_record():
            return self.skip_record()
        if t.lexeme == "{":
            init = self.node("Initializer", t, static="static" in mods)
            init.children.append(self.parse_block())
            return self.close(init)
        if t.lexeme == "<":
            self.skip_generics()
            t = self.peek()
            if t is self.eof:
                raise _Recover("unexpected end of file after type parameters", t)

        # Constructor: bare name of the enclosing type followed by '('.
        if t.kind == "identifier" and t.lexeme == owner.attrs.get("name") and self.at("(", 1):
            name_tok = self.advance()
            return self.parse_method(start_tok, mods, None, name_tok.lexeme, is_ctor=True)

        type_text = self.parse_type_text()
        name_tok = self.expect_identifier()
        if self.at("("):
            return self.parse_method(start_tok, mods, type_text, name_tok.lexeme)
        self.parse_field_declarators(owner, start_tok, mods, type_text, name_tok)
        return None

    def parse_method(self, start_tok, mods, return_type, name, is_ctor=False) -> Node:
        decl = self.node("ConstructorDecl" if is_ctor else "MethodDecl", start_tok)
        params = self.parse_params(decl)
        self.skip_dims()
        throws: list[str] = []
        if self.accept("throws"):
            throws = self.parse_type_list()
        body = None
        if self.at("{"):
            body = self.parse_block()
            decl.children.append(body)
        else:
            self.expect(";")
        decl.attrs.update(
            name=name,
            modifiers=frozenset(mods),
            return_type=return_type,
            params=params,
            arity=len(params),
            throws=throws,
            is_ctor=is_ctor,
            has_body=body is not None,
        )
        return self.close(decl)

    def parse_params(self, decl: Node) -> list[tuple[str, str]]:
        self.expect("(")
        params: list[tuple[str, str]] = []
        while not self.at(")"):
            if self.peek() is self.eof:
                raise _Recover("unexpected end of file in parameter list", self.eof)
            while self.at("@"):
                self.skip_annotation()
            self.accept("final")
            ptype = self.parse_type_text()
            self.accept("...")
            # Receiver parameters ("this") and lambda-ish noise are not
            # expected here; a plain identifier is.
            pname = self.expect_identifier().lexeme
            self.skip_dims()
            param = self.node("Parameter", self.last(), type=ptype, name=pname)
            decl.children.append(self.close(param))
            params.append((ptype, pname))
            if not self.accept(","):
                break
        self.expect(")")
        return params

    def parse_field_declarators(self, owner, start_tok, mods, type_text, first_name_tok):
        name_tok = first_name_tok
        while True:
            fdecl = self.node("FieldDecl", start_tok)
            fdecl.attrs.update(
                name=name_tok.lexeme, modifiers=frozenset(mods), type=type_text
            )
            self.skip_dims()
            if self.accept("="):
                fdecl.children.append(self.parse_variable_init())
            owner.children.append(self.close(fdecl))
            if self.accept(","):
                name_tok = self.expect_identifier()
                continue
            self.expect(";")
            return

    def parse_variable_init(self) -> Node:
        if self.at("{"):
            return self.parse_array_initializer()
        return self.parse_expression()

    def parse_array_initializer(self) -> Node:
        open_tok = self.expect("{")
        n = self.node("ArrayInit", open_tok)
        while not self.at("}"):
            if self.peek() is self.eof:
                raise _Recover("unterminated array initializer", open_tok)
            n.children.append(self.parse_variable_init())
            if not self.accept(","):
                break
        self.expect("}")
        return self.close(n)

    # ------------------------------------------------------------------
    # statements

    def parse_block(self) -> Node:
        open_tok = self.expect("{")
        block = self.node("Block", open_tok)
        if self.recover_until_brace(
            self.parse_statement, block.children, "unexpected end of file in block", open_tok
        ):
            self.advance()
        return self.close(block)

    def parse_statement(self) -> Node:
        t = self.peek()
        lex = t.lexeme
        if lex == "{":
            return self.parse_block()
        if lex == ";":
            self.advance()
            return self.close(self.node("Empty", t))
        if lex == "if":
            return self.parse_if()
        if lex == "while":
            self.advance()
            n = self.node("While", t)
            self.expect("(")
            n.children.append(self.parse_expression())
            self.expect(")")
            n.children.append(self.parse_statement())
            return self.close(n)
        if lex == "do":
            self.advance()
            n = self.node("DoWhile", t)
            n.children.append(self.parse_statement())
            self.expect("while")
            self.expect("(")
            n.children.append(self.parse_expression())
            self.expect(")")
            self.expect(";")
            return self.close(n)
        if lex == "for":
            return self.parse_for()
        if lex == "switch":
            return self.parse_switch()
        if lex == "try":
            return self.parse_try()
        if lex == "return":
            self.advance()
            n = self.node("Return", t)
            if not self.at(";"):
                n.children.append(self.parse_expression())
            self.expect(";")
            return self.close(n)
        if lex == "throw":
            self.advance()
            n = self.node("Throw", t)
            n.children.append(self.parse_expression())
            self.expect(";")
            return self.close(n)
        if lex in ("break", "continue"):
            self.advance()
            n = self.node("Break" if lex == "break" else "Continue", t)
            if self.at_kind("identifier"):
                n.attrs["label"] = self.advance().lexeme
            self.expect(";")
            return self.close(n)
        if lex == "synchronized":
            self.advance()
            n = self.node("Sync", t)
            self.expect("(")
            n.children.append(self.parse_expression())
            self.expect(")")
            n.children.append(self.parse_block())
            return self.close(n)
        if lex == "assert":
            self.advance()
            n = self.node("Assert", t)
            n.children.append(self.parse_expression())
            if self.accept(":"):
                n.children.append(self.parse_expression())
            self.expect(";")
            return self.close(n)
        if lex in ("class", "interface", "enum"):
            return self.parse_type_decl(set())
        if lex in ("final", "abstract", "static"):
            mods = self.parse_modifiers()
            nxt = self.peek()
            if nxt.lexeme in ("class", "interface", "enum"):
                return self.parse_type_decl(mods)
            local = self.try_parse_local_var()
            if local is not None:
                return local
            raise _Recover("expected declaration after modifiers", nxt)
        if t.kind == "identifier":
            if self.at(":", 1) and not self.at(":", 2):
                label = self.advance().lexeme
                self.advance()
                n = self.node("Labeled", t, label=label)
                n.children.append(self.parse_statement())
                return self.close(n)
            if self.at_record():
                return self.skip_record()
        elif t is self.eof:
            raise _Recover("expected statement, found end of file", t)

        local = self.try_parse_local_var()
        if local is not None:
            return local
        n = self.node("ExprStmt", t)
        n.children.append(self.parse_expression())
        self.expect(";")
        return self.close(n)

    def try_parse_local_var(self) -> Node | None:
        save = self.i
        start = self.peek()
        self.accept("final")
        while self.at("@"):
            try:
                self.skip_annotation()
            except _Recover:
                self.i = save
                return None
        try:
            type_text = self.parse_type_text()
        except _Recover:
            self.i = save
            return None
        if not (self.at_kind("identifier") and self.peek(1).lexeme in ("=", ";", ",", "[")):
            self.i = save
            return None
        n = self.node("LocalVar", start, type=type_text, names=[])
        while True:
            name_tok = self.expect_identifier()
            n.attrs["names"].append(name_tok.lexeme)
            self.skip_dims()
            if self.accept("="):
                n.children.append(self.parse_variable_init())
            if self.accept(","):
                continue
            self.expect(";")
            return self.close(n)

    def parse_if(self) -> Node:
        tok = self.expect("if")
        n = self.node("If", tok)
        self.expect("(")
        n.children.append(self.parse_expression())
        self.expect(")")
        n.children.append(self.parse_statement())
        if self.accept("else"):
            n.children.append(self.parse_statement())
            n.attrs["has_else"] = True
        return self.close(n)

    def parse_for(self) -> Node:
        tok = self.expect("for")
        self.expect("(")
        save = self.i
        # Enhanced for: [final] Type name : expr
        self.accept("final")
        try:
            vtype = self.parse_type_text()
            if self.at_kind("identifier") and self.at(":", 1):
                name_tok = self.advance()
                self.advance()
                n = self.node("ForEach", tok, var_type=vtype, var_name=name_tok.lexeme)
                n.children.append(self.parse_expression())
                self.expect(")")
                n.children.append(self.parse_statement())
                return self.close(n)
        except _Recover:
            pass
        self.i = save

        n = self.node("For", tok)
        if not self.at(";"):
            init = self.try_parse_local_var()
            if init is None:
                init = self.node("ExprStmt", self.peek())
                init.children.append(self.parse_expression())
                while self.accept(","):
                    init.children.append(self.parse_expression())
                self.close(init)
                self.expect(";")
            n.children.append(init)
        else:
            self.advance()
        if not self.at(";"):
            n.children.append(self.parse_expression())
        self.expect(";")
        if not self.at(")"):
            upd = self.node("ExprStmt", self.peek())
            upd.children.append(self.parse_expression())
            while self.accept(","):
                upd.children.append(self.parse_expression())
            n.children.append(self.close(upd))
        self.expect(")")
        n.children.append(self.parse_statement())
        return self.close(n)

    def parse_switch(self) -> Node:
        tok = self.expect("switch")
        n = self.node("Switch", tok)
        self.expect("(")
        selector = self.parse_expression()
        self.expect(")")
        n.children.append(selector)
        n.attrs["selector_text"] = render(selector)
        n.attrs["terminal_name"] = terminal_name(selector)
        self.expect("{")
        element = partial(self.parse_switch_element, n)
        self.recover_until_brace(element, n.children, "unexpected end of file in switch", tok)
        self.accept("}")
        n.attrs["case_count"] = sum(c.kind == "Case" for c in n.children)
        return self.close(n)

    def parse_switch_element(self, switch_node: Node) -> Node | None:
        """A statement, or case labels and their arrow body appended to *switch_node*."""
        if self.accept("case"):
            while True:
                label = self.node("Case", self.last())
                label.children.append(self.parse_case_label())
                switch_node.children.append(self.close(label))
                if not self.accept(","):
                    break
            self.parse_case_tail(switch_node)
        elif self.accept("default"):
            switch_node.children.append(self.close(self.node("Default", self.last())))
            self.parse_case_tail(switch_node)
        else:
            return self.parse_statement()
        return None

    def parse_case_label(self) -> Node:
        # No ternary here (':' closes the label); pattern labels tolerate a
        # trailing binding identifier.
        expr = self.parse_binary(0)
        if self.at_kind("identifier"):
            self.advance()
        return expr

    def parse_case_tail(self, switch_node: Node):
        if self.accept("->"):
            if self.at("{"):
                switch_node.children.append(self.parse_block())
            elif self.at("throw"):
                switch_node.children.append(self.parse_statement())
            else:
                stmt = self.node("ExprStmt", self.peek())
                stmt.children.append(self.parse_expression())
                self.expect(";")
                switch_node.children.append(self.close(stmt))
        else:
            self.expect(":")

    def parse_try(self) -> Node:
        tok = self.expect("try")
        n = self.node("Try", tok)
        if self.accept("("):
            while not self.at(")"):
                if self.peek() is self.eof:
                    raise _Recover("unterminated resource list", tok)
                res = self.try_parse_resource()
                if res is None:
                    res = self.parse_expression()
                n.children.append(res)
                if not self.accept(";"):
                    break
            self.expect(")")
        n.children.append(self.parse_block())
        while self.at("catch"):
            ctok = self.advance()
            c = self.node("Catch", ctok)
            self.expect("(")
            self.accept("final")
            while self.at("@"):
                self.skip_annotation()
            types = [self.parse_type_text()]
            while self.accept("|"):
                types.append(self.parse_type_text())
            c.attrs["types"] = types
            c.attrs["name"] = self.expect_identifier().lexeme
            self.expect(")")
            c.children.append(self.parse_block())
            n.children.append(self.close(c))
        if self.accept("finally"):
            n.children.append(self.parse_block())
        return self.close(n)

    def try_parse_resource(self) -> Node | None:
        save = self.i
        start = self.peek()
        self.accept("final")
        try:
            rtype = self.parse_type_text()
            name_tok = self.expect_identifier()
            self.expect("=")
        except _Recover:
            self.i = save
            return None
        n = self.node("LocalVar", start, type=rtype, names=[name_tok.lexeme])
        n.children.append(self.parse_expression())
        return self.close(n)

    # ------------------------------------------------------------------
    # expressions

    def parse_expression(self) -> Node:
        left = self.parse_ternary()
        t = self.peek()
        if t.lexeme in ASSIGN_OPS:
            self.advance()
            return self.grow("Assign", t, [left, self.parse_expression()], op=t.lexeme)
        return left

    def parse_ternary(self) -> Node:
        cond = self.parse_binary(0)
        if self.at("?"):
            qtok = self.advance()
            then = self.parse_expression()
            self.expect(":")
            return self.grow("Ternary", qtok, [cond, then, self.parse_ternary()])
        return cond

    def parse_binary(self, min_level: int) -> Node:
        """Precedence climbing over operators binding at *min_level* or tighter."""
        left = self.parse_unary()
        while True:
            t = self.peek()
            level = _BINARY_LEVEL.get(t.lexeme, -1)
            if level < min_level:
                return left
            self.advance()
            if t.lexeme == "instanceof":
                ty = self.parse_type_text()
                if self.at_kind("identifier"):  # pattern binding
                    self.advance()
                left = self.grow("InstanceOf", t, [left], type=ty, operand_text=render(left))
            else:
                left = self.grow("Binary", t, [left, self.parse_binary(level + 1)], op=t.lexeme)

    def parse_unary(self) -> Node:
        t = self.peek()
        if t.kind == "operator" and t.lexeme in ("+", "-", "!", "~", "++", "--"):
            self.advance()
            n = self.node("Unary", t, op=t.lexeme, prefix=True)
            n.children.append(self.parse_unary())
            return self.close(n)
        if t.lexeme == "(":
            cast = self.try_parse_cast()
            if cast is not None:
                return cast
        return self.parse_postfix()

    def try_parse_cast(self) -> Node | None:
        save = self.i
        open_tok = self.advance()  # (
        try:
            ty = self.parse_type_text()
        except _Recover:
            self.i = save
            return None
        if not self.at(")"):
            self.i = save
            return None
        self.advance()
        nxt = self.peek()
        is_primitive = ty in PRIMITIVES
        starts_operand = (
            nxt.kind in ("identifier", "literal")
            or nxt.lexeme in ("(", "this", "super", "new", "!", "~")
            or (is_primitive and nxt.lexeme in ("+", "-"))
        )
        if not starts_operand:
            self.i = save
            return None
        n = self.node("Cast", open_tok, type=ty)
        n.children.append(self.parse_unary())
        return self.close(n)

    def parse_postfix(self) -> Node:
        node = self.parse_primary()
        while True:
            t = self.peek()
            if t.lexeme == "(" and node.kind == "Name":
                # Bare call: foo(...). Dotted callees arrive as FieldAccess
                # and are rewritten in the '.' branch below.
                n = self.node("Call", t, name=node.attrs["id"], has_target=False)
                n.children = self.parse_args()
                node = self.close_from(n, node)
                continue
            if t.lexeme == ".":
                self.advance()
                if self.at("<"):
                    self.skip_generics()
                nt = self.peek()
                if nt is self.eof:
                    raise _Recover("expected member name after '.'", t)
                if nt.lexeme == "class":
                    self.advance()
                    node = self.grow("ClassLiteral", nt, [node])
                    continue
                if nt.lexeme == "this":
                    self.advance()
                    node = self.grow("This", nt, [node], qualified=True)
                    continue
                if nt.lexeme == "new":
                    self.advance()
                    inner = self.parse_creation(nt)
                    inner.children.insert(0, node)
                    node = self.close_from(inner, node)
                    continue
                if nt.lexeme == "super":
                    self.advance()
                    node = self.grow("Super", nt, [node], qualified=True)
                    continue
                name_tok = self.expect_identifier()
                if self.at("("):
                    args = [node] + self.parse_args()
                    node = self.grow("Call", name_tok, args, name=name_tok.lexeme, has_target=True)
                else:
                    node = self.grow("FieldAccess", name_tok, [node], name=name_tok.lexeme)
                continue
            if t.lexeme == "[":
                self.advance()
                children = [node] if self.at("]") else [node, self.parse_expression()]
                self.expect("]")
                node = self.grow("ArrayAccess", t, children)
                continue
            if t.lexeme == "::":
                self.advance()
                if self.at("<"):
                    self.skip_generics()
                if self.peek() is self.eof:
                    raise _Recover("expected name after '::'", t)
                ref = self.advance()
                node = self.grow("MethodRef", ref, [node], name=ref.lexeme)
                continue
            if t.kind == "operator" and t.lexeme in ("++", "--"):
                self.advance()
                node = self.grow("Unary", t, [node], op=t.lexeme, prefix=False)
                continue
            return node

    def parse_args(self) -> list[Node]:
        self.expect("(")
        args: list[Node] = []
        while not self.at(")"):
            if self.peek() is self.eof:
                raise _Recover("unterminated argument list", self.eof)
            args.append(self.parse_expression())
            if not self.accept(","):
                break
        self.expect(")")
        return args

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

    def parse_lambda(self, start_tok) -> Node:
        n = self.node("Lambda", start_tok)
        if self.at("("):
            self.skip_balanced("(", ")", "unterminated lambda parameters", None)
        else:
            self.expect_identifier()
        self.expect("->")
        if self.at("{"):
            n.children.append(self.opaque_braces())
        else:
            n.children.append(self.parse_expression())
        return self.close(n)

    def parse_creation(self, new_tok) -> Node:
        ty = self.parse_type_text()
        if self.at("["):
            n = self.node("ArrayNew", new_tok, type=ty)
            while self.accept("["):
                if not self.at("]"):
                    n.children.append(self.parse_expression())
                self.expect("]")
            if self.at("{"):
                n.children.append(self.parse_array_initializer())
            return self.close(n)
        if self.at("{"):
            # 'new T[] { ... }': the empty dims were consumed with the type.
            n = self.node("ArrayNew", new_tok, type=ty)
            n.children.append(self.parse_array_initializer())
            return self.close(n)
        n = self.node("New", new_tok, type=ty)
        n.children.extend(self.parse_args())
        if self.at("{"):
            self.diag("anonymous class body skipped", new_tok)
            n.children.append(self.opaque_braces())
        return self.close(n)

    def parse_primary(self) -> Node:
        t = self.peek()
        if t.kind == "literal":
            self.advance()
            return self.close(self.node("Literal", t, text=t.lexeme))
        if t.lexeme == "(":
            if self.lambda_ahead():
                return self.parse_lambda(t)
            self.advance()
            inner = self.parse_expression()
            self.expect(")")
            n = self.node("Paren", t)
            n.children = [inner]
            return self.close(n)
        if t.lexeme == "new":
            self.advance()
            return self.parse_creation(t)
        if t.lexeme == "this":
            self.advance()
            if self.at("("):
                n = self.node("Call", t, name="this", has_target=False)
                n.children = self.parse_args()
                return self.close(n)
            return self.close(self.node("This", t))
        if t.lexeme == "super":
            self.advance()
            if self.at("("):
                n = self.node("Call", t, name="super", has_target=False)
                n.children = self.parse_args()
                return self.close(n)
            return self.close(self.node("Super", t))
        if t.lexeme == "switch":
            # Switch expressions are outside the subset; consume opaquely.
            self.diag("switch expression consumed opaquely", t)
            self.advance()
            self.skip_balanced("(", ")", "unterminated switch expression", t)
            n = self.node("Opaque", t)
            if self.at("{"):
                n.children.append(self.opaque_braces())
            return self.close(n)
        if t.kind == "identifier":
            if self.at("->", 1):
                return self.parse_lambda(t)
            self.advance()
            return self.close(self.node("Name", t, id=t.lexeme))
        if t.kind == "keyword" and t.lexeme in NON_REF_TYPES:
            self.advance()
            self.skip_dims()
            self.expect(".")
            self.expect("class")
            return self.close(self.node("ClassLiteral", t, primitive=t.lexeme))
        if t is self.eof:
            raise _Recover("expected expression, found end of file", t)
        raise _Recover(f"unexpected token '{t.lexeme}' in expression", t)


def parse(tokens: list[Token], source: SourceFile) -> Node:
    """Parse *tokens* into a CompilationUnit.

    Recoverable errors leave diagnostics on the unit
    (``unit.attrs["diagnostics"]``); ParseError is raised only when nothing
    could be salvaged from a file that contains declarations.
    """
    p = _Parser(tokens, source)
    try:
        unit = p.parse_unit()
    except RecursionError:
        raise ParseError("nesting too deep to parse", source.path, 1, 1) from None
    unit.attrs["diagnostics"] = p.diags
    # A top-level Opaque child is a skipped record or annotation type.
    has_decls = any(c.kind in ("TypeDecl", "Opaque") for c in unit.children)
    if p.diags and not has_decls:
        first = p.diags[0]
        raise ParseError(first.message, source.path, first.line, first.col)
    return unit
