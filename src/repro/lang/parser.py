"""Recursive-descent parser for SlipC.

Produces the AST defined in ``ast.py``.  OpenMP pragmas are parsed by
``pragmas.py`` and attached as directive nodes wrapping the statement
(or loop / structured block) that follows them, matching OpenMP's
"directive applies to the next statement" rule.
"""

from __future__ import annotations

from typing import List, Optional

from . import ast as A
from .errors import ParseError
from .lexer import Token, tokenize
from .pragmas import Directive, parse_pragma

__all__ = ["parse", "parse_expression"]

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/="}
_TYPE_WORDS = {"int", "double", "float", "void"}


def parse(source: str) -> A.Program:
    """Parse a full translation unit.  Nesting deeper than Python's
    recursion limit allows (parentheses, blocks) is a ``ParseError``."""
    parser = _Parser(tokenize(source))
    try:
        return parser.program()
    except RecursionError:
        raise ParseError("nested too deeply", parser.cur.line) from None


def parse_expression(text: str, line: int = 0) -> A.Node:
    """Parse a standalone expression (used for pragma if-clauses)."""
    p = _Parser(tokenize(text))
    expr = p.expression()
    p.expect_kind("eof")
    return expr


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.toks = tokens
        self.pos = 0

    # ------------------------------------------------------------- helpers

    @property
    def cur(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def check(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.cur
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str) -> Token:
        if not self.check(kind, text):
            raise ParseError(
                f"expected {text!r}, found {self.cur.text!r}", self.cur.line)
        return self.advance()

    def expect_kind(self, kind: str) -> Token:
        if self.cur.kind != kind:
            raise ParseError(
                f"expected {kind}, found {self.cur.text!r}", self.cur.line)
        return self.advance()

    def _is_type(self) -> bool:
        return self.cur.kind == "kw" and self.cur.text in _TYPE_WORDS

    # ------------------------------------------------------------ top level

    def program(self) -> A.Program:
        globals_: List[A.VarDecl] = []
        funcs: List[A.FuncDef] = []
        prelude: List[A.Node] = []
        while not self.check("eof"):
            if self.cur.kind == "pragma":
                dv = parse_pragma(self.cur.text, self.cur.line)
                self.advance()
                if dv is None:
                    continue
                if dv.name != "slipstream":
                    raise ParseError(
                        f"only the slipstream directive may appear at file "
                        f"scope, not omp {dv.name}", dv.line)
                prelude.append(_slipstream_node(dv))
                continue
            if not self._is_type():
                raise ParseError(
                    f"expected declaration, found {self.cur.text!r}",
                    self.cur.line)
            typ = self.advance().text
            name = self.expect_kind("id").text
            if self.check("op", "("):
                funcs.append(self._funcdef(typ, name))
            else:
                globals_.extend(self._global_declarators(typ, name))
        prog = A.Program(globals_, funcs)
        # File-scope slipstream directives become the program's initial
        # global setting, executed before main().
        for f in prog.funcs:
            if f.name == "main" and prelude:
                f.body.stmts[0:0] = prelude
                break
        else:
            if prelude:
                raise ParseError("file-scope slipstream directive requires "
                                 "a main() function", prelude[0].line)
        return prog

    def _global_declarators(self, typ: str, first_name: str) -> List[A.VarDecl]:
        decls = []
        name = first_name
        while True:
            dims = self._dims()
            init = None
            if self.accept("op", "="):
                init = self.expression()
            decls.append(A.VarDecl(_norm_type(typ), name, dims, init,
                                   self.cur.line))
            if self.accept("op", ","):
                name = self.expect_kind("id").text
                continue
            self.expect("op", ";")
            return decls

    def _dims(self) -> List[int]:
        dims = []
        while self.accept("op", "["):
            n = self.expect_kind("num")
            try:
                dims.append(int(n.text))
            except ValueError:
                raise ParseError("array dimensions must be integer "
                                 "constants", n.line) from None
            self.expect("op", "]")
        return dims

    def _funcdef(self, ret: str, name: str) -> A.FuncDef:
        line = self.cur.line
        self.expect("op", "(")
        params = []
        if not self.check("op", ")"):
            while True:
                if not self._is_type():
                    raise ParseError("expected parameter type",
                                     self.cur.line)
                ptyp = _norm_type(self.advance().text)
                pname = self.expect_kind("id").text
                params.append((ptyp, pname))
                if not self.accept("op", ","):
                    break
        self.expect("op", ")")
        body = self.block()
        return A.FuncDef(_norm_type(ret), name, params, body, line)

    # ----------------------------------------------------------- statements

    def block(self) -> A.Block:
        line = self.cur.line
        self.expect("op", "{")
        stmts = []
        while not self.check("op", "}"):
            if self.check("eof"):
                raise ParseError("unterminated block", line)
            stmts.append(self.statement())
        self.expect("op", "}")
        return A.Block(stmts, line)

    def statement(self) -> A.Node:
        t = self.cur
        if t.kind == "pragma":
            return self._pragma_statement()
        if t.kind == "op" and t.text == "{":
            return self.block()
        if self._is_type():
            typ = self.advance().text
            name = self.expect_kind("id").text
            decls = self._global_declarators(typ, name)
            if len(decls) == 1:
                return decls[0]
            return A.Block(decls, t.line, is_scope=False)
        if t.kind == "kw":
            if t.text == "if":
                return self._if()
            if t.text == "for":
                return self._for()
            if t.text == "while":
                return self._while()
            if t.text == "return":
                self.advance()
                value = None if self.check("op", ";") else self.expression()
                self.expect("op", ";")
                return A.Return(value, t.line)
            if t.text == "break":
                self.advance()
                self.expect("op", ";")
                return A.Break(t.line)
            if t.text == "continue":
                self.advance()
                self.expect("op", ";")
                return A.Continue(t.line)
        if t.kind == "id" and t.text == "print":
            return self._print()
        stmt = self._simple_statement()
        self.expect("op", ";")
        return stmt

    def _simple_statement(self) -> A.Node:
        """Assignment or expression statement (no trailing ';')."""
        line = self.cur.line
        expr = self.expression()
        if self.cur.kind == "op" and self.cur.text in _ASSIGN_OPS:
            op = self.advance().text
            if not isinstance(expr, (A.Var, A.Index)):
                raise ParseError("invalid assignment target", line)
            rhs = self.expression()
            if op != "=":
                rhs = A.BinOp(op[0], _clone_lvalue(expr), rhs, line)
            return A.Assign(expr, rhs, line)
        return A.ExprStmt(expr, line)

    def _if(self) -> A.If:
        line = self.advance().line
        self.expect("op", "(")
        cond = self.expression()
        self.expect("op", ")")
        then = self.statement()
        orelse = None
        if self.accept("kw", "else"):
            orelse = self.statement()
        return A.If(cond, then, orelse, line)

    def _for(self) -> A.For:
        line = self.advance().line
        self.expect("op", "(")
        init = None if self.check("op", ";") else self._simple_statement()
        self.expect("op", ";")
        cond = None if self.check("op", ";") else self.expression()
        self.expect("op", ";")
        step = None if self.check("op", ")") else self._simple_statement()
        self.expect("op", ")")
        body = self.statement()
        return A.For(init, cond, step, body, line)

    def _while(self) -> A.While:
        line = self.advance().line
        self.expect("op", "(")
        cond = self.expression()
        self.expect("op", ")")
        return A.While(cond, self.statement(), line)

    def _print(self) -> A.Print:
        line = self.advance().line
        self.expect("op", "(")
        args = []
        if not self.check("op", ")"):
            while True:
                if self.cur.kind == "str":
                    args.append(A.Num(self.advance().text, line))
                else:
                    args.append(self.expression())
                if not self.accept("op", ","):
                    break
        self.expect("op", ")")
        self.expect("op", ";")
        return A.Print(args, line)

    # ----------------------------------------------------------- directives

    def _pragma_statement(self) -> A.Node:
        dv = parse_pragma(self.cur.text, self.cur.line)
        self.advance()
        if dv is None:
            return self.statement()
        return self._directive_to_node(dv)

    def _directive_to_node(self, dv: Directive) -> A.Node:
        if dv.name == "slipstream":
            return _slipstream_node(dv)
        if dv.name == "barrier":
            return A.OmpBarrier(dv.line)
        if dv.name == "flush":
            return A.OmpFlush(dv.flush_names, dv.line)
        if dv.name in ("parallel", "parallel for", "parallel sections"):
            return self._parallel(dv)
        if dv.name == "for":
            return self._omp_for(dv)
        if dv.name == "single":
            return A.OmpSingle(self.statement(), dv.nowait, dv.line)
        if dv.name == "master":
            return A.OmpMaster(self.statement(), dv.line)
        if dv.name == "critical":
            return A.OmpCritical(self.statement(), dv.critical_name, dv.line)
        if dv.name == "atomic":
            stmt = self._simple_statement()
            self.expect("op", ";")
            if not isinstance(stmt, A.Assign):
                raise ParseError("atomic requires an update statement",
                                 dv.line)
            return A.OmpAtomic(stmt, dv.line)
        if dv.name == "sections":
            return self._sections(dv)
        if dv.name == "section":
            raise ParseError("omp section outside omp sections", dv.line)
        raise ParseError(f"unhandled directive {dv.name!r}", dv.line)

    def _parallel(self, dv: Directive) -> A.OmpParallel:
        if dv.name == "parallel for":
            body: A.Node = self._omp_for(dv)
        elif dv.name == "parallel sections":
            body = self._sections(dv)
        else:
            body = self.statement()
        return A.OmpParallel(
            body, private=dv.private, firstprivate=dv.firstprivate,
            shared=dv.shared, reductions=dv.reductions,
            if_expr=(parse_expression(dv.if_text, dv.line)
                     if dv.if_text else None),
            num_threads=(parse_expression(dv.num_threads, dv.line)
                         if dv.num_threads else None),
            line=dv.line)

    def _omp_for(self, dv: Directive) -> A.OmpFor:
        loop = self.statement()
        if not isinstance(loop, A.For):
            raise ParseError("omp for must be followed by a for loop",
                             dv.line)
        return A.OmpFor(loop, dv.schedule, dv.nowait, dv.private,
                        dv.reductions, dv.lastprivate, dv.line)

    def _sections(self, dv: Directive) -> A.OmpSections:
        line = self.cur.line
        self.expect("op", "{")
        sections = []
        while not self.check("op", "}"):
            if self.cur.kind != "pragma":
                raise ParseError("omp sections may only contain "
                                 "#pragma omp section blocks", self.cur.line)
            sub = parse_pragma(self.cur.text, self.cur.line)
            self.advance()
            if sub is None or sub.name != "section":
                raise ParseError("expected #pragma omp section", line)
            sections.append(A.OmpSection(self.statement(), sub.line))
        self.expect("op", "}")
        return A.OmpSections(sections, dv.nowait, dv.line)

    # ---------------------------------------------------------- expressions

    def expression(self) -> A.Node:
        return self._or()

    def _or(self) -> A.Node:
        node = self._and()
        while self.check("op", "||"):
            line = self.advance().line
            node = A.BinOp("||", node, self._and(), line)
        return node

    def _and(self) -> A.Node:
        node = self._equality()
        while self.check("op", "&&"):
            line = self.advance().line
            node = A.BinOp("&&", node, self._equality(), line)
        return node

    def _equality(self) -> A.Node:
        node = self._relational()
        while self.cur.kind == "op" and self.cur.text in ("==", "!="):
            op = self.advance()
            node = A.BinOp(op.text, node, self._relational(), op.line)
        return node

    def _relational(self) -> A.Node:
        node = self._additive()
        while self.cur.kind == "op" and self.cur.text in ("<", "<=", ">", ">="):
            op = self.advance()
            node = A.BinOp(op.text, node, self._additive(), op.line)
        return node

    def _additive(self) -> A.Node:
        node = self._multiplicative()
        while self.cur.kind == "op" and self.cur.text in ("+", "-"):
            op = self.advance()
            node = A.BinOp(op.text, node, self._multiplicative(), op.line)
        return node

    def _multiplicative(self) -> A.Node:
        node = self._unary()
        while self.cur.kind == "op" and self.cur.text in ("*", "/", "%"):
            op = self.advance()
            node = A.BinOp(op.text, node, self._unary(), op.line)
        return node

    def _unary(self) -> A.Node:
        if self.check("op", "-"):
            line = self.advance().line
            return A.UnOp("-", self._unary(), line)
        if self.check("op", "!"):
            line = self.advance().line
            return A.UnOp("!", self._unary(), line)
        return self._postfix()

    def _postfix(self) -> A.Node:
        t = self.cur
        if t.kind == "num":
            self.advance()
            text = t.text
            if "." in text or "e" in text or "E" in text:
                return A.Num(float(text), t.line)
            return A.Num(int(text), t.line)
        if t.kind == "op" and t.text == "(":
            self.advance()
            inner = self.expression()
            self.expect("op", ")")
            return inner
        if t.kind == "id":
            self.advance()
            if self.check("op", "("):
                self.advance()
                args = []
                if not self.check("op", ")"):
                    while True:
                        args.append(self.expression())
                        if not self.accept("op", ","):
                            break
                self.expect("op", ")")
                return A.Call(t.text, args, t.line)
            if self.check("op", "["):
                indices = []
                while self.accept("op", "["):
                    indices.append(self.expression())
                    self.expect("op", "]")
                return A.Index(t.text, indices, t.line)
            return A.Var(t.text, t.line)
        raise ParseError(f"unexpected token {t.text!r}", t.line)


def _norm_type(t: str) -> str:
    return "double" if t == "float" else t


def _clone_lvalue(node: A.Node) -> A.Node:
    """Duplicate an lvalue for compound-assignment desugaring.

    Index expressions are shared structurally; the code generator
    evaluates index expressions once per occurrence, which matches C
    semantics for the side-effect-free index expressions SlipC allows.
    """
    if isinstance(node, A.Var):
        return A.Var(node.name, node.line)
    assert isinstance(node, A.Index)
    return A.Index(node.name, list(node.indices), node.line)


def _slipstream_node(dv: Directive) -> A.OmpSlipstream:
    return A.OmpSlipstream(
        dv.slip_type, dv.slip_tokens,
        if_expr=(parse_expression(dv.if_text, dv.line)
                 if dv.if_text else None),
        line=dv.line)
