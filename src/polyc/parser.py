"""Recursive descent parser producing the shared AST.

Core mode accepts the minimal language only; extended mode adds functions,
arrays, strings, break/continue and assignment sugar.  Sugar forms are kept
in the AST and lowered by desugar().
"""

from .ast import (
    ArrayCtor, ArrayT, Assign, AugAssign, Block, Break, Call, CallStmt, Const,
    Continue, Decl, DeclInit, For, FunDef, If, Incr, Index, OpApp, Paren,
    Program, Var, BOOL, IINT, INT, ISTRING, STRING,
)
from .errors import ParseError
from .lexer import tokenize
from .ops import OPS, PRECEDENCE

CORE_TYPES = {"iint": IINT, "int": INT, "bool": BOOL}
EXT_TYPES = {"string": STRING, "istring": ISTRING}
JUMPS = {"break": Break, "continue": Continue}
LITERALS = ("decimal-literal", "binary-literal", "string-literal")
# Nested statements, subexpressions and array element types count one level
# each.  A fixed count, not the Python stack, makes the limit the same for
# every caller; passes recursing up to 3 frames a level stay under 1,000.
MAX_NESTING = 260


def detect_mode(source):
    for line in source.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("//"):
            tag = stripped[2:].strip()
            if tag == "mode: extended":
                return "extended"
            if tag == "mode: core":
                return "core"
            continue
        break
    return "core"


def parse_source(source, mode=None):
    if mode is None:
        mode = detect_mode(source)
    return parse_program(tokenize(source), mode)


def parse_program(tokens, mode="core"):
    return Parser(tokens, mode).program()


class Parser:
    def __init__(self, tokens, mode):
        if mode not in ("core", "extended"):
            raise ValueError(f"unknown mode {mode!r}")
        self.toks = tokens
        self.i = 0
        self.mode = mode
        self.depth = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead=0):
        # next() stops at the closing eof token, so toks[i] always exists
        if ahead:
            return self.toks[min(self.i + ahead, len(self.toks) - 1)]
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, lexeme):
        # identifiers and literals never spell a keyword or a symbol
        return self.toks[self.i].lexeme == lexeme

    def accept(self, lexeme):
        # a token that matches is not the eof token, so it can be passed
        t = self.toks[self.i]
        if t.lexeme == lexeme:
            self.i += 1
            return t
        return None

    def expect(self, lexeme):
        t = self.toks[self.i]
        if t.lexeme != lexeme:
            self.fail(f"expected {lexeme!r}, found {t.lexeme!r}")
        self.i += 1
        return t

    def expect_ident(self):
        t = self.peek()
        if t.kind != "identifier":
            self.fail(f"expected identifier, found {t.lexeme!r}")
        return self.next()

    def fail(self, msg, pos=None, core=False):
        raise ParseError(msg, pos or self.peek().pos, core_violation=core)

    def deeper(self):
        """Enter one nesting level; the caller leaves it with `depth -= 1`.
        An error ends the whole parse, so it needs no unwinding."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail("program nests too deeply")

    def need_extended(self, feature):
        if self.mode != "extended":
            self.fail(f"{feature} requires extended mode", core=True)

    # -- grammar ------------------------------------------------------------

    def program(self):
        start = self.peek().pos
        self.expect("int")
        main = self.expect_ident()
        if main.lexeme != "main":
            self.fail("program entry point must be named 'main'", main.pos)
        self.expect("(")
        params = self.params(allow_any_type=(self.mode == "extended"))
        self.expect(")")
        self.expect("{")
        body = self.stmts_until(("return",), "expected statement or 'return'")
        self.expect("return")
        ret = self.expr()
        self.expect(";")
        self.expect("}")
        if self.peek().kind != "eof":
            self.fail(f"trailing input after program: {self.peek().lexeme!r}")
        return Program(params, body, ret, pos=start)

    def params(self, allow_any_type):
        params = []
        if self.at(")"):
            return params
        while True:
            t = self.type_annot()
            if not allow_any_type and t is not INT:
                self.fail("main parameters must be int in core mode", core=True)
            name = self.expect_ident()
            params.append((t, name.lexeme))
            if not self.accept(","):
                return params

    def type_annot(self):
        t = self.peek()
        if t.lexeme in CORE_TYPES:
            self.next()
            return CORE_TYPES[t.lexeme]
        if t.lexeme in EXT_TYPES:
            self.need_extended(f"type {t.lexeme}")
            self.next()
            return EXT_TYPES[t.lexeme]
        if t.lexeme == "array":
            self.need_extended("array types")
            self.next()
            self.expect("<")
            self.deeper()
            elem = self.type_annot()
            self.depth -= 1
            self.expect(">")
            return ArrayT(elem)
        self.fail(f"expected a type, found {t.lexeme!r}")

    def stmts_until(self, ends, unterminated):
        """Statements up to a token in `ends`; eof or a stray '}' fails."""
        out = []
        while self.toks[self.i].lexeme not in ends:
            if self.peek().kind == "eof" or self.at("}"):
                self.fail(unterminated)
            out.extend(self.stmt())
        return out

    def stmt(self):
        """Parse one statement; multi-declarator lines yield several nodes."""
        t = self.peek()
        rule = STMT_RULES.get(t.lexeme)
        if rule is not None:
            return rule(self)
        if t.kind == "identifier":
            if self.peek(1).lexeme == "(":
                self.need_extended("call statements")
                call = self.expr_primary()
                self.expect(";")
                return [CallStmt(call, pos=t.pos)]
            return [self.assign_stmt()]
        self.fail(f"expected statement, found {t.lexeme!r}")

    def jump_stmt(self):
        t = self.peek()
        self.need_extended(t.lexeme)
        self.next()
        self.expect(";")
        return [JUMPS[t.lexeme](pos=t.pos)]

    def typed_stmt(self):
        """A function definition or declaration(s): '(' after the name
        tells them apart."""
        start = self.i
        annot = self.type_annot()
        if self.peek().kind == "identifier" and self.peek(1).lexeme == "(":
            self.i = start
            return self.fun_def()
        return self.decl_stmt(annot)

    def branch_stmt(self):
        self.deeper()
        stmts = self.stmt()
        self.depth -= 1
        if len(stmts) != 1:
            self.fail("multiple declarators not allowed here", stmts[0].pos)
        return stmts[0]

    def block(self):
        start = self.expect("{").pos
        self.deeper()
        stmts = self.stmts_until(("}",), "unterminated block")
        self.depth -= 1
        self.expect("}")
        return [Block(stmts, pos=start)]

    def if_stmt(self):
        start = self.expect("if").pos
        cond = self.parenthesized()
        then = self.branch_stmt()
        if self.accept("else"):
            els = self.branch_stmt()
        else:
            self.need_extended("if without else")
            els = None
        return [If(cond, then, els, pos=start)]

    def for_stmt(self):
        start = self.expect("for").pos
        self.expect("(")
        counter = self.expect_ident()
        self.expect("<")
        bound = self.loop_bound()
        self.expect(")")
        body = self.branch_stmt()
        return [For(counter.lexeme, bound, body, pos=start)]

    def loop_bound(self):
        t = self.peek()
        if self.at("size") or t.kind in ("decimal-literal", "binary-literal"):
            return self.expr_primary()
        self.fail("loop bound must be size(e) or an integer literal", t.pos)

    def fun_def(self):
        self.need_extended("function definitions")
        self.deeper()
        start = self.peek().pos
        ret = None if self.accept("void") else self.type_annot()
        name = self.expect_ident()
        self.expect("(")
        params = self.params(allow_any_type=True)
        self.expect(")")
        self.expect("{")
        body = self.stmts_until(("return", "}"), "unterminated function body")
        if self.accept("return"):
            ret_expr = self.expr()
            self.expect(";")
        else:
            if ret is not None:
                self.fail(f"function {name.lexeme!r} must end with a return statement")
            ret_expr = Const("0", pos=start)
        self.expect("}")
        if ret is None:
            ret = INT  # void sugar
        self.depth -= 1
        return [FunDef(ret, name.lexeme, params, body, ret_expr, pos=start)]

    def decl_stmt(self, annot):
        out = []
        while True:
            name = self.expect_ident()
            if self.accept("="):
                self.need_extended("declaration initializers")
                out.append(DeclInit(annot, name.lexeme, self.expr(), pos=name.pos))
            else:
                out.append(Decl(annot, name.lexeme, pos=name.pos))
            if not self.accept(","):
                break
            self.need_extended("multiple declarators")
        self.expect(";")
        return out

    def assign_stmt(self):
        lv = self.lvalue()
        t = self.peek()
        if self.accept("="):
            rhs = self.expr()
            self.expect(";")
            return Assign(lv, rhs, pos=t.pos)
        if t.lexeme in ("+=", "-="):
            self.need_extended(f"{t.lexeme} assignment")
            self.next()
            rhs = self.expr()
            self.expect(";")
            return AugAssign(t.lexeme[0], lv, rhs, pos=t.pos)
        if self.accept("++"):
            self.need_extended("++ statements")
            self.expect(";")
            return Incr(lv, pos=t.pos)
        self.fail(f"expected assignment operator, found {t.lexeme!r}")

    def lvalue(self):
        name = self.expect_ident()
        return self.indexed(Var(name.lexeme, pos=name.pos))

    # -- expressions --------------------------------------------------------

    def expr(self, min_level=0):
        """Binary operators at `min_level` or tighter, left associative, by
        precedence climbing: a right operand binds tighter than its operator."""
        self.deeper()
        node = self.expr_unary()
        t = self.peek()
        while PRECEDENCE.get(t.lexeme, -1) >= min_level:
            self.next()
            rhs = self.expr(PRECEDENCE[t.lexeme] + 1)
            node = OpApp(t.lexeme, [node, rhs], pos=t.pos)
            t = self.peek()
        self.depth -= 1
        return node

    def parenthesized(self):
        self.expect("(")
        inner = self.expr()
        self.expect(")")
        return inner

    def expr_unary(self):
        t = self.peek()
        if t.kind == "operator-symbol" and (t.lexeme, 1) in OPS:
            self.next()
            self.deeper()
            node = OpApp(t.lexeme, [self.expr_unary()], pos=t.pos)
            self.depth -= 1
            return node
        return self.indexed(self.expr_primary())

    def indexed(self, node):
        """`node` followed by any number of [index] suffixes."""
        while self.at("["):
            self.need_extended("array indexing")
            lb = self.next()
            idx = self.expr()
            self.expect("]")
            node = Index(node, idx, pos=lb.pos)
        return node

    def expr_primary(self):
        t = self.peek()
        if t.kind in LITERALS or t.lexeme in ("true", "false"):
            if t.kind == "string-literal":
                self.need_extended("string literals")
            self.next()
            return Const(t.lexeme, pos=t.pos)
        if self.at("size"):
            self.next()
            return OpApp("size", [self.parenthesized()], pos=t.pos)
        if self.at("array"):
            self.need_extended("array constructors")
            self.next()
            return ArrayCtor(self.parenthesized(), pos=t.pos)
        if self.at("("):
            # not parenthesized(): one frame less per nesting level
            self.next()
            inner = self.expr()
            self.expect(")")
            return Paren(inner, pos=t.pos)
        if t.kind == "identifier":
            self.next()
            if self.at("("):
                self.need_extended("function calls")
                self.next()
                args = []
                if not self.at(")"):
                    while True:
                        args.append(self.expr())
                        if not self.accept(","):
                            break
                self.expect(")")
                return Call(t.lexeme, args, pos=t.pos)
            return Var(t.lexeme, pos=t.pos)
        self.fail(f"expected expression, found {t.lexeme!r}")


# The statement a token starts, keyed on its lexeme (no identifier or literal
# spells one); each rule returns the statements it parsed.
STMT_RULES = {"{": Parser.block, "if": Parser.if_stmt, "for": Parser.for_stmt,
              "void": Parser.fun_def,
              **dict.fromkeys(JUMPS, Parser.jump_stmt),
              **dict.fromkeys([*CORE_TYPES, *EXT_TYPES, "array"],
                              Parser.typed_stmt)}
