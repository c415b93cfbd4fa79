"""Recursive descent parser producing the shared AST.

Core mode accepts the minimal language only; extended mode adds functions,
arrays, strings, break/continue and assignment sugar.  The parser lowers
all sugar as it reads it: `void` functions, multiple declarators, `T x = e`
(a Decl and an Assign), an `if` without `else` (an empty else Block),
`x += e` / `x -= e` / `x++` (`x = x + e`, `e` parenthesized if compound) and
`m*a` for a numeral `m` (m copies of `a` added up).  So its output is core
statements and operators only.
"""

from .ast import (
    ArrayCtor, ArrayT, Assign, Block, Break, Call, CallStmt, Const, Continue,
    Decl, For, FunDef, If, Index, OpApp, Paren, Pos, Program, Var,
    BOOL, IINT, INT, ISTRING, STRING,
)
from .errors import DesugarError, ParseError
from .lexer import tokenize
from .ops import OPS, PRECEDENCE
from .values import int_to_decimal, literal_value

CORE_TYPES = {"iint": IINT, "int": INT, "bool": BOOL}
EXT_TYPES = {"string": STRING, "istring": ISTRING}
JUMPS = {"break": Break, "continue": Continue}
LITERALS = ("decimal-literal", "binary-literal", "string-literal")
# Nested statements, subexpressions and array element types count one level
# each.  A fixed count, not the Python stack, makes the limit the same for
# every caller; passes recursing up to 3 frames a level stay under 1,000.
MAX_NESTING = 260
MAX_SCALAR = 1 << 16  # the largest m in m*a


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
        # the m*a error to report once the whole program has parsed, so that
        # every lexical and syntax error comes first
        self.pending = None

    # -- token helpers ------------------------------------------------------
    # A token is a (kind, lexeme, line, col) tuple; a Pos is made only for
    # a token that positions a node or a diagnostic.  `self.i += 1` passes
    # only a token that was matched, never the closing eof token, so
    # toks[i] always exists, and so does toks[i + 1] after a matched token.

    def pos(self, t=None):
        """The position of token `t`, by default the next token."""
        _, _, line, col = t or self.toks[self.i]
        return Pos(line, col)

    def at(self, lexeme):
        # identifiers and literals never spell a keyword or a symbol
        return self.toks[self.i][1] == lexeme

    def accept(self, lexeme):
        t = self.toks[self.i]
        if t[1] == lexeme:
            self.i += 1
            return t
        return None

    def expect(self, lexeme):
        t = self.toks[self.i]
        if t[1] != lexeme:
            self.fail(f"expected {lexeme!r}, found {t[1]!r}")
        self.i += 1
        return t

    def expect_ident(self):
        t = self.toks[self.i]
        if t[0] != "identifier":
            self.fail(f"expected identifier, found {t[1]!r}")
        self.i += 1
        return t

    def fail(self, msg, pos=None, core=False):
        raise ParseError(msg, pos or self.pos(), core_violation=core)

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
        start = self.pos()
        self.expect("int")
        main = self.expect_ident()
        if main[1] != "main":
            self.fail("program entry point must be named 'main'", self.pos(main))
        self.expect("(")
        params = self.params(allow_any_type=(self.mode == "extended"))
        self.expect(")")
        self.expect("{")
        body = self.stmts_until(("return",), "expected statement or 'return'")
        self.expect("return")
        ret = self.expr()
        self.expect(";")
        self.expect("}")
        kind, lexeme, _, _ = self.toks[self.i]
        if kind != "eof":
            self.fail(f"trailing input after program: {lexeme!r}")
        if self.pending is not None:
            raise self.pending
        return Program(params, body, ret, pos=start)

    def params(self, allow_any_type):
        params = []
        if self.at(")"):
            return params
        while True:
            t = self.type_annot()
            if not allow_any_type and t is not INT:
                self.fail("main parameters must be int in core mode", core=True)
            params.append((t, self.expect_ident()[1]))
            if not self.accept(","):
                return params

    def type_annot(self):
        lexeme = self.toks[self.i][1]
        if lexeme in CORE_TYPES:
            self.i += 1
            return CORE_TYPES[lexeme]
        if lexeme in EXT_TYPES:
            self.need_extended(f"type {lexeme}")
            self.i += 1
            return EXT_TYPES[lexeme]
        if lexeme == "array":
            self.need_extended("array types")
            self.i += 1
            self.expect("<")
            self.deeper()
            elem = self.type_annot()
            self.depth -= 1
            self.expect(">")
            return ArrayT(elem)
        self.fail(f"expected a type, found {lexeme!r}")

    def stmts_until(self, ends, unterminated):
        """Statements up to a token in `ends`; eof or a stray '}' fails."""
        out = []
        while True:
            kind, lexeme, _, _ = self.toks[self.i]
            if lexeme in ends:
                return out
            if kind == "eof" or lexeme == "}":
                self.fail(unterminated)
            out.extend(self.stmt())

    def stmt(self):
        """Parse one statement; multi-declarator lines yield several nodes."""
        t = self.toks[self.i]
        rule = STMT_RULES.get(t[1])
        if rule is not None:
            return rule(self)
        if t[0] == "identifier":
            if self.toks[self.i + 1][1] == "(":
                self.need_extended("call statements")
                call = self.expr_primary()
                self.expect(";")
                return [CallStmt(call, pos=self.pos(t))]
            return [self.assign_stmt()]
        self.fail(f"expected statement, found {t[1]!r}")

    def jump_stmt(self):
        t = self.toks[self.i]
        self.need_extended(t[1])
        self.i += 1
        self.expect(";")
        return [JUMPS[t[1]](pos=self.pos(t))]

    def typed_stmt(self):
        """A function definition or declaration(s): '(' after the name
        tells them apart."""
        start = self.i
        annot = self.type_annot()
        t = self.toks[self.i]
        if t[0] == "identifier" and self.toks[self.i + 1][1] == "(":
            self.i = start
            return self.fun_def()
        return self.decl_stmt(annot)

    def branch_stmt(self):
        self.deeper()
        stmts = self.stmt()
        self.depth -= 1
        if len(stmts) == 1:
            return stmts[0]
        if len(stmts) == 2 and stmts[1].__class__ is Assign:  # T x = e
            return Block(stmts, pos=stmts[0].pos)
        self.fail("multiple declarators not allowed here", stmts[0].pos)

    def block(self):
        start = self.pos(self.expect("{"))
        self.deeper()
        stmts = self.stmts_until(("}",), "unterminated block")
        self.depth -= 1
        self.expect("}")
        return [Block(stmts, pos=start)]

    def if_stmt(self):
        start = self.pos(self.expect("if"))
        before = self.pending
        cond = self.parenthesized()
        then = self.branch_stmt()
        if self.accept("else"):
            # an m*a error in the else branch wins over one in the
            # condition or the then branch
            held, self.pending = self.pending, before
            els = self.branch_stmt()
            self.pending = self.pending or held
        else:
            self.need_extended("if without else")
            els = Block([], pos=start)
        return [If(cond, then, els, pos=start)]

    def for_stmt(self):
        start = self.pos(self.expect("for"))
        self.expect("(")
        counter = self.expect_ident()[1]
        self.expect("<")
        bound = self.loop_bound()
        self.expect(")")
        body = self.branch_stmt()
        return [For(counter, bound, body, pos=start)]

    def loop_bound(self):
        t = self.toks[self.i]
        if t[1] == "size" or t[0] in ("decimal-literal", "binary-literal"):
            return self.expr_primary()
        self.fail("loop bound must be size(e) or an integer literal", self.pos(t))

    def fun_def(self):
        self.need_extended("function definitions")
        self.deeper()
        start = self.pos()
        ret = None if self.accept("void") else self.type_annot()
        name = self.expect_ident()[1]
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
                self.fail(f"function {name!r} must end with a return statement")
            ret_expr = Const("0", pos=start)
        self.expect("}")
        if ret is None:
            ret = INT  # void sugar
        self.depth -= 1
        return [FunDef(ret, name, params, body, ret_expr, pos=start)]

    def decl_stmt(self, annot):
        out = []
        while True:
            name = self.expect_ident()
            pos = self.pos(name)
            out.append(Decl(annot, name[1], pos=pos))
            if self.accept("="):
                self.need_extended("declaration initializers")
                out.append(Assign(Var(name[1], pos=pos), self.expr(), pos=pos))
            if not self.accept(","):
                break
            self.need_extended("multiple declarators")
        self.expect(";")
        return out

    def assign_stmt(self):
        lv = self.lvalue()
        t = self.toks[self.i]
        op = t[1]
        if op == "=":
            self.i += 1
            rhs = self.expr()
            self.expect(";")
            return Assign(lv, rhs, pos=self.pos(t))
        if op in ("+=", "-="):
            self.need_extended(f"{op} assignment")
            self.i += 1
            rhs = self.expr()
            self.expect(";")
        elif op == "++":
            self.i += 1
            self.need_extended("++ statements")
            self.expect(";")
            rhs = Const("1", pos=self.pos(t))
        else:
            self.fail(f"expected assignment operator, found {op!r}")
        pos = self.pos(t)  # x op= e is x = x op e, the target shared
        return Assign(lv, OpApp(op[0], [lv, _paren(rhs)], pos=pos), pos=pos)

    def lvalue(self):
        t = self.expect_ident()
        return self.indexed(Var(t[1], pos=self.pos(t)))

    # -- expressions --------------------------------------------------------

    def expr(self, min_level=0):
        """Binary operators at `min_level` or tighter, left associative, by
        precedence climbing: a right operand binds tighter than its operator."""
        self.deeper()
        before = self.pending
        node = self.expr_unary()
        written = True  # `node` is an operand as written, not a reduction
        t = self.toks[self.i]
        level = PRECEDENCE.get(t[1], -1)
        while level >= min_level:
            self.i += 1  # an operator is not the eof token
            rhs = self.expr(level + 1)
            if t[1] == "*":  # nothing binds tighter: rhs is as written
                node = self.scalar_mul(node, rhs, written, t, before)
            else:
                node = OpApp(t[1], [node, rhs], pos=self.pos(t))
            written = False
            t = self.toks[self.i]
            level = PRECEDENCE.get(t[1], -1)
        self.depth -= 1
        return node

    def scalar_mul(self, left, right, left_written, t, before):
        """`left * right` lowered to m copies of the other factor added up,
        m being a numeral factor as written, the left one first."""
        pos = self.pos(t)
        if left_written and _is_numeral(left):
            m, a = left, right
        elif _is_numeral(right):
            m, a = right, left
        else:
            return self.hold("general multiplication prohibited: one factor "
                             "must be a literal", pos, before, left, right)
        count = literal_value(m.text)
        if count > MAX_SCALAR:
            return self.hold(f"scalar multiplier {int_to_decimal(count)} too "
                             "large", pos, before, left, right)
        if count == 0:
            return Const("0", pos=pos)
        acc = a = _paren(a)
        for _ in range(count - 1):
            acc = OpApp("+", [acc, a], pos=pos)
        return acc

    def hold(self, msg, pos, before, left, right):
        """Keep the error of a failing `*` for the end of the parse, and let
        the `*` stand for itself in the tree.  The outer `*` is reported
        first, so the error replaces one held since `before` (one in its own
        operands) and gives way to an earlier one."""
        if before is None:
            self.pending = DesugarError(msg, pos)
        return OpApp("*", [left, right], pos=pos)

    def parenthesized(self):
        self.expect("(")
        inner = self.expr()
        self.expect(")")
        return inner

    def expr_unary(self):
        t = self.toks[self.i]
        if t[0] == "operator-symbol" and (t[1], 1) in OPS:
            self.i += 1
            self.deeper()
            node = OpApp(t[1], [self.expr_unary()], pos=self.pos(t))
            self.depth -= 1
            return node
        return self.indexed(self.expr_primary())

    def indexed(self, node):
        """`node` followed by any number of [index] suffixes."""
        while self.at("["):
            self.need_extended("array indexing")
            lb = self.expect("[")
            idx = self.expr()
            self.expect("]")
            node = Index(node, idx, pos=self.pos(lb))
        return node

    def expr_primary(self):
        t = self.toks[self.i]
        kind, lexeme, _, _ = t
        if kind == "identifier":
            self.i += 1
            if self.toks[self.i][1] != "(":
                return Var(lexeme, pos=self.pos(t))
            self.need_extended("function calls")
            self.i += 1
            args = []
            if not self.at(")"):
                while True:
                    args.append(self.expr())
                    if not self.accept(","):
                        break
            self.expect(")")
            return Call(lexeme, args, pos=self.pos(t))
        if kind in LITERALS or lexeme in ("true", "false"):
            if kind == "string-literal":
                self.need_extended("string literals")
            self.i += 1
            return Const(lexeme, pos=self.pos(t))
        if lexeme == "size":
            self.i += 1
            return OpApp("size", [self.parenthesized()], pos=self.pos(t))
        if lexeme == "array":
            self.need_extended("array constructors")
            self.i += 1
            return ArrayCtor(self.parenthesized(), pos=self.pos(t))
        if lexeme == "(":
            # not parenthesized(): one frame less per nesting level
            self.i += 1
            inner = self.expr()
            self.expect(")")
            return Paren(inner, pos=self.pos(t))
        self.fail(f"expected expression, found {lexeme!r}")


def _is_numeral(e):
    return e.__class__ is Const and e.text[0].isdigit()


def _paren(e):
    """Wrap a compound operand so that infix expansion keeps its grouping."""
    if e.__class__ is OpApp and e.op != "size":
        return Paren(e, pos=e.pos)
    return e


# The statement a token starts, keyed on its lexeme (no identifier or literal
# spells one); each rule returns the statements it parsed.
STMT_RULES = {"{": Parser.block, "if": Parser.if_stmt, "for": Parser.for_stmt,
              "void": Parser.fun_def,
              **dict.fromkeys(JUMPS, Parser.jump_stmt),
              **dict.fromkeys([*CORE_TYPES, *EXT_TYPES, "array"],
                              Parser.typed_stmt)}
