"""Pretty printer. Output reparses to a structurally identical AST.

The printer never invents grouping for ASTs produced by the parser or by the
code generators in this package: those keep explicit Paren nodes wherever the
infix surface form needs parentheses.  For other ASTs it still emits correct
(semantics-preserving) parentheses, at the cost of the exact round trip.
Every If has an else branch (the parser gives an else-less `if` an empty
one), so a bare then-branch never takes an else that is not its own.
"""

from .ast import (
    ArrayCtor, Assign, Block, Break, Call, CallStmt, Const, Continue, Decl,
    For, FunDef, If, Index, OpApp, Paren, Var, left_chain,
)
from .ops import LEVELS, PRECEDENCE


def expr_level(e):
    if isinstance(e, OpApp) and len(e.args) == 2:
        return PRECEDENCE[e.op]
    return LEVELS  # atoms, size() and the prefix operators bind tightest


def expr_str(e, min_level=0):
    s = _expr_str(e)
    if expr_level(e) < min_level:
        return f"({s})"
    return s


def _expr_str(e):
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        return e.text
    if isinstance(e, Paren):
        return f"({expr_str(e.inner)})"
    if isinstance(e, OpApp):
        if e.op == "size":
            return f"size({expr_str(e.args[0])})"
        if len(e.args) == 1:
            return e.op + expr_str(e.args[0], LEVELS)
        lv = PRECEDENCE[e.op]
        left, pairs = left_chain(e)  # one loop, not one frame per term
        parts = [expr_str(left, lv)]
        for node, right in pairs:
            parts += (node.op, expr_str(right, lv + 1))
        return "".join(parts)
    if isinstance(e, Call):
        args = ",".join(map(expr_str, e.args))
        return f"{e.fname}({args})"
    if isinstance(e, Index):
        return f"{expr_str(e.base, LEVELS)}[{expr_str(e.index)}]"
    if isinstance(e, ArrayCtor):
        return f"array({expr_str(e.length)})"
    raise TypeError(f"cannot print expression {e!r}")


class _Emitter:
    def __init__(self):
        self.lines = []
        self.depth = 0

    def line(self, text):
        self.lines.append("    " * self.depth + text)

    def stmt(self, s):
        if isinstance(s, Decl):
            self.line(f"{s.annot} {s.name};")
        elif isinstance(s, Assign):
            self.line(f"{expr_str(s.lvalue)}={expr_str(s.expr)};")
        elif isinstance(s, Break):
            self.line("break;")
        elif isinstance(s, Continue):
            self.line("continue;")
        elif isinstance(s, CallStmt):
            self.line(f"{expr_str(s.call)};")
        elif isinstance(s, Block):
            self.line("{")
            self.indented(s.stmts)
            self.line("}")
        elif isinstance(s, If):
            self.if_chain(s, prefix="")
        elif isinstance(s, For):
            head = f"for({s.counter}<{expr_str(s.bound)})"
            self.attach_body(head, s.body)
        elif isinstance(s, FunDef):
            params = ",".join(f"{t} {n}" for t, n in s.params)
            self.line(f"{s.ret} {s.name}({params}){{")
            self.indented(s.body, ret=s.ret_expr)
            self.line("}")
        else:
            raise TypeError(f"cannot print statement {s!r}")

    def if_chain(self, s, prefix):
        head = f"{prefix}if({expr_str(s.cond)})"
        if isinstance(s.then, Block):
            if s.then.stmts:
                self.line(head + " {")
                self.indented(s.then.stmts)
                self.else_part("} else", s.els)
            else:
                self.else_part(head + " { } else", s.els)
        else:
            self.line(head)
            self.indented([s.then])
            self.else_part("else", s.els)

    def else_part(self, lead, els):
        if isinstance(els, Block):
            if els.stmts:
                self.line(lead + " {")
                self.indented(els.stmts)
                self.line("}")
            else:
                self.line(lead + " {}")
        elif isinstance(els, If):
            self.if_chain(els, prefix=lead + " ")
        else:
            self.line(lead)
            self.indented([els])

    def attach_body(self, head, body):
        if isinstance(body, Block):
            if body.stmts:
                self.line(head + " {")
                self.indented(body.stmts)
                self.line("}")
            else:
                self.line(head + " { }")
        elif isinstance(body, (Decl, Assign, Break, Continue, CallStmt)):
            save = len(self.lines)
            self.stmt(body)
            self.lines[save] = "    " * self.depth + head + " " + self.lines[save].lstrip()
        else:
            self.line(head)
            self.indented([body])

    def indented(self, stmts, ret=None):
        """Emit statements one level deeper, then `return ret;` if given."""
        self.depth += 1
        for inner in stmts:
            self.stmt(inner)
        if ret is not None:
            self.line(f"return {expr_str(ret)};")
        self.depth -= 1


def pretty_print(prog, mode_marker=None):
    """Render a Program back to source text."""
    em = _Emitter()
    if mode_marker:
        em.line(f"// mode: {mode_marker}")
    params = ",".join(f"{t} {n}" for t, n in prog.params)
    em.line(f"int main({params}){{")
    em.indented(prog.body, ret=prog.ret_expr)
    em.line("}")
    return "\n".join(em.lines) + "\n"
