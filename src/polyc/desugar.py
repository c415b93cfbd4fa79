"""Lowering of surface sugar to the core constructs (plus the extended
primitives: functions, arrays, strings, break and continue)."""

from .ast import (
    Assign, AugAssign, Block, CallStmt, Const, Decl, DeclInit, For, FunDef,
    If, Incr, OpApp, Paren, Program, Var, rebuild,
)
from .errors import DesugarError

MAX_SCALAR = 1 << 16


def desugar(prog):
    """Expand m*a, +=, ++, declaration initializers and if-without-else."""
    body = _stmts(prog.body)
    return Program(list(prog.params), body, _expr(prog.ret_expr), pos=prog.pos)


def _stmts(stmts):
    return [out for s in stmts for out in _stmt(s)]


def _stmt(s):
    if isinstance(s, DeclInit):
        return [Decl(s.annot, s.name, pos=s.pos),
                Assign(Var(s.name, pos=s.pos), _expr(s.init), pos=s.pos)]
    if isinstance(s, Assign):
        return [Assign(_expr(s.lvalue), _expr(s.expr), pos=s.pos)]
    if isinstance(s, AugAssign):
        lv = _expr(s.lvalue)
        rhs = OpApp(s.op, [lv, _paren(_expr(s.expr))], pos=s.pos)
        return [Assign(lv, rhs, pos=s.pos)]
    if isinstance(s, Incr):
        lv = _expr(s.lvalue)
        return [Assign(lv, OpApp("+", [lv, Const("1", pos=s.pos)], pos=s.pos), pos=s.pos)]
    if isinstance(s, Block):
        return [Block(_stmts(s.stmts), pos=s.pos)]
    if isinstance(s, If):
        els = _stmt_one(s.els) if s.els is not None else Block([], pos=s.pos)
        return [If(_expr(s.cond), _stmt_one(s.then), els, pos=s.pos)]
    if isinstance(s, For):
        return [For(s.counter, _expr(s.bound), _stmt_one(s.body), pos=s.pos)]
    if isinstance(s, FunDef):
        return [FunDef(s.ret, s.name, list(s.params), _stmts(s.body),
                       _expr(s.ret_expr), pos=s.pos)]
    if isinstance(s, CallStmt):
        return [CallStmt(_expr(s.call), pos=s.pos)]
    return [s]  # Decl, Break, Continue


def _stmt_one(s):
    lowered = _stmt(s)
    if len(lowered) == 1:
        return lowered[0]
    return Block(lowered, pos=s.pos)


def _expr(e):
    if isinstance(e, (Var, Const)):
        return e  # shared with the parsed tree; copies would double the time
    if isinstance(e, OpApp) and e.op == "*":
        return _scalar_mul(e)
    return rebuild(e, _expr)


def _is_numeral(e):
    return isinstance(e, Const) and e.text[0].isdigit()


def _scalar_mul(e):
    left, right = e.args
    if _is_numeral(left):
        m, a = left, right
    elif _is_numeral(right):
        m, a = right, left
    else:
        raise DesugarError(
            "general multiplication prohibited: one factor must be a literal",
            e.pos)
    count = int(m.text, 2) if m.text.startswith("0b") else int(m.text)
    if count > MAX_SCALAR:
        raise DesugarError(f"scalar multiplier {count} too large", e.pos)
    a = _paren(_expr(a))
    if count == 0:
        return Const("0", pos=e.pos)
    acc = a
    for _ in range(count - 1):
        acc = OpApp("+", [acc, a], pos=e.pos)
    return acc


def _paren(e):
    """Wrap compound operands so infix expansion keeps the grouping."""
    if isinstance(e, OpApp) and e.op != "size":
        return Paren(e, pos=e.pos)
    return e
