"""Lowering of surface sugar to the core constructs (plus the extended
primitives: functions, arrays, strings, break and continue).

Lowering is copy-on-write: a subtree with no sugar comes back as the same
object, only the path above what is lowered is rebuilt, and the input is
not changed.
"""

from dataclasses import replace
from operator import is_

from .ast import (
    ArrayCtor, Assign, AugAssign, Block, Break, Const, Continue, Decl,
    DeclInit, If, Incr, OpApp, Paren, Var, _node_fields, rebuild,
)
from .errors import DesugarError

MAX_SCALAR = 1 << 16
# nodes with nothing to lower; a tuple is a (type, name) parameter
_LEAVES = {Var, Const, Decl, Break, Continue, tuple}


def desugar(prog):
    """Expand m*a, +=, ++, declaration initializers and if-without-else."""
    return _lower(prog)


def _lower(node):
    cls = node.__class__
    if cls in _LEAVES:
        return node
    pos = node.pos
    if cls is OpApp and len(node.args) == 2:
        if node.op == "*":
            return _scalar_mul(node)
        return rebuild(node, _lower)  # a chain, in one loop
    if cls is AugAssign or cls is Incr:  # x += e, x -= e and x++
        lv = _lower(node.lvalue)
        rhs = _paren(_lower(node.expr)) if cls is AugAssign else Const("1", pos=pos)
        op = node.op if cls is AugAssign else "+"
        return Assign(lv, OpApp(op, [lv, rhs], pos=pos), pos=pos)
    if cls is If:  # the else branch first, so its errors are reported first
        els = Block([], pos=pos) if node.els is None else _lower(node.els)
        cond, then = _lower(node.cond), _lower(node.then)
        if cond is node.cond and then is node.then and els is node.els:
            return node
        return If(cond, then, els, pos=pos)
    if cls is DeclInit:  # a branch of its own; in a list, _list lowers it
        return Block(_list([node]), pos=pos)
    if cls is ArrayCtor:  # always a new node: the checker writes its elem
        return ArrayCtor(_lower(node.length), pos=pos)
    changes = {}
    for name in _node_fields(cls):
        old = getattr(node, name)
        new = _list(old) if old.__class__ is list else _lower(old)
        if new is not old:
            changes[name] = new
    return replace(node, **changes) if changes else node


def _list(items):
    """Lowered statements, expressions or parameters; `items` itself when
    none changes."""
    out = []
    for s in items:
        if s.__class__ is DeclInit:
            out += [Decl(s.annot, s.name, pos=s.pos),
                    Assign(Var(s.name, pos=s.pos), _lower(s.init), pos=s.pos)]
        else:
            out.append(_lower(s))
    if len(out) == len(items) and all(map(is_, out, items)):
        return items
    return out


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
    a = _paren(_lower(a))
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
