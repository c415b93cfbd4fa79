"""Lowering of the sugar whose expansion depends on a lowered operand:
`m*a`, and `x += e` / `x -= e`, whose right side is parenthesized only if it
is still compound once lowered.  The parser lowers every other sugar form.

Lowering is copy-on-write: a subtree with no sugar comes back as the same
object, only the path above what is lowered is rebuilt, and the input is
not changed.
"""

from dataclasses import replace
from operator import is_

from .ast import (
    ArrayCtor, Assign, AugAssign, Break, Const, Continue, Decl, If, OpApp,
    Paren, Var, _node_fields, rebuild,
)
from .errors import DesugarError
from .values import int_to_decimal, literal_value

MAX_SCALAR = 1 << 16
# nodes with nothing to lower; a tuple is a (type, name) parameter
_LEAVES = {Var, Const, Decl, Break, Continue, tuple}


def desugar(prog):
    """Expand m*a, += and -=."""
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
    if cls is AugAssign:  # x += e and x -= e
        lv = _lower(node.lvalue)
        rhs = _paren(_lower(node.expr))
        return Assign(lv, OpApp(node.op, [lv, rhs], pos=pos), pos=pos)
    if cls is If:  # the else branch first, so its errors are reported first
        els = _lower(node.els)
        cond, then = _lower(node.cond), _lower(node.then)
        if cond is node.cond and then is node.then and els is node.els:
            return node
        return If(cond, then, els, pos=pos)
    if cls is ArrayCtor:  # always a new node: the checker writes its elem
        return ArrayCtor(_lower(node.length), pos=pos)
    changes = {}
    for name in _node_fields(cls):
        old = getattr(node, name)
        if old.__class__ is list:  # statements, arguments or parameters
            new = [_lower(s) for s in old]
            if not all(map(is_, new, old)):
                changes[name] = new
        elif (new := _lower(old)) is not old:
            changes[name] = new
    return replace(node, **changes) if changes else node


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
    count = literal_value(m.text)
    if count > MAX_SCALAR:
        raise DesugarError(
            f"scalar multiplier {int_to_decimal(count)} too large", e.pos)
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
