"""AST node definitions shared by the core and extended language."""

import functools
from dataclasses import dataclass


@dataclass(slots=True, unsafe_hash=True)
class Pos:
    line: int
    col: int

    def __str__(self):
        return f"{self.line}:{self.col}"


NO_POS = Pos(0, 0)


# ---------------------------------------------------------------------------
# Type annotations


class Type:
    """Base class for type annotations."""


@dataclass(frozen=True)
class Fundamental(Type):
    name: str

    def __str__(self):
        return self.name

    # the five instances below are singletons; identity must survive a deep
    # copy, which the benchmark makes of array arguments
    def __deepcopy__(self, memo):
        return self


IINT = Fundamental("iint")
INT = Fundamental("int")
BOOL = Fundamental("bool")
STRING = Fundamental("string")
ISTRING = Fundamental("istring")


@dataclass(frozen=True)
class ArrayT(Type):
    elem: Type

    def __str__(self):
        return f"array<{self.elem}>"


@dataclass(frozen=True)
class Arrow(Type):
    params: tuple
    ret: Type

    def __str__(self):
        inner = ",".join(str(p) for p in self.params)
        return f"({inner})->{self.ret}"


def is_iterable_type(t):
    return t is IINT or t is ISTRING


def is_int_type(t):
    return t is IINT or t is INT


def is_string_type(t):
    return t is STRING or t is ISTRING


def type_class(t):
    """Partition tag used by the assignment-compatibility relation."""
    if is_int_type(t):
        return "Int"
    if t is BOOL:
        return "Bool"
    if is_string_type(t):
        return "Str"
    if isinstance(t, ArrayT):
        return ("Array", type_class(t.elem))
    if isinstance(t, Arrow):
        return ("Arrow", t)
    raise ValueError(f"no class for {t}")


def subtype_of(t1, t2):
    """Pointwise argument order: iterable types may feed non-iterable slots."""
    if t1 == t2:
        return True
    if t1 is IINT and t2 is INT:
        return True
    if t1 is ISTRING and t2 is STRING:
        return True
    return False


# ---------------------------------------------------------------------------
# Expressions and statements


class Expr:
    __slots__ = ()


class Stmt:
    __slots__ = ()


# Each node class: its name, base and fields in order; a field marked :str or
# :Type holds no node.  Every class ends with `pos`, which, like ArrayCtor's
# element annotation (backfilled by the type checker), equality ignores.
_CLASSES = """
Var Expr name:str
Const Expr text:str
OpApp Expr op:str args
Paren Expr inner
Call Expr fname:str args
Index Expr base index
ArrayCtor Expr length
Decl Stmt annot:Type name:str
Assign Stmt lvalue expr
Block Stmt stmts
If Stmt cond then els
For Stmt counter:str bound body
FunDef Stmt ret:Type name:str params body ret_expr
Break Stmt
Continue Stmt
CallStmt Stmt call
Program object params body ret_expr
"""
# Notes on fields: Const.text is the surface text (digits, 0b digits,
# true/false or "..."); Assign.lvalue is a Var or an Index chain over one;
# If.els is an empty Block for an if without else; For.bound is
# OpApp("size", [e]) or a numeral; FunDef.params and Program.params hold
# (Type, name) pairs.  Program keeps a __dict__, where the interpreter keeps
# its compiled code.


def _define(table):
    """Compile the classes of `table` in one go, with dataclass-style
    __init__, __eq__ and __repr__, unhashable, and slotted but for Program;
    each class's _fields gives its field order and _nodes the fields that
    can hold nodes."""
    src = []
    for line in table.strip().splitlines():
        name, base, *spec = line.split()
        compared = [f.split(":")[0] for f in spec]
        defaults = {"pos": "NO_POS", **({"elem": "None"} if name == "ArrayCtor" else {})}
        names = (*compared, *defaults)
        params = ", ".join(["self", *compared, *(f"{n}={v}" for n, v in defaults.items())])
        key = "({})".format("".join(f"{{0}}.{n}, " for n in compared))
        shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
        src += [f"class {name}({base}):",
                f"    __slots__ = {names}" if base != "object" else "",
                f"    _fields, _nodes = {names}, {tuple(f for f in spec if ':' not in f)}",
                "    __hash__ = None",
                f"    def __init__({params}):", *(f"        self.{n} = {n}" for n in names),
                "    def __eq__(self, other):",
                "        if other.__class__ is not self.__class__:",
                "            return NotImplemented",
                f"        return {key.format('self')} == {key.format('other')}",
                "    def __repr__(self):", f"        return f'{name}({shown})'"]
    exec(compile("\n".join(src), __name__, "exec"), globals())


_define(_CLASSES)
_NODES = (Expr, Stmt)


def rebuild(node, fn):
    """A new node of the same class with `fn` applied to each child; every
    other field, the position included, is kept.  Built by the constructor,
    whose nodes the interpreter reads faster than ones with a copied dict.
    A left-nested chain of one precedence level is rebuilt in one loop: `fn`
    goes to its leftmost operand, then to each right operand, in the order
    the recursion would take; a link whose operands `fn` returns as they are
    is kept, not copied."""
    if node.__class__ is OpApp and len(node.args) == 2:
        left, pairs = left_chain(node)
        acc = fn(left)
        for op, right in pairs:
            new = fn(right)
            if acc is not op.args[0] or new is not right:
                op = OpApp(op.op, [acc, new], op.pos)
            acc = op
        return acc
    values = []
    for name in node._fields:
        value = getattr(node, name)
        if isinstance(value, list):
            items = []
            for v in value:
                items.append(fn(v) if isinstance(v, _NODES) else v)
            value = items
        elif isinstance(value, _NODES):
            value = fn(value)
        values.append(value)
    return type(node)(*values)


def clone(node):
    """Copy an AST; no Expr or Stmt object is shared with the original."""
    return rebuild(node, clone)


def walk(nodes, kind=_NODES):
    """Pre-order walk over `nodes` and their descendants of class `kind`.
    A node's children are the Expr and Stmt values of its fields in field
    order, list fields flattened; names, operators, types, (type, name)
    parameter pairs and positions are not children.  An explicit stack keeps
    deep nesting off the Python stack."""
    stack = list(reversed(nodes))
    while stack:
        node = stack.pop()
        yield node
        for name in reversed(node._nodes):
            value = getattr(node, name)
            if isinstance(value, list):
                stack.extend([v for v in reversed(value) if isinstance(v, kind)])
            elif isinstance(value, kind):
                stack.append(value)


@functools.cache
def _chain_level():
    from .ops import CHAIN_LEVEL  # ops imports this module
    return CHAIN_LEVEL


def left_chain(e):
    """A left-nested chain of the binary operators of one precedence level,
    ending at OpApp `e`, as the leftmost operand and the (operator node,
    right operand) pairs in the order they apply; a parenthesis ends the
    chain, and an operator without a level chains only with itself.  So a
    chain of any length, `x+x-x+...` included, is handled in one loop, not
    one frame per term."""
    levels = _chain_level()
    level = levels.get(e.op, e.op)
    pairs = []
    node = e
    while (node.__class__ is OpApp and len(node.args) == 2
           and levels.get(node.op, node.op) == level):
        pairs.append((node, node.args[1]))
        node = node.args[0]
    pairs.reverse()
    return node, pairs


def walk_stmts(stmts):
    """Yield every statement in a statement list and all nested ones."""
    return walk(stmts, Stmt)


def walk_exprs(e):
    """Yield an expression and all its subexpressions."""
    return walk([e], Expr)


def program_names(prog):
    """All identifiers referred to in a program (variables and functions)."""
    names = set(n for _, n in prog.params)
    for node in walk(prog.body + [prog.ret_expr]):
        if isinstance(node, (Decl, Var)):
            names.add(node.name)
        elif isinstance(node, For):
            names.add(node.counter)
        elif isinstance(node, FunDef):
            names.add(node.name)
            names.update(n for _, n in node.params)
        elif isinstance(node, Call):
            names.add(node.fname)
    return names


def fresh_name(base, taken):
    if base not in taken:
        return base
    k = 2
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"
