"""The operator table: every operator of the language, defined once.

One row per operator, keyed by lexeme and arity.  A row holds
  - the binary precedence level (0 binds loosest), or None for the prefix
    operators, size() and the builtin functions;
  - the typing rule: operand types and the extended-mode flag map to the
    result type, or to None outside the operator's domain;
  - whether the operator exists in extended mode only;
  - the Python function that evaluates it.

The parser, the printer, the type checker and the interpreter all read this
table.  `*` has a precedence level only: the parser lowers it to repeated
addition, so a loaded program has none.  The extended-only operators
are the builtin functions, called by name, since only extended mode has
call syntax.
"""

import operator
from dataclasses import dataclass

from .ast import BOOL, IINT, INT, ISTRING, STRING, is_int_type, is_string_type
from .errors import InternalError
from .values import size_of_value


def sup_type(types):
    """iint when every operand is iint, else int; integer types only."""
    sup = IINT
    for t in types:
        if t is INT:
            sup = INT
        elif t is not IINT:
            raise ValueError(f"sup_type over non-integer type {t}")
    return sup


# -- typing rules, one per family --------------------------------------------


def _bool(types, extended):
    return BOOL if all(t is BOOL for t in types) else None


def _compare(types, extended):
    return BOOL if all(is_int_type(t) for t in types) else None


def _equality(types, extended):
    if all(is_int_type(t) for t in types):
        return BOOL
    # equality also covers strings and booleans in extended mode
    if extended and (all(is_string_type(t) for t in types)
                     or all(t is BOOL for t in types)):
        return BOOL
    return None


def _arith(types, extended):
    """Integer operands give their supremum; this covers unary minus too."""
    try:
        return sup_type(types)
    except ValueError:
        return None


def _size(types, extended):
    t = types[0]
    if t is IINT or (extended and t is ISTRING):
        return IINT
    return None


def _concat(types, extended):
    if is_string_type(types[0]) and types[1] is ISTRING:
        return STRING
    return None


# -- evaluation: total, truncating division ----------------------------------


def _div(a, b):
    if b > 0 and a >= 0:  # the common case, where floor and truncation agree
        return a // b
    q = abs(a) // abs(b) if b else 0
    return q if (a >= 0) == (b >= 0) else -q


def _mod(a, b):
    if b > 0 and a >= 0:
        return a % b
    r = abs(a) % abs(b) if b else 0
    return r if a >= 0 else -r


@dataclass(frozen=True)
class Op:
    lexeme: str
    arity: int
    level: int | None  # binary precedence, None when not infix
    rule: object  # typing rule (types, extended) -> type or None
    fn: object  # Python evaluation function
    extended: bool = False  # defined in extended mode only


TABLE = (
    Op("||", 2, 0, _bool, operator.or_),
    Op("&&", 2, 1, _bool, operator.and_),
    Op("==", 2, 2, _equality, operator.eq),
    Op("!=", 2, 2, _equality, operator.ne),
    Op("<", 2, 3, _compare, operator.lt),
    Op("<=", 2, 3, _compare, operator.le),
    Op(">", 2, 3, _compare, operator.gt),
    Op(">=", 2, 3, _compare, operator.ge),
    Op("+", 2, 4, _arith, operator.add),
    Op("-", 2, 4, _arith, operator.sub),
    Op("*", 2, 5, None, None),
    Op("/", 2, 5, _arith, _div),
    Op("%", 2, 5, _arith, _mod),
    Op("!", 1, None, _bool, operator.not_),
    Op("-", 1, None, _arith, operator.neg),
    Op("size", 1, None, _size, size_of_value),
    Op("min", 2, None, _arith, min, extended=True),
    Op("max", 2, None, _arith, max, extended=True),
    Op("concat", 2, None, _concat, operator.add, extended=True),
)

OPS = {(op.lexeme, op.arity): op for op in TABLE}
PRECEDENCE = {op.lexeme: op.level for op in TABLE if op.level is not None}
LEVELS = max(PRECEDENCE.values()) + 1
# lexeme -> the level whose left-nested operators form one chain in
# ast.left_chain; `*` chains only with itself, since each `*` node is one
# `m*a`, which the parser lowers on its own
CHAIN_LEVEL = {op: lv for op, lv in PRECEDENCE.items() if op != "*"}
BUILTIN_NAMES = tuple(op.lexeme for op in TABLE if op.extended)

# lexeme -> Python function per arity, for the interpreter's hot path.  They
# are exact dicts because CPython looks those up faster than a subclass with
# __missing__; the interpreter reports a missing lexeme itself.
UNARY = {op.lexeme: op.fn for op in TABLE if op.arity == 1}
BINARY = {op.lexeme: op.fn for op in TABLE
          if op.arity == 2 and op.fn is not None}


def apply_op(op, args):
    """Total interpretation of the operators; division by zero yields 0."""
    row = OPS.get((op, len(args)))
    if row is None or row.fn is None:
        raise InternalError(f"unknown operator {op!r}")
    return row.fn(*args)


def op_signature(op, argtypes, extended=False):
    """Partial typing map for operators; None when outside the domain."""
    row = OPS.get((op, len(argtypes)))
    if row is None or row.rule is None or (row.extended and not extended):
        return None
    return row.rule(argtypes, extended)
