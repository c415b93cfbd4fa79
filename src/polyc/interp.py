"""Closure-compiling evaluator with an exact cost mode.

A program is compiled once, at its first run, into Python closures over the
store and the run state (Feeley and Lapalme, "Using closures for code
generation", Computer Languages 12(1), 1987): constants are decoded and
operators looked up while compiling, a left-nested chain of one precedence
level runs in one loop, and common shapes get closures of their own: `!v`
and `v op k` read the variable inline, and plain mode does not call an empty
else.  The code serves plain and cost mode and is cached per Program object,
keyed on id() with a weak reference.  Annotations the checker or the analysis
fill in or rewrite in place are read when run.

Cost mode charges one step per expression node, declaration, function
definition, assignment, break, continue and block entry; the conditional,
loop, empty-block and program rules count without a step.  Each slot -- a
statement or a function's or the program's return expression -- has a static
rule vector, in which `&&` and `||` evaluate both operands.  Compiling numbers
the slots in one table per program; a run counts `counts[k] += 1` into one
list per run, then folds count x vector into `rule_counts`.  Ints are sized on
each bind, arrays when made, passed in or written; no other value is, so `&&`
and `||` may stop at the operand that decides them when all operands after
the first are pure, at no change in cost.  Fuel counts statements.
"""

import weakref
from collections import Counter
from dataclasses import dataclass, field

from .ast import (
    NO_POS, ArrayCtor, Assign, Block, Break, Call, CallStmt, Const, Continue,
    Decl, Expr, For, FunDef, If, Index, OpApp, Paren, Var, left_chain, walk,
)
from .errors import ArgumentError, FuelExhausted, InternalError, PolyRuntimeError
from .ops import BINARY, BUILTIN_NAMES, UNARY, apply_op
from .values import (
    Builtin, Closure, VArray, default_value, format_value, literal_value,
    size_of_value, value_consistent,
)

# the rule each expression node charges, one step each
_RULE = {Var: "Var", Const: "Const", OpApp: "Op", Paren: "Paren",
         Index: "Index", Call: "App", ArrayCtor: "ArrayCtor"}
# the rules counted without a step
_FREE_RULES = frozenset({"Cond", "Loop", "EmptyBlock", "Prog"})


@dataclass
class CostReport:
    output: object
    ic: int = None
    max_value_size: int = None
    rule_counts: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "output": format_value(self.output).strip('"'),
            "ic": self.ic,
            "max_value_size": self.max_value_size,
        }


def run_program(prog, args, cost_mode=False, mode="core", fuel=None, watch=None):
    """Execute a (type-checked, desugared) program on the given values."""
    interp = Interp(cost_mode=cost_mode, mode=mode, fuel=fuel, watch=watch)
    return interp.run(prog, args)


class Interp:
    """The state of one run: store, fuel, slot counts and cost totals."""

    def __init__(self, cost_mode=False, mode="core", fuel=None, watch=None):
        self.cost, self.mode, self.watch = cost_mode, mode, watch
        self.store, self.rule_counts = {}, {}
        self.steps = self.max_size = 0
        self.fuel_limit = self.fuel = fuel  # statements left to execute
        self.metered = cost_mode or fuel is not None  # statements count slots
        self.counts = None  # executions per slot of the program's table

    def spend(self):
        """Spend the fuel of one statement."""
        self.fuel -= 1
        if self.fuel < 0:
            raise FuelExhausted(
                f"interpreter fuel limit of {self.fuel_limit} statements exceeded")

    def track(self, v):
        """Raise the maximum to v's size; arrays are measured elsewhere."""
        cls = v.__class__
        s = (v.bit_length() if cls is int else 1 if cls is bool
             else len(v) if cls is str else 0)
        if s > self.max_size:
            self.max_size = s

    def run(self, prog, args):
        if len(args) != len(prog.params):
            raise ArgumentError(
                f"program expects {len(prog.params)} arguments, got {len(args)}")
        table, main = _program(prog)
        self.store = st = {}
        if self.mode == "extended":
            st.update((name, Builtin(name)) for name in BUILTIN_NAMES)
        for (annot, name), v in zip(prog.params, args):
            if not value_consistent(v, annot):
                raise ArgumentError(
                    f"argument {name!r} must be consistent with {annot}, got "
                    f"{format_value(v)}")
            st[name] = v
            if self.cost:
                self.max_size = max(self.max_size, size_of_value(v))
        self.counts = counts = [0] * len(table) if self.metered else None
        try:
            output = main(st, self)
        finally:  # a failed run folds what it counted too
            if self.cost:
                totals = self.rule_counts
                for slot, n in zip(table, counts):
                    for rule, k in (slot.rules or slot.vector()) if n else ():
                        totals[rule] = totals.get(rule, 0) + n * k
                self.steps = sum(n for r, n in totals.items() if r not in _FREE_RULES)
        if not self.cost:
            return CostReport(output)
        self.track(output)
        return CostReport(output, self.steps, self.max_size,
                          dict(self.rule_counts))


class _Slot:
    """A statement or return expression: its position and rule vector, one
    rule per expression node it evaluates plus its own, made at first use."""

    __slots__ = ("pos", "exprs", "own", "rules")

    def __init__(self, pos, exprs, own):
        self.pos, self.exprs, self.own, self.rules = pos, exprs, own, None

    def vector(self):
        c = Counter(_RULE.get(n.__class__) for n in walk(self.exprs, Expr))
        c.update(self.own)
        c.pop(None, None)  # nodes that cannot run charge nothing
        self.rules = tuple(c.items())
        return self.rules


def _number(table, pos, exprs, *own):
    """Add a slot to a slot table; returns its number."""
    table.append(_Slot(pos, exprs, own))
    return len(table) - 1


_CODE = {}  # id(program) -> (weak reference to it, slot table, code)


def _program(prog):
    """The slot table and code, main(store, run) -> output, of a program; the
    entry goes with the program, so a reused id() finds no stale code."""
    key = id(prog)
    entry = _CODE.get(key)
    if entry is None or entry[0]() is not prog:
        table = []
        entry = _CODE[key] = (
            weakref.ref(prog, lambda _, key=key: _CODE.pop(key, None)), table,
            _unit(table, prog.body, prog.ret_expr, InternalError,
                  "the program body", "Prog"))
    return entry[1:]


def _fail(message, pos=NO_POS):
    raise InternalError(message, pos)


def _unbound(v):
    return InternalError(f"variable {v.name!r} unbound at runtime", v.pos)


# -- expressions: closures (store, run) -> value ------------------------------
# _expr also returns the set of variables a pure expression reads, None for
# any other; a pure one has only variables, constants and known operators.


def _expr(e):
    while e.__class__ is Paren:  # a parenthesis costs a step but does no work
        e = e.inner
    cls = e.__class__
    if cls is Var:
        name = e.name

        def var(st, r):
            try:
                return st[name]
            except KeyError:
                raise _unbound(e) from None
        return var, frozenset((name,))
    if cls is Const:
        k = literal_value(e.text)
        return (lambda st, r: k), frozenset()
    if cls is OpApp and len(e.args) == 2:
        return _binary(e)
    if cls is OpApp:
        (f, reads), fn, v = _expr(e.args[0]), _op(e, UNARY), e.args[0]
        reads = reads if e.op in UNARY else None
        if v.__class__ is not Var:
            return (lambda st, r: fn(f(st, r))), reads
        name = v.name

        def op_var(st, r):  # !v, -v, size(v)
            try:
                return fn(st[name])
            except KeyError:
                raise _unbound(v) from None
        return op_var, reads
    if cls is Index:
        base, index, pos = _expr(e.base)[0], _expr(e.index)[0], e.pos
        return (lambda st, r: _index(base(st, r), index(st, r), pos)), None
    if cls is Call:
        fname, args, pos = e.fname, [_expr(a)[0] for a in e.args], e.pos
        return (lambda st, r: _call(st, r, fname, args, pos)), None
    if cls is ArrayCtor:
        length = _expr(e.length)[0]
        return (lambda st, r: _new_array(length(st, r), e, r)), None
    return (lambda st, r: _fail(f"cannot evaluate {e!r}")), None


def _op(e, table):
    """The operator's function; an unknown operator fails once its operands
    are evaluated."""
    return table.get(e.op) or (
        lambda *vals: _fail(f"unknown operator {e.op!r}", e.pos))


def _binary(e):
    left, pairs = left_chain(e)
    if (len(pairs) == 1 and left.__class__ is Var and e.op not in ("&&", "||")
            and e.args[1].__class__ is Const):  # the common case: v op k
        fn, k, name = _op(e, BINARY), literal_value(e.args[1].text), left.name

        def var_const(st, r):
            try:
                return fn(st[name], k)
            except KeyError:
                raise _unbound(left) from None
        return var_const, frozenset((name,)) if e.op in BINARY else None
    (first, reads), fns = _expr(left), [_op(node, BINARY) for node, _ in pairs]
    rest, sets = zip(*[_expr(right) for _, right in pairs])
    pure = None not in sets and all(node.op in BINARY for node, _ in pairs)
    tail = frozenset().union(*sets) if pure else None
    reads = None if reads is None or tail is None else reads | tail
    if e.op in ("&&", "||") and tail is not None:
        return _logic(e.op, first, rest, tail), reads
    if len(rest) > 1:
        steps = list(zip(fns, rest))

        def chain(st, r):
            v = first(st, r)
            for fn, f in steps:
                v = fn(v, f(st, r))
            return v
        return chain, reads
    fn, right, g = fns[0], pairs[0][1], rest[0]
    if right.__class__ is Const:  # x op k
        k = literal_value(right.text)
        return (lambda st, r: fn(first(st, r), k)), reads
    return (lambda st, r: fn(first(st, r), g(st, r))), reads


def _logic(op, first, rest, tail):
    """&& or || with pure operands after `first`: it stops at the deciding
    value if their variables, `tail`, are bound, else reads on to the error."""
    fn, decided, (f1, *more) = BINARY[op], op == "||", rest

    def logic(st, r):
        v = first(st, r)
        if v is not decided:
            v = fn(v, f1(st, r))
            if v is not decided:
                for f in more:
                    v = fn(v, f(st, r))
                    if v is decided:
                        break
                else:
                    return v
        for name in tail:
            if name not in st:
                break
        else:
            return v
        for f in rest:  # raises on the first unbound variable
            f(st, r)
    return logic


def _index(b, i, pos):
    if isinstance(b, VArray):
        kind, items = "array", b.items
    elif isinstance(b, str):
        kind, items = "string", b
    else:
        _fail(f"cannot index into {b!r}", pos)
    if 0 <= i < len(items):
        return items[i]
    raise PolyRuntimeError(
        f"{kind} index {i} out of range (length {len(items)})", pos)


def _call(st, r, fname, args, pos):
    if fname not in st:
        _fail(f"function {fname!r} unbound at runtime", pos)
    fv, vals = st[fname], [a(st, r) for a in args]
    if isinstance(fv, Builtin):
        return apply_op(fv.name, vals)
    if not isinstance(fv, Closure):
        _fail(f"{fname!r} is not callable", pos)
    return fv.code(fv, vals, r)


def _new_array(n, e, r):
    if e.elem is None:  # the checker fills it in place, maybe after compiling
        _fail("array constructor was not type-checked", e.pos)
    if n < 0:
        raise PolyRuntimeError(f"array length {n} is negative", e.pos)
    a = VArray([default_value(e.elem) for _ in range(n)], e.elem)
    if n and r.cost:  # measured once, here: every cell holds the default
        r.track(a.items[0])
    return a


# -- statements: closures (store, run) -> None, "break" or "continue" ---------
# Each numbers its slot k in the slot table t; when metered, it first spends
# fuel, if a limit is set, and counts k.


def _stmt(s, t):
    cls = s.__class__
    if cls is Assign and s.lvalue.__class__ is Var:
        name, expr, pos = s.lvalue.name, _expr(s.expr)[0], s.pos
        k = _number(t, pos, [s.expr], "Asgmt")

        def assign(st, r):
            if r.metered:
                if r.fuel is not None:
                    r.spend()
                r.counts[k] += 1
            v = expr(st, r)
            if name not in st:
                _fail(f"assignment to unbound variable {name!r}", pos)
            st[name] = v
            if r.cost and (v.__class__ is not int or v.bit_length() > r.max_size):
                r.track(v)
        return assign
    if cls is Assign:  # to an array cell; the target's Index nodes are free
        chain, node = [], s.lvalue
        while node.__class__ is Index:
            chain.insert(0, node.index)
            node = node.base
        base, expr = _expr(node)[0], _expr(s.expr)[0]
        idxs = [_expr(i)[0] for i in chain]
        return _simple(_number(t, s.pos, [node, *chain, s.expr], "Asgmt"),
                       lambda st, r: _write_cell(r, base(st, r), [
                           f(st, r) for f in idxs], expr(st, r), s.pos))
    if cls is If:
        k = _number(t, s.pos, [s.cond], "Cond")
        cond, then, els = _expr(s.cond)[0], _stmt(s.then, t), _stmt(s.els, t)
        # plain mode does not call an empty else; metered, it counts its slot
        skip = s.els.__class__ is Block and not s.els.stmts

        def if_(st, r):
            if r.metered:
                if r.fuel is not None:
                    r.spend()
                r.counts[k] += 1
                return (then if cond(st, r) else els)(st, r)
            if cond(st, r):
                return then(st, r)
            if not skip:
                return els(st, r)
        return if_
    if cls is Block:
        k = _number(t, s.pos, [], "Block", *(() if s.stmts else ("EmptyBlock",)))
        fns = [_stmt(x, t) for x in s.stmts]

        def block(st, r):
            if r.metered:
                if r.fuel is not None:
                    r.spend()
                r.counts[k] += 1
            for fn in fns:
                sig = fn(st, r)
                if sig is not None:
                    return sig
        return block
    if cls is For:
        k = _number(t, s.pos, [s.bound], "Loop")
        bound, body = _expr(s.bound)[0], _stmt(s.body, t)
        return _simple(k, lambda st, r: _loop(st, r, bound(st, r), body, s))
    if cls is Decl:  # a fresh default each time: no array is shared
        k, name, annot = _number(t, s.pos, [], "Decl"), s.name, s.annot

        def decl(st, r):
            if r.metered:
                if r.fuel is not None:
                    r.spend()
                r.counts[k] += 1
            st[name] = v = default_value(annot)
            if r.cost:
                r.track(v)
        return decl
    if cls is FunDef:
        k = _number(t, s.pos, [], "Fun")
        code = _function(s, t)
        return _simple(k, lambda st, r: st.__setitem__(
            s.name, Closure(dict(st), s.name, code)))
    if cls is CallStmt:
        return _simple(_number(t, s.pos, [s.call]), _expr(s.call)[0])
    if cls is Break or cls is Continue:
        return _simple(_number(t, s.pos, [], cls.__name__), lambda st, r: None,
                       "break" if cls is Break else "continue")
    return _simple(_number(t, s.pos, []), lambda st, r: _fail(
        f"cannot execute {s!r} (desugar first)"))


def _simple(k, action, sig=None):
    """A statement that counts slot k, does `action`, then signals `sig`."""
    def simple(st, r):
        if r.metered:
            if r.fuel is not None:
                r.spend()
            r.counts[k] += 1
        action(st, r)
        return sig
    return simple


def _write_cell(r, target, idxs, v, pos):
    for left, idx in enumerate(idxs, 1 - len(idxs)):  # left == 0: the cell
        if not isinstance(target, VArray):
            _fail("index assignment into non-array", pos)
        if not 0 <= idx < len(target.items):
            raise PolyRuntimeError(f"array index {idx} out of range "
                                   f"(length {len(target.items)})", pos)
        if left:
            target = target.items[idx]
        else:
            target.items[idx] = v
            if r.cost and (v.__class__ is not int or v.bit_length() > r.max_size):
                r.track(v)


def _loop(st, r, n, body, s):
    names, counter = None if r.watch is None else r.watch.get(id(s)), s.counter
    for j in range(n):
        st[counter] = j
        before = names and {x: st[x] for x in names if x in st}
        sig = body(st, r)
        if names and before != {x: st[x] for x in before}:
            _fail("loop body changed the iterable restriction of the store",
                  s.pos)
        if sig == "break":  # "continue" just moves on to the next j
            break
    if n > 0 and r.cost:
        r.track(j)  # the counter only grows: its last value is the largest


def _function(f, t):
    """Compile FunDef f to code(closure value, arguments, run)."""
    names = [n for _, n in f.params]
    main = _unit(t, f.body, f.ret_expr, PolyRuntimeError,
                 f"the body of function {f.name!r}")

    def invoke(fv, vals, r):
        st = dict(fv.def_store)
        st.update(zip(names, vals))
        for v in vals if r.cost else ():
            if v.__class__ is not int or v.bit_length() > r.max_size:
                r.track(v)
        return main(st, r)
    return invoke


def _unit(t, body, ret_expr, error, where, *own):
    """Compile a body and return expression to main(store, run) -> value."""
    stmts, ret = [(_stmt(x, t), x.pos) for x in body], _expr(ret_expr)[0]
    k = _number(t, ret_expr.pos, [ret_expr], *own)

    def main(st, r):
        for fn, pos in stmts:
            sig = fn(st, r)
            if sig is not None:
                raise error(f"{sig} escaped {where}", pos)
        v = ret(st, r)
        if r.cost:
            r.counts[k] += 1
        return v
    return main
