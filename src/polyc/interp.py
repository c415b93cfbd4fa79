"""Closure-compiling evaluator with an exact cost mode.

A program is compiled once, at its first run, into Python closures over the
store and the run state (Feeley and Lapalme, "Using closures for code
generation", Computer Languages 12(1), 1987): constants are decoded and
operator functions looked up in polyc.ops while compiling, and a left-nested
chain of one operator runs in one loop, not one frame per term.  The code
serves plain and cost mode and is cached per Program object, keyed on id()
with a weak reference, so a dead program's entry goes with it.  Annotations
the checker or the analysis fill in or rewrite in place are read when run.

Cost mode charges one step per expression node, declaration, function
definition, assignment, break, continue and block entry; the conditional,
loop, empty-block and program rules count without a step.  `&&` and `||`
evaluate both operands, so each slot -- a statement or a function's or the
program's return expression -- has a static rule vector: a run counts slot
executions and folds count x vector into `ic` and `rule_counts` at the end.
The maximum value size is tracked on every bind.  Fuel counts executed
statements.
"""

import weakref
from collections import Counter
from dataclasses import dataclass, field

from .ast import (
    NO_POS, ArrayCtor, Assign, Block, Break, Call, CallStmt, Const, Continue,
    Decl, Expr, For, FunDef, If, Index, OpApp, Paren, Var, walk,
)
from .errors import ArgumentError, FuelExhausted, InternalError, PolyRuntimeError
from .ops import BINARY, BUILTIN_NAMES, UNARY, apply_op
from .values import (
    Builtin, Closure, VArray, default_value, format_value, literal_value,
    size_of_value, value_consistent,
)

_UNLIMITED = 1 << 62

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


def eval_expr(store, expr, cost_mode=False):
    """Evaluate one expression under a store; returns (value, steps)."""
    interp = Interp(cost_mode=cost_mode)
    interp.store = dict(store)
    v = interp.eval(expr)
    return v, interp.steps


def exec_stmt(store, stmt, cost_mode=False):
    """Execute one statement under a store; returns
    (resulting store, steps, loop signal)."""
    interp = Interp(cost_mode=cost_mode)
    interp.store = dict(store)
    sig = interp.exec(stmt)
    return interp.store, interp.steps, sig


class Interp:
    """The state of one run: store, fuel, slot counts and cost totals."""

    def __init__(self, cost_mode=False, mode="core", fuel=None, watch=None):
        self.cost = cost_mode
        self.mode = mode
        self.store = {}
        self.steps = 0
        self.max_size = 0
        self.rule_counts = {}
        self.fuel_limit = fuel if fuel is not None else _UNLIMITED
        self.fuel = self.fuel_limit  # statements left to execute
        self.watch = watch
        self.counts = {}  # slot -> executions not folded yet
        self.metered = cost_mode or fuel is not None  # enter() has work

    def enter(self, slot):
        """Start a statement: spend one unit of fuel and count its slot."""
        self.fuel -= 1
        if self.fuel < 0:
            raise FuelExhausted(
                f"interpreter fuel limit of {self.fuel_limit} statements exceeded")
        if self.cost:
            self.count(slot)

    def count(self, slot):
        self.counts[slot] = self.counts.get(slot, 0) + 1

    def bind(self, st, name, v):
        st[name] = v
        if self.cost:
            self.track(v)

    def track(self, v):
        if v.__class__ is int:
            s = v.bit_length()
        else:
            s = 0 if isinstance(v, (Closure, Builtin)) else size_of_value(v)
        if s > self.max_size:
            self.max_size = s

    def fold(self):
        """Add count x rule vector of every counted slot to the totals."""
        counts, self.counts = self.counts, {}
        for slot, n in counts.items():
            rules, steps = slot.vector()
            self.steps += n * steps
            for rule, k in rules:
                self.rule_counts[rule] = self.rule_counts.get(rule, 0) + n * k

    def eval(self, e):
        try:
            v = _expr(e)(self.store, self)
            if self.cost:
                self.count(_Slot([e]))
            return v
        finally:
            self.fold()

    def exec(self, s):
        """Execute one statement; returns None, "break" or "continue"."""
        try:
            return _stmt(s)(self.store, self)
        finally:
            self.fold()

    def run(self, prog, args):
        if len(args) != len(prog.params):
            raise ArgumentError(
                f"program expects {len(prog.params)} arguments, got {len(args)}")
        body, ret, slot = _program(prog)
        self.store = st = {}
        if self.mode == "extended":
            st.update((name, Builtin(name)) for name in BUILTIN_NAMES)
        for (annot, name), v in zip(prog.params, args):
            if not value_consistent(v, annot):
                raise ArgumentError(
                    f"argument {name!r} must be consistent with {annot}, got "
                    f"{format_value(v)}")
            self.bind(st, name, v)
        try:
            _body(body, st, self, InternalError, "the program body")
            output = ret(st, self)
            if self.cost:
                self.count(slot)
                self.track(output)
        finally:
            self.fold()
        if not self.cost:
            return CostReport(output)
        return CostReport(output, self.steps, self.max_size,
                          dict(self.rule_counts))


class _Slot:
    """The static rule vector of a slot: one rule per expression node it
    evaluates, plus its own.  Computed at the first cost-mode fold."""

    __slots__ = ("exprs", "own", "vec")

    def __init__(self, exprs, *own):
        self.exprs, self.own, self.vec = exprs, own, None

    def vector(self):
        """((rule, count) pairs, steps)."""
        if self.vec is None:
            c = Counter(_RULE.get(n.__class__) for n in walk(self.exprs, Expr))
            c.update(self.own)
            c.pop(None, None)  # nodes that cannot run charge nothing
            steps = sum(k for rule, k in c.items() if rule not in _FREE_RULES)
            self.vec = tuple(c.items()), steps
        return self.vec


_CODE = {}  # id(program) -> (weak reference to it, compiled program)


def _program(prog):
    """The compiled body, return expression and return slot of a program.
    The entry leaves the cache when the program dies, so the cache keeps no
    program alive and a reused id() finds no stale code."""
    key = id(prog)
    entry = _CODE.get(key)
    if entry is None or entry[0]() is not prog:
        code = ([(_stmt(s), s.pos) for s in prog.body], _expr(prog.ret_expr),
                _Slot([prog.ret_expr], "Prog"))
        entry = _CODE[key] = (
            weakref.ref(prog, lambda _, key=key: _CODE.pop(key, None)), code)
    return entry[1]


def _fail(message, pos=NO_POS):
    raise InternalError(message, pos)


def _unbound(v):
    return InternalError(f"variable {v.name!r} unbound at runtime", v.pos)


# -- expressions: closures (store, run) -> value ------------------------------


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
        return var
    if cls is Const:
        k = literal_value(e.text)
        return lambda st, r: k
    if cls is OpApp and len(e.args) == 2:
        return _binary(e)
    if cls is OpApp:
        fn, f = _op(e, UNARY), _expr(e.args[0])
        return lambda st, r: fn(f(st, r))
    if cls is Index:
        base, index, pos = _expr(e.base), _expr(e.index), e.pos
        return lambda st, r: _index(base(st, r), index(st, r), pos)
    if cls is Call:
        fname, args, pos = e.fname, [_expr(a) for a in e.args], e.pos
        return lambda st, r: _call(st, r, fname, args, pos)
    if cls is ArrayCtor:
        length = _expr(e.length)
        return lambda st, r: _new_array(length(st, r), e)
    return lambda st, r: _fail(f"cannot evaluate {e!r}")


def _op(e, table):
    """The operator's function; an unknown operator fails once its operands
    are evaluated."""
    return table.get(e.op) or (
        lambda *vals: _fail(f"unknown operator {e.op!r}", e.pos))


def _binary(e):
    fn = _op(e, BINARY)
    rights, left = [], e  # the right operands of a left-nested chain
    while left.__class__ is OpApp and left.op == e.op and len(left.args) == 2:
        rights.append(left.args[1])
        left = left.args[0]
        while left.__class__ is Paren:
            left = left.inner
    if len(rights) > 1:
        first, rest = _expr(left), [_expr(x) for x in reversed(rights)]

        def chain(st, r):
            v = first(st, r)
            for f in rest:
                v = fn(v, f(st, r))
            return v
        return chain
    right = rights[0]
    if right.__class__ is Const:  # the common cases: x op k, (...) op k
        k = literal_value(right.text)
        if left.__class__ is Var:
            name = left.name

            def var_const(st, r):
                try:
                    return fn(st[name], k)
                except KeyError:
                    raise _unbound(left) from None
            return var_const
        f = _expr(left)
        return lambda st, r: fn(f(st, r), k)
    f, g = _expr(left), _expr(right)
    return lambda st, r: fn(f(st, r), g(st, r))


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
    code = fv.code or _function(fv.params, fv.body, fv.ret_expr, fv.name)
    return code(fv, vals, r)


def _new_array(n, e):
    if e.elem is None:  # the checker fills it in place, maybe after compiling
        _fail("array constructor was not type-checked", e.pos)
    if n < 0:
        raise PolyRuntimeError(f"array length {n} is negative", e.pos)
    return VArray([default_value(e.elem) for _ in range(n)], e.elem)


# -- statements: closures (store, run) -> None, "break" or "continue" ---------
# Each first calls r.enter(slot) when fuel or cost is metered.


def _stmt(s):
    cls = s.__class__
    if cls is Assign and s.lvalue.__class__ is Var:
        name, expr, pos = s.lvalue.name, _expr(s.expr), s.pos
        slot = _Slot([s.expr], "Asgmt")

        def assign(st, r):
            if r.metered:
                r.enter(slot)
            v = expr(st, r)
            if name not in st:
                _fail(f"assignment to unbound variable {name!r}", pos)
            st[name] = v
            if r.cost:
                r.track(v)
        return assign
    if cls is Assign:  # to an array cell; the target's Index nodes are free
        chain, node = [], s.lvalue
        while node.__class__ is Index:
            chain.insert(0, node.index)
            node = node.base
        base, idxs, expr = _expr(node), [_expr(i) for i in chain], _expr(s.expr)
        slot = _Slot([node, *chain, s.expr], "Asgmt")
        return _simple(slot, lambda st, r: _write_cell(
            r, base(st, r), [f(st, r) for f in idxs], expr(st, r), s.pos))
    if cls is If:
        cond, then, els = _expr(s.cond), _stmt(s.then), _stmt(s.els)
        slot = _Slot([s.cond], "Cond")

        def if_(st, r):
            if r.metered:
                r.enter(slot)
            return (then if cond(st, r) else els)(st, r)
        return if_
    if cls is Block:
        fns = [_stmt(x) for x in s.stmts]
        slot = _Slot([], "Block", *(() if fns else ("EmptyBlock",)))

        def block(st, r):
            if r.metered:
                r.enter(slot)
            for fn in fns:
                sig = fn(st, r)
                if sig is not None:
                    return sig
        return block
    if cls is For:
        bound, body = _expr(s.bound), _stmt(s.body)
        return _simple(_Slot([s.bound], "Loop"),
                       lambda st, r: _loop(st, r, bound(st, r), body, s))
    if cls is Decl:  # a fresh default each time: no array is shared
        return _simple(_Slot([], "Decl"), lambda st, r: r.bind(
            st, s.name, default_value(s.annot)))
    if cls is FunDef:
        code = _function(s.params, s.body, s.ret_expr, s.name)
        return _simple(_Slot([], "Fun"), lambda st, r: r.bind(
            st, s.name,
            Closure(dict(st), s.params, s.body, s.ret_expr, s.name, code)))
    if cls is CallStmt:
        return _simple(_Slot([s.call]), _expr(s.call))
    if cls is Break or cls is Continue:
        return _simple(_Slot([], cls.__name__), lambda st, r: None,
                       "break" if cls is Break else "continue")
    return _simple(_Slot([]), lambda st, r: _fail(
        f"cannot execute {s!r} (desugar first)"))


def _simple(slot, action, sig=None):
    """A statement that does `action`, then signals `sig`."""
    def simple(st, r):
        if r.metered:
            r.enter(slot)
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
            if r.cost:
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


def _function(params, body, ret_expr, name):
    """Compile a function to code(closure value, arguments, run)."""
    names, stmts = [n for _, n in params], [(_stmt(x), x.pos) for x in body]
    ret, slot = _expr(ret_expr), _Slot([ret_expr])
    where = f"the body of function {name!r}"

    def invoke(fv, vals, r):
        st = dict(fv.def_store)
        for n, v in zip(names, vals):
            r.bind(st, n, v)
        _body(stmts, st, r, PolyRuntimeError, where)
        v = ret(st, r)
        if r.cost:
            r.count(slot)
        return v
    return invoke


def _body(stmts, st, r, error, where):
    for fn, pos in stmts:
        sig = fn(st, r)
        if sig is not None:
            raise error(f"{sig} escaped {where}", pos)
