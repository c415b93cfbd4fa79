"""Big-step evaluator with an optional cost-accounting mode.

Cost mode charges one step for every variable read, constant, parenthesis,
operator application, declaration, assignment and block entry; sequences,
conditionals and loops only add up their parts.  It also records per-rule
execution counts and the maximum bit-size reached by any stored value.

The expression evaluator is the hot path: operators are dispatched through
the per-arity function tables of polyc.ops, and the fuel counter is
maintained per statement.
"""

from dataclasses import dataclass, field

from .ast import (
    ArrayCtor, Assign, Block, Break, Call, CallStmt, Const, Continue, Decl,
    For, FunDef, If, Index, OpApp, Paren, Var,
)
from .errors import ArgumentError, FuelExhausted, InternalError, PolyRuntimeError
from .ops import BINARY, BUILTIN_NAMES, UNARY, apply_op
from .values import (
    Builtin, Closure, VArray, default_value, format_value, literal_value,
    size_of_value, value_consistent,
)

_UNLIMITED = 1 << 62


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
    def __init__(self, cost_mode=False, mode="core", fuel=None, watch=None):
        self.cost = cost_mode
        self.mode = mode
        self.store = {}
        self.steps = 0
        self.max_size = 0
        self.rule_counts = {}
        self.fuel_limit = fuel if fuel is not None else _UNLIMITED
        self.fuel_used = 0
        self.watch = watch

    # -- bookkeeping --------------------------------------------------------

    def rule(self, name):
        self.rule_counts[name] = self.rule_counts.get(name, 0) + 1

    def charge(self, name):
        """One cost-model step, counted under the named rule."""
        self.steps += 1
        self.rule_counts[name] = self.rule_counts.get(name, 0) + 1

    def track(self, v):
        if isinstance(v, (Closure, Builtin)):
            return
        s = size_of_value(v)
        if s > self.max_size:
            self.max_size = s

    def bind(self, name, v):
        self.store[name] = v
        if self.cost:
            self.track(v)

    # -- expressions --------------------------------------------------------

    def eval(self, e):
        cls = e.__class__
        if cls is Var:
            if self.cost:
                self.charge("Var")
            try:
                return self.store[e.name]
            except KeyError:
                raise InternalError(f"variable {e.name!r} unbound at runtime",
                                    e.pos) from None
        if cls is OpApp:
            args = e.args
            if len(args) == 2:
                a = self.eval(args[0])
                b = self.eval(args[1])
                if self.cost:
                    self.charge("Op")
                try:
                    fn = BINARY[e.op]
                except KeyError:
                    raise InternalError(f"unknown operator {e.op!r}", e.pos) from None
                return fn(a, b)
            a = self.eval(args[0])
            if self.cost:
                self.charge("Op")
            try:
                fn = UNARY[e.op]
            except KeyError:
                raise InternalError(f"unknown operator {e.op!r}", e.pos) from None
            return fn(a)
        if cls is Const:
            if self.cost:
                self.charge("Const")
            return literal_value(e.text)
        if cls is Paren:
            v = self.eval(e.inner)
            if self.cost:
                self.charge("Paren")
            return v
        if cls is Index:
            base = self.eval(e.base)
            idx = self.eval(e.index)
            if self.cost:
                self.charge("Index")
            return self.index_read(base, idx, e)
        if cls is Call:
            return self.call(e)
        if cls is ArrayCtor:
            n = self.eval(e.length)
            if self.cost:
                self.charge("ArrayCtor")
            if e.elem is None:
                raise InternalError("array constructor was not type-checked", e.pos)
            if n < 0:
                raise PolyRuntimeError(f"array length {n} is negative", e.pos)
            return VArray([default_value(e.elem) for _ in range(n)], e.elem)
        raise InternalError(f"cannot evaluate {e!r}")

    def index_read(self, base, idx, e):
        if isinstance(base, VArray):
            if 0 <= idx < len(base.items):
                return base.items[idx]
            raise PolyRuntimeError(
                f"array index {idx} out of range (length {len(base.items)})", e.pos)
        if isinstance(base, str):
            if 0 <= idx < len(base):
                return base[idx]
            raise PolyRuntimeError(
                f"string index {idx} out of range (length {len(base)})", e.pos)
        raise InternalError(f"cannot index into {base!r}", e.pos)

    def call(self, e):
        try:
            fv = self.store[e.fname]
        except KeyError:
            raise InternalError(f"function {e.fname!r} unbound at runtime",
                                e.pos) from None
        vals = [self.eval(a) for a in e.args]
        if self.cost:
            self.charge("App")
        if isinstance(fv, Builtin):
            return apply_op(fv.name, vals)
        if not isinstance(fv, Closure):
            raise InternalError(f"{e.fname!r} is not callable", e.pos)
        saved = self.store
        self.store = dict(fv.def_store)
        try:
            for (_, name), v in zip(fv.params, vals):
                self.bind(name, v)
            for s in fv.body:
                sig = self.exec(s)
                if sig is not None:
                    raise PolyRuntimeError(
                        f"{sig} escaped the body of function {fv.name!r}", s.pos)
            return self.eval(fv.ret_expr)
        finally:
            self.store = saved

    # -- statements ---------------------------------------------------------

    def exec(self, s):
        """Execute one statement; returns None, "break" or "continue"."""
        self.fuel_used += 1
        if self.fuel_used > self.fuel_limit:
            raise FuelExhausted(
                f"interpreter fuel limit of {self.fuel_limit} steps exceeded")
        cls = s.__class__
        if cls is Assign:
            return self.assign(s)
        if cls is If:
            b = self.eval(s.cond)
            if self.cost:
                self.rule("Cond")
            return self.exec(s.then if b else s.els)
        if cls is Block:
            if self.cost:
                self.charge("Block")
                if not s.stmts:
                    self.rule("EmptyBlock")
            for st in s.stmts:
                sig = self.exec(st)
                if sig is not None:
                    return sig
            return None
        if cls is For:
            return self.loop(s)
        if cls is Decl:
            if self.cost:
                self.charge("Decl")
            self.bind(s.name, default_value(s.annot))
            return None
        if cls is FunDef:
            if self.cost:
                self.charge("Fun")
            self.bind(s.name, Closure(dict(self.store), s.params, s.body,
                                      s.ret_expr, s.name))
            return None
        if cls is Break:
            if self.cost:
                self.charge("Break")
            return "break"
        if cls is Continue:
            if self.cost:
                self.charge("Continue")
            return "continue"
        if cls is CallStmt:
            self.eval(s.call)
            return None
        raise InternalError(f"cannot execute {s!r} (desugar first)")

    def assign(self, s):
        lv = s.lvalue
        if lv.__class__ is Var:
            v = self.eval(s.expr)
            if self.cost:
                self.charge("Asgmt")
                if lv.name not in self.store:
                    raise InternalError(
                        f"assignment to unbound variable {lv.name!r}", s.pos)
                self.bind(lv.name, v)
                return None
            if lv.name not in self.store:
                raise InternalError(
                    f"assignment to unbound variable {lv.name!r}", s.pos)
            self.store[lv.name] = v
            return None
        # index chain: resolve the target cell, then write
        chain = []
        node = lv
        while node.__class__ is Index:
            chain.append(node)
            node = node.base
        base = self.eval(node)
        idxs = []
        for ix in reversed(chain):
            idxs.append(self.eval(ix.index))
        v = self.eval(s.expr)
        if self.cost:
            self.charge("Asgmt")
        target = base
        last = len(idxs) - 1
        for depth, idx in enumerate(idxs):
            if not isinstance(target, VArray):
                raise InternalError("index assignment into non-array", s.pos)
            if not 0 <= idx < len(target.items):
                raise PolyRuntimeError(
                    f"array index {idx} out of range (length {len(target.items)})",
                    s.pos)
            if depth == last:
                target.items[idx] = v
                if self.cost:
                    self.track(v)
            else:
                target = target.items[idx]
        return None

    def loop(self, s):
        bound = self.eval(s.bound)
        if self.cost:
            self.rule("Loop")
        if bound <= 0:
            return None
        watch_names = None
        if self.watch is not None:
            watch_names = self.watch.get(id(s))
        counter = s.counter
        store = self.store
        body = s.body
        track = self.cost
        for j in range(bound):
            store[counter] = j
            if track:
                self.track(j)
            if watch_names is None:
                sig = self.exec(body)
            else:
                before = {n: store[n] for n in watch_names if n in store}
                sig = self.exec(body)
                store = self.store
                after = {n: store[n] for n in watch_names if n in store}
                if before != {n: after[n] for n in before}:
                    raise InternalError(
                        "loop body changed the iterable restriction of the store",
                        s.pos)
            if sig == "break":
                break
            # "continue" simply moves on to the next iteration
        return None

    # -- programs -----------------------------------------------------------

    def run(self, prog, args):
        if len(args) != len(prog.params):
            raise ArgumentError(
                f"program expects {len(prog.params)} arguments, got {len(args)}")
        self.store = {}
        if self.mode == "extended":
            for name in BUILTIN_NAMES:
                self.store[name] = Builtin(name)
        for (annot, name), v in zip(prog.params, args):
            if not value_consistent(v, annot):
                raise ArgumentError(
                    f"argument {name!r} must be consistent with {annot}, got "
                    f"{format_value(v)}")
            self.bind(name, v)
        for s in prog.body:
            sig = self.exec(s)
            if sig is not None:
                raise InternalError(f"{sig} escaped the program body", s.pos)
        output = self.eval(prog.ret_expr)
        if self.cost:
            self.rule("Prog")
            self.track(output)
            return CostReport(output, self.steps, self.max_size,
                              dict(self.rule_counts))
        return CostReport(output)
