"""Evaluator with an exact cost mode: statements compile to closures,
expressions to generated Python.

A program is compiled once, at its first run, for plain and cost mode, and
the code is cached per Program object, keyed on id() with a weak reference.
Statements become closures over the store and the run state (Feeley and
Lapalme, "Using closures for code generation", Computer Languages 12(1),
1987); plain mode does not call an empty else.  Each expression becomes one
generated function g(store, run).  Its source is the expression's shape:
names, decoded constants and positions are parameters of a factory, and a
bounded cache keeps one compiled factory per shape.  A scope tracks the
names bound at each point of the program: a read of one indexes the store,
any other read checks that it is bound.  Annotations the checker or the
analysis fill in or rewrite in place are read when run.

Cost mode charges one step per expression node, declaration, function
definition, assignment, break, continue and block entry; the conditional,
loop, empty-block and program rules count without a step.  Each slot -- a
statement or a function's or the program's return expression -- has a static
rule vector, in which `&&` and `||` evaluate both operands.  Compiling numbers
the slots in one table per program; a run counts `counts[k] += 1` into one
list per run, then folds count x vector into `rule_counts`.  Ints are sized on
each bind, arrays when made, passed in or written; no other value is, so `&&`
and `||` may stop at the operand that decides them when all operands after
the first are pure and read bound names, at no change in cost.  Fuel counts
statements.
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
    Builtin, Closure, VArray, default_value, format_value, int_to_decimal,
    literal_value, size_of_value, value_consistent,
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
        return {"output": format_value(self.output).strip('"'), "ic": self.ic,
                "max_value_size": self.max_value_size}


def run_program(prog, args, cost_mode=False, mode="core", fuel=None, watch=None):
    """Execute a (type-checked) program on the given values."""
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
                    for rule, k in (slot[0] or _vector(slot)) if n else ():
                        totals[rule] = totals.get(rule, 0) + n * k
                self.steps = sum(n for r, n in totals.items() if r not in _FREE_RULES)
        if not self.cost:
            return CostReport(output)
        self.track(output)
        return CostReport(output, self.steps, self.max_size,
                          dict(self.rule_counts))


def _number(table, exprs, *own):
    """Add a slot -- a statement's or return expression's rule vector, made at
    first use, the expressions it evaluates and its own rules; its number."""
    table.append([None, exprs, own])
    return len(table) - 1


def _vector(slot):
    """One rule per expression node the slot evaluates, plus its own."""
    c = Counter(_RULE.get(n.__class__) for n in walk(slot[1], Expr))
    c.update(slot[2])
    c.pop(None, None)  # nodes that cannot run charge nothing
    slot[0] = tuple(c.items())
    return slot[0]


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
                  "the program body", dict.fromkeys(n for _, n in prog.params),
                  "Prog"))
    return entry[1:]


def _fail(message, pos=NO_POS):
    raise InternalError(message, pos)


# -- expressions: generated functions g(store, run) -> value -----------------
# A shape's factory takes what its source reads as parameters p0, p1, ...

_SHAPES = {}  # (parameter count, source) -> factory, oldest first
SHAPES_MAX = 4096
_DEPTH = 48  # the most brackets one shape nests; deeper parts are own shapes
_CHAIN = 32  # the most operators one shape chains; a longer chain runs _fold
_INFIX = {"+": " + ", "-": " - ", "==": " == ", "!=": " != ", "<": " < ",
          "<=": " <= ", ">": " > ", ">=": " >= ", "&&": " & ", "||": " | "}
_STOP = {"&&": (" and ", False), "||": (" or ", True)}


def _branch(s, t, sc, *names):
    """Compile s with `names` bound too, then unbind the names bound since
    (the last keys of sc, a dict): a branch may not run to its end."""
    mark = len(sc)
    for name in names:
        sc[name] = None
    code = _stmt(s, t, sc)
    while len(sc) > mark:
        sc.popitem()
    return code


def _expr(e, scope):
    """Compile expression e to (g, pure); see _emit for pure."""
    ps = []
    text, pure = _emit(e, scope, ps, 0)
    key = (len(ps), text)
    factory = _SHAPES.get(key)
    if factory is None:
        if len(_SHAPES) >= SHAPES_MAX:
            del _SHAPES[next(iter(_SHAPES))]
        names = ", ".join([f"p{k}" for k in range(len(ps))])
        code = compile(f"def factory({names}):\n def g(st, r):\n  return "
                       f"{text}\n return g", "<polyc expression>", "exec")
        exec(code, globals(), ns := {})
        factory = _SHAPES[key] = ns["factory"]
    return factory(*ps), pure


def _emit(e, scope, ps, depth):
    """Python source of e, which reads parameter k, appended to ps, as p<k>,
    and whether e is pure: only variables in `scope`, constants and known
    operators, so evaluating it cannot fail or size a value."""
    cls = e.__class__
    if cls is Var:
        k = len(ps)
        if e.name in scope:
            ps.append(e.name)
            return f"st[p{k}]", True
        ps += e.name, e.pos
        return f"_load(st, p{k}, p{k + 1})", False
    if cls is Const:
        ps.append(literal_value(e.text))
        return f"p{len(ps) - 1}", True
    if cls is Paren:  # a parenthesis costs a step but does no work
        return _emit(e.inner, scope, ps, depth)
    if depth > _DEPTH:
        g, pure = _expr(e, scope)
        ps.append(g)
        return f"p{len(ps) - 1}(st, r)", pure
    if cls is OpApp and len(e.args) == 2:
        left, right = e.args
        pairs = left_chain(e)[1] if left.__class__ is OpApp else ((e, right),)
        if len(pairs) > _CHAIN:  # each operand is a shape of its own
            (first, pure), k = _expr(pairs[0][0].args[0], scope), len(ps)
            steps = [(BINARY.get(n.op) or _unknown(n), *_expr(x, scope))
                     for n, x in pairs]
            tail = all(p and n.op in BINARY
                       for (n, _), (_, _, p) in zip(pairs, steps))
            ps += first, steps, _STOP[e.op][1] if e.op in _STOP and tail else None
            return f"_fold(st, r, p{k}, p{k + 1}, p{k + 2})", pure and tail
        depth += len(pairs)
        text, pure = _emit(pairs[0][0].args[0], scope, ps, depth)
        if e.op in _STOP:  # which chains only with itself
            texts, tail = [text], True
            for _, right in pairs:
                text, p = _emit(right, scope, ps, depth)
                texts.append(text)
                tail = tail and p
            # it stops at the operand that decides it when the rest are pure
            join = _STOP[e.op][0] if tail else _INFIX[e.op]
            return f"({join.join(texts)})", pure and tail
        for node, right in pairs:
            t, p = _emit(right, scope, ps, depth)
            infix, pure = _INFIX.get(node.op), pure and p and node.op in BINARY
            if not infix:  # a function: / and % here, or an unknown operator
                ps.append(BINARY.get(node.op) or _unknown(node))
            text = f"({text}{infix}{t})" if infix else f"p{len(ps) - 1}({text}, {t})"
        return text, pure
    if cls is OpApp:
        text, pure = _emit(e.args[0], scope, ps, depth + 1)
        if e.op == "!" or e.op == "-":
            return f"({'not ' if e.op == '!' else '-'}{text})", pure
        ps.append(UNARY.get(e.op) or _unknown(e))
        return f"p{len(ps) - 1}({text})", pure and e.op in UNARY
    if cls is Index:
        base, index = [_emit(x, scope, ps, depth + 1)[0] for x in (e.base, e.index)]
        ps.append(e.pos)
        return f"_index({base}, {index}, p{len(ps) - 1})", False
    if cls is Call:  # the callee is looked up before the arguments run
        k = len(ps)
        ps += e.fname, e.pos
        fn = (f"st[p{k}]" if e.fname in scope
              else f'_load(st, p{k}, p{k + 1}, "function")')
        args = ", ".join([_emit(a, scope, ps, depth + 2)[0] for a in e.args])
        return f"_call({fn}, [{args}], p{k}, p{k + 1}, r)", False
    if cls is ArrayCtor:
        length = _emit(e.length, scope, ps, depth + 1)[0]
        ps.append(e)
        return f"_new_array({length}, p{len(ps) - 1}, r)", False
    ps.append(f"cannot evaluate {e!r}")
    return f"_fail(p{len(ps) - 1})", False


def _fold(st, r, first, steps, decided):
    """A long chain, left to right; it stops at the value `decided`."""
    v = first(st, r)
    for fn, g, _ in steps:
        if v is decided:
            break
        v = fn(v, g(st, r))
    return v


def _unknown(e):
    """An operator outside the table: it fails once its operands are run."""
    return lambda *vals: _fail(f"unknown operator {e.op!r}", e.pos)


def _load(st, name, pos, kind="variable"):
    """A read of a name that may be unbound, in an unchecked program."""
    try:
        return st[name]
    except KeyError:
        raise InternalError(f"{kind} {name!r} unbound at runtime", pos) from None


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
        f"{kind} index {int_to_decimal(i)} out of range (length {len(items)})", pos)


def _call(fv, vals, fname, pos, r):
    if isinstance(fv, Builtin):
        return apply_op(fv.name, vals)
    if not isinstance(fv, Closure):
        _fail(f"{fname!r} is not callable", pos)
    return fv.code(fv, vals, r)


def _new_array(n, e, r):
    if e.elem is None:  # the checker fills it in place, maybe after compiling
        _fail("array constructor was not type-checked", e.pos)
    if n < 0:
        raise PolyRuntimeError(f"array length {int_to_decimal(n)} is negative", e.pos)
    a = VArray([default_value(e.elem) for _ in range(n)], e.elem)
    if n and r.cost:  # measured once, here: every cell holds the default
        r.track(a.items[0])
    return a


# -- statements: closures (store, run) -> None, "break" or "continue" ---------
# Each numbers its slot k in the slot table t; when metered, it first spends
# fuel, if a limit is set, and counts k.  The scope `sc` gains the names its
# Decls and FunDefs bind: a block that is run to its end has run them, but
# a branch, a loop body or a function body may not have.


def _stmt(s, t, sc):
    cls = s.__class__
    if cls is Assign and s.lvalue.__class__ is Var:
        name, expr, pos = s.lvalue.name, _expr(s.expr, sc)[0], s.pos
        k, check = _number(t, [s.expr], "Asgmt"), name not in sc

        def assign(st, r):
            if r.metered:
                if r.fuel is not None:
                    r.spend()
                r.counts[k] += 1
            v = expr(st, r)
            if check and name not in st:
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
        base, expr = _expr(node, sc)[0], _expr(s.expr, sc)[0]
        idxs = [_expr(i, sc)[0] for i in chain]
        return _simple(_number(t, [node, *chain, s.expr], "Asgmt"),
                       lambda st, r: _write_cell(r, base(st, r), [
                           f(st, r) for f in idxs], expr(st, r), s.pos))
    if cls is If:
        k, cond = _number(t, [s.cond], "Cond"), _expr(s.cond, sc)[0]
        then, els = _branch(s.then, t, sc), _branch(s.els, t, sc)
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
        k = _number(t, [], "Block", *(() if s.stmts else ("EmptyBlock",)))
        fns = [_stmt(x, t, sc) for x in s.stmts]

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
        k, bound = _number(t, [s.bound], "Loop"), _expr(s.bound, sc)[0]
        body = _branch(s.body, t, sc, s.counter)
        return _simple(k, lambda st, r: _loop(st, r, bound(st, r), body, s))
    if cls is Decl:  # a fresh default each time: no array is shared
        k, name, annot = _number(t, [], "Decl"), s.name, s.annot
        sc[name] = None

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
        k, code = _number(t, [], "Fun"), _function(s, t, sc)
        sc[s.name] = None
        return _simple(k, lambda st, r: st.__setitem__(
            s.name, Closure(dict(st), s.name, code)))
    if cls is CallStmt:
        return _simple(_number(t, [s.call]), _expr(s.call, sc)[0])
    if cls is Break or cls is Continue:
        return _simple(_number(t, [], cls.__name__), lambda st, r: None,
                       "break" if cls is Break else "continue")
    return _simple(_number(t, []), lambda st, r: _fail(
        f"cannot execute {s!r}"))


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
            raise PolyRuntimeError(f"array index {int_to_decimal(idx)} out of range "
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


def _function(f, t, sc):
    """Compile FunDef f to code(closure value, arguments, run); like its store,
    its scope copies the one where it is defined and adds its parameters."""
    names = [n for _, n in f.params]
    main = _unit(t, f.body, f.ret_expr, PolyRuntimeError,
                 f"the body of function {f.name!r}", dict.fromkeys([*sc, *names]))

    def invoke(fv, vals, r):
        st = dict(fv.def_store)
        st.update(zip(names, vals))
        for v in vals if r.cost else ():
            if v.__class__ is not int or v.bit_length() > r.max_size:
                r.track(v)
        return main(st, r)
    return invoke


def _unit(t, body, ret_expr, error, where, sc, *own):
    """Compile a body and return expression to main(store, run) -> value."""
    stmts = [(_stmt(x, t, sc), x.pos) for x in body]
    ret = _expr(ret_expr, sc)[0]
    k = _number(t, [ret_expr], *own)

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
