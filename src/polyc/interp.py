"""Evaluator with an exact cost mode: statements and expressions compile to
generated Python, one function per shape.

A program is compiled at its first run, and the code is kept in a plain
attribute of the Program object, not a field, so a copy compiles its own.
Each statement becomes one generated function g(store, run) -> None, "break"
or "continue"; a list compiles each distinct node once, so the normalizer's
output, whose halving step one list holds 32 times, compiles that step once.
Its source is the statement's shape: its expressions are inlined as text,
while names, decoded constants, positions, AST nodes and the functions of its
child statements are parameters of a factory.  A bounded cache keeps one
compiled factory per shape, so a shape is compiled once per process; no shape
inlines another statement, so shapes are shared across programs.  A scope
tracks the names bound at each point of the program: a read of one indexes
the store, any other read checks that it is bound.  A call to a builtin that
no binding in scope shadows resolves to its operator row when compiled; the
store holds no builtins.  Annotations the checker or the analysis fill in or
rewrite in place are read when run.

Each program has two variants, compiled apart, each at its first use.  The
plain variant holds no metering code, and its `if` does not call an empty
else.  The metered variant runs cost, fuel and watch runs.  Cost mode charges
one step per expression node, declaration, function definition, assignment,
break, continue and block entry; the conditional, loop, empty-block and
program rules count without a step.  Each slot -- a statement or a function's
or the program's return expression -- has a static rule vector, in which `&&`
and `||` evaluate both operands.  Compiling the metered variant numbers the
slots in one table of vectors per program, one per node however often a list
repeats it; a run counts `counts[k] += 1` into one list per run, then folds
count x vector into `rule_counts`.  Ints are sized on each bind, arrays when
made, passed in or written; no other value is, so `&&` and `||` may stop at
the operand that decides them when all operands after the first are pure and
read bound names, at no change in cost.  Fuel counts statements.
"""

from collections import Counter
from dataclasses import dataclass, field

from .ast import (
    NO_POS, ArrayCtor, ArrayT, Assign, Block, Break, Call, CallStmt, Const,
    Continue, Decl, Expr, For, FunDef, If, Index, OpApp, Paren, Var, left_chain,
    walk,
)
from .errors import ArgumentError, FuelExhausted, InternalError, PolyRuntimeError
from .ops import BINARY, BUILTIN_NAMES, UNARY, Op, apply_op
from .values import (
    Closure, VArray, default_value, format_value, int_to_decimal,
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
        # the metered variant runs it, and its statements count slots
        self.metered = cost_mode or fuel is not None or watch is not None
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
        table, main = _program(prog, self.metered)
        self.store = st = {}
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
                for vector, n in zip(table, counts):
                    for rule, k in vector if n else ():
                        totals[rule] = totals.get(rule, 0) + n * k
                self.steps = sum(n for r, n in totals.items() if r not in _FREE_RULES)
        if not self.cost:
            return CostReport(output)
        self.track(output)
        return CostReport(output, self.steps, self.max_size,
                          dict(self.rule_counts))


def _number(table, exprs, *own):
    """Add a slot -- a statement or return expression -- to the table as its
    rule vector: one rule per expression node it evaluates, plus its own; its
    number."""
    c = Counter(_RULE.get(n.__class__) for n in walk(exprs, Expr))
    c.update(own)
    c.pop(None, None)  # nodes that cannot run charge nothing
    table.append(tuple(c.items()))
    return len(table) - 1


def _program(prog, metered):
    """The slot table (None when plain) and code, main(store, run) -> output,
    of a program's variant, compiled at its first use."""
    code = vars(prog).setdefault("compiled", [None, None])  # plain, metered
    if code[metered] is None:
        table = [] if metered else None
        code[metered] = table, _unit(
            table, prog.body, prog.ret_expr, InternalError, "the program body",
            dict.fromkeys(n for _, n in prog.params), ("Prog",))
    return code[metered]


def _fail(message, pos=NO_POS):
    raise InternalError(message, pos)


# -- shapes: generated functions g(store, run) --------------------------------
# A shape's factory takes what its source reads as parameters p0, p1, ...

_SHAPES = {}  # (parameter count, signature, source) -> factory, oldest first
SHAPES_MAX = 4096
_DEPTH = 48  # the most brackets one shape nests; deeper parts are own shapes
_CHAIN = 32  # the most operators one shape chains; a longer chain runs _fold
_INFIX = {"+": " + ", "-": " - ", "==": " == ", "!=": " != ", "<": " < ",
          "<=": " <= ", ">": " > ", ">=": " >= ", "&&": " & ", "||": " | "}
_STOP = {"&&": (" and ", False), "||": (" or ", True)}
_SIZED = "v.__class__ is not int or v.bit_length() > r.max_size"


def _p(ps, x):
    """Append parameter x to ps; the name the shape reads it by."""
    ps.append(x)
    return f"p{len(ps) - 1}"


def _shape(lines, ps, args="st, r"):
    """The function g(args) whose body is `lines`, reading ps[k] as p<k>; a
    line indented by one more space nests under the line before it."""
    text = "\n  ".join(lines)
    key = (len(ps), args, text)
    factory = _SHAPES.get(key)
    if factory is None:
        if len(_SHAPES) >= SHAPES_MAX:
            del _SHAPES[next(iter(_SHAPES))]
        names = ", ".join([f"p{k}" for k in range(len(ps))])
        code = compile(f"def factory({names}):\n def g({args}):\n  {text}\n"
                       " return g", "<polyc shape>", "exec")
        exec(code, globals(), ns := {})
        factory = _SHAPES[key] = ns["factory"]
    return factory(*ps)


def _expr(e, scope):
    """Compile expression e to (g, pure); see _emit for pure."""
    ps = []
    text, pure = _emit(e, scope, ps, 0)
    return _shape([f"return {text}"], ps), pure


def _emit(e, scope, ps, depth):
    """Python source of e, which reads parameter k, appended to ps, as p<k>,
    and whether e is pure: only variables in `scope`, constants and known
    operators, so evaluating it cannot fail or size a value."""
    cls = e.__class__
    if cls is Var:
        if e.name in scope:
            return f"st[{_p(ps, e.name)}]", True
        return f"_load(st, {_p(ps, e.name)}, {_p(ps, e.pos)})", False
    if cls is Const:
        return _p(ps, literal_value(e.text)), True
    if cls is Paren:  # a parenthesis costs a step but does no work
        return _emit(e.inner, scope, ps, depth)
    if depth > _DEPTH:
        g, pure = _expr(e, scope)
        return f"{_p(ps, g)}(st, r)", pure
    if cls is OpApp and len(e.args) == 2:
        left, right = e.args
        pairs = left_chain(e)[1] if left.__class__ is OpApp else ((e, right),)
        if len(pairs) > _CHAIN:  # each operand is a shape of its own
            first, pure = _expr(pairs[0][0].args[0], scope)
            nodes = {id(x): x for _, x in pairs}  # `m*a` repeats one node
            code = {k: _expr(x, scope) for k, x in nodes.items()}
            steps = [(BINARY.get(n.op) or _unknown(n), *code[id(x)])
                     for n, x in pairs]
            tail = all(p and n.op in BINARY
                       for (n, _), (_, _, p) in zip(pairs, steps))
            decided = _STOP[e.op][1] if e.op in _STOP and tail else None
            return (f"_fold(st, r, {_p(ps, first)}, {_p(ps, steps)}, "
                    f"{_p(ps, decided)})"), pure and tail
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
            # a function: / and % here, or an unknown operator
            text = (f"({text}{infix}{t})" if infix else
                    f"{_p(ps, BINARY.get(node.op) or _unknown(node))}({text}, {t})")
        return text, pure
    if cls is OpApp:
        text, pure = _emit(e.args[0], scope, ps, depth + 1)
        if e.op == "!" or e.op == "-":
            return f"({'not ' if e.op == '!' else '-'}{text})", pure
        return (f"{_p(ps, UNARY.get(e.op) or _unknown(e))}({text})",
                pure and e.op in UNARY)
    if cls is Index:
        base, index = [_emit(x, scope, ps, depth + 1)[0] for x in (e.base, e.index)]
        return f"_index({base}, {index}, {_p(ps, e.pos)})", False
    if cls is Call:  # the callee is looked up before the arguments run
        name, pos = _p(ps, e.fname), _p(ps, e.pos)
        fn = (f"st[{name}]" if e.fname in scope else
              f"_builtin(r, {_p(ps, BUILTIN_NAMES[e.fname])}, {pos})"
              if e.fname in BUILTIN_NAMES else f'_load(st, {name}, {pos}, "function")')
        args = ", ".join([_emit(a, scope, ps, depth + 2)[0] for a in e.args])
        return f"_call({fn}, [{args}], {name}, {pos}, r)", False
    if cls is ArrayCtor:
        length = _emit(e.length, scope, ps, depth + 1)[0]
        return f"_new_array({length}, {_p(ps, e)}, r)", False
    return f"_fail({_p(ps, f'cannot evaluate {e!r}')})", False


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


def _builtin(r, fv, pos):
    """A builtin's row where no binding shadows it; extended mode only."""
    if r.mode == "extended":
        return fv
    raise InternalError(f"function {fv.lexeme!r} unbound at runtime", pos)


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
    if fv.__class__ is Op:  # a builtin's row
        return apply_op(fv.lexeme, vals)
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


# -- statements: shapes (store, run) -> None, "break" or "continue" -----------
# The metered variant numbers a statement's slot k in the slot table t; the
# statement first spends fuel, if a limit is set, and counts k.  The scope
# `sc` gains the names its Decls and FunDefs bind, until the end of the block,
# branch or loop body that binds them, as the checker's scope does.


def _stmt(s, t, sc):
    """Compile s to g(store, run); metered when t, the slot table, is not
    None."""
    cls, ps, lines = s.__class__, [], []

    def meter(exprs, *own):
        if t is not None:
            lines.extend(["if r.fuel is not None: r.spend()",
                          f"r.counts[{_p(ps, _number(t, exprs, *own))}] += 1"])

    def ex(e):
        return _emit(e, sc, ps, 0)[0]

    def end(mark, out):  # the names bound since `mark` go out of scope
        while len(sc) > mark:
            sc.popitem()
        return out

    def sub(x, *names):  # a branch or loop body
        mark = len(sc)
        sc.update(dict.fromkeys(names))
        return _p(ps, end(mark, _stmt(x, t, sc)))

    if cls is Assign and s.lvalue.__class__ is Var:
        meter([s.expr], "Asgmt")
        name, text, bound = _p(ps, s.lvalue.name), ex(s.expr), s.lvalue.name in sc
        lines.append(f"st[{name}] = {text}" if t is None and bound else f"v = {text}")
        if not bound:
            message = f"assignment to unbound variable {s.lvalue.name!r}"
            lines.append(f"if {name} not in st: _fail({_p(ps, message)}, "
                         f"{_p(ps, s.pos)})")
        if t is not None or not bound:
            lines.append(f"st[{name}] = v")
        if t is not None:
            lines.append(f"if r.cost and ({_SIZED}): r.track(v)")
    elif cls is Assign:  # to an array cell; the target's Index nodes are free
        chain, node = [], s.lvalue
        while node.__class__ is Index:
            chain.insert(0, node.index)
            node = node.base
        meter([node, *chain, s.expr], "Asgmt")
        lines.append(f"_write_cell(r, {ex(node)}, [{', '.join(map(ex, chain))}], "
                     f"{ex(s.expr)}, {_p(ps, s.pos)})")
    elif cls is If:
        meter([s.cond], "Cond")
        lines += [f"if {ex(s.cond)}:", f" return {sub(s.then)}(st, r)"]
        # plain, an empty else is not called; metered, it counts its slot
        if t is not None or s.els.__class__ is not Block or s.els.stmts:
            lines += ["else:", f" return {sub(s.els)}(st, r)"]
    elif cls is Block:
        meter([], "Block", *(() if s.stmts else ("EmptyBlock",)))
        mark = len(sc)
        lines += end(mark, _calls(s.stmts, t, sc, ps, "return sig")) or ["pass"]
    elif cls is For:
        meter([s.bound], "Loop")
        bound, body, counter = ex(s.bound), sub(s.body, s.counter), s.counter
        if t is None:
            lines += [f"for j in range({bound}):", f" st[{_p(ps, counter)}] = j",
                      f" if {body}(st, r) == 'break': break"]
        else:
            message = "loop body changed the iterable restriction of the store"
            lines += [f"n = {bound}", f"w = r.watch and r.watch.get({_p(ps, id(s))})",
                      "for j in range(n):", f" st[{_p(ps, counter)}] = j",
                      " if w: before = {x: st[x] for x in w if x in st}",
                      f" sig = {body}(st, r)",
                      " if w and before != {x: st[x] for x in before}: "
                      f"_fail({_p(ps, message)}, {_p(ps, s.pos)})",
                      " if sig == 'break': break",  # "continue" moves on
                      "if n > 0 and r.cost: r.track(j)"]  # j only grows
    elif cls is Decl:  # a fresh default each time: no array is shared
        meter([], "Decl")
        sc[s.name] = None
        value = (f"default_value({_p(ps, s.annot)})" if isinstance(s.annot, ArrayT)
                 else _p(ps, default_value(s.annot)))
        lines.append(f"st[{_p(ps, s.name)}] = v = {value}")
        if t is not None:
            lines.append("if r.cost: r.track(v)")
    elif cls is FunDef:
        meter([], "Fun")
        # like its store, a function's scope copies the one where it is
        # defined and adds its parameters
        names = tuple(n for _, n in s.params)
        code = _p(ps, _unit(t, s.body, s.ret_expr, PolyRuntimeError,
                            f"the body of function {s.name!r}",
                            dict.fromkeys([*sc, *names]), (), names))
        sc[s.name] = None
        name = _p(ps, s.name)
        lines.append(f"st[{name}] = Closure(dict(st), {name}, {code})")
    elif cls is CallStmt:
        meter([s.call])
        lines.append(ex(s.call))
    elif cls is Break or cls is Continue:
        meter([], cls.__name__)
        lines.append(f"return {cls.__name__.lower()!r}")
    else:
        meter([])
        lines.append(f"_fail({_p(ps, f'cannot execute {s!r}')})")
    return _shape(lines, ps)


def _calls(stmts, t, sc, ps, on_signal):
    """Lines that compile and run stmts in turn, in a loop whose shape does
    not depend on their number; the line on_signal handles the signal `sig`
    of the statement at position q.  A node the list repeats runs the code
    of its first position: the scope only grows, so that code holds later."""
    if not stmts:
        return []
    code = {}
    subs = tuple((code.get(id(x)) or code.setdefault(id(x), _stmt(x, t, sc)), x.pos)
                 for x in stmts)
    return [f"for f, q in {_p(ps, subs)}:", " sig = f(st, r)", f" if sig: {on_signal}"]


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


def _unit(t, body, ret_expr, error, where, sc, own, params=None):
    """Compile a body and return expression to main(store, run) -> value, or,
    given its parameters, a function's to code(closure value, arguments, run)."""
    ps, lines = [], []
    if params is not None:
        lines += ["st = dict(fv.def_store)", f"st.update(zip({_p(ps, params)}, vals))"]
        if t is not None:
            lines += ["if r.cost:", " for v in vals:", f"  if {_SIZED}: r.track(v)"]
    error, where = _p(ps, error), _p(ps, f" escaped {where}")
    lines += _calls(body, t, sc, ps, f"raise {error}(sig + {where}, q)")
    ret = _emit(ret_expr, sc, ps, 0)[0]
    if t is None:
        lines.append(f"return {ret}")
    else:
        k = _p(ps, _number(t, [ret_expr], *own))
        lines += [f"v = {ret}", f"r.counts[{k}] += 1", "return v"]
    return _shape(lines, ps, "st, r" if params is None else "fv, vals, r")
