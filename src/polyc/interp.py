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

Each program has three variants, each compiled at its first use: plain, with
no metering code; metered, for cost and watch runs; and fuelled, which also
spends one unit of fuel per statement.  Cost mode charges one step per
expression node, declaration, function definition, assignment, break,
continue and block entry; the conditional, loop, empty-block and program
rules count without a step.  It counts entries, not statements: a function or
program body counts, at entry, one slot whose rule vector sums those of its
statements, repeats included, and of its return expression, and a loop or an
if counts the slot of the body or branch it runs.  Only an early exit pays
more: a break, continue or error at a position of a list counts the exit
slot of that position, whose negative vector takes back the statements after
it, and fuel running out takes back the statement it was for too.  A run
folds its counts into `rule_counts` with a function generated per program,
one sum per rule.  An int, bool or string is measured when bound, unless it
is no larger than a value measured already; an array when made, passed in or
written.  So `&&` and `||` may stop at the operand that decides them when
all operands after the first are pure and read bound names.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from types import SimpleNamespace

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
        doc = {"output": format_value(self.output).strip('"')}
        if self.ic is not None:  # a cost report
            doc.update(ic=self.ic, max_value_size=self.max_value_size)
        return doc


def run_program(prog, args, cost_mode=False, mode="core", fuel=None, watch=None):
    """Execute a (type-checked) program on the given values.
    `mode` is ignored: the checker alone decides which builtins are in scope."""
    return Interp(cost_mode=cost_mode, fuel=fuel, watch=watch).run(prog, args)


class Interp:
    """The state of one run: store, fuel, slot counts and cost totals."""

    def __init__(self, cost_mode=False, fuel=None, watch=None):
        self.cost, self.watch = cost_mode, watch
        self.store, self.rule_counts = {}, {}
        # the range of the ints bound, a bool as 1, measures them
        self.steps = self.max_size = self.hi = self.lo = 0
        self.fuel_limit = self.fuel = fuel  # statements left to execute
        self.variant = 2 if fuel is not None else int(cost_mode or watch is not None)
        self.counts = self.exits = None  # per slot and exit slot of the table

    def spend(self):
        """Spend the fuel of one statement."""
        self.fuel -= 1
        if self.fuel < 0:
            raise FuelExhausted(
                f"interpreter fuel limit of {self.fuel_limit} statements exceeded")

    def track(self, v):
        """Measure v as bound; arrays are measured elsewhere."""
        if v.__class__ is bool:  # of size 1
            v = 1
        if v.__class__ is int:
            self.hi, self.lo = max(self.hi, v), min(self.lo, v)
        elif v.__class__ is str:
            self.max_size = max(self.max_size, len(v))

    def run(self, prog, args):
        if len(args) != len(prog.params):
            raise ArgumentError(
                f"program expects {len(prog.params)} arguments, got {len(args)}")
        table, main = _program(prog, self.variant)
        self.store = st = {}
        for (annot, name), v in zip(prog.params, args):
            if not value_consistent(v, annot):
                raise ArgumentError(
                    f"argument {name!r} must be consistent with {annot}, got "
                    f"{format_value(v)}")
            st[name] = v
            if self.cost and v.__class__ is VArray:
                self.max_size = max(self.max_size, size_of_value(v))
            elif self.cost:
                self.track(v)
        if table:
            self.counts, self.exits = [0] * len(table.slots), [0] * len(table.exits)
        try:
            output = main(st, self)
        finally:  # a failed run folds what it counted too
            if self.cost:
                steps, counts = _tally(table, self.counts, self.exits)
                self.steps, old = self.steps + steps, self.rule_counts
                # replaced, not changed: a report holds it
                self.rule_counts = {**old, **{r: n + old.get(r, 0) for r, n
                                              in counts.items()}} if old else counts
        if not self.cost:
            return CostReport(output)
        self.track(output)
        self.max_size = max(self.max_size, self.hi.bit_length(), (-self.lo).bit_length())
        return CostReport(output, self.steps, self.max_size, self.rule_counts)


def _vector(exprs, *own):
    """A rule vector, as a list of rules: one per expression node evaluated
    (a node that cannot run charges nothing), plus own."""
    return [_RULE[n.__class__] for n in walk(exprs, Expr) if n.__class__ in _RULE] + [*own]


def _slot(table, vector):
    """Add a slot with the given vector to the table; its number."""
    table.slots.append(tuple(Counter(vector).items()))
    return len(table.slots) - 1


def _tally(table, counts, exits):
    """A run's steps and nonzero rule counts; the first tally of a table
    generates the function that sums each rule's slots."""
    if table.plan is None:
        rules = list(dict.fromkeys(r for vector in table.slots for r, _ in vector))
        sums = [[f"c[{k}]" + (f" * {n}" if n != 1 else "") for k, vector
                 in enumerate(table.slots) for r, n in vector if r == rule] for rule in rules]
        sums = [" + ".join(s) if len(s) < _CHAIN else f"sum(({', '.join(s)},))" for s in sums]
        table.plan = (rules, _shape([f"return [{', '.join(sums)}]"], [], "c"),
                      [r not in _FREE_RULES for r in rules], [[(rules.index(r), n)
                      for r, n in vector] for vector in table.exits])
    rules, fold, steps, taken = table.plan
    totals = fold(counts)
    for k in compress(range(len(exits)), exits):  # what an exit takes back
        for i, n in taken[k]:
            totals[i] += exits[k] * n
    return sum(compress(totals, steps)), dict(compress(zip(rules, totals), totals))


def _program(prog, variant):
    """The slot table (None when plain) and code, main(store, run) -> output,
    of a program's variant -- 0 plain, 1 metered, 2 fuelled -- compiled at
    its first use."""
    code = vars(prog).setdefault("compiled", [None, None, None])
    if code[variant] is None:
        table = SimpleNamespace(slots=[], exits=[], fuel=variant == 2,
                                plan=None) if variant else None
        code[variant] = table, _unit(
            table, prog.body, prog.ret_expr, InternalError, "the program body",
            dict.fromkeys(n for _, n in prog.params), ("Prog",))
    return code[variant]


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
# whether binding v may widen what a cost run measured; see Interp.track
_SIZED = ("(not r.lo <= v <= r.hi if v.__class__ is int else v.__class__ is str "
          "or v.__class__ is bool and r.hi < 1)")


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
        fn = (f"st[{name}]" if e.fname in scope else _p(ps, BUILTIN_NAMES[e.fname])
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
# Metered, a statement adds its rule vector to the list `vec` of the slot
# that counts it; the list, if or loop that runs it spends its fuel.  The
# scope `sc` gains the names its Decls and FunDefs bind, until the end of the
# block, branch or loop body that binds them, as the checker's scope does.


def _stmt(s, t, sc, vec=None):
    """Compile s to g(store, run), metered when t, the slot table, is set."""
    cls, ps, lines = s.__class__, [], []

    def meter(exprs, *own):
        if t:
            vec.extend(_vector(exprs, *own))

    def ex(e):
        return _emit(e, sc, ps, 0)[0]

    def end(mark, out):  # the names bound since `mark` go out of scope
        while len(sc) > mark:
            sc.popitem()
        return out

    def sub(x, *names):  # a branch or loop body, and its rule vector
        mark, own = len(sc), t and []
        sc.update(dict.fromkeys(names))
        return _p(ps, end(mark, _stmt(x, t, sc, own))), own

    def count(own):  # the fuel and the count of a branch
        return [" r.spend()"][:t.fuel] + [f" r.counts[{_p(ps, _slot(t, own))}] += 1"] if t else []

    if cls is Assign and s.lvalue.__class__ is Var:
        meter([s.expr], "Asgmt")
        name, text, bound = _p(ps, s.lvalue.name), ex(s.expr), s.lvalue.name in sc
        sized = not t or _measured(s.expr, sc)
        lines.append(f"st[{name}] = {text}" if sized and bound else f"v = {text}")
        if not bound:
            message = f"assignment to unbound variable {s.lvalue.name!r}"
            lines.append(f"if {name} not in st: _fail({_p(ps, message)}, "
                         f"{_p(ps, s.pos)})")
        lines += [] if sized and bound else [f"st[{name}] = v"]
        lines += [] if sized else ["if r.cost:", " if v.__class__ is not int: r.track(v)",
                                   " elif v > r.hi: r.hi = v", " elif v < r.lo: r.lo = v"]
    elif cls is Assign:  # to an array cell; the target's Index nodes are free
        chain, node = [], s.lvalue
        while node.__class__ is Index:
            chain.insert(0, node.index)
            node = node.base
        meter([node, *chain, s.expr], "Asgmt")
        run = "None" if t and _measured(s.expr, sc) else "r"
        lines.append(f"_write_cell({run}, {ex(node)}, [{', '.join(map(ex, chain))}], "
                     f"{ex(s.expr)}, {_p(ps, s.pos)})")
    elif cls is If:  # plain, an empty else is not called
        meter([s.cond], "Cond")
        lines.append(f"if {ex(s.cond)}:")
        then, own = sub(s.then)
        lines += [*count(own), f" return {then}(st, r)"]
        empty = s.els.__class__ is Block and not s.els.stmts
        if t or not empty:
            els, own = sub(s.els)
            lines += ["else:", *count(own), *([] if empty else [f" return {els}(st, r)"])]
    elif cls is Block:
        mark = len(sc)
        signal = "r.exits[x] += 1; return sig" if t else "return sig"
        lines += end(mark, _calls(s.stmts, t, sc, ps, signal, vec, [
            "Block", *(() if s.stmts else ("EmptyBlock",))])) or ["pass"]
    elif cls is For and not t:
        bound, (body, _), counter = ex(s.bound), sub(s.body, s.counter), _p(ps, s.counter)
        lines += [f"for j in range({bound}):", f" st[{counter}] = j",
                  f" if {body}(st, r) == 'break': break"]
    elif cls is For:
        meter([s.bound], "Loop")
        bound, (body, inner), counter = ex(s.bound), sub(s.body, s.counter), _p(ps, s.counter)
        message = "loop body changed the iterable restriction of the store"
        lines += [f"n = {bound}", f"w = r.watch and r.watch.get({_p(ps, id(s))})",
                  "for j in range(n):", f" st[{counter}] = j", *[" r.spend()"][:t.fuel],
                  f" r.counts[{_p(ps, _slot(t, inner))}] += 1",
                  " if w: before = {x: st[x] for x in w if x in st}", f" sig = {body}(st, r)",
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
        if t and size_of_value(default_value(s.annot)):  # a bool
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


def _measured(e, sc):
    """Whether e's value is no larger than one measured when bound: that of
    a name in scope, an element of it, or it divided by or modulo anything."""
    while e.__class__ in (Index, Paren) or e.__class__ is OpApp and e.op in ("/", "%"):
        e = e.base if e.__class__ is Index else e.inner if e.__class__ is Paren else e.args[0]
    return e.__class__ is Var and e.name in sc


def _calls(stmts, t, sc, ps, on_signal, vec, head=(), ret=None):
    """Lines that compile and run stmts in turn, in a loop whose shape does
    not depend on their number; the line on_signal handles the signal `sig`
    of the statement at position q.  A node the list repeats runs the code
    of its first position: the scope only grows, so that code holds later.
    Given ret, a return expression and its rules, they return its value.
    Metered, vec gains head and the vectors of the statements, one for each
    position, and of ret; an exit at a position counts its exit slot x, and
    fuel running out x - 1."""
    code = {}  # a node's code and rule vector
    compiled = [code.get(id(x)) or code.setdefault(
        id(x), (_stmt(x, t, sc, own := t and []), own)) for x in stmts]
    if not t:
        subs = tuple((g, x.pos) for (g, _), x in zip(compiled, stmts))
        return ([f"for f, q in {_p(ps, subs)}:", " sig = f(st, r)",
                 f" if sig: {on_signal}"] if stmts else []) + (
            [f"return {_emit(ret[0], sc, ps, 0)[0]}"] if ret else [])
    first, tail, exits = len(t.exits), {}, []  # what follows each position
    for own in [_vector([ret[0]], *ret[1]) if ret else [], *(v for _, v in compiled[::-1])]:
        vec.extend(own)
        for rule in own:
            tail[rule] = tail.get(rule, 0) + 1
        exits.append(tuple((rule, -n) for rule, n in tail.items()))
    vec.extend(head)
    t.exits += exits[::-1]
    subs = tuple((g, x.pos, first + k) for k, ((g, _), x) in enumerate(zip(compiled, stmts), 1))
    loop = [f" for f, q, x in {_p(ps, subs)}:", *["  if r.fuel > 0: r.fuel -= 1",
            "  else: x -= 1; r.spend()"][:2 * t.fuel], "  sig = f(st, r)", f"  if sig: {on_signal}"]
    value = [f" x = {first}", f" v = {_emit(ret[0], sc, ps, 0)[0]}"] if ret else []
    return ["try:", *(loop + value[1:] if stmts else value), "except BaseException:",
            " r.exits[x] += 1", " raise", *(["return v"] if ret else [])] if stmts or ret else []


def _write_cell(r, target, idxs, v, pos):  # the run r, if given, measures v
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
            if r and r.cost and (not r.lo <= v <= r.hi if v.__class__ is int else
                                 v.__class__ is str or v.__class__ is bool and r.hi < 1):
                r.track(v)


def _unit(t, body, ret_expr, error, where, sc, own, params=None):
    """Compile a body and return expression to main(store, run) -> value, or,
    given its parameters, a function's to code(closure value, arguments, run)."""
    ps, lines, entry = [], [], []
    if params is not None:
        lines += ["st = dict(fv.def_store)", f"st.update(zip({_p(ps, params)}, vals))"]
        lines += ["if r.cost:", " for v in vals:", f"  if {_SIZED}: r.track(v)"] if t else []
    error, where = _p(ps, error), _p(ps, f" escaped {where}")
    rest = _calls(body, t, sc, ps, f"raise {error}(sig + {where}, q)", entry,
                  ret=(ret_expr, own))
    lines += [f"r.counts[{_p(ps, _slot(t, entry))}] += 1"] if t else []
    return _shape(lines + rest, ps, "st, r" if params is None else "fv, vals, r")
