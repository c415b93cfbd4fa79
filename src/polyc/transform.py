"""Source-to-source transforms: the max-value tracker, the step-count
tracker, the single-loop normalizer and a bounded equivalence checker.

The normalizer compiles a program into a budget-driven machine: one loop
over size(y) whose body dispatches on an explicit program counter, with all
locals hoisted (iterable locals demoted to plain int) and every size()
occurrence replaced by an incremental bit-length computation.  A call to a
user function is expanded where it occurs: its parameters and locals become
fresh hoisted variables and its result lands in one more.  Consecutive
forward steps run in a single budget iteration, so the budget needed is
about one tick per loop back-edge of the original program.
"""

from dataclasses import dataclass

from .ast import (
    Assign, Block, Break, Call, CallStmt, Const, Continue, Decl, For, FunDef,
    If, OpApp, Paren, Program, Stmt, Var, BOOL, IINT, INT, is_int_type,
    fresh_name, program_names, rebuild, walk, walk_stmts,
)
from .parser import MAX_SCALAR
from .errors import ArgumentError, PolyRuntimeError, TransformError
from .interp import run_program
from .values import format_value, int_to_decimal


def _num(n):
    return Const(str(n))


# ---------------------------------------------------------------------------
# T1: track the maximum absolute value reached


def t1_max_tracker(prog):
    """Instrument a core program so it returns the largest absolute value
    any integer assignment (or the return expression) ever produced."""
    o = fresh_name("o", program_names(prog))
    env = {n: t for t, n in prog.params}
    body = _t1_stmts(prog.body, env, o)
    cut = 0
    while cut < len(body) and isinstance(body[cut], Decl):
        cut += 1
    body.insert(cut, Decl(INT, o))
    body.extend([
        _t1_guard(prog.ret_expr, o),
        _t1_guard_neg(prog.ret_expr, o, paren=True),
    ])
    return Program(list(prog.params), body, Var(o))


def _t1_guard(e, o):
    return If(OpApp(">", [e, Var(o)]),
              Block([Assign(Var(o), e)]), Block([]))


def _t1_guard_neg(e, o, paren=False):
    return _t1_guard(OpApp("-", [Paren(e) if paren else e]), o)


def _t1_stmts(stmts, env, o):
    return [_t1_stmt(s, env, o) for s in stmts]


def _t1_stmt(s, env, o):
    if isinstance(s, Decl):
        env[s.name] = s.annot
        return s
    if isinstance(s, Assign):
        if isinstance(s.lvalue, Var) and is_int_type(env.get(s.lvalue.name, INT)):
            x = Var(s.lvalue.name)
            return Block([s, _t1_guard(x, o), _t1_guard_neg(x, o)])
        return s
    if isinstance(s, Block):  # a copy keeps its declarations inside
        return Block(_t1_stmts(s.stmts, dict(env), o))
    if isinstance(s, If):
        return If(s.cond, _t1_stmt(s.then, env, o), _t1_stmt(s.els, env, o))
    if isinstance(s, For):
        body_env = {**env, s.counter: IINT}
        return For(s.counter, s.bound, _t1_stmt(s.body, body_env, o))
    raise TransformError(f"max tracker expects a core program, found "
                         f"{type(s).__name__}", getattr(s, "pos", None))


# ---------------------------------------------------------------------------
# T2: track the executed declaration/assignment count


def t2_cost_tracker(prog):
    """Instrument a core program with a doubling accumulator: after the run,
    size(o) - 1 equals the number of executed declarations, assignments and
    empty blocks."""
    for s in walk_stmts(prog.body):
        if not isinstance(s, (Decl, Assign, Block, If, For)):
            raise TransformError(f"cost tracker expects a core program, found "
                                 f"{type(s).__name__}", s.pos)
    o = fresh_name("o", program_names(prog))
    body = [Decl(INT, o), Assign(Var(o), Const("1"))]
    body.extend(_t2_stmt(s, o) for s in prog.body)
    return Program(list(prog.params), body, prog.ret_expr)


def _t2_double(o):
    return Assign(Var(o), OpApp("+", [Var(o), Var(o)]))


def _t2_stmt(s, o):
    if isinstance(s, (Decl, Assign)):
        return Block([s, _t2_double(o)])
    if isinstance(s, Block) and not s.stmts:
        return Block([_t2_double(o)])
    return rebuild(s, lambda c: _t2_stmt(c, o) if isinstance(c, Stmt) else c)


# ---------------------------------------------------------------------------
# single-loop normal form

_HALVE_UNROLL = 32


@dataclass
class SimpleForm:
    """Normalized program: declarations, one loop over size(y), a return."""

    program: Program
    bound_var: str
    symbolic_bound: str


def simple_form_shape_ok(sf):
    """Shape check: leading declarations, then exactly one loop
    for(i<size(y)) whose body is loop-free and call-free, then the return."""
    prog = sf.program
    if not prog.params or prog.params[-1] != (IINT, sf.bound_var):
        return False
    body = list(prog.body)
    while body and isinstance(body[0], Decl):
        body.pop(0)
    if len(body) != 1 or not isinstance(body[0], For):
        return False
    loop = body[0]
    if loop.bound != OpApp("size", [Var(sf.bound_var)]):
        return False
    return not any(isinstance(x, (For, FunDef, CallStmt, Call))
                   for x in walk([loop.body, prog.ret_expr]))


def normalize_simple(prog, mode="core"):
    """Flatten a program into the single-loop normal form with one extra
    iterable input supplying the step budget.

    All locals are hoisted ahead of the loop (iterable ones demoted to int,
    which is what makes the one-shot assignments inside the loop typable),
    control flow becomes a program-counter dispatch, and size() occurrences
    are computed by repeated halving spread over budget iterations.
    """
    del mode
    return _Normalizer(prog).build()


def _stmt_is_flat(s):
    """True when the subtree can run inside a single machine step."""
    return not any(isinstance(x, (For, Break, Continue, FunDef, CallStmt, Call))
                   or isinstance(x, OpApp) and x.op == "size" for x in walk([s]))


class _Normalizer:
    def __init__(self, prog):
        self.prog = prog
        self.taken = set(program_names(prog))
        self.suffix = {}  # base -> k: base, base2, ..., base<k> are taken
        self.decls = []  # hoisted (Type, machine-name) pairs
        self.blocks = []  # lists of statements, one per pc value
        self.cur = None
        self.loop_stack = []  # (incr_label, after_label)
        self.callee = None  # name of the function being expanded
        self.expanded = 0  # statements that call expansion has emitted
        self.y = self.fresh("y")
        self.i = self.fresh("i")
        self.pc = self.fresh("pc")

    def fresh(self, base):
        """fresh_name(base, self.taken) without rescanning the names it
        gave out before: every expansion of a function asks for its bases."""
        k = self.suffix.get(base, 1)
        while (name := base if k == 1 else f"{base}{k}") in self.taken:
            k += 1
        self.suffix[base] = k
        self.taken.add(name)
        return name

    # -- block plumbing -----------------------------------------------------

    def place(self, label):
        """Start a block at `label`, the Const that its jumps assign to pc."""
        label.text = str(len(self.blocks))
        self.blocks.append([])
        self.cur = self.blocks[-1]

    def emit(self, stmt):
        if self.cur is None:  # unreachable code after break/continue
            self.place(Const(""))
        self.cur.append(stmt)

    def jump(self, label):
        self.emit(Assign(Var(self.pc), label))
        self.cur = None

    def branch(self, cond, if_true, if_false):
        self.emit(If(cond, Block([Assign(Var(self.pc), if_true)]),
                     Block([Assign(Var(self.pc), if_false)])))
        self.cur = None

    # -- top level ----------------------------------------------------------

    def build(self):
        prog = self.prog
        # source name -> machine name, or (FunDef, the functions it sees)
        scope = {n: n for _, n in prog.params}
        self.place(Const(""))
        self.compile_seq(prog.body, scope)
        ret = self.rewrite_expr(prog.ret_expr, scope)
        done = len(self.blocks)  # the pc that ends the loop
        if self.cur is not None:
            self.jump(_num(done))

        self.decls.append((INT, self.pc))
        body = [Decl(t, n) for t, n in self.decls]
        loop_body = [If(OpApp("==", [Var(self.pc), _num(k)]), Block(blk), Block([]))
                     for k, blk in enumerate(self.blocks)]
        loop_body.append(If(OpApp("==", [Var(self.pc), _num(done)]),
                            Break(), Block([])))
        body.append(For(self.i, OpApp("size", [Var(self.y)]),
                        Block(loop_body)))
        params = list(prog.params) + [(IINT, self.y)]
        m = sum(1 for _ in walk_stmts(prog.body)) + 1
        return SimpleForm(
            program=Program(params, body, ret),
            bound_var=self.y,
            symbolic_bound=f"O(n^({m}^{m}))",
        )

    # -- statements ---------------------------------------------------------

    def compile_seq(self, stmts, scope):
        for s in stmts:
            self.compile_stmt(s, scope)

    def compile_stmt(self, s, scope):
        if isinstance(s, (Decl, Assign)) or isinstance(s, If) and _stmt_is_flat(s):
            self.emit(self.flat_if(s, scope))
            return
        if isinstance(s, Block):
            self.compile_seq(s.stmts, dict(scope))
            return
        if isinstance(s, If):
            cond = self.rewrite_expr(s.cond, scope)
            then_l, else_l, join_l = Const(""), Const(""), Const("")
            self.branch(cond, then_l, else_l)
            for label, branch in ((then_l, s.then), (else_l, s.els)):
                self.place(label)
                self.compile_stmt(branch, dict(scope))
                if self.cur is not None:
                    self.jump(join_l)
            self.place(join_l)
            return
        if isinstance(s, For):
            self.compile_loop(s, scope)
            return
        if isinstance(s, (Break, Continue)):
            if not self.loop_stack:  # only in a program the checker rejects
                word = type(s).__name__.lower()
                body = ("the program body" if self.callee is None
                        else f"the body of function {self.callee!r}")
                raise TransformError(f"{word} escapes {body}", s.pos)
            incr, after = self.loop_stack[-1]
            self.jump(after if isinstance(s, Break) else incr)
            return
        if isinstance(s, FunDef):  # it sees the functions bound here
            scope[s.name] = (s, {n: v for n, v in scope.items()
                                 if isinstance(v, tuple)})
            return
        if isinstance(s, CallStmt):
            self.rewrite_expr(s.call, scope)
            return
        raise TransformError(
            f"normalizer cannot handle {type(s).__name__}",
            getattr(s, "pos", None))

    def compile_loop(self, s, scope):
        if isinstance(s.bound, OpApp) and s.bound.op == "size":
            bound_expr = self.size_value(s.bound.args[0], scope)
        else:
            bound_expr = s.bound  # literal bound
        counter = self.fresh(s.counter)
        body_scope = dict(scope)
        body_scope[s.counter] = counter
        self.decls.append((INT, counter))
        self.emit(Assign(Var(counter), Const("0")))
        head, body_l, incr, after = Const(""), Const(""), Const(""), Const("")
        self.jump(head)
        self.place(head)
        self.branch(OpApp("<", [Var(counter), bound_expr]), body_l, after)
        self.place(body_l)
        self.loop_stack.append((incr, after))
        self.compile_stmt(s.body, body_scope)
        self.loop_stack.pop()
        if self.cur is not None:
            self.jump(incr)
        self.place(incr)
        self.emit(Assign(Var(counter), OpApp("+", [Var(counter), Const("1")])))
        self.jump(head)
        self.place(after)

    def flat_if(self, s, scope):
        """Rename a loop-, size- and call-free statement tree unsplit."""
        if isinstance(s, If):
            return If(self.rewrite_expr(s.cond, scope),
                      self.flat_if(s.then, dict(scope)),
                      self.flat_if(s.els, dict(scope)))
        if isinstance(s, Block):
            child = dict(scope)
            return Block([self.flat_if(x, child) for x in s.stmts])
        if isinstance(s, Assign):
            if not isinstance(s.lvalue, Var):
                raise TransformError(
                    "normalizer supports scalar assignments only", s.pos)
            lvalue = self.rewrite_expr(s.lvalue, scope)
            return Assign(lvalue, self.rewrite_expr(s.expr, scope))
        if isinstance(s, Decl):
            name = scope[s.name] = self.hoist(s.annot, s.name, s.pos)
            return Assign(Var(name),
                          Const("false") if s.annot is BOOL else Const("0"))
        raise TransformError(
            f"normalizer cannot handle {type(s).__name__}",
            getattr(s, "pos", None))

    def hoist(self, t, base, pos):
        """A fresh machine variable for a local of type t; iint becomes int."""
        t = INT if t is IINT else t
        if not (is_int_type(t) or t is BOOL):
            raise TransformError(
                f"normalizer supports integer and boolean locals, not {t}", pos)
        name = self.fresh(base)
        self.decls.append((t, name))
        return name

    # -- expressions --------------------------------------------------------

    def rewrite_expr(self, e, scope):
        if isinstance(e, Var):
            try:
                return Var(scope[e.name])
            except KeyError:
                msg = (f"unbound variable {e.name!r}" if self.callee is None
                       else f"function {self.callee!r} reads captured "
                       f"variable {e.name!r}; cannot inline")
                raise TransformError(msg, e.pos) from None
        if isinstance(e, OpApp) and e.op == "size":
            return self.size_value(e.args[0], scope)
        if isinstance(e, (Const, Paren, OpApp)):
            return rebuild(e, lambda sub: self.rewrite_expr(sub, scope))
        if isinstance(e, Call) and isinstance(scope.get(e.fname), tuple):
            return self.expand(scope[e.fname], e, scope)
        raise TransformError(
            f"normalizer cannot handle expression {type(e).__name__}",
            getattr(e, "pos", None))

    def size_value(self, operand, scope):
        """Emit blocks computing the bit size of |operand| into a fresh
        variable, halving up to 32 times per budget iteration."""
        val = self.rewrite_expr(operand, scope)
        t_val = self.fresh("t")
        t_sz = self.fresh("sz")
        self.decls += [(INT, t_val), (INT, t_sz)]
        self.emit(Assign(Var(t_val), val))
        self.emit(If(OpApp("<", [Var(t_val), Const("0")]),
                     Block([Assign(Var(t_val), OpApp("-", [Var(t_val)]))]),
                     Block([])))
        self.emit(Assign(Var(t_sz), Const("0")))
        halve, nxt = Const(""), Const("")
        self.jump(halve)
        self.place(halve)
        step = If(OpApp("!=", [Var(t_val), Const("0")]),
                  Block([Assign(Var(t_val), OpApp("/", [Var(t_val), Const("2")])),
                         Assign(Var(t_sz), OpApp("+", [Var(t_sz), Const("1")]))]),
                  Block([]))
        for _ in range(_HALVE_UNROLL):
            self.emit(step)
        self.branch(OpApp("==", [Var(t_val), Const("0")]), nxt, halve)
        self.place(nxt)
        return Var(t_sz)

    def expand(self, fun, call, scope):
        """Emit blocks running a user function's body on the arguments of
        `call`; return the fresh variable that holds its result.  The copies
        are counted: a chain of functions each calling the previous twice
        doubles the output per level."""
        f, fun_scope = fun
        self.expanded += len(f.params) + 1 + sum(1 for _ in walk_stmts(f.body))
        if self.expanded > MAX_SCALAR:
            raise TransformError(f"expanding calls copies more than "
                                 f"{MAX_SCALAR} statements", call.pos)
        vals = [self.rewrite_expr(a, scope) for a in call.args]
        body_scope = dict(fun_scope)
        for (t, n), val in zip(f.params, vals):
            body_scope[n] = self.hoist(t, n, f.pos)
            self.emit(Assign(Var(body_scope[n]), val))
        outer = self.callee, self.loop_stack
        self.callee, self.loop_stack = f.name, []  # the caller's loops end here
        self.compile_seq(f.body, body_scope)
        ret = self.rewrite_expr(f.ret_expr, body_scope)
        self.callee, self.loop_stack = outer
        result = self.hoist(f.ret, f.name, f.pos)
        self.emit(Assign(Var(result), ret))
        return Var(result)


# ---------------------------------------------------------------------------
# stabilization and bounded equivalence


def stabilization_search(simple, prog, args, t_max=1 << 20, mode="core",
                         fuel=None):
    """Double the budget until the normalized program reproduces the
    original output and stays stable at twice the budget."""
    target = run_program(prog, list(args), mode=mode, fuel=fuel).output
    t = 1
    while t <= t_max:
        got = run_program(simple.program, list(args) + [t],
                          mode="extended", fuel=fuel).output
        if got == target:
            again = run_program(simple.program, list(args) + [2 * t],
                                mode="extended", fuel=fuel).output
            if again == target:
                return t
        t *= 2
    raise TransformError(
        f"no stabilization budget up to {t_max}: the normalized program "
        f"never reproduced output {format_value(target)}")


def bounded_equiv(p1, p2, input_bound, mode="core", fuel=None,
                  names=("<input>", "<input>")):
    """Exhaustively compare two programs on all integer inputs with
    |v_i| <= input_bound; returns (True, None) or (False, witness).  The
    inputs are counted up in place, the last fastest, so a bound of any size
    takes no memory.  A runtime error names its program's file, from
    `names`, and the input it failed on."""
    if len(p1.params) != len(p2.params):
        raise ArgumentError("programs have different arity")
    tup = [-input_bound] * len(p1.params)

    def output(prog, name):
        try:
            return run_program(prog, list(tup), mode=mode, fuel=fuel).output
        except PolyRuntimeError as e:
            e.where = name
            e.message += f" ({' '.join(['input', *map(int_to_decimal, tup)])})"
            raise

    while input_bound >= 0 or not tup:  # else the box is empty
        if output(p1, names[0]) != output(p2, names[1]):
            return False, tuple(tup)
        for i in reversed(range(len(tup))):
            if tup[i] < input_bound:
                tup[i] += 1
                break
            tup[i] = -input_bound
        else:
            break
    return True, None
