"""Typing rules: the Asg predicate and the program checker, which keeps one
scope of bindings.

The checker enforces the iterable-variable restrictions that make every
well-typed program terminate: iterable variables may not be declared or
assigned inside any loop (or function) body, and only iterable operands may
appear under size().
"""

from dataclasses import dataclass, field

from .ast import (
    ArrayCtor, ArrayT, Arrow, Assign, Block, Break, Call, CallStmt, Const,
    Continue, Decl, For, FunDef, If, Index, OpApp, Paren, Var,
    BOOL, IINT, INT, ISTRING, STRING, NO_POS, Pos,
    is_int_type, is_iterable_type, is_string_type, type_class,
    left_chain, subtype_of, walk_exprs,
)
from .errors import LOCATED
# sup_type is part of this module's typing surface, re-exported from the table
from .ops import BUILTIN_NAMES, Op, op_signature, sup_type


def decl_site(node):
    """Hashable identity of a declaration statement."""
    return ("decl", node.name, id(node))


def param_site(owner_name, index, node):
    return ("param", owner_name, index, id(node))


def counter_site(node):
    return ("counter", node.counter, id(node))


SIZE_MISMATCH = "size needs an iterable operand"  # Checker.op_type's message prefix


@dataclass(frozen=True)
class Diag:
    """One type error: kind, rendered message, position, offending names."""

    kind: str
    message: str
    pos: Pos = NO_POS
    names: tuple = ()
    sites: tuple = field(default=(), compare=False)

    def render(self, filename="<input>"):
        return LOCATED.format(where=filename, pos=self.pos, label=self.kind,
                              message=self.message)

    def to_json(self):
        return {
            "kind": self.kind,
            "message": self.message,
            "line": self.pos.line,
            "col": self.pos.col,
            "names": list(self.names),
        }


def initial_env(mode):
    """The names bound before a program: its mode's builtins, to their rows."""
    if mode == "extended":
        return {n: (row, None) for n, row in BUILTIN_NAMES.items()}
    return {}


def const_type(text):
    if text in ("true", "false"):
        return BOOL
    if text.startswith('"'):
        return ISTRING
    return IINT


def type_equiv(t1, t2):
    return type_class(t1) == type_class(t2)


def asg_predicate(loop_indicator, annot):
    return not (loop_indicator and is_iterable_type(annot))


@dataclass
class CheckResult:
    type: object  # INT when well typed, else None
    errors: list

    @property
    def ok(self):
        return not self.errors


def check_program(prog, mode="core"):
    checker = Checker(mode)
    t = checker.program(prog)
    return CheckResult(t, checker.errors)


class Checker:
    def __init__(self, mode="core"):
        self.mode = mode
        self.extended = mode == "extended"
        self.errors = []
        self.fn_stack = []
        # inside a loop of the innermost unit; apart from the loop indicator,
        # which a function body sets too
        self.in_loop = False
        # the one scope: name -> (type, site); a scope ends by undoing the
        # bindings logged since its mark, so checking stays linear
        self.env = initial_env(mode)
        self.undo = []  # (name, the entry it hides or None), oldest first

    def bind(self, name, annot, site):
        self.undo.append((name, self.env.get(name)))
        self.env[name] = (annot, site)

    def unbind(self, mark):
        """End a scope: drop the bindings made since len(self.undo) was mark."""
        while len(self.undo) > mark:
            name, entry = self.undo.pop()
            if entry is None:
                del self.env[name]
            else:
                self.env[name] = entry

    def lookup(self, name):
        entry = self.env.get(name)
        return entry[0] if entry else None

    def diag(self, kind, message, pos, names=(), sites=()):
        self.errors.append(Diag(kind, message, pos, tuple(names), tuple(sites)))

    # -- expressions --------------------------------------------------------

    def expr(self, e):
        """Returns the type annotation, or None after reporting errors."""
        if isinstance(e, Var):
            t = self.lookup(e.name)
            if t is None:
                self.diag("unbound-variable", f"variable {e.name!r} is not declared",
                          e.pos, names=(e.name,))
                return None
            if isinstance(t, (Arrow, Op)):
                self.diag("operand-type-mismatch",
                          f"function {e.name!r} used as a value", e.pos, names=(e.name,))
                return None
            return t
        if isinstance(e, Const):
            return const_type(e.text)
        if isinstance(e, Paren):
            return self.expr(e.inner)
        if isinstance(e, OpApp) and len(e.args) == 2:
            left, pairs = left_chain(e)  # a long chain must not recurse
            t = self.expr(left)
            for node, right in pairs:
                rt = self.expr(right)
                if t is not None and rt is not None:
                    t = self.op_type(node, [t, rt])
                else:
                    t = None
            return t
        if isinstance(e, OpApp):
            argts = [self.expr(a) for a in e.args]
            if any(t is None for t in argts):
                return None
            return self.op_type(e, argts)
        if isinstance(e, Call):
            return self.call(e)
        if isinstance(e, Index):
            return self.index(e)
        if isinstance(e, ArrayCtor):
            self.diag("operand-type-mismatch",
                      "array constructor is only allowed as the right-hand side "
                      "of an assignment to an array variable", e.pos)
            return None
        raise TypeError(f"cannot check expression {e!r}")

    def op_type(self, e, argts):
        """The result type of operator node `e` on operand types `argts`."""
        res = op_signature(e.op, argts, self.extended)
        if res is None:
            shown = ",".join(str(t) for t in argts)
            if e.op == "size":
                msg = f"{SIZE_MISMATCH}, got {shown}"
            else:
                msg = f"operator {e.op!r} not defined on ({shown})"
            self.diag("operand-type-mismatch", msg, e.pos,
                      names=self._var_names(e))
        return res

    def call(self, e):
        argts = [self.expr(a) for a in e.args]
        ft = self.lookup(e.fname)
        if ft is None:
            if self.fn_stack and e.fname in self.fn_stack:
                self.diag("recursion-attempt",
                          f"function {e.fname!r} cannot call itself", e.pos,
                          names=(e.fname,))
            else:
                self.diag("unbound-variable", f"function {e.fname!r} is not defined",
                          e.pos, names=(e.fname,))
            return None
        if any(t is None for t in argts):
            return None
        if isinstance(ft, Op):
            res = op_signature(e.fname, argts, self.extended)
            if res is None:
                shown = ",".join(str(t) for t in argts)
                self.diag("operand-type-mismatch",
                          f"builtin {e.fname!r} not defined on ({shown})", e.pos)
            return res
        if not isinstance(ft, Arrow):
            self.diag("operand-type-mismatch", f"{e.fname!r} is not a function",
                      e.pos, names=(e.fname,))
            return None
        if len(argts) != len(ft.params):
            self.diag("arity-mismatch",
                      f"{e.fname!r} expects {len(ft.params)} arguments, got {len(argts)}",
                      e.pos, names=(e.fname,))
            return None
        # every argument is judged: one only not iterable enough keeps the type
        for i, (got, want) in enumerate(zip(argts, ft.params)):
            if subtype_of(got, want):
                continue
            if type_class(got) != type_class(want):
                self.diag("operand-type-mismatch",
                          f"argument {i + 1} of {e.fname!r} must be {want}, got {got}",
                          e.pos, names=(e.fname,))
                return None
            self.diag("param-subtype-violation",
                      f"argument {i + 1} of {e.fname!r} must be {want}, got "
                      f"non-iterable {got}", e.pos, names=(e.fname,),
                      sites=(self.param_of(e.fname, i),))
        return ft.ret

    def param_of(self, fname, i):
        """The site of parameter i of the user function bound to fname: its
        site is decl_site(fundef), whose identity keys its parameter sites."""
        return ("param", fname, i, self.env[fname][1][2])

    def index(self, e):
        base = self.expr(e.base)
        if not self.int_index(e):
            return None
        if base is None:
            return None
        if isinstance(base, ArrayT):
            return base.elem
        if is_string_type(base):
            return STRING
        self.diag("operand-type-mismatch", f"cannot index into {base}", e.pos)
        return None

    def int_index(self, e):
        """Type the index of Index node e; False after reporting a non-int."""
        t = self.expr(e.index)
        if t is not None and not is_int_type(t):
            self.diag("operand-type-mismatch", "index must be an integer", e.pos)
            return False
        return True

    def _var_names(self, e):
        return tuple(sorted({sub.name for sub in walk_exprs(e) if isinstance(sub, Var)}))

    # -- statements ---------------------------------------------------------

    def stmt(self, l, s):
        """Check statement s under loop indicator l; its declarations stay
        bound until the enclosing scope ends."""
        if isinstance(s, Decl):
            self.decl(l, s)
        elif isinstance(s, Assign):
            self.assign(l, s)
        elif isinstance(s, Block):
            mark = len(self.undo)
            for st in s.stmts:
                self.stmt(l, st)
            self.unbind(mark)  # block scoping: declarations do not escape
        elif isinstance(s, If):
            ct = self.expr(s.cond)
            if ct is not None and ct is not BOOL:
                self.diag("operand-type-mismatch",
                          f"condition must be bool, got {ct}", s.pos,
                          names=self._var_names(s.cond))
            mark = len(self.undo)
            self.stmt(l, s.then)
            self.unbind(mark)
            self.stmt(l, s.els)
            self.unbind(mark)
        elif isinstance(s, For):
            self.loop(s)
        elif isinstance(s, FunDef):
            self.fundef(s)
        elif isinstance(s, (Break, Continue)):
            if not self.in_loop:
                word = "break" if isinstance(s, Break) else "continue"
                self.diag("misplaced-break", f"{word} outside of any loop", s.pos)
        elif isinstance(s, CallStmt):
            self.expr(s.call)
        else:
            raise TypeError(f"cannot check statement {s!r}")

    def decl(self, l, s):
        if not asg_predicate(l, s.annot):
            self.diag("iterable-decl-in-loop",
                      f"cannot declare iterable variable {s.name!r} inside a "
                      "loop or function body", s.pos, names=(s.name,),
                      sites=(decl_site(s),))
        if s.name in self.env:
            self.diag("redeclaration", f"variable {s.name!r} already declared",
                      s.pos, names=(s.name,))
        self.bind(s.name, s.annot, decl_site(s))

    def assign(self, l, s):
        """Asg for `x[i]...[j] = e` with n >= 0 indexes, typed outermost first:
        judged on x's own type and on the type written, x's type less n
        element types; then e, typed whatever the target, against the latter."""
        base, n = s.lvalue, 0
        while isinstance(base, Index):
            self.int_index(base)
            base, n = base.base, n + 1
        name = base.name if isinstance(base, Var) else None
        t, site = self.env.get(name, (None, None))
        if name is None:
            self.diag("operand-type-mismatch", "assignment target must be a variable or "
                      "an index chain" + (" over a variable" if n else ""), s.pos)
        elif t is None:
            self.diag("unbound-variable", f"assignment to undeclared variable {name!r}",
                      s.pos, names=(name,))
        elif not n and isinstance(t, (Arrow, Op)):
            self.diag("operand-type-mismatch",
                      f"cannot assign to function {name!r}", s.pos, names=(name,))
            t = None
        else:
            if not asg_predicate(l, t):
                self.diag("iterable-assignment-in-loop",
                          f"cannot assign to iterable variable {name!r} inside a "
                          "loop or function body", s.pos, names=(name,), sites=(site,))
            k = n
            while k and isinstance(t, ArrayT):  # peel one element type per index
                t, k = t.elem, k - 1
            if k:
                self.diag("operand-type-mismatch",
                          "strings are immutable, cannot assign to an index"
                          if is_string_type(t) else f"cannot index into {t}",
                          s.pos, names=(name,))
                t = None
            elif n and not asg_predicate(l, t):
                self.diag("iterable-assignment-in-loop",
                          f"cannot assign to an iterable element of {name!r} inside "
                          "a loop or function body", s.pos, names=(name,), sites=(site,))
        rhs_t = self.rhs_type(s.expr, t)
        if t is not None and rhs_t is not None and not type_equiv(t, rhs_t):
            target = repr(name) if not n else "element"
            self.diag("operand-type-mismatch",
                      f"cannot assign {rhs_t} to {target} of type {t}", s.pos,
                      names=(name,))

    def rhs_type(self, rhs, target_t):
        """Type an assignment right-hand side, giving array constructors
        their element annotation from the target."""
        if isinstance(rhs, ArrayCtor):
            if not self.extended:
                self.diag("operand-type-mismatch",
                          "array constructors require extended mode", rhs.pos)
                return None
            lt = self.expr(rhs.length)
            if lt is not None and not is_int_type(lt):
                self.diag("operand-type-mismatch",
                          "array length must be an integer", rhs.pos)
            if isinstance(target_t, ArrayT):
                rhs.elem = target_t.elem
                return target_t
            if target_t is not None:
                self.diag("operand-type-mismatch",
                          f"array constructor assigned to non-array type {target_t}",
                          rhs.pos)
            return None
        return self.expr(rhs)

    def loop(self, s):
        bound = s.bound
        if isinstance(bound, OpApp) and bound.op == "size":
            operand_t = self.expr(bound.args[0])
            if operand_t is not None and not is_iterable_type(operand_t):
                self.diag("non-iterable-loop-bound",
                          f"loop bound size(...) needs an iterable operand, got "
                          f"{operand_t}", s.pos,
                          names=self._var_names(bound.args[0]))
        elif isinstance(bound, Const) and bound.text[0].isdigit():
            pass  # literal bounds are input-independent constants
        else:
            self.diag("non-iterable-loop-bound",
                      "loop bound must be size(e) or an integer literal", s.pos)
        if s.counter in self.env:
            self.diag("redeclaration",
                      f"loop counter {s.counter!r} shadows an existing variable",
                      s.pos, names=(s.counter,))
        mark = len(self.undo)
        self.bind(s.counter, IINT, counter_site(s))
        inside, self.in_loop = self.in_loop, True
        self.stmt(True, s.body)
        self.in_loop = inside
        self.unbind(mark)

    def fundef(self, s):
        if s.name in self.env and not isinstance(self.lookup(s.name), Op):
            # builtins are ambient and may be shadowed by a user definition
            self.diag("redeclaration", f"function name {s.name!r} already bound",
                      s.pos, names=(s.name,))
        mark = len(self.undo)
        self.fn_stack.append(s.name)
        inside, self.in_loop = self.in_loop, False
        rt = self.unit(True, s.name, s)
        self.in_loop = inside
        self.fn_stack.pop()
        self.unbind(mark)
        if rt is not None and not type_equiv(rt, s.ret):
            self.diag("bad-return-type",
                      f"function {s.name!r} declares return type {s.ret} but "
                      f"returns {rt}", s.pos, names=(s.name,))
        self.bind(s.name, Arrow(tuple(t for t, _ in s.params), s.ret), decl_site(s))

    def unit(self, l, owner, u):
        """Bind the parameters of u, the Program (l False) or a FunDef (l
        True), check its body and return the type of its return expression."""
        seen = set()
        for i, (t, n) in enumerate(u.params):
            if n in seen:
                self.diag("redeclaration", f"duplicate parameter {n!r}"
                          + (f" in function {owner!r}" if l else ""), u.pos, names=(n,))
            seen.add(n)
            if not l and self.mode == "core" and t is not INT:
                self.diag("operand-type-mismatch",
                          "main parameters must be int in core mode", u.pos,
                          names=(n,))
            self.bind(n, t, param_site(owner, i, u))
        for s in u.body:
            self.stmt(l, s)
        return self.expr(u.ret_expr)

    # -- programs -----------------------------------------------------------

    def program(self, prog):
        rt = self.unit(False, "main", prog)
        if rt is not None and not is_int_type(rt):
            self.diag("bad-return-type",
                      f"program must return an integer, got {rt}",
                      prog.ret_expr.pos, names=self._var_names(prog.ret_expr))
        return INT if not self.errors else None
