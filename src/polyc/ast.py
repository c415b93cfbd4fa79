"""AST node definitions shared by the core and extended language."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
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

    def __str__(self):
        return type(self).__name__.lower()


@dataclass(frozen=True)
class Fundamental(Type):
    name: str

    def __str__(self):
        return self.name

    # the five instances below are singletons; identity must survive copying
    def __copy__(self):
        return self

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
# Expressions


class Expr:
    pass


@dataclass(eq=True)
class Var(Expr):
    name: str
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(eq=True)
class Const(Expr):
    """Literal with its surface text: digits, 0b digits, true/false, "...". """

    text: str
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(eq=True)
class OpApp(Expr):
    op: str
    args: list
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(eq=True)
class Paren(Expr):
    inner: Expr
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(eq=True)
class Call(Expr):
    fname: str
    args: list
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(eq=True)
class Index(Expr):
    base: Expr
    index: Expr
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(eq=True)
class ArrayCtor(Expr):
    length: Expr
    pos: Pos = field(default=NO_POS, compare=False)
    # element annotation backfilled by the type checker
    elem: Type = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# Statements


class Stmt:
    pass


@dataclass(eq=True)
class Decl(Stmt):
    annot: Type
    name: str
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(eq=True)
class Assign(Stmt):
    lvalue: Expr  # Var or Index chain over a Var
    expr: Expr
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(eq=True)
class Block(Stmt):
    stmts: list
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(eq=True)
class If(Stmt):
    cond: Expr
    then: Stmt
    els: Stmt  # None only before desugaring (extended mode)
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(eq=True)
class For(Stmt):
    counter: str
    bound: Expr  # OpApp("size", [e]) or a numeral Const
    body: Stmt
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(eq=True)
class FunDef(Stmt):
    ret: Type
    name: str
    params: list  # (Type, name) pairs
    body: list
    ret_expr: Expr
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(eq=True)
class Break(Stmt):
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(eq=True)
class Continue(Stmt):
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(eq=True)
class CallStmt(Stmt):
    call: Call
    pos: Pos = field(default=NO_POS, compare=False)


# Sugar statements produced by the extended parser; removed by desugar().


@dataclass(eq=True)
class DeclInit(Stmt):
    annot: Type
    name: str
    init: Expr
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(eq=True)
class AugAssign(Stmt):
    op: str  # "+" or "-"
    lvalue: Expr
    expr: Expr
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(eq=True)
class Incr(Stmt):
    lvalue: Expr
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(eq=True)
class Program:
    params: list  # (Type, name) pairs
    body: list
    ret_expr: Expr
    pos: Pos = field(default=NO_POS, compare=False)


def walk_stmts(stmts):
    """Yield every statement in a statement list and all nested ones, in
    pre-order.  An explicit stack keeps deep nesting off the Python stack."""
    stack = list(reversed(stmts))
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, Block):
            stack.extend(reversed(s.stmts))
        elif isinstance(s, If):
            if s.els is not None:
                stack.append(s.els)
            stack.append(s.then)
        elif isinstance(s, For):
            stack.append(s.body)
        elif isinstance(s, FunDef):
            stack.extend(reversed(s.body))


def walk_exprs(e):
    yield e
    if isinstance(e, OpApp):
        for a in e.args:
            yield from walk_exprs(a)
    elif isinstance(e, Paren):
        yield from walk_exprs(e.inner)
    elif isinstance(e, Call):
        for a in e.args:
            yield from walk_exprs(a)
    elif isinstance(e, Index):
        yield from walk_exprs(e.base)
        yield from walk_exprs(e.index)
    elif isinstance(e, ArrayCtor):
        yield from walk_exprs(e.length)


def stmt_exprs(s):
    """Expressions appearing directly in one statement (non-recursive)."""
    if isinstance(s, Assign):
        return [s.lvalue, s.expr]
    if isinstance(s, If):
        return [s.cond]
    if isinstance(s, For):
        return [s.bound]
    if isinstance(s, FunDef):
        return [s.ret_expr]
    if isinstance(s, CallStmt):
        return [s.call]
    if isinstance(s, DeclInit):
        return [s.init]
    if isinstance(s, AugAssign):
        return [s.lvalue, s.expr]
    if isinstance(s, Incr):
        return [s.lvalue]
    return []


def program_names(prog):
    """All identifiers referred to in a program (variables and functions)."""
    names = set(n for _, n in prog.params)
    stmts = list(walk_stmts(prog.body))
    exprs = [prog.ret_expr]
    for s in stmts:
        if isinstance(s, (Decl, DeclInit)):
            names.add(s.name)
        elif isinstance(s, For):
            names.add(s.counter)
        elif isinstance(s, FunDef):
            names.add(s.name)
            names.update(n for _, n in s.params)
        exprs.extend(stmt_exprs(s))
    for e in exprs:
        for sub in walk_exprs(e):
            if isinstance(sub, Var):
                names.add(sub.name)
            elif isinstance(sub, Call):
                names.add(sub.fname)
    return names


def fresh_name(base, taken):
    if base not in taken:
        return base
    k = 2
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"
