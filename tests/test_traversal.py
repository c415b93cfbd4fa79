
import pytest

import fuzzgen
from conftest import CORPUS, compile_src, load

from polyc import pretty_print
from polyc.analysis import IllTypedError, poly_check
from polyc.ast import (
    ArrayCtor, Assign, Block, Break, Call, CallStmt, Const,
    Continue, Decl, Expr, For, FunDef, If, Index, OpApp,
    Paren, Pos, Program, Stmt, Var, INT, NO_POS, clone, left_chain, rebuild,
    walk, walk_exprs, walk_stmts,
)


def _vars(n):
    return [Var(f"v{k}") for k in range(n)]


def _table():
    """One instance of every node class with its children in field order."""
    a, b, c = _vars(3)
    s1, s2, empty = Decl(INT, "x"), Decl(INT, "y"), Block([])
    call = Call("f", [a, b])
    return [
        (Var("x"), []),
        (Const("1"), []),
        (OpApp("+", [a, b]), [a, b]),
        (Paren(a), [a]),
        (call, [a, b]),
        (Index(a, b), [a, b]),
        (ArrayCtor(a, elem=INT), [a]),
        (Decl(INT, "x"), []),
        (Assign(a, b), [a, b]),
        (Block([s1, s2]), [s1, s2]),
        (If(a, s1, s2), [a, s1, s2]),
        (If(a, s1, empty), [a, s1, empty]),  # an if without else, as parsed
        (For("i", a, s1), [a, s1]),
        (FunDef(INT, "f", [(INT, "p")], [s1, s2], c), [s1, s2, c]),
        (Break(), []),
        (Continue(), []),
        (CallStmt(call), [call]),
        (Program([(INT, "x")], [s1, s2], c), [s1, s2, c]),
    ]


TABLE = _table()


def test_table_covers_every_node_class():
    classes = {type(node) for node, _ in TABLE}
    assert classes == set(Expr.__subclasses__()) | set(Stmt.__subclasses__()) \
        | {Program}


@pytest.mark.parametrize("node,expected", TABLE,
                         ids=[type(node).__name__ for node, _ in TABLE])
def test_children_in_field_order(node, expected):
    assert [id(n) for n in walk([node])] == \
        [id(node)] + [id(n) for n in walk(expected)]


def test_children_of_a_lowered_augmented_assign():
    # `x += y` parses to `x = x + y`, whose target is one node in two places
    prog = compile_src("int main(int x,int y){x += y; return x;}", "extended")
    assign = prog.body[0]
    x, plus = assign.lvalue, assign.expr
    assert [id(n) for n in walk([assign])] == \
        [id(assign), id(x), id(plus), id(x), id(plus.args[1])]


def test_rebuild_keeps_every_other_field():
    node = ArrayCtor(Var("n", pos=Pos(2, 9)), pos=Pos(2, 3), elem=INT)
    new = rebuild(node, lambda e: Var("m", pos=e.pos))
    assert new == ArrayCtor(Var("m")) and new.pos == Pos(2, 3)
    assert new.elem is INT and new.length.pos == Pos(2, 9)
    fun = FunDef(INT, "f", [(INT, "p")], [Break()], Var("p"), pos=Pos(1, 1))
    copy = rebuild(fun, clone)
    assert copy == fun and copy.params is not fun.params
    assert copy.params == [(INT, "p")] and copy.pos == Pos(1, 1)


def _programs():
    for path in sorted(CORPUS.glob("*.pc")):
        yield path.name, load(path.name)[0]
    for seed in range(60):
        yield f"fuzz-{seed}", fuzzgen.gen_program(seed)


def _nodes(prog):
    return list(walk(prog.body + [prog.ret_expr]))


def _preorder(node):
    """Reference order: recursion over the Expr and Stmt values of each
    node's fields, in field order."""
    yield node
    for name in type(node)._fields:
        value = getattr(node, name)
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, (Expr, Stmt)):
                yield from _preorder(child)


@pytest.mark.parametrize("name,prog", list(_programs()),
                         ids=[name for name, _ in _programs()])
def test_walk_is_preorder_over_children(name, prog):
    expected = [n for root in prog.body + [prog.ret_expr]
                for n in _preorder(root)]
    assert [id(n) for n in _nodes(prog)] == [id(n) for n in expected]
    assert [id(s) for s in walk_stmts(prog.body)] == \
        [id(n) for n in expected if isinstance(n, Stmt)]
    assert [id(e) for e in walk_exprs(prog.ret_expr)] == \
        [id(n) for n in _preorder(prog.ret_expr)]


@pytest.mark.parametrize("name,prog", list(_programs()),
                         ids=[name for name, _ in _programs()])
def test_clone_is_equal_and_unshared(name, prog):
    copy = clone(prog)
    assert copy == prog
    assert pretty_print(copy) == pretty_print(prog)
    old, new = _nodes(prog), _nodes(copy)
    assert [type(n) for n in new] == [type(n) for n in old]
    assert [n.pos for n in new] == [n.pos for n in old]
    assert not {id(n) for n in old} & {id(n) for n in new}


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.pc")),
                         ids=lambda p: p.name)
def test_poly_check_leaves_its_input_alone(path):
    prog, _ = load(path.name)
    before = pretty_print(prog)
    annots = [s.annot for s in walk_stmts(prog.body) if isinstance(s, Decl)]
    try:
        poly_check(prog)
    except IllTypedError:
        pass
    assert pretty_print(prog) == before
    assert [s.annot for s in walk_stmts(prog.body)
            if isinstance(s, Decl)] == annots


def test_walk_exprs_is_depth_safe():
    e = Var("x")
    for k in range(3000):
        e = OpApp("+", [e, Const(str(k))])
    seen = list(walk_exprs(e))
    assert len(seen) == 6001
    assert seen[0] is e and isinstance(seen[3000], Var)
    assert [c.text for c in seen[3001:3004]] == ["0", "1", "2"]


def test_left_chain():
    a, b, c, d = _vars(4)
    inner = OpApp("+", [a, b])
    mid = OpApp("+", [Paren(Paren(inner)), c])
    top = OpApp("+", [mid, d])
    left, pairs = left_chain(top)
    assert left is mid.args[0]  # a parenthesis ends the chain
    assert [(id(op), id(r)) for op, r in pairs] == [
        (id(mid), id(c)), (id(top), id(d))]
    # the operators of one precedence level form one chain
    sub = OpApp("-", [a, b])
    left, pairs = left_chain(OpApp("+", [sub, c]))
    assert left is a and [(op.op, r) for op, r in pairs] == [("-", b), ("+", c)]
    # another level, `*` (lowered node by node) or a unary operator ends it
    lt = OpApp("<", [a, b])
    left, pairs = left_chain(OpApp("==", [lt, c]))
    assert left is lt and [r for _, r in pairs] == [c]
    mul = OpApp("*", [a, b])
    assert left_chain(OpApp("/", [mul, c]))[0] is mul
    neg = OpApp("-", [a])
    assert left_chain(OpApp("-", [neg, b]))[0] is neg


def test_left_chain_is_depth_safe():
    e = Var("x")
    for k in range(3000):
        e = OpApp("+", [e, Const(str(k))])
    left, pairs = left_chain(e)
    assert left == Var("x") and [r.text for _, r in pairs] == [
        str(k) for k in range(3000)]


def test_pos_is_a_hashable_value():
    assert Pos(3, 4) == Pos(3, 4) and Pos(3, 4) != Pos(4, 3)
    assert hash(Pos(3, 4)) == hash(Pos(3, 4))
    assert {NO_POS: 1}[Pos(0, 0)] == 1
    assert str(Pos(3, 4)) == "3:4" and repr(Pos(3, 4)) == "Pos(line=3, col=4)"
    assert not hasattr(Pos(3, 4), "__dict__")
