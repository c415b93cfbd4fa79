"""Random well-typed core program generator for the property suites.

Programs are well typed by construction: iterable declarations only appear
at the top level, loop bodies never assign iterable variables, every loop
bound is size(iterable expression) or a small literal, and counters get
globally unique names.
"""

import random

from polyc.ast import (
    Assign, Block, Const, Decl, For, If, OpApp, Paren, Program, Var,
    BOOL, IINT, INT, walk_stmts,
)


class ProgramGen:
    def __init__(self, rng: random.Random, max_loop_depth=3):
        self.rng = rng
        self.uid = 0
        self.max_loop_depth = max_loop_depth
        self.iints = []  # iterable variables, all top-level
        self.counters = []  # active loop counters (iint, readable)

    def fresh(self, prefix):
        self.uid += 1
        return f"{prefix}{self.uid}"

    # -- expressions ---------------------------------------------------------

    def int_expr(self, ints, depth, iterable_only=False):
        r = self.rng
        pool = (self.iints + self.counters) if iterable_only \
            else (ints + self.iints + self.counters)
        if depth <= 0 or r.random() < 0.3:
            if pool and r.random() < 0.7:
                return Var(r.choice(pool))
            return Const(str(r.randrange(0, 20)))
        kind = r.random()
        if kind < 0.15 and not iterable_only:
            # size() keeps the expression iterable regardless of context
            return OpApp("size", [self.int_expr(ints, depth - 1, True)])
        if kind < 0.25:
            return OpApp("-", [self._wrap(self.int_expr(ints, depth - 1,
                                                        iterable_only))])
        op = r.choice(["+", "-", "/", "%"])
        return OpApp(op, [self._wrap(self.int_expr(ints, depth - 1, iterable_only)),
                          self._wrap(self.int_expr(ints, depth - 1, iterable_only))])

    def bool_expr(self, ints, bools, depth):
        r = self.rng
        if depth <= 0 or r.random() < 0.25:
            if bools and r.random() < 0.5:
                return Var(r.choice(bools))
            return Const(r.choice(["true", "false"]))
        kind = r.random()
        if kind < 0.55:
            op = r.choice([">=", "<=", ">", "<", "==", "!="])
            return OpApp(op, [self._wrap(self.int_expr(ints, depth - 1)),
                              self._wrap(self.int_expr(ints, depth - 1))])
        if kind < 0.7:
            return OpApp("!", [self._wrap(self.bool_expr(ints, bools, depth - 1))])
        op = r.choice(["&&", "||"])
        return OpApp(op, [self._wrap(self.bool_expr(ints, bools, depth - 1)),
                          self._wrap(self.bool_expr(ints, bools, depth - 1))])

    @staticmethod
    def _wrap(e):
        # keep generated trees reparseable as-is
        if isinstance(e, OpApp) and e.op != "size" and len(e.args) == 2:
            return Paren(e)
        return e

    # -- statements ----------------------------------------------------------

    def stmts(self, ints, bools, budget, loop_depth, top_level):
        out = []
        r = self.rng
        while budget > 0:
            budget -= 1
            kind = r.random()
            if kind < 0.16 and top_level:
                name = self.fresh("z")
                self.iints.append(name)
                out.append(Decl(IINT, name))
                if r.random() < 0.8:
                    out.append(Assign(Var(name), self.int_expr(ints, 2)))
            elif kind < 0.3:
                t = INT if r.random() < 0.7 else BOOL
                name = self.fresh("v" if t is INT else "b")
                out.append(Decl(t, name))
                (ints if t is INT else bools).append(name)
            elif kind < 0.55:
                if ints and r.random() < 0.8:
                    out.append(Assign(Var(r.choice(ints)),
                                      self.int_expr(ints, 3)))
                elif bools:
                    out.append(Assign(Var(r.choice(bools)),
                                      self.bool_expr(ints, bools, 2)))
            elif kind < 0.7:
                guard = self.bool_expr(ints, bools, 2)
                then = self.block(ints, bools, max(1, budget // 2), loop_depth)
                els = self.block(ints, bools, max(1, budget // 2), loop_depth)
                out.append(If(guard, then, els))
                budget -= 2
            elif kind < 0.9 and loop_depth < self.max_loop_depth:
                out.append(self.loop(ints, bools, budget, loop_depth))
                budget -= 3
            else:
                out.append(Block(self.stmts(list(ints), list(bools),
                                            min(2, budget), loop_depth,
                                            False)))
        return out

    def block(self, ints, bools, budget, loop_depth):
        return Block(self.stmts(list(ints), list(bools),
                                self.rng.randint(1, max(1, budget)),
                                loop_depth, False))

    def loop(self, ints, bools, budget, loop_depth):
        r = self.rng
        if (self.iints or self.counters) and r.random() < 0.8:
            bound = OpApp("size", [self.int_expr(ints, 1, iterable_only=True)])
        elif r.random() < 0.5:
            bound = OpApp("size", [Const(str(r.randrange(0, 64)))])
        else:
            bound = Const(str(r.randrange(0, 7)))
        counter = self.fresh("c")
        self.counters.append(counter)
        body = self.block(ints, bools, max(1, min(4, budget)), loop_depth + 1)
        self.counters.pop()
        return For(counter, bound, body)


def gen_program(seed):
    rng = random.Random(seed)
    gen = ProgramGen(rng)
    nparams = rng.randint(1, 3)
    params = [(INT, f"x{i}") for i in range(nparams)]
    ints = [n for _, n in params]
    bools = []
    # seed one or two iterable variables from the inputs so loop bounds
    # track input sizes instead of collapsing to small constants
    body = []
    for _ in range(rng.randint(1, 2)):
        name = gen.fresh("z")
        gen.iints.append(name)
        body.append(Decl(IINT, name))
        body.append(Assign(Var(name), gen.int_expr(ints, 2)))
    body.extend(gen.stmts(ints, bools, rng.randint(6, 14), 0, True))
    ret = gen.int_expr(ints, 2)
    return Program(params, body, ret)


def watch_sets(prog):
    """Per-loop iterable restriction: all iterable declarations (top level
    by construction) plus the counters of the loop and its ancestors."""
    iints = [s.name for s in walk_stmts(prog.body)
             if isinstance(s, Decl) and s.annot is IINT]
    watch = {}

    def go(stmts, counters):
        for s in stmts:
            if isinstance(s, For):
                inner = counters + [s.counter]
                watch[id(s)] = frozenset(iints + inner)
                go([s.body], inner)
            elif isinstance(s, Block):
                go(s.stmts, counters)
            elif isinstance(s, If):
                go([s.then, s.els], counters)

    go(prog.body, [])
    return watch



def gen_calls(seed):
    """Source of a call-heavy extended program, well-typed or not: int
    functions fed arithmetic, min/max (a user max at times), size(), array
    elements, calls, counters, outer variables and loop-assigned ones."""
    r, funs, names = random.Random(seed), [], ["x", "y", "o"]
    out = ["// mode: extended\nint main(int x, int y){ array<int> a; a=array(4);"
           " array<iint> b; b=array(4); int o; o=0;"]

    def expr(scope, depth):
        k = r.random()
        if depth <= 0 or k < 0.3 or (k >= 0.75 and not funs):
            return r.choice(scope + ["1"])
        e, e2 = expr(scope, depth - 1), expr(scope, depth - 1)
        if k < 0.75:
            return r.choice([f"({e}+{e2})", f"({e}-{e2})", f"min({e},{e2})",
                             f"max({e},{e2})", f"{r.choice('ab')}[{e}]",
                             f"size({r.choice(scope[:2] + scope[-1:])})"])
        f, n = r.choice(funs)
        return f"{f}({','.join(expr(scope, depth - 1) for _ in range(n))})"

    if r.random() < 0.3:
        out.append("int max(int p, int q){return p;}")
    for j in range(r.randint(1, 6)):
        ps = [f"p{j}_{i}" for i in range(r.randint(1, 3))]
        s, c, t = names + ps, f"c{j}", f"t{j}"
        body = [f"int {t}; {t}={expr(s, 2)};",
                f"for({c}<size({expr(s, 1)})){{ {t}={expr(s + [c], 2)}; }}",
                f"{ps[0]}={expr(s, 1)};"]
        body = [b for b, p in zip(body, (1, 0.3, 0.2)) if r.random() < p]
        out.append(f"int f{j}({','.join('int ' + p for p in ps)}){{ "
                   f"{' '.join(body)} return {expr(s + [t], 2)}; }}")
        funs.append((f"f{j}", len(ps)))
        if r.random() < 0.5:
            out.append(f"int v{j}; v{j}={expr(names, 3)};")
            names.append(f"v{j}")
    main = [f"for(i<size(x)){{ o={expr(names + ['i'], 3)}; }}",
            f"for(i<size({expr(names, 2)})){{ o=o+1; }}"]
    out += [m for m, p in zip(main, (0.7, 0.3)) if r.random() < p]
    return "\n".join(out) + f"\nreturn {expr(names, 3)};\n}}\n"
