"""Iterable-type inference in two checker passes: a verdict "poly" or "unknown".

Each demotion rule is a Horn clause over a two-point lattice (Dowling &
Gallier 1984; Henglein 1991).  A recording check, with every integer site
iterable, collects the integer sites; the facts, which are the sites its
diagnostics name (a declaration or assignment inside a loop or function
body, a parameter given an argument that no annotation makes iterable, such
as an array<int> element); and the edges, from each site that decides the
type of a user call's argument to the parameter.  A worklist demotes each
fact and each site an edge reaches once, so the analysis is linear; one
check_program of the result gives the verdict.  A "poly" verdict comes with
its witnessing annotation, which passes the checker, so the program provably
runs in polynomial time; "unknown" never claims non-polynomial behavior.
"""

from dataclasses import dataclass, field

from .ast import (Arrow, Call, Decl, FunDef, OpApp, Paren, Program, Var, IINT, INT,
                  clone, is_int_type, walk_stmts)
from .errors import PolycError
from .typecheck import SIZE_MISMATCH, Checker, check_program, decl_site, param_site
from .values import Builtin

# After the worklist, a parameter subtype violation can only be about strings,
# whose annotations the analysis never changes: ill-typed.
ITERABILITY_KINDS = ("iterable-assignment-in-loop", "iterable-decl-in-loop",
                     "non-iterable-loop-bound")


class IllTypedError(PolycError):
    label = "ill-typed"

    def __init__(self, message, diags):
        super().__init__(message)
        self.diags = diags


@dataclass
class AnnotationState:
    """Map from integer declaration sites to iterable/non-iterable, plus the
    demotion history: (site, the diagnostic or the call that demoted it)."""

    assignment: dict  # site -> bool (True = iterable)
    history: list = field(default_factory=list)

    def iterable_sites(self):
        return {s for s, it in self.assignment.items() if it}


def apply_state(prog, iterable):
    """Annotate each integer site iint where iterable(site) holds and int
    elsewhere, in place, so that the sites stay stable."""
    def params(owner, u):
        return [((IINT if iterable(param_site(owner, i, u)) else INT)
                 if is_int_type(t) else t, n) for i, (t, n) in enumerate(u.params)]

    prog.params = params("main", prog)
    for s in walk_stmts(prog.body):
        if isinstance(s, Decl) and is_int_type(s.annot):
            s.annot = IINT if iterable(decl_site(s)) else INT
        elif isinstance(s, FunDef):
            s.params = params(s.name, s)
    return prog


class _Recorder(Checker):
    """The extended checker, recording the integer sites it binds (loop
    counters are fixed iterable) and the edges of each user call."""

    def __init__(self):
        super().__init__("extended")
        self.sites = []
        self.flows = {}  # site -> [(parameter site, call)]

    def bind(self, name, annot, site):
        if is_int_type(annot) and site[0] != "counter":
            self.sites.append(site)
        super().bind(name, annot, site)

    def call(self, e):
        if isinstance(self.lookup(e.fname), Arrow):
            for i, arg in enumerate(e.args):
                param = self.param_of(e.fname, i)
                for site in self.deciding_sites(arg):
                    self.flows.setdefault(site, []).append((param, e))
        return super().call(e)

    def deciding_sites(self, e):
        """The sites of the variables that decide whether e is iterable,
        reached through operators, parentheses and builtin calls; size(), an
        index and a user call's result are iterable or not by themselves."""
        todo, sites = [e], []
        while todo:
            e = todo.pop()
            if isinstance(e, Var) and e.name in self.env:
                sites.append(self.env[e.name][1])
            elif isinstance(e, Paren):
                todo.append(e.inner)
            elif isinstance(e, OpApp) and e.op != "size":
                todo.extend(e.args)
            elif isinstance(e, Call) and isinstance(self.lookup(e.fname), Builtin):
                todo.extend(e.args)
        return sites


@dataclass
class PolyVerdict:
    verdict: str  # "poly" | "unknown"
    state: AnnotationState
    witness: Program = None  # annotated program when verdict == "poly"
    diags: tuple = ()


def poly_check(prog):
    """Record with every site iterable, demote along the edges, check once.
    Both checks run in extended mode whatever the input mode: only its
    parameter rule admits main's iterable parameters."""
    work = apply_state(clone(prog), lambda site: True)
    rec = _Recorder()
    rec.program(work)
    state = AnnotationState(dict.fromkeys(rec.sites, True))
    todo = [(site, d) for d in rec.errors for site in d.sites]
    while todo:
        site, why = todo.pop()
        if state.assignment.get(site):
            state.assignment[site] = False
            state.history.append((site, why))
            todo.extend(rec.flows.get(site, ()))
    res = check_program(apply_state(work, state.assignment.get), "extended")
    if res.ok:
        return PolyVerdict("poly", state, witness=work)
    if all(d.kind in ITERABILITY_KINDS or d.kind == "operand-type-mismatch"
           and d.message.startswith(SIZE_MISMATCH) for d in res.errors):
        return PolyVerdict("unknown", state, diags=tuple(res.errors))
    raise IllTypedError(
        "program is ill-typed for reasons unrelated to iterability", res.errors)


def erase_annotations(prog):
    """Integer annotations carry no information for the analysis; this maps
    them all to int so the caller can feed a nominally annotation-free
    program to poly_check (which re-assigns them anyway)."""
    return apply_state(clone(prog), lambda site: False)
