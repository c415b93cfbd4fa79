"""Iterable-type inference: start with every integer variable iterable,
demote on violations, and report "poly" or "unknown".

A "poly" verdict comes with the witnessing annotation; re-annotating the
program with it passes the type checker, so the program provably terminates
in polynomial time.  "unknown" never claims non-polynomial behavior.
"""

from dataclasses import dataclass, field

from .ast import Decl, FunDef, Program, IINT, INT, clone, is_int_type, walk_stmts
from .errors import PolycError
from .typecheck import SIZE_MISMATCH, check_program, decl_site, param_site

DEMOTING_KINDS = ("iterable-assignment-in-loop", "iterable-decl-in-loop",
                  "param-subtype-violation")
# Once no site is left to demote, a parameter subtype violation can only be
# about strings, whose annotations the analysis never changes: ill-typed.
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
    demotion history."""

    assignment: dict  # site -> bool (True = iterable)
    history: list = field(default_factory=list)

    def iterable_sites(self):
        return {s for s, it in self.assignment.items() if it}

    def demote(self, sites, diags):
        demoted = []
        for s in sites:
            if s in self.assignment and self.assignment[s]:
                self.assignment[s] = False
                demoted.append(s)
        if demoted:
            self.history.append((tuple(demoted), tuple(diags)))
        return demoted


def _int_sites(prog):
    """Declaration sites of integer variables: Decl nodes and (program or
    function) parameter slots.  Loop counters are fixed iterable and boolean
    variables keep bool, so neither is a site."""
    sites = [param_site("main", i, prog)
             for i, (t, _) in enumerate(prog.params) if is_int_type(t)]
    for s in walk_stmts(prog.body):
        if isinstance(s, Decl) and is_int_type(s.annot):
            sites.append(decl_site(s))
        elif isinstance(s, FunDef):
            sites.extend(param_site(s.name, i, s)
                         for i, (t, _) in enumerate(s.params) if is_int_type(t))
    return sites


def apply_state(prog, state):
    """Set integer annotations in place per the state (sites stay stable)."""
    lookup = state.assignment

    def annot_for(site, default):
        if site in lookup:
            return IINT if lookup[site] else INT
        return default

    prog.params = [(annot_for(param_site("main", i, prog), t), n)
                   for i, (t, n) in enumerate(prog.params)]
    for s in walk_stmts(prog.body):
        if isinstance(s, Decl) and is_int_type(s.annot):
            s.annot = annot_for(decl_site(s), s.annot)
        elif isinstance(s, FunDef):
            s.params = [(annot_for(param_site(s.name, i, s), t), n)
                        for i, (t, n) in enumerate(s.params)]
    return prog


def demote_step(state, errors):
    """Demote the variables named by iterable assignment/declaration errors
    and by iterable parameters given non-iterable arguments, and return the
    sites demoted; other error kinds leave the state unchanged."""
    sites = []
    diags = []
    for d in errors:
        if d.kind in DEMOTING_KINDS:
            sites.extend(s for s in d.sites if s is not None)
            diags.append(d)
    return state.demote(sites, diags)


@dataclass
class PolyVerdict:
    verdict: str  # "poly" | "unknown"
    state: AnnotationState
    witness: Program = None  # annotated program when verdict == "poly"
    diags: tuple = ()


def poly_check(prog):
    """Algorithm: assign iterable everywhere, check, demote, repeat.

    Candidates are checked in extended mode regardless of the input mode:
    the initial all-iterable assignment gives main iterable parameters,
    which only the extended parameter rule admits.
    """
    work = clone(prog)
    sites = _int_sites(work)
    state = AnnotationState({s: True for s in sites})
    for _ in range(len(sites) + 1):
        apply_state(work, state)
        res = check_program(work, "extended")
        if res.ok:
            return PolyVerdict("poly", state, witness=work)
        if not demote_step(state, res.errors):
            # no adjustable type left; decide between unknown and ill-typed
            if all(d.kind in ITERABILITY_KINDS or _is_size_mismatch(d)
                   for d in res.errors):
                return PolyVerdict("unknown", state, diags=tuple(res.errors))
            raise IllTypedError(
                "program is ill-typed for reasons unrelated to iterability",
                res.errors)
    raise IllTypedError("demotion loop failed to converge", [])


def _is_size_mismatch(diag):
    return (diag.kind == "operand-type-mismatch"
            and diag.message.startswith(SIZE_MISMATCH))


def erase_annotations(prog):
    """Integer annotations carry no information for the analysis; this maps
    them all to int so the caller can feed a nominally annotation-free
    program to poly_check (which re-assigns them anyway)."""
    work = clone(prog)
    state = AnnotationState({s: False for s in _int_sites(work)})
    return apply_state(work, state)
