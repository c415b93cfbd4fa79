import pytest

import fuzzgen
from conftest import CORPUS, call_chain, compile_src, load, load_printed

from polyc import analysis, check_program, load_program, pretty_print
from polyc.analysis import (
    ITERABILITY_KINDS, IllTypedError, apply_state, erase_annotations, poly_check,
)
from polyc.ast import Decl, FunDef, IINT, clone, is_int_type, walk_stmts
from polyc.tm import clock_program, compile_tm, parse_tm
from polyc.typecheck import SIZE_MISMATCH, Checker


def site_names(sites, witness):
    out = set()
    for s in sites:
        if s[0] == "decl":
            out.add(s[1])
        elif s[0] == "param":
            _, owner, i, _ = s
            if owner == "main":
                out.add(witness.params[i][1])
    return out


class TestPolyCheck:
    def test_fastmul_shape_is_poly(self):
        prog, _ = load("fastmul.pc")
        v = poly_check(erase_annotations(prog))
        assert v.verdict == "poly"
        assert site_names(v.state.iterable_sites(), v.witness) == {"z"}
        demoted = {s for s, it in v.state.assignment.items() if not it}
        assert site_names(demoted, v.witness) == {"o", "x", "y"}
        assert check_program(v.witness, "extended").ok

    def test_badmul_shape_is_unknown(self):
        prog, _ = load("badmul.pc")
        v = poly_check(erase_annotations(prog))
        assert v.verdict == "unknown"
        assert any(d.kind == "non-iterable-loop-bound" for d in v.diags)

    def test_loop_free_is_poly_in_one_round(self):
        prog = compile_src("int main(int x){int a; a=x+1; return a;}")
        v = poly_check(erase_annotations(prog))
        assert v.verdict == "poly"
        assert v.state.history == []  # no demotions needed

    def test_demotion_is_monotone_and_terminates(self):
        prog, _ = load("fastmul.pc")
        v = poly_check(erase_annotations(prog))
        demoted = [site for site, _ in v.state.history]
        assert len(set(demoted)) == len(demoted)  # never demoted twice
        assert set(demoted) == {s for s, it in v.state.assignment.items() if not it}

    def test_ill_typed_is_distinct_from_unknown(self):
        prog = compile_src("int main(int x){x=y+1; return x;}")
        with pytest.raises(IllTypedError):
            poly_check(prog)

    def test_original_annotations_ignored(self):
        # analysis behaves the same whether or not annotations were erased
        prog, _ = load("fastmul.pc")
        v1 = poly_check(prog)
        v2 = poly_check(erase_annotations(prog))
        assert v1.verdict == v2.verdict == "poly"

    def test_extended_function_params_join_lattice(self):
        src = ("// mode: extended\n"
               "int main(int x){int f(int a){iint q; q=a; "
               "int r; r=0; for(i<size(q)) r=r+1; return r;} return f(x);}")
        prog = compile_src(src, "extended")
        v = poly_check(prog)
        # q=a occurs inside the function body (checked as a loop), so q is
        # demoted and the bound size(q) then fails: unknown
        assert v.verdict == "unknown"

    @pytest.mark.parametrize("name", ["knapsack.pc", "sort.pc"])
    def test_helper_with_non_iterable_arguments_is_poly(self, name):
        # helpers such as max(int a, int b) start with iterable parameters;
        # calls with non-iterable arguments demote them
        prog, _ = load(name)
        v = poly_check(erase_annotations(prog))
        assert v.verdict == "poly"
        assert check_program(v.witness, "extended").ok

    def test_string_parameter_violation_stays_ill_typed(self):
        src = ("int main(int x){int f(istring s){return size(s);} "
               "string t; t=\"ab\"; return f(t);}")
        with pytest.raises(IllTypedError):
            poly_check(compile_src(src, "extended"))

    def test_witness_reannotation_idempotent(self):
        prog, _ = load("fastmul.pc")
        v = poly_check(prog)
        v2 = poly_check(v.witness)
        assert v2.verdict == "poly"


class TestLinearWork:
    @pytest.mark.parametrize("k", [50, 400])
    def test_call_chain_takes_two_checks(self, monkeypatch, k):
        calls = []
        program = Checker.program
        monkeypatch.setattr(Checker, "program",
                            lambda self, prog: calls.append(prog) or program(self, prog))
        v = poly_check(load_program(call_chain(k))[0])
        assert len(calls) == 2
        assert v.verdict == "poly"
        assert {n for n, t in int_sites(v.witness) if t is IINT} == {"x"}


def int_sites(prog):
    """(name, annotation) of each integer site in a fixed order: main's
    parameters, then declarations and function parameters ("f.a") in
    statement order."""
    out = [(n, t) for t, n in prog.params if is_int_type(t)]
    for s in walk_stmts(prog.body):
        if isinstance(s, Decl) and is_int_type(s.annot):
            out.append((s.name, s.annot))
        elif isinstance(s, FunDef):
            out.extend((f"{s.name}.{n}", t) for t, n in s.params if is_int_type(t))
    return out


def reference_poly_check(prog):
    """The round loop that poly_check replaced, over check_program: every
    integer site iterable, then check and demote the sites the diagnostics
    name until a round names no new one; the verdict and annotated tree."""
    work = apply_state(clone(prog), lambda site: True)
    demoted = set()
    while True:
        res = check_program(apply_state(work, lambda s: s not in demoted), "extended")
        new = {s for d in res.errors for s in d.sites} - demoted
        if res.ok or not new:
            break
        demoted |= new
    if res.ok:
        return "poly", work
    if all(d.kind in ITERABILITY_KINDS or d.kind == "operand-type-mismatch"
           and d.message.startswith(SIZE_MISMATCH) for d in res.errors):
        return "unknown", work
    return "ill-typed", work


def analyzed(prog):
    """poly_check's verdict, or "ill-typed", and the tree it annotated."""
    trees = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "clone", lambda p: trees.append(clone(p)) or trees[-1])
        try:
            return poly_check(prog).verdict, trees[0]
        except IllTypedError:
            return "ill-typed", trees[0]


def same_as_reference(prog):
    """Each program erased and as written: the verdicts agree, a "poly"
    witness is the reference's text, and an "unknown" keeps iterable only
    sites the reference keeps iterable.  Returns the verdicts."""
    verdicts = []
    for p in (erase_annotations(prog), prog):
        want, ref = reference_poly_check(p)
        got, tree = analyzed(p)
        assert got == want, pretty_print(p)
        if got == "poly":
            assert pretty_print(tree) == pretty_print(ref)
        assert all(w is IINT for (_, g), (_, w) in zip(int_sites(tree), int_sites(ref))
                   if g is IINT), pretty_print(p)
        verdicts.append(got)
    return verdicts


_M = "// mode: extended\nint main(int x){ int o; o=0; for(i<size(x)){ o=o+1; } "
_F = "int f(int p){ return p; } "
# one case per flow rule: the source, its verdict and the sites left iterable
FLOW_RULES = [
    ("chain", call_chain(3), "poly", {"x"}),
    ("nested call", _M + "array<int> a; a=array(2); int g(int p, int q){ return p; } "
     "int r; r=g(g(x, a[x]) + a[o], x); return r; }", "poly", {"x", "r"}),
    ("array<int> element", _M + "array<int> a; a=array(2); " + _F
     + "int r; r=f(a[x]); return r; }", "poly", {"x", "r"}),
    ("int-returning call", _M + _F + "int g(int q){ return q; } "
     "int r; r=f(g(x)); return r; }", "poly", {"x", "g.q", "r"}),
    ("builtin min/max", _M + _F + "int g(int q){ return q; } "
     "int r; r=f(min(x, o)) + g(max(x, x)); return r; }", "poly", {"x", "g.q", "r"}),
    # an iint result: the arguments of a user max decide nothing
    ("user max", _M + "iint max(int a, int b){ return a; } " + _F
     + "int r; r=f(max(x, o)); return r; }", "poly", {"x", "max.a", "f.p", "r"}),
    # size(o) fails once o is demoted, but f's parameter need not follow it
    ("size() argument", _M + _F + "int r; r=f(size(o) + x); return r; }",
     "unknown", {"x", "f.p", "r"}),
    ("counter argument", _M + _F + "for(j<size(x)){ o=f(j); } return o; }",
     "poly", {"x", "f.p"}),
    ("outer variable in a body", _M + _F + "int g(int q){ return f(o) + q; } "
     "int r; r=g(x); return r; }", "poly", {"x", "g.q", "r"}),
    ("index argument", _M + "array<iint> b; b=array(2); " + _F
     + "int r; r=f(b[o]); return r; }", "poly", {"x", "f.p", "r"}),
]


class TestDifferential:
    """The worklist against the round loop it replaced."""

    @pytest.mark.parametrize("name, src, verdict, iterable", FLOW_RULES,
                             ids=[c[0] for c in FLOW_RULES])
    def test_flow_rule(self, name, src, verdict, iterable):
        prog = load_program(src)[0]
        assert same_as_reference(prog) == [verdict, verdict]
        got, tree = analyzed(prog)
        assert {n for n, t in int_sites(tree) if t is IINT} == iterable

    def test_corpus(self):
        for f in sorted(CORPUS.glob("*.pc")):
            same_as_reference(load(f.name)[0])

    def test_compiled_tms_and_clocks(self):
        for name in ("bitflip.tm", "successor.tm"):
            machine = parse_tm((CORPUS / name).read_text(), name=name)
            for d in (1, 2, 3):
                same_as_reference(load_printed(compile_tm(machine, d)))
        for d in range(1, 9):
            same_as_reference(load_printed(clock_program(d)))

    def test_fuzzgen_core_programs(self):
        for seed in range(1000):
            same_as_reference(fuzzgen.gen_program(seed))

    def test_call_heavy_programs(self):
        verdicts = set()
        for seed in range(500):
            verdicts.update(same_as_reference(load_program(fuzzgen.gen_calls(seed))[0]))
        assert verdicts >= {"poly", "unknown"}
