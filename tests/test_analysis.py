import pytest

from conftest import compile_src, load

from polyc import check_program
from polyc.analysis import (
    AnnotationState, IllTypedError, demote_step, erase_annotations, poly_check,
)
from polyc.typecheck import Diag


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
        seen = set()
        for demoted, _ in v.state.history:
            assert not (set(demoted) & seen)  # never demoted twice
            seen.update(demoted)
        assert len(v.state.history) <= len(v.state.assignment) + 1

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


class TestDemoteStep:
    def test_demotes_named_sites(self):
        site = ("decl", "o", 1)
        state = AnnotationState({site: True})
        d = Diag("iterable-assignment-in-loop", "m", names=("o",),
                 sites=(site,))
        demote_step(state, [d])
        assert state.assignment[site] is False
        assert len(state.history) == 1

    def test_other_kinds_do_not_demote(self):
        site = ("decl", "y", 2)
        state = AnnotationState({site: True})
        d = Diag("non-iterable-loop-bound", "m", names=("y",), sites=(site,))
        demote_step(state, [d])
        assert state.assignment[site] is True

    def test_returns_the_sites_it_demoted(self):
        a, b, c = ("decl", "a", 1), ("decl", "b", 2), ("decl", "c", 3)
        state = AnnotationState({a: True, b: False})
        diags = [Diag("iterable-decl-in-loop", "m", sites=(a, b, c, a)),
                 Diag("param-subtype-violation", "m", sites=(None,))]
        assert demote_step(state, diags) == [a]
        assert demote_step(state, diags) == []
        assert state.history == [((a,), tuple(diags))]

    def test_empty_error_list(self):
        state = AnnotationState({("decl", "a", 3): True})
        demote_step(state, [])
        assert state.assignment == {("decl", "a", 3): True}
        assert state.history == []
