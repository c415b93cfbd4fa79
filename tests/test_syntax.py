import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SUGARED, CORPUS, compile_src, corpus_source, load

from polyc import (
    check_program, load_program, parse_source, pretty_print, run_program,
    tokenize,
)
from polyc.lexer import KEYWORDS
from polyc.ast import (
    Assign, Block, Const, Decl, For, FunDef, OpApp, Paren, Pos, Program, Var,
    IINT, walk, walk_stmts,
)
from polyc.errors import DesugarError, LexError, ParseError, PolycError
from polyc.parser import detect_mode


def kinds(source):
    return [t[:2] for t in tokenize(source)[:-1]]


def _kind(kind, strategy):
    return strategy.map(lambda lexeme: (kind, lexeme))


# valid lexemes with their kinds, and whitespace that separates them
_LEXEMES = st.one_of(
    _kind("keyword", st.sampled_from(sorted(KEYWORDS))),
    _kind("identifier", st.from_regex(
        r"[a-zA-Z_\u00e9][a-zA-Z0-9_\u00e9\u0663]{0,5}", fullmatch=True)
        .filter(lambda w: w not in KEYWORDS)),
    _kind("decimal-literal", st.from_regex(r"[0-9]{1,5}", fullmatch=True)),
    _kind("binary-literal", st.from_regex(r"0b[01]{1,5}", fullmatch=True)),
    _kind("string-literal", st.from_regex(r'"[^"\n]{0,5}"', fullmatch=True)),
    _kind("operator-symbol", st.sampled_from([
        "&&", "||", "==", "!=", "<=", ">=", "+=", "-=", "++",
        "+", "-", "*", "/", "%", "!", "<", ">", "="])),
    _kind("punctuation", st.sampled_from(list("(){}[];,"))),
)
_SPACE = st.text(alphabet=" \t\r\n", min_size=1, max_size=3)

# pieces of valid and invalid source, to lex in any order
_PIECES = st.sampled_from([
    " ", "\t", "\r\n", "\n", "//", "// c\"0b", '"', '"a b"', "0b", "0b1", "0",
    "7", "&&", "&", "||", "|", "++", "+=", "==", "=", "!", "<", "-", "*", "/",
    "(", "}", "[", ";", ",", "x", "Z", "_", "\u00e9", "\u0663", "\u00b2", "@",
    "\xa0", "int", "true",
])
_SKIPPED = re.compile(r"(?:[ \t\r\n]|//[^\n]*)*")
_SYMBOL_CHARS = "+-*/%!<>=(){}[];,"


def offset(source, line, col):
    """The index in `source` of a 1-based line and column."""
    starts = [0] + [i + 1 for i, c in enumerate(source) if c == "\n"]
    return starts[line - 1] + col - 1


def lex_error_at(source, k):
    """The LexError message for a token starting at source[k], or None when
    a token can start there."""
    c, rest = source[k], source[k:]
    if c == '"':
        closed = '"' in rest[1:].split("\n")[0]
        return None if closed else "unterminated string literal"
    if rest.startswith("0b") and rest[2:3] not in ("0", "1"):
        return "binary literal needs at least one digit"
    if c in "&|" and rest[1:2] != c or not (
            c.isalpha() or c == "_" or c in "0123456789&|" + _SYMBOL_CHARS):
        return f"illegal character {c!r}"
    return None


class TestTokenize:
    def test_declaration(self):
        assert kinds("iint z;") == [
            ("keyword", "iint"), ("identifier", "z"), ("punctuation", ";")]

    def test_binary_literal(self):
        assert kinds("0b11111") == [("binary-literal", "0b11111")]

    def test_illegal_character(self):
        with pytest.raises(LexError) as exc:
            tokenize("x@y")
        assert exc.value.pos.col == 2
        # only ASCII digits start a numeral
        with pytest.raises(LexError, match="illegal character '\u00b2'"):
            tokenize("return \u00b2;")

    def test_comments_discarded(self):
        assert kinds("x // trailing\ny") == [
            ("identifier", "x"), ("identifier", "y")]

    def test_positions(self):
        toks = tokenize("x\n  y")
        assert toks[0][2:] == (1, 1)
        assert toks[1][2:] == (2, 3)

    def test_lexemes_reconstruct_source(self):
        src = corpus_source("fastmul.pc")
        lexemes = [t[1] for t in tokenize(src)[:-1]]
        squashed = "".join(src.split())
        # comments are discarded, everything else survives
        for lx in lexemes:
            assert lx in squashed

    def test_operators_maximal_munch(self):
        assert [t[1] for t in tokenize("a<=b==c&&d")[:-1]] == [
            "a", "<=", "b", "==", "c", "&&", "d"]

    @pytest.mark.parametrize("source,expected", [
        # binary literals need a digit; 0x is a decimal then an identifier
        ("0b", ("binary literal needs at least one digit", 1, 1)),
        ("0b2", ("binary literal needs at least one digit", 1, 1)),
        ("0b12", [("binary-literal", "0b1", 1, 1),
                  ("decimal-literal", "2", 1, 4)]),
        ("0x", [("decimal-literal", "0", 1, 1), ("identifier", "x", 1, 2)]),
        # a string ends at its closing quote, never at a newline
        ('"ab\ncd"', ("unterminated string literal", 1, 1)),
        ('x "ab', ("unterminated string literal", 1, 3)),
        # only \n starts a line; \r and \t are one column each
        ("a\r\nb", [("identifier", "a", 1, 1), ("identifier", "b", 2, 1)]),
        ("a\rb", [("identifier", "a", 1, 1), ("identifier", "b", 1, 3)]),
        ("\tx", [("identifier", "x", 1, 2)]),
        # identifiers are Unicode letters, digits and _, led by a letter or _
        ("\u00e9_1 x\u00e9", [("identifier", "\u00e9_1", 1, 1),
                            ("identifier", "x\u00e9", 1, 5)]),
        ("a\u0663", [("identifier", "a\u0663", 1, 1)]),
        ("\u00b2", ("illegal character '\u00b2'", 1, 1)),
        ("\u0663", ("illegal character '\u0663'", 1, 1)),
        ("x\xa0y", ("illegal character '\\xa0'", 1, 2)),
        ("///x\ny", [("identifier", "y", 2, 1)]),
        # every two-character symbol next to its one-character prefix
        ("<=<", [("operator-symbol", "<=", 1, 1),
                 ("operator-symbol", "<", 1, 3)]),
        (">=>", [("operator-symbol", ">=", 1, 1),
                 ("operator-symbol", ">", 1, 3)]),
        ("===", [("operator-symbol", "==", 1, 1),
                 ("operator-symbol", "=", 1, 3)]),
        ("!=!", [("operator-symbol", "!=", 1, 1),
                 ("operator-symbol", "!", 1, 3)]),
        ("+=+", [("operator-symbol", "+=", 1, 1),
                 ("operator-symbol", "+", 1, 3)]),
        ("-=-", [("operator-symbol", "-=", 1, 1),
                 ("operator-symbol", "-", 1, 3)]),
        ("+++", [("operator-symbol", "++", 1, 1),
                 ("operator-symbol", "+", 1, 3)]),
        ("<<=", [("operator-symbol", "<", 1, 1),
                 ("operator-symbol", "<=", 1, 2)]),
        ("--=", [("operator-symbol", "-", 1, 1),
                 ("operator-symbol", "-=", 1, 2)]),
        ("&&&", ("illegal character '&'", 1, 3)),
        ("|||", ("illegal character '|'", 1, 3)),
    ])
    def test_edge_inputs(self, source, expected):
        if isinstance(expected, tuple):
            with pytest.raises(LexError) as exc:
                tokenize(source)
            err = exc.value
            assert (err.message, err.pos.line, err.pos.col) == expected
        else:
            toks = tokenize(source)[:-1]
            assert toks == expected

    @pytest.mark.parametrize("source,line,col", [
        ("", 1, 1), ("x\n", 2, 1), ("x // c", 1, 7), ("a\r\n\tb ", 2, 4)])
    def test_eof_position(self, source, line, col):
        assert tokenize(source)[-1] == ("eof", "", line, col)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.lists(st.tuples(_LEXEMES, _SPACE), max_size=30), _SPACE)
    def test_valid_lexemes_round_trip(self, pairs, lead):
        source = lead + "".join(lexeme + space for (_, lexeme), space in pairs)
        toks = tokenize(source)
        assert [t[:2] for t in toks[:-1]] == [kl for kl, _ in pairs]
        for _, lexeme, line, col in toks[:-1]:
            assert source.startswith(lexeme, offset(source, line, col))

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(st.lists(_PIECES, max_size=25).map("".join))
    def test_positions_or_first_offending_character(self, source):
        """Every token's line and col point at its lexeme, and the lexemes
        with the skipped spaces and comments between them make up the
        source; or LexError names the first character no token can start."""
        try:
            toks = tokenize(source)
        except LexError as e:
            k = offset(source, e.pos.line, e.pos.col)
            tokenize(source[:k])  # nothing before it is an error
            assert e.message == lex_error_at(source, k)
            return
        end = 0
        for kind, lexeme, line, col in toks:
            k = offset(source, line, col)
            assert _SKIPPED.fullmatch(source, end, k), (source, end, k)
            assert source.startswith(lexeme, k)
            assert (kind == "eof") == (lexeme == "") == (k == len(source))
            end = k + len(lexeme)
        assert [kind for kind, *_ in toks].count("eof") == 1


class TestParse:
    def test_fastmul_shape(self):
        prog, _ = load("fastmul.pc")
        assert len(prog.params) == 2
        assert len(prog.body) == 4  # int o; iint z; z=y; for(...)
        assert prog.ret_expr == Var("o")

    def test_minimal_program(self):
        prog = compile_src("int main(){return 0;}")
        assert prog.params == [] and prog.body == []

    def test_bare_variable_bound_rejected(self):
        with pytest.raises(ParseError):
            compile_src("int main(int x){for(i<x) {} return 0;}")

    def test_literal_bound_accepted(self):
        prog = compile_src("int main(){int o; for(k<3) o=o+1; return o;}")
        assert isinstance(prog.body[1], For)
        assert prog.body[1].bound == Const("3")

    def test_core_rejects_extended_features(self):
        for src in [
            "int main(){int f(int a){return a;} return 0;}",
            "int main(){break; return 0;}",
            "int main(int x){x+=1; return x;}",
            "int main(int x){x++; return x;}",
            "int main(){int a=1; return a;}",
            "int main(int x){if(x>0) x=1; return x;}",
            "int main(iint x){return x;}",
            'int main(){string s; return 0;}',
        ]:
            with pytest.raises(ParseError) as exc:
                compile_src(src, "core")
            assert exc.value.core_violation
            compile_src(src, "extended")  # accepted there

    def test_error_position_in_bounds(self):
        src = "int main(){return $;}"
        with pytest.raises(LexError) as exc:
            compile_src(src)
        lines = src.splitlines()
        assert 1 <= exc.value.pos.line <= len(lines)
        assert 1 <= exc.value.pos.col <= len(lines[exc.value.pos.line - 1]) + 1

    def test_deep_parentheses_parse_and_print(self):
        src = "int main(int x){return " + "(" * 200 + "x" + ")" * 200 + ";}"
        prog = parse_source(src)
        assert parse_source(pretty_print(prog)) == prog

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_source("int main(){return 0;} int")

    def test_core_accepted_matches_extended(self):
        for name in ["fastmul.pc", "double_loop.pc", "branchy.pc",
                     "sum_counters.pc"]:
            src = corpus_source(name)
            assert parse_source(src, "core") == parse_source(src, "extended")

    def test_node_positions_point_at_their_text(self):
        import fuzzgen
        from polyc.tm import compile_tm, parse_tm

        sources = [corpus_source(p.name) for p in sorted(CORPUS.glob("*.pc"))]
        for name in ("bitflip.tm", "successor.tm"):
            machine = parse_tm(corpus_source(name), name=name)
            sources += [pretty_print(compile_tm(machine, d)) for d in (1, 2, 3)]
        sources += [pretty_print(fuzzgen.gen_program(k)) for k in range(100)]
        seen = 0
        for src in sources:
            prog = parse_source(src)
            # the implicit return of a void function is positioned at
            # `void`, the `+` and 1 that `x++` adds at `++`, and the `+`
            # nodes or the 0 that `m*a` lowers to at `*`
            implicit = [s.ret_expr for s in walk_stmts(prog.body)
                        if isinstance(s, FunDef) and src.startswith(
                            "void", offset(src, s.pos.line, s.pos.col))]
            for node in walk(prog.body + [prog.ret_expr]):
                text = {Var: "name", Const: "text", OpApp: "op"}.get(type(node))
                if text is None or any(node is n for n in implicit):
                    continue
                at = offset(src, node.pos.line, node.pos.col)
                lowered = src.startswith(("++", "*"), at) and (
                    getattr(node, text) in ("+", "1", "0"))
                assert lowered or src.startswith(getattr(node, text), at), (
                    node, src)
                seen += 1
        assert seen > 5_000

    def test_mode_detection(self):
        assert detect_mode(corpus_source("knapsack.pc")) == "extended"
        assert detect_mode(corpus_source("fastmul.pc")) == "core"


class TestParserLowersSugar:
    """`T x = e`, `x++` and an `if` without `else` parse to the core
    statements written out by hand, positioned at the sugar's own tokens."""

    @staticmethod
    def parse(body):
        return parse_source("int main(int x){" + body + " return x;}", "extended")

    def test_decl_initializer(self):
        prog = self.parse("int a = x+1;")
        assert prog == self.parse("int a; a = x+1;")
        decl, assign = prog.body
        # the Decl, the Assign and its target sit at the declarator
        assert decl.pos == assign.pos == assign.lvalue.pos == Pos(1, 21)
        assert assign.expr.pos == Pos(1, 26)

    def test_decl_initializer_as_branch_is_a_block(self):
        prog = self.parse("if (x > 0) int a = x; else for (i < 2) int b = i;")
        assert prog == self.parse(
            "if (x > 0) { int a; a = x; } else for (i < 2) { int b; b = i; }")
        then, body = prog.body[0].then, prog.body[0].els.body
        assert then.pos == then.stmts[0].pos == then.stmts[1].pos == Pos(1, 32)
        assert body.pos == body.stmts[1].lvalue.pos == Pos(1, 60)

    def test_multiple_declarators_in_a_branch_fail(self):
        for branch in ["int a = 1, b;", "int a, b = 1;", "int a, b;"]:
            with pytest.raises(ParseError, match="not allowed here") as exc:
                self.parse("if (x > 0) " + branch)
            assert exc.value.pos == Pos(1, 32)

    def test_increment(self):
        prog = self.parse("x++;")
        assert prog == self.parse("x += 1;") == self.parse("x = x + 1;")
        inc = prog.body[0]
        assert isinstance(inc, Assign) and inc.expr.args[0] is inc.lvalue
        assert inc.pos == inc.expr.pos == inc.expr.args[1].pos == Pos(1, 18)
        assert inc.lvalue.pos == Pos(1, 17)

    def test_if_without_else_gains_empty_block(self):
        prog = self.parse("if (x > 0) if (x > 1) x = 1;")
        assert prog == self.parse("if (x > 0) if (x > 1) x = 1; else {} else {}")
        outer = prog.body[0]
        assert outer.els == outer.then.els == Block([])
        assert outer.els.pos == Pos(1, 17) and outer.then.els.pos == Pos(1, 28)


_LOWER_HEAD = "int main(int x,int y){int o; "


def load_body(body):
    """`load_program` of one line of statements in extended mode."""
    return load_program(_LOWER_HEAD + body + " return x;}", "extended")[0]


def body_pos(body, needle, k=0):
    """The position of the k-th occurrence of `needle` in `body`."""
    i = -1
    for _ in range(k + 1):
        i = body.index(needle, i + 1)
    return Pos(1, len(_LOWER_HEAD) + i + 1)


class TestLoweredForms:
    """What `load_program` makes of `m*a`, `x += e`, `x -= e` and `x++`: the
    statement as printed and its positions, and which error wins when a
    source has several."""

    @pytest.mark.parametrize("body, printed", [
        ("o=3*y;", "o=y+y+y;"),
        ("o=y*2;", "o=y+y;"),
        ("o=1*(x+y);", "o=(x+y);"),
        ("o=2*(x+y);", "o=(x+y)+(x+y);"),
        ("o=2*x+y;", "o=x+x+y;"),
        ("o=y-2*x;", "o=y-(x+x);"),
        ("o=2*x/2;", "o=(x+x)/2;"),
        ("o=0*x;", "o=0;"),
        ("o=3*0b10;", "o=0b10+0b10+0b10;"),
        ("x+=1*y;", "x=x+y;"),
        ("x+=2*x;", "x=x+(x+x);"),
        ("x+=0*y;", "x=x+0;"),
        ("x-=y+1;", "x=x-(y+1);"),
        ("x-=-y;", "x=x-(-y);"),
        ("x++;", "x=x+1;"),
    ])
    def test_printed(self, body, printed):
        prog = load_body(body)
        assert pretty_print(prog).splitlines()[2].strip() == printed

    def test_scalar_mul_positions_and_sharing(self):
        body = "o=3*y;"
        add = load_body(body).body[1].expr
        star, y = body_pos(body, "*"), body_pos(body, "y")
        assert add.pos == add.args[0].pos == star
        assert add.args[1] is add.args[0].args[0] is add.args[0].args[1]
        assert add.args[1] == Var("y") and add.args[1].pos == y
        body = "o=0*x;"
        zero = load_body(body).body[1].expr
        assert zero == Const("0") and zero.pos == body_pos(body, "*")
        body = "o=2*(x+y);"
        add = load_body(body).body[1].expr
        paren = add.args[0]
        assert add.pos == body_pos(body, "*") and paren is add.args[1]
        assert isinstance(paren, Paren) and paren.pos == body_pos(body, "(")

    @pytest.mark.parametrize("body, op, rhs, needle, k", [
        # a compound right side is parenthesized, at its own operator
        ("x+=y+1;", "+=", Paren(OpApp("+", [Var("y"), Const("1")])), "+", 1),
        ("x-=2*x;", "-=", Paren(OpApp("+", [Var("x"), Var("x")])), "*", 0),
        ("x+=1*y;", "+=", Var("y"), "y", 0),
        ("x+=0*y;", "+=", Const("0"), "*", 0),
        ("x++;", "++", Const("1"), "++", 0),
    ])
    def test_augmented_positions_and_sharing(self, body, op, rhs, needle, k):
        assign = load_body(body).body[1]
        assert isinstance(assign, Assign)
        at = body_pos(body, op)
        assert assign.pos == assign.expr.pos == at
        assert assign.lvalue == Var("x")
        assert assign.lvalue.pos == Pos(1, len(_LOWER_HEAD) + 1)
        assert assign.expr.op == op[0]
        assert assign.expr.args[0] is assign.lvalue
        assert assign.expr.args[1] == rhs
        assert assign.expr.args[1].pos == body_pos(body, needle, k)

    def test_indexed_target_is_shared(self):
        body = "array<int> r; r=array(2); r[2*x]++;"
        assign = load_body(body).body[3]
        assert assign.expr.args[0] is assign.lvalue
        assert pretty_print(load_body(body)).splitlines()[4].strip() == \
            "r[x+x]=r[x+x]+1;"

    def test_sugared_program_runs_as_written(self):
        prog = load_program(SUGARED)[0]
        assert check_program(prog, "extended").ok
        # a = 6, r[0] = 4, r[1] = 1, a = 6 - 3*5 = -9, then a = -9 + 3*2
        assert run_program(prog, [3, 4], mode="extended").output == -3 + 8 - 4

    GENERAL = "general multiplication prohibited: one factor must be a literal"

    @pytest.mark.parametrize("body, cls, message, needle, k", [
        # a lexical or syntax error anywhere beats a multiplication error
        ("o=x*y; o=o+;", ParseError, "expected expression, found ';'", ";", 1),
        ("o=x*y; o=$;", LexError, "illegal character '$'", "$", 0),
        ("o=70000*x; o=o+;", ParseError, "expected expression, found ';'",
         ";", 1),
        ("o=70000*x;", DesugarError, "scalar multiplier 70000 too large",
         "*", 0),
        ("o=70000*(x*y);", DesugarError, "scalar multiplier 70000 too large",
         "*", 0),
        # the outer `*` is reported before any error in its operands
        ("o=x*y*x;", DesugarError, GENERAL, "*", 1),
        ("o=(x*y)*3;", DesugarError, GENERAL, "*", 0),
        ("o=3*(x*y);", DesugarError, GENERAL, "*", 1),
        ("o=(x*y)*(y*x);", DesugarError, GENERAL, "*", 1),
        # otherwise the first in source order, but an else branch first
        ("o=x*y+y*x;", DesugarError, GENERAL, "*", 0),
        ("o=x*y; o=y*x;", DesugarError, GENERAL, "*", 0),
        ("if(x*y>0) o=y*x; else o=x*x;", DesugarError, GENERAL, "*", 2),
        ("if(x*y>0) o=y*x; else o=1;", DesugarError, GENERAL, "*", 0),
        ("if(x>0) o=y*x; else if(y>0) o=x*y; else o=1;", DesugarError,
         GENERAL, "*", 1),
        ("o=x*y; if(x>0) o=1; else o=y*x;", DesugarError, GENERAL, "*", 0),
        ("x+=x*y; o=y*y;", DesugarError, GENERAL, "*", 0),
        ("array<int> r; r[x*y]+=y*x;", DesugarError, GENERAL, "*", 0),
        # a lowered operand is not a numeral as written
        ("o=0*x*y;", DesugarError, GENERAL, "*", 1),
        ("o=0*3*x;", DesugarError, GENERAL, "*", 1),
        ("o=(0*x)*y;", DesugarError, GENERAL, "*", 1),
        ("o=1*3*x;", DesugarError, GENERAL, "*", 1),
    ])
    def test_error_order(self, body, cls, message, needle, k):
        with pytest.raises(PolycError) as exc:
            load_body(body)
        assert type(exc.value) is cls
        assert exc.value.message == message
        assert exc.value.pos == body_pos(body, needle, k)


class TestDesugar:
    def test_scalar_mult(self):
        prog = compile_src("int main(int y){int x; x=3*y; return x;}")
        assert prog.body[1].expr == OpApp("+", [OpApp("+", [Var("y"), Var("y")]),
                                                Var("y")])

    def test_scalar_mult_literal_on_right(self):
        prog = compile_src("int main(int y){int x; x=y*2; return x;}")
        assert prog.body[1].expr == OpApp("+", [Var("y"), Var("y")])

    def test_general_mult_prohibited(self):
        with pytest.raises(DesugarError):
            compile_src("int main(int z,int y){int x; x=z*y; return x;}")

    def test_augmented_assign(self):
        prog = compile_src("int main(int x){x+=1; return x;}", "extended")
        assert prog.body[0] == Assign(Var("x"), OpApp("+", [Var("x"), Const("1")]))

    def test_increment(self):
        prog = compile_src("int main(int x){x++; return x;}", "extended")
        assert prog.body[0] == Assign(Var("x"), OpApp("+", [Var("x"), Const("1")]))

    def test_if_without_else_gains_empty_block(self):
        prog = compile_src("int main(int x){if(x>0) x=1; return x;}", "extended")
        assert prog.body[0].els == Block([])

    def test_decl_initializer(self):
        prog = compile_src("int main(){int a=4; return a;}", "extended")
        assert prog.body[0] == Decl(None, "a") or isinstance(prog.body[0], Decl)
        assert prog.body[1] == Assign(Var("a"), Const("4"))

    def test_augassign_wraps_compound_rhs(self):
        prog = compile_src("int main(int x,int y){x-=y+1; return x;}", "extended")
        assert prog.body[0].expr == OpApp("-", [Var("x"),
                                                Paren(OpApp("+", [Var("y"),
                                                                  Const("1")]))])


class TestPrettyPrint:
    def test_round_trip_corpus(self):
        for name in ["fastmul.pc", "badmul.pc", "double_loop.pc", "branchy.pc",
                     "sum_counters.pc", "identity.pc", "single_step.pc"]:
            prog, mode = load(name)
            assert parse_source(pretty_print(prog), mode) == prog

    def test_round_trip_extended_corpus(self):
        for name in ["knapsack.pc", "path.pc", "sort.pc"]:
            prog, _ = load(name)
            assert parse_source(pretty_print(prog), "extended") == prog

    def test_infix_surface(self):
        from polyc.printer import expr_str

        assert expr_str(OpApp("+", [Var("x"), Var("x")])) == "x+x"

    def test_empty_loop_body(self):
        s = For("i", OpApp("size", [Var("z")]), Block([]))
        lines = pretty_print(Program([(IINT, "z")], [s], Var("z"))).splitlines()
        assert lines[1] == "    for(i<size(z)) { }"

    def test_round_trip_generated(self):
        import fuzzgen

        for seed in range(150):
            prog = fuzzgen.gen_program(seed)
            assert parse_source(pretty_print(prog), "core") == prog

    def test_paren_nodes_preserved(self):
        prog = compile_src("int main(int x){return (x+1)/2;}")
        assert prog.ret_expr == OpApp("/", [Paren(OpApp("+", [Var("x"),
                                                              Const("1")])),
                                            Const("2")])
        assert parse_source(pretty_print(prog), "core") == prog
