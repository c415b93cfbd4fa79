"""Tokenizer for .pc source text."""

import re
from dataclasses import dataclass

from .ast import Pos
from .errors import LexError

KEYWORDS = {
    "iint", "int", "bool", "if", "else", "for", "return", "size",
    "true", "false", "array", "string", "istring", "void", "break",
    "continue",
}

# One group per token class, tried in order, so the first one that matches
# wins: comments before `/`, two-character symbols before their one-character
# prefixes.  A group is named after its token kind, with _ for -.  Every
# character matches some group, the last ones being errors.  Only spaces can
# hold a newline.
_TOKEN = re.compile(r"""
    (?P<space>            (?: [ \t\r\n] | //[^\n]* )+ )
  | (?P<binary_literal>   0b[01]+ )
  | (?P<no_digit>         0b )
  | (?P<decimal_literal>  [0-9]+ )
  | (?P<identifier>       \w+ )
  | (?P<string_literal>   "[^"\n]*" )
  | (?P<unterminated>     " )
  | (?P<operator_symbol>  && | \|\| | \+\+ | [-+=!<>]= | [-+*/%!<>=] )
  | (?P<punctuation>      [(){}\[\];,] )
  | (?P<illegal>          . )
""", re.VERBOSE | re.DOTALL)

_KINDS = {g: g.replace("_", "-") for g in [*_TOKEN.groupindex, "keyword"]}
_ERRORS = {
    "no_digit": "binary literal needs at least one digit",
    "unterminated": "unterminated string literal",
    "illegal": "illegal character {!r}",
}


@dataclass(slots=True)
class Token:
    kind: str  # keyword | identifier | decimal-literal | binary-literal |
    #            operator-symbol | punctuation | string-literal | eof
    lexeme: str
    pos: Pos

    def __repr__(self):
        return f"Token({self.kind},{self.lexeme!r},{self.pos})"


def tokenize(source):
    """Turn source text into a token list ending with an eof token.

    Comments run from // to end of line and are discarded.
    """
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        group, lexeme = m.lastgroup, m.group()
        if group == "space":
            if "\n" in lexeme:
                line += lexeme.count("\n")
                line_start = m.start() + lexeme.rindex("\n") + 1
            continue
        pos = Pos(line, m.start() - line_start + 1)
        if group == "identifier":
            if lexeme in KEYWORDS:  # only an identifier can spell a keyword
                group = "keyword"
            elif not (lexeme[0].isalpha() or lexeme[0] == "_"):
                # \w also matches digits outside 0-9, which cannot start a name
                group, lexeme = "illegal", lexeme[0]
        if group in _ERRORS:
            raise LexError(_ERRORS[group].format(lexeme), pos)
        toks.append(Token(_KINDS[group], lexeme, pos))
    toks.append(Token("eof", "", Pos(line, len(source) - line_start + 1)))
    return toks
