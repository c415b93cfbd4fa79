"""Tokenizer for .pc source text."""

import re

from .ast import Pos
from .errors import LexError

KEYWORDS = {
    "iint", "int", "bool", "if", "else", "for", "return", "size",
    "true", "false", "array", "string", "istring", "void", "break",
    "continue",
}
OPERATORS = ("&&", "||", "++", "+=", "-=", "==", "!=", "<=", ">=",
             "+", "-", "*", "/", "%", "!", "<", ">", "=")
PUNCTUATION = "(){}[];,"

# Each match is the text skipped (spaces and // comments, greedy, so it
# ends where a token starts) and one lexeme: the first alternative that
# matches, so two-character symbols before their prefixes.  Every character
# but a space starts some alternative, the last ones being errors; `\Z`
# ends the source with an empty lexeme.  Only skipped text holds a newline.
_TOKEN = re.compile(r"((?:[ \t\r\n]+|//[^\n]*)*)(0b[01]+|0b|[0-9]+|\w+"
                    r'|"[^"\n]*"|"|'
                    + "|".join(map(re.escape, OPERATORS))
                    + "|[" + re.escape(PUNCTUATION) + r"]|.|\Z)")

# the kind of every lexeme that has a fixed one
_FIXED = {"": "eof", **dict.fromkeys(KEYWORDS, "keyword"),
          **dict.fromkeys(OPERATORS, "operator-symbol"),
          **dict.fromkeys(PUNCTUATION, "punctuation")}
_ERRORS = {
    "no-digit": "binary literal needs at least one digit",
    "unterminated": "unterminated string literal",
    "illegal": "illegal character {!r}",
}


def _kind(lexeme):
    """The kind of a lexeme without a fixed one, or a key of _ERRORS for one
    that cannot start a token."""
    c = lexeme[0]
    if c in "0123456789":
        if lexeme[1:2] != "b":
            return "decimal-literal"
        return "binary-literal" if len(lexeme) > 2 else "no-digit"
    if c == '"':
        return "string-literal" if len(lexeme) > 1 else "unterminated"
    # \w also matches digits outside 0-9, which cannot start a name
    return "identifier" if c.isalpha() or c == "_" else "illegal"


def tokenize(source):
    """Turn source text into a list of (kind, lexeme, line, col) tuples, the
    last one of kind eof with an empty lexeme.

    kind is keyword, identifier, decimal-literal, binary-literal,
    string-literal, operator-symbol, punctuation or eof.  Comments run from
    // to end of line and are discarded.
    """
    found = _TOKEN.findall(source)
    if len(found) > 1 and not found[-2][1]:
        del found[-1]  # after trailing space, \Z also matches once more
    kinds = _FIXED.copy()
    toks = []
    line, offset, line_start = 1, 0, 0
    for skipped, lexeme in found:
        if skipped:
            if "\n" in skipped:
                line += skipped.count("\n")
                line_start = offset + skipped.rindex("\n") + 1
            offset += len(skipped)
        kind = kinds.get(lexeme)
        if kind is None:
            kind = kinds[lexeme] = _kind(lexeme)
            if kind in _ERRORS:
                raise LexError(_ERRORS[kind].format(lexeme[0]),
                               Pos(line, offset - line_start + 1))
        toks.append((kind, lexeme, line, offset - line_start + 1))
        offset += len(lexeme)
    return toks
