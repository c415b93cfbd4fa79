"""Tokenizer for .pc source text."""

from dataclasses import dataclass

from .ast import Pos
from .errors import LexError

KEYWORDS = {
    "iint", "int", "bool", "if", "else", "for", "return", "size",
    "true", "false", "array", "string", "istring", "void", "break",
    "continue",
}

# longest match first
SYMBOLS = [
    "&&", "||", "==", "!=", "<=", ">=", "+=", "-=", "++",
    "+", "-", "*", "/", "%", "!", "<", ">", "=",
    "(", ")", "{", "}", "[", "]", ";", ",",
]

PUNCT = {"(", ")", "{", "}", "[", "]", ";", ","}


@dataclass
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
    i = 0
    line, col = 1, 1
    n = len(source)

    def advance(k):
        nonlocal i, line, col
        for _ in range(k):
            if source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = source[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        pos = Pos(line, col)
        if "0" <= c <= "9":
            j = i
            if source.startswith("0b", i):
                j = i + 2
                while j < n and source[j] in "01":
                    j += 1
                if j == i + 2:
                    raise LexError("binary literal needs at least one digit", pos)
                kind = "binary-literal"
            else:
                while j < n and "0" <= source[j] <= "9":
                    j += 1
                kind = "decimal-literal"
            lexeme = source[i:j]
            advance(j - i)
            toks.append(Token(kind, lexeme, pos))
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            lexeme = source[i:j]
            advance(j - i)
            kind = "keyword" if lexeme in KEYWORDS else "identifier"
            toks.append(Token(kind, lexeme, pos))
            continue
        if c == '"':
            j = i + 1
            while j < n and source[j] not in '"\n':
                j += 1
            if j >= n or source[j] != '"':
                raise LexError("unterminated string literal", pos)
            lexeme = source[i : j + 1]
            advance(j + 1 - i)
            toks.append(Token("string-literal", lexeme, pos))
            continue
        for sym in SYMBOLS:
            if source.startswith(sym, i):
                advance(len(sym))
                kind = "punctuation" if sym in PUNCT else "operator-symbol"
                toks.append(Token(kind, sym, pos))
                break
        else:
            raise LexError(f"illegal character {c!r}", pos)
    toks.append(Token("eof", "", Pos(line, col)))
    return toks
