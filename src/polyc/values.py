"""Runtime values, their text form and the size measure.

Integers are Python ints (unbounded), booleans are Python bools, strings are
Python str.  Arrays are mutable reference values; closures capture the store
at definition time.  Every number read from outside a program is a numeral.
"""

import re

from .ast import ArrayT, BOOL, is_int_type, is_string_type
from .errors import ArgumentError


class VArray:
    """Mutable array value; aliasing on assignment and call is intentional."""

    __slots__ = ("items", "elem")

    def __init__(self, items, elem):
        self.items = items
        self.elem = elem

    def __repr__(self):
        return f"VArray({self.items!r})"

    def __eq__(self, other):
        return isinstance(other, VArray) and self.items == other.items


class Closure:
    """A function value: its store at definition time and the code the
    interpreter compiled from its FunDef."""

    __slots__ = ("def_store", "name", "code")

    def __init__(self, def_store, name, code):
        self.def_store = def_store
        self.name = name
        self.code = code

    def __repr__(self):
        return f"<closure {self.name}>"


def default_value(annot):
    """Initial value for a declared variable of the given type."""
    if is_int_type(annot):
        return 0
    if annot is BOOL:
        return False
    if is_string_type(annot):
        return ""
    if isinstance(annot, ArrayT):
        return VArray([], annot.elem)
    raise ValueError(f"type {annot} has no default value")


def literal_value(text):
    if text == "true" or text == "false":
        return text == "true"
    return text[1:-1] if text.startswith('"') else numeral(text)


# the language's one numeral syntax, as the lexer reads it
_NUMERAL = re.compile(r"0b([01]+)|[0-9]+")


def numeral(text):
    """The value of a numeral: ASCII decimal digits, or 0b and binary digits,
    of any length; None for any other text."""
    m = _NUMERAL.fullmatch(text)
    return m and (int(m[1], 2) if m[1] else decimal_to_int(text))


def signed_numeral(text):
    """The value of an optional - and a numeral, with surrounding spaces;
    ValueError otherwise."""
    text = text.strip()
    v = numeral(text.removeprefix("-"))
    if v is None:
        raise ValueError(f"not an integer: {text!r}")
    return -v if text.startswith("-") else v


# int() and str() refuse more decimal digits than a process-wide limit (640
# at the least), so the codec converts parts of at most _DIGITS digits.
_DIGITS = 600


def decimal_to_int(digits):
    """The value of a string of ASCII decimal digits, of any length."""
    if len(digits) <= _DIGITS:
        return int(digits)
    k = len(digits) // 2
    return decimal_to_int(digits[:-k]) * 10 ** k + decimal_to_int(digits[-k:])


def int_to_decimal(v):
    """The decimal text of int v, of any size."""
    if v < 0:
        return "-" + int_to_decimal(-v)
    if v.bit_length() <= 1900:  # at most 572 digits
        return str(v)
    k = v.bit_length() // 7  # about half the digits
    high, low = divmod(v, 10 ** k)
    return int_to_decimal(high) + int_to_decimal(low).zfill(k)


def size_of_value(v):
    """Bit-size measure: ceil(log2(|x|+1)) on ints, 1 on booleans,
    character count on strings, max over elements on arrays."""
    if isinstance(v, bool):
        return 1
    if isinstance(v, int):
        return abs(v).bit_length()
    if isinstance(v, str):
        return len(v)
    if isinstance(v, VArray):
        if not v.items:
            return 0
        if is_int_type(v.elem):  # the largest magnitude is the largest size
            return max(max(v.items), -min(v.items)).bit_length()
        return max(map(size_of_value, v.items))
    raise ValueError(f"value {v!r} has no size")


def value_consistent(v, annot):
    if is_int_type(annot):
        return isinstance(v, int) and not isinstance(v, bool)
    if annot is BOOL:
        return isinstance(v, bool)
    if is_string_type(annot):
        return isinstance(v, str)
    if isinstance(annot, ArrayT):
        return isinstance(v, VArray) and all(
            value_consistent(x, annot.elem) for x in v.items)
    return False  # no source program declares a function-typed parameter


def format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return int_to_decimal(v)
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, VArray):
        return "[" + ",".join(format_value(x) for x in v.items) + "]"
    return repr(v)


def parse_value(text, annot):
    """The value of type annot that text writes, the inverse of format_value:
    an integer is an optional - and a numeral, a string may go unquoted, an
    array is [v,...]; surrounding spaces are ignored."""
    text = text.strip()
    if is_int_type(annot):
        try:
            return signed_numeral(text)
        except ValueError:
            raise ArgumentError(
                f"expected an integer literal, got {text!r}") from None
    if annot is BOOL:
        if text in ("true", "false"):
            return text == "true"
        raise ArgumentError(f"expected true or false, got {text!r}")
    if is_string_type(annot):  # quoted, or unquoted for convenience
        quoted = len(text) >= 2 and text[0] == text[-1] == '"'
        return text[1:-1] if quoted else text
    if isinstance(annot, ArrayT):
        if not (text.startswith("[") and text.endswith("]")):
            raise ArgumentError(f"expected a bracketed list, got {text!r}")
        inner = text[1:-1].strip()
        items = [parse_value(piece, annot.elem)
                 for piece in _split_top(inner)] if inner else []
        return VArray(items, annot.elem)
    raise ArgumentError(f"cannot build a value of type {annot}")


def _split_top(text):
    """Split at the commas outside brackets and double-quoted strings."""
    parts, depth, start, quoted = [], 0, 0, False
    for i, ch in enumerate(text):
        quoted ^= ch == '"'
        if not quoted:
            depth += (ch == "[") - (ch == "]")
            if ch == "," and depth == 0:
                parts.append(text[start:i])
                start = i + 1
    return parts + [text[start:]]
