"""Runtime values and the size measure.

Integers are Python ints (unbounded), booleans are Python bools, strings are
Python str.  Arrays are mutable reference values; closures capture the store
at definition time.
"""

from .ast import ArrayT, BOOL, is_int_type, is_string_type


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


class Builtin:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"<builtin {self.name}>"


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
    if text.isdigit():  # the lexer's decimal literals are ASCII digits
        return decimal_to_int(text)
    if text == "true" or text == "false":
        return text == "true"
    if text.startswith('"'):
        return text[1:-1]
    return int(text[2:], 2) if text.startswith("0b") else int(text)


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
        return max(size_of_value(x) for x in v.items)
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
