"""Turing machines: direct simulation, the ternary tape encoding, the
polynomial clock generator and the machine-to-program compiler.

Machines run on a single one-way infinite tape over {0,1,blank}; state 0 is
the start state and state 1 the halt state.  A move left at the leftmost cell
leaves the head in place.  Compiled programs keep the tape in two ternary
numbers: y holds the cells left of the head (most recent in the low digit)
and x holds the head cell and everything to its right, least significant
digit first; both carry a leading sentinel digit 2.
"""

from dataclasses import dataclass

from .ast import (
    Assign, Block, Const, Decl, For, If, OpApp, Program, Var,
    BOOL, IINT, INT,
)
from .errors import PolycError
from .parser import MAX_NESTING

BLANK = "B"
SYMBOLS = ("0", "1", BLANK)
MOVES = ("L", "R")

# ternary digit for each tape symbol
DIGIT = {"0": 0, "1": 1, BLANK: 2}
# the largest degree whose program the parser reads back: its d + 1 nested
# loops take two levels each (a branch and its block), `o=o+o` two more
MAX_DEGREE = MAX_NESTING // 2 - 2


class TmError(PolycError):
    label = "turing machine error"


@dataclass
class TuringMachine:
    n_states: int
    transitions: dict  # (state, symbol) -> (state, symbol, move)
    name: str = "tm"

    START = 0
    HALT = 1

    def validate(self):
        if self.n_states < 2:
            raise TmError("a machine needs at least a start and a halt state")
        for (q, a), (q2, b, mv) in self.transitions.items():
            if not (0 <= q < self.n_states) or not (0 <= q2 < self.n_states):
                raise TmError(f"transition ({q},{a}) uses an unknown state")
            if q == self.HALT:
                raise TmError("the halt state must have no outgoing transitions")
            if a not in SYMBOLS or b not in SYMBOLS:
                raise TmError(f"transition ({q},{a})->({q2},{b},{mv}) uses an "
                              "unknown symbol")
            if mv not in MOVES:
                raise TmError(f"unknown move {mv!r}")
        for q in range(self.n_states):
            if q == self.HALT:
                continue
            for a in SYMBOLS:
                if (q, a) not in self.transitions:
                    raise TmError(f"transition function is not total: missing "
                                  f"({q},{a})")
        return self


def parse_tm(text, name="tm"):
    """Parse the .tm format: 'states: n', 'halt: 1' and one transition per
    line 'q<i> <sym> -> q<j> <sym'> <L|R>' with sym in 0/1/B."""
    n_states = None
    transitions = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//")[0].strip()
        if not line:
            continue
        if line.startswith("states:"):
            count = line.split(":", 1)[1].strip()
            if not _is_numeral(count):
                raise TmError(f"line {lineno}: malformed state count {line!r}")
            n_states = int(count)
            continue
        if line.startswith("halt:"):
            if line.split(":", 1)[1].strip() != "1":
                raise TmError(f"line {lineno}: the halt state is fixed to 1")
            continue
        if "->" not in line:
            raise TmError(f"line {lineno}: expected a transition")
        try:
            lhs, rhs = line.split("->")
            q, a = lhs.split()
            q2, b, mv = rhs.split()
            src, dst = _state(q), _state(q2)
        except ValueError:
            raise TmError(f"line {lineno}: malformed transition {line!r}") from None
        if (src, a) in transitions:
            raise TmError(f"line {lineno}: duplicate transition for ({q},{a})")
        transitions[(src, a)] = (dst, b, mv)
    if n_states is None:
        raise TmError("missing 'states:' line")
    return TuringMachine(n_states, transitions, name).validate()


def _is_numeral(text):
    """ASCII decimal digits only: int() would also take signs, underscores,
    spaces and other scripts' digits."""
    return text.isascii() and text.isdigit()


def _state(token):
    """The number of a state written q<digits>."""
    if token[:1] != "q" or not _is_numeral(token[1:]):
        raise ValueError(f"malformed state {token!r}")
    return int(token[1:])


def tm_run(machine, input_str, fuel=1_000_000):
    """Direct simulation oracle; returns the tape at halt with trailing
    blanks stripped."""
    for c in input_str:
        if c not in "01":
            raise TmError(f"input symbol {c!r} is not binary")
    tape = list(input_str)
    head = 0
    q = machine.START
    steps = 0
    while q != machine.HALT:
        if steps >= fuel:
            raise TmError(f"machine did not halt in {fuel} steps")
        steps += 1
        sym = tape[head] if head < len(tape) else BLANK
        q, write, move = machine.transitions[(q, sym)]
        while head >= len(tape):
            tape.append(BLANK)
        tape[head] = write
        if move == "R":
            head += 1
        elif head > 0:
            head -= 1
    out = "".join(tape)
    out = out.rstrip(BLANK)
    if BLANK in out:
        raise TmError("halting tape has an interior blank")
    return out


def encode_input(w):
    """Read 2 followed by the reversed input as a ternary numeral."""
    for c in w:
        if c not in "01":
            raise TmError(f"input symbol {c!r} is not binary")
    return int("2" + w[::-1], 3)


def decode_output(x):
    """Ternary digits of x, least significant first, are the tape cells left
    to right; the most significant digit must be the sentinel 2."""
    if x < 2:
        raise TmError(f"malformed tape encoding {x}: missing sentinel")
    digits = []
    while x:
        digits.append(x % 3)
        x //= 3
    if digits[-1] != 2:
        raise TmError("malformed tape encoding: most significant digit is "
                      "not the sentinel 2")
    cells = digits[:-1]
    while cells and cells[-1] == 2:
        cells.pop()
    if any(d == 2 for d in cells):
        raise TmError("malformed tape encoding: interior blank cell")
    return "".join(str(d) for d in cells)


# ---------------------------------------------------------------------------
# code generation


def clock_program(d):
    """Program of size O(d log d) whose output on input v has bit-size
    exactly d*size(v)^d: nested loops doubling an accumulator."""
    prog_body, ret = _clock_stmts(d)
    return Program([(INT, "x")], prog_body, ret)


def _clock_stmts(d):
    """The clock's statements over input x, and o/2, its output."""
    if not 1 <= d <= MAX_DEGREE:
        raise ValueError(f"clock degree must be between 1 and {MAX_DEGREE}")
    body = [
        Decl(IINT, "z"),
        Assign(Var("z"), Var("x")),
        Decl(INT, "o"),
        Assign(Var("o"), Const("1")),
    ]
    inner = Block([Assign(Var("o"), OpApp("+", [Var("o"), Var("o")]))])
    loop = For("k", Const(str(d)), inner)
    for level in range(d, 0, -1):
        loop = For(f"i{level}", OpApp("size", [Var("z")]), Block([loop]))
    body.append(loop)
    return body, OpApp("/", [Var("o"), Const("2")])


def compile_tm(machine, d):
    """Compile a machine into a core program over the ternary encoding.

    The emitted program builds a clock value cnt of bit-size d*size(x)^d and
    simulates one machine step per loop iteration; after the halt state is
    reached the remaining iterations perform no operations.
    """
    machine.validate()
    body, clock_ret = _clock_stmts(d)
    body.insert(0, Assign(Var("y"), Const("2")))
    body.insert(0, Decl(INT, "y"))
    body.insert(2, Decl(INT, "q"))
    body.append(Decl(IINT, "cnt"))
    body.append(Assign(Var("cnt"), clock_ret))

    blocks = [Decl(BOOL, "flag")]
    for (q, sym), (q2, write, move) in sorted(machine.transitions.items()):
        blocks.append(_transition_block(q, sym, q2, write, move))
    body.append(For("i", OpApp("size", [Var("cnt")]), Block(blocks)))
    return Program([(INT, "x")], body, Var("x"))


def _num(n):
    return Const(str(n))


def _transition_block(q, sym, q2, write, move):
    alpha = DIGIT[sym]
    beta = DIGIT[write]
    guard = OpApp("&&", [
        OpApp("&&", [
            OpApp("!", [Var("flag")]),
            OpApp("==", [Var("q"), _num(q)]),
        ]),
        OpApp("==", [OpApp("%", [Var("x"), _num(3)]), _num(alpha)]),
    ])
    # write the new symbol under the head; a write onto the blank sea must
    # re-establish the sentinel digit above the written cell
    write_stmt = If(
        OpApp(">", [Var("x"), _num(2)]),
        Block([Assign(Var("x"),
                      OpApp("+", [OpApp("-", [Var("x"), _num(alpha)]), _num(beta)]))]),
        Block([Assign(Var("x"), _num(6 + beta))]),
    )
    actions = [
        write_stmt,
        Assign(Var("q"), _num(q2)),
        Assign(Var("flag"), Const("true")),
        _move_block(move),
    ]
    return If(guard, Block(actions), Block([]))


def _move_block(move):
    if move == "L":
        # pull the last written digit of y under the head; no move at the
        # leftmost position
        return If(
            OpApp(">", [Var("y"), _num(2)]),
            Block([
                Assign(Var("x"), OpApp("+", [OpApp("*", [_num(3), Var("x")]),
                                             OpApp("%", [Var("y"), _num(3)])])),
                Assign(Var("y"), OpApp("/", [Var("y"), _num(3)])),
            ]),
            Block([]),
        )
    return If(
        OpApp(">", [Var("x"), _num(2)]),
        Block([
            Assign(Var("y"), OpApp("+", [OpApp("*", [_num(3), Var("y")]),
                                         OpApp("%", [Var("x"), _num(3)])])),
            Assign(Var("x"), OpApp("/", [Var("x"), _num(3)])),
        ]),
        Block([Assign(Var("y"), OpApp("+", [OpApp("*", [_num(3), Var("y")]),
                                            _num(2)]))]),
    )
