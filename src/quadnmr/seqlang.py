"""Line-oriented pulse-sequence language: parser, IR, canonical printer.

One event per line, executed top to bottom; '#' starts a comment. A script
opens with a system declaration and may end with a single acquisition:

    # controlled-phase-by-evolution realization of the swap-lower-levels gate
    system I=3/2 splitting=16kHz
    zpulse 01-11 pi/2
    delay quad pi/(12*lambda)
    pulse sel 10-11 -y pi/sqrt(3)

Statements:
    system I=<half-integer> [splitting=<freq> | lambda=<freq>] [offset=<freq>]
    pulse hard <axis> <angle>
    pulse sel <transition> <axis> <angle> [gaussian <duration> [<slices>]]
    zpulse <transition> <angle>
    delay quad <duration>
    refocus <duration>
    gradient
    acquire <points> <dwell>

System keys come in any order, each at most once. Angles are radians: a
float literal or pi, pi/2, pi/4, pi/sqrt(3), each with an optional leading
'-'. Durations carry a unit (s, ms, us) or are the symbolic form
pi/(12*lambda), resolved against the declared coupling.
Transitions are bit-string pairs like 10-11; pairs whose levels are not
adjacent (the unphysical |delta m| > 1 drives) are rejected at parse time.
A gaussian clause makes a selective pulse soft (built in closed form by the
compiler); its optional slice count (>= 64) is only checked and printed back.

One table (_STATEMENTS) gives each statement's event class and its words in
the order the parser reads them and the printer writes them. The words of a
line are its whitespace-separated tokens, as str.split gives them, checked
left to right: an error names the leftmost bad word, and a word left over
after a complete statement is reported last. Every parse error carries a
1-based line and a 1-based column, counted in code points, and a
machine-readable code (the E_* constants below).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property

from .linalg import MAX_TWO_SPIN
from .readout import MAX_POINTS
from .system import (ForbiddenTransitionError, SpinSystem, UnknownTransitionError, _frozen,
                     _levels, cphase_delay_s)

SYMBOLIC_CPHASE_DELAY = "pi/(12*lambda)"

E_SYNTAX = "E_SYNTAX"
E_UNKNOWN_KEYWORD = "E_UNKNOWN_KEYWORD"
E_BAD_NUMBER = "E_BAD_NUMBER"
E_BAD_VALUE = "E_BAD_VALUE"
E_MISSING_SYSTEM = "E_MISSING_SYSTEM"
E_DUPLICATE_SYSTEM = "E_DUPLICATE_SYSTEM"
E_UNKNOWN_TRANSITION = "E_UNKNOWN_TRANSITION"
E_FORBIDDEN_TRANSITION = "E_FORBIDDEN_TRANSITION"
E_NO_LAMBDA = "E_NO_LAMBDA"
E_DUPLICATE_ACQUIRE = "E_DUPLICATE_ACQUIRE"
E_ACQUIRE_NOT_LAST = "E_ACQUIRE_NOT_LAST"
E_POINTS_NOT_POWER2 = "E_POINTS_NOT_POWER2"


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int, code: str):
        super().__init__(f"line {line}:{column}: error[{code}] {message}")
        self.message = message
        self.line = line
        self.column = column
        self.code = code


_ANGLE_SYMBOLS = {
    "pi": math.pi,
    "pi/2": math.pi / 2.0,
    "pi/4": math.pi / 4.0,
    "pi/sqrt(3)": math.pi / math.sqrt(3.0),
}
_ANGLE_SYMBOLS.update({"-" + name: -value for name, value in _ANGLE_SYMBOLS.items()})

_DURATION_RE = re.compile(r"^([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)(s|ms|us)$")
_FREQ_RE = re.compile(r"^([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)(Hz|kHz)?$")

_DURATION_SCALE = {"s": 1.0, "ms": 1e-3, "us": 1e-6}
_AXES = {axis: axis for axis in ("x", "-x", "y", "-y")}


# --- events -----------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class _Located:
    """Source position of an event; 0 for events built outside the parser."""

    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class HardPulse(_Located):
    axis: str
    angle_rad: float
    angle_text: str


@dataclass(frozen=True)
class GaussianShape:
    duration_s: float
    duration_text: str
    n_slices: int = 512


@dataclass(frozen=True)
class SelPulse(_Located):
    transition: str
    axis: str
    angle_rad: float
    angle_text: str
    shape: GaussianShape | None = None


@dataclass(frozen=True)
class ZPulse(_Located):
    transition: str
    angle_rad: float
    angle_text: str


@dataclass(frozen=True)
class QuadDelay(_Located):
    tau_s: float
    tau_text: str


@dataclass(frozen=True)
class Refocus(_Located):
    tau_s: float
    tau_text: str


@dataclass(frozen=True)
class Gradient(_Located):
    """Perfect crusher gradient."""


@dataclass(frozen=True)
class Acquire(_Located):
    points: int
    dwell_s: float
    dwell_text: str


Event = HardPulse | SelPulse | ZPulse | QuadDelay | Refocus | Gradient | Acquire


@dataclass(frozen=True)
class SystemDecl:
    spin: float
    splitting_hz: float | None
    offset_hz: float = 0.0

    # built on first read and then shared; not a field, so equality and
    # hashing still read the declared values only
    @cached_property
    def system(self) -> SpinSystem:
        splitting = self.splitting_hz if self.splitting_hz is not None else 0.0
        return SpinSystem.from_splitting(splitting_hz=splitting,
                                         offset_hz=self.offset_hz, spin=self.spin)


@dataclass(frozen=True)
class SequenceIR:
    system_decl: SystemDecl
    events: tuple[Event, ...]

    def system(self) -> SpinSystem:
        return self.system_decl.system


# --- word readers -----------------------------------------------------------

class _WordError(Exception):
    """A parse error at word `index` of its line, `offset` code points into
    the word; parse_sequence turns it into a located ParseError."""

    def __init__(self, message: str, code: str, index: int, offset: int = 0):
        super().__init__(message, code, index, offset)


# A reader takes one word, its index in the line and the declared system. The
# words its field knows (the axes, the angle symbols) it is never called on.
def _read_angle(text: str, i: int, sys: SpinSystem) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _WordError(f"bad angle {text!r}", E_BAD_NUMBER, i) from None
    if not math.isfinite(value):
        raise _WordError(f"angle must be finite, got {text!r}", E_BAD_VALUE, i)
    return value


def _read_duration(text: str, i: int, sys: SpinSystem) -> float:
    if text == SYMBOLIC_CPHASE_DELAY:
        try:
            value = cphase_delay_s(sys)
        except ValueError:
            raise _WordError("symbolic duration needs a declared nonzero coupling",
                             E_NO_LAMBDA, i) from None
    else:
        match = _DURATION_RE.match(text)
        if not match:
            raise _WordError(f"bad duration {text!r} (use s/ms/us or "
                             f"{SYMBOLIC_CPHASE_DELAY})", E_BAD_NUMBER, i)
        number, unit = match.groups()
        value = float(number) * _DURATION_SCALE[unit]
    if not (math.isfinite(value) and value >= 0):
        raise _WordError(f"duration must be finite and nonnegative, got {text!r}",
                         E_BAD_VALUE, i)
    return value


def _read_int(text: str, i: int, sys: SpinSystem) -> int:
    try:
        return int(text)
    except ValueError:
        raise _WordError(f"bad integer {text!r}", E_BAD_NUMBER, i) from None


def _read_points(text: str, i: int, sys: SpinSystem) -> int:
    points = _read_int(text, i, sys)
    if points > MAX_POINTS:
        raise _WordError(f"acquire points must be at most {MAX_POINTS}, got {points}",
                         E_BAD_VALUE, i)
    return points


def _read_transition(text: str, i: int, sys: SpinSystem) -> str:
    try:
        sys._line(text)     # raises: the known words are the pairs that name a line
    except ForbiddenTransitionError as exc:
        raise _WordError(str(exc), E_FORBIDDEN_TRANSITION, i) from None
    except UnknownTransitionError as exc:
        raise _WordError(str(exc), E_UNKNOWN_TRANSITION, i) from None


def _read_axis(text: str, i: int, sys: SpinSystem) -> str:
    raise _WordError(f"axis must be x, -x, y or -y, got {text!r}", E_SYNTAX, i)


def _read_shape_kind(text: str, i: int, sys: SpinSystem) -> str:
    raise _WordError(f"unknown pulse shape {text!r}", E_UNKNOWN_KEYWORD, i)


def _parse_freq(key: str, text: str, i: int, offset: int) -> float:
    match = _FREQ_RE.match(text)
    if not match:
        raise _WordError(f"bad frequency {text!r}", E_BAD_NUMBER, i, offset)
    value = float(match.group(1)) * (1000.0 if match.group(2) == "kHz" else 1.0)
    if not math.isfinite(value):
        raise _WordError(f"{key} must be finite, got {text!r}", E_BAD_VALUE, i, offset)
    return value


# --- statement table --------------------------------------------------------

# A field is (the name a missing word gets, its known words and their values,
# the reader of any other word, the attribute the value goes to, the attribute
# that keeps the word's text or None, and None or a check of the value: (test,
# message formatted with the value, code)).
_AXIS = ("axis", _AXES, _read_axis, "axis", None, None)
_TRANSITION = ("transition", {}, _read_transition, "transition", None, None)
_ANGLE = ("angle", _ANGLE_SYMBOLS, _read_angle, "angle_rad", "angle_text", None)
_TAU = ("duration", {}, _read_duration, "tau_s", "tau_text", None)

# Each keyword path, a word or a pair of words, maps to its event class and
# its fields, in the order they are read (left to right, a trailing word last)
# and printed.
_STATEMENTS = {
    ("pulse", "hard"): (HardPulse, (_AXIS, _ANGLE)),
    ("pulse", "sel"): (SelPulse, (_TRANSITION, _AXIS, _ANGLE)),
    "zpulse": (ZPulse, (_TRANSITION, _ANGLE)),
    ("delay", "quad"): (QuadDelay, (_TAU,)),
    "refocus": (Refocus, (_TAU,)),
    "gradient": (Gradient, ()),
    "acquire": (Acquire, (
        ("point count", {}, _read_points, "points", None,
         (lambda n: n >= 2 and not n & (n - 1),
          "acquire points must be a power of two, got {}", E_POINTS_NOT_POWER2)),
        ("dwell time", {}, _read_duration, "dwell_s", "dwell_text",
         (lambda t: t > 0, "dwell time must be positive", E_BAD_VALUE)))),
}
# the one irregular clause, the optional tail of pulse sel: gaussian D [N]
_SHAPE = (GaussianShape, (
    ("shape duration", {}, _read_duration, "duration_s", "duration_text",
     (lambda t: t > 0, "shaped pulse duration must be positive", E_BAD_VALUE)),
    ("slices", {}, _read_int, "n_slices", None,
     (lambda n: n >= 64, "need at least 64 slices", E_BAD_VALUE))))
# its words are read after those of the pulse, into the event's dict (the kind
# word to "shape"), then moved to the GaussianShape
_CLAUSE = (("pulse shape", {"gaussian": "gaussian"}, _read_shape_kind, "shape", None, None),
           *_SHAPE[1])
_SHAPE_NAMES = [name for field in _SHAPE[1] for name in field[3:5] if name]
# first words of two-word paths: what the second is called, and its error
_SECOND_WORD = {
    "pulse": ("pulse scope (hard|sel)", "pulse scope must be hard or sel, got {!r}"),
    "delay": ("delay kind (quad)", "unknown delay kind {!r}")}
_SYSTEM_KEYS = {"I": "spin", "splitting": "coupling", "lambda": "coupling", "offset": "offset"}
# the spins n/2 a system can have, as float(Fraction) reads them
_HALF_SPINS = {f"{n}/2": n / 2 for n in range(1, MAX_TWO_SPIN + 1, 2)}


@cache
def _statements(dim: int) -> dict:
    """_STATEMENTS for a dim-level spin, each entry (class, fields, index of
    the first field's word), with the line pairs the known words of _TRANSITION."""
    known = ("transition", {pair: pair for pair in _levels(dim).line_index}, *_TRANSITION[2:])
    return {key: (cls, tuple(known if f is _TRANSITION else f for f in fields),
                  1 if isinstance(key, str) else 2)
            for key, (cls, fields) in _STATEMENTS.items()}


def _parse_system(words: list[str]) -> tuple[SystemDecl, SpinSystem]:
    values, given = {"spin": None, "splitting_hz": None, "offset_hz": 0.0}, {}
    for i in range(1, len(words)):
        if "=" not in words[i]:
            raise _WordError(f"expected key=value, got {words[i]!r}", E_SYNTAX, i)
        key, value = words[i].split("=", 1)
        at = len(key) + 1
        what = _SYSTEM_KEYS.get(key)
        if what is None:
            raise _WordError(f"unknown system parameter {key!r}", E_UNKNOWN_KEYWORD, i)
        if what in given:
            raise _WordError(f"{key}= repeats the {what} given by {given[what]}=", E_SYNTAX, i)
        given[what] = key
        if key == "I":
            try:
                values["spin"] = _HALF_SPINS.get(value) or float(Fraction(value))
            except (ValueError, ZeroDivisionError, OverflowError):
                raise _WordError(f"bad spin {value!r}", E_BAD_NUMBER, i, at) from None
        elif key == "offset":
            values["offset_hz"] = _parse_freq(key, value, i, at)
        else:
            splitting = _parse_freq(key, value, i, at)
            if splitting < 0:
                raise _WordError(f"{key} must be nonnegative", E_BAD_VALUE, i, at)
            if key == "lambda":
                splitting *= 6.0
                if splitting == math.inf:
                    raise _WordError(f"lambda too large: 6*lambda overflows the float "
                                     f"range, got {value!r}", E_BAD_VALUE, i, at)
            values["splitting_hz"] = splitting
    if values["spin"] is None:
        raise _WordError("system declaration needs I=<spin>", E_SYNTAX, 0)
    decl = _frozen(SystemDecl, **values)
    try:
        return decl, decl.system
    except ValueError as exc:
        raise _WordError(str(exc), E_BAD_VALUE, 0) from None


def _refuse_statement(words: list[str]):
    """Raise the error of a line whose keyword path names no statement."""
    if words[0] == "system":
        raise _WordError("duplicate system declaration", E_DUPLICATE_SYSTEM, 0)
    if words[0] not in _SECOND_WORD:
        raise _WordError(f"unknown statement {words[0]!r}", E_UNKNOWN_KEYWORD, 0)
    what, wrong = _SECOND_WORD[words[0]]
    if len(words) == 1:
        raise _WordError(f"expected {what}", E_SYNTAX, 0, len(words[0]))
    raise _WordError(wrong.format(words[1]), E_UNKNOWN_KEYWORD, 1)


def parse_sequence(text: str) -> SequenceIR:
    """Parse a script into an IR, validating against the declared system."""
    decl: SystemDecl | None = None
    sys: SpinSystem | None = None
    events: list[Event] = []
    acquired = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0] if "#" in raw else raw
        words = code.split()
        if not words:
            continue
        head = words[0]
        try:
            if sys is None:
                if head != "system":
                    raise _WordError("system declaration must come first",
                                     E_MISSING_SYSTEM, 0)
                decl, sys = _parse_system(words)
                statements = _statements(sys.dim)
                continue
            entry = statements.get(head) or statements.get(
                (head, words[1] if len(words) > 1 else "")) or _refuse_statement(words)
            cls, fields, i = entry
            n = len(words)
            if cls is SelPulse and n > i + len(fields):   # the slice count is optional
                fields += _CLAUSE[:3 if n > i + len(fields) + 2 else 2]
            values = {"line": lineno, "column": code.find(head) + 1}
            for what, known, read, name, text_name, check in fields:
                if i == n:
                    raise _WordError(f"expected {what}", E_SYNTAX, i - 1, len(words[i - 1]))
                text = words[i]
                value = known.get(text)
                if value is None:
                    value = read(text, i, sys)
                if check and not check[0](value):
                    raise _WordError(check[1].format(value), check[2], i)
                values[name] = value
                if text_name:
                    values[text_name] = text
                i += 1
            if i < n:
                raise _WordError(f"unexpected trailing token {words[i]!r}", E_SYNTAX, i)
            if acquired:
                if cls is Acquire:
                    raise _WordError("only one acquire event is allowed",
                                     E_DUPLICATE_ACQUIRE, 0)
                raise _WordError("acquire must be the last event", E_ACQUIRE_NOT_LAST, 0)
            acquired = cls is Acquire
            if cls is SelPulse:
                values["shape"] = values.get("shape") and GaussianShape(
                    **{name: values.pop(name) for name in _SHAPE_NAMES if name in values})
            # values holds every field: skip the frozen __init__ (one update of an
            # empty __dict__ copies values' compact table, whose attributes read fast)
            event = object.__new__(cls)
            event.__dict__.update(values)
        except _WordError as exc:
            message, error_code, index, offset = exc.args
            # columns are found only here: \S+ matches the words str.split gave
            start = [m.start() for m in re.finditer(r"\S+", code)][index]
            raise ParseError(message, lineno, start + 1 + offset, error_code) from None
        events.append(event)
    if decl is None:
        raise ParseError("empty script: system declaration required", 1, 1,
                         E_MISSING_SYSTEM)
    return SequenceIR(system_decl=decl, events=tuple(events))


# --- canonical printer ------------------------------------------------------

# a %-template per class: its keyword path, then the text of each field
_TEMPLATES = {cls: " ".join([*((key,) if isinstance(key, str) else key),
                              *(f"%({field[4] or field[3]})s" for field in fields)])
              for key, (cls, fields) in [*_STATEMENTS.items(), ("gaussian", _SHAPE)]}


def format_sequence(ir: SequenceIR) -> str:
    """Canonical text form; parse(format_sequence(ir)) reproduces ir."""
    decl = ir.system_decl
    parts = ["system I=" + str(Fraction(decl.spin).limit_denominator(2))]
    if decl.splitting_hz is not None:
        parts.append(f"splitting={decl.splitting_hz:.17g}Hz")
    if decl.offset_hz:
        parts.append(f"offset={decl.offset_hz:.17g}Hz")
    lines = [" ".join(parts)]
    for event in ir.events:
        line = _TEMPLATES[type(event)] % event.__dict__
        if type(event) is SelPulse and event.shape is not None:
            line += " " + _TEMPLATES[GaussianShape] % event.shape.__dict__
        lines.append(line)
    return "\n".join(lines) + "\n"
