"""Line-oriented pulse-sequence language: parser, IR, canonical printer.

One event per line, executed top to bottom; '#' starts a comment. A script
opens with a system declaration and may end with a single acquisition:

    # controlled-phase-by-evolution realization of the swap-lower-levels gate
    system I=3/2 splitting=16kHz
    zpulse 01-11 pi/2
    delay quad pi/(12*lambda)
    pulse sel 10-11 -y pi/sqrt(3)

Statements:
    system I=<half-integer> [splitting=<freq>] [offset=<freq>]
    pulse hard <axis> <angle>
    pulse sel <transition> <axis> <angle> [gaussian <duration> [<slices>]]
    zpulse <transition> <angle>
    delay quad <duration>
    refocus <duration>
    gradient
    acquire <points> <dwell>

Angles are radians: a float literal or pi, pi/2, pi/4, pi/sqrt(3), each with
an optional leading '-'. Durations carry a unit (s, ms, us) or are the
symbolic form pi/(12*lambda), resolved against the declared coupling.
Transitions are bit-string pairs like 10-11; pairs whose levels are not
adjacent (the unphysical |delta m| > 1 drives) are rejected at parse time.
A gaussian clause makes a selective pulse soft (see pulses.shaped_pulse);
its optional slice count (>= 64) is validated and printed back but does not
change the propagator.

Tokens are the whitespace-separated words of a line, as str.split gives
them. Every parse error carries a 1-based line and a 1-based column, counted
in code points, and a machine-readable code (the E_* constants below).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .system import (ForbiddenTransitionError, SpinSystem, UnknownTransitionError,
                     cphase_delay_s)

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
    "pi": np.pi,
    "pi/2": np.pi / 2.0,
    "pi/4": np.pi / 4.0,
    "pi/sqrt(3)": np.pi / np.sqrt(3.0),
}

_DURATION_RE = re.compile(r"^([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)(s|ms|us)$")
_FREQ_RE = re.compile(r"^([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)(Hz|kHz)?$")

_DURATION_SCALE = {"s": 1.0, "ms": 1e-3, "us": 1e-6}


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

    def to_system(self) -> SpinSystem:
        splitting = self.splitting_hz if self.splitting_hz is not None else 0.0
        return SpinSystem.from_splitting(splitting_hz=splitting,
                                         offset_hz=self.offset_hz, spin=self.spin)


@dataclass(frozen=True)
class SequenceIR:
    system_decl: SystemDecl
    events: tuple[Event, ...]

    def system(self) -> SpinSystem:
        return self.system_decl.to_system()


# --- word-level helpers -----------------------------------------------------

class _WordError(Exception):
    """A parse error at word `index` of its line, `offset` code points into
    the word; parse_sequence turns it into a located ParseError."""

    def __init__(self, message: str, code: str, index: int, offset: int = 0):
        super().__init__(message, code, index, offset)


def _parse_angle(words: list[str], i: int) -> float:
    text = words[i]
    negative = text.startswith("-")
    body = text[1:] if negative else text
    if body in _ANGLE_SYMBOLS:
        value = _ANGLE_SYMBOLS[body]
    else:
        try:
            value = float(text)
        except ValueError:
            raise _WordError(f"bad angle {text!r}", E_BAD_NUMBER, i) from None
        negative = False
    if not math.isfinite(value):
        raise _WordError(f"angle must be finite, got {text!r}", E_BAD_VALUE, i)
    return -value if negative else value


def _parse_duration(words: list[str], i: int, sys: SpinSystem) -> float:
    text = words[i]
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
        value = float(match.group(1)) * _DURATION_SCALE[match.group(2)]
    if not (math.isfinite(value) and value >= 0):
        raise _WordError(f"duration must be finite and nonnegative, got {text!r}",
                         E_BAD_VALUE, i)
    return value


def _parse_freq(text: str, i: int, offset: int) -> float:
    match = _FREQ_RE.match(text)
    if not match:
        raise _WordError(f"bad frequency {text!r}", E_BAD_NUMBER, i, offset)
    return float(match.group(1)) * (1000.0 if match.group(2) == "kHz" else 1.0)


def _parse_int(words: list[str], i: int) -> int:
    try:
        return int(words[i])
    except ValueError:
        raise _WordError(f"bad integer {words[i]!r}", E_BAD_NUMBER, i) from None


def _check_transition(words: list[str], i: int, sys: SpinSystem) -> str:
    text = _expect(words, i, "transition")
    try:
        sys.transition(text)
    except ForbiddenTransitionError as exc:
        raise _WordError(str(exc), E_FORBIDDEN_TRANSITION, i) from None
    except UnknownTransitionError as exc:
        raise _WordError(str(exc), E_UNKNOWN_TRANSITION, i) from None
    return text


def _check_axis(words: list[str], i: int) -> str:
    text = _expect(words, i, "axis")
    if text not in ("x", "-x", "y", "-y"):
        raise _WordError(f"axis must be x, -x, y or -y, got {text!r}", E_SYNTAX, i)
    return text


def _expect(words: list[str], i: int, what: str) -> str:
    if i >= len(words):
        raise _WordError(f"expected {what}", E_SYNTAX, len(words) - 1, len(words[-1]))
    return words[i]


def _no_more(words: list[str], i: int) -> None:
    if i < len(words):
        raise _WordError(f"unexpected trailing token {words[i]!r}", E_SYNTAX, i)


# --- statement parsers ------------------------------------------------------

def _parse_system(words: list[str]) -> tuple[SystemDecl, SpinSystem]:
    spin = None
    splitting = None
    offset = 0.0
    for i in range(1, len(words)):
        if "=" not in words[i]:
            raise _WordError(f"expected key=value, got {words[i]!r}", E_SYNTAX, i)
        key, value = words[i].split("=", 1)
        at = len(key) + 1
        if key == "I":
            try:
                spin = float(Fraction(value))
            except (ValueError, ZeroDivisionError, OverflowError):
                raise _WordError(f"bad spin {value!r}", E_BAD_NUMBER, i, at) from None
        elif key in ("splitting", "lambda"):
            splitting = _parse_freq(value, i, at)
            if splitting < 0:
                raise _WordError(f"{key} must be nonnegative", E_BAD_VALUE, i, at)
            if key == "lambda":
                splitting *= 6.0
        elif key == "offset":
            offset = _parse_freq(value, i, at)
        else:
            raise _WordError(f"unknown system parameter {key!r}", E_UNKNOWN_KEYWORD, i)
    if spin is None:
        raise _WordError("system declaration needs I=<spin>", E_SYNTAX, 0)
    decl = SystemDecl(spin=spin, splitting_hz=splitting, offset_hz=offset)
    try:
        return decl, decl.to_system()
    except ValueError as exc:
        raise _WordError(str(exc), E_BAD_VALUE, 0) from None


def _parse_pulse(words: list[str], sys: SpinSystem, pos: dict) -> Event:
    scope = _expect(words, 1, "pulse scope (hard|sel)")
    if scope == "hard":
        axis = _check_axis(words, 2)
        _expect(words, 3, "angle")
        _no_more(words, 4)
        return HardPulse(axis=axis, angle_rad=_parse_angle(words, 3),
                         angle_text=words[3], **pos)
    if scope == "sel":
        trans = _check_transition(words, 2, sys)
        axis = _check_axis(words, 3)
        _expect(words, 4, "angle")
        shape = None
        if len(words) > 5:
            if words[5] != "gaussian":
                raise _WordError(f"unknown pulse shape {words[5]!r}",
                                 E_UNKNOWN_KEYWORD, 5)
            _expect(words, 6, "shape duration")
            duration = _parse_duration(words, 6, sys)
            if duration <= 0:
                raise _WordError("shaped pulse duration must be positive", E_BAD_VALUE, 6)
            n_slices = 512
            if len(words) > 7:
                n_slices = _parse_int(words, 7)
                if n_slices < 64:
                    raise _WordError("need at least 64 slices", E_BAD_VALUE, 7)
                _no_more(words, 8)
            shape = GaussianShape(duration_s=duration, duration_text=words[6],
                                  n_slices=n_slices)
        return SelPulse(transition=trans, axis=axis, angle_rad=_parse_angle(words, 4),
                        angle_text=words[4], shape=shape, **pos)
    raise _WordError(f"pulse scope must be hard or sel, got {scope!r}",
                     E_UNKNOWN_KEYWORD, 1)


def _parse_statement(words: list[str], sys: SpinSystem, pos: dict) -> Event:
    head = words[0]
    if head == "pulse":
        return _parse_pulse(words, sys, pos)
    if head == "zpulse":
        trans = _check_transition(words, 1, sys)
        _expect(words, 2, "angle")
        _no_more(words, 3)
        return ZPulse(transition=trans, angle_rad=_parse_angle(words, 2),
                      angle_text=words[2], **pos)
    if head == "delay":
        kind = _expect(words, 1, "delay kind (quad)")
        if kind != "quad":
            raise _WordError(f"unknown delay kind {kind!r}", E_UNKNOWN_KEYWORD, 1)
        _expect(words, 2, "duration")
        _no_more(words, 3)
        return QuadDelay(tau_s=_parse_duration(words, 2, sys), tau_text=words[2], **pos)
    if head == "refocus":
        _expect(words, 1, "duration")
        _no_more(words, 2)
        return Refocus(tau_s=_parse_duration(words, 1, sys), tau_text=words[1], **pos)
    if head == "gradient":
        _no_more(words, 1)
        return Gradient(**pos)
    if head == "acquire":
        _expect(words, 1, "point count")
        points = _parse_int(words, 1)
        if points < 2 or points & (points - 1):
            raise _WordError(f"acquire points must be a power of two, got {points}",
                             E_POINTS_NOT_POWER2, 1)
        _expect(words, 2, "dwell time")
        dwell = _parse_duration(words, 2, sys)
        if dwell <= 0:
            raise _WordError("dwell time must be positive", E_BAD_VALUE, 2)
        _no_more(words, 3)
        return Acquire(points=points, dwell_s=dwell, dwell_text=words[2], **pos)
    raise _WordError(f"unknown statement {head!r}", E_UNKNOWN_KEYWORD, 0)


def parse_sequence(text: str) -> SequenceIR:
    """Parse a script into an IR, validating against the declared system."""
    decl: SystemDecl | None = None
    sys: SpinSystem | None = None
    events: list[Event] = []
    acquire_seen: Acquire | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        words = code.split()
        if not words:
            continue
        try:
            if words[0] == "system":
                if decl is not None:
                    raise _WordError("duplicate system declaration", E_DUPLICATE_SYSTEM, 0)
                decl, sys = _parse_system(words)
                continue
            if decl is None or sys is None:
                raise _WordError("system declaration must come first", E_MISSING_SYSTEM, 0)
            pos = {"line": lineno, "column": len(code) - len(code.lstrip()) + 1}
            event = _parse_statement(words, sys, pos)
            if acquire_seen is not None:
                if isinstance(event, Acquire):
                    raise _WordError("only one acquire event is allowed",
                                     E_DUPLICATE_ACQUIRE, 0)
                raise _WordError("acquire must be the last event", E_ACQUIRE_NOT_LAST, 0)
        except _WordError as exc:
            message, error_code, index, offset = exc.args
            # columns are found only here: \S+ matches the words str.split gave
            start = [m.start() for m in re.finditer(r"\S+", code)][index]
            raise ParseError(message, lineno, start + 1 + offset, error_code) from None
        if isinstance(event, Acquire):
            acquire_seen = event
        events.append(event)
    if decl is None:
        raise ParseError("empty script: system declaration required", 1, 1,
                         E_MISSING_SYSTEM)
    return SequenceIR(system_decl=decl, events=tuple(events))


# --- canonical printer ------------------------------------------------------

def _spin_text(spin: float) -> str:
    frac = Fraction(spin).limit_denominator(2)
    return f"{frac.numerator}/{frac.denominator}" if frac.denominator != 1 \
        else str(frac.numerator)


def _format_event(event: Event) -> str:
    if isinstance(event, HardPulse):
        return f"pulse hard {event.axis} {event.angle_text}"
    if isinstance(event, SelPulse):
        base = f"pulse sel {event.transition} {event.axis} {event.angle_text}"
        if event.shape is not None:
            base += f" gaussian {event.shape.duration_text} {event.shape.n_slices}"
        return base
    if isinstance(event, ZPulse):
        return f"zpulse {event.transition} {event.angle_text}"
    if isinstance(event, QuadDelay):
        return f"delay quad {event.tau_text}"
    if isinstance(event, Refocus):
        return f"refocus {event.tau_text}"
    if isinstance(event, Gradient):
        return "gradient"
    if isinstance(event, Acquire):
        return f"acquire {event.points} {event.dwell_text}"
    raise TypeError(f"unknown event {event!r}")


def format_sequence(ir: SequenceIR) -> str:
    """Canonical text form; parse(format_sequence(ir)) reproduces ir."""
    decl = ir.system_decl
    parts = [f"system I={_spin_text(decl.spin)}"]
    if decl.splitting_hz is not None:
        parts.append(f"splitting={decl.splitting_hz:.17g}Hz")
    if decl.offset_hz:
        parts.append(f"offset={decl.offset_hz:.17g}Hz")
    lines = [" ".join(parts)]
    lines.extend(_format_event(event) for event in ir.events)
    return "\n".join(lines) + "\n"
