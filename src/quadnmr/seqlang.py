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

Every parse error carries a 1-based line and column and a machine-readable
code (the E_* constants below).
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Token:
    text: str
    line: int
    column: int

    def error(self, message: str, code: str) -> ParseError:
        return ParseError(message, self.line, self.column, code)


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


# --- token-level helpers ----------------------------------------------------

def _tokenize_line(text: str, lineno: int) -> list[Token]:
    code = text.split("#", 1)[0]
    return [Token(m.group(0), lineno, m.start() + 1)
            for m in re.finditer(r"\S+", code)]


def _parse_angle(tok: Token) -> float:
    text = tok.text
    negative = text.startswith("-")
    body = text[1:] if negative else text
    if body in _ANGLE_SYMBOLS:
        value = _ANGLE_SYMBOLS[body]
    else:
        try:
            value = float(text)
        except ValueError:
            raise tok.error(f"bad angle {text!r}", E_BAD_NUMBER) from None
        negative = False
    if not np.isfinite(value):
        raise tok.error(f"angle must be finite, got {text!r}", E_BAD_VALUE)
    return -value if negative else value


def _parse_duration(tok: Token, sys: SpinSystem) -> float:
    text = tok.text
    if text == SYMBOLIC_CPHASE_DELAY:
        try:
            return cphase_delay_s(sys)
        except ValueError:
            raise tok.error("symbolic duration needs a declared nonzero coupling",
                            E_NO_LAMBDA) from None
    match = _DURATION_RE.match(text)
    if not match:
        raise tok.error(f"bad duration {text!r} (use s/ms/us or {SYMBOLIC_CPHASE_DELAY})",
                        E_BAD_NUMBER)
    value = float(match.group(1)) * _DURATION_SCALE[match.group(2)]
    if not (np.isfinite(value) and value >= 0):
        raise tok.error(f"duration must be finite and nonnegative, got {text!r}",
                        E_BAD_VALUE)
    return value


def _parse_freq(tok: Token) -> float:
    match = _FREQ_RE.match(tok.text)
    if not match:
        raise tok.error(f"bad frequency {tok.text!r}", E_BAD_NUMBER)
    return float(match.group(1)) * (1000.0 if match.group(2) == "kHz" else 1.0)


def _parse_int(tok: Token) -> int:
    try:
        return int(tok.text)
    except ValueError:
        raise tok.error(f"bad integer {tok.text!r}", E_BAD_NUMBER) from None


def _check_transition(tok: Token, sys: SpinSystem) -> str:
    try:
        sys.transition(tok.text)
    except ForbiddenTransitionError as exc:
        raise tok.error(str(exc), E_FORBIDDEN_TRANSITION) from None
    except UnknownTransitionError as exc:
        raise tok.error(str(exc), E_UNKNOWN_TRANSITION) from None
    return tok.text


def _check_axis(tok: Token) -> str:
    if tok.text not in ("x", "-x", "y", "-y"):
        raise tok.error(f"axis must be x, -x, y or -y, got {tok.text!r}", E_SYNTAX)
    return tok.text


def _expect(tokens: list[Token], idx: int, what: str, lineno: int) -> Token:
    if idx >= len(tokens):
        last = tokens[-1] if tokens else Token("", lineno, 1)
        raise ParseError(f"expected {what}", lineno,
                         last.column + len(last.text), E_SYNTAX)
    return tokens[idx]


def _no_more(tokens: list[Token], idx: int) -> None:
    if idx < len(tokens):
        extra = tokens[idx]
        raise extra.error(f"unexpected trailing token {extra.text!r}", E_SYNTAX)


# --- statement parsers ------------------------------------------------------

def _parse_system(tokens: list[Token]) -> tuple[SystemDecl, SpinSystem]:
    spin = None
    splitting = None
    offset = 0.0
    for tok in tokens[1:]:
        if "=" not in tok.text:
            raise tok.error(f"expected key=value, got {tok.text!r}", E_SYNTAX)
        key, value = tok.text.split("=", 1)
        vtok = Token(value, tok.line, tok.column + len(key) + 1)
        if key == "I":
            try:
                spin = float(Fraction(value))
            except (ValueError, ZeroDivisionError):
                raise vtok.error(f"bad spin {value!r}", E_BAD_NUMBER) from None
        elif key in ("splitting", "lambda"):
            splitting = _parse_freq(vtok)
            if splitting < 0:
                raise vtok.error(f"{key} must be nonnegative", E_BAD_VALUE)
            if key == "lambda":
                splitting *= 6.0
        elif key == "offset":
            offset = _parse_freq(vtok)
        else:
            raise tok.error(f"unknown system parameter {key!r}", E_UNKNOWN_KEYWORD)
    if spin is None:
        raise tokens[0].error("system declaration needs I=<spin>", E_SYNTAX)
    decl = SystemDecl(spin=spin, splitting_hz=splitting, offset_hz=offset)
    try:
        return decl, decl.to_system()
    except ValueError as exc:
        raise tokens[0].error(str(exc), E_BAD_VALUE) from None


def _parse_pulse(tokens: list[Token], sys: SpinSystem) -> Event:
    head = tokens[0]
    scope = _expect(tokens, 1, "pulse scope (hard|sel)", head.line)
    if scope.text == "hard":
        axis = _check_axis(_expect(tokens, 2, "axis", head.line))
        angle_tok = _expect(tokens, 3, "angle", head.line)
        _no_more(tokens, 4)
        return HardPulse(axis=axis, angle_rad=_parse_angle(angle_tok),
                         angle_text=angle_tok.text,
                         line=head.line, column=head.column)
    if scope.text == "sel":
        trans = _check_transition(_expect(tokens, 2, "transition", head.line), sys)
        axis = _check_axis(_expect(tokens, 3, "axis", head.line))
        angle_tok = _expect(tokens, 4, "angle", head.line)
        shape = None
        if len(tokens) > 5:
            shape_tok = tokens[5]
            if shape_tok.text != "gaussian":
                raise shape_tok.error(
                    f"unknown pulse shape {shape_tok.text!r}", E_UNKNOWN_KEYWORD)
            dur_tok = _expect(tokens, 6, "shape duration", head.line)
            duration = _parse_duration(dur_tok, sys)
            if duration <= 0:
                raise dur_tok.error("shaped pulse duration must be positive", E_BAD_VALUE)
            n_slices = 512
            if len(tokens) > 7:
                n_slices = _parse_int(tokens[7])
                if n_slices < 64:
                    raise tokens[7].error("need at least 64 slices", E_BAD_VALUE)
                _no_more(tokens, 8)
            shape = GaussianShape(duration_s=duration, duration_text=dur_tok.text,
                                  n_slices=n_slices)
        return SelPulse(transition=trans, axis=axis,
                        angle_rad=_parse_angle(angle_tok), angle_text=angle_tok.text,
                        shape=shape, line=head.line, column=head.column)
    raise scope.error(f"pulse scope must be hard or sel, got {scope.text!r}",
                      E_UNKNOWN_KEYWORD)


def _parse_statement(tokens: list[Token], sys: SpinSystem) -> Event:
    head = tokens[0]
    if head.text == "pulse":
        return _parse_pulse(tokens, sys)
    if head.text == "zpulse":
        trans = _check_transition(_expect(tokens, 1, "transition", head.line), sys)
        angle_tok = _expect(tokens, 2, "angle", head.line)
        _no_more(tokens, 3)
        return ZPulse(transition=trans, angle_rad=_parse_angle(angle_tok),
                      angle_text=angle_tok.text, line=head.line, column=head.column)
    if head.text == "delay":
        kind = _expect(tokens, 1, "delay kind (quad)", head.line)
        if kind.text != "quad":
            raise kind.error(f"unknown delay kind {kind.text!r}", E_UNKNOWN_KEYWORD)
        tau_tok = _expect(tokens, 2, "duration", head.line)
        _no_more(tokens, 3)
        return QuadDelay(tau_s=_parse_duration(tau_tok, sys), tau_text=tau_tok.text,
                         line=head.line, column=head.column)
    if head.text == "refocus":
        tau_tok = _expect(tokens, 1, "duration", head.line)
        _no_more(tokens, 2)
        return Refocus(tau_s=_parse_duration(tau_tok, sys), tau_text=tau_tok.text,
                       line=head.line, column=head.column)
    if head.text == "gradient":
        _no_more(tokens, 1)
        return Gradient(line=head.line, column=head.column)
    if head.text == "acquire":
        pts_tok = _expect(tokens, 1, "point count", head.line)
        points = _parse_int(pts_tok)
        if points < 2 or points & (points - 1):
            raise pts_tok.error(f"acquire points must be a power of two, got {points}",
                                E_POINTS_NOT_POWER2)
        dwell_tok = _expect(tokens, 2, "dwell time", head.line)
        dwell = _parse_duration(dwell_tok, sys)
        if dwell <= 0:
            raise dwell_tok.error("dwell time must be positive", E_BAD_VALUE)
        _no_more(tokens, 3)
        return Acquire(points=points, dwell_s=dwell, dwell_text=dwell_tok.text,
                       line=head.line, column=head.column)
    raise head.error(f"unknown statement {head.text!r}", E_UNKNOWN_KEYWORD)


def parse_sequence(text: str) -> SequenceIR:
    """Parse a script into an IR, validating against the declared system."""
    decl: SystemDecl | None = None
    sys: SpinSystem | None = None
    events: list[Event] = []
    acquire_seen: Acquire | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        if not tokens:
            continue
        if tokens[0].text == "system":
            if decl is not None:
                raise tokens[0].error("duplicate system declaration", E_DUPLICATE_SYSTEM)
            decl, sys = _parse_system(tokens)
            continue
        if decl is None or sys is None:
            raise tokens[0].error("system declaration must come first", E_MISSING_SYSTEM)
        event = _parse_statement(tokens, sys)
        if acquire_seen is not None:
            if isinstance(event, Acquire):
                raise tokens[0].error("only one acquire event is allowed",
                                      E_DUPLICATE_ACQUIRE)
            raise tokens[0].error("acquire must be the last event", E_ACQUIRE_NOT_LAST)
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
