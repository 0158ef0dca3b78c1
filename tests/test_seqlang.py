import random
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadnmr import ParseError, SpinSystem, compile_unitary, format_sequence, parse_sequence
from quadnmr.seqlang import (Acquire, GaussianShape, Gradient, HardPulse, QuadDelay,
                             Refocus, SelPulse, SequenceIR, SystemDecl, ZPulse)

from conftest import INVALID_DIR, SEQUENCES_DIR
from test_golden_parse import _generate, corpus

EXAMPLE = """\
# three-event oracle body
system I=3/2 splitting=16kHz
zpulse 01-11 1.5708
delay quad pi/(12*lambda)
pulse sel 10-11 -y 1.8138
"""


class TestParsing:
    def test_example_script_structure(self):
        ir = parse_sequence(EXAMPLE)
        assert ir.system_decl == SystemDecl(spin=1.5, splitting_hz=16_000.0)
        kinds = [type(e) for e in ir.events]
        assert kinds == [ZPulse, QuadDelay, SelPulse]
        assert ir.events[0].transition == "01-11"
        assert ir.events[2].axis == "-y"
        assert ir.events[2].angle_rad == pytest.approx(1.8138)

    def test_symbolic_delay_resolution(self):
        ir = parse_sequence(EXAMPLE)
        lam = 16_000.0 / 6.0
        assert ir.events[1].tau_s == pytest.approx(1.0 / (24.0 * lam))

    # each symbol with and without its sign, and signed zeros, which keep
    # their sign
    @pytest.mark.parametrize("word, value", [
        ("pi/2", np.pi / 2), ("-pi/2", -np.pi / 2), ("pi/sqrt(3)", np.pi / np.sqrt(3)),
        ("pi", np.pi), ("-pi", -np.pi), ("pi/4", np.pi / 4), ("-pi/4", -np.pi / 4),
        ("-pi/sqrt(3)", -np.pi / np.sqrt(3)), ("-0", -0.0), ("-0.0", -0.0), ("0", 0.0),
        ("-1e-320", -1e-320)])
    def test_angle_symbols(self, word, value):
        ir = parse_sequence(
            "system I=3/2 splitting=16kHz\n"
            f"pulse hard -y {word}\n"
            f"zpulse 01-11 {word}\n"
            f"pulse sel 00-01 x {word}\n")
        for event in ir.events:
            assert event.angle_rad.hex() == float(value).hex()
            assert event.angle_text == word

    def test_duration_units(self):
        ir = parse_sequence(
            "system I=3/2 splitting=16kHz\n"
            "delay quad 15us\nrefocus 1.5ms\nacquire 256 5e-6s\n")
        assert ir.events[0].tau_s == pytest.approx(15e-6)
        assert ir.events[1].tau_s == pytest.approx(1.5e-3)
        assert ir.events[2].dwell_s == pytest.approx(5e-6)

    def test_comments_and_blank_lines_ignored(self):
        ir = parse_sequence(
            "\n# leading comment\nsystem I=3/2 splitting=16kHz\n\n"
            "gradient # trailing comment\n\n")
        assert [type(e) for e in ir.events] == [Gradient]

    def test_shaped_pulse_clause(self):
        ir = parse_sequence(
            "system I=3/2 splitting=16kHz\n"
            "pulse sel 10-11 -y pi/sqrt(3) gaussian 123us 256\n")
        shape = ir.events[0].shape
        assert shape.duration_s == pytest.approx(123e-6)
        assert shape.n_slices == 256

    def test_empty_event_list_allowed(self):
        ir = parse_sequence("system I=3/2 splitting=16kHz\n")
        assert ir.events == ()

    def test_parsed_events_equal_constructed_ones(self):
        ir = parse_sequence(
            "system I=3/2 splitting=16kHz\n"
            "pulse hard -y pi/2\n"
            "  pulse sel 10-11 x 0.5\n"
            "pulse sel 01-11 y pi gaussian 20us 128\n"
            "zpulse 01-11 -pi/4\n"
            "delay quad pi/(12*lambda)\n"
            "\trefocus 40us\n"
            "gradient\n"
            "acquire 1024 5us\n")
        built = (
            HardPulse(axis="-y", angle_rad=np.pi / 2, angle_text="pi/2", line=2, column=1),
            SelPulse(transition="10-11", axis="x", angle_rad=0.5, angle_text="0.5",
                     line=3, column=3),
            SelPulse(transition="01-11", axis="y", angle_rad=np.pi, angle_text="pi",
                     shape=GaussianShape(duration_s=20 * 1e-6, duration_text="20us",
                                         n_slices=128), line=4, column=1),
            ZPulse(transition="01-11", angle_rad=-np.pi / 4, angle_text="-pi/4",
                   line=5, column=1),
            QuadDelay(tau_s=1.0 / (24.0 * 16_000.0 / 6.0), tau_text="pi/(12*lambda)",
                      line=6, column=1),
            Refocus(tau_s=40 * 1e-6, tau_text="40us", line=7, column=2),
            Gradient(line=8, column=1),
            Acquire(points=1024, dwell_s=5 * 1e-6, dwell_text="5us", line=9, column=1))
        assert ir.events == built
        for parsed, expected in zip(ir.events, built):
            assert hash(parsed) == hash(expected)
            assert repr(parsed) == repr(expected)   # line and column included
            assert parsed.__dict__ == expected.__dict__

    def test_one_system_per_declaration(self, monkeypatch):
        built = []
        post_init = SpinSystem.__post_init__
        monkeypatch.setattr(SpinSystem, "__post_init__",
                            lambda self: built.append(post_init(self)))
        ir = parse_sequence("system I=3/2 splitting=16kHz\npulse hard x pi/2\ngradient\n")
        prefix = SequenceIR(system_decl=ir.system_decl, events=ir.events[:1])
        compile_unitary(prefix)
        # the parser's system serves the prefix's compile and the trajectory
        assert ir.system() is prefix.system() is ir.system_decl.system
        assert len(built) == 1
        # it is no field: equality and hashing read the declared values only
        assert [f.name for f in fields(SystemDecl)] == ["spin", "splitting_hz", "offset_hz"]
        assert ir.system_decl == SystemDecl(spin=1.5, splitting_hz=16_000.0)
        assert hash(ir.system_decl) == hash(SystemDecl(spin=1.5, splitting_hz=16_000.0))

    def test_offset_and_lambda_parameters(self):
        ir = parse_sequence("system I=3/2 lambda=2kHz offset=100Hz\n")
        assert ir.system_decl.splitting_hz == pytest.approx(12_000.0)
        assert ir.system_decl.offset_hz == pytest.approx(100.0)


class TestParseErrors:
    def test_forbidden_transition_located(self):
        with pytest.raises(ParseError) as err:
            parse_sequence("system I=3/2 splitting=16kHz\npulse sel 00-10 x 3.14\n")
        assert err.value.code == "E_FORBIDDEN_TRANSITION"
        assert err.value.line == 2
        assert err.value.column == 11

    def test_negative_lambda_located_at_value(self):
        with pytest.raises(ParseError) as err:
            parse_sequence("system I=3/2 lambda=-1kHz\n")
        assert err.value.code == "E_BAD_VALUE"
        assert (err.value.line, err.value.column) == (1, 21)

    # each was refused at column 1 as "lambda_hz must be finite, got inf"
    # (or offset_hz), a name the text does not hold
    @pytest.mark.parametrize("text, column, message", [
        ("system I=3/2 splitting=1e400Hz", 24, "splitting must be finite, got '1e400Hz'"),
        ("system I=3/2 splitting=1e308kHz", 24, "splitting must be finite, got '1e308kHz'"),
        ("system I=3/2 lambda=-1e400Hz", 21, "lambda must be finite, got '-1e400Hz'"),
        ("system I=3/2 offset=-1e400kHz splitting=16kHz", 21,
         "offset must be finite, got '-1e400kHz'"),
        # lambda itself is finite; the splitting 6*lambda is not
        ("system I=3/2 lambda=1e308Hz", 21,
         "lambda too large: 6*lambda overflows the float range, got '1e308Hz'")])
    def test_an_infinite_frequency_is_refused_at_its_value(self, text, column, message):
        with pytest.raises(ParseError) as err:
            parse_sequence(text + "\n")
        assert (err.value.code, err.value.line, err.value.column, err.value.message) == \
            ("E_BAD_VALUE", 1, column, message)

    def test_error_string_carries_location(self):
        with pytest.raises(ParseError) as err:
            parse_sequence("system I=3/2 splitting=16kHz\nwat\n")
        assert "line 2:1" in str(err.value)
        assert "E_UNKNOWN_KEYWORD" in str(err.value)

    @pytest.mark.parametrize("path", sorted(INVALID_DIR.glob("*.qseq")),
                             ids=lambda p: p.stem)
    def test_invalid_corpus(self, path):
        # each file's header reads "# E_CODE at LINE:COLUMN[: why]"
        header = re.match(r"# (E_[A-Z0-9_]+) at (\d+):(\d+)\b", path.read_text())
        assert header, f"{path.name}: header names no code and position"
        with pytest.raises(ParseError) as err:
            parse_sequence(path.read_text())
        assert err.value.code == header.group(1)
        assert (err.value.line, err.value.column) == \
            (int(header.group(2)), int(header.group(3)))

    @pytest.mark.parametrize("text,code", [
        ("system I=0.3 splitting=16kHz\n", "E_BAD_VALUE"),
        ("system I=3/2 splitting=16kHz\nsystem I=1/2\n", "E_DUPLICATE_SYSTEM"),
        ("system I=3/2 splitting=16kHz\npulse sel 01-11 q pi\n", "E_SYNTAX"),
        ("system I=3/2 splitting=16kHz\npulse hard -y\n", "E_SYNTAX"),
        ("system I=3/2 splitting=16kHz\nacquire 1024 0us\n", "E_BAD_VALUE"),
        # words are checked left to right: the first bad word is reported,
        # not the trailing word a duplicated word pushes out
        ("system I=3/2 splitting=16kHz\npulse hard x x pi\n", "E_BAD_NUMBER at 2:14"),
        ("system I=3/2 splitting=16kHz\nzpulse 01-11 01-11 -pi/2\n",
         "E_BAD_NUMBER at 2:14"),
        ("system I=3/2 splitting=16kHz\ndelay quad quad 5us\n", "E_BAD_NUMBER at 2:12"),
        # angle words that are neither a symbol nor a finite float
        ("system I=3/2 splitting=16kHz\npulse hard x +pi\n", "E_BAD_NUMBER at 2:14"),
        ("system I=3/2 splitting=16kHz\npulse hard x --pi\n", "E_BAD_NUMBER at 2:14"),
        ("system I=3/2 splitting=16kHz\npulse hard x pi/3\n", "E_BAD_NUMBER at 2:14"),
        ("system I=3/2 splitting=16kHz\nzpulse 01-11 -inf\n", "E_BAD_VALUE at 2:14"),
        ("system I=3/2 splitting=16kHz\n  zpulse 01-11 -nan\n", "E_BAD_VALUE at 2:16"),
        # a system key given twice was read last-wins; splitting and lambda
        # both set the coupling
        ("system I=3/2 splitting=16kHz splitting=8kHz\n", "E_SYNTAX at 1:30"),
        ("system I=3/2 splitting=16kHz lambda=1kHz\n", "E_SYNTAX at 1:30"),
        ("system I=3/2 lambda=1kHz splitting=6kHz\n", "E_SYNTAX at 1:26"),
        ("system I=3/2 I=5/2\n", "E_SYNTAX at 1:14"),
        ("system offset=1Hz I=3/2 offset=2Hz\n", "E_SYNTAX at 1:25"),
        ("system I=3/2 I=bad\n", "E_SYNTAX at 1:14"),
    ])
    def test_inline_error_cases(self, text, code):
        # code is "E_CODE" or, to pin the position too, "E_CODE at LINE:COLUMN"
        expected = re.fullmatch(r"(E_[A-Z0-9_]+)(?: at (\d+):(\d+))?", code)
        with pytest.raises(ParseError) as err:
            parse_sequence(text)
        assert err.value.code == expected.group(1)
        if expected.group(2):
            assert (err.value.line, err.value.column) == \
                (int(expected.group(2)), int(expected.group(3)))

    def test_a_repeated_system_key_names_the_first(self):
        with pytest.raises(ParseError) as err:
            parse_sequence("system I=3/2 splitting=16kHz lambda=1kHz\n")
        assert err.value.message == "lambda= repeats the coupling given by splitting="

    def test_eight_level_system_labels(self):
        ir = parse_sequence("system I=7/2 splitting=12kHz\nzpulse 001-010 pi\n")
        assert ir.events[0].transition == "001-010"


VALID_FIXTURES = sorted(SEQUENCES_DIR.glob("*.qseq"))


def test_parsed_records_hold_the_fields_their_init_sets():
    """The reader builds its records without their __init__, so a field it
    forgot or misnamed would fail only when read: every event, shape and
    declaration it makes from the bundled sequences, the golden-parse corpus
    and 200 generated texts holds what __init__ would set."""
    rng = random.Random(20261021)
    texts = [path.read_text() for path in VALID_FIXTURES] + list(corpus().values())
    parsed = 0
    for text in texts + [_generate(rng) for _ in range(200)]:
        try:
            ir = parse_sequence(text)
        except ParseError:
            continue
        parsed += 1
        declared = {k: v for k, v in vars(ir.system_decl).items() if k != "system"}
        assert declared == vars(replace(ir.system_decl))
        for event in ir.events:
            assert vars(event) == vars(replace(event))
            if getattr(event, "shape", None) is not None:
                assert vars(event.shape) == vars(replace(event.shape))
    assert parsed > 400


class TestRoundTrip:
    @pytest.mark.parametrize("path", VALID_FIXTURES, ids=lambda p: p.stem)
    def test_bundled_fixtures_round_trip(self, path):
        first = parse_sequence(path.read_text())
        printed = format_sequence(first)
        second = parse_sequence(printed)
        assert second.system_decl == first.system_decl
        assert second.events == first.events
        # printing is a fixpoint after one pass
        assert format_sequence(second) == printed

    angles = st.sampled_from(
        [("pi", np.pi), ("pi/2", np.pi / 2), ("-pi/2", -np.pi / 2),
         ("pi/4", np.pi / 4), ("pi/sqrt(3)", np.pi / np.sqrt(3)),
         ("1.8138", 1.8138), ("-0.25", -0.25)])
    transitions = st.sampled_from(["00-01", "01-11", "10-11"])
    axes = st.sampled_from(["x", "-x", "y", "-y"])
    # values written exactly as the parser computes them (literal * unit scale)
    durations = st.sampled_from(
        [("10us", 10.0 * 1e-6), ("1.5ms", 1.5 * 1e-3), ("2e-5s", 2e-5 * 1.0),
         ("pi/(12*lambda)", 1.0 / (24.0 * (16_000.0 / 6.0)))])
    shapes = st.one_of(st.none(), st.builds(
        lambda d, n: GaussianShape(duration_s=d[1], duration_text=d[0], n_slices=n),
        durations, st.sampled_from([64, 512])))

    events = st.one_of(
        st.builds(lambda ax, a: HardPulse(axis=ax, angle_rad=a[1], angle_text=a[0]),
                  axes, angles),
        st.builds(lambda tr, ax, a, sh: SelPulse(transition=tr, axis=ax, angle_rad=a[1],
                                                 angle_text=a[0], shape=sh),
                  transitions, axes, angles, shapes),
        st.builds(lambda tr, a: ZPulse(transition=tr, angle_rad=a[1], angle_text=a[0]),
                  transitions, angles),
        st.builds(lambda d: QuadDelay(tau_s=d[1], tau_text=d[0]), durations),
        st.builds(lambda d: Refocus(tau_s=d[1], tau_text=d[0]), durations),
        st.just(Gradient()),
    )

    @settings(max_examples=80, deadline=None)
    @given(events=st.lists(events, max_size=8),
           acquire_points=st.sampled_from([None, 2, 512, 16384]))
    def test_generated_ir_round_trips(self, events, acquire_points):
        if acquire_points is not None:
            events = events + [Acquire(points=acquire_points, dwell_s=5.0 * 1e-6,
                                       dwell_text="5us")]
        ir = SequenceIR(system_decl=SystemDecl(spin=1.5, splitting_hz=16_000.0),
                        events=tuple(events))
        reparsed = parse_sequence(format_sequence(ir))
        assert reparsed.events == ir.events
        assert reparsed.system_decl == ir.system_decl
