import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadnmr import (NonUnitaryEventError, RelaxationParams, SpinSystem, compile_unitary,
                     conjugate, cphase_delay_s, equilibrium_state, gradient_crush,
                     hard_pulse, observable_amplitudes, oracle_matrix, parse_sequence,
                     pseudopure_00, run_trajectory, selective_pulse, spectrum,
                     synthesize_fid)
from quadnmr.compiler import _inversion, _plan
from quadnmr.linalg import expm_diagonal
from quadnmr.seqlang import (SYMBOLIC_CPHASE_DELAY, Acquire, GaussianShape, Gradient,
                             HardPulse, QuadDelay, Refocus, SelPulse, SequenceIR,
                             SystemDecl, ZPulse)

from conftest import SEQUENCES_DIR
from helpers import (conjugate_reference, free_evolution, line_table, matrices_close,
                     propagator, pulse_stack_reference)
from test_relaxation import relaxed


def load(name):
    return parse_sequence((SEQUENCES_DIR / name).read_text())


def first_propagator(steps) -> np.ndarray:
    """The propagator of an event's first planned step."""
    us, _, index, _ = steps[0]
    return us[index]


class TestCompileUnitary:
    def test_empty_script_compiles_to_identity(self):
        ir = parse_sequence("system I=3/2 splitting=16kHz\n")
        assert matrices_close(compile_unitary(ir), np.eye(4))

    @pytest.mark.parametrize("axis", ["x", "y", "-x", "-y"])
    def test_one_event_returns_the_bytes_of_its_propagator(self, axis):
        # a 2 pi selective pulse on a spin-3 system holds -0.0 entries, which a
        # product with the identity would turn into +0.0 on some lines
        sys = SpinSystem(spin=3.0)
        for label in sys._levels.line_labels:
            event = SelPulse(transition=label, axis=axis, angle_rad=2 * np.pi,
                             angle_text="2*pi")
            ir = SequenceIR(SystemDecl(sys.spin, sys.splitting_hz), (event,))
            u = compile_unitary(ir, sys)
            own = first_propagator(_plan(ir.events, sys, None)[0][0])
            assert u.tobytes() == own.tobytes()
            u[0, 0] = 7.0     # a fresh array, not the plan's
            assert compile_unitary(ir, sys).tobytes() == own.tobytes()

    def test_quad_evolution_script_hits_target_phase(self):
        compiled = compile_unitary(load("u3-quad.qseq"))
        target = np.exp(-1j * np.pi / 4) * oracle_matrix("f3")
        assert matrices_close(compiled, target, atol=1e-10)

    def test_work_flip_script_phase(self):
        compiled = compile_unitary(load("u2.qseq"))
        assert matrices_close(compiled, 1j * oracle_matrix("f2"), atol=1e-10)

    def test_compositionality(self):
        ir = load("u3-zcascade.qseq")
        total = np.eye(4, dtype=complex)
        for event in ir.events:
            total = propagator(event, ir.system()) @ total
        assert matrices_close(compile_unitary(ir), total, atol=1e-12)

    def test_first_line_acts_first(self):
        # a hard 90 then a selective pulse is not the same as the reverse
        text_a = ("system I=3/2 splitting=16kHz\n"
                  "pulse hard -y pi/2\npulse sel 01-11 x pi/2\n")
        text_b = ("system I=3/2 splitting=16kHz\n"
                  "pulse sel 01-11 x pi/2\npulse hard -y pi/2\n")
        u_a = compile_unitary(parse_sequence(text_a))
        u_b = compile_unitary(parse_sequence(text_b))
        assert not matrices_close(u_a, u_b, atol=1e-6)
        psi0 = np.array([1, 0, 0, 0], dtype=complex)
        ir_a = parse_sequence(text_a)
        sys = ir_a.system()
        step1 = propagator(ir_a.events[0], sys) @ psi0
        step2 = propagator(ir_a.events[1], sys) @ step1
        assert matrices_close(u_a @ psi0, step2, atol=1e-12)

    def test_gradient_rejected_in_unitary_path(self):
        ir = load("pseudopure.qseq")
        with pytest.raises(NonUnitaryEventError, match="run_trajectory"):
            compile_unitary(ir)

    def test_acquire_rejected_in_unitary_path(self):
        ir = load("dj-f1.qseq")
        with pytest.raises(NonUnitaryEventError):
            compile_unitary(ir)

    def test_first_bad_event_raises(self, sys32):
        decl = SystemDecl(spin=1.5, splitting_hz=16_000.0)
        ok = HardPulse(axis="x", angle_rad=1.0, angle_text="1")
        bad = HardPulse(axis="z", angle_rad=1.0, angle_text="1")
        acquire = Acquire(points=256, dwell_s=1e-6, dwell_text="1us")
        with pytest.raises(NonUnitaryEventError, match="Acquire"):
            compile_unitary(SequenceIR(decl, (ok, acquire, bad)), sys32)
        with pytest.raises(ValueError, match="pulse axis"):
            compile_unitary(SequenceIR(decl, (ok, bad, acquire)), sys32)
        ir = SequenceIR(decl, (ok, Gradient(), bad))
        with pytest.raises(ValueError, match="crusher input must be Hermitian"):
            run_trajectory(ir, sys32, np.triu(np.ones((4, 4))))
        with pytest.raises(ValueError, match="pulse axis"):
            run_trajectory(ir, sys32, equilibrium_state(sys32))


class TestRunTrajectory:
    def test_identity_script_preserves_state(self, sys32):
        ir = parse_sequence("system I=3/2 splitting=16kHz\n")
        rho0 = equilibrium_state(sys32)
        result = run_trajectory(ir, sys32, rho0)
        assert matrices_close(result.states[-1], rho0)
        assert result.fid is None

    def test_pseudopure_script_matches_library(self, sys32):
        result = run_trajectory(load("pseudopure.qseq"), sys32,
                                equilibrium_state(sys32))
        assert matrices_close(result.states[-1], pseudopure_00(sys32), atol=1e-12)

    def test_identity_oracle_script_spectrum_same_signs(self, sys32):
        result = run_trajectory(load("dj-f1.qseq"), sys32, equilibrium_state(sys32))
        assert result.fid is not None
        spec = spectrum(result.fid, sys32)
        signs = {p.sign for p in spec.peaks}
        assert len(signs) == 1

    def test_states_recorded_per_event(self, sys32):
        ir = load("pseudopure.qseq")
        result = run_trajectory(ir, sys32, equilibrium_state(sys32))
        assert len(result.states) == len(ir.events) + 1

    def test_relaxation_during_quad_delay(self, sys32):
        params = RelaxationParams()
        ir = parse_sequence("system I=3/2 splitting=16kHz\ndelay quad 4ms\n")
        rho0 = equilibrium_state(sys32).astype(complex)
        rho0[0, 1] = rho0[1, 0] = 0.5
        out = run_trajectory(ir, sys32, rho0, relax=params).states[-1]
        # outer coherence decays by e^{-tau/T2outer} on top of its phase turn
        assert abs(out[0, 1]) == pytest.approx(0.5 * np.exp(-1.0), rel=1e-9)

    def test_no_relaxation_matches_pure_unitary(self, sys32):
        ir = load("u3-quad.qseq")
        rho0 = pseudopure_00(sys32)
        via_trajectory = run_trajectory(ir, sys32, rho0).states[-1]
        u = compile_unitary(ir, sys32)
        assert matrices_close(via_trajectory, u @ rho0 @ u.conj().T, atol=1e-12)

    def test_refocus_with_relaxation_preserves_trace(self, sys32):
        ir = parse_sequence("system I=3/2 splitting=16kHz\nrefocus 1ms\n")
        rho0 = pseudopure_00(sys32)
        out = run_trajectory(ir, sys32, rho0, relax=RelaxationParams()).states[-1]
        assert np.trace(out).real == pytest.approx(0.0, abs=1e-12)
        assert matrices_close(out, out.conj().T, atol=1e-12)

    @pytest.mark.parametrize("tau_text, tau_s", [("1ms", 1e-3), ("0us", 0.0)])
    def test_relaxed_refocus_is_half_relax_pi_half_relax(self, tau_text, tau_s):
        text = f"system I=3/2 splitting=16kHz offset=700Hz\nrefocus {tau_text}\n"
        ir = parse_sequence(text)
        sys = SpinSystem.from_splitting(16_000.0, offset_hz=700.0)
        params = RelaxationParams()
        rho0 = conjugate(pseudopure_00(sys), hard_pulse(sys, "-y", np.pi / 2))
        half = free_evolution(sys, tau_s / 2)
        expected = relaxed(conjugate(rho0, half), tau_s / 2, params, sys)
        expected = conjugate(expected, hard_pulse(sys, "-y", np.pi))
        expected = relaxed(conjugate(expected, half), tau_s / 2, params, sys)
        out = run_trajectory(ir, sys, rho0, relax=params).states[-1]
        assert np.array_equal(out, expected)

    def test_wrong_state_shape_rejected(self, sys32):
        ir = parse_sequence("system I=3/2 splitting=16kHz\n")
        with pytest.raises(ValueError):
            run_trajectory(ir, sys32, np.eye(3))


@pytest.mark.parametrize("name,oracle,phase", [
    ("u2.qseq", "f2", 1j),
    ("u3-zcascade.qseq", "f3", np.exp(-1j * np.pi / 4)),
    ("u3-quad.qseq", "f3", np.exp(-1j * np.pi / 4)),
    ("u4-zcascade.qseq", "f4", np.exp(-1j * np.pi / 4)),
    ("u4-quad.qseq", "f4", np.exp(-1j * np.pi / 4)),
])
def test_bundled_gate_scripts_compile_exactly(name, oracle, phase):
    compiled = compile_unitary(load(name))
    assert matrices_close(compiled, phase * oracle_matrix(oracle), atol=1e-10)


SPINS = st.integers(1, 7).map(lambda two_i: two_i / 2.0)
AXIS_NAMES = ("x", "-x", "y", "-y")
AXES = st.sampled_from(AXIS_NAMES)
# a whole turn, the symbolic angles and anything else
ANGLES = st.one_of(st.sampled_from([2 * np.pi, np.pi, np.pi / 2, -np.pi / 4, 0.0]),
                   st.floats(-10.0, 10.0))
TAUS = st.one_of(st.just(0.0), st.just(SYMBOLIC_CPHASE_DELAY), st.floats(0.0, 1e-3))


@st.composite
def mixed_sequences(draw):
    """A system and up to 40 events of every kind, several per generator,
    with zero-length and symbolic delays and perhaps a final acquisition."""
    sys = SpinSystem(spin=draw(SPINS), offset_hz=draw(st.floats(-5e3, 5e3)),
                     lambda_hz=draw(st.floats(1.0, 5e3)))
    labels = [tr.label for tr in line_table(sys)]
    events = []
    for kind in draw(st.lists(st.sampled_from(
            ["hard", "sel", "shaped", "zpulse", "quad", "refocus", "gradient"]),
            max_size=40)):
        angle = draw(ANGLES)
        if kind == "hard":
            events.append(HardPulse(axis=draw(AXES), angle_rad=angle, angle_text="a"))
        elif kind in ("sel", "shaped"):
            shape = GaussianShape(duration_s=draw(st.floats(1e-7, 1e-3)),
                                  duration_text="d") if kind == "shaped" else None
            events.append(SelPulse(transition=draw(st.sampled_from(labels)),
                                   axis=draw(AXES), angle_rad=angle, angle_text="a",
                                   shape=shape))
        elif kind == "zpulse":
            events.append(ZPulse(transition=draw(st.sampled_from(labels)),
                                 angle_rad=angle, angle_text="a"))
        elif kind == "gradient":
            events.append(Gradient())
        else:
            tau = draw(TAUS)
            symbolic = tau == SYMBOLIC_CPHASE_DELAY
            events.append((QuadDelay if kind == "quad" else Refocus)(
                tau_s=cphase_delay_s(sys) if symbolic else tau,
                tau_text=SYMBOLIC_CPHASE_DELAY if symbolic else "d"))
    if draw(st.booleans()):
        events.append(Acquire(points=256, dwell_s=1e-6, dwell_text="1us"))
    decl = SystemDecl(spin=sys.spin, splitting_hz=sys.splitting_hz,
                      offset_hz=sys.offset_hz)
    return sys, SequenceIR(system_decl=decl, events=tuple(events))


def _one_event_at_a_time(ir, sys, rho, relax):
    """The states and FID of run_trajectory, built event by event."""
    states, fid = [rho], None
    for event in ir.events:
        if isinstance(event, Gradient):
            rho = gradient_crush(rho)
        elif isinstance(event, Acquire):
            fid = synthesize_fid(observable_amplitudes(rho, sys), sys, points=event.points,
                                 dwell_s=event.dwell_s, relax=relax)
        elif relax is not None and isinstance(event, Refocus):
            half = free_evolution(sys, event.tau_s / 2)
            for u, dt in ((half, event.tau_s / 2), (hard_pulse(sys, "-y", np.pi), None),
                          (half, event.tau_s / 2)):
                rho = conjugate(rho, u)
                if dt is not None:
                    rho = relaxed(rho, dt, relax, sys)
        else:
            rho = conjugate(rho, propagator(event, sys))
            dt = event.tau_s if isinstance(event, QuadDelay) else \
                getattr(getattr(event, "shape", None), "duration_s", None)
            if relax is not None and dt is not None:
                rho = relaxed(rho, dt, relax, sys)
        states.append(rho)
    return states, fid


@settings(max_examples=60, deadline=None)
@given(seq=mixed_sequences(), relax=st.sampled_from([None, RelaxationParams()]))
def test_batch_equals_one_event_at_a_time(seq, relax):
    """The batched propagators and decays give the bits of the batch of one."""
    sys, ir = seq
    rho0 = conjugate(equilibrium_state(sys), hard_pulse(sys, "-y", np.pi / 3))
    result = run_trajectory(ir, sys, rho0, relax=relax)
    states, fid = _one_event_at_a_time(ir, sys, rho0, relax)
    assert len(result.states) == len(states)
    for got, expected in zip(result.states, states):
        assert np.array_equal(got, expected)
    assert (result.fid is None) == (fid is None)
    if fid is not None:
        assert np.array_equal(result.fid.samples, fid.samples)
    for a, b in itertools.combinations(result.states, 2):
        assert not np.shares_memory(a, b)
    unitary = []
    for event in ir.events:
        if isinstance(event, (Gradient, Acquire)):
            break
        unitary.append(event)
    total = np.eye(sys.dim, dtype=complex)
    for event in unitary:
        total = propagator(event, sys) @ total
    assert np.array_equal(compile_unitary(SequenceIR(ir.system_decl, tuple(unitary)), sys),
                          total)


@settings(max_examples=60, deadline=None)
@given(seq=mixed_sequences())
def test_walk_has_the_bits_of_the_matmul_walk(seq):
    """run_trajectory's u.dot(rho).dot(u^H), with u^H from the batch, has the
    bits of u @ rho @ u.conj().T on the same propagators u, the walk before
    the fixed-cost cut."""
    sys, ir = seq
    rho = conjugate_reference(equilibrium_state(sys), hard_pulse(sys, "-y", np.pi / 3))
    result = run_trajectory(ir, sys, rho)
    plan, _, _ = _plan(ir.events, sys, None)
    for event, steps, got in zip(ir.events, plan, result.states[1:]):
        if isinstance(event, Gradient):
            rho = gradient_crush(rho)
        elif not isinstance(event, Acquire):
            rho = conjugate_reference(rho, first_propagator(steps))
        assert got.tobytes() == rho.tobytes()


# angles from +-0.0 to +-1e12, tiny and symbolic ones between
_MANY_ANGLES = (0.0, -0.0, 5e-324, -1e-300, 0.5, -np.pi, np.pi / np.sqrt(3), -1e6, 1e12, -1e12)


def _every_pulse(spin: float) -> list:
    """(axis, angle, kind, line) of a hard pulse, and of a selective and a
    gaussian pulse on every line, about every axis at every angle of
    _MANY_ANGLES."""
    kinds = [("hard", 0)] + [(kind, line) for kind in ("sel", "gaussian")
                             for line in range(int(2 * spin))]
    return [(axis, angle, kind, line) for angle in _MANY_ANGLES for axis in AXIS_NAMES
            for kind, line in kinds]


@settings(max_examples=150, deadline=None)
@given(spin=st.integers(1, 15).map(lambda two_i: two_i / 2.0),
       pulses=st.lists(st.tuples(AXES, st.floats(-1e12, 1e12),
                                 st.sampled_from(["hard", "sel", "gaussian"]),
                                 st.integers(0, 14)), min_size=1, max_size=6),
       duration=st.floats(1e-7, 1e-3), offset_hz=st.floats(-5e3, 5e3),
       lambda_hz=st.floats(1.0, 5e3))
@example(spin=1.5, pulses=[("x", 1.0, "gaussian", 1)], duration=1e-4,
         offset_hz=-6.0, lambda_hz=1.0)     # an entry of the H diagonal is exactly 0
@example(spin=7.5, pulses=[("-y", -0.0, "hard", 0)], duration=1e-4,
         offset_hz=0.0, lambda_hz=1.0)
@example(spin=0.5, pulses=[("-x", -1e12, "sel", 0)], duration=1e-4,
         offset_hz=0.0, lambda_hz=1.0)
# many-pulse sequences: every generator of the spin, in one batch
@example(spin=0.5, pulses=_every_pulse(0.5), duration=1e-4, offset_hz=300.0, lambda_hz=1.0)
@example(spin=1.5, pulses=_every_pulse(1.5), duration=3e-5, offset_hz=-500.0,
         lambda_hz=16_000.0 / 6.0)
@example(spin=2.5, pulses=_every_pulse(2.5), duration=1e-3, offset_hz=0.0, lambda_hz=1e3)
@example(spin=7.5, pulses=_every_pulse(7.5), duration=1e-7, offset_hz=4e3, lambda_hz=5e3)
def test_a_one_pulse_sequence_has_the_bytes_of_its_pulse(spin, pulses, duration, offset_hz,
                                                         lambda_hz):
    """_plan builds a lone pulse as a stack of one; compile_unitary of it has the
    bytes of hard_pulse or selective_pulse, which exponentiate one matrix, and
    a gaussian pulse those of the free evolution over its duration times the
    selective pulse. In a sequence of many pulses each step's propagator has
    the bytes of its lone pulse, and of the batch grouped per generator."""
    sys = SpinSystem(spin=spin, offset_hz=offset_hz, lambda_hz=lambda_hz)
    events, wants = [], []
    for axis, angle, kind, line in pulses:
        label = sys._levels.line_labels[line % (sys.dim - 1)]
        if kind == "hard":
            event, want = HardPulse(axis=axis, angle_rad=angle, angle_text="a"), \
                hard_pulse(sys, axis, angle)
        else:
            shape = GaussianShape(duration_s=duration, duration_text="d") \
                if kind == "gaussian" else None
            event = SelPulse(transition=label, axis=axis, angle_rad=angle, angle_text="a",
                             shape=shape)
            want = selective_pulse(sys, label, axis, angle)
            if shape is not None:
                want = expm_diagonal(-1j * duration * sys._h_diag) @ want
        decl = SystemDecl(sys.spin, sys.splitting_hz, sys.offset_hz)
        assert compile_unitary(SequenceIR(decl, (event,)), sys).tobytes() == want.tobytes()
        events.append(event)
        wants.append(want)
    plan, _, _ = _plan(events, sys, None)
    for steps, want, grouped in zip(plan, wants, pulse_stack_reference(events, sys),
                                    strict=True):
        assert first_propagator(steps).tobytes() == want.tobytes() == grouped.tobytes()


@pytest.mark.parametrize("spin", [0.5, 1.5, 7.5])
def test_the_kept_inversion_pair_is_read_only(spin):
    """The hard pi about -y that every refocus block of a level count shares,
    and its adjoint, are kept: neither can be written."""
    sys = SpinSystem(spin=spin)
    u, uh = _inversion(sys.dim)
    assert u.tobytes() == hard_pulse(sys, "-y", np.pi).tobytes()
    assert uh.tobytes() == u.conj().T.tobytes()
    for array in (u, uh):
        with pytest.raises(ValueError, match="read-only"):
            array[..., 0] = 0
