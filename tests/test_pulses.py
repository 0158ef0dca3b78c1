import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadnmr import (ForbiddenTransitionError, SpinSystem, UnknownTransitionError,
                     compile_unitary, expm_hermitian, free_evolution,
                     gate_fidelity_global_phase, gradient_crush, hamiltonian,
                     hard_pulse, is_unitary, matrices_close, quad_evolution,
                     refocus_block, run_trajectory, selective_pulse,
                     selective_z_closed_form, selective_z_pulse, shaped_pulse,
                     transition_table)
from quadnmr import pulses
from quadnmr.seqlang import (GaussianShape, HardPulse, QuadDelay, Refocus, SelPulse,
                             SequenceIR, SystemDecl, ZPulse)
from quadnmr.system import cphase_delay_s

from conftest import HARD_90_MINUS_Y

SQRT3 = np.sqrt(3.0)
PI = np.pi


class TestHardPulse:
    def test_minus_y_90_entrywise(self, sys32):
        assert matrices_close(hard_pulse(sys32, "-y", PI / 2), HARD_90_MINUS_Y,
                              atol=1e-10)

    def test_minus_y_90_on_top_level(self, sys32):
        psi = hard_pulse(sys32, "-y", PI / 2) @ np.array([1, 0, 0, 0], dtype=complex)
        expected = np.array([1, -SQRT3, SQRT3, -1]) / (2 * np.sqrt(2))
        assert matrices_close(psi, expected, atol=1e-10)

    def test_zero_angle_identity(self, sys32):
        assert matrices_close(hard_pulse(sys32, "x", 0.0), np.eye(4))

    def test_square_is_product(self, sys32):
        u = hard_pulse(sys32, "-y", PI / 2)
        assert matrices_close(hard_pulse(sys32, "-y", PI), u @ u, atol=1e-12)

    def test_z_axis_rejected(self, sys32):
        with pytest.raises(ValueError):
            hard_pulse(sys32, "z", PI)

    def test_infinite_angle_rejected(self, sys32):
        with pytest.raises(ValueError):
            hard_pulse(sys32, "x", np.inf)


class TestSelectivePulse:
    def test_work_qubit_flip_composition(self, sys32):
        u2 = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                      dtype=complex)
        prod = selective_pulse(sys32, "00-01", "x", PI / SQRT3) \
            @ selective_pulse(sys32, "10-11", "x", PI / SQRT3)
        assert matrices_close(prod, 1j * u2, atol=1e-12)

    def test_half_cnot_block(self, sys32):
        u = selective_pulse(sys32, "10-11", "-y", PI / SQRT3)
        expected = np.eye(4, dtype=complex)
        expected[2, 2] = expected[3, 3] = 0
        expected[2, 3], expected[3, 2] = 1, -1
        assert matrices_close(u, expected, atol=1e-12)

    def test_outer_nutation_rate(self, sys32):
        theta = 0.613
        u = selective_pulse(sys32, "00-01", "x", theta)
        assert u[0, 0] == pytest.approx(np.cos(SQRT3 * theta / 2))
        assert u[0, 1] == pytest.approx(1j * np.sin(SQRT3 * theta / 2))

    def test_central_angle_is_bloch_angle(self, sys32):
        u = selective_pulse(sys32, "01-11", "y", PI)
        rho = np.diag([0, 2.0, 5.0, 0]).astype(complex)
        swapped = u @ rho @ u.conj().T
        assert matrices_close(swapped, np.diag([0, 5.0, 2.0, 0]), atol=1e-12)

    def test_zero_angle_identity(self, sys32):
        assert matrices_close(selective_pulse(sys32, "01-11", "x", 0.0), np.eye(4))

    def test_identity_outside_block(self, sys32, rng):
        for _ in range(10):
            u = selective_pulse(sys32, "00-01", "x", rng.uniform(-PI, PI))
            for idx in (2, 3):
                basis = np.zeros(4, dtype=complex)
                basis[idx] = 1.0
                assert matrices_close(u @ basis, basis, atol=1e-12)

    def test_forbidden_transition_rejected(self, sys32):
        with pytest.raises(ForbiddenTransitionError):
            selective_pulse(sys32, "00-10", "x", PI)

    def test_own_transition_object_accepted(self, sys32):
        tr = sys32.transition("01-11")
        assert np.array_equal(selective_pulse(sys32, tr, "x", PI),
                              selective_pulse(sys32, "01-11", "x", PI))

    @pytest.mark.parametrize("spin, pair", [(2.5, "001-010"), (0.5, "0-1")])
    def test_foreign_transition_object_rejected(self, sys32, spin, pair):
        foreign = SpinSystem(spin=spin).transition(pair)
        with pytest.raises(UnknownTransitionError):
            selective_pulse(sys32, foreign, "x", PI)
        with pytest.raises(UnknownTransitionError):
            selective_z_closed_form(sys32, foreign, PI)


class TestSelectiveZPulse:
    def test_central_quarter_turn(self, sys32):
        u = selective_z_pulse(sys32, "01-11", PI / 2)
        expected = np.diag([1, np.exp(-1j * PI / 2), np.exp(1j * PI / 2), 1])
        assert matrices_close(u, expected, atol=1e-10)

    def test_cascade_controlled_phase(self, sys32):
        casc = selective_z_pulse(sys32, "00-01", PI / 4) \
            @ selective_z_pulse(sys32, "10-11", PI / 4) \
            @ selective_z_pulse(sys32, "01-11", PI / 2)
        expected = np.exp(-1j * PI / 4) * np.diag([1, 1, -1, 1])
        assert matrices_close(casc, expected, atol=1e-10)

    def test_zero_angle_identity(self, sys32):
        assert matrices_close(selective_z_pulse(sys32, "10-11", 0.0), np.eye(4),
                              atol=1e-12)

    def test_composite_matches_closed_form_100_angles(self, sys32, rng):
        for trans in ("00-01", "01-11", "10-11"):
            for phi in rng.uniform(-2 * PI, 2 * PI, size=100):
                assert matrices_close(selective_z_pulse(sys32, trans, phi),
                                      selective_z_closed_form(sys32, trans, phi),
                                      atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(phi=st.floats(-10, 10),
           trans=st.sampled_from(["00-01", "01-11", "10-11"]))
    def test_composite_matches_closed_form_property(self, phi, trans):
        sys = SpinSystem()
        assert matrices_close(selective_z_pulse(sys, trans, phi),
                              selective_z_closed_form(sys, trans, phi), atol=1e-10)

    def test_forbidden_rejected(self, sys32):
        with pytest.raises(ForbiddenTransitionError):
            selective_z_pulse(sys32, "00-10", PI)


class TestShapedPulse:
    def test_short_duration_approaches_ideal(self, sys32):
        ideal = selective_pulse(sys32, "10-11", "-y", PI / SQRT3)
        u = shaped_pulse(sys32, "10-11", "-y", PI / SQRT3, 1e-7, 64)
        assert gate_fidelity_global_phase(ideal, u) >= 0.999

    def test_zero_amplitude_is_free_evolution(self, sys32):
        duration = 37e-6
        u = shaped_pulse(sys32, "10-11", "x", 0.0, duration, 128)
        assert matrices_close(u, quad_evolution(sys32, duration), atol=1e-10)

    def test_full_phase_period_matches_ideal(self, sys32):
        duration = 1.0 / (3.0 * sys32.lambda_hz)
        ideal = selective_pulse(sys32, "10-11", "-y", PI / SQRT3)
        u = shaped_pulse(sys32, "10-11", "-y", PI / SQRT3, duration, 512)
        assert gate_fidelity_global_phase(ideal, u) >= 0.99

    def test_quarter_period_ruins_fidelity(self, sys32):
        duration = 1.25 / (3.0 * sys32.lambda_hz)
        ideal = selective_pulse(sys32, "10-11", "-y", PI / SQRT3)
        u = shaped_pulse(sys32, "10-11", "-y", PI / SQRT3, duration, 512)
        assert gate_fidelity_global_phase(ideal, u) < 0.5

    def test_slice_doubling_converged(self, sys32):
        duration = 1.0 / (3.0 * sys32.lambda_hz)
        u1 = shaped_pulse(sys32, "00-01", "x", PI / SQRT3, duration, 1024)
        u2 = shaped_pulse(sys32, "00-01", "x", PI / SQRT3, duration, 2048)
        assert np.max(np.abs(u1 - u2)) < 1e-6

    def test_negative_angle_flips_axis(self, sys32):
        duration = 1.0 / (3.0 * sys32.lambda_hz)
        a = shaped_pulse(sys32, "01-11", "x", -PI / 2, duration, 128)
        b = shaped_pulse(sys32, "01-11", "-x", PI / 2, duration, 128)
        assert matrices_close(a, b, atol=1e-12)

    def test_bad_arguments(self, sys32):
        with pytest.raises(ValueError):
            shaped_pulse(sys32, "01-11", "x", PI, 0.0, 128)
        with pytest.raises(ValueError):
            shaped_pulse(sys32, "01-11", "x", PI, 1e-4, 32)


AXIS_SIGN = {"x": 1.0, "-x": -1.0, "y": -1.0, "-y": 1.0}


def _explicit_generator(sys, axis, tr=None):
    """Pulse generator built in full: Ix or Iy, or for a transition only its
    two off-diagonal elements, halved for a unit Ix element."""
    full = sys.operators.ix if axis in ("x", "-x") else sys.operators.iy
    if tr is None:
        return full
    gen = np.zeros((sys.dim, sys.dim), dtype=complex)
    for a in (tr.upper_index, tr.lower_index):
        for b in (tr.upper_index, tr.lower_index):
            gen[a, b] = full[a, b]
    if abs(tr.ix_element - 1.0) < 1e-12:
        gen = gen / 2.0
    return gen


def _slice_product(sys, transition, axis, angle, duration, n_slices):
    """Reference slice integrator of the gaussian pulse, uncalibrated.

    Midpoint-sampled unit-area gaussian truncated at +-3 sigma; each slice is
    a free half-step, a kick with the drive rotated to the slice midpoint so
    it stays resonant with its block, and a second free half-step.
    """
    gen = _explicit_generator(sys, axis, sys.transition(transition))
    sign = AXIS_SIGN[axis]
    h0 = np.diag(hamiltonian(sys)).real
    dt = duration / n_slices
    t = (np.arange(n_slices) + 0.5) * dt
    w = np.exp(-0.5 * ((t - duration / 2.0) / (duration / 6.0)) ** 2)
    w = w / (np.sum(w) * dt)
    half = np.exp(-1j * h0 * dt / 2.0)
    u = np.eye(sys.dim, dtype=complex)
    for t_k, w_k in zip(t, w):
        phase = np.exp(-1j * h0 * t_k)
        kick = expm_hermitian((phase[:, None] * gen) * phase.conj()[None, :],
                              sign * angle * w_k * dt)
        u = ((half[:, None] * kick) * half[None, :]) @ u
    return u


class TestShapedPulseClosedForm:
    @pytest.mark.parametrize("transition", ["00-01", "01-11", "11-10"])
    @pytest.mark.parametrize("offset_hz", [0.0, 1234.5])
    @pytest.mark.parametrize("angle", [PI / SQRT3, -PI / 2])
    def test_equals_slice_product(self, transition, offset_hz, angle):
        sys = SpinSystem.from_splitting(16_000.0, offset_hz=offset_hz)
        duration = 1.1 / (3.0 * sys.lambda_hz)
        for axis in ("x", "-y"):
            reference = _slice_product(sys, transition, axis, angle, duration, 128)
            u = shaped_pulse(sys, transition, axis, angle, duration, 128)
            assert np.max(np.abs(u - reference)) < 1e-12

    @pytest.mark.parametrize("transition, angle", [("00-01", PI),
                                                   ("01-11", 1.5 * PI),
                                                   ("11-10", -PI)])
    def test_angles_beyond_the_old_calibration_bracket(self, sys32, transition, angle):
        duration = 1.0 / (3.0 * sys32.lambda_hz)
        expected = (free_evolution(sys32, duration)
                    @ selective_pulse(sys32, transition, "x", angle))
        u = shaped_pulse(sys32, transition, "x", angle, duration)
        assert matrices_close(u, expected, atol=1e-15)
        assert is_unitary(u, atol=1e-12)

    def test_bad_axis_and_angle(self, sys32):
        with pytest.raises(ValueError):
            shaped_pulse(sys32, "01-11", "z", PI, 1e-4)
        with pytest.raises(ValueError):
            shaped_pulse(sys32, "01-11", "x", float("nan"), 1e-4)
        with pytest.raises(ForbiddenTransitionError):
            shaped_pulse(sys32, "00-10", "x", PI, 1e-4)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, sys32, duration):
        with pytest.raises(ValueError, match="finite"):
            shaped_pulse(sys32, "01-11", "x", PI, duration)


class TestRefocusBlock:
    def test_offset_independent(self):
        tau = 43e-6
        references = []
        for offset in (0.0, 100.0, 5000.0):
            sys = SpinSystem.from_splitting(16_000.0, offset_hz=offset)
            references.append(refocus_block(sys, tau))
        assert matrices_close(references[0], references[1], atol=1e-9)
        assert matrices_close(references[0], references[2], atol=1e-9)

    @pytest.mark.parametrize("offset_hz", [0.0, 700.0])
    def test_is_half_pi_half(self, offset_hz):
        sys = SpinSystem.from_splitting(16_000.0, offset_hz=offset_hz)
        tau = 43e-6
        half = free_evolution(sys, tau / 2)
        assert np.array_equal(refocus_block(sys, tau),
                              half @ hard_pulse(sys, "-y", PI) @ half)

    def test_zero_delay_is_hard_pi(self, sys32):
        assert matrices_close(refocus_block(sys32, 0.0),
                              hard_pulse(sys32, "-y", PI), atol=1e-12)

    def test_equals_pi_times_quad_evolution(self, sys32):
        tau = cphase_delay_s(sys32)
        expected = hard_pulse(sys32, "-y", PI) @ quad_evolution(sys32, tau)
        assert matrices_close(refocus_block(sys32, tau), expected, atol=1e-10)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -1e-6])
    def test_non_finite_or_negative_delay_rejected(self, sys32, tau):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            refocus_block(sys32, tau)


class TestGradientCrush:
    def test_kills_coherences_keeps_populations(self):
        p_i, p_j = 0.9, 0.1
        rho = np.array([[(p_i + p_j) / 2, (p_j - p_i) / 2],
                        [(p_j - p_i) / 2, (p_i + p_j) / 2]], dtype=complex)
        out = gradient_crush(rho)
        assert matrices_close(out, np.diag([(p_i + p_j) / 2] * 2), atol=1e-14)

    def test_diagonal_unchanged(self):
        rho = np.diag([1.5, -0.5, -0.5, -0.5]).astype(complex)
        assert matrices_close(gradient_crush(rho), rho)

    def test_trace_preserved_and_idempotent(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = (a + a.conj().T) / 2
        out = gradient_crush(rho)
        assert np.trace(out) == pytest.approx(np.trace(rho).real)
        assert matrices_close(gradient_crush(out), out)


@settings(max_examples=60, deadline=None)
@given(axis=st.sampled_from(["x", "-x", "y", "-y"]), angle=st.floats(-10, 10),
       trans=st.sampled_from([None, "00-01", "01-11", "10-11"]))
def test_every_pulse_is_unitary(axis, angle, trans):
    sys = SpinSystem()
    if trans is None:
        u = hard_pulse(sys, axis, angle)
    else:
        u = selective_pulse(sys, trans, axis, angle)
    assert is_unitary(u, atol=1e-9)


@settings(max_examples=150, deadline=None)
@given(spin=st.integers(1, 7).map(lambda two_i: two_i / 2.0),
       axis=st.sampled_from(["x", "-x", "y", "-y"]),
       angle=st.one_of(st.sampled_from([0.0, -0.0, -PI, 1e12, -1e12]),
                       st.floats(-1e12, 1e12)))
def test_pulses_equal_expm_of_explicit_generator(spin, axis, angle):
    """The cached eigendecompositions give exactly expm_hermitian's result."""
    sys = SpinSystem(spin=spin)
    scale = AXIS_SIGN[axis] * angle
    assert np.array_equal(hard_pulse(sys, axis, angle),
                          expm_hermitian(_explicit_generator(sys, axis), scale))
    for tr in transition_table(sys):
        assert np.array_equal(selective_pulse(sys, tr.label, axis, angle),
                              expm_hermitian(_explicit_generator(sys, axis, tr), scale))


def _generated_sequence(sys, n_events, rng):
    """Random unitary events on every observable transition of sys."""
    labels = [tr.label for tr in transition_table(sys)]
    axes = ["x", "-x", "y", "-y"]
    events = []
    for _ in range(n_events):
        kind, angle = rng.integers(6), float(rng.uniform(-10.0, 10.0))
        label, axis = labels[rng.integers(len(labels))], axes[rng.integers(4)]
        if kind == 0:
            events.append(HardPulse(axis=axis, angle_rad=angle, angle_text="a"))
        elif kind in (1, 2):
            shape = GaussianShape(duration_s=1e-4, duration_text="d") if kind == 2 else None
            events.append(SelPulse(transition=label, axis=axis, angle_rad=angle,
                                   angle_text="a", shape=shape))
        elif kind == 3:
            events.append(ZPulse(transition=label, angle_rad=angle, angle_text="a"))
        else:
            event_type = QuadDelay if kind == 4 else Refocus
            events.append(event_type(tau_s=float(rng.uniform(0.0, 1e-4)), tau_text="d"))
    decl = SystemDecl(spin=sys.spin, splitting_hz=sys.splitting_hz,
                      offset_hz=sys.offset_hz)
    return SequenceIR(system_decl=decl, events=tuple(events))


class TestGeneratorCache:
    def test_cached_factors_are_read_only(self, sys32):
        hard_pulse(sys32, "x", 1.0)
        selective_pulse(sys32, "01-11", "y", 1.0)
        for key in [(4, True, None), (4, False, (1, 2))]:
            for factor in pulses._generator_factors(*key):
                assert not factor.flags.writeable
                with pytest.raises(ValueError):
                    factor[0] = 0

    @pytest.mark.parametrize("pulse", [
        lambda sys: hard_pulse(sys, "-y", 0.3),
        lambda sys: selective_pulse(sys, "00-01", "x", 0.3),
    ])
    def test_each_call_returns_a_fresh_writable_array(self, sys32, pulse):
        first, second = pulse(sys32), pulse(sys32)
        assert not np.shares_memory(first, second)
        assert first.flags.writeable and second.flags.writeable
        expected = second.copy()
        first[:] = 0
        second[:] = 0
        assert np.array_equal(pulse(sys32), expected)

    def test_eigh_runs_once_per_generator(self, monkeypatch):
        sys = SpinSystem.from_splitting(16_000.0, offset_hz=700.0, spin=3.5)
        ir = _generated_sequence(sys, 200, np.random.default_rng(7))
        pulses._generator_factors.cache_clear()
        real_eigh, calls = np.linalg.eigh, []

        def counting_eigh(matrix):
            calls.append(matrix)
            return real_eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        compile_unitary(ir, sys)
        run_trajectory(ir, sys, np.diag(np.diag(sys.operators.iz)))
        assert 0 < len(calls) <= 2 + 2 * (sys.dim - 1)
