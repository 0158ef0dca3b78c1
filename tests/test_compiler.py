import numpy as np
import pytest

from quadnmr import (NonUnitaryEventError, RelaxationParams, SpinSystem,
                     apply_relaxation, compile_unitary, conjugate, equilibrium_state,
                     free_evolution, hard_pulse, matrices_close, oracle_matrix,
                     parse_sequence, pseudopure_00, run_trajectory, spectrum)
from quadnmr.compiler import event_propagator

from conftest import SEQUENCES_DIR


def load(name):
    return parse_sequence((SEQUENCES_DIR / name).read_text())


class TestCompileUnitary:
    def test_empty_script_compiles_to_identity(self):
        ir = parse_sequence("system I=3/2 splitting=16kHz\n")
        assert matrices_close(compile_unitary(ir), np.eye(4))

    def test_quad_evolution_script_hits_target_phase(self):
        compiled = compile_unitary(load("u3-quad.qseq"))
        target = np.exp(-1j * np.pi / 4) * oracle_matrix("f3")
        assert matrices_close(compiled, target, atol=1e-10)

    def test_work_flip_script_phase(self):
        compiled = compile_unitary(load("u2.qseq"))
        assert matrices_close(compiled, 1j * oracle_matrix("f2"), atol=1e-10)

    def test_compositionality(self):
        from quadnmr.seqlang import SequenceIR
        ir = load("u3-zcascade.qseq")
        total = np.eye(4, dtype=complex)
        for event in ir.events:
            single = SequenceIR(system_decl=ir.system_decl, events=(event,))
            total = compile_unitary(single) @ total
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
        step1 = event_propagator(ir_a.events[0], sys) @ psi0
        step2 = event_propagator(ir_a.events[1], sys) @ step1
        assert matrices_close(u_a @ psi0, step2, atol=1e-12)

    def test_gradient_rejected_in_unitary_path(self):
        ir = load("pseudopure.qseq")
        with pytest.raises(NonUnitaryEventError, match="run_trajectory"):
            compile_unitary(ir)

    def test_acquire_rejected_in_unitary_path(self):
        ir = load("dj-f1.qseq")
        with pytest.raises(NonUnitaryEventError):
            compile_unitary(ir)


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
        expected = apply_relaxation(conjugate(rho0, half), tau_s / 2, params, sys)
        expected = conjugate(expected, hard_pulse(sys, "-y", np.pi))
        expected = apply_relaxation(conjugate(expected, half), tau_s / 2, params, sys)
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
