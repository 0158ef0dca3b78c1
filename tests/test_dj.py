import fnmatch
import tracemalloc
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadnmr import (AmbiguousReadoutError, RelaxationParams, acquire,
                     classify_peaks, compile_unitary, conjugate,
                     gate_fidelity_global_phase, hard_pulse, oracle_class,
                     oracle_matrix, oracle_sequence, pseudopure_00, run_dj)
from quadnmr import SpinSystem, cphase_delay_s, format_sequence
from quadnmr.dj import (METHODS, ORACLE_IDS, ORACLE_PHASES, SEQUENCE_METHODS,
                        UnresolvedLinesError)
from quadnmr import compiler, dj
from quadnmr.dj import _KEPT_STATES, _ORACLE_FILES, _ideal_state, _oracle_state
from quadnmr.readout import Peak
from quadnmr.seqlang import QuadDelay

from helpers import (clear_kept_states, global_phase, ideal_state_after_oracle,
                     matrices_close, oracle_matrix_reference, oracle_sequence_reference)

SQRT3 = np.sqrt(3.0)
INV_2SQRT2 = 1.0 / (2.0 * np.sqrt(2.0))

# post-oracle wavefunctions in the (00, 01, 11, 10) basis
IDEAL_STATES = {
    "f1": np.array([1, -SQRT3, SQRT3, -1]) * INV_2SQRT2,
    "f2": np.array([-SQRT3, 1, -1, SQRT3]) * INV_2SQRT2,
    "f3": np.array([1, -SQRT3, -1, SQRT3]) * INV_2SQRT2,
    "f4": np.array([-SQRT3, 1, SQRT3, -1]) * INV_2SQRT2,
}


class TestOracleMatrices:
    def test_identity_oracle(self):
        assert matrices_close(oracle_matrix("f1"), np.eye(4))

    def test_lower_cnot_swaps_bottom_block(self):
        u3 = oracle_matrix("f3")
        assert matrices_close(u3[:2, :2], np.eye(2))
        assert matrices_close(u3[2:, 2:], np.array([[0, 1], [1, 0]]))

    @pytest.mark.parametrize("oracle_id", ORACLE_IDS)
    def test_all_are_permutations(self, oracle_id):
        u = oracle_matrix(oracle_id)
        assert np.array_equal(np.abs(u) ** 2, np.abs(u))     # 0/1 entries
        assert matrices_close(u @ u.conj().T, np.eye(4))

    @pytest.mark.parametrize("oracle_id", ORACLE_IDS)
    def test_bytes_equal_the_swap_product_and_are_fresh(self, oracle_id):
        u, again = oracle_matrix(oracle_id), oracle_matrix(oracle_id)
        assert u.tobytes() == oracle_matrix_reference(oracle_id).tobytes()
        assert u.dtype == complex and u.shape == (4, 4) and u.flags.writeable
        assert not np.shares_memory(u, again)

    def test_classes(self):
        assert oracle_class("f1") == oracle_class("f2") == "constant"
        assert oracle_class("f3") == oracle_class("f4") == "balanced"
        with pytest.raises(ValueError):
            oracle_class("f9")


class TestOracleSequences:
    @pytest.mark.parametrize("oracle_id", ORACLE_IDS)
    @pytest.mark.parametrize("method", SEQUENCE_METHODS)
    def test_compiles_to_target_with_asserted_phase(self, sys32, oracle_id, method):
        ir = oracle_sequence(oracle_id, method, sys32)
        compiled = compile_unitary(ir, sys32)
        target = oracle_matrix(oracle_id)
        assert gate_fidelity_global_phase(target, compiled) >= 1 - 1e-9
        assert global_phase(target, compiled) == pytest.approx(
            ORACLE_PHASES[oracle_id], abs=1e-9)
        assert matrices_close(compiled, ORACLE_PHASES[oracle_id] * target, atol=1e-9)

    def test_identity_oracle_needs_no_pulse(self, sys32):
        for method in SEQUENCE_METHODS:
            ir = oracle_sequence("f1", method, sys32)
            assert ir.events == ()
            assert matrices_close(compile_unitary(ir, sys32), np.eye(4))

    def test_work_flip_is_method_independent(self, sys32):
        a = oracle_sequence("f2", "selective-z", sys32)
        b = oracle_sequence("f2", "quad-evolution", sys32)
        assert a.events == b.events

    def test_lower_cnot_zcascade_matches_product_oracle(self, sys32):
        """Multiply literal factor matrices by hand and compare."""
        half_cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                              [0, 0, 0, 1], [0, 0, -1, 0]], dtype=complex)
        cascade = (np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4), 1, 1])
                   @ np.diag([1, 1, np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
                   @ np.diag([1, np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2), 1]))
        expected = half_cnot @ cascade
        ir = oracle_sequence("f3", "selective-z", sys32)
        assert matrices_close(compile_unitary(ir, sys32), expected, atol=1e-12)

    def test_bad_method_rejected(self, sys32):
        with pytest.raises(ValueError):
            oracle_sequence("f3", "telepathy", sys32)

    @pytest.mark.parametrize("oracle_id", ["f3", "f4"])
    def test_quad_delay_resolved_for_caller_system(self, oracle_id):
        sys = SpinSystem.from_splitting(12_000.0, offset_hz=300.0)
        delays = [e for e in oracle_sequence(oracle_id, "quad-evolution", sys).events
                  if isinstance(e, QuadDelay)]
        assert [e.tau_s for e in delays] == [cphase_delay_s(sys)]

    def test_oracle_files_ship_as_package_data(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        globs = tomllib.loads(pyproject.read_text())[
            "tool"]["setuptools"]["package-data"]["quadnmr"]
        bundled = files("quadnmr") / "sequences"
        for name in set(_ORACLE_FILES.values()):
            assert (bundled / name).is_file(), name
            assert any(fnmatch.fnmatch(f"sequences/{name}", g) for g in globs), name


class TestIdealStates:
    def test_superposition_state(self, sys32):
        psi = hard_pulse(sys32, "-y", np.pi / 2)[:, 0]   # the hard 90 about -y of |00>
        assert matrices_close(psi, IDEAL_STATES["f1"], atol=1e-12)

    @pytest.mark.parametrize("oracle_id", ORACLE_IDS)
    def test_wavefunctions(self, oracle_id):
        psi = ideal_state_after_oracle(oracle_id)
        assert matrices_close(psi, IDEAL_STATES[oracle_id], atol=1e-12)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_density_sign_pattern(self):
        """Adjacent coherences: outer pair negative for every oracle, the
        central one negative for the constant pair, positive for the balanced."""
        for oracle_id in ORACLE_IDS:
            psi = ideal_state_after_oracle(oracle_id)
            sigma = 8.0 * np.outer(psi, psi.conj())
            assert sigma[0, 1].real < 0 and sigma[2, 3].real < 0
            central = sigma[1, 2].real
            assert (central < 0) == (oracle_class(oracle_id) == "constant")

    def test_lower_cnot_density_far_coherences(self):
        # frozen from the outer product of the f3 wavefunction: the two
        # double-quantum entries are -3 and -1 in the x8 normalization
        psi = ideal_state_after_oracle("f3")
        sigma = 8.0 * np.outer(psi, psi.conj())
        assert sigma[1, 3].real == pytest.approx(-3.0, abs=1e-12)
        assert sigma[0, 2].real == pytest.approx(-1.0, abs=1e-12)


class TestSimulatedPostOracleStates:
    @pytest.mark.parametrize("oracle_id", ORACLE_IDS)
    def test_traceless_parts_match_pure_state_pattern(self, sys32, oracle_id):
        rho = pseudopure_00(sys32)
        rho = conjugate(rho, hard_pulse(sys32, "-y", np.pi / 2))
        rho = conjugate(rho, oracle_matrix(oracle_id))
        psi = ideal_state_after_oracle(oracle_id)
        pure = np.outer(psi, psi.conj())
        # deviation state = 2 * (pure - 1/4): compare traceless parts
        expected = 2.0 * (pure - np.trace(pure) * np.eye(4) / 4.0)
        traceless = rho - np.trace(rho) * np.eye(4) / 4.0
        assert matrices_close(traceless, expected, atol=1e-10)


class TestClassifier:
    def _peaks(self, a, b, c):
        return [Peak("00-01", 16e3, a, int(np.sign(a)) or 1),
                Peak("01-11", 0.0, b, int(np.sign(b)) or 1),
                Peak("11-10", -16e3, c, int(np.sign(c)) or 1)]

    def test_same_signs_constant(self):
        assert classify_peaks(self._peaks(-1.0, -2.0, -1.0)) == "constant"

    def test_central_flip_balanced(self):
        assert classify_peaks(self._peaks(-1.0, 2.0, -1.0)) == "balanced"

    def test_scale_invariance(self):
        for scale in (1e-6, 1.0, 1e6):
            assert classify_peaks(self._peaks(-scale, 2 * scale, -scale)) == "balanced"

    def test_degenerate_peak_raises(self):
        with pytest.raises(AmbiguousReadoutError):
            classify_peaks(self._peaks(-1.0, 1e-9, -1.0))

    def test_disagreeing_outer_peaks_raise(self):
        with pytest.raises(AmbiguousReadoutError):
            classify_peaks(self._peaks(-1.0, 1.0, 1.0))

    @settings(max_examples=500, deadline=None)
    @given(integrals=st.tuples(*3 * [st.floats(allow_nan=False, allow_infinity=False)]))
    @example(integrals=(5e-324, -5e-324, 5e-324))   # the floor underflows to 0
    @example(integrals=(-1.0, 1e-6, -1.0))          # a line exactly at the floor
    @example(integrals=(-1.0, 9.999999999999999e-7, -1.0))
    def test_equals_the_numpy_reference_on_every_finite_triple(self, integrals):
        try:
            got = classify_peaks(self._peaks(*integrals))
        except AmbiguousReadoutError as exc:
            got = str(exc)
        # the reference: the numpy body classify_peaks had, its errors as messages
        integrals = np.array(integrals)
        floor = 1e-6 * np.max(np.abs(integrals))
        outer_a, central, outer_b = np.sign(integrals)
        if floor == 0 or np.any(np.abs(integrals) < floor):
            expected = "degenerate readout: a peak integral is below the noise floor"
        elif outer_a != outer_b:
            expected = "outer peaks disagree in sign"
        else:
            expected = "constant" if central == outer_a else "balanced"
        assert got == expected


class TestRunDJ:
    @pytest.mark.parametrize("oracle_id", ORACLE_IDS)
    @pytest.mark.parametrize("method", ("ideal-matrix",) + SEQUENCE_METHODS)
    def test_ideal_runs_classify_correctly(self, sys32, oracle_id, method):
        outcome = run_dj(oracle_id, sys32, method=method)
        assert outcome.classification == oracle_class(oracle_id)

    def test_methods_agree(self, sys32):
        outcomes = [run_dj("f4", sys32, method=m).classification
                    for m in ("ideal-matrix", "selective-z", "quad-evolution")]
        assert set(outcomes) == {"balanced"}

    def test_relaxation_keeps_classification(self, sys32):
        relax = RelaxationParams()
        for oracle_id in ORACLE_IDS:
            outcome = run_dj(oracle_id, sys32, method="quad-evolution", relax=relax)
            assert outcome.classification == oracle_class(oracle_id)

    def test_relaxation_reduces_outer_peaks(self, sys32):
        for method in ("ideal-matrix", "quad-evolution"):
            ideal = run_dj("f3", sys32, method=method)
            relaxed = run_dj("f3", sys32, method=method, relax=RelaxationParams())
            for k in (0, 2):
                assert abs(relaxed.peak_signs[k]) < abs(ideal.peak_signs[k])

    def test_shaped_pulse_run(self, sys32):
        outcome = run_dj("f3", sys32, method="quad-evolution", shaped_pulses=True)
        assert outcome.classification == "balanced"

    def test_classification_independent_of_state_scale(self, sys32):
        base = run_dj("f2", sys32, method="selective-z")
        rho = conjugate(pseudopure_00(sys32), hard_pulse(sys32, "-y", np.pi / 2))
        rho = conjugate(rho, oracle_matrix("f2"))
        _, spec = acquire(17.0 * rho, sys32)
        assert classify_peaks(spec.peaks) == base.classification

    def test_invalid_inputs(self, sys32):
        with pytest.raises(ValueError):
            run_dj("f9", sys32)
        with pytest.raises(ValueError):
            run_dj("f1", sys32, method="astral")


# Each configuration printed the wrong class with exit 0 before the
# resolvability check: lines so close that their tails set a window's sign.
@pytest.mark.parametrize("oracle_id, method, relax, splitting, offset, lb, dwell, points", [
    ("f3", "ideal-matrix", False, 20.2866, 1071.47, 33.4356, 1.04788e-4, 512),
    ("f3", "selective-z", True, 13.5, 0.0, 4.5, 8.2e-3, 16384)])
def test_unresolved_lines_are_refused(oracle_id, method, relax, splitting, offset, lb,
                                      dwell, points):
    sys = SpinSystem.from_splitting(splitting, offset)
    with pytest.raises(UnresolvedLinesError):
        run_dj(oracle_id, sys, method=method, relax=RelaxationParams() if relax else None,
               points=points, dwell_s=dwell, lb_hz=lb)


def test_broad_resolved_lines_read_the_right_class():
    # lines 27% to 47% of the spectral width wide, which a flat offset of half
    # the first FID sample in every bin would read as constant
    sys = SpinSystem.from_splitting(92.5, 0.0)
    outcome = run_dj("f4", sys, method="ideal-matrix", relax=RelaxationParams(),
                     points=2048, dwell_s=3.45e-3, lb_hz=56.4)
    assert outcome.classification == "balanced"


@settings(max_examples=150, deadline=None)
@given(ratio=st.one_of(st.just(0.0), st.just(1e-300), st.floats(0.0, 4.0)),
       offset=st.one_of(st.just(0.0), st.floats(-3e3, 3e3)),
       lb=st.floats(0.5, 4.0).map(lambda e: 10.0 ** e),
       width_dwell=st.floats(-4.0, -0.5).map(lambda e: 10.0 ** e),
       points=st.integers(6, 14).map(lambda k: 2 ** k),
       oracle_id=st.sampled_from(ORACLE_IDS), method=st.sampled_from(METHODS),
       relaxed=st.booleans())
# a near-zero splitting makes the quadrupolar delay ~1e307 s, whose relaxation overflowed
@example(ratio=2.225073858507203e-309, offset=0.0, lb=10.0, width_dwell=0.1, points=64,
         oracle_id="f3", method="quad-evolution", relaxed=True)
def test_run_dj_is_right_or_refuses(ratio, offset, lb, width_dwell, points, oracle_id,
                                    method, relaxed):
    # ratio is splitting / lb; the dwell spans line widths from 1e-4 to 0.3
    # of the spectral width, where a first-point offset would flip broad lines
    sys = SpinSystem.from_splitting(ratio * lb, offset)
    try:
        outcome = run_dj(oracle_id, sys, method=method,
                         relax=RelaxationParams() if relaxed else None,
                         points=points, dwell_s=width_dwell / lb, lb_hz=lb)
    except (ValueError, AmbiguousReadoutError):
        return
    assert outcome.classification == oracle_class(oracle_id)


@settings(max_examples=150, deadline=None)
@given(splitting=st.floats(3.0, 4.6).map(lambda e: 10.0 ** e), offset=st.floats(-5e3, 5e3),
       lb=st.floats(1.0, 3.0).map(lambda e: 10.0 ** e), nyquist_share=st.floats(0.2, 0.95),
       points=st.integers(6, 14).map(lambda k: 2 ** k),
       oracle_id=st.sampled_from(ORACLE_IDS), method=st.sampled_from(SEQUENCE_METHODS))
# quadnmr dj --oracle f2 --shaped-pulses --offset 3500
@example(splitting=16_000.0, offset=3500.0, lb=200.0, nyquist_share=0.195, points=4096,
         oracle_id="f2", method="quad-evolution")
def test_shaped_run_dj_is_right_or_refuses(splitting, offset, lb, nyquist_share, points,
                                           oracle_id, method):
    # the dwell puts the highest line at nyquist_share of the Nyquist frequency;
    # before frame tracking, the offset phase between the soft pulses turned the
    # second pulse's axis, and f2 read balanced with exit 0
    dwell_s = nyquist_share / (2.0 * (abs(offset) + splitting))
    try:
        outcome = run_dj(oracle_id, SpinSystem.from_splitting(splitting, offset), method=method,
                         shaped_pulses=True, points=points, dwell_s=dwell_s, lb_hz=lb)
    except (ValueError, AmbiguousReadoutError):
        return
    assert outcome.classification == oracle_class(oracle_id)


@pytest.mark.parametrize("oracle_id", ORACLE_IDS)
@pytest.mark.parametrize("method", SEQUENCE_METHODS)
@pytest.mark.parametrize("relax", [None, RelaxationParams()])
def test_shaped_oracle_runs_in_the_frame_of_the_offset(oracle_id, method, relax):
    # off resonance the shaped oracle acts on the state as on resonance: the
    # pulses' frame follows the offset, and only the readout sees it
    on, off = (run_dj(oracle_id, SpinSystem.from_splitting(16_000.0, offset), method=method,
                      relax=relax, shaped_pulses=True) for offset in (0.0, -1500.0))
    assert off.rho_final.tobytes() == on.rho_final.tobytes()
    assert off.classification == on.classification == oracle_class(oracle_id)


class TestRewritesKeepTheirBits:
    """dj functions against their bodies before the fixed-cost cut."""

    @pytest.mark.parametrize("sys", [SpinSystem(), SpinSystem.from_splitting(8000.0, -1500.0),
                                     SpinSystem(lambda_hz=0.0), SpinSystem(lambda_hz=-1.0),
                                     SpinSystem(spin=2.5, lambda_hz=1e-300)])
    @pytest.mark.parametrize("oracle_id", ORACLE_IDS)
    @pytest.mark.parametrize("method", SEQUENCE_METHODS)
    def test_oracle_sequence_equals_the_reference(self, sys, oracle_id, method):
        def outcome(build):
            try:
                ir = build(oracle_id, method, sys)
            except ValueError as err:
                return str(err)
            return ir, [(type(e), vars(e)) for e in ir.events], vars(ir.system_decl), \
                format_sequence(ir)
        assert outcome(oracle_sequence) == outcome(oracle_sequence_reference)


# couplings of 12 and 16 kHz splittings written as floats, ints and numpy scalars
COUPLINGS = [2000.0, 2000, np.int64(2000), np.float32(2000.0), 16_000.0 / 6.0,
             np.float64(16_000.0 / 6.0)]


@st.composite
def dj_calls(draw):
    """One to six run_dj calls over every oracle, method, shaped flag and
    relaxation setting, each after the first the one before with one part
    drawn again, so that calls share a kept oracle state (dj._oracle_state)
    or differ in one part of its key. The offset may be a zero of either
    sign, an int or a float, and the coupling a float, an int or a numpy
    scalar."""
    parts = {"oracle_id": st.sampled_from(ORACLE_IDS), "method": st.sampled_from(METHODS),
             "relax": st.sampled_from([None, RelaxationParams(),
                                       RelaxationParams(t1_s=np.float64(0.016))]),
             "shaped_pulses": st.booleans(), "points": st.sampled_from([256, 1024]),
             "offset_hz": st.sampled_from([0.0, -0.0, 0, 500.0, -1500.0]),
             "lambda_hz": st.sampled_from(COUPLINGS)}
    calls = [{name: draw(part) for name, part in parts.items()}]
    for _ in range(draw(st.integers(0, 5))):
        name = draw(st.sampled_from(sorted(parts)))
        calls.append({**calls[-1], name: draw(parts[name])})
    return calls


def dj_outcome(call):
    """The bits of everything run_dj returns for call, its system given by
    offset_hz and lambda_hz, or its error."""
    call = dict(call)
    sys = SpinSystem(offset_hz=call.pop("offset_hz"), lambda_hz=call.pop("lambda_hz"))
    try:
        return outcome_bits(run_dj(sys=sys, **call))
    except (ValueError, AmbiguousReadoutError) as err:
        return type(err), str(err)


def outcome_bits(out):
    """The bits of the spectrum, rho_final, peak signs and class of a DJOutcome."""
    return (out.spectrum.freq_hz.tobytes(), out.spectrum.amplitude.tobytes(),
            out.rho_final.tobytes(), np.array(out.peak_signs).tobytes(), out.classification)


class TestKeptOracleState:
    """run_dj keeps each oracle's output state per sequence file, shaped flag,
    spin, coupling and relaxation, shared by every offset, and the ideal
    matrix's per oracle and level count; a warm run only copies it."""

    @settings(max_examples=100, deadline=None)
    @given(dj_calls())
    # shaped runs off resonance after on-resonance ones share the frame's state
    @example([dict(oracle_id=oracle_id, offset_hz=offset, lambda_hz=16_000.0 / 6.0,
                   method=method, relax=None, shaped_pulses=True, points=1024)
              for offset in (0.0, -0.0, 0, -1500.0)
              for oracle_id, method in (("f2", "selective-z"), ("f3", "quad-evolution"))])
    # a float32 coupling equals the float but gives other delays and durations
    @example([dict(oracle_id=oracle_id, offset_hz=0.0, lambda_hz=coupling, method=method,
                   relax=None, shaped_pulses=shaped, points=256)
              for oracle_id, method, shaped in (("f3", "quad-evolution", False),
                                                ("f2", "selective-z", True))
              for coupling in (2000.0, np.float32(2000.0))])
    def test_warm_runs_equal_runs_after_cache_clear(self, calls):
        clear_kept_states()
        for call in calls:
            dj_outcome(call)
        warm = [dj_outcome(call) for call in calls]
        cleared = []
        for call in calls:
            clear_kept_states()
            cleared.append(dj_outcome(call))
        assert warm == cleared

    @pytest.mark.parametrize("relax", [None, RelaxationParams()])
    @pytest.mark.parametrize("shaped", [False, True])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("oracle_id", ORACLE_IDS)
    def test_a_warm_run_propagates_nothing(self, monkeypatch, oracle_id, method, shaped,
                                           relax):
        def refuse(*args, **kwargs):
            raise AssertionError("a warm run_dj propagated its state")

        call = dict(oracle_id=oracle_id, method=method, relax=relax, shaped_pulses=shaped,
                    offset_hz=500.0, lambda_hz=16_000.0 / 6.0, points=1024)
        clear_kept_states()
        cold = dj_outcome(call)
        for module, name in ((dj, "run_trajectory"), (dj, "conjugate"), (dj, "pseudopure_00"),
                             (dj, "hard_pulse"), (compiler, "_plan")):
            monkeypatch.setattr(module, name, refuse)
        sys = SpinSystem(offset_hz=500.0, lambda_hz=16_000.0 / 6.0)
        out = run_dj(oracle_id, sys, method=method, relax=relax, shaped_pulses=shaped,
                     points=1024)
        if method == "ideal-matrix":
            kept = _ideal_state(oracle_id, 4)
        elif oracle_id == "f1":
            kept = dj._start_state(4)
        else:
            kept = _oracle_state(_ORACLE_FILES[oracle_id, method], shaped, 1.5, sys.lambda_hz,
                                 None if relax is None else
                                 (relax.t1_s, relax.t2_central_s, relax.t2_outer_s))
        assert outcome_bits(out) == cold and out.rho_final.tobytes() == kept.tobytes()
        assert out.rho_final.flags.writeable and not np.shares_memory(out.rho_final, kept)
        out.rho_final[...] = 0      # the caller's own array: the kept state is untouched
        assert dj_outcome(call) == cold

    # a negative coupling gives a negative soft-pulse duration and one below
    # 1e-308 Hz an infinite one: _plan refuses either (run_dj refuses both
    # before it asks for a state)
    @pytest.mark.parametrize("lambda_hz, message", [(-1000.0, "duration must be positive"),
                                                    (1e-311, "must be finite")])
    def test_a_refused_state_is_not_kept(self, lambda_hz, message):
        _oracle_state.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                _oracle_state("u2.qseq", True, 1.5, lambda_hz, None)
        info = _oracle_state.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    @pytest.mark.parametrize("name", sorted(set(_ORACLE_FILES.values())))
    @pytest.mark.parametrize("relax", [None, RelaxationParams()])
    def test_kept_arrays_are_read_only(self, name, relax):
        params = None if relax is None else (relax.t1_s, relax.t2_central_s, relax.t2_outer_s)
        rho = _oracle_state(name, True, 1.5, 2000.0, params)
        assert rho.shape == (4, 4) and rho.dtype == complex
        for array in (rho, *[_ideal_state(oracle_id, 4) for oracle_id in ORACLE_IDS]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_the_cache_holds_at_most_its_bound(self):
        _oracle_state.cache_clear()
        for k in range(_KEPT_STATES + 8):
            _oracle_state("u2.qseq", False, 1.5, 2000.0 + k, None)
        assert _oracle_state.cache_parameters()["maxsize"] == _KEPT_STATES == 256
        assert _oracle_state.cache_info().currsize == _KEPT_STATES

    def test_a_full_cache_takes_under_half_a_megabyte(self):
        # the largest entries: shaped, relaxed z-pulse cascades, whose keys are longest
        params = (RelaxationParams().t1_s, RelaxationParams().t2_central_s,
                  RelaxationParams().t2_outer_s)
        _oracle_state("u3-zcascade.qseq", True, 1.5, 1999.0, params)   # the shared tables
        _oracle_state.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(_KEPT_STATES):
                _oracle_state("u3-zcascade.qseq", True, 1.5, 2000.0 + k / 7.0, params)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert _oracle_state.cache_info().currsize == _KEPT_STATES
        assert held < 0.5e6, held

    # the three offsets of the benchmark's dj-sweep: a state depends on none of them
    @pytest.mark.parametrize("name", sorted(set(_ORACLE_FILES.values())))
    @pytest.mark.parametrize("shaped", [False, True])
    @pytest.mark.parametrize("relax", [None, RelaxationParams()])
    def test_runs_at_every_offset_share_one_entry(self, name, shaped, relax):
        oracle_id, method = next(key for key, value in _ORACLE_FILES.items() if value == name)
        _oracle_state.cache_clear()
        for offset in (0.0, 500.0, -1500.0):
            run_dj(oracle_id, SpinSystem.from_splitting(16_000.0, offset), method=method,
                   relax=relax, shaped_pulses=shaped)
        info = _oracle_state.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 1, 1)

    # 1/(3*lambda) divided by zero: the CLI printed a ZeroDivisionError traceback
    @pytest.mark.parametrize("oracle_id", ORACLE_IDS)
    @pytest.mark.parametrize("method", SEQUENCE_METHODS)
    def test_shaped_pulses_refuse_a_zero_coupling(self, oracle_id, method):
        self.test_shaped_pulses_refuse_a_negative_or_tiny_coupling(oracle_id, method, 0.0)

    # a negative or an infinite duration, which f1, having no pulse, did not refuse
    @pytest.mark.parametrize("oracle_id", ORACLE_IDS)
    @pytest.mark.parametrize("method", SEQUENCE_METHODS)
    @pytest.mark.parametrize("lambda_hz", [-1000.0, 1e-310])
    def test_shaped_pulses_refuse_a_negative_or_tiny_coupling(self, oracle_id, method, lambda_hz):
        _oracle_state.cache_clear()
        with pytest.raises(ValueError) as caught:
            run_dj(oracle_id, SpinSystem(lambda_hz=lambda_hz), method=method,
                   shaped_pulses=True)
        assert str(caught.value) == f"coupling {lambda_hz:g} Hz gives no finite, positive " \
            "shaped pulse duration 1/(3*lambda)"
        assert _oracle_state.cache_info().misses == 0    # refused before any oracle ran
