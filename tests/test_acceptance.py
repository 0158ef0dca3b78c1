"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import functools
import time

import numpy as np
import pytest

from quadnmr import (RelaxationParams, SpinSystem, compile_unitary, conjugate,
                     cphase_delay_s, equilibrium_state, format_sequence,
                     gate_fidelity_global_phase, hard_pulse, is_unitary, oracle_class,
                     oracle_matrix, oracle_sequence, parse_sequence, pseudopure_00,
                     run_dj, selective_pulse, spin_operators)
from quadnmr.dj import ORACLE_IDS, ORACLE_PHASES, SEQUENCE_METHODS
from quadnmr.seqlang import ParseError

from conftest import HARD_90_MINUS_Y, INVALID_DIR, SEQUENCES_DIR
from helpers import (expm_hermitian, global_phase, ideal_state_after_oracle, matrices_close,
                     propagator, selective_z_pulse)
from test_linalg import expm_series, random_hermitian
from test_pulses import _slice_product, gaussian, quad_delay, refocus, zpulse
from test_relaxation import relaxed

SQRT3 = np.sqrt(3.0)


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {title}")
                raise
            print(f"criterion {number:2d} PASS  {title}")
        return run
    return wrap


@criterion(1, "hard-pulse propagator fixture and superposition amplitudes")
def test_criterion_01_hard_pulse():
    start = time.monotonic()
    sys = SpinSystem()
    u = hard_pulse(sys, "-y", np.pi / 2)
    assert matrices_close(u, HARD_90_MINUS_Y, atol=1e-10)
    psi = u @ np.array([1, 0, 0, 0], dtype=complex)
    expected = np.array([1, -SQRT3, SQRT3, -1]) / (2 * np.sqrt(2))
    assert matrices_close(psi, expected, atol=1e-10)
    assert time.monotonic() - start < 1.0


@criterion(2, "oracle compilation with exact global phases")
def test_criterion_02_oracle_compilation():
    sys = SpinSystem()
    for oracle_id in ORACLE_IDS:
        for method in SEQUENCE_METHODS:
            compiled = compile_unitary(oracle_sequence(oracle_id, method, sys), sys)
            target = oracle_matrix(oracle_id)
            assert gate_fidelity_global_phase(target, compiled) >= 1 - 1e-9, \
                (oracle_id, method)
            assert abs(global_phase(target, compiled)
                       - ORACLE_PHASES[oracle_id]) < 1e-9, (oracle_id, method)
            assert matrices_close(compiled, ORACLE_PHASES[oracle_id] * target,
                                  atol=1e-9)


@criterion(3, "controlled-phase identities: z composite and quad evolution")
def test_criterion_03_controlled_phase():
    sys = SpinSystem()
    rng = np.random.default_rng(3)
    for phi in rng.uniform(-2 * np.pi, 2 * np.pi, size=100):
        composite = selective_z_pulse(sys, "01-11", phi)
        closed = propagator(zpulse("01-11", phi), sys)
        assert matrices_close(composite, closed, atol=1e-10)
    tau = cphase_delay_s(sys)
    expected = np.diag(np.exp(1j * np.pi / 4 * np.array([-1, 1, 1, -1])))
    assert matrices_close(propagator(quad_delay(tau), sys), expected, atol=1e-12)


@criterion(4, "pseudopure preparation reaches the single-level pattern")
def test_criterion_04_pseudopure():
    sys = SpinSystem()
    rho_eq = equilibrium_state(sys)
    assert matrices_close(rho_eq, np.diag([3, 1, -1, -3]) / 2.0, atol=1e-14)
    rho = pseudopure_00(sys)

    # independent oracle: hand-applied population swap, then averaging
    pops = [1.5, 0.5, -0.5, -1.5]
    pops[2], pops[3] = pops[3], pops[2]
    pops[1] = pops[2] = (pops[1] + pops[2]) / 2.0
    assert matrices_close(rho, np.diag(pops), atol=1e-12)
    assert matrices_close(rho, np.diag([3, -1, -1, -1]) / 2.0, atol=1e-12)
    non_target = np.diag(rho).real[1:]
    assert np.max(non_target) - np.min(non_target) < 1e-12


@criterion(5, "equilibrium spectrum: three lines, 3:4:3 integrals within 1%")
def test_criterion_05_equilibrium_spectrum():
    from quadnmr import acquire
    sys = SpinSystem()
    rho = conjugate(equilibrium_state(sys), hard_pulse(sys, "-y", np.pi / 2))
    _, spec = acquire(rho, sys)
    freqs = sorted(p.frequency_hz for p in spec.peaks)
    bin_hz = spec.freq_hz[1] - spec.freq_hz[0]
    for found, expected in zip(freqs, (-16_000.0, 0.0, 16_000.0)):
        assert abs(found - expected) <= bin_hz
    integrals = np.array([p.real_integral for p in spec.peaks])
    assert integrals[0] / integrals[1] == pytest.approx(0.75, rel=0.01)
    assert integrals[2] / integrals[1] == pytest.approx(0.75, rel=0.01)


@criterion(6, "24 algorithm runs classify correctly; relaxation shrinks outer peaks")
def test_criterion_06_dj_end_to_end():
    start = time.monotonic()
    sys = SpinSystem()
    relax = RelaxationParams(t1_s=16e-3, t2_central_s=14e-3, t2_outer_s=4e-3)
    methods = ("ideal-matrix",) + SEQUENCE_METHODS
    baseline = {}
    for oracle_id in ORACLE_IDS:
        for method in methods:
            outcome = run_dj(oracle_id, sys, method=method)
            assert outcome.classification == oracle_class(oracle_id), \
                (oracle_id, method)
            baseline[oracle_id, method] = outcome
    for oracle_id in ORACLE_IDS:
        for method in methods:
            outcome = run_dj(oracle_id, sys, method=method, relax=relax)
            assert outcome.classification == oracle_class(oracle_id), \
                (oracle_id, method, "relaxed")
            for k in (0, 2):
                assert abs(outcome.peak_signs[k]) < \
                    abs(baseline[oracle_id, method].peak_signs[k])
    assert time.monotonic() - start < 10.0


@criterion(7, "post-oracle coherence sign patterns match the density fixtures")
def test_criterion_07_post_oracle_signs():
    sys = SpinSystem()
    for oracle_id in ORACLE_IDS:
        rho = pseudopure_00(sys)
        rho = conjugate(rho, hard_pulse(sys, "-y", np.pi / 2))
        rho = conjugate(rho, oracle_matrix(oracle_id))
        # outer single-quantum coherences negative for every oracle
        assert rho[0, 1].real < 0 and rho[2, 3].real < 0, oracle_id
        central = rho[1, 2].real
        if oracle_class(oracle_id) == "constant":
            assert central < 0, oracle_id
        else:
            assert central > 0, oracle_id
        # traceless part equals twice the traceless pure-state density
        psi = ideal_state_after_oracle(oracle_id)
        expected = 2.0 * (np.outer(psi, psi.conj()) - np.eye(4) / 4.0)
        assert matrices_close(rho - np.trace(rho) / 4.0 * np.eye(4), expected,
                              atol=1e-10)
    # frozen double-quantum entry, derived from the wavefunction outer product
    sigma3 = 8.0 * np.outer(ideal_state_after_oracle("f3"),
                            ideal_state_after_oracle("f3").conj())
    assert sigma3[1, 3].real == pytest.approx(-3.0, abs=1e-12)


@criterion(8, "refocusing block is offset-independent")
def test_criterion_08_refocusing():
    tau = 80e-6
    propagators = [propagator(refocus(tau), SpinSystem.from_splitting(16_000.0, offset_hz=off))
                   for off in (0.0, 100.0, 5000.0)]
    assert matrices_close(propagators[0], propagators[1], atol=1e-9)
    assert matrices_close(propagators[0], propagators[2], atol=1e-9)


@criterion(9, "shaped-pulse calibration at the phase-wrap length and convergence")
def test_criterion_09_shaped_pulse():
    duration = 123e-6
    # couple the system so 123 us spans one full background-phase period
    sys = SpinSystem.from_splitting(6.0 / (3.0 * duration))
    ideal = selective_pulse(sys, "10-11", "-y", np.pi / SQRT3)
    u = propagator(gaussian("10-11", "-y", np.pi / SQRT3, duration), sys)
    assert gate_fidelity_global_phase(ideal, u) >= 0.99
    # the closed form equals the slice integrator at 64 and 512 slices
    for n_slices in (64, 512):
        reference = _slice_product(sys, "10-11", "-y", np.pi / SQRT3, duration, n_slices)
        assert np.max(np.abs(u - reference)) < 1e-12


@criterion(10, "sequence corpus: valid fixtures compile, invalid ones locate errors")
def test_criterion_10_parser_corpus():
    valid = sorted(SEQUENCES_DIR.glob("*.qseq"))
    assert len(valid) >= 6
    for path in valid:
        ir = parse_sequence(path.read_text())
        reparsed = parse_sequence(format_sequence(ir))
        assert reparsed.events == ir.events, path.name
        assert reparsed.system_decl == ir.system_decl, path.name
        has_nonunitary = any(type(e).__name__ in ("Gradient", "Acquire")
                             for e in ir.events)
        if not has_nonunitary:
            assert is_unitary(compile_unitary(ir), atol=1e-9), path.name
        else:
            from quadnmr import run_trajectory
            sys = ir.system()
            run_trajectory(ir, sys, equilibrium_state(sys))
    invalid = sorted(INVALID_DIR.glob("*.qseq"))
    assert len(invalid) >= 8
    for path in invalid:
        with pytest.raises(ParseError) as err:
            parse_sequence(path.read_text())
        assert err.value.line >= 1 and err.value.column >= 1, path.name
        assert err.value.code.startswith("E_"), path.name


@criterion(11, "randomized algebra: unitarity, commutators, expm, relaxation")
def test_criterion_11_algebra_suite():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    sys = SpinSystem()

    for spin in (0.5, 1.5, 3.5):
        ops = spin_operators(spin)
        assert matrices_close(ops.ix @ ops.iy - ops.iy @ ops.ix, 1j * ops.iz,
                              atol=1e-12)
        assert matrices_close(ops.iy @ ops.iz - ops.iz @ ops.iy, 1j * ops.ix,
                              atol=1e-12)
        assert matrices_close(ops.iz @ ops.ix - ops.ix @ ops.iz, 1j * ops.iy,
                              atol=1e-12)
        casimir = ops.ix @ ops.ix + ops.iy @ ops.iy + ops.iz @ ops.iz
        assert matrices_close(casimir, spin * (spin + 1) * np.eye(ops.dim),
                              atol=1e-12)

    for _ in range(400):
        h = random_hermitian(rng)
        s = rng.uniform(-3, 3)
        assert matrices_close(expm_hermitian(h, s), expm_series(h, s), atol=1e-9)

    transitions = ("00-01", "01-11", "10-11")
    axes = ("x", "-x", "y", "-y")
    for _ in range(300):
        trans = transitions[rng.integers(3)]
        axis = axes[rng.integers(4)]
        angle = rng.uniform(-2 * np.pi, 2 * np.pi)
        assert is_unitary(selective_pulse(sys, trans, axis, angle), atol=1e-9)
        assert is_unitary(hard_pulse(sys, axis, angle), atol=1e-9)

    params = RelaxationParams()
    base = equilibrium_state(sys).astype(complex)
    base[0, 1] = base[1, 0] = 0.3
    base[1, 2] = base[2, 1] = 0.2
    base[0, 3] = 0.1
    base[3, 0] = 0.1
    for _ in range(200):
        a, b = rng.uniform(0, 0.02, size=2)
        once = relaxed(base, a + b, params, sys)
        twice = relaxed(relaxed(base, a, params, sys), b, params, sys)
        assert matrices_close(once, twice, atol=1e-12)

    for _ in range(100):
        phi = rng.uniform(-2 * np.pi, 2 * np.pi)
        trans = transitions[rng.integers(3)]
        assert matrices_close(selective_z_pulse(sys, trans, phi),
                              propagator(zpulse(trans, phi), sys), atol=1e-10)

    assert time.monotonic() - start < 30.0
