"""Deutsch-Jozsa on the four-level system: oracles, realizations, classifier.

The four one-input-bit functions map to 4x4 permutation propagators on the
logical basis (00, 01, 11, 10): f1 is the identity, f2 flips the work qubit
unconditionally, f3 and f4 are the two controlled-NOTs. Each oracle has two
pulse-level realizations besides the ideal matrix:

* selective-z: a controlled-phase built from a cascade of three
  transition-selective z-pulses, followed by a selective inversion acting as
  the half-CNOT;
* quad-evolution: the z-cascade's two outer pulses are replaced by one free
  evolution under the quadrupolar coupling for tau = pi/(12*lambda), which
  contributes the same +-45 degree phase pattern.

Compiled propagators match the ideal matrices up to the fixed global phases
recorded in ORACLE_PHASES. The algorithm itself runs pseudopure preparation,
a hard 90 about -y, the oracle, and acquisition; the function class is read
from whether the central line's sign agrees with the outer lines' sign
(constant) or opposes it (balanced).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from importlib.resources import files

import numpy as np

from .compiler import run_trajectory
from .linalg import conjugate
from .prep import equilibrium_state, pseudopure_00
from .pulses import hard_pulse
from .readout import DEFAULT_DWELL_S, DEFAULT_LB_HZ, DEFAULT_POINTS, Spectrum, acquire
from .relaxation import RelaxationParams, coherence_t2_table
from .seqlang import (Event, GaussianShape, QuadDelay, SelPulse, SequenceIR,
                      SystemDecl, parse_sequence)
from .system import SpinSystem, cphase_delay_s, transition_table

ORACLE_IDS = ("f1", "f2", "f3", "f4")
ORACLE_CLASSES = {"f1": "constant", "f2": "constant",
                  "f3": "balanced", "f4": "balanced"}
SEQUENCE_METHODS = ("selective-z", "quad-evolution")
METHODS = ("ideal-matrix",) + SEQUENCE_METHODS

# Global phase of each compiled realization relative to the ideal matrix.
ORACLE_PHASES = {
    "f1": 1.0 + 0.0j,
    "f2": 1.0j,
    "f3": np.exp(-1j * np.pi / 4.0),
    "f4": np.exp(-1j * np.pi / 4.0),
}


class AmbiguousReadoutError(RuntimeError):
    """Peak signs too weak or inconsistent to classify the oracle."""


class UnresolvedLinesError(ValueError):
    """The readout cannot sign every line apart from its neighbours."""


# Widest line, as a fraction of the spectral width 1/dwell, whose sign the
# readout still reads. A decay sampled from t = 0 puts a flat offset of half
# its first point into every bin of the real spectrum, which a window
# spanning much of the spectral width sums up. In random sweeps, lines 6% of
# the spectral width wide read the wrong class near the Sparrow limit, and
# lines 13% wide did so at any splitting.
MAX_WIDTH_SPECTRAL_WIDTH = 0.05


def _check_resolved(sys: SpinSystem, points: int, dwell_s: float, lb_hz: float,
                    relax: RelaxationParams | None = None) -> None:
    """Raise UnresolvedLinesError unless every line can be signed on its own.

    A line's width is the FWHM it shows on the grid: lb_hz, plus 1/(pi*T2)
    of its coherence when relax is given, plus one bin 1/(points*dwell_s).
    Every line must be at most MAX_WIDTH_SPECTRAL_WIDTH of the spectral
    width 1/dwell_s wide, and adjacent lines, including the pair that
    neighbours across the spectral edge, must lie more than the larger width
    over sqrt(3) apart: the Sparrow limit, below which two Lorentzians merge
    into one peak.
    """
    table = sorted(transition_table(sys), key=lambda tr: tr.frequency_hz)
    t2 = None if relax is None else coherence_t2_table(relax, sys.dim)
    widths = [lb_hz + 1.0 / (points * dwell_s) +
              (0.0 if t2 is None else 1.0 / (np.pi * t2[tr.upper_index, tr.lower_index]))
              for tr in table]
    spectral_width = 1.0 / dwell_s
    if not max(widths) <= MAX_WIDTH_SPECTRAL_WIDTH * spectral_width:
        raise UnresolvedLinesError(
            f"lines {max(widths):g} Hz wide are too broad for the spectral width "
            f"{spectral_width:g} Hz: widths above {MAX_WIDTH_SPECTRAL_WIDTH:g} of it "
            "cannot be signed; lower the line broadening or the dwell time")
    # the spectrum is periodic in 1/dwell, so the highest line neighbours the lowest
    for k, tr in enumerate(table):
        nxt = (k + 1) % len(table)
        gap = table[nxt].frequency_hz - tr.frequency_hz + (spectral_width if nxt == 0 else 0.0)
        limit = max(widths[k], widths[nxt]) / np.sqrt(3.0)
        if not gap > limit:
            raise UnresolvedLinesError(
                f"lines {tr.label} and {table[nxt].label} lie {gap:g} Hz apart, "
                f"within the Sparrow limit {limit:g} Hz of their widths; raise the "
                "splitting, or lower the line broadening or relaxation rates")


def oracle_class(oracle_id: str) -> str:
    if oracle_id not in ORACLE_CLASSES:
        raise ValueError(f"oracle must be one of {ORACLE_IDS}, got {oracle_id!r}")
    return ORACLE_CLASSES[oracle_id]


def oracle_matrix(oracle_id: str) -> np.ndarray:
    """Ideal propagator of the oracle: a 4x4 0/1 permutation matrix."""
    oracle_class(oracle_id)
    eye = np.eye(4, dtype=complex)
    swap_01 = eye[[1, 0, 2, 3]]
    swap_23 = eye[[0, 1, 3, 2]]
    return {"f1": eye, "f2": swap_01 @ swap_23,
            "f3": swap_23, "f4": swap_01}[oracle_id].copy()


# Bundled sequence file realizing each oracle under each method; f1 needs none.
_ORACLE_FILES = {
    ("f2", "selective-z"): "u2.qseq", ("f2", "quad-evolution"): "u2.qseq",
    ("f3", "selective-z"): "u3-zcascade.qseq", ("f3", "quad-evolution"): "u3-quad.qseq",
    ("f4", "selective-z"): "u4-zcascade.qseq", ("f4", "quad-evolution"): "u4-quad.qseq",
}


@cache
def _bundled_events(name: str) -> tuple[Event, ...]:
    return parse_sequence((files("quadnmr") / "sequences" / name).read_text()).events


def oracle_events(oracle_id: str, method: str, sys: SpinSystem) -> tuple[Event, ...]:
    """Pulse/delay events realizing the oracle, in execution order.

    Read from the bundled u2/u3-*/u4-* sequence files. f1 needs no pulse at
    all and f2 is the same two selective x-pulses under either method. For
    f3 the controlled phase precedes the selective inversion on 10-11; f4
    mirrors it through the spectrum (inversion on 00-01, central z-pulse
    angle negated). The quadrupolar delay is resolved against sys.
    """
    oracle_class(oracle_id)
    if method not in SEQUENCE_METHODS:
        raise ValueError(f"method must be one of {SEQUENCE_METHODS}, got {method!r}")
    if oracle_id == "f1":
        return ()
    return tuple(replace(e, tau_s=cphase_delay_s(sys)) if isinstance(e, QuadDelay) else e
                 for e in _bundled_events(_ORACLE_FILES[oracle_id, method]))


def oracle_sequence(oracle_id: str, method: str,
                    sys: SpinSystem | None = None) -> SequenceIR:
    """SequenceIR whose compiled propagator is ORACLE_PHASES[id] * oracle_matrix(id)."""
    sys = SpinSystem() if sys is None else sys
    decl = SystemDecl(spin=sys.spin, splitting_hz=sys.splitting_hz,
                      offset_hz=sys.offset_hz)
    return SequenceIR(system_decl=decl,
                      events=oracle_events(oracle_id, method, sys))


def superposition_state() -> np.ndarray:
    """State after the hard 90 about -y on the top level: (1, -r3, r3, -1)/(2 r2)."""
    r3 = np.sqrt(3.0)
    return np.array([1.0, -r3, r3, -1.0], dtype=complex) / (2.0 * np.sqrt(2.0))


def ideal_state_after_oracle(oracle_id: str) -> np.ndarray:
    """Unit-norm wavefunction the oracle produces from the superposition state."""
    return oracle_matrix(oracle_id) @ superposition_state()


def ideal_density_after_oracle(oracle_id: str) -> np.ndarray:
    """Pure-state density matrix of the post-oracle state (trace one)."""
    psi = ideal_state_after_oracle(oracle_id)
    return np.outer(psi, psi.conj())


@dataclass(frozen=True)
class DJOutcome:
    oracle_id: str
    method: str
    peak_signs: tuple[float, float, float]   # real integrals, transition-table order
    classification: str
    spectrum: Spectrum
    rho_final: np.ndarray

    @property
    def correct(self) -> bool:
        return self.classification == ORACLE_CLASSES[self.oracle_id]


def classify_peaks(peaks) -> str:
    """Constant when all three lines share a sign, balanced when the central
    line opposes the outer two; anything weaker is ambiguous."""
    if len(peaks) != 3:
        raise AmbiguousReadoutError(f"expected three peaks, got {len(peaks)}")
    integrals = np.array([p.real_integral for p in peaks])
    floor = 1e-6 * np.max(np.abs(integrals))
    if floor == 0 or np.any(np.abs(integrals) < floor):
        raise AmbiguousReadoutError(
            "degenerate readout: a peak integral is below the noise floor")
    outer_a, central, outer_b = np.sign(integrals)
    if outer_a != outer_b:
        raise AmbiguousReadoutError("outer peaks disagree in sign")
    return "constant" if central == outer_a else "balanced"


def run_dj(oracle_id: str, sys: SpinSystem | None = None, method: str = "quad-evolution",
           relax: RelaxationParams | None = None, shaped_pulses: bool = False,
           points: int = DEFAULT_POINTS, dwell_s: float = DEFAULT_DWELL_S,
           lb_hz: float = DEFAULT_LB_HZ) -> DJOutcome:
    """Full algorithm run: pseudopure prep, hard 90, oracle, acquisition.

    shaped_pulses replaces the oracle's ideal selective pulses by gaussian
    soft pulses (the ideal pulse followed by free evolution over the pulse
    duration) lasting one full period of the quadrupolar phase accrual,
    1/(3*lambda), so the background phases wrap by 2*pi. The readout is
    readout.acquire with the given points, dwell, line broadening and relax.
    Raises UnresolvedLinesError when the lines are too close or too broad
    to sign (_check_resolved), since they could then read as the wrong class.
    """
    sys = SpinSystem() if sys is None else sys
    oracle_class(oracle_id)
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")

    rho = pseudopure_00(sys, equilibrium_state(sys))
    rho = conjugate(rho, hard_pulse(sys, "-y", np.pi / 2.0))

    if method == "ideal-matrix":
        rho = conjugate(rho, oracle_matrix(oracle_id))
    else:
        ir = oracle_sequence(oracle_id, method, sys)
        if shaped_pulses:
            duration = 1.0 / (3.0 * sys.lambda_hz)
            shape = GaussianShape(duration_s=duration,
                                  duration_text=f"{duration * 1e6:.6g}us")
            ir = replace(ir, events=tuple(
                replace(e, shape=shape) if isinstance(e, SelPulse) and e.shape is None
                else e for e in ir.events))
        rho = run_trajectory(ir, sys, rho, relax=relax).states[-1]

    _, spec = acquire(rho, sys, points=points, dwell_s=dwell_s, lb_hz=lb_hz, relax=relax)
    _check_resolved(sys, points, dwell_s, lb_hz, relax)
    classification = classify_peaks(spec.peaks)
    signs = tuple(p.real_integral for p in spec.peaks)
    return DJOutcome(oracle_id=oracle_id, method=method, peak_signs=signs,
                     classification=classification, spectrum=spec, rho_final=rho)
