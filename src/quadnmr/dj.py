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
(constant) or opposes it (balanced), once each window's own line is known to
set its sign (readout.check_resolved). Each oracle's output state is kept
(_oracle_state, 0.8 KB an entry with its key); a warm run only copies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from importlib.resources import files

import numpy as np

from .compiler import run_trajectory
from .linalg import conjugate
from .prep import pseudopure_00
from .pulses import hard_pulse
from .readout import (DEFAULT_DWELL_S, DEFAULT_LB_HZ, DEFAULT_POINTS, Spectrum,
                      UnresolvedLinesError, acquire, check_resolved)
from .relaxation import RelaxationParams
from .seqlang import (Event, GaussianShape, QuadDelay, SelPulse, SequenceIR,
                      SystemDecl, parse_sequence)
from .system import SpinSystem, _exact_cache, _frozen, cphase_delay_s

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
# The rows of the identity that make up each oracle's permutation matrix.
_ORACLE_ROWS = {"f1": [0, 1, 2, 3], "f2": [1, 0, 3, 2], "f3": [0, 1, 3, 2], "f4": [1, 0, 2, 3]}


class AmbiguousReadoutError(RuntimeError):
    """Peak signs too weak or inconsistent to classify the oracle."""


def oracle_class(oracle_id: str) -> str:
    if oracle_id not in ORACLE_CLASSES:
        raise ValueError(f"oracle must be one of {ORACLE_IDS}, got {oracle_id!r}")
    return ORACLE_CLASSES[oracle_id]


def oracle_matrix(oracle_id: str) -> np.ndarray:
    """Ideal propagator of the oracle: a 4x4 0/1 permutation matrix, the
    identity with rows 0 and 1 (f4), 2 and 3 (f3) or both pairs (f2) swapped."""
    oracle_class(oracle_id)
    return np.eye(4, dtype=complex)[_ORACLE_ROWS[oracle_id]]


# Bundled sequence file realizing each oracle under each method; f1 needs none.
_ORACLE_FILES = {
    ("f2", "selective-z"): "u2.qseq", ("f2", "quad-evolution"): "u2.qseq",
    ("f3", "selective-z"): "u3-zcascade.qseq", ("f3", "quad-evolution"): "u3-quad.qseq",
    ("f4", "selective-z"): "u4-zcascade.qseq", ("f4", "quad-evolution"): "u4-quad.qseq",
}


@cache
def _bundled_events(name: str) -> tuple[Event, ...]:
    return parse_sequence((files("quadnmr") / "sequences" / name).read_text()).events


def oracle_sequence(oracle_id: str, method: str,
                    sys: SpinSystem | None = None) -> SequenceIR:
    """SequenceIR whose compiled propagator is ORACLE_PHASES[id] * oracle_matrix(id).

    Its events are read from the bundled u2/u3-*/u4-* sequence files. f1
    needs no pulse at all and f2 is the same two selective x-pulses under
    either method. For f3 the controlled phase precedes the selective
    inversion on 10-11; f4 mirrors it through the spectrum (inversion on
    00-01, central z-pulse angle negated). The quadrupolar delay is resolved
    against sys.
    """
    oracle_class(oracle_id)
    if method not in SEQUENCE_METHODS:
        raise ValueError(f"method must be one of {SEQUENCE_METHODS}, got {method!r}")
    sys = SpinSystem() if sys is None else sys
    events = () if oracle_id == "f1" else tuple(
        replace(e, tau_s=cphase_delay_s(sys)) if type(e) is QuadDelay else e
        for e in _bundled_events(_ORACLE_FILES[oracle_id, method]))
    decl = SystemDecl(spin=sys.spin, splitting_hz=sys.splitting_hz, offset_hz=sys.offset_hz)
    return SequenceIR(system_decl=decl, events=events)


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
    outer_a, central, outer_b = [p.real_integral for p in peaks]
    sizes = (abs(outer_a), abs(central), abs(outer_b))
    floor = 1e-6 * max(sizes)
    if floor == 0 or min(sizes) < floor:
        raise AmbiguousReadoutError(
            "degenerate readout: a peak integral is below the noise floor")
    if (outer_a > 0) != (outer_b > 0):
        raise AmbiguousReadoutError("outer peaks disagree in sign")
    return "constant" if (central > 0) == (outer_a > 0) else "balanced"


@cache
def _start_state(dim: int) -> np.ndarray:
    """pseudopure_00 followed by the hard 90 about -y, read-only: it depends
    only on the level count, so every run of a system size shares it."""
    sys = SpinSystem(spin=(dim - 1) / 2.0)
    rho = conjugate(pseudopure_00(sys), hard_pulse(sys, "-y", np.pi / 2.0))
    rho.flags.writeable = False
    return rho


@cache
def _ideal_state(oracle_id: str, dim: int) -> np.ndarray:
    """_start_state(dim) through the ideal matrix of the oracle, read-only."""
    rho = conjugate(_start_state(dim), oracle_matrix(oracle_id))
    rho.flags.writeable = False
    return rho


# Bound of the kept oracle states (_oracle_state). tracemalloc reads 0.79 KB
# an entry, key included, over 256 shaped, relaxed z-pulse cascades (the
# longest keys), so a full cache holds about 0.2 MB.
_KEPT_STATES = 256


@_exact_cache(_KEPT_STATES)
def _oracle_state(name: str, shaped: bool, spin, lambda_hz, relax):
    """_start_state through the bundled oracle sequence name on the
    on-resonance system SpinSystem(spin, 0.0, lambda_hz), its selective
    pulses made gaussian when shaped; relax holds the RelaxationParams
    numbers, or is None. The events are as parsed: run_trajectory resolves
    the delay pi/(12*lambda) against the frame.

    The final state depends on nothing else, the acquisition included, so
    it is kept, read-only, until evicted, and run_dj only copies it; keys
    compare exactly (_exact_cache). A refused state raises its error and is
    not kept.
    """
    frame = SpinSystem(spin, 0.0, lambda_hz)
    events = _bundled_events(name)
    if shaped:
        duration = 1.0 / (3.0 * lambda_hz)
        shape = GaussianShape(duration_s=duration, duration_text=f"{duration * 1e6:.6g}us")
        events = tuple(replace(e, shape=shape) if type(e) is SelPulse and e.shape is None
                       else e for e in events)
    ir = SequenceIR(SystemDecl(spin=frame.spin, splitting_hz=frame.splitting_hz), events)
    rho = run_trajectory(ir, frame, _start_state(frame.dim),
                         None if relax is None else RelaxationParams(*relax)).states[-1]
    rho.flags.writeable = False
    return rho


def run_dj(oracle_id: str, sys: SpinSystem | None = None, method: str = "quad-evolution",
           relax: RelaxationParams | None = None, shaped_pulses: bool = False,
           points: int = DEFAULT_POINTS, dwell_s: float = DEFAULT_DWELL_S,
           lb_hz: float = DEFAULT_LB_HZ) -> DJOutcome:
    """Full algorithm run: pseudopure prep, hard 90, oracle, acquisition.

    shaped_pulses replaces the oracle's ideal selective pulses by gaussian
    soft pulses (the ideal pulse followed by free evolution over the pulse
    duration) lasting one full period of the quadrupolar phase accrual,
    1/(3*lambda), so the background phases wrap by 2*pi; a coupling that
    gives no finite, positive duration is a ValueError. The offset phase
    accrued over that time does not wrap, and it would turn the axis of the
    next pulse; so the oracle runs in the frame that tracks the offset, on
    the system's on-resonance copy (the "virtual Z" of McKay et al., PRA 96,
    022330, 2017). No other oracle event depends on the offset, so the
    Zeeman rotation left out only sets the global phase. The oracle's output
    state is kept per sequence file, shaped flag, spin, coupling and relax
    (_oracle_state, about 0.8 KB an entry with its key), shared by every
    offset, and the ideal matrix's per oracle (_ideal_state): a warm run
    propagates nothing, and rho_final is a fresh copy of the kept state.
    The readout is readout.acquire with the given points, dwell, line
    broadening and relax. Before the classifier reads the signs,
    readout.check_resolved raises UnresolvedLinesError for a window whose
    neighbours' tails weigh as much as its own line, since its sign could
    then read the wrong class.
    """
    sys = SpinSystem() if sys is None else sys
    oracle_class(oracle_id)
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")

    if method == "ideal-matrix":
        kept = _ideal_state(oracle_id, sys.dim)
    else:
        if shaped_pulses and not (sys.lambda_hz > 0
                                  and math.isfinite(1.0 / (3.0 * sys.lambda_hz))):
            raise ValueError(f"coupling {sys.lambda_hz:g} Hz gives no finite, positive "
                             "shaped pulse duration 1/(3*lambda)")
        name = _ORACLE_FILES.get((oracle_id, method))    # f1 needs no pulse
        kept = _start_state(sys.dim) if name is None else _oracle_state(
            name, bool(shaped_pulses), sys.spin, sys.lambda_hz,
            None if relax is None else (relax.t1_s, relax.t2_central_s, relax.t2_outer_s))
    rho = kept.copy()

    spec = acquire(rho, sys, points=points, dwell_s=dwell_s, lb_hz=lb_hz, relax=relax)[1]
    check_resolved(spec)
    return _frozen(DJOutcome, oracle_id=oracle_id, method=method,
                   peak_signs=tuple([p.real_integral for p in spec.peaks]),
                   classification=classify_peaks(spec.peaks), spectrum=spec, rho_final=rho)
