"""Simulator and pulse-sequence compiler for two-qubit NMR computing on a
single spin-3/2 quadrupolar nucleus: pseudopure state preparation,
transition-selective and quadrupolar-evolution gates, Deutsch-Jozsa runs and
sign-based spectral readout."""

import types as _types

from .compiler import NonUnitaryEventError, TrajectoryResult, compile_unitary, run_trajectory
from .dj import (AmbiguousReadoutError, DJOutcome, ORACLE_IDS, METHODS,
                 classify_peaks, oracle_class, oracle_matrix, oracle_sequence, run_dj)
from .linalg import (SpinOperators, conjugate, gate_fidelity_global_phase,
                     is_hermitian, is_unitary, spin_operators)
from .prep import equilibrium_state, pseudopure_00
from .pulses import gradient_crush, hard_pulse, selective_pulse
from .readout import (FID, Peak, Spectrum, UnresolvedLinesError, acquire, check_resolved,
                      observable_amplitudes, spectrum, synthesize_fid, write_peaks_csv,
                      write_spectrum_csv)
from .relaxation import RelaxationParams
from .seqlang import ParseError, SequenceIR, format_sequence, parse_sequence
from .system import (ForbiddenTransitionError, SpinSystem, UnknownTransitionError,
                     cphase_delay_s)

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
