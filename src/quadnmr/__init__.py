"""Simulator and pulse-sequence compiler for two-qubit NMR computing on a
single spin-3/2 quadrupolar nucleus: pseudopure state preparation,
transition-selective and quadrupolar-evolution gates, Deutsch-Jozsa runs and
sign-based spectral readout."""

from .compiler import (NonUnitaryEventError, TrajectoryResult, compile_unitary,
                       event_propagator, refocus_block, run_trajectory, shaped_pulse)
from .dj import (AmbiguousReadoutError, DJOutcome, ORACLE_IDS, METHODS,
                 classify_peaks, ideal_state_after_oracle, oracle_class, oracle_matrix,
                 oracle_sequence, run_dj, superposition_state,
                 UnresolvedLinesError)
from .linalg import (SpinOperators, conjugate, gate_fidelity_global_phase,
                     is_hermitian, is_unitary, matrices_close, spin_operators)
from .prep import equilibrium_state, pseudopure_00
from .pulses import gradient_crush, hard_pulse, selective_pulse, selective_z_closed_form
from .readout import (FID, Peak, Spectrum, acquire, observable_amplitudes,
                      spectrum, synthesize_fid, write_peaks_csv,
                      write_spectrum_csv)
from .relaxation import RelaxationParams, apply_relaxation
from .seqlang import ParseError, SequenceIR, format_sequence, parse_sequence
from .system import (ForbiddenTransitionError, SpinSystem, Transition,
                     UnknownTransitionError, cphase_delay_s, free_evolution,
                     quad_evolution, transition_table)

__all__ = [name for name in dir() if not name.startswith("_")]
