"""Execution of parsed sequences: unitary compilation and state trajectories.

compile_unitary multiplies event propagators so that the first script line
acts first on the state (the total is P_n ... P_2 P_1). run_trajectory walks
a deviation matrix through the same events, additionally handling crusher
gradients, acquisition and, when requested, relaxation during the timed
events (delays, refocusing blocks, shaped pulses); ideal pulses stay
instantaneous and lossless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import conjugate
from .pulses import (gradient_crush, hard_pulse, refocus_block, selective_pulse,
                     selective_z_closed_form, shaped_pulse)
from .readout import DEFAULT_LB_HZ, FID, observable_amplitudes, synthesize_fid
from .relaxation import RelaxationParams, apply_relaxation
from .seqlang import (SYMBOLIC_CPHASE_DELAY, Acquire, Event, Gradient, HardPulse,
                      QuadDelay, Refocus, SelPulse, SequenceIR, ZPulse)
from .system import SpinSystem, cphase_delay_s, free_evolution, quad_evolution


class NonUnitaryEventError(ValueError):
    """Sequence contains gradient/acquire events; use run_trajectory instead."""


def _resolve_tau(tau_s: float, tau_text: str, sys: SpinSystem) -> float:
    if tau_text == SYMBOLIC_CPHASE_DELAY:
        return cphase_delay_s(sys)
    return tau_s


def event_propagator(event: Event, sys: SpinSystem) -> np.ndarray:
    """Unitary propagator of a single (non-gradient, non-acquire) event."""
    if isinstance(event, HardPulse):
        return hard_pulse(sys, event.axis, event.angle_rad)
    if isinstance(event, SelPulse):
        if event.shape is None:
            return selective_pulse(sys, event.transition, event.axis, event.angle_rad)
        return shaped_pulse(sys, event.transition, event.axis, event.angle_rad,
                            event.shape.duration_s, event.shape.n_slices)
    if isinstance(event, ZPulse):
        return selective_z_closed_form(sys, event.transition, event.angle_rad)
    if isinstance(event, QuadDelay):
        return quad_evolution(sys, _resolve_tau(event.tau_s, event.tau_text, sys))
    if isinstance(event, Refocus):
        return refocus_block(sys, _resolve_tau(event.tau_s, event.tau_text, sys))
    raise NonUnitaryEventError(
        f"event {type(event).__name__} at line {event.line} is not unitary; "
        "run the sequence through run_trajectory")


def compile_unitary(ir: SequenceIR, sys: SpinSystem | None = None) -> np.ndarray:
    """Net propagator of the sequence (first line applied first to the state)."""
    sys = ir.system() if sys is None else sys
    total = np.eye(sys.dim, dtype=complex)
    for event in ir.events:
        total = event_propagator(event, sys) @ total
    return total


@dataclass(frozen=True)
class TrajectoryResult:
    states: list[np.ndarray]    # state after each event; states[0] is rho0
    fid: FID | None = None


def run_trajectory(ir: SequenceIR, sys: SpinSystem | None, rho0: np.ndarray,
                   relax: RelaxationParams | None = None,
                   lb_hz: float = DEFAULT_LB_HZ) -> TrajectoryResult:
    """Apply each event in order to the deviation matrix rho0.

    With relax given, relaxation acts during quadrupolar delays, refocusing
    blocks, shaped pulses and acquisition. The refocused block is split into
    its two free-evolution halves so coherences relax on the transition they
    occupy on either side of the inversion pulse.
    """
    sys = ir.system() if sys is None else sys
    rho = np.asarray(rho0, dtype=complex).copy()
    if rho.shape != (sys.dim, sys.dim):
        raise ValueError(f"state must be {sys.dim}x{sys.dim}, got {rho.shape}")
    states = [rho.copy()]
    fid = None

    for event in ir.events:
        if isinstance(event, Gradient):
            rho = gradient_crush(rho)
        elif isinstance(event, Acquire):
            amps = observable_amplitudes(rho, sys)
            fid = synthesize_fid(amps, sys, points=event.points,
                                 dwell_s=event.dwell_s, lb_hz=lb_hz, relax=relax)
        elif isinstance(event, Refocus) and relax is not None:
            tau = _resolve_tau(event.tau_s, event.tau_text, sys)
            half = free_evolution(sys, tau / 2.0)
            rho = apply_relaxation(conjugate(rho, half), tau / 2.0, relax, sys)
            rho = conjugate(rho, hard_pulse(sys, "-y", np.pi))
            rho = apply_relaxation(conjugate(rho, half), tau / 2.0, relax, sys)
        else:
            rho = conjugate(rho, event_propagator(event, sys))
            if relax is not None:
                if isinstance(event, QuadDelay):
                    rho = apply_relaxation(
                        rho, _resolve_tau(event.tau_s, event.tau_text, sys), relax, sys)
                elif isinstance(event, SelPulse) and event.shape is not None:
                    rho = apply_relaxation(rho, event.shape.duration_s, relax, sys)
        states.append(rho.copy())
    return TrajectoryResult(states=states, fid=fid)
