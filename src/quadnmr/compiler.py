"""Execution of parsed sequences: unitary compilation and state trajectories.

One step table (_steps) gives each unitary event's propagators in time order
with the time each relaxes for; ideal pulses are instantaneous and lossless.
compile_unitary multiplies event propagators so that the first script line
acts first on the state (the total is P_n ... P_2 P_1). run_trajectory walks
a deviation matrix through the same events plus crusher gradients and
acquisition, step by step when relaxation is requested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import conjugate
from .pulses import (gradient_crush, hard_pulse, selective_pulse,
                     selective_z_closed_form, shaped_pulse)
from .readout import FID, observable_amplitudes, synthesize_fid
from .relaxation import RelaxationParams, apply_relaxation
from .seqlang import (SYMBOLIC_CPHASE_DELAY, Acquire, Event, Gradient, HardPulse,
                      QuadDelay, Refocus, SelPulse, SequenceIR, ZPulse)
from .system import SpinSystem, cphase_delay_s, free_evolution, quad_evolution


class NonUnitaryEventError(ValueError):
    """Sequence contains gradient/acquire events; use run_trajectory instead."""


def _steps(event: Event, sys: SpinSystem) -> list[tuple[np.ndarray, float | None]]:
    """Propagators of one event in time order, each with the time it relaxes for
    (None for a pulse). A refocus block relaxes in its two free-evolution
    halves, on the transitions its coherences occupy around the inversion."""
    if isinstance(event, HardPulse):
        return [(hard_pulse(sys, event.axis, event.angle_rad), None)]
    if isinstance(event, SelPulse):
        if event.shape is None:
            return [(selective_pulse(sys, event.transition, event.axis,
                                     event.angle_rad), None)]
        return [(shaped_pulse(sys, event.transition, event.axis, event.angle_rad,
                              event.shape.duration_s), event.shape.duration_s)]
    if isinstance(event, ZPulse):
        return [(selective_z_closed_form(sys, event.transition, event.angle_rad), None)]
    if isinstance(event, (QuadDelay, Refocus)):
        tau = (cphase_delay_s(sys) if event.tau_text == SYMBOLIC_CPHASE_DELAY
               else event.tau_s)
        if isinstance(event, QuadDelay):
            return [(quad_evolution(sys, tau), tau)]
        half = free_evolution(sys, tau / 2.0)
        return [(half, tau / 2.0), (hard_pulse(sys, "-y", np.pi), None),
                (half, tau / 2.0)]
    raise NonUnitaryEventError(
        f"event {type(event).__name__} at line {event.line} is not unitary; "
        "run the sequence through run_trajectory")


def event_propagator(event: Event, sys: SpinSystem) -> np.ndarray:
    """Unitary propagator of a single (non-gradient, non-acquire) event."""
    steps = _steps(event, sys)
    total = steps[-1][0]
    for u, _ in reversed(steps[:-1]):
        total = total @ u
    return total


def refocus_block(sys: SpinSystem, tau_s: float) -> np.ndarray:
    """tau/2 - hard pi about -y - tau/2 under the full Hamiltonian.

    The echo removes the Zeeman offset, leaving (hard pi) * quad_evolution(tau)
    regardless of offset_hz, because 3 Iz^2 is invariant under the pi flip
    while Iz changes sign. free_evolution rejects a negative or non-finite tau.
    """
    return event_propagator(Refocus(tau_s=tau_s, tau_text=""), sys)


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
                   relax: RelaxationParams | None = None) -> TrajectoryResult:
    """Apply each event in order to the deviation matrix rho0.

    With relax given, relaxation acts after each timed step of the step
    table (quadrupolar delays, the halves of refocusing blocks, shaped
    pulses) and during acquisition, which uses the default line broadening.
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
                                 dwell_s=event.dwell_s, relax=relax)
        elif relax is None:
            rho = conjugate(rho, event_propagator(event, sys))
        else:
            for u, dt in _steps(event, sys):
                rho = conjugate(rho, u)
                if dt is not None:
                    rho = apply_relaxation(rho, dt, relax, sys)
        states.append(rho.copy())
    return TrajectoryResult(states=states, fid=fid)
