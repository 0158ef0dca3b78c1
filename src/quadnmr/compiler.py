"""Execution of parsed sequences: unitary compilation and state trajectories.

_plan builds the propagators of a whole event tuple in one batch, with numpy
calls that do not grow with the events: the pulses by one stacked
expm_from_eigh per generator (shaped pulses times their free evolution by
stacked matmul), the quadrupolar delays, refocus halves and z-pulses by one
expm_diagonal, the refocus blocks by stacked matmul, and the T1/T2 decays of
all relaxed intervals at once. Ideal pulses are instantaneous and lossless.
compile_unitary multiplies the event propagators so that the first script
line acts first on the state (the total is P_n ... P_2 P_1); run_trajectory
walks a deviation matrix through them plus crusher gradients and
acquisition, step by step when relaxation is requested. A refocus block
(tau/2 - hard pi about -y - tau/2 under the full H) is the hard pi times the
quadrupolar evolution over tau at any offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import expm_diagonal, expm_from_eigh
from .pulses import gradient_crush, hard_pulse, pulse_factors, z_row
from .readout import FID, observable_amplitudes, synthesize_fid
from .relaxation import RelaxationParams, decay_factors, relax_step
from .seqlang import (SYMBOLIC_CPHASE_DELAY, Acquire, Gradient, HardPulse, QuadDelay,
                      Refocus, SelPulse, SequenceIR, ZPulse)
from .system import H_ROW, QUAD_ROW, SpinSystem, cphase_delay_s, evolution_coefficient


class NonUnitaryEventError(ValueError):
    """Sequence contains gradient/acquire events; use run_trajectory instead."""


def _non_unitary(event) -> NonUnitaryEventError:
    return NonUnitaryEventError(
        f"event {type(event).__name__} at line {event.line} is not unitary; "
        "run the sequence through run_trajectory")


@cache
def _inversion(dim: int) -> np.ndarray:
    """The hard pi about -y inside every refocus block, read-only."""
    u = hard_pulse(SpinSystem(spin=(dim - 1) / 2.0), "-y", np.pi)
    u.flags.writeable = False
    return u


def _plan(events, sys: SpinSystem, relax: RelaxationParams | None):
    """Steps of each event, the decays of the relaxed intervals (or None) and
    the error of the first bad event (or None), which the walk raises when it
    reaches that event: the plan stops before it.

    An event's steps are [propagator, interval] pairs in time order; interval
    indexes the decays when relaxation follows the step. Without relax every
    unitary event is one step, its whole propagator. A gradient or acquisition
    has None. A refocus block relaxes in its two free-evolution halves, on the
    transitions its coherences occupy around the inversion. Each step is made
    empty and filled once the batch is computed.
    """
    plan, groups, diags, dts, blocks, error = [], {}, [], [], [], None
    for event in events:
        if isinstance(event, (Gradient, Acquire)):
            plan.append(None)
            continue
        try:
            pulse = free = diag = dt = None
            if isinstance(event, HardPulse):
                pulse = pulse_factors(sys, event.axis, event.angle_rad)
            elif isinstance(event, SelPulse):
                shape = event.shape
                if shape is not None and shape.duration_s <= 0:
                    raise ValueError("shaped pulse duration must be positive")
                pulse = pulse_factors(sys, event.axis, event.angle_rad, event.transition)
                if shape is not None:   # the pulse, then free evolution over it
                    free, dt = evolution_coefficient(shape.duration_s), shape.duration_s
            elif isinstance(event, ZPulse):
                diag = (event.angle_rad, z_row(sys, event.transition, event.angle_rad))
            elif isinstance(event, (QuadDelay, Refocus)):
                tau = (cphase_delay_s(sys) if event.tau_text == SYMBOLIC_CPHASE_DELAY
                       else event.tau_s)
                if isinstance(event, QuadDelay):
                    diag, dt = (evolution_coefficient(tau), QUAD_ROW), tau
                else:   # a half of the block
                    diag, dt = (evolution_coefficient(tau / 2.0), H_ROW), tau / 2.0
            else:
                raise _non_unitary(event)
        except ValueError as exc:   # a refused event: raised when the walk gets there
            error = exc
            break
        step = [None, None]
        if relax is not None and dt is not None:
            step[1] = len(dts)
            dts.append(dt)
        plan.append((step,))
        if pulse is not None:
            sign, factors = pulse
            members = groups.setdefault((id(factors), free is None), (factors, []))[1]
            members.append((sign * event.angle_rad, free, step))
            continue
        if isinstance(event, Refocus) and relax is not None:
            plan[-1] = (step, (_inversion(sys.dim), None), step)
        elif isinstance(event, Refocus):   # the block is made from its half
            blocks.append(([None], step))
            step = blocks[-1][0]
        diags.append((*diag, step))

    # a lone pulse or diagonal propagator is computed as one matrix, not a stack
    for (eigvals, eigvecs), members in groups.values():
        scales, frees, steps = zip(*members)
        one = len(steps) == 1
        us = expm_from_eigh(eigvals, eigvecs,
                            scales[0] if one else np.array(scales).reshape(-1, 1, 1))
        if frees[0] is not None:   # shaped pulses
            us = expm_diagonal((frees[0] if one else np.array(frees)[:, None])
                               * sys._h_diag) @ us
        for step, u in zip(steps, (us,) if one else us):
            step[0] = u
    if diags:
        coefs, rows, steps = zip(*diags)
        one = len(steps) == 1
        us = expm_diagonal(coefs[0] * sys._exponent_rows[rows[0]] if one else
                           np.array(coefs, dtype=complex)[:, None]
                           * sys._exponent_rows.take(rows, 0))
        for step, u in zip(steps, (us,) if one else us):
            step[0] = u
    if blocks:
        halves = np.array([half[0] for half, _ in blocks])
        for (_, step), u in zip(blocks, halves @ _inversion(sys.dim) @ halves):
            step[0] = u
    return plan, decay_factors(dts, relax, sys.dim) if dts else None, error


def compile_unitary(ir: SequenceIR, sys: SpinSystem | None = None) -> np.ndarray:
    """Net propagator of the sequence (first line applied first to the state)."""
    sys = ir.system() if sys is None else sys
    plan, _, error = _plan(ir.events, sys, None)
    total = np.eye(sys.dim, dtype=complex)
    for event, steps in zip(ir.events, plan):
        if steps is None:
            raise _non_unitary(event)
        total = steps[0][0] @ total
    if error is not None:
        raise error
    return total


@dataclass(frozen=True)
class TrajectoryResult:
    states: list[np.ndarray]    # state after each event; states[0] is rho0
    fid: FID | None = None


def run_trajectory(ir: SequenceIR, sys: SpinSystem | None, rho0: np.ndarray,
                   relax: RelaxationParams | None = None) -> TrajectoryResult:
    """Apply each event in order to the deviation matrix rho0.

    With relax given, relaxation acts after each timed step (quadrupolar
    delays, the halves of refocusing blocks, shaped pulses) and during
    acquisition, which uses the default line broadening. Every state is its
    own array.
    """
    sys = ir.system() if sys is None else sys
    rho = np.array(rho0, dtype=complex)
    if rho.shape != (sys.dim, sys.dim):
        raise ValueError(f"state must be {sys.dim}x{sys.dim}, got {rho.shape}")
    plan, decays, error = _plan(ir.events, sys, relax)
    states = [rho]
    fid = None
    for event, steps in zip(ir.events, plan):
        if steps is not None:
            for u, k in steps:
                rho = u @ rho @ u.conj().T
                if k is not None:
                    rho = relax_step(rho, decays[0][k], decays[1][k], sys._iz_diag)
        elif isinstance(event, Gradient):
            rho = gradient_crush(rho)
        else:
            amps = observable_amplitudes(rho, sys)
            fid = synthesize_fid(amps, sys, points=event.points,
                                 dwell_s=event.dwell_s, relax=relax)
            rho = rho.copy()
        states.append(rho)
    if error is not None:
        raise error
    return TrajectoryResult(states=states, fid=fid)
