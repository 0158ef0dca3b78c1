"""Execution of parsed sequences: unitary compilation and state trajectories.

_plan, the one builder of propagators, makes those of a whole event tuple in
one batch, with numpy calls that do not grow with the events and stacks even
of one: the ideal pulses by one expm_from_eigh of the generator factors
gathered per pulse, the shaped pulses by a second, times their free
evolution by stacked matmul, the quadrupolar delays, refocus halves and
z-pulses by one expm_diagonal, the refocus blocks by stacked
matmul, and the T1/T2 decays of all relaxed intervals at once. Ideal pulses
are instantaneous and lossless. compile_unitary multiplies the event
propagators so that the first script line acts first on the state (the total
is P_n ... P_2 P_1); run_trajectory plans, then walks a deviation matrix
through them plus crusher gradients and acquisition, step by step when
relaxation is requested. Neither hands out an array of the plan: each
returns copies or fresh products. A refocus block (tau/2 - hard pi about -y -
tau/2 under the full H) is the hard pi times the quadrupolar evolution over
tau at any offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import expm_diagonal, expm_from_eigh
from .pulses import _generator_table, gradient_crush, hard_pulse, pulse_factors, z_row
from .readout import FID, observable_amplitudes, synthesize_fid
from .relaxation import RelaxationParams, decay_factors, relax_step
from .seqlang import (SYMBOLIC_CPHASE_DELAY, Acquire, Gradient, HardPulse, QuadDelay,
                      Refocus, SelPulse, SequenceIR, ZPulse)
from .system import (H_ROW, QUAD_ROW, SpinSystem, _frozen, cphase_delay_s,
                     evolution_coefficient)


class NonUnitaryEventError(ValueError):
    """Sequence contains gradient/acquire events; use run_trajectory instead."""


def _refuse_non_unitary(event, sys=None):
    raise NonUnitaryEventError(
        f"event {type(event).__name__} at line {event.line} is not unitary; "
        "run the sequence through run_trajectory")


@cache
def _inversion(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The hard pi about -y inside every refocus block and its adjoint,
    read-only: every plan of the level count shares them."""
    u = hard_pulse(SpinSystem(spin=(dim - 1) / 2.0), "-y", np.pi)
    uh = u.conj().T
    u.flags.writeable = uh.flags.writeable = False
    return u, uh


def _selective(event, sys):
    shape = event.shape
    if shape is not None and shape.duration_s <= 0:
        raise ValueError("shaped pulse duration must be positive")
    pulse = pulse_factors(sys, event.axis, event.angle_rad, event.transition)
    if shape is None:
        return pulse, None, None, None
    # the pulse, then free evolution over its duration
    return pulse, evolution_coefficient(shape.duration_s), None, shape.duration_s


def _delay(row: int, parts: int):
    """The step parts of a delay whose tau / parts evolves under the row."""
    def parts_of(event, sys):
        tau = cphase_delay_s(sys) if event.tau_text == SYMBOLIC_CPHASE_DELAY else event.tau_s
        return None, None, (evolution_coefficient(tau / parts), row), tau / parts
    return parts_of


# What _plan builds each event type from, each None where it has none: the
# pulse's sign and generator row, the coefficient of the free evolution after it,
# the diagonal exponent (a coefficient and an _exponent_rows row) and the
# relaxed interval. A refocus block is built from its half; gradients and
# acquisitions have no step, and an event of another type is refused.
_STEP_PARTS = {
    HardPulse: lambda e, sys: (pulse_factors(sys, e.axis, e.angle_rad), None, None, None),
    SelPulse: _selective,
    ZPulse: lambda e, sys: (None, None, (e.angle_rad, z_row(sys, e.transition, e.angle_rad)),
                            None),
    QuadDelay: _delay(QUAD_ROW, 1), Refocus: _delay(H_ROW, 2), Gradient: None, Acquire: None}


def _fill(steps, us: np.ndarray) -> None:
    """Put each propagator of the stack us and its adjoint in its step."""
    uhs = us.conj().swapaxes(-1, -2)
    for step, u, uh in zip(steps, list(us), list(uhs)):
        step[:2] = u, uh


def _plan(events, sys: SpinSystem, relax: RelaxationParams | None):
    """Steps of each event, the decays of the relaxed intervals (or None) and
    the error of the first bad event (or None), which the walk raises when it
    reaches that event: the plan stops before it.

    An event's steps are [propagator, its conjugate transpose, interval]
    triples in time order; interval indexes the decays when relaxation
    follows the step. Without relax every unitary event is one step, its
    whole propagator. A gradient or acquisition has None. A refocus block
    relaxes in its two free-evolution halves, on the transitions its
    coherences occupy around the inversion. Each step is made empty and
    filled once the batch is computed.
    """
    plan, pulses, diags, dts, blocks, error = [], ([], []), [], [], [], None
    for event in events:
        parts_of = _STEP_PARTS.get(type(event), _refuse_non_unitary)
        if parts_of is None:
            plan.append(None)
            continue
        try:
            pulse, free, diag, dt = parts_of(event, sys)
        except ValueError as exc:   # a refused event: raised when the walk gets there
            error = exc
            break
        step = [None, None, None]
        if relax is not None and dt is not None:
            step[2] = len(dts)
            dts.append(dt)
        plan.append((step,))
        if pulse is not None:
            sign, row = pulse
            pulses[free is not None].append((row, sign * event.angle_rad, free, step))
            continue
        if type(event) is Refocus and relax is not None:
            plan[-1] = (step, (*_inversion(sys.dim), None), step)
        elif type(event) is Refocus:   # the block is made from its half
            blocks.append(([None, None], step))
            step = blocks[-1][0]
        diags.append((*diag, step))

    for members in filter(None, pulses):   # the ideal pulses, then the shaped
        rows, scales, frees, steps = zip(*members)
        rows = np.array(rows)   # an index array gathers faster than a tuple of ints
        # each pulse's own generator factors, gathered from the table
        w, v, vh = _generator_table(sys.dim)
        us = expm_from_eigh(w[rows][:, None, :], v[rows], vh[rows],
                            np.array(scales)[:, None, None])
        if frees[0] is not None:
            us = expm_diagonal(np.array(frees)[:, None] * sys._h_diag) @ us
        _fill(steps, us)
    if diags:
        coefs, rows, steps = zip(*diags)
        _fill(steps, expm_diagonal(np.array(coefs, dtype=complex)[:, None]
                                   * sys._exponent_rows.take(rows, 0)))
    if blocks:
        halves = np.array([half[0] for half, _ in blocks])
        _fill([step for _, step in blocks], halves @ _inversion(sys.dim)[0] @ halves)
    decays = decay_factors(dts, relax, sys.dim) if dts else None
    return plan, decays, error


def compile_unitary(ir: SequenceIR, sys: SpinSystem | None = None) -> np.ndarray:
    """Net propagator of the sequence (first line applied first to the state)."""
    sys = ir.system() if sys is None else sys
    plan, _, error = _plan(ir.events, sys, None)
    total = None
    for event, steps in zip(ir.events, plan):
        if steps is None:
            _refuse_non_unitary(event)
        # the first propagator itself, not times the identity, which turns
        # some -0.0 entries into +0.0
        total = steps[0][0].copy() if total is None else steps[0][0].dot(total)
    if error is not None:
        raise error
    return np.eye(sys.dim, dtype=complex) if total is None else total


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
    own array. The error of a refused event is raised once the steps before
    it are walked.
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
            for u, uh, k in steps:
                rho = u.dot(rho).dot(uh)     # u rho u^H, the BLAS calls of the @ operator
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
    return _frozen(TrajectoryResult, states=states, fid=fid)
