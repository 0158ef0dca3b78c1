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


# The batches of _plan: the ideal pulses, the shaped ones, the diagonal propagators.
_IDEAL, _SHAPED, _DIAGONAL = range(3)


def _hard(event, sys):
    sign, row = pulse_factors(sys, event.axis, event.angle_rad)
    return _IDEAL, (row, sign * event.angle_rad, None), None


def _selective(event, sys):
    shape = event.shape
    if shape is not None and shape.duration_s <= 0:
        raise ValueError("shaped pulse duration must be positive")
    sign, row = pulse_factors(sys, event.axis, event.angle_rad, event.transition)
    if shape is None:
        return _IDEAL, (row, sign * event.angle_rad, None), None
    # the pulse, then free evolution over its duration
    return (_SHAPED, (row, sign * event.angle_rad, evolution_coefficient(shape.duration_s)),
            shape.duration_s)


def _delay(row: int, parts: int):
    """The step parts of a delay whose tau / parts evolves under the row."""
    def parts_of(event, sys):
        tau = (cphase_delay_s(sys) if event.tau_text == SYMBOLIC_CPHASE_DELAY
               else event.tau_s) / parts
        return _DIAGONAL, (evolution_coefficient(tau), row), tau
    return parts_of


# What _plan builds each event type from: its batch, its input to the batch (a
# pulse's generator row, its signed angle and the coefficient of the free
# evolution after it or None; a diagonal's coefficient and _exponent_rows row)
# and its relaxed interval or None. A refocus block is built from its half;
# gradients and acquisitions have no step, and an event of another type is
# refused.
_STEP_PARTS = {
    HardPulse: _hard, SelPulse: _selective,
    ZPulse: lambda e, sys: (_DIAGONAL, (e.angle_rad, z_row(sys, e.transition, e.angle_rad)),
                            None),
    QuadDelay: _delay(QUAD_ROW, 1), Refocus: _delay(H_ROW, 2), Gradient: None, Acquire: None}


def _fill(us: list, uhs: list, stack: np.ndarray, adjoint: bool) -> None:
    """Put the stack's propagators in us and, if adjoint, their adjoints in uhs."""
    us.extend(stack)
    if adjoint:
        uhs.extend(stack.conj().swapaxes(-1, -2))


def _plan(events, sys: SpinSystem, relax: RelaxationParams | None, adjoint: bool = True):
    """Steps of each event, the decays of the relaxed intervals (or None) and
    the error of the first bad event (or None), which the walk raises when it
    reaches that event: the plan stops before it.

    An event's steps are (us, uhs, index, interval) in time order: the
    propagator us[index], its conjugate transpose uhs[index] (without adjoint
    uhs stays empty) and the index of the decays when relaxation follows.
    Without relax every unitary event is one step, its whole propagator. A
    gradient or acquisition has None. A refocus block relaxes in its two
    free-evolution halves, on the transitions its coherences occupy around
    the inversion. A batch is (its inputs, us, uhs), filled once computed.
    """
    plan, dts, error = [], [], None
    batches, blocks = [([], [], []) for _ in range(3)], ([], [], [])
    for event in events:
        parts_of = _STEP_PARTS.get(type(event), _refuse_non_unitary)
        if parts_of is None:
            plan.append(None)
            continue
        try:
            batch, item, dt = parts_of(event, sys)
        except ValueError as exc:   # a refused event: raised when the walk gets there
            error = exc
            break
        inputs, us, uhs = batches[batch]
        step = (us, uhs, len(inputs), None if relax is None or dt is None else len(dts))
        inputs.append(item)
        if step[3] is not None:
            dts.append(dt)
        if type(event) is Refocus:
            if relax is not None:
                u, uh = _inversion(sys.dim)
                plan.append((step, ((u,), (uh,), 0, None), step))
                continue
            # the block is made from its half
            step = (blocks[1], blocks[2], len(blocks[0]), None)
            blocks[0].append(len(inputs) - 1)
        plan.append((step,))

    diags = batches[_DIAGONAL]
    for inputs, us, uhs in batches[:_DIAGONAL]:   # the ideal pulses, then the shaped
        if inputs:
            rows, scales, frees = zip(*inputs)
            rows = np.array(rows)   # an index array gathers faster than a tuple of ints
            # each pulse's own generator factors, gathered from the table
            w, v, vh = _generator_table(sys.dim)
            stack = expm_from_eigh(w[rows][:, None, :], v[rows], vh[rows],
                                   np.array(scales)[:, None, None])
            if frees[0] is not None:
                stack = expm_diagonal(np.array(frees)[:, None] * sys._h_diag) @ stack
            _fill(us, uhs, stack, adjoint)
    if diags[0]:
        coefs, rows = zip(*diags[0])
        _fill(diags[1], diags[2], expm_diagonal(np.array(coefs, dtype=complex)[:, None]
                                                * sys._exponent_rows.take(rows, 0)), adjoint)
    if blocks[0]:
        halves = np.array([diags[1][j] for j in blocks[0]])
        _fill(blocks[1], blocks[2], halves @ _inversion(sys.dim)[0] @ halves, adjoint)
    decays = decay_factors(dts, relax, sys.dim) if dts else None
    return plan, decays, error


def compile_unitary(ir: SequenceIR, sys: SpinSystem | None = None) -> np.ndarray:
    """Net propagator of the sequence (first line applied first to the state)."""
    sys = ir.system() if sys is None else sys
    plan, _, error = _plan(ir.events, sys, None, adjoint=False)
    total = None
    for event, steps in zip(ir.events, plan):
        if steps is None:
            _refuse_non_unitary(event)
        us, _, j, _ = steps[0]
        # the first propagator itself, not times the identity, which turns
        # some -0.0 entries into +0.0
        total = us[j].copy() if total is None else us[j].dot(total)
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
            for us, uhs, j, k in steps:
                rho = us[j].dot(rho).dot(uhs[j])     # u rho u^H, the BLAS calls of @
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
