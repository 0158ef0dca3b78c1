"""Pulse propagators: hard, transition-selective, composite z, shaped, refocused.

Axis and flip-angle conventions:

* a pulse about -y with angle a is exp(+i Iy a); about +y it is exp(-i Iy a);
  about +x it is exp(+i Ix a) and about -x exp(-i Ix a). The hard 90 about -y
  therefore has first column (1, -sqrt3, sqrt3, -1)/(2 sqrt2) when applied to
  the top level.
* selective pulses act only inside one transition's 2x2 block. On a
  transition whose Ix matrix element is 1 (the central transition of spin
  3/2) the angle argument equals the Bloch rotation angle, so a "pi" pulse
  inverts populations. On any other transition the raw block generator is
  exponentiated, so the Bloch angle is 2*|Ix_element|*angle and an outer-line
  inversion of spin 3/2 is written pi/sqrt(3).
* a selective z-pulse with angle phi multiplies the block level with the
  smaller binary label by e^{-i phi} and the other by e^{+i phi} (phase
  difference 2 phi). It is realized as a y / x / -y composite of selective
  pulses and the closed diagonal form is what the compiler emits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import expm_hermitian
from .system import (ForbiddenTransitionError, SpinSystem, Transition,
                     free_evolution)

_AXIS_SIGN = {"x": +1.0, "-x": -1.0, "y": -1.0, "-y": +1.0}


def _resolve_transition(sys: SpinSystem, transition) -> Transition:
    if isinstance(transition, str):
        return sys.transition(transition)
    if transition.kind != "single-quantum-observable":
        raise ForbiddenTransitionError(
            f"transition {transition.label} is not a single-quantum transition")
    return transition


@dataclass(frozen=True)
class SubspaceOperator:
    """Full-dimension embeddings of Ix and Iy restricted to one transition."""

    transition: Transition
    ix_sub: np.ndarray
    iy_sub: np.ndarray


def subspace_operators(sys: SpinSystem, transition) -> SubspaceOperator:
    tr = _resolve_transition(sys, transition)
    ops = sys.operators
    i, j = tr.upper_index, tr.lower_index
    ix_sub = np.zeros((sys.dim, sys.dim), dtype=complex)
    iy_sub = np.zeros((sys.dim, sys.dim), dtype=complex)
    for a in (i, j):
        for b in (i, j):
            ix_sub[a, b] = ops.ix[a, b]
            iy_sub[a, b] = ops.iy[a, b]
    return SubspaceOperator(transition=tr, ix_sub=ix_sub, iy_sub=iy_sub)


def hard_pulse(sys: SpinSystem, axis: str, angle_rad: float) -> np.ndarray:
    """Nonselective pulse propagator exp(sign * i * I_axis * angle)."""
    if axis not in _AXIS_SIGN:
        raise ValueError(f"hard pulse axis must be one of x, -x, y, -y, got {axis!r}")
    if not np.isfinite(angle_rad):
        raise ValueError("pulse angle must be finite")
    ops = sys.operators
    gen = ops.ix if axis in ("x", "-x") else ops.iy
    return expm_hermitian(gen, _AXIS_SIGN[axis] * angle_rad)


def _selective_generator(sys: SpinSystem, tr: Transition, axis: str) -> np.ndarray:
    sub = subspace_operators(sys, tr)
    gen = sub.ix_sub if axis in ("x", "-x") else sub.iy_sub
    # unit matrix element: angle parameter is the Bloch angle itself
    if abs(tr.ix_element - 1.0) < 1e-12:
        gen = gen / 2.0
    return gen


def bloch_angle(sys: SpinSystem, transition, angle_rad: float) -> float:
    """Rotation angle on the Bloch sphere of the transition's 2x2 subspace."""
    tr = _resolve_transition(sys, transition)
    if abs(tr.ix_element - 1.0) < 1e-12:
        return angle_rad
    return 2.0 * tr.ix_element * angle_rad


def _angle_for_bloch(tr: Transition, bloch_rad: float) -> float:
    if abs(tr.ix_element - 1.0) < 1e-12:
        return bloch_rad
    return bloch_rad / (2.0 * tr.ix_element)


def selective_pulse(sys: SpinSystem, transition, axis: str, angle_rad: float) -> np.ndarray:
    """Ideal (instantaneous) transition-selective pulse propagator.

    Identity outside the transition's 2x2 block; rejects forbidden
    transitions such as the |delta m| = 3 pair of spin 3/2.
    """
    if axis not in _AXIS_SIGN:
        raise ValueError(f"selective pulse axis must be one of x, -x, y, -y, got {axis!r}")
    if not np.isfinite(angle_rad):
        raise ValueError("pulse angle must be finite")
    tr = _resolve_transition(sys, transition)
    gen = _selective_generator(sys, tr, axis)
    return expm_hermitian(gen, _AXIS_SIGN[axis] * angle_rad)


def _z_orientation(tr: Transition) -> int:
    """+1 when the upper-index level has the smaller binary label, else -1."""
    return 1 if int(tr.upper_label, 2) < int(tr.lower_label, 2) else -1


def selective_z_closed_form(sys: SpinSystem, transition, phi_rad: float) -> np.ndarray:
    tr = _resolve_transition(sys, transition)
    u = np.eye(sys.dim, dtype=complex)
    s = _z_orientation(tr)
    u[tr.upper_index, tr.upper_index] = np.exp(-1j * s * phi_rad)
    u[tr.lower_index, tr.lower_index] = np.exp(+1j * s * phi_rad)
    return u


def selective_z_pulse(sys: SpinSystem, transition, phi_rad: float) -> np.ndarray:
    """Composite z-rotation on one transition: y / x / -y selective pulses.

    Applies e^{-i phi} to the block level with the smaller binary label and
    e^{+i phi} to the other (identity elsewhere), matching
    selective_z_closed_form to roundoff. The x pulse carries a Bloch angle of
    2*phi and the two y pulses Bloch angles of pi/2.
    """
    tr = _resolve_transition(sys, transition)
    quarter = _angle_for_bloch(tr, np.pi / 2.0)
    x_axis = "x" if _z_orientation(tr) > 0 else "-x"
    return (selective_pulse(sys, tr, "y", quarter)
            @ selective_pulse(sys, tr, x_axis, _angle_for_bloch(tr, 2.0 * phi_rad))
            @ selective_pulse(sys, tr, "-y", quarter))


def gradient_crush(rho: np.ndarray) -> np.ndarray:
    """Perfect crusher gradient: zeroes every coherence, keeps populations."""
    rho = np.asarray(rho)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
        raise ValueError("crusher input must be Hermitian")
    return np.diag(np.diag(rho)).astype(complex)


def refocus_block(sys: SpinSystem, tau_s: float) -> np.ndarray:
    """tau/2 - hard pi about -y - tau/2 under the full Hamiltonian.

    The echo removes the Zeeman offset, leaving (hard pi) * quad_evolution(tau)
    regardless of offset_hz, because 3 Iz^2 is invariant under the pi flip
    while Iz changes sign. The pi pulse is always about -y, the axis the
    relaxed path of run_trajectory uses too; free_evolution rejects a
    negative or non-finite tau.
    """
    half = free_evolution(sys, tau_s / 2.0)
    return half @ hard_pulse(sys, "-y", np.pi) @ half


def shaped_pulse(sys: SpinSystem, transition, axis: str, nominal_angle_rad: float,
                 duration_s: float, n_slices: int = 512) -> np.ndarray:
    """Gaussian soft pulse on one transition, in closed form.

    The drive is confined to the target transition's subspace operator and
    kept resonant with it. In the interaction frame of the diagonal H0, every
    slice of the envelope is then an exponential of the same block generator,
    so the slice product telescopes to free_evolution(T) after the ideal
    selective pulse: the flip angle is exact for any unit-area envelope, and
    the only idealization error left is the quadrupolar (and offset) phase
    accrued over the duration. With a zero angle the result is the
    free-evolution propagator; when the accrued phases are multiples of 2*pi
    it is the ideal instantaneous selective pulse. A negative angle is the
    positive angle about the opposite axis. n_slices is validated for the
    sequence grammar but does not change the result.
    """
    if duration_s <= 0:
        raise ValueError("shaped pulse duration must be positive")
    if n_slices < 64:
        raise ValueError("shaped pulse needs at least 64 slices")
    pulse = selective_pulse(sys, transition, axis, nominal_angle_rad)
    return free_evolution(sys, duration_s) @ pulse
