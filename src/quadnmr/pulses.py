"""Pulse propagators: hard, transition-selective, composite z and shaped.

The refocus block (tau/2 - hard pi - tau/2) is compiler.refocus_block.

A hard or selective pulse generator depends only on the spin, the x or y
drive and the transition, so its eigendecomposition is computed (and its
Hermiticity checked) once per process on first use and kept read-only; each
pulse then only exponentiates the eigenvalues, exactly as expm_hermitian
would. A Transition object is accepted only from the system it is used on.

Axis and flip-angle conventions:

* a pulse about -y with angle a is exp(+i Iy a); about +y it is exp(-i Iy a);
  about +x it is exp(+i Ix a) and about -x exp(-i Ix a). The hard 90 about -y
  therefore has first column (1, -sqrt3, sqrt3, -1)/(2 sqrt2) when applied to
  the top level.
* selective pulses act only inside one transition's 2x2 block, whose
  generator holds the two off-diagonal Ix (or Iy) elements of that pair. On
  a transition whose Ix matrix element is 1 (the central transition of spin
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

from functools import cache

import numpy as np

from .linalg import expm_from_eigh, is_hermitian, spin_operators
from .system import (ForbiddenTransitionError, SpinSystem, Transition,
                     UnknownTransitionError, free_evolution)

_AXIS_SIGN = {"x": +1.0, "-x": -1.0, "y": -1.0, "-y": +1.0}


def _resolve_transition(sys: SpinSystem, transition) -> Transition:
    if isinstance(transition, str):
        return sys.transition(transition)
    key = (transition.upper_index, transition.lower_index)
    if sys._transitions.get(key) != transition:
        raise UnknownTransitionError(
            f"transition {transition.label} does not belong to this spin system")
    if transition.kind != "single-quantum-observable":
        raise ForbiddenTransitionError(
            f"transition {transition.label} is not a single-quantum transition")
    return transition


def _drive(axis: str, angle_rad: float) -> tuple[float, bool]:
    """Sign of a pulse about axis with a finite angle, and whether it drives Ix."""
    if axis not in _AXIS_SIGN:
        raise ValueError(f"pulse axis must be one of x, -x, y, -y, got {axis!r}")
    if not np.isfinite(angle_rad):
        raise ValueError("pulse angle must be finite")
    return _AXIS_SIGN[axis], axis in ("x", "-x")


def _unit_element(ix_element: float) -> bool:
    """A unit Ix element makes the angle argument the Bloch angle itself."""
    return abs(ix_element - 1.0) < 1e-12


@cache
def _generator_factors(dim: int, x_drive: bool,
                       block: tuple[int, int] | None) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigh factors (w, v) of a pulse generator, built once per key.

    The generator is the full Ix (x_drive) or Iy for block None; for a block
    (i, j) it holds only the two off-diagonal elements of that pair, halved
    for a unit Ix element. A spin has at most 2 + 2*(dim - 1) entries.
    """
    ops = spin_operators((dim - 1) / 2.0)
    full = ops.ix if x_drive else ops.iy
    gen = full
    if block is not None:
        i, j = block
        gen = np.zeros((dim, dim), dtype=complex)
        gen[i, j], gen[j, i] = full[i, j], full[j, i]
        if _unit_element(float(abs(ops.ix[i, j]))):
            gen = gen / 2.0
    if not is_hermitian(gen):
        raise ValueError("generator is not Hermitian within tolerance")
    eigvals, eigvecs = np.linalg.eigh(gen)
    for factor in (eigvals, eigvecs):
        factor.flags.writeable = False
    return eigvals, eigvecs


def hard_pulse(sys: SpinSystem, axis: str, angle_rad: float) -> np.ndarray:
    """Nonselective pulse propagator exp(sign * i * I_axis * angle)."""
    sign, x_drive = _drive(axis, angle_rad)
    eigvals, eigvecs = _generator_factors(sys.dim, x_drive, None)
    return expm_from_eigh(eigvals, eigvecs, sign * angle_rad)


def _angle_for_bloch(tr: Transition, bloch_rad: float) -> float:
    if _unit_element(tr.ix_element):
        return bloch_rad
    return bloch_rad / (2.0 * tr.ix_element)


def selective_pulse(sys: SpinSystem, transition, axis: str, angle_rad: float) -> np.ndarray:
    """Ideal (instantaneous) transition-selective pulse propagator.

    Identity outside the transition's 2x2 block; rejects forbidden
    transitions such as the |delta m| = 3 pair of spin 3/2, and Transition
    objects that are not this system's own.
    """
    sign, x_drive = _drive(axis, angle_rad)
    tr = _resolve_transition(sys, transition)
    eigvals, eigvecs = _generator_factors(sys.dim, x_drive,
                                          (tr.upper_index, tr.lower_index))
    return expm_from_eigh(eigvals, eigvecs, sign * angle_rad)


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


def shaped_pulse(sys: SpinSystem, transition, axis: str, nominal_angle_rad: float,
                 duration_s: float, n_slices: int = 512) -> np.ndarray:
    """Gaussian soft pulse on one transition, in closed form.

    The drive is confined to the target transition's 2x2 block generator and
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
