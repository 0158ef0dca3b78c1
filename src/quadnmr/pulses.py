"""Pulse propagators: hard and transition-selective, and the z-pulse row.

A hard or selective pulse generator depends only on the spin, the x or y
drive and the transition, so its eigendecomposition is computed (and its
Hermiticity checked) once per process on first use and kept read-only; each
pulse then only exponentiates the eigenvalues (linalg.expm_from_eigh).
pulse_factors and z_row check a pulse and name what it is built from; the
functions here build one pulse from them, and the compiler builds all the
pulses of a sequence from them in one batch. Transitions are named by their
'label-label' pair, such as '10-11'.

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
  difference 2 phi). It equals a y / x / -y composite of selective pulses;
  the closed diagonal form, phi times a row of SpinSystem._exponent_rows
  exponentiated, is what the compiler emits.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .linalg import expm_from_eigh, is_hermitian, spin_operators
from .system import Z_ROW, SpinSystem

_AXIS_SIGN = {"x": +1.0, "-x": -1.0, "y": -1.0, "-y": +1.0}


def _drive(axis: str, angle_rad: float) -> tuple[float, bool]:
    """Sign of a pulse about axis with a finite angle, and whether it drives Ix."""
    if axis not in _AXIS_SIGN:
        raise ValueError(f"pulse axis must be one of x, -x, y, -y, got {axis!r}")
    if not math.isfinite(angle_rad):
        raise ValueError("pulse angle must be finite")
    return _AXIS_SIGN[axis], axis in ("x", "-x")


def _unit_element(ix_element: float) -> bool:
    """A unit Ix element makes the angle argument the Bloch angle itself."""
    return abs(ix_element - 1.0) < 1e-12


@cache
def _generator_factors(dim: int, x_drive: bool, block: tuple[int, int] | None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only eigh factors (w, v) of a pulse generator and v^H, the
    transposed view of v.conj(), built once per key.

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
    conj = eigvecs.conj()
    for factor in (eigvals, eigvecs, conj):
        factor.flags.writeable = False
    return eigvals, eigvecs, conj.T


def pulse_factors(sys: SpinSystem, axis: str, angle_rad: float, transition: str | None = None
                  ) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Sign and generator factors (_generator_factors) of a hard pulse
    (transition None) or a selective pulse on transition: the pulse is
    expm_from_eigh(*factors, sign * angle_rad)."""
    sign, x_drive = _drive(axis, angle_rad)
    block = None
    if transition is not None:
        i = sys._line(transition)
        block = (i, i + 1)
    return sign, _generator_factors(sys.dim, x_drive, block)


def hard_pulse(sys: SpinSystem, axis: str, angle_rad: float) -> np.ndarray:
    """Nonselective pulse propagator exp(sign * i * I_axis * angle)."""
    sign, factors = pulse_factors(sys, axis, angle_rad)
    return expm_from_eigh(*factors, sign * angle_rad)


def selective_pulse(sys: SpinSystem, transition: str, axis: str,
                    angle_rad: float) -> np.ndarray:
    """Ideal (instantaneous) transition-selective pulse propagator.

    Identity outside the transition's 2x2 block; rejects forbidden
    transitions such as the |delta m| = 3 pair of spin 3/2.
    """
    sign, factors = pulse_factors(sys, axis, angle_rad, transition)
    return expm_from_eigh(*factors, sign * angle_rad)


def z_row(sys: SpinSystem, transition: str, phi_rad: float) -> int:
    """The row of sys._exponent_rows that phi_rad multiplies in a z-pulse."""
    if not math.isfinite(phi_rad):
        raise ValueError("pulse angle must be finite")
    return Z_ROW + sys._line(transition)


def gradient_crush(rho: np.ndarray) -> np.ndarray:
    """Perfect crusher gradient: zeroes every coherence, keeps populations."""
    rho = np.asarray(rho)
    if np.abs(rho - rho.conj().T).max() > 1e-9:
        raise ValueError("crusher input must be Hermitian")
    out = np.zeros(rho.shape, dtype=complex)
    out.reshape(-1)[::len(rho) + 1] = rho.diagonal()
    return out
