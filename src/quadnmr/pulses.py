"""Pulse propagators: hard and transition-selective, and the z-pulse row.

A hard or selective pulse generator depends only on the spin, the x or y
drive and the transition, so the eigendecompositions of all 2 * dim
generators of a level count are computed (each generator's Hermiticity
checked) once per process on first use and kept read-only, stacked in one
table (_generator_table); each pulse then only exponentiates the eigenvalues
(linalg.expm_from_eigh). pulse_factors and z_row check a pulse and name what
it is built from, a sign and a table row or an exponent row; the functions
here build one pulse from them, and the compiler builds all the pulses of a
sequence in one exponential gathered from the table rows. Transitions are
named by their 'label-label' pair, such as '10-11'.

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

# each axis's sign and whether it drives Ix (generator row 0) or Iy (row 1)
_AXES = {"x": (+1.0, 0), "-x": (-1.0, 0), "y": (-1.0, 1), "-y": (+1.0, 1)}


def _unit_element(ix_element: float) -> bool:
    """A unit Ix element makes the angle argument the Bloch angle itself."""
    return abs(ix_element - 1.0) < 1e-12


@cache
def _generator_table(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only eigh factors of every pulse generator of a dim-level spin,
    stacked: w (K, d), v (K, d, d) and vh, the transposed view of v.conj(),
    with K = 2 * dim.

    Rows 0 and 1 are the full Ix and Iy; rows 2 + 2i and 3 + 2i are the Ix
    and Iy block generators of line i, which hold only the two off-diagonal
    elements of the pair (i, i + 1), halved for a unit Ix element.
    """
    ops = spin_operators((dim - 1) / 2.0)
    gens = [ops.ix, ops.iy]
    for i in range(dim - 1):
        unit = _unit_element(float(abs(ops.ix[i, i + 1])))
        for full in (ops.ix, ops.iy):
            gen = np.zeros((dim, dim), dtype=complex)
            gen[i, i + 1], gen[i + 1, i] = full[i, i + 1], full[i + 1, i]
            gens.append(gen / 2.0 if unit else gen)
    if not all(map(is_hermitian, gens)):
        raise ValueError("generator is not Hermitian within tolerance")
    w, v = map(np.array, zip(*map(np.linalg.eigh, gens)))
    conj = v.conj()
    for factor in (w, v, conj):
        factor.flags.writeable = False
    return w, v, conj.swapaxes(-1, -2)


def pulse_factors(sys: SpinSystem, axis: str, angle_rad: float, transition: str | None = None
                  ) -> tuple[float, int]:
    """Sign and generator row (_generator_table) of a hard pulse (transition
    None) or a selective pulse on transition: with w, v, vh the table, the
    pulse is expm_from_eigh(w[row], v[row], vh[row], sign * angle_rad)."""
    if axis not in _AXES:
        raise ValueError(f"pulse axis must be one of x, -x, y, -y, got {axis!r}")
    if not math.isfinite(angle_rad):
        raise ValueError("pulse angle must be finite")
    sign, row = _AXES[axis]
    if transition is None:
        return sign, row
    line = sys._levels.line_index.get(transition)   # sys._line refuses a pair naming none
    return sign, row + 2 + 2 * (sys._line(transition) if line is None else line)


def _pulse(sys: SpinSystem, sign: float, row: int, angle_rad: float) -> np.ndarray:
    w, v, vh = _generator_table(sys.dim)
    return expm_from_eigh(w[row], v[row], vh[row], sign * angle_rad)


def hard_pulse(sys: SpinSystem, axis: str, angle_rad: float) -> np.ndarray:
    """Nonselective pulse propagator exp(sign * i * I_axis * angle)."""
    return _pulse(sys, *pulse_factors(sys, axis, angle_rad), angle_rad)


def selective_pulse(sys: SpinSystem, transition: str, axis: str,
                    angle_rad: float) -> np.ndarray:
    """Ideal (instantaneous) transition-selective pulse propagator.

    Identity outside the transition's 2x2 block; rejects forbidden
    transitions such as the |delta m| = 3 pair of spin 3/2.
    """
    return _pulse(sys, *pulse_factors(sys, axis, angle_rad, transition), angle_rad)


def z_row(sys: SpinSystem, transition: str, phi_rad: float) -> int:
    """The row of sys._exponent_rows that phi_rad multiplies in a z-pulse."""
    if not math.isfinite(phi_rad):
        raise ValueError("pulse angle must be finite")
    line = sys._levels.line_index.get(transition)   # sys._line refuses a pair naming none
    return Z_ROW + (sys._line(transition) if line is None else line)


def gradient_crush(rho: np.ndarray) -> np.ndarray:
    """Perfect crusher gradient: zeroes every coherence, keeps populations."""
    rho = np.asarray(rho)
    if np.abs(rho - rho.conj().T).max() > 1e-9:
        raise ValueError("crusher input must be Hermitian")
    out = np.zeros(rho.shape, dtype=complex)
    out.reshape(-1)[::len(rho) + 1] = rho.diagonal()
    return out
