"""Dense complex-matrix primitives for small spin systems.

All operators are plain ``numpy`` arrays of shape (d, d) with d = 2I+1.
The basis is ordered by descending magnetic quantum number m = I, I-1, ..., -I
throughout the package; ``Iz`` is therefore diagonal with its largest entry
first. Only pulse generators, which are not diagonal, are exponentiated
through an eigendecomposition, which keeps their propagators unitary to
machine precision for the d <= 16 matrices handled here. The pulses module
decomposes each generator once per spin and forms a propagator from those
factors with expm_from_eigh, which the compiler applies to the gathered
factors of all the pulses of a sequence at once; delay and z-pulse propagators are
elementwise exponentials (expm_diagonal). Both take a stack of exponents as
readily as one, so the compiler builds a sequence's propagators in a few
calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

# Default absolute per-entry tolerance for matrix comparisons.
ATOL = 1e-10


def is_hermitian(matrix: np.ndarray, atol: float = ATOL) -> bool:
    matrix = np.asarray(matrix)
    return matrix.ndim == 2 and matrix.shape[0] == matrix.shape[1] and \
        bool(np.max(np.abs(matrix - matrix.conj().T)) <= atol)


def is_unitary(matrix: np.ndarray, atol: float = 1e-9) -> bool:
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    dev = matrix.conj().T @ matrix - np.eye(matrix.shape[0])
    return bool(np.max(np.abs(dev)) <= atol)


@dataclass(frozen=True)
class SpinOperators:
    """Angular-momentum matrices Ix, Iy, Iz for a single spin (hbar = 1)."""

    spin: float
    ix: np.ndarray
    iy: np.ndarray
    iz: np.ndarray

    @property
    def dim(self) -> int:
        return self.iz.shape[0]


# Largest 2I accepted: 16 levels, four qubits.
MAX_TWO_SPIN = 15


def _check_spin(spin: float) -> int:
    two_i = 2.0 * spin
    if two_i == math.inf:            # a spin that doubles past the float range
        two_i = MAX_TWO_SPIN + 1.0   # is refused as too large
    rounded = round(two_i) if math.isfinite(two_i) else 0
    if abs(two_i - rounded) > 1e-12 or rounded < 1:
        raise ValueError(f"spin must be a positive half-integer, got {spin}")
    if rounded > MAX_TWO_SPIN:
        raise ValueError(f"spin must be at most {MAX_TWO_SPIN}/2 "
                         f"({MAX_TWO_SPIN + 1} levels), got {spin}")
    return rounded + 1


def spin_operators(spin: float) -> SpinOperators:
    """Build Ix, Iy, Iz for the given spin in the descending-m basis.

    The raising operator has matrix elements
    <m+1|I+|m> = sqrt(I(I+1) - m(m+1)), which for I = 3/2 puts
    (sqrt(3), 2, sqrt(3)) on the superdiagonal of I+. The result is built
    once per spin and shared, so its arrays are read-only.
    """
    return _spin_operators(_check_spin(spin))


@cache
def _spin_operators(dim: int) -> SpinOperators:
    spin = (dim - 1) / 2.0
    m = spin - np.arange(dim)
    iz = np.diag(m).astype(complex)
    iplus = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        iplus[k - 1, k] = np.sqrt(spin * (spin + 1) - m[k] * (m[k] + 1))
    iminus = iplus.conj().T
    ix = (iplus + iminus) / 2.0
    iy = (iplus - iminus) / 2.0j
    for op in (ix, iy, iz):
        op.flags.writeable = False
    return SpinOperators(spin=spin, ix=ix, iy=iy, iz=iz)


def expm_from_eigh(eigvals: np.ndarray, eigvecs: np.ndarray, eigvecs_h: np.ndarray,
                   scale) -> np.ndarray:
    """Return exp(i * scale * H) from the eigh factors of a Hermitian H,
    H = V diag(w) V^H, given w, V and V^H = eigvecs.conj().T; a scale of
    shape (n, 1, 1) gives the n propagators stacked, and factors stacked
    alike (w of shape (n, 1, d), V and V^H of (n, d, d)) each its own H."""
    return eigvecs * np.exp(1j * scale * eigvals) @ eigvecs_h


def expm_diagonal(exponents: np.ndarray) -> np.ndarray:
    """The diagonal matrix exp(diag(x)) of each row x of exponents, stacked
    like the rows (one (d, d) matrix for a single row of d)."""
    d = exponents.shape[-1]
    out = np.zeros(exponents.shape + (d,), dtype=complex)
    out.reshape(exponents.shape[:-1] + (d * d,))[..., ::d + 1] = np.exp(exponents)
    return out


def gate_fidelity_global_phase(u: np.ndarray, v: np.ndarray) -> float:
    """|Tr(U^dag V)| / d : equals 1 exactly when V = e^{i phi} U."""
    u, v = np.asarray(u), np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    d = u.shape[0]
    return float(abs(np.trace(u.conj().T @ v)) / d)


def conjugate(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sandwich product U rho U^dag of two (d, d) matrices (propagates a
    density matrix through U)."""
    rho, u = np.asarray(rho), np.asarray(u)
    if rho.shape != u.shape or rho.ndim != 2:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {u.shape}")
    return u.dot(rho).dot(u.conj().T)     # the BLAS calls of u @ rho @ u.conj().T
