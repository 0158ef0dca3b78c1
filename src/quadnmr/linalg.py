"""Dense complex-matrix primitives for small spin systems.

All operators are plain ``numpy`` arrays of shape (d, d) with d = 2I+1.
The basis is ordered by descending magnetic quantum number m = I, I-1, ..., -I
throughout the package; ``Iz`` is therefore diagonal with its largest entry
first. Only pulse generators, which are not diagonal, are exponentiated
through an eigendecomposition, which keeps their propagators unitary to
machine precision for the d <= 8 matrices handled here. The pulses module
decomposes each generator once per spin and forms every propagator with
expm_from_eigh, the formula expm_hermitian applies to any Hermitian matrix
it is given; delay propagators are elementwise exponentials of the diagonal
Hamiltonian.
"""

from __future__ import annotations

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


def matrices_close(a: np.ndarray, b: np.ndarray, atol: float = ATOL) -> bool:
    """Entrywise comparison with an absolute tolerance."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.max(np.abs(a - b)) <= atol)


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


def _check_spin(spin: float) -> int:
    two_i = 2.0 * spin
    if abs(two_i - round(two_i)) > 1e-12 or round(two_i) < 1:
        raise ValueError(f"spin must be a positive half-integer, got {spin}")
    return int(round(two_i)) + 1


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


def expm_hermitian(hermitian: np.ndarray, scale: float, atol: float = ATOL) -> np.ndarray:
    """Return exp(i * scale * H) for Hermitian H via eigendecomposition.

    Raises ValueError if H is not Hermitian within ``atol``.
    """
    hermitian = np.asarray(hermitian, dtype=complex)
    if not is_hermitian(hermitian, atol=atol):
        raise ValueError("generator is not Hermitian within tolerance")
    eigvals, eigvecs = np.linalg.eigh(hermitian)
    return expm_from_eigh(eigvals, eigvecs, scale)


def expm_from_eigh(eigvals: np.ndarray, eigvecs: np.ndarray, scale: float) -> np.ndarray:
    """Return exp(i * scale * H) from the eigh factors of a Hermitian H."""
    return (eigvecs * np.exp(1j * scale * eigvals)) @ eigvecs.conj().T


def gate_fidelity_global_phase(u: np.ndarray, v: np.ndarray) -> float:
    """|Tr(U^dag V)| / d : equals 1 exactly when V = e^{i phi} U."""
    u, v = np.asarray(u), np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    d = u.shape[0]
    return float(abs(np.trace(u.conj().T @ v)) / d)


def global_phase(u_target: np.ndarray, v: np.ndarray) -> complex:
    """Phase factor c with v ~ c * u_target, from the normalized overlap trace."""
    u_target, v = np.asarray(u_target), np.asarray(v)
    tr = np.trace(u_target.conj().T @ v) / u_target.shape[0]
    return complex(tr / abs(tr)) if abs(tr) > 0 else complex(0)


def conjugate(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sandwich product U rho U^dag (propagates a density matrix through U)."""
    rho, u = np.asarray(rho), np.asarray(u)
    if rho.shape != u.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {u.shape}")
    return u @ rho @ u.conj().T
