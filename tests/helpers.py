"""Reference operations that only the tests use: a dense eigendecomposition
exponential, the global phase between two gates, the composite selective
z-pulse, the dense Hamiltonian and free evolution under it, the post-oracle
states and an entrywise comparison. propagator compiles one event the one way
the package builds propagators, through compile_unitary. The *_reference
functions are earlier bodies of package code that now computes the same bits
another way: the numpy build of a SpinSystem, the zero-order phase, the
oracle matrices and the crusher.
"""

import cmath
import math

import numpy as np

from quadnmr import (SequenceIR, SpinSystem, compile_unitary, oracle_class, oracle_matrix,
                     selective_pulse)
from quadnmr.linalg import ATOL, expm_diagonal, expm_from_eigh, is_hermitian, spin_operators
from quadnmr.pulses import _unit_element
from quadnmr.seqlang import SystemDecl
from quadnmr.system import H_ROW, QUAD_ROW, SPIN_32_LABELS, Z_ROW, Transition, _z_orientation


def propagator(event, sys: SpinSystem) -> np.ndarray:
    """The compiled propagator of one unitary event on sys."""
    return compile_unitary(SequenceIR(SystemDecl(sys.spin, sys.splitting_hz), (event,)), sys)


def matrices_close(a, b, atol: float = ATOL) -> bool:
    """Entrywise comparison with an absolute tolerance."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.max(np.abs(a - b)) <= atol)


def expm_hermitian(hermitian: np.ndarray, scale: float, atol: float = ATOL) -> np.ndarray:
    """Return exp(i * scale * H) for Hermitian H via eigendecomposition.

    Raises ValueError if H is not Hermitian within ``atol``.
    """
    hermitian = np.asarray(hermitian, dtype=complex)
    if not is_hermitian(hermitian, atol=atol):
        raise ValueError("generator is not Hermitian within tolerance")
    eigvals, eigvecs = np.linalg.eigh(hermitian)
    return expm_from_eigh(eigvals, eigvecs, scale)


def global_phase(u_target: np.ndarray, v: np.ndarray) -> complex:
    """Phase factor c with v ~ c * u_target, from the normalized overlap trace."""
    u_target, v = np.asarray(u_target), np.asarray(v)
    tr = np.trace(u_target.conj().T @ v) / u_target.shape[0]
    return complex(tr / abs(tr)) if abs(tr) > 0 else complex(0)


def _angle_for_bloch(tr: Transition, bloch_rad: float) -> float:
    if _unit_element(tr.ix_element):
        return bloch_rad
    return bloch_rad / (2.0 * tr.ix_element)


def selective_z_pulse(sys: SpinSystem, transition: str, phi_rad: float) -> np.ndarray:
    """Composite z-rotation on one transition: y / x / -y selective pulses.

    Applies e^{-i phi} to the block level with the smaller binary label and
    e^{+i phi} to the other (identity elsewhere), matching the compiled
    z-pulse to roundoff. The x pulse carries a Bloch angle of 2*phi and the
    two y pulses Bloch angles of pi/2.
    """
    tr = sys.transition(transition)
    quarter = _angle_for_bloch(tr, np.pi / 2.0)
    x_axis = "x" if _z_orientation(tr.upper_label, tr.lower_label) > 0 else "-x"
    return (selective_pulse(sys, transition, "y", quarter)
            @ selective_pulse(sys, transition, x_axis, _angle_for_bloch(tr, 2.0 * phi_rad))
            @ selective_pulse(sys, transition, "-y", quarter))


def hamiltonian(sys: SpinSystem) -> np.ndarray:
    """Rotating-frame Hamiltonian in rad/s, diagonal in the m basis.

    H = -2*pi*offset * Iz + 2*pi*lambda * (3 Iz^2 - I(I+1) 1); both terms are
    traceless.
    """
    return np.diag(sys._h_diag).astype(complex)


def free_evolution(sys: SpinSystem, tau_s: float) -> np.ndarray:
    """Propagator exp(-i H tau) under the full Hamiltonian, offset included."""
    return expm_diagonal(-1j * tau_s * sys._h_diag)


def ideal_state_after_oracle(oracle_id: str) -> np.ndarray:
    """The oracle applied to (1, -r3, r3, -1)/(2 r2), the hard 90 about -y of |00>."""
    r3 = np.sqrt(3.0)
    return oracle_matrix(oracle_id) @ (np.array([1.0, -r3, r3, -1.0]) / (2.0 * np.sqrt(2.0)))


def ideal_density_after_oracle(oracle_id: str) -> np.ndarray:
    """Pure-state density matrix of the post-oracle state (trace one)."""
    psi = ideal_state_after_oracle(oracle_id)
    return np.outer(psi, psi.conj())


def spin_system_reference(spin: float, offset_hz: float, lambda_hz: float):
    """labels, the Iz, quadrupolar and H diagonals, the line frequencies,
    the Ix elements and the exponent rows of a SpinSystem, by the numpy
    formulas its build had; the same ValueError when they overflow."""
    ops = spin_operators(spin)
    m = np.diag(ops.iz).real
    with np.errstate(over="ignore", invalid="ignore"):
        quad = 2.0 * np.pi * lambda_hz * (3.0 * m * m - spin * (spin + 1.0))
        h_diag = -2.0 * np.pi * offset_hz * m + quad
        freq_hz = (h_diag[:-1] - h_diag[1:]) / (2.0 * np.pi)
    if not (np.isfinite(h_diag).all() and np.isfinite(freq_hz).all()):
        raise ValueError(
            f"offset_hz={offset_hz:g} and lambda_hz={lambda_hz:g} put the "
            "Hamiltonian or a line frequency beyond the float range")
    dim = ops.dim
    labels = SPIN_32_LABELS if dim == 4 else tuple(
        format(k, f"0{max(1, int(np.ceil(np.log2(dim))))}b") for k in range(dim))
    rows = np.zeros((Z_ROW + dim - 1, dim), dtype=complex)
    rows[QUAD_ROW], rows[H_ROW] = quad, h_diag
    for i in range(dim - 1):
        s = 1 if int(labels[i], 2) < int(labels[i + 1], 2) else -1
        rows[Z_ROW + i, i], rows[Z_ROW + i, i + 1] = -1j * s, +1j * s
    ix = [float(abs(ops.ix[i, i + 1])) for i in range(dim - 1)]
    return labels, m, quad, h_diag, freq_hz.tolist(), ix, rows


def best_phase_reference(integrals: np.ndarray) -> float:
    """The zero-order phase by the complex arithmetic readout._best_phase had."""
    values = integrals.tolist()
    top = max((abs(p) for v in values for p in (v.real, v.imag)), default=0.0)
    if not top:
        return 0.0
    e = math.frexp(top)[1]
    z = [complex(math.ldexp(v.real, -e), math.ldexp(v.imag, -e)) for v in values]
    crossings = sorted((math.pi / 2 - math.atan2(v.imag, v.real)) % math.pi for v in z if v)
    best = 0j
    for a, b in zip(crossings, crossings[1:] + [crossings[0] + math.pi]):
        turn = cmath.exp(0.5j * (a + b))
        total = sum(v if (turn * v).real > 0 else -v for v in z)
        if abs(total) > abs(best):
            best = total
    phase = -math.atan2(best.imag, best.real)
    if (cmath.exp(1j * phase) * z[int(np.argmax(np.abs(integrals)))]).real < 0:
        phase += math.pi
    phase %= 2.0 * math.pi
    return 0.0 if phase == 2.0 * math.pi else phase


def oracle_matrix_reference(oracle_id: str) -> np.ndarray:
    """The oracle matrix as the product of row swaps of the identity."""
    oracle_class(oracle_id)
    eye = np.eye(4, dtype=complex)
    swap_01 = eye[[1, 0, 2, 3]]
    swap_23 = eye[[0, 1, 3, 2]]
    return {"f1": eye, "f2": swap_01 @ swap_23,
            "f3": swap_23, "f4": swap_01}[oracle_id].copy()


def gradient_crush_reference(rho: np.ndarray) -> np.ndarray:
    """The crusher by numpy's diag twice."""
    rho = np.asarray(rho)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
        raise ValueError("crusher input must be Hermitian")
    return np.diag(np.diag(rho)).astype(complex)
