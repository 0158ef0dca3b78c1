"""Reference operations that only the tests use: a dense eigendecomposition
exponential, the global phase between two gates, the composite selective
z-pulse, the dense Hamiltonian and free evolution under it, the post-oracle
states and an entrywise comparison. propagator compiles one event the one way
the package builds propagators, through compile_unitary.
"""

import numpy as np

from quadnmr import SequenceIR, SpinSystem, compile_unitary, oracle_matrix, selective_pulse
from quadnmr.linalg import ATOL, expm_diagonal, expm_from_eigh, is_hermitian
from quadnmr.pulses import _unit_element
from quadnmr.seqlang import SystemDecl
from quadnmr.system import Transition, _z_orientation


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
    x_axis = "x" if _z_orientation(tr) > 0 else "-x"
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
