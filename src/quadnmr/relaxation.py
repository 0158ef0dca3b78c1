"""Phenomenological T1/T2 relaxation of deviation density matrices.

Populations decay exponentially toward the thermal deviation state with a
single T1. Each single-quantum coherence decays with the T2 of its own
transition; multiple-quantum coherences have no dedicated rate and default
to the outer-transition T2 (overridable via t2_multi_s). coherence_t2_s is
the one table of those rates, shared by apply_relaxation and the FID.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prep import equilibrium_state
from .system import SpinSystem

# Defaults: one T1 for all lines; the outer lines relax much faster than the
# central one because order-parameter fluctuations hit them to first order.
DEFAULT_T1_S = 16e-3
DEFAULT_T2_CENTRAL_S = 14e-3
DEFAULT_T2_OUTER_S = 4e-3


@dataclass(frozen=True)
class RelaxationParams:
    t1_s: float = DEFAULT_T1_S
    t2_central_s: float = DEFAULT_T2_CENTRAL_S
    t2_outer_s: float = DEFAULT_T2_OUTER_S
    t2_multi_s: float | None = None   # None -> t2_outer_s

    def __post_init__(self):
        for name in ("t1_s", "t2_central_s", "t2_outer_s"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.t2_multi_s is not None and not (np.isfinite(self.t2_multi_s)
                                                and self.t2_multi_s > 0):
            raise ValueError("t2_multi_s must be positive and finite")

    @property
    def multi_quantum_t2_s(self) -> float:
        return self.t2_outer_s if self.t2_multi_s is None else self.t2_multi_s


def coherence_t2_s(params: RelaxationParams, sys: SpinSystem) -> np.ndarray:
    """T2 (s) of every coherence rho[i, j] of sys, as a dim x dim table.

    A single-quantum pair (i, i+1) gets t2_central_s when it is the middle
    line of the spectrum (2*i + 2 == dim, so only half-integer spins have
    one) and t2_outer_s otherwise; every multiple-quantum coherence gets
    multi_quantum_t2_s. The diagonal is not used.
    """
    t2 = np.full((sys.dim, sys.dim), params.multi_quantum_t2_s)
    for i in range(sys.dim - 1):
        t2[i, i + 1] = t2[i + 1, i] = (params.t2_central_s if 2 * i + 2 == sys.dim
                                       else params.t2_outer_s)
    return t2


def apply_relaxation(rho: np.ndarray, dt_s: float, params: RelaxationParams,
                     sys: SpinSystem) -> np.ndarray:
    """Relax a deviation matrix for a time dt (exact exponential map).

    The map is a semigroup in dt, preserves Hermiticity and the trace, and
    has equilibrium_state(sys) as its fixed point.
    """
    if not (np.isfinite(dt_s) and dt_s >= 0):
        raise ValueError(
            f"relaxation interval must be finite and nonnegative, got {dt_s}")
    rho = np.asarray(rho, dtype=complex)
    out = rho * np.exp(-dt_s / coherence_t2_s(params, sys))
    eq = np.diag(equilibrium_state(sys)).real
    pops = np.diag(rho).real
    np.fill_diagonal(out, eq + (pops - eq) * np.exp(-dt_s / params.t1_s))
    return out
