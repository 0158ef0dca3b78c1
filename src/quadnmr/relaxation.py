"""Phenomenological T1/T2 relaxation of deviation density matrices.

Populations decay exponentially toward the thermal deviation state with a
single T1. Each single-quantum coherence decays with the T2 of its own
transition; multiple-quantum coherences have no dedicated rate and default
to the outer-transition T2 (overridable via t2_multi_s). coherence_t2_table
is the one table of those rates, built once per parameter set and level
count and shared read-only by apply_relaxation, the FID and the readout's
resolvability check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


@lru_cache(maxsize=8)
def coherence_t2_table(params: RelaxationParams, dim: int) -> np.ndarray:
    """T2 (s) of every coherence rho[i, j] of a dim-level spin, read-only.

    A single-quantum pair (i, i+1) gets t2_central_s when it is the middle
    line of the spectrum (2*i + 2 == dim, so only half-integer spins have
    one) and t2_outer_s otherwise; every multiple-quantum coherence gets
    multi_quantum_t2_s. The diagonal is not used.
    """
    t2 = np.full((dim, dim), params.multi_quantum_t2_s, dtype=float)
    for i in range(dim - 1):
        t2[i, i + 1] = t2[i + 1, i] = (params.t2_central_s if 2 * i + 2 == dim
                                       else params.t2_outer_s)
    t2.flags.writeable = False
    return t2


def coherence_t2_s(params: RelaxationParams, sys: SpinSystem) -> np.ndarray:
    """A writable copy of coherence_t2_table(params, sys.dim)."""
    return coherence_t2_table(params, sys.dim).copy()


def apply_relaxation(rho: np.ndarray, dt_s: float, params: RelaxationParams,
                     sys: SpinSystem) -> np.ndarray:
    """Relax a deviation matrix for a time dt (exact exponential map).

    The map is a semigroup in dt, preserves Hermiticity and has
    equilibrium_state(sys) (Iz) as its fixed point. It keeps the trace only
    of a traceless deviation matrix: the populations decay toward the
    traceless equilibrium, so a trace t ends as t * exp(-dt / T1).
    """
    if not (np.isfinite(dt_s) and dt_s >= 0):
        raise ValueError(
            f"relaxation interval must be finite and nonnegative, got {dt_s}")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (sys.dim, sys.dim):
        raise ValueError(f"state must be {sys.dim}x{sys.dim}, got {rho.shape}")
    out = rho * np.exp(-dt_s / coherence_t2_table(params, sys.dim))
    eq = np.diag(sys.operators.iz).real
    pops = np.diag(rho).real
    np.fill_diagonal(out, eq + (pops - eq) * np.exp(-dt_s / params.t1_s))
    return out
