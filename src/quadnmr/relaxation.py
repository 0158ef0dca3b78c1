"""Phenomenological T1/T2 relaxation of deviation density matrices.

Populations decay exponentially toward the thermal deviation state with a
single T1. Each single-quantum coherence decays with the T2 of its own
transition; multiple-quantum coherences have no dedicated rate and take
the outer-transition T2. coherence_t2_table is the one table of those rates,
built once per parameter set and level count and shared read-only by
decay_factors and the FID's lines. decay_factors gives the decays of many
intervals at once and relax_step applies one interval's; the compiler calls
the pair for all the relaxed intervals of a sequence. The map is a semigroup
in the interval, preserves Hermiticity and has the equilibrium state (Iz) as
its fixed point; it keeps the trace only of a traceless deviation matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

    def __post_init__(self):
        for name in ("t1_s", "t2_central_s", "t2_outer_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")


@lru_cache(maxsize=8)
def coherence_t2_table(params: RelaxationParams, dim: int) -> np.ndarray:
    """T2 (s) of every coherence rho[i, j] of a dim-level spin, read-only.

    The single-quantum pair (i, i+1) that is the middle line of the spectrum
    (2*i + 2 == dim, so only half-integer spins have one) gets t2_central_s;
    every other coherence gets t2_outer_s. The diagonal is not used.
    """
    t2 = np.full((dim, dim), params.t2_outer_s, dtype=float)
    if dim % 2 == 0:
        i = dim // 2 - 1
        t2[i, i + 1] = t2[i + 1, i] = params.t2_central_s
    t2.flags.writeable = False
    return t2


def decay_factors(dts_s, params: RelaxationParams, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(-dt/T2) of every coherence, shape (n, dim, dim), and exp(-dt/T1),
    shape (n,), for each of the n intervals dts_s. A decay whose exponent
    overflows, as over the ~1e307 s quadrupolar delay of a near-zero
    splitting, reads exactly 0."""
    dts = np.asarray(dts_s, dtype=float)
    with np.errstate(over="ignore"):    # dt / T = inf decays to exactly 0
        return (np.exp(-dts[:, None, None] / coherence_t2_table(params, dim)),
                np.exp(-dts / params.t1_s))


def relax_step(rho: np.ndarray, t2_decay: np.ndarray, t1_decay: float,
               eq: np.ndarray) -> np.ndarray:
    """rho after one interval with the given decays: the coherences shrink and
    the populations relax toward eq, the diagonal of the equilibrium state."""
    out = rho * t2_decay
    out.reshape(-1)[::len(rho) + 1] = eq + (rho.diagonal().real - eq) * t1_decay
    return out
