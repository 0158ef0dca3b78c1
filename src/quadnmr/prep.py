"""Thermal equilibrium and pseudopure-state preparation.

Density matrices here are high-temperature *deviation* matrices: traceless,
Hermitian, in arbitrary units with the equilibrium normalization fixed to
Iz itself (populations 3/2, 1/2, -1/2, -3/2 for spin 3/2). Only population
ratios and coherence signs are physically meaningful downstream.
"""

from __future__ import annotations

import numpy as np

from .linalg import conjugate, spin_operators
from .pulses import gradient_crush, selective_pulse
from .system import SpinSystem


def equilibrium_state(sys: SpinSystem) -> np.ndarray:
    """Equilibrium deviation matrix, proportional to Iz (unit scale)."""
    return spin_operators(sys.spin).iz.copy()


def pseudopure_00(sys: SpinSystem) -> np.ndarray:
    """Prepare the pseudopure top-level state from the thermal state.

    Selective population inversion on the 10-11 transition, population
    equilibration (Bloch pi/2) on 01-11, then a crusher gradient. Starting
    from equilibrium, diag(3, 1, -1, -3)/2, the result is diag(3, -1, -1, -1)/2:
    every level except |00> ends at the same deviation population.
    """
    if sys.dim != 4:
        raise ValueError("pseudopure preparation is defined for the four-level system")
    rho = conjugate(equilibrium_state(sys),
                    selective_pulse(sys, "10-11", "y", np.pi / np.sqrt(3.0)))
    rho = conjugate(rho, selective_pulse(sys, "01-11", "y", np.pi / 2.0))
    return gradient_crush(rho)
