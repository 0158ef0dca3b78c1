"""Spin system definition, rotating-frame Hamiltonian and transition table.

A system is parameterized by the *observed* adjacent-line splitting of its
spectrum rather than the bare coupling constant: for spin 3/2 the three
single-quantum lines sit at -splitting, 0, +splitting on resonance, and the
coupling entering the Hamiltonian is splitting/6. Internally all energies are
angular frequencies (rad/s); every public field and return value uses Hz.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import SpinOperators, spin_operators

# Logical labels of the four levels of a spin-3/2 "two qubit" system, in
# descending-m order m = 3/2, 1/2, -1/2, -3/2.
SPIN_32_LABELS = ("00", "01", "11", "10")

DEFAULT_SPLITTING_HZ = 16_000.0


class UnknownTransitionError(ValueError):
    """Transition label pair does not name two levels of the system."""


class ForbiddenTransitionError(ValueError):
    """Transition with |delta m| > 1 cannot be driven by a single r.f. field."""


def _default_labels(dim: int) -> tuple[str, ...]:
    if dim == 4:
        return SPIN_32_LABELS
    width = max(1, int(np.ceil(np.log2(dim))))
    return tuple(format(k, f"0{width}b") for k in range(dim))


@dataclass(frozen=True)
class SpinSystem:
    """Single quadrupolar nucleus in its rotating frame.

    offset_hz is the Zeeman offset (0 = carrier on the central transition);
    lambda_hz is the effective quadrupolar coupling. labels, derived from the
    spin, maps basis index (descending m) to the logical bit-string of that
    level: (00, 01, 11, 10) for spin 3/2, plain binary counting otherwise.
    """

    spin: float = 1.5
    offset_hz: float = 0.0
    lambda_hz: float = DEFAULT_SPLITTING_HZ / 6.0
    labels: tuple[str, ...] = field(init=False)
    # derived and built once: every level pair (i < j), adjacent pairs first,
    # and the read-only diagonals (rad/s) of the quadrupolar term and of H
    _transitions: dict[tuple[int, int], Transition] = field(
        init=False, compare=False, repr=False)
    _quad_diag: np.ndarray = field(init=False, compare=False, repr=False)
    _h_diag: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ops = spin_operators(self.spin)  # validates the spin value
        for name, value in (("offset_hz", self.offset_hz), ("lambda_hz", self.lambda_hz)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        object.__setattr__(self, "labels", _default_labels(ops.dim))
        m = np.diag(ops.iz).real
        quad = 2.0 * np.pi * self.lambda_hz * (3.0 * m * m - self.spin * (self.spin + 1.0))
        h_diag = -2.0 * np.pi * self.offset_hz * m + quad
        for name, diag in (("_quad_diag", quad), ("_h_diag", h_diag)):
            diag.flags.writeable = False
            object.__setattr__(self, name, diag)
        object.__setattr__(self, "_transitions", {
            (i, i + gap): _build_transition(self, i, i + gap)
            for gap in range(1, ops.dim) for i in range(ops.dim - gap)})

    @classmethod
    def from_splitting(cls, splitting_hz: float = DEFAULT_SPLITTING_HZ,
                       offset_hz: float = 0.0, spin: float = 1.5) -> "SpinSystem":
        """Construct from the observed adjacent-line splitting (= 6 * lambda)."""
        return cls(spin=spin, offset_hz=offset_hz, lambda_hz=splitting_hz / 6.0)

    @property
    def dim(self) -> int:
        return int(round(2 * self.spin)) + 1

    @property
    def splitting_hz(self) -> float:
        return 6.0 * self.lambda_hz

    @property
    def operators(self) -> SpinOperators:
        return spin_operators(self.spin)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownTransitionError(f"unknown level label {label!r}") from None

    def transition(self, pair: str) -> "Transition":
        """Look up a transition by a 'label-label' pair such as '10-11'.

        Raises UnknownTransitionError for labels that do not exist and
        ForbiddenTransitionError for |delta m| > 1 pairs (e.g. '00-10').
        """
        parts = pair.split("-")
        if len(parts) != 2:
            raise UnknownTransitionError(f"malformed transition label {pair!r}")
        i, j = self.index_of(parts[0]), self.index_of(parts[1])
        if i == j:
            raise UnknownTransitionError(f"transition needs two distinct levels: {pair!r}")
        tr = self._transitions[min(i, j), max(i, j)]
        if tr.kind == "forbidden":
            raise ForbiddenTransitionError(
                f"transition {pair} has |delta m| = {abs(i - j)}; "
                "only single-quantum transitions can be driven")
        return tr


@dataclass(frozen=True)
class Transition:
    """One pair of levels; upper refers to the higher-m (lower-index) level."""

    upper_label: str
    lower_label: str
    upper_index: int
    lower_index: int
    kind: str                 # "single-quantum-observable" or "forbidden"
    frequency_hz: float
    ix_element: float         # |<upper|Ix|lower>|

    @property
    def label(self) -> str:
        return f"{self.upper_label}-{self.lower_label}"


def hamiltonian(sys: SpinSystem) -> np.ndarray:
    """Rotating-frame Hamiltonian in rad/s, diagonal in the m basis.

    H = -2*pi*offset * Iz + 2*pi*lambda * (3 Iz^2 - I(I+1) 1); both terms are
    traceless.
    """
    return np.diag(sys._h_diag).astype(complex)


def _build_transition(sys: SpinSystem, i: int, j: int) -> Transition:
    ops = sys.operators
    kind = "single-quantum-observable" if j - i == 1 else "forbidden"
    freq = float((sys._h_diag[i] - sys._h_diag[j]) / (2.0 * np.pi))
    return Transition(
        upper_label=sys.labels[i], lower_label=sys.labels[j],
        upper_index=i, lower_index=j, kind=kind,
        frequency_hz=freq, ix_element=float(abs(ops.ix[i, j])))


def transition_table(sys: SpinSystem, include_forbidden: bool = False) -> list[Transition]:
    """Observable single-quantum transitions, ordered by upper-level index.

    For spin 3/2 on resonance this is 00-01 at +6*lambda, 01-11 at 0 and
    11-10 at -6*lambda, with Ix elements sqrt(3)/2, 1, sqrt(3)/2. With
    include_forbidden=True, |delta m| > 1 pairs are appended flagged
    "forbidden" (for spin 3/2 that includes the 00-10 pair).
    """
    return [tr for tr in sys._transitions.values()
            if include_forbidden or tr.kind != "forbidden"]


def quad_evolution(sys: SpinSystem, tau_s: float) -> np.ndarray:
    """Free-evolution propagator under the quadrupolar term alone.

    Returns exp(-i * 2*pi*lambda * (3 Iz^2 - I(I+1)) * tau). For spin 3/2 this
    is diag(e^{-i3Lt}, e^{+i3Lt}, e^{+i3Lt}, e^{-i3Lt}) with L = 2*pi*lambda,
    so tau = pi/(12 L) yields phases -45/+45/+45/-45 degrees. The Zeeman
    offset is deliberately excluded (on-resonance rotating frame; delays that
    must tolerate an offset go through the refocused block instead).
    """
    return _diagonal_propagator(sys._quad_diag, tau_s)


def free_evolution(sys: SpinSystem, tau_s: float) -> np.ndarray:
    """Propagator exp(-i H tau) under the full Hamiltonian, offset included."""
    return _diagonal_propagator(sys._h_diag, tau_s)


def _diagonal_propagator(diag: np.ndarray, tau_s: float) -> np.ndarray:
    if not (np.isfinite(tau_s) and tau_s >= 0):
        raise ValueError(f"evolution time must be finite and nonnegative, got {tau_s}")
    return np.diag(np.exp(1j * -tau_s * diag))


def cphase_delay_s(sys: SpinSystem) -> float:
    """Quadrupolar evolution time producing +-45 degree phases: pi/(12*lambda).

    With lambda in angular units this is 1/(24 * lambda_hz) seconds.
    """
    if sys.lambda_hz <= 0:
        raise ValueError("coupling must be positive to derive the delay")
    return 1.0 / (24.0 * sys.lambda_hz)
