"""Spin system definition, rotating-frame Hamiltonian and its lines.

A system is parameterized by the *observed* adjacent-line splitting of its
spectrum rather than the bare coupling constant: for spin 3/2 the three
single-quantum lines sit at -splitting, 0, +splitting on resonance, and the
coupling entering the Hamiltonian is splitting/6. Internally all energies are
angular frequencies (rad/s); every public field and return value uses Hz.
"""

from __future__ import annotations

import math
import pickle
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache, update_wrapper

import numpy as np

from .linalg import _check_spin, spin_operators

# Logical labels of the four levels of a spin-3/2 "two qubit" system, in
# descending-m order m = 3/2, 1/2, -1/2, -3/2.
SPIN_32_LABELS = ("00", "01", "11", "10")

DEFAULT_SPLITTING_HZ = 16_000.0

# The rows of SpinSystem._exponent_rows: the quadrupolar term, H, then the
# z-pulse row of each line (i, i+1) at Z_ROW + i.
QUAD_ROW, H_ROW, Z_ROW = 0, 1, 2


class UnknownTransitionError(ValueError):
    """Transition label pair does not name two levels of the system."""


class ForbiddenTransitionError(ValueError):
    """Transition with |delta m| > 1 cannot be driven by a single r.f. field."""


# What the systems of one level count share: the labels, the read-only Iz diagonal
# and its m values as floats, |<i|Ix|i+1>| and 'upper-lower' of each line (i, i+1),
# i by 'a-b' and 'b-a', and the read-only _exponent_rows with QUAD_ROW, H_ROW zero.
_Levels = namedtuple("_Levels", "labels iz_diag m ix line_labels line_index rows")


@cache
def _levels(dim: int) -> _Levels:
    width = max(1, int(np.ceil(np.log2(dim))))
    labels = SPIN_32_LABELS if dim == 4 else tuple(format(k, f"0{width}b") for k in range(dim))
    rows = np.zeros((Z_ROW + dim - 1, dim), dtype=complex)
    line_index = {}
    for i, (a, b) in enumerate(zip(labels, labels[1:])):
        s = _z_orientation(a, b)
        rows[Z_ROW + i, i], rows[Z_ROW + i, i + 1] = -1j * s, +1j * s
        line_index[f"{a}-{b}"] = line_index[f"{b}-{a}"] = i
    rows.flags.writeable = False
    ops = spin_operators((dim - 1) / 2.0)
    m = np.diag(ops.iz).real
    return _Levels(labels, m, tuple(m.tolist()),
                   tuple(float(abs(ops.ix[i, i + 1])) for i in range(dim - 1)),
                   tuple(f"{labels[i]}-{labels[i + 1]}" for i in range(dim - 1)),
                   line_index, rows)


def _frozen(cls, **fields):
    """The frozen dataclass cls holding fields (all of them), without __init__'s setattrs."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


def _exact_cache(maxsize: int):
    """functools.lru_cache(maxsize) keyed by the pickle of the arguments,
    which is equal only for arguments of equal types and bits: 0.0 and
    -0.0, or a float and a numpy scalar of its value, never share an entry,
    so a kept result holds the bits its own arguments would compute. A miss
    calls the function on the arguments read back from the key. The
    decorated function keeps cache_info, cache_clear and cache_parameters."""
    def decorate(fn):
        kept = lru_cache(maxsize)(lambda key: fn(*pickle.loads(key)))

        def call(*args):
            return kept(pickle.dumps(args, pickle.HIGHEST_PROTOCOL))
        call.cache_info, call.cache_clear = kept.cache_info, kept.cache_clear
        call.cache_parameters = kept.cache_parameters
        return update_wrapper(call, fn)
    return decorate


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
    # derived once, not fields: _levels (shared by the level count), _freqs (Hz)
    # of the lines (i, i+1), the read-only _iz_diag, and _diags, the quadrupolar and
    # H diagonals (rad/s) as floats; arrays are built when first read

    def __post_init__(self):
        levels = _levels(_check_spin(self.spin))   # validates the spin value
        for name, value in (("offset_hz", self.offset_hz), ("lambda_hz", self.lambda_hz)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        # the numpy formulas 2 pi lambda (3 m^2 - I(I+1)) and -2 pi offset m +
        # quad, level by level on floats: the same IEEE operations in the same order
        c, s = math.tau * float(self.lambda_hz), float(self.spin) * (float(self.spin) + 1.0)
        o = -math.tau * float(self.offset_hz)
        quad = [c * (3.0 * x * x - s) for x in levels.m]
        h = [o * x + q for x, q in zip(levels.m, quad)]
        freqs = [(a - b) / math.tau for a, b in zip(h, h[1:])]
        if not all(map(math.isfinite, h + freqs)):
            raise ValueError(
                f"offset_hz={self.offset_hz:g} and lambda_hz={self.lambda_hz:g} put the "
                "Hamiltonian or a line frequency beyond the float range")
        self.__dict__.update(labels=levels.labels, _levels=levels, _freqs=tuple(freqs),
                             _iz_diag=levels.iz_diag, _diags=(quad, h))

    @cached_property
    def _exponent_rows(self) -> np.ndarray:
        """Read-only rows whose multiples are the exponents of every diagonal
        propagator: -i*tau times the QUAD_ROW or H_ROW for a delay, and phi
        times a Z_ROW for a z-pulse, which puts -i*s on its line's upper level
        and +i*s on the lower one.
        """
        rows = self._levels.rows.copy()
        rows[QUAD_ROW], rows[H_ROW] = self._diags
        rows.flags.writeable = False
        return rows

    _h_diag = cached_property(lambda self: self._exponent_rows[H_ROW].real)

    @classmethod
    def from_splitting(cls, splitting_hz: float = DEFAULT_SPLITTING_HZ,
                       offset_hz: float = 0.0, spin: float = 1.5) -> "SpinSystem":
        """Construct from the observed adjacent-line splitting (= 6 * lambda)."""
        return cls(spin=spin, offset_hz=offset_hz, lambda_hz=splitting_hz / 6.0)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def splitting_hz(self) -> float:
        return 6.0 * self.lambda_hz

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownTransitionError(f"unknown level label {label!r}") from None

    def _line(self, pair: str) -> int:
        """The index i of the line (i, i+1) that a 'label-label' pair such as
        '10-11' names. Raises UnknownTransitionError for labels that do not
        exist and ForbiddenTransitionError for |delta m| > 1 pairs (e.g. '00-10').
        """
        i = self._levels.line_index.get(pair)
        if i is not None:
            return i
        parts = pair.split("-")
        if len(parts) != 2:
            raise UnknownTransitionError(f"malformed transition label {pair!r}")
        i, j = self.index_of(parts[0]), self.index_of(parts[1])
        if i == j:
            raise UnknownTransitionError(f"transition needs two distinct levels: {pair!r}")
        raise ForbiddenTransitionError(
            f"transition {pair} has |delta m| = {abs(i - j)}; "
            "only single-quantum transitions can be driven")


def _z_orientation(upper_label: str, lower_label: str) -> int:
    """+1 when the upper-index level has the smaller binary label, else -1."""
    return 1 if int(upper_label, 2) < int(lower_label, 2) else -1


def evolution_coefficient(tau_s: float) -> complex:
    """-i*tau, which times a diagonal Hamiltonian is the exponent of its
    propagator over tau; refuses a negative or non-finite tau."""
    if not (math.isfinite(tau_s) and tau_s >= 0):
        raise ValueError(f"evolution time must be finite and nonnegative, got {tau_s}")
    return 1j * -tau_s


def cphase_delay_s(sys: SpinSystem) -> float:
    """Quadrupolar evolution time producing +-45 degree phases: pi/(12*lambda).

    With lambda in angular units this is 1/(24 * lambda_hz) seconds.
    """
    if sys.lambda_hz <= 0:
        raise ValueError("coupling must be positive to derive the delay")
    return 1.0 / (24.0 * sys.lambda_hz)
