"""A seeded search over run_dj's whole input space.

Each draw is one run_dj call, and it must read the right class or be
refused: a ValueError (UnresolvedLinesError among them) or an
AmbiguousReadoutError. A wrong class with no error is what the CLI would
print with exit 0. The seeds, the draw count and the ranges are fixed: a
change that alters the outcome of a draw says so in CHANGES.md.
"""

import random

import pytest

from quadnmr import (AmbiguousReadoutError, METHODS, ORACLE_IDS, RelaxationParams, SpinSystem,
                     oracle_class, run_dj)
from quadnmr.dj import SEQUENCE_METHODS

DRAWS = 3000


def draws(seed: int):
    """DRAWS inputs of run_dj, each taken from the stream in this order."""
    rng = random.Random(seed)
    for _ in range(DRAWS):
        oracle = rng.choice(ORACLE_IDS)
        method = rng.choice(METHODS)
        shaped = method in SEQUENCE_METHODS and rng.random() < 0.6
        splitting = 10 ** rng.uniform(1.5, 4.3)
        offset = rng.uniform(-5e3, 5e3) if rng.random() < 0.5 else 0.0
        lb = 10 ** rng.uniform(0, 3)
        points = 2 ** rng.randint(7, 14)
        dwell = 10 ** rng.uniform(-6, -3.5)
        relax = None
        if rng.random() < 0.6:
            relax = RelaxationParams(t1_s=10 ** rng.uniform(-4, 0),
                                     t2_central_s=10 ** rng.uniform(-4, 0),
                                     t2_outer_s=10 ** rng.uniform(-4, 0))
        yield oracle, method, shaped, splitting, offset, lb, points, dwell, relax


def command(oracle, method, shaped, splitting, offset, lb, points, dwell, relax) -> str:
    """The quadnmr command line that runs one draw."""
    words = ["quadnmr", "dj", "--oracle", oracle, "--method", method]
    words += ["--shaped-pulses"] if shaped else []
    words += ["--splitting", repr(splitting), "--offset", repr(offset), "--lb", repr(lb),
              "--dwell", repr(dwell), "--points", str(points)]
    if relax is not None:
        words += ["--relaxation", "--t1", repr(relax.t1_s), "--t2-central",
                  repr(relax.t2_central_s), "--t2-outer", repr(relax.t2_outer_s)]
    return " ".join(words)


@pytest.mark.parametrize("seed", [1, 2])
def test_every_draw_is_right_or_refused(seed):
    wrong = []
    for draw in draws(seed):
        oracle, method, shaped, splitting, offset, lb, points, dwell, relax = draw
        try:
            outcome = run_dj(oracle, SpinSystem.from_splitting(splitting, offset),
                             method=method, relax=relax, shaped_pulses=shaped,
                             points=points, dwell_s=dwell, lb_hz=lb)
        except (ValueError, AmbiguousReadoutError):
            continue
        if outcome.classification != oracle_class(oracle):
            wrong.append(f"{command(*draw)}  # printed {outcome.classification}")
    assert not wrong, f"{len(wrong)} wrong classes with exit 0:\n" + "\n".join(wrong)
