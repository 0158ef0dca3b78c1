"""A seeded mutation fuzz of the .qseq reader, printer and compiler.

Each text is a bundled sequence or a text of the golden-parse corpus
(test_golden_parse.corpus) with one or two of its lines mutated by that
corpus's _mutate. The only exception a text may raise is ParseError; a text
that parses prints to a text that parses back to the same IR and prints the
same; and its unitary prefix, the events before the first gradient or
acquisition, compiles to a finite matrix. The seed and the text count are
fixed.
"""

import random

import numpy as np

from quadnmr import ParseError, SequenceIR, compile_unitary, format_sequence, parse_sequence
from quadnmr.seqlang import Acquire, Gradient

from conftest import SEQUENCES_DIR
from test_golden_parse import _mutate, corpus

SEED = 20261020
TEXTS = 10000


def mutants():
    """TEXTS mutated texts, each drawn from the stream in turn."""
    rng = random.Random(SEED)
    bases = [path.read_text() for path in sorted(SEQUENCES_DIR.glob("*.qseq"))]
    bases += corpus().values()
    for _ in range(TEXTS):
        lines = rng.choice(bases).splitlines()
        for _ in range(rng.randint(1, 2)):
            n = rng.randrange(len(lines))
            lines[n] = _mutate(rng, lines[n])
        yield "\n".join(lines) + "\n"


def problem(text: str) -> str | None:
    """What text breaks of the three conditions, or None."""
    try:
        ir = parse_sequence(text)
    except ParseError:
        return None
    except Exception as err:
        return f"parse raised {err!r}"
    printed = format_sequence(ir)
    try:
        again = parse_sequence(printed)
    except ParseError as err:
        return f"its print does not parse: {err}"
    if again != ir or format_sequence(again) != printed:
        return f"its print parses to another IR:\n{printed}"
    events = ir.events
    cut = next((k for k, e in enumerate(events) if type(e) in (Gradient, Acquire)), len(events))
    try:
        unitary = compile_unitary(SequenceIR(ir.system_decl, events[:cut]))
    except Exception as err:
        return f"its unitary prefix raised {err!r}"
    if not np.isfinite(unitary).all():
        return "its unitary prefix is not finite"
    return None


def test_mutants_parse_round_trip_and_compile():
    failures = []
    for text in mutants():
        found = problem(text)
        if found is not None:
            failures.append(f"{found}\n--- text ---\n{text}")
    assert not failures, f"{len(failures)} failing texts, the first:\n{failures[0]}"
