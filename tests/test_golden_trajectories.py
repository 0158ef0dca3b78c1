"""Golden check of the compiler: every trajectory state, FID and unitary prefix.

For each input sequence this hashes (sha256 of the .17g text of every
complex entry, real and imaginary part):

* each state run_trajectory returns, and the FID samples when the sequence
  acquires, once with relax=None and once with RelaxationParams();
* compile_unitary of every prefix of the events before the first gradient
  or acquire.

The inputs are the bundled .qseq files plus inline texts at a 700 Hz offset
that run a literal, a symbolic and a zero-length refocus, a quadrupolar
delay and gaussian pulses; no golden CSV runs a refocus. The start state is
the thermal deviation matrix after a hard pi/3 about -y, which holds
populations and coherences of every order. A bit-identical change must
reproduce tests/golden_trajectory_sha256.json unchanged; a change that
legitimately moves the bytes regenerates it with

    PYTHONPATH=src python tests/test_golden_trajectories.py

and states why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from quadnmr import (RelaxationParams, SequenceIR, compile_unitary, conjugate,
                     equilibrium_state, hard_pulse, parse_sequence, run_trajectory)
from quadnmr.seqlang import Acquire, Gradient

from conftest import SEQUENCES_DIR

GOLDEN = Path(__file__).resolve().parent / "golden_trajectory_sha256.json"

INLINE = {
    "inline-refocus-offset": """\
system I=3/2 splitting=16kHz offset=700Hz
pulse hard -y pi/2
refocus 40us
refocus pi/(12*lambda)
delay quad 25us
pulse sel 01-11 x pi/2 gaussian 20us
zpulse 10-11 pi/4
refocus 0us
acquire 1024 5us
""",
    "inline-gradient-offset": """\
system I=3/2 splitting=12kHz offset=700Hz
pulse sel 00-01 y pi/sqrt(3)
refocus 125us
delay quad pi/(12*lambda)
gradient
pulse hard x pi/4
pulse sel 10-11 -y pi/sqrt(3) gaussian 50us 128
refocus pi/(12*lambda)
delay quad 0us
""",
    "inline-long-mixed": """\
system I=3/2 splitting=20kHz offset=-300Hz
pulse hard -y pi/2
pulse hard x pi/4
pulse hard y -pi/2
pulse hard -x 6.283185307179586
pulse hard y 0.3
pulse sel 00-01 y pi/sqrt(3)
pulse sel 01-11 x pi/2
pulse sel 11-10 -y -pi/sqrt(3)
pulse sel 10-11 -x 1.25
pulse sel 01-00 x pi
zpulse 01-11 pi/2
zpulse 10-11 pi/4
zpulse 00-01 -pi/4
zpulse 11-01 2.5
delay quad pi/(12*lambda)
delay quad 25us
delay quad 0us
delay quad 3.5us
refocus 40us
refocus pi/(12*lambda)
refocus 0us
refocus 7us
pulse sel 01-11 x pi/2 gaussian 20us
pulse sel 00-01 -y pi/sqrt(3) gaussian 33us 128
pulse sel 11-10 y pi/4 gaussian 12.5us
pulse hard -y pi
delay quad pi/(12*lambda)
pulse sel 01-11 y -pi/2
zpulse 10-11 -pi/2
refocus 15us
pulse hard x pi/2
pulse sel 00-01 x pi/4
delay quad 10us
zpulse 01-11 pi
pulse sel 10-11 y pi/sqrt(3) gaussian 50us
refocus pi/(12*lambda)
pulse hard -x pi/4
pulse sel 01-11 -x 0.7
zpulse 00-01 pi/2
delay quad pi/(12*lambda)
refocus 22us
pulse hard y pi/2
pulse sel 11-10 x -pi/4
zpulse 11-10 0.1
pulse sel 01-11 x pi gaussian 8us
delay quad 1us
refocus 0us
pulse hard -y -pi/2
pulse sel 00-01 y 2.0
zpulse 01-11 -1.5
delay quad pi/(12*lambda)
refocus 3us
pulse hard x 1e-3
pulse sel 01-11 -y pi/2
zpulse 10-11 pi
delay quad 60us
refocus pi/(12*lambda)
gradient
pulse hard -y pi/2
acquire 512 4us
""",
}

RELAX = {"none": None, "relax": RelaxationParams()}


def _texts() -> dict[str, str]:
    texts = {path.name: path.read_text()
             for path in sorted(SEQUENCES_DIR.glob("*.qseq"))}
    texts.update(INLINE)
    return texts


TEXTS = _texts()


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        for value in np.asarray(array, dtype=complex).ravel():
            h.update(f"{value.real:.17g} {value.imag:.17g}\n".encode())
        h.update(b"--\n")
    return h.hexdigest()


def case_hashes(name: str) -> dict[str, str]:
    ir = parse_sequence(TEXTS[name])
    sys = ir.system()
    rho0 = conjugate(equilibrium_state(sys), hard_pulse(sys, "-y", np.pi / 3.0))
    hashes = {}
    for key, relax in RELAX.items():
        result = run_trajectory(ir, sys, rho0, relax=relax)
        arrays = list(result.states)
        if result.fid is not None:
            arrays.append(result.fid.samples)
        hashes[f"{name}/trajectory/{key}"] = _digest(arrays)
    unitary = []
    for event in ir.events:
        if isinstance(event, (Gradient, Acquire)):
            break
        unitary.append(event)
    prefixes = [compile_unitary(SequenceIR(ir.system_decl, tuple(unitary[:k])), sys)
                for k in range(len(unitary) + 1)]
    hashes[f"{name}/unitary-prefixes"] = _digest(prefixes)
    return hashes


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert len(TEXTS) == 10
    assert len(golden) == 3 * len(TEXTS)


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_trajectory_bytes(golden, name):
    for key, digest in case_hashes(name).items():
        assert digest == golden[key], key


if __name__ == "__main__":
    hashes = {}
    for name in sorted(TEXTS):
        hashes.update(case_hashes(name))
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")
