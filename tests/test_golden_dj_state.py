"""Golden check of the states and peak integrals that run_dj produces.

Two sweeps are covered, the benchmark's: the dj sweep at 4096 points (every
oracle, method and relaxation setting on 5 splittings and 3 offsets, 360
runs) and the shaped sweep (every oracle and sequence method, with and
without relaxation, gaussian pulses at 16 kHz on resonance, 16 runs). For
each sweep and (oracle, method) pair this keeps one sha256 over the runs'
final deviation matrices (rho_final.tobytes()) and repr(peak_signs). A
bit-identical change must reproduce tests/golden_dj_state_sha256.json
unchanged; a change that legitimately moves the bytes regenerates it with

    PYTHONPATH=src python tests/test_golden_dj_state.py

and states why in CHANGES.md.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from quadnmr import METHODS, ORACLE_IDS, RelaxationParams, SpinSystem, run_dj
from quadnmr.dj import SEQUENCE_METHODS

GOLDEN = Path(__file__).resolve().parent / "golden_dj_state_sha256.json"

RELAX = (None, RelaxationParams())
# sweep name: (methods, splittings, offsets, shaped_pulses)
SWEEPS = {
    "dj-sweep": (METHODS, (8_000.0, 12_000.0, 16_000.0, 24_000.0, 32_000.0),
                 (0.0, 500.0, -1500.0), False),
    "shaped-dj": (SEQUENCE_METHODS, (16_000.0,), (0.0,), True),
}


def state_hashes(sweep: str) -> dict[str, str]:
    methods, splittings, offsets, shaped = SWEEPS[sweep]
    hashes = {}
    for oracle, method in itertools.product(ORACLE_IDS, methods):
        h = hashlib.sha256()
        for relax, splitting, offset in itertools.product(RELAX, splittings, offsets):
            sys = SpinSystem.from_splitting(splitting, offset)
            outcome = run_dj(oracle, sys, method=method, relax=relax,
                             shaped_pulses=shaped, points=4096)
            h.update(outcome.rho_final.tobytes())
            h.update(f"{outcome.peak_signs!r}\n".encode())
        hashes[f"{sweep}/{oracle}/{method}"] = h.hexdigest()
    return hashes


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_both_sweeps(golden):
    assert len(golden) == len(ORACLE_IDS) * (len(METHODS) + len(SEQUENCE_METHODS))


@pytest.mark.parametrize("sweep", SWEEPS)
def test_state_bytes(golden, sweep):
    for key, digest in state_hashes(sweep).items():
        assert digest == golden[key], key


if __name__ == "__main__":
    hashes = {}
    for sweep in SWEEPS:
        hashes.update(state_hashes(sweep))
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")
