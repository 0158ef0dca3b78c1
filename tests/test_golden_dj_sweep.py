"""Golden check of run_dj over the benchmark's dj sweep.

The sweep is every oracle, method and relaxation setting on 5 splittings,
3 offsets and 3 point counts: 1080 runs. For each point count and each
(oracle, method) pair this keeps one sha256 over the runs' classes, peak
reprs, phases and the bytes of the spectrum's axis and amplitude, both read
after run_dj returns. A bit-identical change must reproduce
tests/golden_dj_sweep_sha256.json unchanged; a change that legitimately
moves the bytes regenerates it with

    PYTHONPATH=src python tests/test_golden_dj_sweep.py

and states why in CHANGES.md.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from quadnmr import METHODS, ORACLE_IDS, RelaxationParams, SpinSystem, run_dj

GOLDEN = Path(__file__).resolve().parent / "golden_dj_sweep_sha256.json"

SPLITTINGS_HZ = (8_000.0, 12_000.0, 16_000.0, 24_000.0, 32_000.0)
OFFSETS_HZ = (0.0, 500.0, -1500.0)
POINTS = (1024, 4096, 16384)
RELAX = (None, RelaxationParams())


def sweep_hashes(points: int) -> dict[str, str]:
    hashes = {}
    for oracle, method in itertools.product(ORACLE_IDS, METHODS):
        h = hashlib.sha256()
        for relax, splitting, offset in itertools.product(RELAX, SPLITTINGS_HZ, OFFSETS_HZ):
            sys = SpinSystem.from_splitting(splitting, offset)
            outcome = run_dj(oracle, sys, method=method, relax=relax, points=points)
            spec = outcome.spectrum
            h.update(f"{outcome.classification} {spec.peaks!r} {spec.phase_rad!r}\n".encode())
            h.update(spec.freq_hz.tobytes())
            h.update(spec.amplitude.tobytes())
        hashes[f"{points}/{oracle}/{method}"] = h.hexdigest()
    return hashes


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_sweep(golden):
    assert len(golden) == len(POINTS) * len(ORACLE_IDS) * len(METHODS)


@pytest.mark.parametrize("points", POINTS)
def test_sweep_bytes(golden, points):
    for key, digest in sweep_hashes(points).items():
        assert digest == golden[key], key


if __name__ == "__main__":
    hashes = {}
    for points in POINTS:
        hashes.update(sweep_hashes(points))
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")
