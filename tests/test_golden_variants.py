"""Golden output check for the run_dj variants the default CSVs never reach.

Covers the spectrum and peaks CSVs of run_dj with relaxation (4 oracles x 3
methods), with gaussian shaped pulses (4 oracles x 2 sequence methods) and
with both (4 x 2): 56 files, all of which classify correctly. Like
test_golden.py, a bit-identical change must reproduce
tests/golden_csv_sha256_variants.json unchanged; a change that legitimately
moves the bytes regenerates it with

    PYTHONPATH=src python tests/test_golden_variants.py

and states why in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from quadnmr import (METHODS, ORACLE_IDS, RelaxationParams, run_dj, write_peaks_csv,
                     write_spectrum_csv)
from quadnmr.dj import SEQUENCE_METHODS
from test_golden import _sha256

GOLDEN = Path(__file__).resolve().parent / "golden_csv_sha256_variants.json"

# variant name -> (run_dj keyword arguments, methods it applies to)
VARIANTS = {
    "relax": (dict(relax=RelaxationParams()), METHODS),
    "shaped": (dict(shaped_pulses=True), SEQUENCE_METHODS),
    "relax-shaped": (dict(relax=RelaxationParams(), shaped_pulses=True),
                     SEQUENCE_METHODS),
}
CASES = [(variant, oracle_id, method)
         for variant, (_, methods) in VARIANTS.items()
         for oracle_id in ORACLE_IDS for method in methods]


def variant_hashes(outdir: Path, variant: str, oracle_id: str,
                   method: str) -> dict[str, str]:
    outcome = run_dj(oracle_id, method=method, **VARIANTS[variant][0])
    assert outcome.correct, (variant, oracle_id, method)
    stem = f"dj_{variant}_{oracle_id}_{method}"
    write_spectrum_csv(outdir / f"{stem}_spectrum.csv", outcome.spectrum)
    write_peaks_csv(outdir / f"{stem}_peaks.csv", outcome.spectrum)
    return {name: _sha256(outdir / name)
            for name in (f"{stem}_spectrum.csv", f"{stem}_peaks.csv")}


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_variants_cover_every_case(golden):
    assert len(CASES) == 28
    assert len(golden) == 2 * len(CASES)


@pytest.mark.parametrize("variant,oracle_id,method", CASES)
def test_variant_csv_bytes(tmp_path, golden, variant, oracle_id, method):
    for name, digest in variant_hashes(tmp_path, variant, oracle_id, method).items():
        assert digest == golden[name], name


if __name__ == "__main__":
    import tempfile

    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            hashes.update(variant_hashes(Path(tmp), *case))
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")
