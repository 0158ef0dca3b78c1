"""Golden output check: sha256 of every default-setting CSV the package writes.

Covers the spectrum and peaks CSVs of run_dj for the 4 oracles x 3 methods
and of the `quadnmr equilibrium` hard-90 spectrum. A change that keeps the
physics bit-identical must reproduce tests/golden_csv_sha256.json unchanged.
A change that legitimately moves the bytes regenerates it with

    PYTHONPATH=src python tests/test_golden.py

and states why (and by how much the numbers moved) in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from quadnmr import METHODS, ORACLE_IDS, run_dj, write_peaks_csv, write_spectrum_csv
from quadnmr.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_csv_sha256.json"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dj_hashes(outdir: Path, oracle_id: str, method: str) -> dict[str, str]:
    spec = run_dj(oracle_id, method=method).spectrum
    stem = f"dj_{oracle_id}_{method}"
    write_spectrum_csv(outdir / f"{stem}_spectrum.csv", spec)
    write_peaks_csv(outdir / f"{stem}_peaks.csv", spec)
    return {name: _sha256(outdir / name)
            for name in (f"{stem}_spectrum.csv", f"{stem}_peaks.csv")}


def equilibrium_hashes(outdir: Path) -> dict[str, str]:
    if main(["--outdir", str(outdir), "equilibrium"]) != 0:
        raise RuntimeError("quadnmr equilibrium failed")
    return {name: _sha256(outdir / name)
            for name in ("equilibrium_spectrum.csv", "equilibrium_peaks.csv")}


def all_hashes(outdir: Path) -> dict[str, str]:
    hashes = {}
    for oracle_id in ORACLE_IDS:
        for method in METHODS:
            hashes.update(dj_hashes(outdir, oracle_id, method))
    hashes.update(equilibrium_hashes(outdir))
    return hashes


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert len(golden) == 2 * (len(ORACLE_IDS) * len(METHODS) + 1)


@pytest.mark.parametrize("oracle_id", ORACLE_IDS)
@pytest.mark.parametrize("method", METHODS)
def test_dj_csv_bytes(tmp_path, golden, oracle_id, method):
    for name, digest in dj_hashes(tmp_path, oracle_id, method).items():
        assert digest == golden[name], name


def test_equilibrium_csv_bytes(tmp_path, capsys, golden):
    for name, digest in equilibrium_hashes(tmp_path).items():
        assert digest == golden[name], name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = all_hashes(Path(tmp))
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")
