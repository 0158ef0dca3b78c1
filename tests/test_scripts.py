"""Smoke test of the experiment scripts under scripts/: each runs as its own
process, exits 0, prints its table and writes the CSV files it names, and
run_dj_all's spectra have the bytes of the same runs read cold in process.
The package and its modules define every name the scripts and the benchmark
import from them."""

import ast
import importlib
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import quadnmr
from quadnmr import (METHODS, ORACLE_IDS, RelaxationParams, SpinSystem, oracle_class, run_dj,
                     write_spectrum_csv)

from helpers import clear_kept_states, clear_readout_caches

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, outdir, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           "--outdir", str(outdir), *args],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("flags", [(), ("--shaped-pulses", "--relaxation")])
def test_run_dj_all(tmp_path, flags):
    result = run_script("run_dj_all.py", tmp_path, *flags)
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split()[-1] == "classification"
    cells = [row.split() for row in rows]
    assert [(c[0], c[1]) for c in cells] == list(product(ORACLE_IDS, METHODS))
    assert all(c[-1] == oracle_class(c[0]) for c in cells)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{oracle_id}_{method}_{kind}.csv"
        for oracle_id, method in product(ORACLE_IDS, METHODS)
        for kind in ("spectrum", "peaks"))
    # each spectrum has the bytes of the same run read with cold caches,
    # though the script's later runs reuse kept transform rows and states
    relax = RelaxationParams() if "--relaxation" in flags else None
    cold = tmp_path / "cold.csv"
    for oracle_id, method in product(ORACLE_IDS, METHODS):
        clear_readout_caches()
        clear_kept_states()
        outcome = run_dj(oracle_id, SpinSystem.from_splitting(16_000.0), method=method,
                         relax=relax,
                         shaped_pulses="--shaped-pulses" in flags and method != "ideal-matrix")
        write_spectrum_csv(cold, outcome.spectrum)
        assert (tmp_path / f"{oracle_id}_{method}_spectrum.csv").read_bytes() == \
            cold.read_bytes()


def test_equilibrium_spectrum(tmp_path):
    result = run_script("equilibrium_spectrum.py", tmp_path)
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 6
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"spectrum_{label}_lb{lb}.csv"
        for label in ("ideal", "relaxed") for lb in (50, 200, 500))


def test_exports_hold_every_imported_name_and_no_module():
    assert not [name for name in quadnmr.__all__
                if isinstance(getattr(quadnmr, name), type(quadnmr))]
    # read with ast, so that no benchmark file is imported
    callers = [path for folder in ("perfbench", "scripts")
               for path in sorted((ROOT / folder).glob("*.py"))]
    imports = [node for path in callers for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level == 0
               and (node.module or "").split(".")[0] == "quadnmr"]
    imported = {alias.name for node in imports if node.module == "quadnmr"
                for alias in node.names}
    assert {"classify_peaks", "is_unitary", "hard_pulse"} <= imported <= set(quadnmr.__all__)
    # and every name imported from a module of the package is defined there
    from_modules = {(node.module, alias.name) for node in imports if node.module != "quadnmr"
                    for alias in node.names}
    assert ("quadnmr.dj", "SEQUENCE_METHODS") in from_modules
    assert not [(module, name) for module, name in sorted(from_modules)
                if not hasattr(importlib.import_module(module), name)]
