"""Command-line front end.

Subcommands: equilibrium, pseudopure, dj, compile-check. Spectra and peak
tables are written as CSV (headers mandatory, 17-significant-digit floats)
into --outdir, which defaults to $QUADNMR_OUTDIR or the current directory.
Exit codes: 0 success, 1 configuration/parse errors, 2 ambiguous readout;
compile-check returns 4 when --strict is set and the fidelity check fails.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys as _sys
from pathlib import Path

import numpy as np

from . import dj as dj_mod
from .compiler import compile_unitary
from .linalg import conjugate, gate_fidelity_global_phase
from .prep import equilibrium_state, pseudopure_00
from .pulses import hard_pulse
from .readout import (DEFAULT_DWELL_S, DEFAULT_LB_HZ, DEFAULT_POINTS, acquire,
                      write_peaks_csv, write_spectrum_csv)
from .relaxation import (DEFAULT_T1_S, DEFAULT_T2_CENTRAL_S, DEFAULT_T2_OUTER_S,
                         RelaxationParams)
from .seqlang import ParseError, parse_sequence
from .system import DEFAULT_SPLITTING_HZ, SpinSystem

FIDELITY_THRESHOLD = 1.0 - 1e-9

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_AMBIGUOUS = 2
EXIT_STRICT_MISMATCH = 4


def _fail(code: str, message: str) -> int:
    print(f"error[{code}]: {message}", file=_sys.stderr)
    return EXIT_CONFIG


def _warn(code: str, message: str) -> None:
    print(f"warning[{code}]: {message}", file=_sys.stderr)


def _add_system_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--splitting", type=float, default=DEFAULT_SPLITTING_HZ,
                        metavar="HZ", help="adjacent-line splitting in Hz")
    parser.add_argument("--offset", type=float, default=0.0, metavar="HZ",
                        help="rotating-frame offset in Hz")


def _add_acquisition_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--points", type=int, default=DEFAULT_POINTS)
    parser.add_argument("--dwell", type=float, default=DEFAULT_DWELL_S, metavar="S")
    parser.add_argument("--lb", type=float, default=DEFAULT_LB_HZ, metavar="HZ",
                        help="Lorentzian line broadening in Hz")


def _add_relaxation_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--relaxation", action="store_true",
                        help="apply T1/T2 relaxation during timed events")
    parser.add_argument("--t1", type=float, default=DEFAULT_T1_S, metavar="S")
    parser.add_argument("--t2-central", type=float, default=DEFAULT_T2_CENTRAL_S,
                        metavar="S")
    parser.add_argument("--t2-outer", type=float, default=DEFAULT_T2_OUTER_S,
                        metavar="S")


def _outdir(args) -> Path:
    out = args.outdir or os.environ.get("QUADNMR_OUTDIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _system_from(args) -> SpinSystem:
    if args.splitting < 0:
        raise ValueError("splitting must be nonnegative")
    if args.splitting == 0:
        _warn("W_DEGENERATE",
              "zero splitting collapses all transitions onto a single line")
    return SpinSystem.from_splitting(splitting_hz=args.splitting,
                                     offset_hz=args.offset)


def _relax_from(args) -> RelaxationParams | None:
    if not args.relaxation:
        return None
    return RelaxationParams(t1_s=args.t1, t2_central_s=args.t2_central,
                            t2_outer_s=args.t2_outer)


def cmd_equilibrium(args) -> int:
    sys = _system_from(args)
    rho = conjugate(equilibrium_state(sys), hard_pulse(sys, "-y", np.pi / 2.0))
    _, spec = acquire(rho, sys, points=args.points, dwell_s=args.dwell,
                      lb_hz=args.lb, relax=_relax_from(args))
    out = _outdir(args)
    write_spectrum_csv(out / "equilibrium_spectrum.csv", spec)
    write_peaks_csv(out / "equilibrium_peaks.csv", spec)
    for p in spec.peaks:
        print(f"{p.transition} {p.frequency_hz:.1f} Hz integral {p.real_integral:.6g}")
    return EXIT_OK


def cmd_pseudopure(args) -> int:
    sys = _system_from(args)
    rho = pseudopure_00(sys, equilibrium_state(sys))
    out = _outdir(args)
    path = out / "pseudopure_populations.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "population"])
        for label, pop in zip(sys.labels, np.diag(rho).real):
            writer.writerow([label, format(float(pop), ".17g")])
    print(" ".join(f"{label}={pop:.4g}"
                   for label, pop in zip(sys.labels, np.diag(rho).real)))
    return EXIT_OK


def cmd_dj(args) -> int:
    sys = _system_from(args)
    outcome = dj_mod.run_dj(args.oracle, sys, method=args.method,
                            relax=_relax_from(args),
                            shaped_pulses=args.shaped_pulses,
                            points=args.points, dwell_s=args.dwell, lb_hz=args.lb)
    out = _outdir(args)
    stem = f"dj_{args.oracle}_{args.method}"
    write_spectrum_csv(out / f"{stem}_spectrum.csv", outcome.spectrum)
    write_peaks_csv(out / f"{stem}_peaks.csv", outcome.spectrum)
    print(outcome.classification)
    return EXIT_OK


def _load_target(name: str) -> np.ndarray:
    if name in ("u1", "u2", "u3", "u4"):
        return dj_mod.oracle_matrix("f" + name[1])
    path = Path(name)
    if not path.exists():
        raise ValueError(f"target {name!r} is neither u1..u4 nor a readable file")
    if path.suffix == ".npy":
        matrix = np.load(path)
    else:
        matrix = np.loadtxt(path, dtype=complex)
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"target matrix in {name!r} is not square")
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"target matrix in {name!r} has non-finite entries")
    return matrix


def cmd_compile_check(args) -> int:
    text = Path(args.file).read_text()
    ir = parse_sequence(text)
    compiled = compile_unitary(ir)
    target = _load_target(args.against)
    if target.shape != compiled.shape:
        raise ValueError(f"target is {target.shape}, sequence compiles to "
                         f"{compiled.shape}")
    fidelity = gate_fidelity_global_phase(target, compiled)
    print(f"fidelity {fidelity:.6f}")
    if fidelity >= FIDELITY_THRESHOLD:
        return EXIT_OK
    return EXIT_STRICT_MISMATCH if args.strict else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadnmr",
        description="spin-3/2 two-qubit NMR simulator and sequence compiler")
    parser.add_argument("--outdir", default=None,
                        help="output directory (default: $QUADNMR_OUTDIR or .)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eq = sub.add_parser("equilibrium", help="hard-90 spectrum of the thermal state")
    _add_system_args(p_eq)
    _add_acquisition_args(p_eq)
    _add_relaxation_args(p_eq)
    p_eq.set_defaults(func=cmd_equilibrium)

    p_pp = sub.add_parser("pseudopure", help="populations after pseudopure preparation")
    _add_system_args(p_pp)
    p_pp.set_defaults(func=cmd_pseudopure)

    p_dj = sub.add_parser("dj", help="run the algorithm and classify the oracle")
    p_dj.add_argument("--oracle", required=True, choices=dj_mod.ORACLE_IDS)
    p_dj.add_argument("--method", default="quad-evolution", choices=dj_mod.METHODS)
    p_dj.add_argument("--shaped-pulses", action="store_true",
                      help="use gaussian soft pulses for the oracle's selective pulses")
    _add_system_args(p_dj)
    _add_acquisition_args(p_dj)
    _add_relaxation_args(p_dj)
    p_dj.set_defaults(func=cmd_dj)

    p_cc = sub.add_parser("compile-check",
                          help="compile a .qseq file and compare to a target gate")
    p_cc.add_argument("file", help="sequence file to compile")
    p_cc.add_argument("--against", required=True,
                      help="u1|u2|u3|u4 or a matrix file (.npy or text)")
    p_cc.add_argument("--strict", action="store_true",
                      help="exit nonzero when fidelity is below 1 - 1e-9")
    p_cc.set_defaults(func=cmd_compile_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the config-error code
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        return _fail(exc.code, str(exc))
    except dj_mod.AmbiguousReadoutError as exc:
        print(f"error[E_AMBIGUOUS]: {exc}", file=_sys.stderr)
        return EXIT_AMBIGUOUS
    except (ValueError, OSError) as exc:
        return _fail("E_CONFIG", str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
