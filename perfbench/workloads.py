"""The four benchmark workloads.

Each workload turns a seed into an endless stream of operations and knows how
to run one operation the way a user would (``run``), how to check its output
(``check``), and how to replay it as the sequence of public quadnmr calls it
makes, with a span around each call (``replay``). The replay returns the
largest deviation from the untraced result, so the traced run can show that
tracing changed nothing.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import itertools
import random
import shutil
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import quadnmr
from quadnmr import (METHODS, ORACLE_IDS, RelaxationParams, SequenceIR, SpinSystem,
                     acquire, classify_peaks, compile_unitary, conjugate,
                     equilibrium_state, format_sequence, gate_fidelity_global_phase,
                     hard_pulse, is_unitary, observable_amplitudes, oracle_class,
                     oracle_matrix, oracle_sequence, parse_sequence, pseudopure_00,
                     run_dj, run_trajectory, spectrum, synthesize_fid,
                     write_peaks_csv, write_spectrum_csv)
from quadnmr.dj import SEQUENCE_METHODS
from quadnmr.seqlang import (Acquire, GaussianShape, Gradient, HardPulse, QuadDelay,
                             Refocus, SelPulse, ZPulse)

SPLITTINGS_HZ = (8_000.0, 12_000.0, 16_000.0, 24_000.0, 32_000.0)
OFFSETS_HZ = (0.0, 500.0, -1500.0)
POINTS = (1024, 4096, 16384)
RELAX = RelaxationParams()

# Largest deviation a replay may show from its untraced result. The per-event
# replay is bit-identical today; the tolerance leaves room for a later change
# that reorders floating-point work inside run_trajectory.
REPLAY_TOL = 1e-9

EVENT_KINDS = ("hard", "sel", "shaped", "zpulse", "quad", "refocus", "gradient",
               "acquire")

# Every layer the traced run reports, named after the module and public
# function it times. Layers marked True count calls that raised.
LAYERS = {
    "seqlang.parse_sequence": True,
    "seqlang.format_sequence": False,
    "compiler.compile_unitary": True,
    "compiler.run_trajectory": True,
    **{f"compiler.event.{kind}": False for kind in EVENT_KINDS},
    "prep.pseudopure_00": False,
    "pulses.hard_pulse": False,
    "linalg.conjugate": False,
    "dj.oracle_sequence": False,
    "dj.classify_peaks": True,
    "readout.observable_amplitudes": False,
    "readout.synthesize_fid": True,
    "readout.spectrum": False,
    "readout.write_spectrum_csv": False,
    "readout.write_peaks_csv": False,
}
COUNTS = ("seqlang.lines_parsed", "readout.fid_samples", "readout.fft_points",
          "readout.csv_bytes")


class ReplayMismatch(RuntimeError):
    """A traced replay disagreed with its untraced result."""


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, op id, raised]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.op_id, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        except Exception:
            rec[5] = True
            raise
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, errors, busy (self) time and total time."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _, _, raised), child in zip(self.spans, covered):
            agg = out.setdefault(name, {"calls": 0, "errors": 0,
                                        "busy_s": 0.0, "total_s": 0.0})
            agg["calls"] += 1
            agg["errors"] += raised
            agg["busy_s"] += end - start - child
            agg["total_s"] += end - start
        return out


class Deck:
    """Endless draws from items, reshuffled every round, so any run holds the
    stated mix almost exactly whatever its length."""

    def __init__(self, rng: random.Random, items):
        self.rng, self.items, self.queue = rng, list(items), []

    def draw(self):
        if not self.queue:
            self.queue = self.items[:]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def max_abs(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def event_kind(event) -> str:
    if isinstance(event, SelPulse):
        return "sel" if event.shape is None else "shaped"
    return {HardPulse: "hard", ZPulse: "zpulse", QuadDelay: "quad",
            Refocus: "refocus", Gradient: "gradient", Acquire: "acquire"}[type(event)]


def shaped_copy(ir: SequenceIR, duration_s: float) -> SequenceIR:
    """The sequence with each ideal selective pulse made a gaussian of the
    given duration, as run_dj(..., shaped_pulses=True) builds it."""
    shape = GaussianShape(duration_s=duration_s,
                          duration_text=f"{duration_s * 1e6:.6g}us")
    return SequenceIR(system_decl=ir.system_decl, events=tuple(
        dataclasses.replace(e, shape=shape)
        if isinstance(e, SelPulse) and e.shape is None else e
        for e in ir.events))


def dj_problems(oracle: str, classification: str, integrals) -> list[str]:
    expected = oracle_class(oracle)
    problems = []
    if classification != expected:
        problems.append(f"{oracle} classified {classification}, expected {expected}")
    outer_a, central, outer_b = np.sign(integrals)
    if outer_a == 0 or outer_a != outer_b:
        pattern = "neither"
    else:
        pattern = "constant" if central == outer_a else "balanced"
    if pattern != expected:
        problems.append(f"{oracle} peak signs follow the {pattern} pattern, "
                        f"expected {expected}")
    return problems


def spectrum_digest(spec) -> str:
    h = hashlib.sha1(spec.freq_hz.tobytes())
    h.update(spec.amplitude.tobytes())
    return h.hexdigest()


# --- traced replays of the public call sequence -----------------------------

def replay_trajectory(tr: Tracer, ir: SequenceIR, sys_: SpinSystem, rho,
                      relax):
    """run_trajectory one event at a time on the carried state."""
    fid = None
    with tr.span("compiler.run_trajectory"):
        for event in ir.events:
            one = SequenceIR(system_decl=ir.system_decl, events=(event,))
            with tr.span("compiler.event." + event_kind(event)):
                result = run_trajectory(one, sys_, rho, relax=relax)
            rho = result.states[-1]
            if result.fid is not None:
                fid = result.fid
                tr.counts["readout.fid_samples"] += fid.points
    return rho, fid


def replay_readout(tr: Tracer, rho, sys_: SpinSystem, points: int, relax):
    with tr.span("readout.observable_amplitudes"):
        amps = observable_amplitudes(rho, sys_)
    with tr.span("readout.synthesize_fid"):
        fid = synthesize_fid(amps, sys_, points=points, relax=relax)
    tr.counts["readout.fid_samples"] += fid.points
    with tr.span("readout.spectrum"):
        spec = spectrum(fid, sys_)
    tr.counts["readout.fft_points"] += fid.points
    return spec


def replay_dj(tr: Tracer, oracle: str, sys_: SpinSystem, method: str, relax,
              shaped: bool, points: int):
    """The calls run_dj makes, each under its own span."""
    with tr.span("prep.pseudopure_00"):
        rho = pseudopure_00(sys_)
    with tr.span("pulses.hard_pulse"):
        u = hard_pulse(sys_, "-y", np.pi / 2.0)
    with tr.span("linalg.conjugate"):
        rho = conjugate(rho, u)
    if method == "ideal-matrix":
        u = oracle_matrix(oracle)
        with tr.span("linalg.conjugate"):
            rho = conjugate(rho, u)
    else:
        with tr.span("dj.oracle_sequence"):
            ir = oracle_sequence(oracle, method, sys_)
        if shaped:
            ir = shaped_copy(ir, 1.0 / (3.0 * sys_.lambda_hz))
        rho, _ = replay_trajectory(tr, ir, sys_, rho, relax)
    spec = replay_readout(tr, rho, sys_, points, relax)
    with tr.span("dj.classify_peaks"):
        classification = classify_peaks(spec.peaks)
    return classification, spec, rho


# --- workloads ---------------------------------------------------------------

class Workload:
    name = ""
    trace_ops = 0   # the traced run replays this many operations
    # The tail percentile reported. The untraced run goes on past --seconds
    # until ten samples lie beyond it, so the figure never switches to
    # another percentile when the machine is slow.
    tail = 98.0

    def __init__(self, seed: int, tmp: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tmp = tmp

    def warm_up(self) -> None:
        """Run one operation from another seed's stream, leaving this one
        intact. A failure is only logged: the measured operations count it."""
        other = type(self)(-1, self.tmp)
        try:
            other.run(next(other.ops()))
        except Exception:
            traceback.print_exc()


class DJSweep(Workload):
    """In-process run_dj over every oracle, method, relaxation, system and
    acquisition length; no CSV writing."""

    name = "dj-sweep"
    shaped = False

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.deck = Deck(self.rng, self.combos())
        self.trace_ops = len(self.deck.items)
        self.seen: dict[tuple, str] = {}

    @staticmethod
    def combos():
        return itertools.product(ORACLE_IDS, METHODS, (False, True), SPLITTINGS_HZ,
                                 OFFSETS_HZ, POINTS)

    def ops(self):
        keys = ("oracle", "method", "relax", "splitting", "offset", "points")
        while True:
            yield dict(zip(keys, self.deck.draw()))

    def run(self, op):
        sys_ = SpinSystem.from_splitting(op["splitting"], op["offset"])
        return run_dj(op["oracle"], sys_, method=op["method"],
                      relax=RELAX if op["relax"] else None,
                      shaped_pulses=self.shaped, points=op["points"])

    def check(self, op, out):
        problems = dj_problems(op["oracle"], out.classification, out.peak_signs)
        key, digest = tuple(op.values()), spectrum_digest(out.spectrum)
        if self.seen.setdefault(key, digest) != digest:
            problems.append(f"repeated configuration {key} gave another spectrum")
        return problems

    def replay(self, op, out, tr):
        sys_ = SpinSystem.from_splitting(op["splitting"], op["offset"])
        classification, spec, rho = replay_dj(
            tr, op["oracle"], sys_, op["method"], RELAX if op["relax"] else None,
            self.shaped, op["points"])
        if classification != out.classification:
            raise ReplayMismatch(f"replay classified {classification}")
        return max(max_abs(spec.amplitude, out.spectrum.amplitude),
                   max_abs(rho, out.rho_final))


class ShapedDJ(DJSweep):
    """run_dj with calibrated gaussian pulses, on resonance, where the shaped
    duration wraps the quadrupolar phases."""

    name = "shaped-dj"
    shaped = True
    tail = 90.0

    @staticmethod
    def combos():
        return itertools.product(ORACLE_IDS, SEQUENCE_METHODS, (False, True),
                                 (16_000.0,), (0.0,), (4096,))

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.trace_ops = 2 * len(self.deck.items)


GATE_FILES = {"u2.qseq": "u2", "u3-quad.qseq": "u3", "u3-zcascade.qseq": "u3",
              "u4-quad.qseq": "u4", "u4-zcascade.qseq": "u4"}
# Twenty commands per round: 70% dj, 15% equilibrium, 5% pseudopure and 10%
# compile-check.
COMMANDS = ("dj",) * 14 + ("equilibrium",) * 3 + ("pseudopure",) + \
    ("compile-check",) * 2
PSEUDOPURE_POPULATIONS = (1.5, -0.5, -0.5, -0.5)


def read_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of quadnmr and of every scipy module not
    imported by another scipy module, from ``-X importtime`` output."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, int(cumulative) * 1e-6, name.strip()))
    totals = {"quadnmr": 0.0, "scipy": 0.0}
    stack: list[tuple[int, str]] = []
    # importtime prints a module after the modules it imported: walk backwards
    # so each parent comes before its children.
    for depth, seconds, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name == "quadnmr":
            totals["quadnmr"] += seconds
        if name.split(".")[0] == "scipy" and \
                not any(n.split(".")[0] == "scipy" for _, n in stack):
            totals["scipy"] += seconds
        stack.append((depth, name))
    return totals


class CliCold(Workload):
    """Each operation is one fresh ``quadnmr`` process writing its CSVs."""

    name = "cli-cold"
    trace_ops = 10
    tail = 50.0

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.commands = Deck(self.rng, COMMANDS)
        self.dj = Deck(self.rng, itertools.product(ORACLE_IDS, METHODS,
                                                   (False, True)))
        self.points = Deck(self.rng, POINTS)
        self.gates = Deck(self.rng, GATE_FILES)
        self.sequences = Path(quadnmr.__file__).parent / "sequences"
        self.n_dirs = 0
        self.references: dict[tuple, dict] = {}
        self.first_output: dict[tuple, dict] = {}

    def ops(self):
        while True:
            command = self.commands.draw()
            op = {"command": command, "relax": None}
            if command == "dj":
                op["oracle"], op["method"], op["relax"] = self.dj.draw()
            if command in ("dj", "equilibrium"):
                op["points"] = self.points.draw()
            if command == "compile-check":
                op["file"] = self.gates.draw()
            yield op

    def argv(self, op, outdir: Path, importtime: bool = False) -> list[str]:
        argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + \
            ["-m", "quadnmr.cli", "--outdir", str(outdir), op["command"]]
        if op["command"] == "dj":
            argv += ["--oracle", op["oracle"], "--method", op["method"]]
            if op["relax"]:
                argv.append("--relaxation")
        if op["command"] == "compile-check":
            argv += [str(self.sequences / op["file"]), "--against",
                     GATE_FILES[op["file"]]]
        if "points" in op:
            argv += ["--points", str(op["points"])]
        return argv

    def launch(self, op, importtime: bool = False):
        self.n_dirs += 1
        outdir = self.tmp / f"cli-{self.n_dirs}"
        proc = subprocess.run(self.argv(op, outdir, importtime), capture_output=True,
                              text=True, stdin=subprocess.DEVNULL, timeout=90)
        files = {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))} \
            if outdir.is_dir() else {}
        shutil.rmtree(outdir, ignore_errors=True)
        return proc, files

    def run(self, op):
        return self.launch(op)

    @staticmethod
    def key(op) -> tuple:
        return tuple(sorted(op.items()))

    def reference(self, op) -> dict:
        """The same command computed in process: CSV bytes and results."""
        key = self.key(op)
        if key in self.references:
            return self.references[key]
        ref: dict = {"files": {}}
        sys_ = SpinSystem()
        if op["command"] == "dj":
            outcome = run_dj(op["oracle"], sys_, method=op["method"],
                             relax=RELAX if op["relax"] else None,
                             points=op["points"])
            ref["spectrum"] = outcome.spectrum
            self.write_reference(ref, f"dj_{op['oracle']}_{op['method']}")
        elif op["command"] == "equilibrium":
            rho = conjugate(equilibrium_state(sys_), hard_pulse(sys_, "-y", np.pi / 2))
            _, ref["spectrum"] = acquire(rho, sys_, points=op["points"])
            self.write_reference(ref, "equilibrium")
        elif op["command"] == "compile-check":
            text = (self.sequences / op["file"]).read_text()
            ref["unitary"] = compile_unitary(parse_sequence(text))
        self.references[key] = ref
        return ref

    def write_reference(self, ref: dict, stem: str) -> None:
        for suffix, write in (("spectrum", write_spectrum_csv),
                              ("peaks", write_peaks_csv)):
            path = self.tmp / f"ref_{stem}_{suffix}.csv"
            write(path, ref["spectrum"])
            ref["files"][path.name[len("ref_"):]] = path.read_bytes()
            path.unlink()

    def check(self, op, out):
        proc, files = out
        if proc.returncode != 0:
            return [f"{op['command']} exited {proc.returncode}: "
                    f"{proc.stderr.strip()[-200:]}"]
        problems = []
        ref = self.reference(op)
        stdout = proc.stdout.strip()
        if op["command"] == "dj":
            problems += dj_problems(op["oracle"], stdout,
                                    [p.real_integral for p in ref["spectrum"].peaks])
        if op["command"] == "equilibrium":
            integrals = [p.real_integral for p in ref["spectrum"].peaks]
            # At 1024 points a +-3 lb window holds about six 195 Hz bins and
            # the outer integrals come out 2% low; finer grids are within 1%.
            tol = 0.01 if op["points"] >= 4096 else 0.03
            for outer in (integrals[0], integrals[2]):
                if abs(outer / integrals[1] / 0.75 - 1.0) > tol:
                    problems.append(f"equilibrium integrals {integrals} are not 3:4:3")
        if op["command"] == "pseudopure":
            rows = list(csv.reader(io.StringIO(
                files.get("pseudopure_populations.csv", b"").decode())))
            pops = tuple(float(r[1]) for r in rows[1:])
            if len(pops) != 4 or max_abs(pops, PSEUDOPURE_POPULATIONS) > 1e-9:
                problems.append(f"pseudopure populations {pops}")
        if op["command"] == "compile-check" and stdout != "fidelity 1.000000":
            problems.append(f"compile-check {op['file']} printed {stdout!r}")
        if ref["files"] and files != ref["files"]:
            problems.append(f"{op['command']} CSVs differ from the in-process "
                            f"write_*_csv bytes ({sorted(files)})")
        if self.first_output.setdefault(self.key(op), files) != files:
            problems.append(f"repeated {op['command']} gave other CSV bytes")
        return problems

    def replay(self, op, out, tr):
        with tr.span("cli.process"):
            proc, files = self.launch(op, importtime=True)
        if proc.returncode != 0 or files != out[1]:
            raise ReplayMismatch(f"{op['command']} under -X importtime gave "
                                 "another exit code or other CSVs")
        tr.counts["cli.import_s"] += read_importtime(proc.stderr)["quadnmr"]
        ref = self.reference(op)
        sys_ = SpinSystem()
        with tr.span("cli.compute"):
            if op["command"] == "dj":
                relax = RELAX if op["relax"] else None
                classification, spec, _ = replay_dj(tr, op["oracle"], sys_, op["method"],
                                                    relax, False, op["points"])
                if classification != proc.stdout.strip():
                    raise ReplayMismatch(f"replay classified {classification}")
            elif op["command"] == "equilibrium":
                with tr.span("pulses.hard_pulse"):
                    u = hard_pulse(sys_, "-y", np.pi / 2.0)
                with tr.span("linalg.conjugate"):
                    rho = conjugate(equilibrium_state(sys_), u)
                spec = replay_readout(tr, rho, sys_, op["points"], None)
            elif op["command"] == "pseudopure":
                with tr.span("prep.pseudopure_00"):
                    rho = pseudopure_00(sys_)
                return max_abs(np.diag(rho).real, PSEUDOPURE_POPULATIONS)
            else:
                text = (self.sequences / op["file"]).read_text()
                with tr.span("seqlang.parse_sequence"):
                    ir = parse_sequence(text)
                tr.counts["seqlang.lines_parsed"] += len(text.splitlines())
                with tr.span("compiler.compile_unitary"):
                    u = compile_unitary(ir)
                fidelity = gate_fidelity_global_phase(
                    oracle_matrix("f" + GATE_FILES[op["file"]][1]), u)
                if f"fidelity {fidelity:.6f}" != proc.stdout.strip():
                    raise ReplayMismatch(f"replay fidelity {fidelity}")
                return max_abs(u, ref["unitary"])
        with tr.span("cli.csv"):
            stem = f"dj_{op['oracle']}_{op['method']}" if op["command"] == "dj" \
                else "equilibrium"
            for suffix, write in (("spectrum", write_spectrum_csv),
                                  ("peaks", write_peaks_csv)):
                path = self.tmp / f"replay_{stem}_{suffix}.csv"
                with tr.span(f"readout.write_{suffix}_csv"):
                    write(path, spec)
                data = path.read_bytes()
                path.unlink()
                tr.counts["readout.csv_bytes"] += len(data)
                if data != files[f"{stem}_{suffix}.csv"]:
                    raise ReplayMismatch(f"replay wrote other {suffix} CSV bytes")
        return max_abs(spec.amplitude, ref["spectrum"].amplitude)


# Relative weights of the generated event kinds; gradients only appear in the
# second half so the unitary prefix spans at least half of each sequence.
EVENT_WEIGHTS = {"hard": 2, "sel": 3, "zpulse": 3, "quad": 2, "refocus": 1}
TRANSITIONS = ("00-01", "01-00", "01-11", "11-01", "11-10", "10-11")
SYMBOLIC_ANGLES = ("pi", "pi/2", "pi/4", "pi/sqrt(3)")


class QseqCompile(Workload):
    """Parse, round-trip, compile and run generated .qseq texts of 20-199
    events that never repeat."""

    name = "qseq-compile"
    trace_ops = 100

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        # ten event-count bands of 18, each with relaxation off and on
        self.deck = Deck(self.rng, itertools.product(range(10), (False, True)))

    def ops(self):
        while True:
            band, relax = self.deck.draw()
            n_events = 20 + 18 * band + self.rng.randrange(18)
            yield {"text": self.generate(n_events), "events": n_events,
                   "relax": relax}

    def angle(self) -> str:
        if self.rng.random() < 0.5:
            return self.rng.choice(("", "-")) + self.rng.choice(SYMBOLIC_ANGLES)
        return f"{self.rng.uniform(-np.pi, np.pi):.6f}"

    def duration(self, low_us: float, high_us: float) -> str:
        if self.rng.random() < 0.4:
            return "pi/(12*lambda)"
        value = self.rng.uniform(low_us, high_us)
        return f"{value:.3f}us" if self.rng.random() < 0.7 else f"{value / 1e3:.6f}ms"

    def event(self, kind: str) -> str:
        axis = self.rng.choice(("x", "-x", "y", "-y"))
        if kind == "hard":
            return f"pulse hard {axis} {self.angle()}"
        if kind == "sel":
            return f"pulse sel {self.rng.choice(TRANSITIONS)} {axis} {self.angle()}"
        if kind == "zpulse":
            return f"zpulse {self.rng.choice(TRANSITIONS)} {self.angle()}"
        if kind == "quad":
            return f"delay quad {self.duration(1.0, 50.0)}"
        if kind == "refocus":
            return f"refocus {self.duration(5.0, 200.0)}"
        return "gradient"

    def generate(self, n_events: int) -> str:
        rng = self.rng
        offset = rng.choice(OFFSETS_HZ)
        lines = [f"# generated sequence of {n_events} events",
                 f"system I=3/2 splitting={rng.choice(SPLITTINGS_HZ) / 1e3:g}kHz"
                 + (f" offset={offset:g}Hz" if offset else "")]
        with_acquire = rng.random() < 0.5
        body = n_events - with_acquire
        kinds, weights = list(EVENT_WEIGHTS), list(EVENT_WEIGHTS.values())
        for i in range(body):
            if i >= body // 2:
                kinds, weights = kinds[:5] + ["gradient"], weights[:5] + [1]
            lines.append(self.event(rng.choices(kinds, weights)[0]))
            if rng.random() < 0.05:
                lines.append("" if rng.random() < 0.5 else "# note")
        if with_acquire:
            lines.append(f"acquire {rng.choice((1024, 4096))} 5us")
        return "\n".join(lines) + "\n"

    @staticmethod
    def prefix(ir: SequenceIR) -> SequenceIR:
        events = []
        for event in ir.events:
            if isinstance(event, (Gradient, Acquire)):
                break
            events.append(event)
        return SequenceIR(system_decl=ir.system_decl, events=tuple(events))

    def run(self, op):
        ir = parse_sequence(op["text"])
        round_trip = parse_sequence(format_sequence(ir)) == ir
        u = compile_unitary(self.prefix(ir))
        sys_ = ir.system()
        result = run_trajectory(ir, sys_, equilibrium_state(sys_),
                                relax=RELAX if op["relax"] else None)
        return {"round_trip": round_trip, "unitary": u, "rho": result.states[-1],
                "fid": result.fid, "acquire": isinstance(ir.events[-1], Acquire)}

    def check(self, op, out):
        problems = []
        if not out["round_trip"]:
            problems.append("format_sequence did not round-trip")
        if not is_unitary(out["unitary"], atol=1e-9):
            problems.append("compiled prefix is not unitary to 1e-9")
        rho = out["rho"]
        if max_abs(rho, rho.conj().T) > 1e-9 or abs(np.trace(rho)) > 1e-9:
            problems.append("final state is not Hermitian and traceless to 1e-9")
        if out["acquire"] != (out["fid"] is not None):
            problems.append("acquire event and FID disagree")
        return problems

    def replay(self, op, out, tr):
        text = op["text"]
        with tr.span("seqlang.parse_sequence"):
            ir = parse_sequence(text)
        with tr.span("seqlang.format_sequence"):
            canonical = format_sequence(ir)
        with tr.span("seqlang.parse_sequence"):
            again = parse_sequence(canonical)
        tr.counts["seqlang.lines_parsed"] += len(text.splitlines()) + \
            len(canonical.splitlines())
        with tr.span("compiler.compile_unitary"):
            u = compile_unitary(self.prefix(ir))
        sys_ = ir.system()
        rho, fid = replay_trajectory(tr, ir, sys_, equilibrium_state(sys_),
                                     RELAX if op["relax"] else None)
        if (again == ir) != out["round_trip"] or (fid is None) != (out["fid"] is None):
            raise ReplayMismatch("replay round trip or acquisition differs")
        dev = max(max_abs(u, out["unitary"]), max_abs(rho, out["rho"]))
        return dev if fid is None else max(dev, max_abs(fid.samples, out["fid"].samples))


WORKLOADS = {cls.name: cls for cls in (CliCold, DJSweep, ShapedDJ, QseqCompile)}
