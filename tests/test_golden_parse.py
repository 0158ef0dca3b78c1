"""Golden check of the parser: the outcome of parse_sequence on a fixed corpus.

The corpus is drawn from random.Random(GOLDEN_SEED):

* generated scripts of 20-199 events in the style of the qseq-compile
  benchmark workload, two thirds of them with one or two mutated lines;
* every bundled .qseq file and every file of tests/invalid/ listed in
  INVALID_FILES (without its header line), each line mutated MUTANTS_PER_LINE
  times.

A mutation deletes, duplicates or swaps words, substitutes a word from
SUBSTITUTES, puts a tab, no-break space, em space or file separator (a line
break to str.splitlines) between words or at the line start, cuts the line
short, or starts a '#' comment inside a word.

For each text the test hashes either the canonical print of the IR together
with every field of the declaration and of each event (line and column
included, floats as .17g), or the ParseError's code, line, column and
message. A change that keeps every parse result reproduces
tests/golden_parse_sha256.json unchanged; a change that legitimately moves a
result regenerates it with

    PYTHONPATH=src python tests/test_golden_parse.py

which prints the name of every text whose hash changed (these go in
CHANGES.md with the reason).
"""

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from quadnmr import ParseError, format_sequence, parse_sequence

from conftest import INVALID_DIR, SEQUENCES_DIR

GOLDEN = Path(__file__).resolve().parent / "golden_parse_sha256.json"
GOLDEN_SEED = 20261018
N_GENERATED = 300
MUTANTS_PER_LINE = 4

# the invalid corpus as it stood when this file was made; files added later
# are checked by test_seqlang.py, not here
INVALID_FILES = (
    "acquire_not_last.qseq", "bad_angle.qseq", "bad_duration.qseq",
    "bad_points.qseq", "duplicate_acquire.qseq", "forbidden_transition.qseq",
    "infinite_duration.qseq", "missing_system.qseq", "negative_lambda.qseq",
    "no_lambda.qseq", "same_level_transition.qseq", "trailing_tokens.qseq",
    "unknown_keyword.qseq", "unknown_transition.qseq")

SUBSTITUTES = (
    "tau", "1e400", "-", "00-10", "9us", "gaussian", "I=", "1e400s", "nan",
    "-1us", "0us", "pi/(12*lambda)", "-pi/sqrt(3)", "x", "-y", "q", "01-11",
    "22-33", "00-00", "001-010", "64", "63", "1000", "1024", "5us", "quad",
    "sel", "hard", "pulse", "zpulse", "delay", "refocus", "gradient",
    "acquire", "system", "I=3/2", "I=7/2", "I=0.3", "splitting=16kHz",
    "lambda=-1kHz", "offset=1e400Hz", "offset=100", "kHz", "=", "I=1/0")
SEPARATORS = ("\t", "\u00a0", "\u2003", "\x1c")
TRANSITIONS = ("00-01", "01-00", "01-11", "11-01", "11-10", "10-11")
ANGLES = ("pi", "pi/2", "pi/4", "pi/sqrt(3)")


def _angle(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return rng.choice(("", "-")) + rng.choice(ANGLES)
    return f"{rng.uniform(-3.2, 3.2):.6f}"


def _duration(rng: random.Random, low_us: float, high_us: float) -> str:
    if rng.random() < 0.4:
        return "pi/(12*lambda)"
    value = rng.uniform(low_us, high_us)
    return f"{value:.3f}us" if rng.random() < 0.7 else f"{value / 1e3:.6f}ms"


def _event(rng: random.Random, kind: str) -> str:
    axis = rng.choice(("x", "-x", "y", "-y"))
    if kind == "hard":
        return f"pulse hard {axis} {_angle(rng)}"
    if kind == "sel":
        line = f"pulse sel {rng.choice(TRANSITIONS)} {axis} {_angle(rng)}"
        if rng.random() < 0.15:
            line += f" gaussian {_duration(rng, 10.0, 300.0)}"
            if rng.random() < 0.5:
                line += f" {rng.choice((64, 128, 512))}"
        return line
    if kind == "zpulse":
        return f"zpulse {rng.choice(TRANSITIONS)} {_angle(rng)}"
    if kind == "quad":
        return f"delay quad {_duration(rng, 1.0, 50.0)}"
    if kind == "refocus":
        return f"refocus {_duration(rng, 5.0, 200.0)}"
    return "gradient"


def _generate(rng: random.Random) -> str:
    n_events = rng.randrange(20, 200)
    offset = rng.choice((0.0, 500.0, -1500.0))
    coupling = rng.choice((8_000.0, 12_000.0, 16_000.0, 24_000.0, 32_000.0))
    coupling_text = (f"lambda={coupling / 6e3:g}kHz" if rng.random() < 0.2
                     else f"splitting={coupling / 1e3:g}kHz")
    lines = [f"# generated sequence of {n_events} events",
             f"system I=3/2 {coupling_text}"
             + (f" offset={offset:g}Hz" if offset else "")]
    with_acquire = rng.random() < 0.5
    kinds = ["hard", "sel", "zpulse", "quad", "refocus", "gradient"]
    for _ in range(n_events - with_acquire):
        line = _event(rng, rng.choices(kinds, (2, 3, 3, 2, 1, 1))[0])
        if rng.random() < 0.05:
            line += "  # note"
        lines.append(line)
        if rng.random() < 0.05:
            lines.append("" if rng.random() < 0.5 else "# note")
    if with_acquire:
        lines.append(f"acquire {rng.choice((1024, 4096))} 5us")
    return "\n".join(lines) + "\n"


def _mutate(rng: random.Random, line: str) -> str:
    words = line.split()
    kind = rng.randrange(8)
    if kind == 0 and words:
        del words[rng.randrange(len(words))]
    elif kind == 1 and words:
        i = rng.randrange(len(words))
        words.insert(i, words[i])
    elif kind == 2 and len(words) > 1:
        i, j = rng.sample(range(len(words)), 2)
        words[i], words[j] = words[j], words[i]
    elif kind == 3 and words:
        words[rng.randrange(len(words))] = rng.choice(SUBSTITUTES)
    elif kind == 4 and words:
        gaps = [rng.choice((" ", rng.choice(SEPARATORS))) for _ in words]
        return "".join(gap + word for gap, word in zip(gaps, words))
    elif kind == 5:
        return line[:rng.randrange(len(line) + 1)]
    elif kind == 6 and words:
        i = rng.randrange(len(words))
        cut = rng.randrange(len(words[i]) + 1)
        words[i] = words[i][:cut] + "#" + words[i][cut:]
    elif kind == 7:
        return rng.choice(SEPARATORS) + line
    return " ".join(words)


def _mutants(rng: random.Random, name: str, text: str) -> dict[str, str]:
    lines = text.splitlines()
    texts = {name: text}
    for n in range(len(lines)):
        for m in range(MUTANTS_PER_LINE):
            mutated = list(lines)
            mutated[n] = _mutate(rng, mutated[n])
            texts[f"{name}/L{n + 1}/m{m}"] = "\n".join(mutated) + "\n"
    return texts


def corpus() -> dict[str, str]:
    rng = random.Random(GOLDEN_SEED)
    texts = {}
    for k in range(N_GENERATED):
        text = _generate(rng)
        lines = text.splitlines()
        for _ in range(rng.randrange(3)):
            n = rng.randrange(len(lines))
            lines[n] = _mutate(rng, lines[n])
        texts[f"generated/{k:03d}"] = "\n".join(lines) + "\n"
    for path in sorted(SEQUENCES_DIR.glob("*.qseq")):
        texts.update(_mutants(rng, f"bundled/{path.name}", path.read_text()))
    for name in INVALID_FILES:
        body = (INVALID_DIR / name).read_text().split("\n", 1)[1]
        texts.update(_mutants(rng, f"invalid/{name}", body))
    return texts


def _fields(value):
    if dataclasses.is_dataclass(value):
        return [_fields(getattr(value, f.name)) for f in dataclasses.fields(value)]
    return f"{value:.17g}" if isinstance(value, float) else value


def outcome(text: str) -> str:
    """The parse result of text as canonical JSON."""
    try:
        ir = parse_sequence(text)
    except ParseError as err:
        return json.dumps(["error", err.code, err.line, err.column, err.message])
    return json.dumps(["ok", format_sequence(ir), _fields(ir.system_decl),
                       [[type(e).__name__, _fields(e)] for e in ir.events]])


def digests(outcomes: dict[str, str]) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in outcomes.items()}


@pytest.fixture(scope="module")
def outcomes() -> dict[str, str]:
    return {name: outcome(text) for name, text in corpus().items()}


def test_every_parse_outcome_matches(outcomes):
    golden = json.loads(GOLDEN.read_text())
    actual = digests(outcomes)
    assert sorted(actual) == sorted(golden)
    changed = [name for name in sorted(actual) if actual[name] != golden[name]]
    assert not changed, f"{len(changed)} parse outcomes changed, first: {changed[:5]}"


def test_corpus_reaches_both_outcomes_and_every_code(outcomes):
    results = [json.loads(text) for text in outcomes.values()]
    ok = sum(1 for result in results if result[0] == "ok")
    codes = {result[1] for result in results if result[0] == "error"}
    assert 0.2 < ok / len(results) < 0.8
    assert len(codes) == 12


if __name__ == "__main__":
    hashes = digests({name: outcome(text) for name, text in corpus().items()})
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name in sorted(set(hashes) | set(old)):
        if hashes.get(name) != old.get(name):
            print(f"changed: {name}")
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")
