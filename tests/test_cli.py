import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quadnmr import SpinSystem, oracle_matrix, pseudopure_00
from quadnmr.cli import main

from conftest import SEQUENCES_DIR


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The CLI's main, run once the imports are done under an address-space limit
# of what the process maps by then plus the given headroom, so that the
# limit does not depend on what the imports map (thread stacks and arenas
# grow with the machine's cores).
_LIMITED_MAIN = """
import resource, sys
from quadnmr.cli import main
limit = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize() + {headroom}
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main())
"""


def run_cli_limited(headroom_bytes, *argv):
    """The CLI in its own process, which cannot map more than headroom_bytes
    beyond what its imports mapped."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", _LIMITED_MAIN.format(headroom=headroom_bytes), *argv],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))


class TestDJCommand:
    def test_balanced_oracle(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "--outdir", str(tmp_path), "dj",
                               "--oracle", "f3", "--method", "quad-evolution")
        assert code == 0
        assert out.strip() == "balanced"
        assert (tmp_path / "dj_f3_quad-evolution_spectrum.csv").exists()
        assert (tmp_path / "dj_f3_quad-evolution_peaks.csv").exists()

    def test_constant_oracle(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "--outdir", str(tmp_path), "dj",
                               "--oracle", "f1", "--method", "selective-z")
        assert code == 0
        assert out.strip() == "constant"

    # adjacent +-3*lb windows overlap below a splitting of 6*lb; unclipped,
    # each integral took in its neighbours' lines and f3 read "constant"
    @pytest.mark.parametrize("option, value", [("--splitting", "300"),
                                               ("--lb", "8000"),
                                               ("--splitting", "600")])
    def test_overlapping_windows_keep_balanced_oracle_balanced(
            self, tmp_path, capsys, option, value):
        code, out, _ = run_cli(capsys, "--outdir", str(tmp_path), "dj",
                               "--oracle", "f3", option, value)
        assert (code, out.strip()) == (0, "balanced")

    # a window whose neighbours' tails outweigh its own line can read the
    # wrong sign: f3 read "constant" with exit 0 at the first two splittings,
    # and the constant f2 of the last, relaxed, case read "balanced"; f1 at
    # 250 Hz exited 2 with "outer peaks disagree in sign"
    @pytest.mark.parametrize("options, line", [
        (("--oracle", "f3", "--splitting", "100"), "01-11"),
        (("--oracle", "f3", "--splitting", "1e-300"), "01-11"),
        (("--oracle", "f1", "--splitting", "250"), "00-01"),
        (("--oracle", "f2", "--method", "ideal-matrix", "--splitting", "112.35365939024673",
          "--lb", "5.155440634333543", "--dwell", "0.000193068019297355", "--points", "128",
          "--relaxation", "--t1", "0.05618617059919522", "--t2-central",
          "0.0023677266800304245", "--t2-outer", "0.8699407617943138"), "01-11")])
    def test_unresolved_lines_are_refused(self, tmp_path, capsys, options, line):
        code, out, err = run_cli(capsys, "--outdir", str(tmp_path), "dj", *options)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error[E_UNRESOLVED]")
        assert f"into the readout window of line {line}, against " in err
        assert not list(tmp_path.iterdir())

    def test_unresolved_relaxed_near_zero_splitting_prints_one_line(self, tmp_path, capsys):
        # the ~1e307 s quadrupolar delay once overflowed in the relaxation first
        code, out, err = run_cli(capsys, "--outdir", str(tmp_path), "dj", "--oracle", "f3",
                                 "--splitting", "1e-307", "--relaxation")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error[E_UNRESOLVED]")

    # each printed RuntimeWarnings before its error line
    @pytest.mark.parametrize("flag", ["--offset", "--splitting"])
    def test_overflowing_hamiltonian_is_config_error(self, tmp_path, capsys, flag):
        code, out, err = run_cli(capsys, "--outdir", str(tmp_path), "dj", "--oracle", "f3",
                                 flag, "1e308")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error[E_CONFIG]")

    # the offset phase accrued between the two soft pulses turned the second
    # pulse's axis: f2, which is constant, read "balanced" with exit 0
    @pytest.mark.parametrize("options", [
        ("--offset", "3500"),
        ("--method", "selective-z", "--splitting", "4782.197605310563", "--offset",
         "-1137.3933019733709", "--lb", "132.16716671045978", "--dwell",
         "2.9031829179874174e-06", "--points", "16384")])
    def test_shaped_pulses_off_resonance_keep_constant_oracle_constant(
            self, tmp_path, capsys, options):
        code, out, _ = run_cli(capsys, "--outdir", str(tmp_path), "dj", "--oracle", "f2",
                               "--shaped-pulses", *options)
        assert (code, out.strip()) == (0, "constant")

    # the soft-pulse duration 1/(3*lambda) divided by zero: a ZeroDivisionError traceback
    @pytest.mark.parametrize("oracle", ["f1", "f2"])
    def test_shaped_pulses_at_zero_splitting_are_config_error(self, tmp_path, capsys, oracle):
        code, out, err = run_cli(capsys, "--outdir", str(tmp_path), "dj", "--oracle", oracle,
                                 "--shaped-pulses", "--splitting", "0")
        assert (code, out) == (1, "")
        # after the zero-splitting warning
        assert err.splitlines()[1:] == ["error[E_CONFIG]: coupling 0 Hz gives no finite, "
                                        "positive shaped pulse duration 1/(3*lambda)"]
        assert not list(tmp_path.iterdir())

    # each printed "lambda_hz must be finite", a name the user never wrote
    @pytest.mark.parametrize("flag", ["--splitting", "--offset"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_a_non_finite_frequency_names_its_flag(self, tmp_path, capsys, flag, value):
        code, out, err = run_cli(capsys, "--outdir", str(tmp_path), "dj", "--oracle", "f3",
                                 flag, value)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error[E_CONFIG]: {flag} must be finite, got {value}"]
        assert not list(tmp_path.iterdir())

    # a negative value in exponent form once read as a missing argument:
    # argparse takes only the -1 and -1.5 forms of a leading '-' as a number
    def test_a_negative_exponent_form_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "--outdir", str(a), "dj", "--oracle", "f3",
                       "--offset", "-1.5e3") == (0, "balanced\n", "")
        assert run_cli(capsys, "--outdir", str(b), "dj", "--oracle", "f3",
                       "--offset=-1500") == (0, "balanced\n", "")
        for path in sorted(a.iterdir()):
            assert path.read_bytes() == (b / path.name).read_bytes()

    def test_unknown_oracle_is_config_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "--outdir", str(tmp_path), "dj",
                               "--oracle", "f9")
        assert code == 1
        assert "f9" in err

    def test_relaxation_flags(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "--outdir", str(tmp_path), "dj",
                               "--oracle", "f4", "--method", "ideal-matrix",
                               "--relaxation", "--t1", "0.016",
                               "--t2-central", "0.014", "--t2-outer", "0.004")
        assert code == 0
        assert out.strip() == "balanced"

    def test_byte_identical_outputs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "--outdir", str(a), "dj", "--oracle", "f2")
        run_cli(capsys, "--outdir", str(b), "dj", "--oracle", "f2")
        stem = "dj_f2_quad-evolution_spectrum.csv"
        assert (a / stem).read_bytes() == (b / stem).read_bytes()

    @pytest.mark.parametrize("option, value", [("--lb", "nan"), ("--lb", "-100"),
                                               ("--offset", "nan"),
                                               ("--splitting", "inf"),
                                               ("--dwell", "nan"),
                                               ("--points", "3"), ("--lb", "0"),
                                               ("--dwell", "1e-7")])
    def test_bad_value_is_config_error(self, tmp_path, capsys, option, value):
        code, _, err = run_cli(capsys, "--outdir", str(tmp_path), "dj",
                               "--oracle", "f3", option, value)
        assert code == 1
        assert "error[E_CONFIG]" in err
        assert not list(tmp_path.iterdir())


class TestAcquisitionSize:
    # both ended in numpy's _ArrayMemoryError traceback, allocating an 8 GB
    # axis; with 512 MB of headroom such an allocation fails at once instead
    # of taking the machine's memory
    @pytest.mark.parametrize("command", [["dj", "--oracle", "f3"], ["equilibrium"]])
    def test_too_many_points_is_config_error(self, tmp_path, command):
        result = run_cli_limited(512 << 20, "--outdir", str(tmp_path / "out"), *command,
                                 "--points", "1000000000")
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == \
            "error[E_CONFIG]: at most 1048576 points can be acquired, got 1000000000\n"
        assert not (tmp_path / "out").exists()


class TestTinyDwell:
    # a dwell near the float minimum overflowed the frequency axis: numpy
    # RuntimeWarnings, then "cannot convert float NaN to integer" for dj
    @pytest.mark.parametrize("command, warning", [
        (["dj", "--oracle", "f3", "--method", "ideal-matrix", "--splitting", "0"],
         "warning[W_DEGENERATE]: zero splitting collapses all transitions onto a single line\n"),
        (["equilibrium"], "")])
    def test_axis_overflow_is_config_error(self, tmp_path, command, warning):
        result = run_cli_limited(512 << 20, "--outdir", str(tmp_path / "out"), *command,
                                 "--dwell", "1e-310")
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == warning + (
            "error[E_CONFIG]: the frequency axis of 4096 points at a 1e-310 s dwell "
            "overflows the float range; raise the dwell time\n")
        assert not (tmp_path / "out").exists()


def test_cli_imports_neither_scipy_nor_logging():
    """The package depends on numpy alone, nothing logs unless asked to, and
    the CSVs are written without the csv module."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = ("import sys, quadnmr.cli; print(sorted(name for name in sys.modules "
            "if name.split('.')[0] in ('scipy', 'logging', 'csv', '_csv')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


class TestEquilibriumAndPseudopure:
    def test_equilibrium_artifacts(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "--outdir", str(tmp_path), "equilibrium")
        assert code == 0
        peaks = (tmp_path / "equilibrium_peaks.csv").read_text().splitlines()
        assert peaks[0] == "transition,frequency_hz,real_integral,sign"
        integrals = [float(line.split(",")[2]) for line in peaks[1:]]
        assert integrals[0] / integrals[1] == pytest.approx(0.75, rel=0.01)
        assert integrals[2] / integrals[1] == pytest.approx(0.75, rel=0.01)

    def test_pseudopure_populations(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "--outdir", str(tmp_path), "pseudopure")
        assert code == 0
        rows = (tmp_path / "pseudopure_populations.csv").read_text().splitlines()
        assert rows[0] == "level,population"
        values = {row.split(",")[0]: float(row.split(",")[1]) for row in rows[1:]}
        assert list(values) == ["00", "01", "11", "10"]
        assert list(values.values()) == pytest.approx([1.5, -0.5, -0.5, -0.5],
                                                      abs=1e-12)

    def test_pseudopure_populations_have_the_bytes_of_csv_writer(self, tmp_path, capsys):
        assert run_cli(capsys, "--outdir", str(tmp_path), "pseudopure")[0] == 0
        sys32 = SpinSystem()
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["level", "population"])
        for label, pop in zip(sys32.labels, np.diag(pseudopure_00(sys32)).real):
            writer.writerow([label, format(float(pop), ".17g")])
        assert (tmp_path / "pseudopure_populations.csv").read_bytes() == \
            expected.getvalue().encode()

    def test_zero_splitting_warns_but_succeeds(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "--outdir", str(tmp_path), "pseudopure",
                               "--splitting", "0")
        assert code == 0
        assert "W_DEGENERATE" in err

    def test_overflowing_splitting_is_config_error(self, tmp_path, capsys):
        # pseudopure reads no line frequency, but its system is refused all the same
        code, out, err = run_cli(capsys, "--outdir", str(tmp_path), "pseudopure",
                                 "--splitting", "1e308")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error[E_CONFIG]")

    def test_zero_splitting_equilibrium_runs(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "--outdir", str(tmp_path), "equilibrium",
                               "--splitting", "0")
        assert code == 0
        assert "W_DEGENERATE" in err
        assert (tmp_path / "equilibrium_spectrum.csv").exists()

    def test_resolved_close_equilibrium_runs(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "--outdir", str(tmp_path), "equilibrium",
                                 "--splitting", "700")
        assert (code, err) == (0, "")
        assert [row.split()[0] for row in out.splitlines()] == ["00-01", "01-11", "11-10"]
        assert (tmp_path / "equilibrium_peaks.csv").exists()

    # no window's own line sets its sign; at 100 Hz and lb 1e308 a peak table of
    # merged lines once printed with exit 0
    @pytest.mark.parametrize("flag,value", [("--splitting", "100"), ("--splitting", "50"),
                                            ("--splitting", "1e-9"),
                                            ("--splitting", "1e-300"), ("--lb", "1e308")])
    def test_unresolved_equilibrium_is_refused(self, tmp_path, capsys, flag, value):
        code, out, err = run_cli(capsys, "--outdir", str(tmp_path / "out"), "equilibrium",
                                 flag, value)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error[E_UNRESOLVED]")
        assert not (tmp_path / "out").exists()

    def test_outdir_environment_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QUADNMR_OUTDIR", str(tmp_path / "env"))
        code, _, _ = run_cli(capsys, "pseudopure")
        assert code == 0
        assert (tmp_path / "env" / "pseudopure_populations.csv").exists()


class TestCompileCheck:
    def test_bundled_script_against_target(self, capsys):
        code, out, _ = run_cli(capsys, "compile-check",
                               str(SEQUENCES_DIR / "u3-quad.qseq"), "--against", "u3")
        assert code == 0
        assert out.strip() == "fidelity 1.000000"

    def test_mismatched_target_reports_low_fidelity(self, capsys):
        # independent oracle: |Tr(U4^dag U3)| / 4 = |Tr(U2)| / 4 = 0
        expected = abs(np.trace(oracle_matrix("f4").conj().T
                                @ oracle_matrix("f3"))) / 4.0
        code, out, _ = run_cli(capsys, "compile-check",
                               str(SEQUENCES_DIR / "u3-quad.qseq"), "--against", "u4")
        assert code == 0
        fidelity = float(out.split()[1])
        assert fidelity == pytest.approx(expected, abs=1e-9)
        assert fidelity < 1.0 - 1e-9

    def test_strict_mode_fails_on_mismatch(self, capsys):
        code, _, _ = run_cli(capsys, "compile-check",
                             str(SEQUENCES_DIR / "u3-quad.qseq"),
                             "--against", "u4", "--strict")
        assert code == 4

    def test_empty_sequence_is_identity(self, tmp_path, capsys):
        script = tmp_path / "noop.qseq"
        script.write_text("system I=3/2 splitting=16kHz\n")
        code, out, _ = run_cli(capsys, "compile-check", str(script), "--against", "u1")
        assert code == 0
        assert out.strip() == "fidelity 1.000000"

    def test_parse_error_exit_code_and_location(self, tmp_path, capsys):
        script = tmp_path / "broken.qseq"
        script.write_text("system I=3/2 splitting=16kHz\npulse sel 00-10 x pi\n")
        code, _, err = run_cli(capsys, "compile-check", str(script), "--against", "u1")
        assert code == 1
        assert "E_FORBIDDEN_TRANSITION" in err
        assert "line 2" in err

    def test_matrix_file_target(self, tmp_path, capsys):
        target = tmp_path / "gate.npy"
        np.save(target, np.exp(1j * 0.3) * oracle_matrix("f3"))
        code, out, _ = run_cli(capsys, "compile-check",
                               str(SEQUENCES_DIR / "u3-quad.qseq"),
                               "--against", str(target))
        assert code == 0
        assert out.strip() == "fidelity 1.000000"

    def test_text_matrix_target(self, tmp_path, capsys):
        target = tmp_path / "gate.txt"
        np.savetxt(target, oracle_matrix("f3").astype(complex))
        code, out, _ = run_cli(capsys, "compile-check",
                               str(SEQUENCES_DIR / "u3-quad.qseq"),
                               "--against", str(target))
        assert code == 0
        assert out.strip() == "fidelity 1.000000"

    def test_missing_target_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "compile-check",
                               str(SEQUENCES_DIR / "u3-quad.qseq"),
                               "--against", str(tmp_path / "nope.npy"))
        assert code == 1
        assert "E_CONFIG" in err

    @pytest.mark.parametrize("line", ["delay quad 1e400s", "refocus 1e999us",
                                      "pulse sel 01-11 x pi gaussian 1e400s",
                                      "acquire 1024 1e999s"])
    def test_infinite_duration_is_bad_value(self, tmp_path, capsys, line):
        script = tmp_path / "inf.qseq"
        script.write_text(f"system I=3/2 splitting=16kHz\n{line}\n")
        code, out, err = run_cli(capsys, "compile-check", str(script),
                                 "--against", "u1", "--strict")
        assert code == 1
        assert "error[E_BAD_VALUE]" in err and "line 2" in err
        assert err.count("E_BAD_VALUE") == 1
        assert out == ""

    @pytest.mark.parametrize("decl", ["splitting=1e400Hz",
                                      "splitting=16kHz offset=1e400Hz"])
    def test_infinite_system_value_is_bad_value(self, tmp_path, capsys, decl):
        script = tmp_path / "inf.qseq"
        script.write_text(f"system I=3/2 {decl}\n")
        code, _, err = run_cli(capsys, "compile-check", str(script), "--against", "u1")
        assert code == 1
        assert "error[E_BAD_VALUE]" in err

    # each once crashed with an OverflowError: 2*I overflowed to infinity
    @pytest.mark.parametrize("spin", ["1e308", "9e307"])
    def test_spin_whose_double_overflows_is_bad_value(self, tmp_path, capsys, spin):
        script = tmp_path / "spin.qseq"
        script.write_text(f"system I={spin}\ngradient\n")
        code, out, err = run_cli(capsys, "compile-check", str(script), "--against", "u1")
        assert (code, out) == (1, "")
        assert err.startswith("error[E_BAD_VALUE]: line 1:1: spin must be at most 15/2")

    # each printed "fidelity nan" with exit 0: the propagator overflowed
    @pytest.mark.parametrize("decl, line", [
        ("splitting=1e308Hz", "delay quad pi/(12*lambda)"),
        ("splitting=16kHz", "delay quad 1e305s")])
    def test_overflowing_propagator_is_refused(self, tmp_path, capsys, decl, line):
        script = tmp_path / "overflow.qseq"
        script.write_text(f"system I=3/2 {decl}\n{line}\n")
        code, out, err = run_cli(capsys, "compile-check", str(script), "--against", "u3")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error[E_")

    # each printed numpy's "loadtxt: input contained no data" warning first,
    # which raised out of main under -W error
    @pytest.mark.parametrize("text", ["", "\n  \n\t\n", "# a comment\n  # another\n"],
                             ids=["empty", "blank-lines", "comment-only"])
    def test_target_holding_no_numbers_is_config_error(self, tmp_path, capsys, text):
        target = tmp_path / "gate.txt"
        target.write_text(text)
        code, out, err = run_cli(capsys, "compile-check", str(SEQUENCES_DIR / "u3-quad.qseq"),
                                 "--against", str(target))
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error[E_CONFIG]: target matrix in {str(target)!r} "
                                    "holds no numbers"]

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_target_is_config_error(self, tmp_path, capsys, bad):
        target = tmp_path / "gate.txt"
        target.write_text(f"1 0 0 0\n0 {bad} 0 0\n0 0 1 0\n0 0 0 1\n")
        script = tmp_path / "noop.qseq"
        script.write_text("system I=3/2 splitting=16kHz\n")
        code, out, err = run_cli(capsys, "compile-check", str(script),
                                 "--against", str(target))
        assert code == 1
        assert "error[E_CONFIG]" in err and "non-finite" in err
        assert out == ""
