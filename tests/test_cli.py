import numpy as np
import pytest

from quadnmr import oracle_matrix
from quadnmr.cli import main

from conftest import SEQUENCES_DIR


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
                                               ("--dwell", "nan")])
    def test_bad_value_is_config_error(self, tmp_path, capsys, option, value):
        code, _, err = run_cli(capsys, "--outdir", str(tmp_path), "dj",
                               "--oracle", "f3", option, value)
        assert code == 1
        assert "error[E_CONFIG]" in err
        assert not list(tmp_path.iterdir())


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

    def test_zero_splitting_warns_but_succeeds(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "--outdir", str(tmp_path), "pseudopure",
                               "--splitting", "0")
        assert code == 0
        assert "W_DEGENERATE" in err

    def test_zero_splitting_equilibrium_runs(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "--outdir", str(tmp_path), "equilibrium",
                               "--splitting", "0")
        assert code == 0
        assert "W_DEGENERATE" in err
        assert (tmp_path / "equilibrium_spectrum.csv").exists()

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
        assert out == ""

    @pytest.mark.parametrize("decl", ["splitting=1e400Hz",
                                      "splitting=16kHz offset=1e400Hz"])
    def test_infinite_system_value_is_bad_value(self, tmp_path, capsys, decl):
        script = tmp_path / "inf.qseq"
        script.write_text(f"system I=3/2 {decl}\n")
        code, _, err = run_cli(capsys, "compile-check", str(script), "--against", "u1")
        assert code == 1
        assert "error[E_BAD_VALUE]" in err

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
