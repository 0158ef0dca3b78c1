import numpy as np
import pytest

from quadnmr import equilibrium_state, pseudopure_00

from helpers import matrices_close


def hand_prepared_pseudopure():
    """Independent oracle: apply the two population identities by hand.

    A selective inversion swaps the populations of the two lowest levels, a
    selective half-turn averages the middle pair, and the crusher keeps only
    the diagonal.
    """
    pops = [1.5, 0.5, -0.5, -1.5]
    pops[2], pops[3] = pops[3], pops[2]                      # invert 10-11
    avg = (pops[1] + pops[2]) / 2.0                          # equalize 01-11
    pops[1] = pops[2] = avg
    return np.diag(pops).astype(complex)


def test_equilibrium_is_half_integer_ladder(sys32):
    rho = equilibrium_state(sys32)
    assert matrices_close(rho, np.diag([1.5, 0.5, -0.5, -1.5]), atol=1e-14)
    assert np.trace(rho) == pytest.approx(0.0, abs=1e-14)


def test_pseudopure_matches_hand_oracle(sys32):
    rho = pseudopure_00(sys32)
    assert matrices_close(rho, hand_prepared_pseudopure(), atol=1e-12)
    assert matrices_close(rho, np.diag([1.5, -0.5, -0.5, -0.5]), atol=1e-12)


def test_pseudopure_trace_preserved(sys32):
    rho = pseudopure_00(sys32)
    assert np.trace(rho).real == pytest.approx(0.0, abs=1e-12)
    off_diagonal = rho - np.diag(np.diag(rho))
    assert np.max(np.abs(off_diagonal)) == 0.0


def test_pseudopure_rank_one_support(sys32):
    rho = pseudopure_00(sys32)
    pops = np.diag(rho).real
    shifted = pops - pops.min()
    assert shifted[0] > 0
    assert np.max(np.abs(shifted[1:])) < 1e-12


def test_pseudopure_scales_linearly(sys32):
    from quadnmr import parse_sequence, run_trajectory
    from conftest import SEQUENCES_DIR

    ir = parse_sequence((SEQUENCES_DIR / "pseudopure.qseq").read_text())
    rho = run_trajectory(ir, sys32, 5.0 * equilibrium_state(sys32)).states[-1]
    assert matrices_close(rho, 5.0 * np.diag([1.5, -0.5, -0.5, -0.5]), atol=1e-12)


def test_script_path_gives_identical_result(sys32):
    from quadnmr import parse_sequence, run_trajectory
    from conftest import SEQUENCES_DIR

    text = (SEQUENCES_DIR / "pseudopure.qseq").read_text()
    ir = parse_sequence(text)
    result = run_trajectory(ir, sys32, equilibrium_state(sys32))
    assert matrices_close(result.states[-1], pseudopure_00(sys32), atol=1e-12)
