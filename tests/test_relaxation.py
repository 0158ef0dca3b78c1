import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadnmr import (RelaxationParams, SpinSystem, apply_relaxation,
                     equilibrium_state, matrices_close)
from quadnmr.relaxation import coherence_t2_s, coherence_t2_table


@pytest.fixture
def params():
    return RelaxationParams()  # T1 = 16 ms, T2 = 14 ms central / 4 ms outer


def coherent_test_state():
    rho = np.diag([1.5, 0.5, -0.5, -1.5]).astype(complex)
    rho[0, 1] = rho[1, 0] = 0.2          # outer single-quantum
    rho[1, 2] = 0.4                       # central single-quantum
    rho[2, 1] = 0.4
    rho[0, 2] = rho[2, 0] = 0.1          # double quantum
    rho[0, 3] = rho[3, 0] = 0.05         # triple quantum
    return rho


def test_t2_table_is_built_once_and_shared_read_only(sys32, params):
    table = coherence_t2_table(params, sys32.dim)
    assert coherence_t2_table(RelaxationParams(), 4) is table
    assert not table.flags.writeable
    copy = coherence_t2_s(params, sys32)
    copy[0, 1] = 1.0      # the writable copy leaves the shared table alone
    assert table[0, 1] == params.t2_outer_s
    assert np.array_equal(coherence_t2_s(params, sys32), table)


def test_t2_table_keeps_fractional_times_beside_integer_ones():
    # an integer multiple-quantum T2 must not make the table integer-valued
    table = coherence_t2_table(RelaxationParams(t2_multi_s=1), 4)
    assert table[0, 1] == 4e-3 and table[1, 2] == 14e-3 and table[0, 3] == 1.0


def test_zero_interval_is_identity(sys32, params):
    rho = coherent_test_state()
    assert matrices_close(apply_relaxation(rho, 0.0, params, sys32), rho)


def test_long_time_reaches_equilibrium(sys32, params):
    rho = coherent_test_state()
    out = apply_relaxation(rho, 10.0, params, sys32)
    assert matrices_close(out, equilibrium_state(sys32), atol=1e-12)


def test_central_coherence_decays_to_one_over_e(sys32, params):
    rho = coherent_test_state()
    out = apply_relaxation(rho, 14e-3, params, sys32)
    assert abs(out[1, 2]) / abs(rho[1, 2]) == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_outer_and_multi_quantum_rates(sys32, params):
    rho = coherent_test_state()
    dt = 4e-3
    out = apply_relaxation(rho, dt, params, sys32)
    assert abs(out[0, 1]) / abs(rho[0, 1]) == pytest.approx(np.exp(-1.0), rel=1e-12)
    # multi-quantum coherences default to the outer rate
    assert abs(out[0, 2]) / abs(rho[0, 2]) == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert abs(out[0, 3]) / abs(rho[0, 3]) == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_multi_quantum_override(sys32):
    params = RelaxationParams(t2_multi_s=1e-3)
    rho = coherent_test_state()
    out = apply_relaxation(rho, 1e-3, params, sys32)
    assert abs(out[0, 2]) / abs(rho[0, 2]) == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert abs(out[0, 1]) / abs(rho[0, 1]) == pytest.approx(np.exp(-1e-3 / 4e-3), rel=1e-12)


def test_population_decay_toward_equilibrium(sys32, params):
    rho = np.diag([1.5, -0.5, -0.5, -0.5]).astype(complex)
    dt = 16e-3
    out = apply_relaxation(rho, dt, params, sys32)
    eq = np.diag(equilibrium_state(sys32)).real
    expected = eq + (np.diag(rho).real - eq) * np.exp(-1.0)
    assert np.allclose(np.diag(out).real, expected, atol=1e-12)


def test_hermiticity_and_trace_preserved(sys32, params):
    rho = coherent_test_state()
    out = apply_relaxation(rho, 3e-3, params, sys32)
    assert matrices_close(out, out.conj().T, atol=1e-14)
    assert np.trace(out).real == pytest.approx(np.trace(rho).real, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0, 0.05), b=st.floats(0, 0.05))
def test_semigroup_property(a, b):
    sys = SpinSystem()
    params = RelaxationParams()
    rho = coherent_test_state()
    once = apply_relaxation(rho, a + b, params, sys)
    twice = apply_relaxation(apply_relaxation(rho, a, params, sys), b, params, sys)
    assert matrices_close(once, twice, atol=1e-12)


@pytest.mark.parametrize("bad", [dict(t1_s=0.0), dict(t2_central_s=-1.0),
                                 dict(t2_outer_s=np.inf), dict(t2_multi_s=0.0)])
def test_invalid_params_rejected(bad):
    with pytest.raises(ValueError):
        RelaxationParams(**bad)


def test_negative_interval_rejected(sys32, params):
    with pytest.raises(ValueError):
        apply_relaxation(coherent_test_state(), -1e-3, params, sys32)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_interval_rejected(sys32, params, dt):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        apply_relaxation(coherent_test_state(), dt, params, sys32)


@pytest.mark.parametrize("shape", [(6, 6), (4, 6), (4,)])
def test_state_of_wrong_shape_rejected(sys32, params, shape):
    with pytest.raises(ValueError, match=r"state must be 4x4, got \(" + f"{shape[0]},"):
        apply_relaxation(np.zeros(shape, dtype=complex), 1e-3, params, sys32)
