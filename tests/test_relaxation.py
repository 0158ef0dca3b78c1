import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadnmr import RelaxationParams, SpinSystem, equilibrium_state
from quadnmr.relaxation import coherence_t2_table, decay_factors, relax_step

from helpers import matrices_close, relax_step_reference


@pytest.fixture
def params():
    return RelaxationParams()  # T1 = 16 ms, T2 = 14 ms central / 4 ms outer


def relaxed(rho, dt_s, params, sys):
    """rho after one interval dt_s of the package's relaxation."""
    (t2_decay,), (t1_decay,) = decay_factors([dt_s], params, sys.dim)
    return relax_step(rho, t2_decay, t1_decay, sys._iz_diag)


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


def test_t2_table_keeps_fractional_times_beside_integer_ones():
    # an integer outer T2 must not make the table integer-valued
    table = coherence_t2_table(RelaxationParams(t2_outer_s=1), 4)
    assert table[0, 1] == 1.0 and table[1, 2] == 14e-3 and table[0, 3] == 1.0


def test_zero_interval_is_identity(sys32, params):
    rho = coherent_test_state()
    assert matrices_close(relaxed(rho, 0.0, params, sys32), rho)


def test_long_time_reaches_equilibrium(sys32, params):
    rho = coherent_test_state()
    out = relaxed(rho, 10.0, params, sys32)
    assert matrices_close(out, equilibrium_state(sys32), atol=1e-12)


def test_overflowing_decay_reads_zero(sys32, params):
    # 1e308 s / 4 ms overflows; the state lands exactly on equilibrium, with no warning
    out = relaxed(coherent_test_state(), 1e308, params, sys32)
    assert np.array_equal(out, equilibrium_state(sys32))


def test_central_coherence_decays_to_one_over_e(sys32, params):
    rho = coherent_test_state()
    out = relaxed(rho, 14e-3, params, sys32)
    assert abs(out[1, 2]) / abs(rho[1, 2]) == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_outer_and_multi_quantum_rates(sys32, params):
    rho = coherent_test_state()
    dt = 4e-3
    out = relaxed(rho, dt, params, sys32)
    assert abs(out[0, 1]) / abs(rho[0, 1]) == pytest.approx(np.exp(-1.0), rel=1e-12)
    # multi-quantum coherences default to the outer rate
    assert abs(out[0, 2]) / abs(rho[0, 2]) == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert abs(out[0, 3]) / abs(rho[0, 3]) == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_population_decay_toward_equilibrium(sys32, params):
    rho = np.diag([1.5, -0.5, -0.5, -0.5]).astype(complex)
    dt = 16e-3
    out = relaxed(rho, dt, params, sys32)
    eq = np.diag(equilibrium_state(sys32)).real
    expected = eq + (np.diag(rho).real - eq) * np.exp(-1.0)
    assert np.allclose(np.diag(out).real, expected, atol=1e-12)


def test_hermiticity_and_trace_preserved(sys32, params):
    rho = coherent_test_state()
    out = relaxed(rho, 3e-3, params, sys32)
    assert matrices_close(out, out.conj().T, atol=1e-14)
    assert np.trace(out).real == pytest.approx(np.trace(rho).real, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0, 0.05), b=st.floats(0, 0.05))
def test_semigroup_property(a, b):
    sys = SpinSystem()
    params = RelaxationParams()
    rho = coherent_test_state()
    once = relaxed(rho, a + b, params, sys)
    twice = relaxed(relaxed(rho, a, params, sys), b, params, sys)
    assert matrices_close(once, twice, atol=1e-12)


@pytest.mark.parametrize("bad", [dict(t1_s=0.0), dict(t2_central_s=-1.0),
                                 dict(t2_outer_s=np.inf), dict(t2_outer_s=0.0)])
def test_invalid_params_rejected(bad):
    with pytest.raises(ValueError):
        RelaxationParams(**bad)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16),
       t1_decay=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 5e-324, 1.0])),
       specials=st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300]),
                         max_size=6))
@example(seed=0, dim=2, t1_decay=5e-324, specials=[-0.0, -5e-324])
def test_relax_step_equals_the_fill_diagonal_reference(seed, dim, t1_decay, specials):
    """relax_step writes the populations through a flat view with the bits of
    np.fill_diagonal, signed zeros and subnormals included."""
    rng = np.random.default_rng(seed)
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for k, value in enumerate(specials):
        rho.flat[rng.integers(dim * dim)] = complex(value, specials[-1 - k])
    t2_decay = rng.uniform(size=(dim, dim))
    eq = rng.normal(size=dim)
    eq[rng.integers(dim, size=len(specials))] = [min(v, 1e-300) for v in specials]
    args = (rho, t2_decay, t1_decay, eq)
    assert relax_step(*args).tobytes() == relax_step_reference(*args).tobytes()
