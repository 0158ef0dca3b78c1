import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadnmr import (ForbiddenTransitionError, SpinSystem, UnknownTransitionError,
                     cphase_delay_s, hamiltonian, matrices_close, quad_evolution,
                     transition_table)
from quadnmr import expm_hermitian, free_evolution

TWO_PI = 2.0 * np.pi


class TestHamiltonian:
    def test_pure_quadrupolar_shape(self, sys32):
        h = hamiltonian(sys32)
        scaled = h / (TWO_PI * sys32.lambda_hz)
        assert matrices_close(scaled, 3.0 * np.diag([1, -1, -1, 1]), atol=1e-12)

    def test_zeeman_limit(self):
        sys = SpinSystem(offset_hz=250.0, lambda_hz=0.0)
        h = hamiltonian(sys)
        assert matrices_close(h, -TWO_PI * 250.0 * sys.operators.iz, atol=1e-9)

    def test_traceless(self):
        sys = SpinSystem(offset_hz=123.4, lambda_hz=7.7)
        assert np.trace(hamiltonian(sys)).real == pytest.approx(0.0, abs=1e-9)

    def test_eigenvalue_differences_match_table(self):
        sys = SpinSystem.from_splitting(12_345.0, offset_hz=77.0)
        h = np.diag(hamiltonian(sys)).real / TWO_PI
        for tr in transition_table(sys):
            assert h[tr.upper_index] - h[tr.lower_index] == pytest.approx(tr.frequency_hz)


class TestTransitionTable:
    def test_three_lines_at_default_splitting(self, sys32):
        table = transition_table(sys32)
        assert [tr.label for tr in table] == ["00-01", "01-11", "11-10"]
        assert sorted(tr.frequency_hz for tr in table) == \
            pytest.approx([-16_000.0, 0.0, 16_000.0])

    def test_ix_elements(self, sys32):
        elements = [tr.ix_element for tr in transition_table(sys32)]
        assert elements == pytest.approx([np.sqrt(3) / 2, 1.0, np.sqrt(3) / 2])
        # squared elements give the 3:4:3 intensity pattern
        assert [4 * e * e for e in elements] == pytest.approx([3.0, 4.0, 3.0])

    def test_degenerate_coupling(self):
        sys = SpinSystem(offset_hz=440.0, lambda_hz=0.0)
        for tr in transition_table(sys):
            assert tr.frequency_hz == pytest.approx(-440.0)

    def test_forbidden_pairs_flagged(self, sys32):
        table = transition_table(sys32, include_forbidden=True)
        forbidden = {tr.label for tr in table if tr.kind == "forbidden"}
        assert "00-10" in forbidden or "10-00" in forbidden or "00-11" in forbidden
        pair = next(tr for tr in table
                    if tr.kind == "forbidden" and {tr.upper_label, tr.lower_label} ==
                    {"00", "10"})
        assert pair.lower_index - pair.upper_index == 3

    def test_lookup_by_label(self, sys32):
        tr = sys32.transition("10-11")
        assert tr.upper_label == "11" and tr.lower_label == "10"
        with pytest.raises(ForbiddenTransitionError):
            sys32.transition("00-10")
        with pytest.raises(UnknownTransitionError):
            sys32.transition("00-22")

    def test_labeling_bijective(self, sys32):
        assert len(set(sys32.labels)) == sys32.dim
        for idx, label in enumerate(sys32.labels):
            assert sys32.index_of(label) == idx


class TestQuadEvolution:
    def test_controlled_phase_delay(self, sys32):
        tau = cphase_delay_s(sys32)
        u = quad_evolution(sys32, tau)
        expected = np.diag(np.exp(1j * np.pi / 4 * np.array([-1, 1, 1, -1])))
        assert matrices_close(u, expected, atol=1e-12)

    def test_zero_time_identity(self, sys32):
        assert matrices_close(quad_evolution(sys32, 0.0), np.eye(4))

    def test_double_delay_is_square(self, sys32):
        tau = cphase_delay_s(sys32)
        single = quad_evolution(sys32, tau)
        assert matrices_close(quad_evolution(sys32, 2 * tau), single @ single, atol=1e-12)

    def test_negative_time_rejected(self, sys32):
        with pytest.raises(ValueError):
            quad_evolution(sys32, -1e-6)

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(0, 1e-3), b=st.floats(0, 1e-3))
    def test_semigroup(self, a, b):
        sys = SpinSystem()
        combined = quad_evolution(sys, a + b)
        split = quad_evolution(sys, a) @ quad_evolution(sys, b)
        assert matrices_close(combined, split, atol=1e-10)


def test_splitting_constructor_round_trip():
    sys = SpinSystem.from_splitting(16_000.0)
    assert sys.lambda_hz == pytest.approx(16_000.0 / 6.0)
    assert sys.splitting_hz == pytest.approx(16_000.0)
    assert cphase_delay_s(sys) == pytest.approx(1.0 / (24.0 * sys.lambda_hz))


@pytest.mark.parametrize("field", ["offset_hz", "lambda_hz"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_frequencies_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        SpinSystem(**{field: value})


def test_derived_data_is_shared_and_read_only(sys32):
    assert sys32.operators is SpinSystem(offset_hz=99.0).operators
    with pytest.raises(ValueError):
        sys32.operators.ix[0, 1] = 0.0
    table = transition_table(sys32)
    table.pop()
    assert len(transition_table(sys32)) == 3
    assert sys32 == SpinSystem() and hash(sys32) == hash(SpinSystem())


def reference_hamiltonian(sys, zeeman=True):
    """Dense-matrix form of H (or of its quadrupolar term alone)."""
    ops = sys.operators
    eye = np.eye(sys.dim)
    quad = TWO_PI * sys.lambda_hz * (3.0 * ops.iz @ ops.iz
                                     - sys.spin * (sys.spin + 1.0) * eye)
    return -TWO_PI * sys.offset_hz * ops.iz + quad if zeeman else quad


# eigh rescales a matrix whose norm is below about 1e-146 and then returns
# rounded eigenvalues, so the reference is exact only above that scale.
FREQ_HZ = st.floats(-1e5, 1e5).filter(lambda x: x == 0.0 or abs(x) > 1e-100)


@settings(max_examples=200, deadline=None)
@given(two_i=st.integers(1, 7), offset=FREQ_HZ, coupling=FREQ_HZ,
       tau=st.floats(0.0, 1e-2))
def test_diagonal_propagators_equal_eigh_reference(two_i, offset, coupling, tau):
    sys = SpinSystem(spin=two_i / 2.0, offset_hz=offset, lambda_hz=coupling)
    assert np.array_equal(hamiltonian(sys), reference_hamiltonian(sys))
    assert np.array_equal(free_evolution(sys, tau),
                          expm_hermitian(reference_hamiltonian(sys), -tau))
    assert np.array_equal(quad_evolution(sys, tau),
                          expm_hermitian(reference_hamiltonian(sys, zeeman=False), -tau))


def test_labels_are_derived_from_the_spin():
    init_fields = [f.name for f in dataclasses.fields(SpinSystem) if f.init]
    assert init_fields == ["spin", "offset_hz", "lambda_hz"]
    assert SpinSystem().labels == ("00", "01", "11", "10")
    assert SpinSystem(spin=1.0).labels == ("00", "01", "10")
    assert SpinSystem(spin=3.5).labels == tuple(format(k, "03b") for k in range(8))
    with pytest.raises(TypeError):
        SpinSystem(labels=("a", "b", "c", "d"))


@pytest.mark.parametrize("propagator", [free_evolution, quad_evolution])
@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf"), -1e-9])
def test_non_finite_or_negative_time_rejected(propagator, tau):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        propagator(SpinSystem(), tau)
