import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadnmr import (ForbiddenTransitionError, SpinSystem, UnknownTransitionError,
                     cphase_delay_s, spin_operators)
from quadnmr.seqlang import QuadDelay, Refocus
from quadnmr.system import QUAD_ROW

from helpers import (expm_hermitian, free_evolution, hamiltonian, line_of, line_table,
                     matrices_close, propagator, spin_system_reference)
from test_pulses import quad_delay

TWO_PI = 2.0 * np.pi


class TestHamiltonian:
    def test_pure_quadrupolar_shape(self, sys32):
        h = hamiltonian(sys32)
        scaled = h / (TWO_PI * sys32.lambda_hz)
        assert matrices_close(scaled, 3.0 * np.diag([1, -1, -1, 1]), atol=1e-12)

    def test_zeeman_limit(self):
        sys = SpinSystem(offset_hz=250.0, lambda_hz=0.0)
        h = hamiltonian(sys)
        assert matrices_close(h, -TWO_PI * 250.0 * spin_operators(sys.spin).iz, atol=1e-9)

    def test_traceless(self):
        sys = SpinSystem(offset_hz=123.4, lambda_hz=7.7)
        assert np.trace(hamiltonian(sys)).real == pytest.approx(0.0, abs=1e-9)

    def test_eigenvalue_differences_match_table(self):
        sys = SpinSystem.from_splitting(12_345.0, offset_hz=77.0)
        h = np.diag(hamiltonian(sys)).real / TWO_PI
        for tr in line_table(sys):
            assert h[tr.upper_index] - h[tr.lower_index] == pytest.approx(tr.frequency_hz)


class TestTransitionTable:
    def test_three_lines_at_default_splitting(self, sys32):
        table = line_table(sys32)
        assert [tr.label for tr in table] == ["00-01", "01-11", "11-10"]
        assert sorted(tr.frequency_hz for tr in table) == \
            pytest.approx([-16_000.0, 0.0, 16_000.0])

    def test_ix_elements(self, sys32):
        elements = [tr.ix_element for tr in line_table(sys32)]
        assert elements == pytest.approx([np.sqrt(3) / 2, 1.0, np.sqrt(3) / 2])
        # squared elements give the 3:4:3 intensity pattern
        assert [4 * e * e for e in elements] == pytest.approx([3.0, 4.0, 3.0])

    def test_degenerate_coupling(self):
        sys = SpinSystem(offset_hz=440.0, lambda_hz=0.0)
        for tr in line_table(sys):
            assert tr.frequency_hz == pytest.approx(-440.0)

    def test_forbidden_pairs_flagged(self, sys32):
        forbidden = []
        for i, j in itertools.combinations(range(sys32.dim), 2):
            try:
                line_of(sys32, f"{sys32.labels[i]}-{sys32.labels[j]}")
            except ForbiddenTransitionError:
                forbidden.append((i, j))
        labels = {f"{sys32.labels[i]}-{sys32.labels[j]}" for i, j in forbidden}
        assert "00-10" in labels or "10-00" in labels or "00-11" in labels
        i, j = next((i, j) for i, j in forbidden
                    if {sys32.labels[i], sys32.labels[j]} == {"00", "10"})
        assert j - i == 3

    def test_lookup_by_label(self, sys32):
        tr = line_of(sys32, "10-11")
        assert tr.upper_label == "11" and tr.lower_label == "10"
        with pytest.raises(ForbiddenTransitionError):
            line_of(sys32, "00-10")
        with pytest.raises(UnknownTransitionError):
            line_of(sys32, "00-22")

    def test_labeling_bijective(self, sys32):
        assert len(set(sys32.labels)) == sys32.dim
        for idx, label in enumerate(sys32.labels):
            assert sys32.index_of(label) == idx


# finite values from subnormal to the largest double, and the kHz range
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e5, 1e5),
                   st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, 2.9e307, -2.9e307]))


class TestBuildEqualsNumpyFormulas:
    # 1.5 + 4e-13 is a spin within the half-integer tolerance, which the
    # formulas take as given
    @settings(max_examples=400, deadline=None)
    @given(spin=st.sampled_from([0.5, 1.0, 1.5, 1.5 + 4e-13, 2.5, 7.5]),
           offset_hz=FINITE, lambda_hz=FINITE)
    @example(spin=1.5, offset_hz=0.0, lambda_hz=1e308)        # quad overflows
    @example(spin=0.5, offset_hz=1.0, lambda_hz=1e308)        # inf * 0
    @example(spin=1.5, offset_hz=-1.7e308, lambda_hz=1e307)   # a frequency overflows
    @example(spin=2.0, offset_hz=-0.0, lambda_hz=-0.0)        # signed zeros, m = 0
    def test_arrays_and_lines_equal_the_numpy_formulas(self, spin, offset_hz, lambda_hz):
        try:
            labels, iz, quad, h, freqs, ix, rows = spin_system_reference(
                spin, offset_hz, lambda_hz)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                SpinSystem(spin=spin, offset_hz=offset_hz, lambda_hz=lambda_hz)
            assert str(caught.value) == str(exc)
            return
        sys = SpinSystem(spin=spin, offset_hz=offset_hz, lambda_hz=lambda_hz)
        assert sys.labels == labels
        for got, want in ((sys._iz_diag, iz), (sys._exponent_rows[QUAD_ROW].real, quad),
                          (sys._h_diag, h), (sys._exponent_rows, rows)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes() and not got.flags.writeable
        table = line_table(sys)
        assert [tr.frequency_hz.hex() for tr in table] == [f.hex() for f in freqs]
        assert [tr.ix_element.hex() for tr in table] == [e.hex() for e in ix]


class TestQuadEvolution:
    def test_controlled_phase_delay(self, sys32):
        tau = cphase_delay_s(sys32)
        u = propagator(quad_delay(tau), sys32)
        expected = np.diag(np.exp(1j * np.pi / 4 * np.array([-1, 1, 1, -1])))
        assert matrices_close(u, expected, atol=1e-12)

    def test_zero_time_identity(self, sys32):
        assert matrices_close(propagator(quad_delay(0.0), sys32), np.eye(4))

    def test_double_delay_is_square(self, sys32):
        tau = cphase_delay_s(sys32)
        single = propagator(quad_delay(tau), sys32)
        assert matrices_close(propagator(quad_delay(2 * tau), sys32), single @ single,
                              atol=1e-12)

    def test_negative_time_rejected(self, sys32):
        with pytest.raises(ValueError):
            propagator(quad_delay(-1e-6), sys32)

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(0, 1e-3), b=st.floats(0, 1e-3))
    def test_semigroup(self, a, b):
        sys = SpinSystem()
        combined = propagator(quad_delay(a + b), sys)
        split = propagator(quad_delay(a), sys) @ propagator(quad_delay(b), sys)
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


def test_spin_above_fifteen_halves_rejected():
    assert SpinSystem(spin=7.5).dim == 16
    with pytest.raises(ValueError, match=r"at most 15/2 \(16 levels\), got 8.5"):
        SpinSystem(spin=8.5)


@pytest.mark.parametrize("spin, message", [
    (1e308, "at most 15/2"), (9e307, "at most 15/2"), (float("inf"), "at most 15/2"),
    (float("nan"), "positive half-integer"), (-float("inf"), "positive half-integer")])
def test_non_finite_double_spin_rejected(spin, message):
    # 2 * spin overflows or is nan, which round() cannot take
    with pytest.raises(ValueError, match=message):
        SpinSystem(spin=spin)


@pytest.mark.parametrize("field, value", [
    ("offset_hz", 1e308), ("offset_hz", -1e308), ("lambda_hz", 1e308 / 6.0),
    # a finite diagonal whose line frequencies 6 * 2 pi lambda still overflow
    ("lambda_hz", 5e307 / 6.0)])
def test_overflowing_hamiltonian_rejected(field, value):
    with pytest.raises(ValueError, match="beyond the float range"):
        SpinSystem(**{field: value})


def test_derived_data_is_shared_and_read_only(sys32):
    assert spin_operators(sys32.spin) is spin_operators(SpinSystem(offset_hz=99.0).spin)
    with pytest.raises(ValueError):
        spin_operators(sys32.spin).ix[0, 1] = 0.0
    with pytest.raises(TypeError):
        sys32._freqs[0] = 0.0
    assert len(sys32._freqs) == 3
    assert sys32 == SpinSystem() and hash(sys32) == hash(SpinSystem())


def reference_hamiltonian(sys, zeeman=True):
    """Dense-matrix form of H (or of its quadrupolar term alone)."""
    ops = spin_operators(sys.spin)
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
    assert np.array_equal(propagator(quad_delay(tau), sys),
                          expm_hermitian(reference_hamiltonian(sys, zeeman=False), -tau))


def test_labels_are_derived_from_the_spin():
    init_fields = [f.name for f in dataclasses.fields(SpinSystem) if f.init]
    assert init_fields == ["spin", "offset_hz", "lambda_hz"]
    assert SpinSystem().labels == ("00", "01", "11", "10")
    assert SpinSystem(spin=1.0).labels == ("00", "01", "10")
    assert SpinSystem(spin=3.5).labels == tuple(format(k, "03b") for k in range(8))
    with pytest.raises(TypeError):
        SpinSystem(labels=("a", "b", "c", "d"))


# the halves of a refocus block are free evolution under the full Hamiltonian
@pytest.mark.parametrize("event_type", [Refocus, QuadDelay],
                         ids=["free_evolution", "quad_evolution"])
@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf"), -1e-9])
def test_non_finite_or_negative_time_rejected(event_type, tau):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        propagator(event_type(tau_s=tau, tau_text=""), SpinSystem())
