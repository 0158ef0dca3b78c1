import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadnmr import (SpinSystem, conjugate, gate_fidelity_global_phase, is_unitary,
                     selective_pulse, spin_operators)
from quadnmr.linalg import _check_spin, expm_from_eigh
from quadnmr.pulses import _generator_table

from helpers import (check_spin_reference, conjugate_reference, expm_from_eigh_reference,
                     expm_hermitian, matrices_close)

SQRT3 = np.sqrt(3.0)


def expm_series(hermitian, scale):
    """Independent oracle: scaled Taylor series with repeated squaring."""
    a = 1j * scale * np.asarray(hermitian, dtype=complex)
    norm = np.linalg.norm(a, np.inf)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.25)))) if norm > 0.25 else 0
    a = a / (2 ** squarings)
    total = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for n in range(1, 40):
        term = term @ a / n
        total = total + term
        if np.max(np.abs(term)) < 1e-18:
            break
    for _ in range(squarings):
        total = total @ total
    return total


def random_hermitian(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


class TestSpinOperators:
    def test_iy_spin_32_matrix_entries(self):
        iy = spin_operators(1.5).iy
        expected = 1j * np.array(
            [[0, -SQRT3 / 2, 0, 0],
             [SQRT3 / 2, 0, -1, 0],
             [0, 1, 0, -SQRT3 / 2],
             [0, 0, SQRT3 / 2, 0]])
        assert matrices_close(iy, expected, atol=1e-12)

    def test_iz_defining_cases(self):
        assert matrices_close(spin_operators(0.5).iz, np.diag([0.5, -0.5]))
        assert matrices_close(spin_operators(1.5).iz, np.diag([1.5, 0.5, -0.5, -1.5]))

    @pytest.mark.parametrize("bad", [0.3, -0.5, 0.0, 1.2])
    def test_rejects_non_half_integer(self, bad):
        with pytest.raises(ValueError):
            spin_operators(bad)

    @pytest.mark.parametrize("spin", [0.5, 1.5, 3.5])
    def test_commutators_and_casimir(self, spin):
        ops = spin_operators(spin)
        assert matrices_close(ops.ix @ ops.iy - ops.iy @ ops.ix, 1j * ops.iz, atol=1e-12)
        assert matrices_close(ops.iy @ ops.iz - ops.iz @ ops.iy, 1j * ops.ix, atol=1e-12)
        assert matrices_close(ops.iz @ ops.ix - ops.ix @ ops.iz, 1j * ops.iy, atol=1e-12)
        casimir = ops.ix @ ops.ix + ops.iy @ ops.iy + ops.iz @ ops.iz
        assert matrices_close(casimir, spin * (spin + 1) * np.eye(ops.dim), atol=1e-12)


class TestExpmHermitian:
    def test_zero_exponent_is_identity(self):
        h = random_hermitian(np.random.default_rng(7))
        assert matrices_close(expm_hermitian(h, 0.0), np.eye(4))

    def test_diagonal_case(self):
        u = expm_hermitian(np.diag([1.0, -1.0]).astype(complex), np.pi)
        assert matrices_close(u, np.diag([np.exp(1j * np.pi), np.exp(-1j * np.pi)]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            expm_hermitian(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    def test_matches_series_oracle(self, rng):
        for _ in range(50):
            h = random_hermitian(rng)
            s = rng.uniform(-3, 3)
            assert matrices_close(expm_hermitian(h, s), expm_series(h, s), atol=1e-9)

    def test_result_unitary(self, rng):
        for _ in range(20):
            assert is_unitary(expm_hermitian(random_hermitian(rng), rng.uniform(-5, 5)))


class TestGateFidelity:
    def test_self_fidelity(self, rng):
        u = expm_hermitian(random_hermitian(rng), 1.0)
        assert gate_fidelity_global_phase(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self, rng):
        u = expm_hermitian(random_hermitian(rng), 1.0)
        v = np.exp(1j * np.pi / 7) * u
        assert gate_fidelity_global_phase(u, v) == pytest.approx(1.0, abs=1e-12)

    def test_identity_oracle_is_identity_gate(self):
        from quadnmr import oracle_matrix
        assert gate_fidelity_global_phase(np.eye(4), oracle_matrix("f1")) == \
            pytest.approx(1.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gate_fidelity_global_phase(np.eye(2), np.eye(4))


class TestConjugate:
    def test_identity_leaves_state(self, rng):
        rho = random_hermitian(rng)
        assert matrices_close(conjugate(rho, np.eye(4)), rho)

    def test_subspace_pi_pulse_swaps_populations(self):
        pulse = np.array([[0, 1], [-1, 0]], dtype=complex)
        rho = np.diag([0.7, -0.2]).astype(complex)
        assert matrices_close(conjugate(rho, pulse), np.diag([-0.2, 0.7]))

    def test_subspace_half_pulse_equalizes(self):
        pulse = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)
        p_i, p_j = 0.9, 0.1
        rho = np.diag([p_i, p_j]).astype(complex)
        out = conjugate(rho, pulse)
        assert out[0, 0] == pytest.approx((p_i + p_j) / 2)
        assert out[1, 1] == pytest.approx((p_i + p_j) / 2)
        assert abs(out[0, 1]) == pytest.approx(abs(p_j - p_i) / 2)

    def test_preserves_trace_and_hermiticity(self, rng):
        rho = random_hermitian(rng)
        u = expm_hermitian(random_hermitian(rng), 0.8)
        out = conjugate(rho, u)
        assert np.trace(out).real == pytest.approx(np.trace(rho).real, abs=1e-12)
        assert matrices_close(out, out.conj().T, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(-4, 4))
def test_expm_series_agreement_property(seed, scale):
    h = random_hermitian(np.random.default_rng(seed))
    assert matrices_close(expm_hermitian(h, scale), expm_series(h, scale), atol=1e-9)


# complex parts from signed zero through subnormal to 1e100, whose sums of
# triple products stay finite
PARTS = st.one_of(st.floats(-1e3, 1e3),
                  st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2e-308, 1e100, -1e100]))


@st.composite
def complex_matrices(draw, dim):
    """Random entries of magnitudes 1e-3 to 1e3, up to eight of them drawn from PARTS."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) \
        * 10.0 ** rng.integers(-3, 4, size=(dim, dim))
    for _ in range(draw(st.integers(0, 8))):
        row, col = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        matrix[row, col] = complex(draw(PARTS), draw(PARTS))
    return matrix


@st.composite
def sparse_matrices(draw, dim):
    """Mostly signed zeros, where the sums of products keep or lose their signs."""
    matrix = np.full((dim, dim), complex(draw(st.sampled_from([0.0, -0.0])), -0.0))
    for _ in range(draw(st.integers(0, dim))):
        matrix[draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))] = complex(
            draw(PARTS), draw(PARTS))
    return matrix


@st.composite
def matrix_pairs(draw):
    """A state and a propagator: random, sparse with signed zeros, or a
    pulse of the package, whose blocks hold exact zeros."""
    dim = draw(st.integers(2, 16))
    rho = draw(st.one_of(complex_matrices(dim), sparse_matrices(dim)))
    kind = draw(st.sampled_from(["random", "sparse", "pulse"]))
    if kind == "pulse":
        sys = SpinSystem(spin=(dim - 1) / 2.0)
        u = selective_pulse(sys, f"{sys.labels[0]}-{sys.labels[1]}", "x", draw(PARTS) % 7.0)
    else:
        u = draw(complex_matrices(dim) if kind == "random" else sparse_matrices(dim))
    # a transposed view as well as a fresh array
    return (rho.T if draw(st.booleans()) else rho), u


class TestRewritesKeepTheirBits:
    """linalg functions against their bodies before the fixed-cost cut."""

    @settings(max_examples=200, deadline=None)
    @given(matrix_pairs())
    def test_conjugate_equals_the_matmul_reference(self, pair):
        rho, u = pair
        assert conjugate(rho, u).tobytes() == conjugate_reference(rho, u).tobytes()

    @pytest.mark.parametrize("shapes", [((3, 4, 4), (3, 4, 4)), ((4,), (4,)), ((4, 4), (3, 3))])
    def test_conjugate_refuses_all_but_two_square_matrices(self, shapes):
        with pytest.raises(ValueError, match="dimension mismatch"):
            conjugate(np.ones(shapes[0]), np.ones(shapes[1]))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16),
           scale=st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 5e-324, 1e-300])),
           stack=st.integers(0, 4))
    def test_expm_from_eigh_equals_the_matmul_reference(self, seed, dim, scale, stack):
        if seed % 2:
            eigvals, eigvecs = np.linalg.eigh(random_hermitian(np.random.default_rng(seed), dim))
        else:   # a pulse generator of the package, with exact zeros
            # the Ix or Iy generator, hard or of the line (0, 1)
            row = (0 if seed % 4 == 0 else 1) + (2 if seed % 3 else 0)
            w, v, _ = _generator_table(dim)
            eigvals, eigvecs = w[row], v[row]
        if stack:   # a stack of scales, as the compiler passes for several pulses
            scale = np.array([scale * k for k in range(1, stack + 1)]).reshape(-1, 1, 1)
        got = expm_from_eigh(eigvals, eigvecs, eigvecs.conj().T, scale)
        assert got.tobytes() == expm_from_eigh_reference(eigvals, eigvecs, scale).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.floats(), st.integers(-3, 40).map(lambda k: k / 2.0),
                     st.integers(-3, 40).map(lambda k: k / 2.0 + 4e-13),
                     st.sampled_from([1e308, 9e307, -1e308, 5e-324, 7.5, 8.0, 0.5 - 1e-13])))
    def test_check_spin_equals_the_reference(self, spin):
        def outcome(check):
            try:
                return check(spin)
            except ValueError as err:
                return str(err)
        assert outcome(_check_spin) == outcome(check_spin_reference)
