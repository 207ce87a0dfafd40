import numpy as np
import pytest

from schmidtkit import (
    DimensionMismatchError,
    NotCommutingError,
    NotHermitianError,
    NotNormalError,
    ToleranceError,
    commutator_norm,
    hermitian_eig,
    is_normal,
    joint_diagonalize,
    weyl_x,
    weyl_z,
)
from schmidtkit.states import amplitude_matrix

from conftest import nonssd_pair, random_unitary, ssd_pair


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2.0


class TestHermitianEig:
    def test_identity(self):
        sys = hermitian_eig(np.eye(3, dtype=complex))
        assert np.allclose(sys.values, np.ones(3))
        assert np.allclose(sys.vectors.conj().T @ sys.vectors, np.eye(3), atol=1e-12)

    def test_rank_three_projector_scaled(self):
        # the A-side product of the first vector of the shipped 4x4 pair
        v1, _ = nonssd_pair()
        m = amplitude_matrix(v1)
        g = m @ m.conj().T
        sys = hermitian_eig(g)
        assert np.allclose(sys.values, [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-12)

    def test_values_sorted_descending(self, rng):
        m = random_hermitian(rng, 6)
        sys = hermitian_eig(m)
        assert np.all(np.diff(sys.values) <= 1e-12)

    def test_reconstruction(self, rng):
        for _ in range(10):
            m = random_hermitian(rng, 5)
            sys = hermitian_eig(m)
            rebuilt = sys.vectors @ np.diag(sys.values) @ sys.vectors.conj().T
            assert np.abs(rebuilt - m).max() < 1e-12
            assert sys.residual < 1e-12

    def test_phase_convention(self, rng):
        m = random_hermitian(rng, 5)
        sys = hermitian_eig(m)
        for k in range(5):
            col = sys.vectors[:, k]
            pivot = col[int(np.argmax(np.abs(col)))]
            assert pivot.real >= 0.0
            assert abs(pivot.imag) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestIsNormal:
    def test_unitary(self, rng):
        assert is_normal(random_unitary(rng, 5))

    def test_nilpotent_is_not(self):
        assert not is_normal(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_cross_product_of_shipped_pair(self):
        v1, v2 = nonssd_pair()
        g = amplitude_matrix(v1) @ amplitude_matrix(v2).conj().T
        assert is_normal(g)

    def test_rejects_non_square(self):
        from schmidtkit import NonSquareError

        with pytest.raises(NonSquareError):
            is_normal(np.ones((2, 3)))


class TestCommutatorNorm:
    def test_diagonal_matrices_commute(self):
        assert commutator_norm(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0

    def test_shift_and_clock(self):
        # XZ = w ZX, so the qubit commutator has norm |w - 1| * |ZX|_F = 2 sqrt(2)
        x, z = weyl_x(2), weyl_z(2)
        assert abs(commutator_norm(x, z) - 2.0 * np.sqrt(2.0)) < 1e-12

    def test_cross_products_of_shipped_pair(self):
        v1, v2 = nonssd_pair()
        m1, m2 = amplitude_matrix(v1), amplitude_matrix(v2)
        assert commutator_norm(m1 @ m2.conj().T, m2 @ m1.conj().T) < 1e-14

    def test_symmetry_and_unitary_invariance(self, rng):
        for _ in range(5):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u = random_unitary(rng, 4)
            assert abs(commutator_norm(a, b) - commutator_norm(b, a)) < 1e-12
            conj_a, conj_b = u @ a @ u.conj().T, u @ b @ u.conj().T
            assert abs(commutator_norm(a, b) - commutator_norm(conj_a, conj_b)) < 1e-12

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionMismatchError):
            commutator_norm(np.eye(2), np.eye(3))


class TestJointDiagonalize:
    def test_identity_family(self):
        jb = joint_diagonalize([np.eye(4, dtype=complex)])
        assert np.allclose(jb.basis.conj().T @ jb.basis, np.eye(4), atol=1e-12)
        assert np.allclose(jb.values[0], np.ones(4))
        assert jb.residual < 1e-12

    def test_products_of_decomposable_pair(self):
        # products of the shipped decomposable pair share the eigenbasis
        # {|0>, |3>, (|1>+|2>)/sqrt(2), (|1>-|2>)/sqrt(2)}
        v1, v2 = ssd_pair()
        m1, m2 = amplitude_matrix(v1), amplitude_matrix(v2)
        fam = [m1 @ m1.conj().T, m2 @ m2.conj().T, m1 @ m2.conj().T]
        jb = joint_diagonalize(fam)
        assert jb.residual < 1e-10
        vals2 = np.sort(jb.values[1].real)
        assert np.allclose(vals2, [0.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-10)
        assert np.allclose(np.sort(jb.values[0].real), [0.0, 0.0, 0.0, 1.0], atol=1e-10)
        assert np.abs(jb.values[2]).max() < 1e-10
        # the column carrying the first product's unit eigenvalue is (|1>-|2>)/sqrt(2)
        j = int(np.argmax(jb.values[0].real))
        col = jb.basis[:, j]
        expected = np.zeros(4, complex)
        expected[1], expected[2] = 1.0, -1.0
        expected /= np.sqrt(2.0)
        assert min(np.linalg.norm(col - expected), np.linalg.norm(col + expected)) < 1e-10
        # the three columns carrying the second product's 1/3 span {|0>,|3>,(|1>+|2>)/sqrt2}
        mask = jb.values[1].real > 1e-6
        span = jb.basis[:, mask]
        proj = span @ span.conj().T
        basis = np.zeros((4, 3), complex)
        basis[0, 0] = 1.0
        basis[3, 1] = 1.0
        basis[1, 2] = basis[2, 2] = 1.0 / np.sqrt(2.0)
        expected_proj = basis @ basis.conj().T
        assert np.abs(proj - expected_proj).max() < 1e-10

    def test_construct_then_recover(self, rng):
        for trial in range(10):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(2, 9))
            u = random_unitary(rng, n)
            fam = []
            for _ in range(k):
                d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                fam.append(u @ np.diag(d) @ u.conj().T)
            jb = joint_diagonalize(fam, seed=trial)
            assert jb.residual < 1e-10
            assert np.linalg.norm(jb.basis.conj().T @ jb.basis - np.eye(n)) < 1e-10

    def test_matches_hermitian_eig_on_single_matrix(self, rng):
        m = random_hermitian(rng, 6)
        jb = joint_diagonalize([m])
        sys = hermitian_eig(m)
        assert np.allclose(np.sort(jb.values[0].real), np.sort(sys.values), atol=1e-10)
        assert np.abs(jb.values[0].imag).max() < 1e-10

    def test_deterministic_given_seed(self, rng):
        u = random_unitary(rng, 5)
        fam = [u @ np.diag(rng.standard_normal(5)) @ u.conj().T for _ in range(3)]
        a = joint_diagonalize(fam, seed=42)
        b = joint_diagonalize(fam, seed=42)
        assert np.array_equal(a.basis, b.basis)
        assert np.array_equal(a.values, b.values)

    def test_degenerate_family_refines(self):
        # block-degenerate pair that defeats naive single-matrix eigenbases
        a = np.diag([1.0, 1.0, 2.0, 2.0]).astype(complex)
        b = np.zeros((4, 4), complex)
        b[0, 1] = b[1, 0] = 1.0
        b[2, 3] = b[3, 2] = 1.0
        jb = joint_diagonalize([a, b])
        assert jb.residual < 1e-10

    def test_rejects_non_commuting(self):
        with pytest.raises(NotCommutingError) as info:
            joint_diagonalize([weyl_x(3), weyl_z(3)])
        assert info.value.pair == (0, 1)
        assert info.value.norm > 1.0

    def test_rejects_non_normal(self):
        nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NotNormalError):
            joint_diagonalize([nil, np.eye(2, dtype=complex)])

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), float("inf")])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ToleranceError):
            joint_diagonalize([np.eye(2, dtype=complex)], tol=tol)
