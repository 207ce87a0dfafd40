import numpy as np
import pytest

from schmidtkit import (
    BellSet,
    DimensionMismatchError,
    EnumerationCapError,
    VerificationError,
    amplitude_matrix,
    bell_matrix,
    bell_state,
    bell_vectors,
    check_bell_set,
    check_commutation,
    check_size_bound,
    decompose,
    enumerate_bell_sets,
    linear_family,
    weyl_x,
    weyl_z,
)


def random_bell_subset(rng, d, size):
    picks = rng.choice(d * d, size=size, replace=False)
    return BellSet(d, tuple((int(p) // d, int(p) % d) for p in picks))


class TestWeylOperators:
    def test_qubit_matrices(self):
        assert np.array_equal(weyl_x(2).real, [[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(weyl_z(2), np.diag([1.0, -1.0]), atol=1e-15)

    def test_cyclicity(self):
        for d in range(2, 9):
            assert np.abs(np.linalg.matrix_power(weyl_x(d), d) - np.eye(d)).max() < 1e-12
            assert np.abs(np.linalg.matrix_power(weyl_z(d), d) - np.eye(d)).max() < 1e-12

    def test_braiding_relation(self):
        for d in range(2, 9):
            x, z = weyl_x(d), weyl_z(d)
            omega = np.exp(2j * np.pi / d)
            assert np.linalg.norm(x @ z - omega * z @ x) < 1e-12

    def test_shift_direction(self):
        x = weyl_x(3)
        e1 = np.zeros(3)
        e1[1] = 1.0
        assert np.allclose(x @ e1, [1.0, 0.0, 0.0])  # |1> -> |0>


class TestBellStates:
    def test_qubit_reference(self):
        v = bell_state(2, 0, 0)
        assert np.allclose(v.amps, [1 / np.sqrt(2), 0.0, 0.0, 1 / np.sqrt(2)])

    def test_amplitude_matrix_closed_form(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 9))
            n, m = int(rng.integers(d)), int(rng.integers(d))
            x, z = weyl_x(d), weyl_z(d)
            expected = (
                np.linalg.matrix_power(z, n) @ np.linalg.matrix_power(x, m) / np.sqrt(d)
            )
            assert np.abs(bell_matrix(d, n, m) - expected).max() < 1e-12
            assert np.abs(amplitude_matrix(bell_state(d, n, m)) - expected).max() < 1e-12

    def test_products_are_scaled_identity(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 9))
            n, m = int(rng.integers(d)), int(rng.integers(d))
            mat = bell_matrix(d, n, m)
            assert np.abs(mat @ mat.conj().T - np.eye(d) / d).max() < 1e-12

    def test_pairwise_orthogonality_exhaustive(self):
        for d in (2, 3, 4, 5):
            amps = [bell_state(d, n, m).amps for n in range(d) for m in range(d)]
            gram = np.abs(np.array([[np.vdot(a, b) for b in amps] for a in amps]))
            assert np.abs(gram - np.eye(d * d)).max() < 1e-12


class TestBellSetType:
    def test_canonicalizes_mod_d(self):
        s = BellSet(3, ((4, -1), (0, 0)))
        assert s.indices == ((1, 2), (0, 0))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            BellSet(3, ((1, 2), (4, 2)))

    def test_rejects_bad_witness(self):
        with pytest.raises(ValueError):
            BellSet(3, ((0, 0), (1, 1)), witness=(0, 0, 0))
        with pytest.raises(ValueError):
            BellSet(3, ((0, 0), (0, 1)), witness=(0, 1, 0))


class TestCriterion:
    def test_any_pair_passes(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 7))
            s = random_bell_subset(rng, d, 2)
            ok, witness = check_bell_set(s)
            assert ok
            assert witness is not None

    def test_affine_triple_witness(self):
        ok, witness = check_bell_set(BellSet(3, ((0, 0), (1, 1), (2, 2))))
        assert ok
        p, q, r = witness
        assert (p + q) % 3 == 0 and r == 0
        assert witness == (1, 2, 0)  # first triple in lexicographic scan order

    def test_non_collinear_triple_fails(self):
        ok, witness = check_bell_set(BellSet(3, ((0, 0), (0, 1), (1, 0))))
        assert not ok
        assert witness is None

    def test_composite_dimension_zero_divisor_set_fails(self):
        # (2,0) and (0,1) share the annihilator (2,0) mod 4, yet the
        # displacement products do not commute; the criterion must reject.
        s = BellSet(4, ((0, 0), (2, 0), (0, 1)))
        ok, _ = check_bell_set(s)
        assert not ok
        ok_matrix, _ = check_commutation(bell_vectors(s))
        assert not ok_matrix

    def test_witness_annihilates_all_differences(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            size = int(rng.integers(2, d + 1))
            s = random_bell_subset(rng, d, size)
            ok, witness = check_bell_set(s)
            if not ok:
                continue
            p, q, r = witness
            for n, m in s.indices:
                assert (p * n + q * m) % d == r

    def test_matches_matrix_level_commutation(self, rng):
        agree = 0
        for _ in range(120):
            d = int(rng.integers(2, 6))
            size = int(rng.integers(2, min(d * d, 6)))
            s = random_bell_subset(rng, d, size)
            ok_idx, _ = check_bell_set(s)
            ok_mat, _ = check_commutation(bell_vectors(s))
            assert ok_idx == ok_mat
            agree += 1
        assert agree == 120

    def test_passing_sets_fully_decompose(self, rng):
        done = 0
        while done < 15:
            d = int(rng.integers(2, 6))
            size = int(rng.integers(2, d + 1))
            s = random_bell_subset(rng, d, size)
            ok, _ = check_bell_set(s)
            if not ok:
                continue
            res = decompose(bell_vectors(s))
            assert res.verdict.decomposable
            assert res.residual < 1e-9
            done += 1


class TestEnumeration:
    def test_three_dim_triples(self):
        assert enumerate_bell_sets(3, 3).count == 12

    def test_four_dim_counts(self):
        assert enumerate_bell_sets(4, 3).count == 112
        assert enumerate_bell_sets(4, 4).count == 28

    def test_five_dim_counts(self):
        assert enumerate_bell_sets(5, 3).count == 300
        assert enumerate_bell_sets(5, 4).count == 150
        assert enumerate_bell_sets(5, 5).count == 30

    def test_listing_matches_count_and_carries_witnesses(self):
        tally = enumerate_bell_sets(3, 3, include_sets=True)
        assert tally.sets is not None
        assert len(tally.sets) == tally.count == 12
        for s in tally.sets:
            assert s.witness is not None
            ok, _ = check_bell_set(s)
            assert ok

    def test_translation_invariance_of_counts(self):
        # relabeling (n, m) -> (n+1, m) maps passing sets to passing sets
        tally = enumerate_bell_sets(4, 4, include_sets=True)
        for s in tally.sets:
            shifted = BellSet(4, tuple(((n + 1) % 4, m) for n, m in s.indices))
            ok, _ = check_bell_set(shifted)
            assert ok

    def test_cap_guard(self):
        with pytest.raises(EnumerationCapError):
            enumerate_bell_sets(5, 3, cap=10)

    def test_input_validation(self):
        with pytest.raises(DimensionMismatchError):
            enumerate_bell_sets(9, 2)
        with pytest.raises(ValueError):
            enumerate_bell_sets(3, 1)


class TestLinearFamilies:
    def test_direct_substitution(self):
        fam = linear_family(3, 0, 1, orientation="n")
        assert fam.indices == ((0, 1), (1, 1), (2, 1))

    def test_diagonal_family(self):
        fam = linear_family(4, 1, 0)
        assert fam.indices == ((0, 0), (1, 1), (2, 2), (3, 3))
        ok, _ = check_bell_set(fam)
        assert ok

    def test_all_small_families_pass(self):
        for d in range(2, 7):
            for f in range(d):
                for g in range(d):
                    for orient in ("n", "m"):
                        fam = linear_family(d, f, g, orientation=orient)
                        assert len(fam.indices) == d
                        assert len(set(fam.indices)) == d
                        assert fam.witness is not None

    def test_m_orientation(self):
        fam = linear_family(3, 2, 1, orientation="m")
        assert fam.indices == ((1, 0), (0, 1), (2, 2))

    def test_rejects_bad_orientation(self):
        with pytest.raises(ValueError):
            linear_family(3, 1, 0, orientation="x")

    def test_missing_witness_is_an_error(self, monkeypatch):
        import schmidtkit.bell as bell

        monkeypatch.setattr(bell, "_find_witness", lambda indices, d: None)
        with pytest.raises(VerificationError):
            check_bell_set(BellSet(3, ((0, 0), (1, 1))))
        monkeypatch.setattr(bell, "check_bell_set", lambda s: (False, None))
        with pytest.raises(VerificationError):
            linear_family(3, 1, 0)


class TestSizeBound:
    def test_no_oversized_sets(self):
        for d in (2, 3, 4, 5):
            assert check_size_bound(d)


class TestExhaustiveEquivalence:
    def test_small_dimensions_all_subsets(self):
        # every subset, not a sample: index criterion == matrix-level commutation
        from itertools import combinations

        for d, max_size in ((2, 4), (3, 4)):
            grid = [(n, m) for n in range(d) for m in range(d)]
            for size in range(2, max_size + 1):
                for subset in combinations(grid, size):
                    s = BellSet(d, subset)
                    ok_idx, _ = check_bell_set(s)
                    ok_mat, _ = check_commutation(bell_vectors(s))
                    assert ok_idx == ok_mat, subset

    def test_d4_triples_all_subsets(self):
        from itertools import combinations

        grid = [(n, m) for n in range(4) for m in range(4)]
        mismatches = 0
        for subset in combinations(grid, 3):
            s = BellSet(4, subset)
            ok_idx, _ = check_bell_set(s)
            ok_mat, _ = check_commutation(bell_vectors(s))
            mismatches += ok_idx != ok_mat
        assert mismatches == 0
