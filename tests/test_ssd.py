import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from schmidtkit import (
    BipartiteVector,
    CommutationWitness,
    GramEnsemble,
    NotCommutingError,
    NotDecomposableError,
    SpectrumWitness,
    SSDVerdict,
    ToleranceError,
    VerificationError,
    amplitude_matrix,
    bell_state,
    check_commutation,
    check_spectrum_factorization,
    decompose,
    reassemble,
    schmidt_decompose,
    to_maximally_correlated,
)

from conftest import S3, nonssd_pair, random_state, random_unitary, ssd_mixture, ssd_pair


def synthetic_family(rng, da, db, l):
    """Family built in diagonal form in a shared random basis, hence decomposable."""
    ua, ub = random_unitary(rng, da), random_unitary(rng, db)
    rank = min(da, db)
    vectors = []
    for _ in range(l):
        row = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
        row /= np.linalg.norm(row)
        mat = np.zeros((da, db), complex)
        mat[np.arange(rank), np.arange(rank)] = row
        vectors.append(BipartiteVector.from_matrix(ua @ mat @ ub.T))
    return vectors


class TestConditionChecks:
    def test_single_vector_always_commutes(self, rng):
        v = random_state(rng, 3, 4)
        ok, worst = check_commutation([v])
        assert ok and worst == 0.0

    def test_shipped_nonssd_pair_commutes(self):
        ok, worst = check_commutation(list(nonssd_pair()))
        assert ok
        assert worst < 1e-14

    def test_bell_pairs_commute(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            picks = rng.choice(d * d, size=2, replace=False)
            vs = [bell_state(d, int(p) // d, int(p) % d) for p in picks]
            ok, _ = check_commutation(vs)
            assert ok

    def test_generic_pair_does_not_commute(self, rng):
        vs = [random_state(rng, 3, 3) for _ in range(2)]
        ok, worst = check_commutation(vs)
        assert not ok
        assert worst > 1e-3

    def test_factorization_fails_on_shipped_pair(self):
        ok, witness = check_spectrum_factorization(list(nonssd_pair()))
        assert not ok
        assert abs(witness.lhs) < 1e-12
        assert abs(witness.rhs - 1.0 / 9.0) < 1e-12

    def test_factorization_requires_commutation(self, rng):
        vs = [random_state(rng, 3, 3) for _ in range(2)]
        with pytest.raises(NotCommutingError):
            check_spectrum_factorization(vs)

    def test_factorization_holds_for_synthetic_families(self, rng):
        for _ in range(5):
            vectors = synthetic_family(rng, 4, 4, 3)
            ok, witness = check_spectrum_factorization(vectors)
            assert ok and witness is None


class TestDecompose:
    def test_single_vector_matches_svd(self, rng):
        for _ in range(10):
            da, db = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            v = random_state(rng, da, db)
            res = decompose([v])
            assert res.verdict.decomposable
            sv = schmidt_decompose(v).coeffs
            assert np.allclose(np.sort(np.abs(res.coeffs[0])), np.sort(sv), atol=1e-10)

    def test_shipped_pair_coefficient_patterns(self):
        v1, v2 = ssd_pair()
        res = decompose([v1, v2])
        assert res.verdict.decomposable
        assert res.residual < 1e-9
        mags1 = np.sort(np.abs(res.coeffs[0]))[::-1]
        mags2 = np.sort(np.abs(res.coeffs[1]))[::-1]
        assert np.allclose(mags1, [1.0, 0.0, 0.0, 0.0], atol=1e-9)
        assert np.allclose(mags2, [S3, S3, S3, 0.0], atol=1e-9)

    def test_shipped_pair_witnessed_rejection(self):
        res = decompose(list(nonssd_pair()))
        assert not res.verdict.decomposable
        assert res.verdict.products_commute
        assert not res.verdict.spectra_factorize
        w = res.verdict.witness
        assert isinstance(w, SpectrumWitness)
        assert abs(w.lhs) < 1e-12
        assert abs(w.rhs - 1.0 / 9.0) < 1e-12
        assert res.ua is None and res.coeffs is None

    def test_negative_verdict_stable_across_tolerances(self):
        for tol in (1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
            res = decompose(list(nonssd_pair()), tol=tol)
            assert not res.verdict.decomposable

    def test_affine_bell_triple(self):
        vs = [bell_state(3, k, k) for k in range(3)]
        res = decompose(vs)
        assert res.verdict.decomposable
        assert np.abs(np.abs(res.coeffs) - 1.0 / np.sqrt(3.0)).max() < 1e-9

    def test_completeness_on_synthetic_families(self, rng):
        for _ in range(20):
            da = int(rng.integers(2, 7))
            db = int(rng.integers(2, 7))
            l = int(rng.integers(1, min(5, min(da, db) + 1)))
            vectors = synthetic_family(rng, da, db, l)
            res = decompose(vectors)
            assert res.verdict.decomposable
            assert res.residual < 1e-9

    def test_soundness_reassembly(self, rng):
        for _ in range(10):
            vectors = synthetic_family(rng, 5, 4, 3)
            res = decompose(vectors)
            rebuilt = reassemble(res, 5, 4)
            for orig, new in zip(vectors, rebuilt):
                assert np.linalg.norm(orig.amps - new.amps) < 1e-9

    def test_round_trip_conditions_hold_on_reconstruction(self, rng):
        vectors = synthetic_family(rng, 4, 5, 3)
        res = decompose(vectors)
        rebuilt = reassemble(res, 4, 5)
        ok, _ = check_commutation(rebuilt)
        assert ok
        ok_b, _ = check_spectrum_factorization(rebuilt)
        assert ok_b

    def test_transformed_vectors_are_diagonal(self, rng):
        vectors = synthetic_family(rng, 4, 6, 3)
        res = decompose(vectors)
        for v in vectors:
            t = res.ua @ amplitude_matrix(v) @ res.ub.T
            off = t.copy()
            off[np.arange(4), np.arange(4)] = 0.0
            assert np.abs(off).max() < 1e-9

    def test_unitarity_of_outputs(self, rng):
        vectors = synthetic_family(rng, 5, 3, 2)
        res = decompose(vectors)
        assert np.linalg.norm(res.ua.conj().T @ res.ua - np.eye(5)) < 1e-10
        assert np.linalg.norm(res.ub.conj().T @ res.ub - np.eye(3)) < 1e-10

    def test_generic_families_rejected_with_witness(self, rng):
        for _ in range(20):
            l = int(rng.integers(2, 5))
            vectors = [random_state(rng, 4, 4) for _ in range(l)]
            res = decompose(vectors)
            assert not res.verdict.decomposable
            assert isinstance(res.verdict.witness, (CommutationWitness, SpectrumWitness))

    def test_deterministic(self, rng):
        vectors = synthetic_family(rng, 4, 4, 3)
        a = decompose(vectors, seed=9)
        b = decompose(vectors, seed=9)
        assert np.array_equal(a.ua, b.ua)
        assert np.array_equal(a.ub, b.ub)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_coefficient_rows_unit_norm(self, rng):
        vectors = synthetic_family(rng, 6, 4, 4)
        res = decompose(vectors)
        norms = np.linalg.norm(res.coeffs, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-9


class TestMaximallyCorrelated:
    def test_rank_two_mixture(self):
        ens = ssd_mixture()
        res = decompose(list(ens.vectors))
        form = to_maximally_correlated(ens, res)
        alpha = form.coeff_matrix
        assert abs(np.trace(alpha) - 1.0) < 1e-9
        # the coefficient matrix inherits the mixture spectrum {3/4, 1/4, 0, 0}
        eigs = np.sort(np.linalg.eigvalsh(alpha))[::-1]
        assert np.allclose(eigs, [0.75, 0.25, 0.0, 0.0], atol=1e-9)

    def test_pure_reference_state_gives_flat_matrix(self):
        for d in (2, 3):
            v = bell_state(d, 0, 0)
            ens = GramEnsemble.uniform((v,))
            res = decompose([v])
            form = to_maximally_correlated(ens, res)
            assert np.abs(np.abs(form.coeff_matrix) - 1.0 / d).max() < 1e-9

    def test_rank_two_bell_mixture_structure(self, rng):
        lam = 0.37
        vs = (bell_state(4, 1, 2), bell_state(4, 3, 0))
        ens = GramEnsemble(vs, np.diag([lam, 1 - lam]).astype(complex))
        res = decompose(list(vs))
        form = to_maximally_correlated(ens, res)
        eigs = np.sort(np.linalg.eigvalsh(form.coeff_matrix))[::-1]
        assert np.allclose(eigs[:2], [1 - lam, lam], atol=1e-9)
        assert np.abs(eigs[2:]).max() < 1e-9
        # eigenvectors for the two mixture weights have flat magnitude profiles
        w, vecs = np.linalg.eigh(form.coeff_matrix)
        for col in (vecs[:, -1], vecs[:, -2]):
            assert np.abs(np.abs(col) - 0.5).max() < 1e-9

    def test_rejects_negative_verdict(self):
        vs = nonssd_pair()
        ens = GramEnsemble.uniform(vs)
        res = decompose(list(vs))
        with pytest.raises(NotDecomposableError):
            to_maximally_correlated(ens, res)

    def test_rejects_mismatched_decomposition(self, rng):
        ens = ssd_mixture()
        other = synthetic_family(rng, 4, 4, 2)
        res = decompose(other)
        with pytest.raises(VerificationError):
            to_maximally_correlated(ens, res)

    def test_conjugated_density_matches_pattern(self, rng):
        vectors = synthetic_family(rng, 4, 4, 3)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        weights = z @ z.conj().T
        stack = np.stack([v.amps for v in vectors], axis=1)
        gram = stack.conj().T @ stack
        weights /= np.trace(weights @ gram).real
        ens = GramEnsemble(tuple(vectors), weights)
        res = decompose(vectors)
        form = to_maximally_correlated(ens, res)
        assert abs(np.trace(form.coeff_matrix) - 1.0) < 1e-9


class TestRankDeficientEnsembles:
    def test_dependent_vectors_accepted(self, rng):
        v = random_state(rng, 3, 3)
        ens = GramEnsemble.uniform((v, v))
        res = decompose(list(ens.vectors))
        assert res.verdict.decomposable
        form = to_maximally_correlated(ens, res)
        assert abs(np.trace(form.coeff_matrix) - 1.0) < 1e-9


class TestToleranceAndInvariants:
    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), True, "1e-10"])
    def test_bad_tolerance_rejected(self, tol):
        vectors = list(ssd_pair())
        for call in (decompose, check_commutation, check_spectrum_factorization):
            with pytest.raises(ToleranceError):
                call(vectors, tol=tol)

    def test_inconsistent_verdict_raises(self):
        with pytest.raises(VerificationError):
            SSDVerdict(True, True, False, None)
        with pytest.raises(VerificationError):
            SSDVerdict(False, True, True, None)

    def test_inconsistent_verdict_raises_under_optimize(self):
        code = (
            "from schmidtkit import SSDVerdict, VerificationError\n"
            "try:\n"
            "    SSDVerdict(True, False, True, None)\n"
            "except VerificationError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
        assert done.returncode == 0
