"""``decompose`` against the all-pairs oracle of ``ssd_oracle``.

The oracle decides commutation by scanning every product pair; ``decompose``
certifies it from one joint diagonalization and scans only when the
certificate fails. Both must give the same verdict and the same witness.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import schmidtkit.ssd as ssd
from schmidtkit import BipartiteVector, CommutationWitness, SpectrumWitness, bell_state, decompose

from conftest import random_unitary
from ssd_oracle import oracle_decide

SEEDS = st.integers(0, 2**32 - 1)
EXAMPLES = settings(max_examples=30, deadline=None)

#: supports of the two 4x4 amplitude matrices of fixtures/nonssd_pair_4x4.json
NONSSD_SUPPORTS = (((0, 0), (1, 2), (2, 1)), ((0, 0), (1, 3), (2, 1)))


def unit_vectors(mats):
    return [BipartiteVector.from_matrix(m / np.linalg.norm(m)) for m in mats]


def rotated_diagonal(rng, l, da, db, rank):
    """``l`` members ``UA @ D_a @ UB.T`` whose diagonals ``D_a`` are supported
    on the first ``rank`` Schmidt slots."""
    ua, ub = random_unitary(rng, da), random_unitary(rng, db)
    idx = np.arange(rank)
    mats = []
    for _ in range(l):
        diag = np.zeros((da, db), complex)
        diag[idx, idx] = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
        mats.append(ua @ diag @ ub.T)
    return mats


def assert_agrees(vectors, seed=0):
    result = decompose(vectors, seed=seed)
    ok, witness = oracle_decide(vectors, seed=seed)
    got = result.verdict
    assert got.decomposable == ok
    assert type(got.witness) is type(witness)
    if isinstance(witness, CommutationWitness):
        assert got.witness == witness
    if isinstance(witness, SpectrumWitness):
        assert got.witness.pair == witness.pair
    return result


@EXAMPLES
@given(
    l=st.integers(1, 8),
    da=st.integers(2, 6),
    db=st.integers(2, 6),
    rank=st.integers(1, 6),
    seed=SEEDS,
)
def test_rotated_diagonal_families(l, da, db, rank, seed):
    rng = np.random.default_rng(seed)
    mats = rotated_diagonal(rng, l, da, db, min(rank, da, db))
    result = assert_agrees(unit_vectors(mats), seed=seed % 97)
    assert result.verdict.decomposable


# tol * max(1, n^2) is 1e-10 for unit vectors, whose products have norm <= 1:
# 1e-11 stays below it, 1e-9 and 1e-3 go above it
@EXAMPLES
@given(
    l=st.integers(2, 8),
    d=st.integers(2, 6),
    size=st.sampled_from([1e-11, 1e-9, 1e-3]),
    seed=SEEDS,
)
def test_one_member_perturbations(l, d, size, seed):
    rng = np.random.default_rng(seed)
    mats = rotated_diagonal(rng, l, d, d, d)
    k = int(rng.integers(l))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mats[k] = mats[k] + size * np.linalg.norm(mats[k]) * g / np.linalg.norm(g)
    assert_agrees(unit_vectors(mats))


@EXAMPLES
@given(l=st.integers(2, 8), d=st.integers(4, 6), seed=SEEDS)
def test_nonssd_pattern_embeddings(l, d, seed):
    rng = np.random.default_rng(seed)
    patterns = []
    for support in NONSSD_SUPPORTS:
        p = np.zeros((4, 4), complex)
        for row, col in support:
            p[row, col] = 1.0
        patterns.append(p)
    ua, ub = random_unitary(rng, d), random_unitary(rng, d)
    mats = []
    for _ in range(l):
        x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        m = np.zeros((d, d), complex)
        m[:4, :4] = x * patterns[0] + y * patterns[1]
        m[np.arange(4, d), np.arange(4, d)] = rng.standard_normal(d - 4)
        mats.append(ua @ m @ ub.T)
    result = assert_agrees(unit_vectors(mats))
    assert isinstance(result.verdict.witness, SpectrumWitness)


@EXAMPLES
@given(d=st.integers(2, 6), size=st.integers(2, 5), seed=SEEDS)
def test_bell_subsets(d, size, seed):
    rng = np.random.default_rng(seed)
    picks = rng.choice(d * d, size=min(size, d * d), replace=False)
    assert_agrees([bell_state(d, int(p) // d, int(p) % d) for p in picks])


def test_failed_certificate_falls_back_to_scan(monkeypatch):
    """A first combination of all zeros has the standard basis as eigenbasis,
    which fails the certificate on a rotated family; the pairwise scan then
    finds no witness and a redraw gives the positive verdict."""
    vectors = unit_vectors(rotated_diagonal(np.random.default_rng(7), 5, 4, 4, 4))
    folded_draw = ssd._folded_draw

    def zero_first_draw(l):
        draw = folded_draw(l)
        calls = []

        def patched(rng):
            h, s = draw(rng)
            calls.append(None)
            return (0.0 * h, 0.0 * s) if len(calls) == 1 else (h, s)

        return patched

    scans = []
    scan = ssd._commutation_witness

    def recorded_scan(*args):
        scans.append(scan(*args))
        return scans[-1]

    monkeypatch.setattr(ssd, "_folded_draw", zero_first_draw)
    monkeypatch.setattr(ssd, "_commutation_witness", recorded_scan)
    result = decompose(vectors)
    assert scans == [None]
    assert result.verdict.decomposable
    assert result.residual < 1e-9


def test_folded_draw_gives_the_full_family_combination():
    """Folding keeps a seed's combination, and so its basis, unchanged."""
    l = 4
    mats = np.stack(rotated_diagonal(np.random.default_rng(3), l, 3, 5, 3))
    first, second = np.divmod(np.arange(l * l), l)
    full = mats[first] @ mats[second].conj().transpose(0, 2, 1)
    upper = np.triu_indices(l)
    half = mats[upper[0]] @ mats[upper[1]].conj().transpose(0, 2, 1)

    def combination(products, herm, anti):
        adjoint = products.conj().transpose(0, 2, 1)
        return np.tensordot(herm, products + adjoint, 1) / 2 + np.tensordot(
            anti, products - adjoint, 1
        ) / 2j

    coeffs = np.random.default_rng(11).standard_normal(2 * l * l)
    herm, anti = ssd._folded_draw(l)(np.random.default_rng(11))
    expected = combination(full, coeffs[: l * l], coeffs[l * l :])
    assert np.abs(combination(half, herm, anti) - expected).max() < 1e-12
