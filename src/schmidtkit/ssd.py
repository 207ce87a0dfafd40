"""Simultaneous Schmidt decomposition of bipartite vector families.

A family ``v_1 .. v_l`` with amplitude matrices ``M_1 .. M_l`` is
simultaneously decomposable exactly when

* (commutation) all cross products ``M_a @ M_b^H`` pairwise commute, and
* (spectrum factorization) in the resulting common eigenbasis the diagonal
  values satisfy ``|mu_j(a,b)|^2 = mu_j(a,a) * mu_j(b,b)`` for every basis
  index ``j`` and every pair ``(a, b)``.

When both hold, :func:`decompose` constructs local unitaries ``UA, UB`` such
that every transformed amplitude matrix ``UA @ M_a @ UB.T`` is diagonal, and
reports the per-vector diagonal coefficients. The coefficients are complex:
with a shared basis the per-vector phase freedom of the single-vector case is
no longer available.

How commutation is decided. ``M_b @ M_a^H`` is the adjoint of
``M_a @ M_b^H``, with the same norm and the same off-diagonal residual in any
basis, so only the ``l(l+1)/2`` products with ``a <= b`` are formed. Their
common eigenbasis is sought with one seeded random Hermitian combination
(randomized joint diagonalization), and each product's off-diagonal residual
in that basis is measured. With ``n`` the largest product norm and ``r`` the
largest residual, that basis is a certificate when
``4 n r + 2 r^2 <= tol * max(1, n^2)``. Where two normal matrices ``P, Q``
are diagonal up to off-diagonal parts of norms ``r_P, r_Q``, their commutator
has norm at most ``2 |P| r_Q + 2 |Q| r_P + 2 r_P r_Q <= 4 n r + 2 r^2``;
``Q = P^H`` bounds the normality defect the same way. Members are unit
vectors, so ``n <= 1`` and every threshold of the full pairwise scan is
``tol``: the certificate proves that each of its commutator and normality
checks passes. A positive decision therefore costs ``O(l^2 d^3)``.

When the first basis is no certificate, the pairwise scan over all ``l^2``
products runs in lexicographic order and stops at the first pair over
``tol * max(1, n^2)``: that pair is the :class:`CommutationWitness`. Only when
it finds none (an eigenvalue collision in the combination, or commutators
within a few ``tol`` of the threshold) are further combinations drawn and,
failing those, the sequential refinement run, as in
:func:`schmidtkit.linalg.joint_diagonalize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    BasisOrthogonalityError,
    DimensionMismatchError,
    NotCommutingError,
    NotDecomposableError,
    VerificationError,
)
from .linalg import (
    DEFAULT_TOL,
    _best_basis,
    _candidate_bases,
    _check_normal,
    _check_tol,
    _commutator_norms,
    _first_noncommuting,
    _norms,
    commutator_norm,
    frobenius,
)
from .states import BipartiteVector, GramEnsemble, amplitude_matrix, assemble_density

#: relative threshold below which a diagonal value counts as zero support
RANK_TOL = 1e-10


@dataclass(frozen=True)
class CommutationWitness:
    """First pair of cross products found not to commute.

    ``first`` and ``second`` are ``(a, b)`` vector-index pairs labelling the
    products ``M_a @ M_b^H`` in lexicographic scan order.
    """

    first: tuple[int, int]
    second: tuple[int, int]
    commutator_norm: float


@dataclass(frozen=True)
class SpectrumWitness:
    """First basis index and vector pair violating spectrum factorization."""

    j: int
    pair: tuple[int, int]
    lhs: float
    rhs: float


@dataclass(frozen=True)
class SSDVerdict:
    decomposable: bool
    products_commute: bool
    spectra_factorize: bool
    witness: CommutationWitness | SpectrumWitness | None

    def __post_init__(self):
        if self.decomposable != (self.products_commute and self.spectra_factorize):
            raise VerificationError(
                f"inconsistent verdict: decomposable={self.decomposable} with "
                f"products_commute={self.products_commute} and "
                f"spectra_factorize={self.spectra_factorize}"
            )


@dataclass(frozen=True, eq=False)
class SSDResult:
    """Decomposition verdict plus, when positive, the constructed bases.

    ``coeffs[a, k]`` is the k-th diagonal coefficient of vector ``a`` after the
    transformation; ``residual`` bounds the off-diagonal amplitude mass left in
    any transformed vector. Negative verdicts carry the witness instead.
    """

    verdict: SSDVerdict
    ua: np.ndarray | None
    ub: np.ndarray | None
    coeffs: np.ndarray | None
    residual: float | None


@dataclass(frozen=True, eq=False)
class MaximallyCorrelatedForm:
    """Local unitaries plus the coefficient matrix ``alpha`` such that the
    conjugated density matrix equals ``sum alpha[j,k] |jj><kk|``."""

    coeff_matrix: np.ndarray
    ua: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coeff_matrix, dtype=complex)
        if frobenius(a - a.conj().T) > 1e-9 * max(1.0, frobenius(a)):
            raise VerificationError("coefficient matrix is not Hermitian")
        if float(np.linalg.eigvalsh((a + a.conj().T) / 2.0).min()) < -1e-9:
            raise VerificationError("coefficient matrix is not PSD")
        if abs(np.trace(a) - 1.0) > 1e-9:
            raise VerificationError("coefficient matrix trace is not 1")


def _validate_family(vectors) -> np.ndarray:
    """Stacked amplitude matrices ``(l, dim_a, dim_b)`` of a non-empty family."""
    if not vectors:
        raise DimensionMismatchError("need at least one vector")
    da, db = vectors[0].dim_a, vectors[0].dim_b
    for v in vectors:
        if (v.dim_a, v.dim_b) != (da, db):
            raise DimensionMismatchError("vectors differ in dimensions")
    return np.stack([amplitude_matrix(v) for v in vectors])


def _products(mats, upper: bool) -> np.ndarray:
    """Stacked cross products ``M_a @ M_b^H`` in lexicographic ``(a, b)``
    order: all ``l^2`` of them, or with ``upper`` only those with ``a <= b``."""
    l, da = mats.shape[0], mats.shape[1]
    adjoints = mats.conj().transpose(0, 2, 1)
    out = np.empty((l * (l + 1) // 2 if upper else l * l, da, da), dtype=complex)
    start = 0
    for a in range(l):
        right = adjoints[a:] if upper else adjoints
        np.matmul(mats[a], right, out=out[start : start + len(right)])
        start += len(right)
    return out


def _commutation_limit(products, tol) -> float:
    return tol * max(1.0, float(_norms(products).max()) ** 2)


def check_commutation(vectors, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether all cross products commute; also the worst commutator norm.

    Always runs the full pairwise scan over the ``l^2`` products, since the
    worst norm needs every pair.
    """
    _check_tol(tol)
    products = _products(_validate_family(vectors), upper=False)
    worst = max((float(norms.max()) for _, _, norms in _commutator_norms(products)), default=0.0)
    return worst <= _commutation_limit(products, tol), worst


def _commutation_witness(mats, tol) -> CommutationWitness | None:
    """First non-commuting product pair in lexicographic scan order, or
    ``None``; a scan without a witness also checks that every product is
    normal (raising :class:`NotNormalError` otherwise)."""
    products = _products(mats, upper=False)
    pair = _first_noncommuting(products, _commutation_limit(products, tol))
    if pair is None:
        _check_normal(products, tol)
        return None
    i, j = pair
    l = len(mats)
    return CommutationWitness(
        divmod(i, l), divmod(j, l), commutator_norm(products[i], products[j])
    )


def _folded_draw(l: int):
    """Combination coefficients for the ``a <= b`` products.

    Draws the ``2 l^2`` normals a combination over all ``l^2`` products takes
    and folds the weights of each adjoint ``M_b M_a^H`` onto ``M_a M_b^H``:
    their Hermitian parts are equal and their anti-Hermitian parts opposite.
    The combination, and so the basis a seed selects, is the full family's.
    """
    upper = np.triu_indices(l)
    diagonal = np.eye(l, dtype=bool)

    def draw(rng):
        herm, anti = rng.standard_normal(2 * l * l).reshape(2, l, l)
        folded_herm = np.where(diagonal, herm, herm + herm.T)
        folded_anti = np.where(diagonal, anti, anti - anti.T)
        return folded_herm[upper], folded_anti[upper]

    return draw


def _certifies(n: float, offdiag, tol) -> bool:
    """Whether the off-diagonal residuals ``offdiag`` of products of largest
    norm ``n`` in one orthonormal basis prove that every product pair commutes
    and every product is normal within ``tol`` (see the module docstring)."""
    r = float(offdiag.max())
    return 4.0 * n * r + 2.0 * r * r <= tol * max(1.0, n * n)


def _factorization_scan(mu, tol):
    """Check ``|mu_j(a,b)|^2 == mu_j(a,a) mu_j(b,b)`` for all j, a, b; the
    witness is the first violation in ``(a, b, j)`` lexicographic order."""
    l = mu.shape[0]
    scale = tol * max(1.0, float(np.abs(mu).max()) ** 2)
    lhs = np.abs(mu) ** 2
    diag = mu[np.arange(l), np.arange(l)].real
    rhs = diag[:, np.newaxis, :] * diag[np.newaxis, :, :]
    bad = np.abs(lhs - rhs) > scale
    if not bad.any():
        return True, None
    a, b, j = (int(k) for k in np.unravel_index(int(np.argmax(bad)), bad.shape))
    return False, SpectrumWitness(j, (a, b), float(lhs[a, b, j]), float(rhs[a, b, j]))


def _spectrum_data(mats, tol, seed):
    """Joint basis of the products and the diagonal value tensor
    ``mu[a, b, j]``, or the commutation witness."""
    l, da = mats.shape[0], mats.shape[1]
    products = _products(mats, upper=True)
    n = float(_norms(products).max())
    candidates = _candidate_bases(products, seed, _folded_draw(l))
    first = next(candidates)
    if not _certifies(n, first.offdiag, tol):
        witness = _commutation_witness(mats, tol)
        if witness is not None:
            return None, None, witness
    joint = _best_basis(chain([first], candidates), tol * max(1.0, n))
    mu = np.empty((l, l, da), dtype=complex)
    upper = np.triu_indices(l)
    # adjoints first, so that the diagonal keeps the computed values
    mu[upper[1], upper[0]] = joint.values.conj()
    mu[upper] = joint.values
    return joint.basis, mu, None


def check_spectrum_factorization(
    vectors, tol: float = DEFAULT_TOL, seed: int = 0
) -> tuple[bool, SpectrumWitness | None]:
    """Check the joint-spectrum factorization condition.

    Requires the commutation condition; raises :class:`NotCommutingError`
    otherwise.
    """
    _check_tol(tol)
    basis, mu, witness = _spectrum_data(_validate_family(vectors), tol, seed)
    if basis is None:
        raise NotCommutingError(
            f"cross products {witness.first} and {witness.second} do not commute "
            f"(norm {witness.commutator_norm:.3e})",
            pair=(witness.first, witness.second),
            norm=witness.commutator_norm,
        )
    return _factorization_scan(mu, tol)


def _complete_basis(columns: dict, dim: int) -> np.ndarray:
    """Orthonormal basis holding ``columns`` at their slots; the remaining
    slots are filled with an orthonormal basis of the complement (via SVD)."""
    basis = np.zeros((dim, dim), dtype=complex)
    slots = sorted(columns)
    if slots:
        block = np.stack([columns[j] for j in slots], axis=1)
        left, singulars, _ = np.linalg.svd(block)
        if singulars.min() < 0.5:
            raise BasisOrthogonalityError("constructed columns are nearly dependent")
        complement = left[:, len(slots) :]
    else:
        complement = np.eye(dim, dtype=complex)
    fill = iter(complement.T)
    for slot in range(dim):
        basis[:, slot] = columns[slot] if slot in columns else next(fill)
    return basis


def decompose(vectors, tol: float = DEFAULT_TOL, seed: int = 0) -> SSDResult:
    """Decide simultaneous decomposability and construct the common bases.

    On a positive verdict the returned ``ua`` and ``ub`` map the family's
    Schmidt vectors onto the canonical basis: every ``ua @ M_a @ ub.T`` is
    diagonal up to ``residual``. Deterministic for fixed ``(vectors, tol, seed)``.

    Raises
    ------
    ToleranceError
        If ``tol`` is not a finite positive number.
    NotNormalError
        If the products commute within ``tol`` but some product is not normal
        within it, which only tolerances near roundoff can produce.
    BasisOrthogonalityError
        If the B-side vectors constructed for a certified family deviate from
        orthonormality by more than ``1e-8``, which indicates tolerance
        breakdown rather than a legitimate negative verdict.
    """
    _check_tol(tol)
    mats = _validate_family(vectors)
    l, da, db = mats.shape
    joint_basis, mu, witness = _spectrum_data(mats, tol, seed)
    if joint_basis is None:
        verdict = SSDVerdict(False, False, False, witness)
        return SSDResult(verdict, None, None, None, None)
    ok_b, witness_b = _factorization_scan(mu, tol)
    if not ok_b:
        verdict = SSDVerdict(False, True, False, witness_b)
        return SSDResult(verdict, None, None, None, None)

    diag = mu[np.arange(l), np.arange(l), :].real  # (l, da) per-vector weights
    totals = diag.sum(axis=0)
    order = np.lexsort((np.arange(da), -diag[0], -totals))
    basis_a = joint_basis[:, order]
    diag = diag[:, order]

    rank = min(da, db)
    rank_thresh = RANK_TOL * float(diag.max())
    columns = {}
    for j in range(da):
        refs = np.nonzero(diag[:, j] > rank_thresh)[0]
        if refs.size == 0:
            continue
        if j >= rank:
            raise BasisOrthogonalityError(
                "supported directions exceed min(dim_a, dim_b); tolerances broke down"
            )
        a = int(refs[0])
        raw = mats[a].conj().T @ basis_a[:, j] / np.sqrt(diag[a, j])
        columns[j] = np.conj(raw)

    if columns:
        block = np.stack(list(columns.values()), axis=1)
        gram_dev = frobenius(block.conj().T @ block - np.eye(block.shape[1]))
        if gram_dev > 1e-8:
            raise BasisOrthogonalityError(
                f"constructed B-side vectors deviate from orthonormality by {gram_dev:.3e}"
            )
    basis_b = _complete_basis(columns, db)

    ua = basis_a.conj().T
    ub = basis_b.conj().T
    transformed = ua @ mats @ ub.T
    coeffs = np.diagonal(transformed, axis1=1, axis2=2)[:, :rank].copy()
    transformed[:, np.arange(rank), np.arange(rank)] = 0.0
    residual = max(frobenius(off) for off in transformed)
    verdict = SSDVerdict(True, True, True, None)
    return SSDResult(verdict, ua, ub, coeffs, float(residual))


def reassemble(result: SSDResult, dim_a: int, dim_b: int) -> list[BipartiteVector]:
    """Rebuild the family from a positive decomposition (diagonal part only)."""
    if not result.verdict.decomposable:
        raise NotDecomposableError("cannot reassemble from a negative verdict")
    rank = result.coeffs.shape[1]
    out = []
    for row in result.coeffs:
        diag = np.zeros((dim_a, dim_b), dtype=complex)
        diag[np.arange(rank), np.arange(rank)] = row
        mat = result.ua.conj().T @ diag @ np.conj(result.ub)
        out.append(BipartiteVector.from_matrix(mat))
    return out


def to_maximally_correlated(ensemble: GramEnsemble, result: SSDResult) -> MaximallyCorrelatedForm:
    """Coefficient matrix of the maximally correlated form of an ensemble.

    ``alpha[j, k] = sum_{a,b} weights[a, b] * coeffs[a, j] * conj(coeffs[b, k])``,
    verified elementwise against the conjugated assembled density matrix.

    Raises
    ------
    NotDecomposableError
        If the verdict is negative.
    VerificationError
        If the conjugated density matrix deviates from the maximally
        correlated pattern by more than ``1e-9`` in any entry.
    """
    if not result.verdict.decomposable:
        raise NotDecomposableError("ensemble vectors are not simultaneously decomposable")
    l = len(ensemble.vectors)
    if result.coeffs is None or result.coeffs.shape[0] != l:
        raise DimensionMismatchError("decomposition does not match the ensemble")
    alpha = result.coeffs.T @ ensemble.weights @ result.coeffs.conj()
    alpha = (alpha + alpha.conj().T) / 2.0

    rho = assemble_density(ensemble)
    u = np.kron(result.ua, result.ub)
    conjugated = u @ rho.mat @ u.conj().T
    target = np.zeros_like(conjugated)
    rank = alpha.shape[0]
    db = ensemble.dim_b
    idx = np.arange(rank) * db + np.arange(rank)
    target[np.ix_(idx, idx)] = alpha
    dev = float(np.abs(conjugated - target).max())
    if dev > 1e-9:
        raise VerificationError(
            f"conjugated density matrix deviates from correlated form by {dev:.3e}"
        )
    return MaximallyCorrelatedForm(coeff_matrix=alpha, ua=result.ua, ub=result.ub)
