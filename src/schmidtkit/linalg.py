"""Dense complex linear algebra: Hermitian eigendecomposition, normality and
commutativity tests, and joint diagonalization of families of pairwise
commuting normal matrices.

All functions are pure and deterministic (joint diagonalization takes an
explicit seed). Matrices are plain complex ``numpy`` arrays; outputs carry an
explicitly reported reconstruction residual so callers can judge accuracy
instead of trusting a boolean.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonSquareError,
    NotCommutingError,
    NotHermitianError,
    NotNormalError,
    ToleranceError,
)

DEFAULT_TOL = 1e-10

#: relative eigenvalue gap below which two eigenvalues count as degenerate
CLUSTER_TOL = 1e-8

#: seeded random Hermitian combinations tried before sequential refinement
COMBINATIONS = 8

#: matrix entries per chunk of the pairwise commutator scan (64 KiB complex)
SCAN_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigendecomposition result: columns of ``vectors`` are eigenvectors.

    ``residual`` is the Frobenius norm of ``M @ vectors - vectors @ diag(values)``.
    """

    values: np.ndarray
    vectors: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class JointBasis:
    """Common eigenbasis of a matrix family.

    ``values[i]`` holds the diagonal of ``basis^H @ M_i @ basis``; ``residual``
    is the largest off-diagonal Frobenius mass over the family.
    """

    basis: np.ndarray
    values: np.ndarray
    residual: float


def _as_square(mat) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    return m


def frobenius(mat) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(mat)))


def fix_column_phases(mat: np.ndarray) -> np.ndarray:
    """Return a copy with each column's largest-modulus entry made real nonnegative.

    The first index attaining the maximum modulus is used, which makes the
    convention deterministic for snapshot tests.
    """
    out = np.array(mat, dtype=complex)
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) > 0.0:
            out[:, k] = col * (np.conj(pivot) / abs(pivot))
    return out


def hermitian_eig(mat, tol: float = DEFAULT_TOL) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues are real and sorted descending; eigenvectors are orthonormal
    with a deterministic phase convention.

    Raises
    ------
    NotHermitianError
        If ``|M - M^H|_F > tol * |M|_F``.
    NoConvergenceError
        If the underlying iteration fails.
    """
    m = _as_square(mat)
    scale = frobenius(m)
    if frobenius(m - m.conj().T) > tol * scale:
        raise NotHermitianError(
            f"matrix deviates from Hermitian by {frobenius(m - m.conj().T):.3e} "
            f"(tolerance {tol:.1e} relative)"
        )
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    values = values[::-1]
    vectors = fix_column_phases(vectors[:, ::-1])
    residual = frobenius(m @ vectors - vectors * values[np.newaxis, :])
    return EigenSystem(values=values, vectors=vectors, residual=residual)


def is_normal(mat, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``|M M^H - M^H M|_F <= tol * max(1, |M|_F^2)``."""
    m = _as_square(mat)
    dev = frobenius(m @ m.conj().T - m.conj().T @ m)
    return dev <= tol * max(1.0, frobenius(m) ** 2)


def commutator_norm(a, b) -> float:
    """Frobenius norm of ``AB - BA`` for equally sized square matrices."""
    ma = _as_square(a)
    mb = _as_square(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"incompatible shapes {ma.shape} and {mb.shape}")
    return frobenius(ma @ mb - mb @ ma)


def _refine_sequentially(mats: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Common eigenbasis by recursive per-matrix eigenspace splitting.

    Deterministic fallback for the rare case where every random Hermitian
    combination has an eigenvalue collision between distinct joint eigenspaces.
    """
    basis = np.eye(n, dtype=complex)
    blocks = [np.arange(n)]
    parts = []
    for m in mats:
        scale = max(1.0, frobenius(m))
        parts.append(((m + m.conj().T) / 2.0, scale))
        parts.append(((m - m.conj().T) / 2.0j, scale))
    for part, scale in parts:
        next_blocks = []
        for blk in blocks:
            if blk.size == 1:
                next_blocks.append(blk)
                continue
            sub = basis[:, blk]
            w, vecs = np.linalg.eigh(sub.conj().T @ part @ sub)
            basis[:, blk] = sub @ vecs
            start = 0
            for i in range(1, blk.size + 1):
                if i == blk.size or w[i] - w[i - 1] > CLUSTER_TOL * scale:
                    next_blocks.append(blk[start:i])
                    start = i
        blocks = next_blocks
    return basis


def _check_tol(tol) -> None:
    """Raise :class:`ToleranceError` unless ``tol`` is a finite positive
    number: every threshold is relative to it and means nothing otherwise."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
        raise ToleranceError(f"tolerance must be a number, got {tol!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ToleranceError(f"tolerance must be finite and positive, got {tol!r}")


def _check_normal(stack: np.ndarray, tol: float) -> None:
    """Raise :class:`NotNormalError` naming the first member of ``stack``
    that fails :func:`is_normal`."""
    for i, m in enumerate(stack):
        if not is_normal(m, tol):
            raise NotNormalError(f"family member {i} is not normal within {tol:.1e}")


def _norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of every member of a stacked family, computed without
    a temporary the size of the stack."""
    flat = np.ascontiguousarray(stack).reshape(len(stack), -1).view(float)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def _commutator_norms(stack: np.ndarray):
    """Yield ``(i, j, norms)`` where ``norms[t]`` is the Frobenius norm of
    ``[M_i, M_{j+t}]``.

    Covers every pair ``i < j`` once, in lexicographic order, so a caller
    looking for the first pair over a threshold can stop early. Each chunk
    holds at most ``SCAN_CHUNK`` matrix entries, which bounds the temporaries.
    """
    n = stack.shape[1]
    step = max(1, SCAN_CHUNK // (n * n))
    for i in range(len(stack) - 1):
        a = stack[i]
        for j in range(i + 1, len(stack), step):
            rest = stack[j : j + step]
            yield i, j, _norms(a @ rest - rest @ a)


def _first_noncommuting(stack: np.ndarray, limit: float) -> tuple[int, int] | None:
    """First pair ``(i, j)``, in lexicographic order, whose commutator norm
    exceeds ``limit``; ``None`` when there is none."""
    for i, j, norms in _commutator_norms(stack):
        over = np.flatnonzero(norms > limit)
        if over.size:
            return i, j + int(over[0])
    return None


@dataclass(frozen=True, eq=False)
class _Candidate:
    """One trial common eigenbasis: ``transformed[k] = basis^H @ M_k @ basis``
    and ``offdiag[k]`` is the off-diagonal Frobenius mass of ``transformed[k]``."""

    basis: np.ndarray
    transformed: np.ndarray
    offdiag: np.ndarray


def _candidate(basis: np.ndarray, stack: np.ndarray) -> _Candidate:
    basis = fix_column_phases(basis)
    transformed = basis.conj().T @ stack @ basis
    off = transformed.copy()
    idx = np.arange(basis.shape[0])
    off[:, idx, idx] = 0.0
    return _Candidate(basis, transformed, _norms(off))


def _plain_draw(size: int):
    """Coefficient draw for :func:`_candidate_bases`: ``2 * size`` standard
    normals, the first half weighting the Hermitian parts."""

    def draw(rng):
        coeffs = rng.standard_normal(2 * size)
        return coeffs[:size], coeffs[size:]

    return draw


def _candidate_bases(stack: np.ndarray, seed: int, draw):
    """Trial common eigenbases of a stacked family of commuting normal
    matrices, in the order they should be tried.

    The first ``COMBINATIONS`` are eigenbases of seeded random Hermitian
    combinations ``sum_k h_k (M_k + M_k^H)/2 + s_k (M_k - M_k^H)/2i`` with
    ``(h, s) = draw(rng)``, formed as ``X + X^H`` with
    ``X = sum_k (h_k - i s_k)/2 M_k``; for generic coefficients such a
    combination separates the joint eigenspaces. The last is the
    deterministic sequential refinement, for the rare family on which every
    combination has an eigenvalue collision between distinct joint
    eigenspaces. The generator is lazy: a caller that accepts an early
    candidate pays for no later one.
    """
    rng = np.random.default_rng(seed)
    for _ in range(COMBINATIONS):
        h, s = draw(rng)
        half = np.tensordot((h - 1j * s) / 2.0, stack, axes=1)
        combo = half + half.conj().T
        try:
            _, basis = np.linalg.eigh(combo)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(str(exc)) from exc
        yield _candidate(basis, stack)
    yield _candidate(_refine_sequentially(stack, stack.shape[1]), stack)


def _best_basis(candidates, accept: float) -> JointBasis:
    """The first candidate whose largest off-diagonal residual is at most
    ``accept``, else the candidate with the smallest one."""
    best = None
    for cand in candidates:
        residual = float(cand.offdiag.max())
        if best is None or residual < best[1]:
            best = (cand, residual)
        if residual <= accept:
            break
    cand, residual = best
    values = np.diagonal(cand.transformed, axis1=1, axis2=2).copy()
    return JointBasis(basis=cand.basis, values=values, residual=residual)


def joint_diagonalize(
    mats: Sequence[np.ndarray], tol: float = DEFAULT_TOL, seed: int = 0
) -> JointBasis:
    """Simultaneously diagonalize pairwise commuting normal matrices.

    Strategy: eigendecompose a random Hermitian combination of the Hermitian
    and anti-Hermitian parts of the family, which separates the joint
    eigenspaces for generic coefficients (the randomized joint
    diagonalization of He & Kressner, arXiv:2212.07248). The first
    combination whose largest off-diagonal residual is within
    ``tol * max(1, max |M|_F)`` is kept; otherwise the coefficients are
    redrawn (up to 8 combinations in all) before falling back to sequential
    eigenspace refinement, and the best basis found is returned.
    Deterministic for a fixed seed.

    This function checks its contract first, which costs a pairwise
    commutator scan over the family. :func:`schmidtkit.ssd.decompose` does
    not call it: it shares the basis search but certifies commutation from
    the first combination's residuals instead (see :mod:`schmidtkit.ssd`).

    Raises
    ------
    ToleranceError
        If ``tol`` is not a finite positive number.
    NotNormalError
        If some matrix is not normal within ``tol``.
    NotCommutingError
        If some pair has commutator norm above ``tol * max(1, max |M|_F^2)``,
        reporting the first offending pair in lexicographic order and its
        commutator norm.
    """
    _check_tol(tol)
    family = [_as_square(m) for m in mats]
    if not family:
        raise DimensionMismatchError("empty matrix family")
    n = family[0].shape[0]
    for m in family:
        if m.shape[0] != n:
            raise DimensionMismatchError("family members differ in dimension")
    stack = np.stack(family)
    largest = max(frobenius(m) for m in family)
    _check_normal(stack, tol)
    pair = _first_noncommuting(stack, tol * max(1.0, largest**2))
    if pair is not None:
        i, j = pair
        c = commutator_norm(family[i], family[j])
        raise NotCommutingError(
            f"members {i} and {j} have commutator norm {c:.3e}", pair=pair, norm=c
        )
    candidates = _candidate_bases(stack, seed, _plain_draw(len(family)))
    return _best_basis(candidates, tol * max(1.0, largest))
