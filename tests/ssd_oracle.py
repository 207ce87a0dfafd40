"""All-pairs reference decision for simultaneous Schmidt decomposability.

This is the decision procedure ``decompose`` used before commutation was
certified from one joint diagonalization: form all ``l^2`` cross products,
scan every pair for one that does not commute, jointly diagonalize the full
product family with seeded random Hermitian combinations, then scan the
spectrum factorization condition. It costs ``O(l^4 d^3)`` and is kept only as
a test oracle.
"""

import numpy as np

from schmidtkit import CommutationWitness, SpectrumWitness, amplitude_matrix
from schmidtkit.linalg import _refine_sequentially, fix_column_phases


def _offdiag_residual(basis, mats):
    worst = 0.0
    for m in mats:
        t = basis.conj().T @ m @ basis
        worst = max(worst, float(np.linalg.norm(t - np.diag(np.diag(t)))))
    return worst


def _joint_basis(family, tol, seed):
    herms = [(m + m.conj().T) / 2.0 for m in family]
    antis = [(m - m.conj().T) / 2.0j for m in family]
    accept = tol * max(1.0, max(float(np.linalg.norm(m)) for m in family))
    rng = np.random.default_rng(seed)
    best_basis, best_residual = None, np.inf
    for _ in range(8):
        coeffs = rng.standard_normal(2 * len(family))
        combo = sum(c * h for c, h in zip(coeffs[: len(family)], herms))
        combo = combo + sum(c * a for c, a in zip(coeffs[len(family) :], antis))
        basis = fix_column_phases(np.linalg.eigh(combo)[1])
        residual = _offdiag_residual(basis, family)
        if residual < best_residual:
            best_basis, best_residual = basis, residual
        if residual <= accept:
            break
    if best_residual > accept:
        refined = fix_column_phases(_refine_sequentially(family, family[0].shape[0]))
        if _offdiag_residual(refined, family) < best_residual:
            best_basis = refined
    return best_basis


def oracle_decide(vectors, tol=1e-10, seed=0):
    """``(decomposable, witness)`` by the all-pairs scan."""
    mats = [amplitude_matrix(v) for v in vectors]
    l = len(mats)
    products = [a @ b.conj().T for a in mats for b in mats]
    labels = [(a, b) for a in range(l) for b in range(l)]
    scale = tol * max(1.0, max(float(np.linalg.norm(g)) for g in products) ** 2)
    for i in range(len(products)):
        for j in range(i + 1, len(products)):
            c = float(np.linalg.norm(products[i] @ products[j] - products[j] @ products[i]))
            if c > scale:
                return False, CommutationWitness(labels[i], labels[j], c)
    basis = _joint_basis(products, tol, seed)
    mu = np.array([np.diag(basis.conj().T @ p @ basis) for p in products]).reshape(l, l, -1)
    scale = tol * max(1.0, float(np.abs(mu).max()) ** 2)
    for a in range(l):
        for b in range(l):
            lhs = np.abs(mu[a, b]) ** 2
            rhs = mu[a, a].real * mu[b, b].real
            bad = np.abs(lhs - rhs) > scale
            if np.any(bad):
                j = int(np.argmax(bad))
                return False, SpectrumWitness(j, (a, b), float(lhs[j]), float(rhs[j]))
    return True, None
