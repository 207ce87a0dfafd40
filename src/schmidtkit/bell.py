"""Qudit Bell states, Weyl shift and clock operators, and the index-level
criterion for simultaneous Schmidt decomposability of Bell-state sets.

A set of Bell indices ``(n, m)`` in dimension ``d`` is simultaneously
decomposable exactly when all pairwise index differences commute as phase-space
displacements, i.e. the mod-d symplectic form ``dn * dm' - dn' * dm`` vanishes
for every pair of differences. When that holds there always exist integers
``(p, q, r)`` with ``(p, q) != (0, 0)`` and ``p*n + q*m = r (mod d)`` for every
member; the first such triple in lexicographic order is reported as a witness.

For prime ``d`` the witness existence is also sufficient, but for composite
``d`` it is strictly weaker than the displacement-commutation test (a common
annihilator ``(p, q)`` may involve zero divisors), so the criterion here is the
symplectic one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import DimensionMismatchError, EnumerationCapError, VerificationError
from .states import BipartiteVector

ENUMERATION_CAP = 10_000_000

_CHUNK = 20_000


def weyl_x(d: int) -> np.ndarray:
    """Cyclic shift: ``X |k> = |k-1 mod d>``."""
    if d < 2:
        raise DimensionMismatchError("dimension must be at least 2")
    return np.roll(np.eye(d, dtype=complex), -1, axis=0)


def weyl_z(d: int) -> np.ndarray:
    """Clock phase: ``Z |k> = w^k |k>`` with ``w = exp(2 pi i / d)``."""
    if d < 2:
        raise DimensionMismatchError("dimension must be at least 2")
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


def bell_matrix(d: int, n: int, m: int) -> np.ndarray:
    """Amplitude matrix ``Z^n X^m / sqrt(d)`` of the Bell state ``(n, m)``."""
    if d < 2:
        raise DimensionMismatchError("dimension must be at least 2")
    n, m = n % d, m % d
    mat = np.zeros((d, d), dtype=complex)
    cols = np.arange(d)
    rows = (cols - m) % d
    mat[rows, cols] = np.exp(2j * np.pi * n * rows / d) / np.sqrt(d)
    return mat


def bell_state(d: int, n: int, m: int) -> BipartiteVector:
    """The generalized Bell state ``(Z^n (x) X^-m)`` applied to the
    maximally entangled reference state, as a bipartite vector."""
    return BipartiteVector.from_matrix(bell_matrix(d, n, m))


@dataclass(frozen=True)
class BellSet:
    """Distinct Bell indices in a common dimension, optionally carrying a
    witness triple ``(p, q, r)`` with ``p*n + q*m = r (mod d)`` for all members."""

    d: int
    indices: tuple[tuple[int, int], ...]
    witness: tuple[int, int, int] | None = None

    def __post_init__(self):
        if self.d < 2:
            raise DimensionMismatchError("dimension must be at least 2")
        canon = tuple((int(n) % self.d, int(m) % self.d) for n, m in self.indices)
        if len(set(canon)) != len(canon):
            raise ValueError("Bell indices must be pairwise distinct")
        if not canon:
            raise ValueError("Bell set must not be empty")
        object.__setattr__(self, "indices", canon)
        if self.witness is not None:
            p, q, r = (int(x) % self.d for x in self.witness)
            if (p, q) == (0, 0):
                raise ValueError("witness must have (p, q) != (0, 0)")
            for n, m in canon:
                if (p * n + q * m) % self.d != r:
                    raise ValueError(f"witness {(p, q, r)} does not fit member {(n, m)}")
            object.__setattr__(self, "witness", (p, q, r))


@dataclass(frozen=True)
class EnumerationTally:
    """Count of criterion-passing index subsets of a given size, optionally
    with the passing sets listed in lexicographic order."""

    d: int
    size: int
    count: int
    sets: tuple[BellSet, ...] | None = None


def bell_vectors(s: BellSet) -> list[BipartiteVector]:
    return [bell_state(s.d, n, m) for n, m in s.indices]


def _differences_commute(ns: np.ndarray, ms: np.ndarray, d: int) -> np.ndarray:
    """Vectorized criterion over batches: ``ns, ms`` have shape (batch, size).

    By bilinearity it suffices to test the differences against the first
    member: all displacement differences commute iff those do pairwise.
    """
    dn = (ns[:, 1:] - ns[:, :1]) % d
    dm = (ms[:, 1:] - ms[:, :1]) % d
    sym = dn[:, :, None] * dm[:, None, :] - dn[:, None, :] * dm[:, :, None]
    return (sym % d == 0).all(axis=(1, 2))


def _find_witness(indices, d: int) -> tuple[int, int, int] | None:
    ns = np.array([n for n, _ in indices])
    ms = np.array([m for _, m in indices])
    for p in range(d):
        for q in range(d):
            if p == 0 and q == 0:
                continue
            vals = (p * ns + q * ms) % d
            if np.all(vals == vals[0]):
                return (p, q, int(vals[0]))
    return None


def check_bell_set(s: BellSet) -> tuple[bool, tuple[int, int, int] | None]:
    """Decide simultaneous decomposability of a Bell index set.

    Returns the verdict and, when positive, the first witness triple
    ``(p, q, r)`` in lexicographic scan order.
    """
    ns = np.array([[n for n, _ in s.indices]])
    ms = np.array([[m for _, m in s.indices]])
    if len(s.indices) == 1 or bool(_differences_commute(ns, ms, s.d)[0]):
        witness = _find_witness(s.indices, s.d)
        if witness is None:
            raise VerificationError(f"no witness triple for the commuting index set {s.indices}")
        return True, witness
    return False, None


def enumerate_bell_sets(
    d: int,
    size: int,
    include_sets: bool = False,
    cap: int = ENUMERATION_CAP,
) -> EnumerationTally:
    """Count all criterion-passing ``size``-subsets of the ``d*d`` index grid.

    Exhaustive scan with the vectorized criterion as the inner test; subsets
    are visited in lexicographic order of ``(n, m)`` pairs.

    Raises :class:`EnumerationCapError` when ``C(d*d, size)`` exceeds ``cap``.
    """
    if d < 2 or d > 8:
        raise DimensionMismatchError("dimension must be between 2 and 8")
    if size < 2 or size > d * d:
        raise ValueError(f"subset size must be in [2, {d * d}], got {size}")
    total = comb(d * d, size)
    if total > cap:
        raise EnumerationCapError(f"{total} subsets exceed the cap of {cap}")

    count = 0
    found: list[BellSet] = []
    # chunked iteration keeps peak memory bounded for the largest grids
    buffer: list[tuple[int, ...]] = []
    for combo in combinations(range(d * d), size):
        buffer.append(combo)
        if len(buffer) == _CHUNK:
            count += _tally_chunk(buffer, d, include_sets, found)
            buffer.clear()
    if buffer:
        count += _tally_chunk(buffer, d, include_sets, found)
    return EnumerationTally(
        d=d, size=size, count=count, sets=tuple(found) if include_sets else None
    )


def _tally_chunk(buffer, d, include_sets, found) -> int:
    ids = np.array(buffer, dtype=np.int64)
    ns, ms = ids // d, ids % d
    passing = _differences_commute(ns, ms, d)
    if include_sets:
        for row in ids[passing]:
            indices = tuple((int(i) // d, int(i) % d) for i in row)
            found.append(BellSet(d, indices, witness=_find_witness(indices, d)))
    return int(passing.sum())


def linear_family(d: int, f: int, g: int, orientation: str = "n") -> BellSet:
    """The d-member affine index family ``{(n, f*n + g)}`` (orientation "n")
    or ``{(f*m + g, m)}`` (orientation "m"), always criterion-passing."""
    if orientation == "n":
        indices = tuple((n, (f * n + g) % d) for n in range(d))
    elif orientation == "m":
        indices = tuple(((f * m + g) % d, m) for m in range(d))
    else:
        raise ValueError(f"orientation must be 'n' or 'm', got {orientation!r}")
    ok, witness = check_bell_set(BellSet(d, indices))
    if not ok:
        raise VerificationError(f"affine family {indices} fails the criterion")
    return BellSet(d, indices, witness=witness)


def check_size_bound(d: int, cap: int = ENUMERATION_CAP) -> bool:
    """Exhaustively confirm that no ``(d+1)``-subset passes the criterion.

    A passing set of more than ``d`` members would produce a correlated state
    of rank above ``d``, which is impossible; this verifies the bound by scan.
    """
    return enumerate_bell_sets(d, d + 1, cap=cap).count == 0
