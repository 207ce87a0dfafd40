"""Deterministic LOCC discrimination of simultaneously decomposable Bell sets.

:func:`synthesize` builds local unitaries that send every member of a
criterion-passing Bell set to a state supported on a single cyclic
off-diagonal of the outcome grid: member ``a`` lands (up to a global phase) on
``(X^-r_a (x) I)`` applied to the maximally entangled state, with all residues
``r_a`` distinct. Both parties then measure in the computational basis and
decode ``r = (a - b) mod d`` from their outcomes, which identifies the member
with certainty.

Not every decomposable set admits this canonical form when ``d`` is composite:
if the member displacements span a non-cyclic subgroup (for example the
``{0, 2} x {0, 2}`` Klein subgroup at ``d = 4``), the member operators have
degenerate spectra that force equal residues, and no local unitary fixes that.
:func:`synthesize` raises :class:`CanonicalizationError` for such sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .bell import BellSet, bell_vectors, check_bell_set, weyl_x
from .errors import (
    CanonicalizationError,
    DimensionMismatchError,
    NotDecomposableError,
    ProtocolMismatchError,
)
from .linalg import DEFAULT_TOL
from .ssd import decompose
from .states import amplitude_matrix

#: probabilities below this are treated as exact zeros when sampling outcomes
SUPPORT_FLOOR = 1e-12

_MATCH_TOL = 1e-8


def fourier_unitary(d: int) -> np.ndarray:
    """The discrete-Fourier unitary with entries ``w^(-jk) / sqrt(d)``."""
    k = np.arange(d)
    return np.exp(-2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)


@dataclass(frozen=True, eq=False)
class LoccProtocol:
    """Local unitaries, member list, and residue labels of a discrimination
    protocol. The decoder is always ``r = (a - b) mod d`` over computational
    basis outcomes ``a`` (side A) and ``b`` (side B)."""

    d: int
    indices: tuple[tuple[int, int], ...]
    ua: np.ndarray
    ub: np.ndarray
    labels: tuple[int, ...]

    def __post_init__(self):
        if self.d < 2:
            raise DimensionMismatchError("dimension must be at least 2")
        labels = tuple(int(r) % self.d for r in self.labels)
        if len(labels) != len(self.indices):
            raise ProtocolMismatchError("one label per member required")
        if len(set(labels)) != len(labels):
            raise ProtocolMismatchError("labels must be pairwise distinct")
        ua = np.asarray(self.ua, dtype=complex)
        ub = np.asarray(self.ub, dtype=complex)
        if ua.shape != (self.d, self.d) or ub.shape != (self.d, self.d):
            raise ProtocolMismatchError("unitaries must match the dimension")
        eye = np.eye(self.d)
        for name, u in (("ua", ua), ("ub", ub)):
            if np.linalg.norm(u.conj().T @ u - eye) > 1e-8:
                raise ProtocolMismatchError(f"{name} is not unitary")
        object.__setattr__(self, "ua", ua)
        object.__setattr__(self, "ub", ub)
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class SimulationReport:
    """Seeded measurement simulation tally; one success count per member."""

    trials: int
    per_state_successes: tuple[int, ...]
    per_state_trials: tuple[int, ...]
    success_rate: float
    seed: int


def _target_amps(d: int, r: int) -> np.ndarray:
    """Amplitudes of ``(X^-r (x) I)`` applied to the maximally entangled state."""
    mat = np.linalg.matrix_power(weyl_x(d), (d - r) % d) / np.sqrt(d)
    return mat.reshape(-1)


def verify_protocol(protocol: LoccProtocol, tol: float = 1e-9) -> None:
    """Check that every member maps onto its labelled target up to a global phase.

    Raises :class:`CanonicalizationError` on deviation beyond ``tol``.
    """
    d = protocol.d
    for (n, m), r in zip(protocol.indices, protocol.labels):
        vec = bell_vectors(BellSet(d, ((n, m),)))[0]
        moved = (protocol.ua @ amplitude_matrix(vec) @ protocol.ub.T).reshape(-1)
        fidelity = abs(np.vdot(_target_amps(d, r), moved))
        if fidelity < 1.0 - tol:
            raise CanonicalizationError(
                f"member {(n, m)} reaches its target with fidelity {fidelity!r}"
            )


def synthesize(s: BellSet, tol: float = DEFAULT_TOL, seed: int = 0) -> LoccProtocol:
    """Build the discrimination protocol for a criterion-passing Bell set.

    The member vectors are simultaneously decomposed; a diagonal phase
    correction on side B pins the first member's coefficients, and a brute
    force search over Schmidt-index permutations (with early pruning) finds
    the labelling under which every member's phase pattern is a pure residue
    tone. The Fourier unitary pair then turns phase labels into outcome
    shifts. Deterministic for fixed ``(s, tol, seed)``; the first member
    always receives residue 0.

    Raises
    ------
    NotDecomposableError
        If the set fails the index criterion.
    CanonicalizationError
        If no permutation and residue assignment matches, e.g. for non-cyclic
        displacement subgroups in composite dimension, or on numerical
        breakdown.
    """
    ok, _ = check_bell_set(s)
    if not ok:
        raise NotDecomposableError("Bell set fails the decomposability criterion")
    d, l = s.d, len(s.indices)
    result = decompose(bell_vectors(s), tol=tol, seed=seed)
    if not result.verdict.decomposable:
        raise CanonicalizationError(
            "criterion-passing set failed matrix-level decomposition; tolerances broke down"
        )
    patterns = result.coeffs * np.sqrt(d)
    if float(np.abs(np.abs(patterns) - 1.0).max()) > _MATCH_TOL:
        raise CanonicalizationError("member coefficients are not unimodular")
    correction = np.conj(patterns[0])
    patterns = patterns * correction[np.newaxis, :]

    omega = np.exp(2j * np.pi / d)
    tones = omega ** np.outer(np.arange(d), np.arange(d))  # tones[r, k]
    for perm in permutations(range(d)):
        sigma = np.array(perm)
        labels = [0]
        for a in range(1, l):
            rel = patterns[a, sigma]
            rel = rel * np.conj(rel[0])
            r = int(np.rint(np.angle(rel[1]) * d / (2 * np.pi))) % d
            if float(np.abs(rel - tones[r]).max()) > _MATCH_TOL:
                labels = None
                break
            labels.append(r)
        if labels is None or len(set(labels)) != l:
            continue
        perm_mat = np.eye(d, dtype=complex)[sigma]
        h0 = fourier_unitary(d)
        ua = h0 @ perm_mat @ result.ua
        ub = np.conj(h0) @ perm_mat @ np.diag(correction) @ result.ub
        protocol = LoccProtocol(d, s.indices, ua, ub, tuple(labels))
        verify_protocol(protocol)
        return protocol
    raise CanonicalizationError(
        "no permutation gives distinct residue labels; the member displacements "
        "span a non-cyclic subgroup or tolerances broke down"
    )


def outcome_distributions(protocol: LoccProtocol) -> np.ndarray:
    """Exact Born probabilities over outcome pairs, shape ``(l, d, d)``.

    Computed from the actual transformed amplitudes, with probabilities below
    ``SUPPORT_FLOOR`` zeroed and the rest renormalized, so sampling reflects
    the closed-form support instead of roundoff dust.
    """
    d = protocol.d
    dists = []
    for n, m in protocol.indices:
        vec = bell_vectors(BellSet(d, ((n, m),)))[0]
        moved = (protocol.ua @ amplitude_matrix(vec) @ protocol.ub.T).reshape(-1)
        prob = np.abs(moved) ** 2
        prob[prob < SUPPORT_FLOOR] = 0.0
        dists.append((prob / prob.sum()).reshape(d, d))
    return np.stack(dists)


def simulate(
    protocol: LoccProtocol, s: BellSet, trials: int, seed: int = 0
) -> SimulationReport:
    """Sample the protocol on members drawn uniformly and score the decoder.

    Per trial: draw a member, sample an outcome pair from its exact Born
    distribution, decode ``(a - b) mod d``, and score a success when the
    decoded residue equals the member's label. Deterministic for a fixed seed.

    Raises :class:`ProtocolMismatchError` when the protocol and the set
    disagree on the dimension or membership.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if protocol.d != s.d or set(protocol.indices) != set(s.indices):
        raise ProtocolMismatchError("protocol and state set disagree")
    d, l = s.d, len(s.indices)
    position = [protocol.indices.index(member) for member in s.indices]
    labels = np.array([protocol.labels[p] for p in position])
    dists = outcome_distributions(protocol).reshape(len(protocol.indices), d * d)
    cumulative = np.cumsum(dists[position], axis=1)

    rng = np.random.default_rng(seed)
    members = rng.integers(0, l, size=trials)
    draws = rng.random(trials)
    outcomes = (cumulative[members] > draws[:, np.newaxis]).argmax(axis=1)
    side_a, side_b = outcomes // d, outcomes % d
    decoded = (side_a - side_b) % d
    success = decoded == labels[members]

    per_trials = np.bincount(members, minlength=l)
    per_success = np.bincount(members[success], minlength=l)
    return SimulationReport(
        trials=trials,
        per_state_successes=tuple(int(x) for x in per_success),
        per_state_trials=tuple(int(x) for x in per_trials),
        success_rate=float(success.sum() / trials),
        seed=seed,
    )
