"""JSON document formats for state ensembles, reports, and protocols.

Complex numbers are encoded strictly as two-element ``[re, im]`` arrays and
floats round-trip losslessly (shortest-repr binary64 encoding), so every
document reparses to bit-equal values. Reports carry no timestamps; rerunning
a command with the same inputs reproduces its output byte for byte.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .bell import BellSet
from .errors import DimensionMismatchError, DocumentError, ProtocolMismatchError
from .locc import LoccProtocol
from .states import BipartiteVector, GramEnsemble


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def pair_to_complex(pair, where: str) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
    ):
        raise DocumentError(f"{where}: complex values must be [re, im] number pairs")
    return complex(float(pair[0]), float(pair[1]))


def matrix_to_doc(mat) -> list[list[list[float]]]:
    m = np.asarray(mat, dtype=complex)
    return [[complex_to_pair(z) for z in row] for row in m]


def doc_to_matrix(doc, where: str) -> np.ndarray:
    if not isinstance(doc, list) or not doc or not all(isinstance(r, list) for r in doc):
        raise DocumentError(f"{where}: expected a list of rows")
    width = len(doc[0])
    rows = []
    for i, row in enumerate(doc):
        if len(row) != width:
            raise DocumentError(f"{where}: row {i} has length {len(row)}, expected {width}")
        rows.append([pair_to_complex(z, f"{where}[{i}]") for z in row])
    return np.array(rows, dtype=complex)


def vector_to_doc(amps) -> list[list[float]]:
    return [complex_to_pair(z) for z in np.asarray(amps, dtype=complex)]


def doc_to_vector(doc, where: str) -> np.ndarray:
    if not isinstance(doc, list):
        raise DocumentError(f"{where}: expected a list of amplitudes")
    return np.array([pair_to_complex(z, where) for z in doc], dtype=complex)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require(doc: dict, field: str, kind, where: str):
    if field not in doc:
        raise DocumentError(f"{where}: missing field {field!r}")
    value = doc[field]
    if kind is int and not _is_int(value):
        raise DocumentError(f"{where}: field {field!r} must be an integer")
    if kind is list and not isinstance(value, list):
        raise DocumentError(f"{where}: field {field!r} must be a list")
    return value


def parse_json(text: str, where: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{where}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def dumps(doc: Any) -> str:
    return json.dumps(doc, indent=2) + "\n"


def states_to_doc(ensemble: GramEnsemble, meta: dict | None = None) -> dict:
    doc = {
        "dA": ensemble.dim_a,
        "dB": ensemble.dim_b,
        "vectors": [vector_to_doc(v.amps) for v in ensemble.vectors],
        "weights": matrix_to_doc(ensemble.weights),
    }
    if meta:
        doc["meta"] = {str(k): str(v) for k, v in meta.items()}
    return doc


def doc_to_states(doc, where: str = "states document") -> tuple[GramEnsemble, dict]:
    """Parse a states document into an ensemble; absent weights default to a
    uniform diagonal ``1/l``."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected a JSON object")
    da = _require(doc, "dA", int, where)
    db = _require(doc, "dB", int, where)
    raw_vectors = _require(doc, "vectors", list, where)
    if not raw_vectors:
        raise DocumentError(f"{where}: field 'vectors' must not be empty")
    vectors = []
    for i, raw in enumerate(raw_vectors):
        amps = doc_to_vector(raw, f"{where}: vectors[{i}]")
        if amps.size != da * db:
            raise DocumentError(
                f"{where}: vectors[{i}] has {amps.size} amplitudes, expected {da * db}"
            )
        vectors.append(BipartiteVector(da, db, amps))
    if "weights" in doc and doc["weights"] is not None:
        weights = doc_to_matrix(doc["weights"], f"{where}: weights")
    else:
        weights = np.eye(len(vectors), dtype=complex) / len(vectors)
    meta = doc.get("meta") or {}
    if not isinstance(meta, dict):
        raise DocumentError(f"{where}: field 'meta' must be an object")
    return GramEnsemble(tuple(vectors), weights), dict(meta)


def load_states(text: str, where: str = "states document") -> tuple[GramEnsemble, dict]:
    return doc_to_states(parse_json(text, where), where)


def bell_set_to_doc(s: BellSet) -> dict:
    return {
        "d": s.d,
        "indices": [[n, m] for n, m in s.indices],
        "witness": list(s.witness) if s.witness is not None else None,
    }


def _index_pairs(raw: list, where: str) -> tuple[tuple[int, int], ...]:
    """Strictly parse Bell indices: every entry an ``[n, m]`` pair of integers
    (booleans and floats such as ``0.5`` are rejected, not truncated)."""
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_int, pair)):
            raise DocumentError(f"{where}: indices[{i}] must be an [n, m] integer pair")
    return tuple((n, m) for n, m in raw)


def doc_to_bell_set(doc, where: str = "bell set document") -> BellSet:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected a JSON object")
    d = _require(doc, "d", int, where)
    indices = _index_pairs(_require(doc, "indices", list, where), where)
    witness = doc.get("witness")
    if witness is not None:
        if not isinstance(witness, list) or len(witness) != 3 or not all(map(_is_int, witness)):
            raise DocumentError(f"{where}: witness must be a [p, q, r] integer triple")
        witness = tuple(witness)
    try:
        return BellSet(d, indices, witness=witness)
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def protocol_to_doc(protocol: LoccProtocol, seed: int, version: str) -> dict:
    return {
        "tool": "schmidtkit",
        "version": version,
        "d": protocol.d,
        "indices": [[n, m] for n, m in protocol.indices],
        "labels": list(protocol.labels),
        "decoder": "difference-mod-d",
        "ua": matrix_to_doc(protocol.ua),
        "ub": matrix_to_doc(protocol.ub),
        "seed": seed,
    }


def doc_to_protocol(doc, where: str = "protocol document") -> LoccProtocol:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected a JSON object")
    d = _require(doc, "d", int, where)
    indices = _index_pairs(_require(doc, "indices", list, where), where)
    labels = _require(doc, "labels", list, where)
    for i, label in enumerate(labels):
        if not _is_int(label):
            raise DocumentError(f"{where}: labels[{i}] must be an integer")
    ua = doc_to_matrix(_require(doc, "ua", list, where), f"{where}: ua")
    ub = doc_to_matrix(_require(doc, "ub", list, where), f"{where}: ub")
    try:
        return LoccProtocol(d, indices, ua, ub, tuple(labels))
    except (DimensionMismatchError, ProtocolMismatchError) as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def load_protocol(text: str, where: str = "protocol document") -> LoccProtocol:
    return doc_to_protocol(parse_json(text, where), where)
