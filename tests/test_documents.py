import json

import numpy as np
import pytest

from schmidtkit import BellSet, DocumentError, linear_family, synthesize
from schmidtkit.documents import (
    bell_set_to_doc,
    doc_to_bell_set,
    doc_to_matrix,
    doc_to_protocol,
    doc_to_states,
    dumps,
    load_protocol,
    load_states,
    matrix_to_doc,
    protocol_to_doc,
    states_to_doc,
)

from conftest import FIXTURES, ssd_mixture


class TestRoundTrips:
    def test_matrix_bit_equal(self, rng):
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        rebuilt = doc_to_matrix(json.loads(json.dumps(matrix_to_doc(m))), "m")
        assert np.array_equal(m, rebuilt)

    def test_states_document(self):
        ens = ssd_mixture()
        text = dumps(states_to_doc(ens, meta={"k": "v"}))
        rebuilt, meta = load_states(text)
        assert meta == {"k": "v"}
        assert np.array_equal(rebuilt.weights, ens.weights)
        for a, b in zip(rebuilt.vectors, ens.vectors):
            assert np.array_equal(a.amps, b.amps)

    def test_bell_set_document(self):
        fam = linear_family(5, 2, 3)
        rebuilt = doc_to_bell_set(json.loads(dumps(bell_set_to_doc(fam))))
        assert rebuilt.d == fam.d
        assert rebuilt.indices == fam.indices
        assert rebuilt.witness == fam.witness

    def test_protocol_document(self):
        p = synthesize(BellSet(3, ((0, 0), (1, 1), (2, 2))))
        text = dumps(protocol_to_doc(p, seed=0, version="0.1.0"))
        rebuilt = load_protocol(text)
        assert rebuilt.labels == p.labels
        assert np.array_equal(rebuilt.ua, p.ua)
        assert np.array_equal(rebuilt.ub, p.ub)

    def test_shipped_fixtures_parse(self):
        for name in ("nonssd_pair_4x4.json", "ssd_mixture_4x4.json"):
            ens, _ = load_states((FIXTURES / name).read_text())
            assert ens.dim_a == ens.dim_b == 4
            assert len(ens.vectors) == 2

    def test_dump_is_deterministic(self):
        ens = ssd_mixture()
        assert dumps(states_to_doc(ens)) == dumps(states_to_doc(ens))


class TestDefaults:
    def test_weights_default_to_uniform_diagonal(self):
        doc = {
            "dA": 2,
            "dB": 2,
            "vectors": [
                [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
            ],
        }
        ens, _ = doc_to_states(doc)
        assert np.array_equal(ens.weights, np.eye(2) / 2.0)


class TestMalformedDocuments:
    def test_bad_json_reports_position(self):
        with pytest.raises(DocumentError) as info:
            load_states("{ not json }")
        assert "line 1" in str(info.value)

    def test_missing_field_is_named(self):
        with pytest.raises(DocumentError) as info:
            doc_to_states({"dA": 2, "vectors": []})
        assert "'dB'" in str(info.value)

    def test_wrong_amplitude_count_names_vector(self):
        doc = {"dA": 2, "dB": 2, "vectors": [[[1.0, 0.0]]]}
        with pytest.raises(DocumentError) as info:
            doc_to_states(doc)
        assert "vectors[0]" in str(info.value)

    def test_complex_entries_must_be_pairs(self):
        doc = {"dA": 1, "dB": 1, "vectors": [[[1.0, 0.0, 0.0]]]}
        with pytest.raises(DocumentError):
            doc_to_states(doc)

    def test_bell_set_document_validation(self):
        with pytest.raises(DocumentError):
            doc_to_bell_set({"d": 3, "indices": [[0, 0], [0, 0]]})
        with pytest.raises(DocumentError):
            doc_to_bell_set({"d": 3, "indices": [[0]]})

    def test_protocol_document_validation(self):
        with pytest.raises(DocumentError):
            doc_to_protocol({"d": 2, "indices": [[0, 0]], "labels": [0]})

    @pytest.mark.parametrize("field, value", [
        ("indices", [[0, 0], [0.5, 1]]),
        ("indices", [[0, 0], [True, 1]]),
        ("indices", [[0, 0], [1]]),
        ("indices", [[0, 0], "1,1"]),
        ("labels", [0, 0.5]),
        ("labels", [0, True]),
        ("d", 0),
    ])
    def test_protocol_entries_are_strict(self, field, value):
        doc = protocol_to_doc(synthesize(BellSet(2, ((0, 0), (1, 1)))), seed=0, version="0.1.0")
        doc[field] = value
        with pytest.raises(DocumentError):
            doc_to_protocol(doc)

    @pytest.mark.parametrize("doc", [
        {"d": 3, "indices": [[0, 0], [0.5, 1]]},
        {"d": 3, "indices": [[0, 0], [1, False]]},
        {"d": 3, "indices": [[0, 1], [1, 1]], "witness": [0.0, 1, 1]},
    ])
    def test_bell_set_entries_are_strict(self, doc):
        with pytest.raises(DocumentError):
            doc_to_bell_set(doc)
