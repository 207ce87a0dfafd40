import json

import numpy as np
import pytest

from schmidtkit.cli import main

from conftest import FIXTURES

NONSSD = str(FIXTURES / "nonssd_pair_4x4.json")
SSD = str(FIXTURES / "ssd_mixture_4x4.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCheck:
    def test_nonssd_fixture(self, capsys):
        code, doc = run(capsys, "check", "--input", NONSSD)
        assert code == 1
        assert doc["verdict"]["decomposable"] is False
        assert doc["verdict"]["products_commute"] is True
        assert doc["verdict"]["spectra_factorize"] is False
        witness = doc["verdict"]["witness"]
        assert witness["check"] == "spectrum-factorization"
        assert abs(witness["lhs"]) < 1e-12
        assert abs(witness["rhs"] - 1.0 / 9.0) < 1e-12

    def test_ssd_fixture(self, capsys):
        code, doc = run(capsys, "check", "--input", SSD)
        assert code == 0
        assert doc["verdict"]["decomposable"] is True
        assert doc["entanglement"]["certified_mcs"] is True

    def test_missing_file_is_machine_readable_error(self, capsys):
        code, doc = run(capsys, "check", "--input", "no-such-file.json")
        assert code == 2
        assert doc["error"]["type"] == "DocumentError"

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tolerance_is_an_error(self, capsys, tol):
        for command in ("check", "decompose", "entropy"):
            code, doc = run(capsys, command, "--input", SSD, "--tol", tol)
            assert code == 2
            assert doc["error"]["type"] == "ToleranceError"

    def test_deterministic_output(self, capsys):
        code1 = main(["check", "--input", SSD])
        out1 = capsys.readouterr().out
        code2 = main(["check", "--input", SSD])
        out2 = capsys.readouterr().out
        assert (code1, out1) == (code2, out2)


class TestDecompose:
    def test_writes_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, doc = run(capsys, "decompose", "--input", SSD, "--output", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text()) == doc
        assert "decomposition" in doc and "correlated_form" in doc
        coeffs = doc["decomposition"]["coeffs"]
        mags = sorted(abs(complex(re, im)) for re, im in coeffs[1])[::-1]
        assert abs(mags[0] - 1.0 / np.sqrt(3.0)) < 1e-9
        assert doc["decomposition"]["residual"] < 1e-9
        e = doc["entanglement"]
        assert abs(e["distillable_bits"] - 0.75 * np.log2(3.0)) < 1e-9

    def test_negative_verdict_has_no_matrices(self, capsys):
        code, doc = run(capsys, "decompose", "--input", NONSSD)
        assert code == 1
        assert "decomposition" not in doc
        assert doc["entanglement"]["distillable_bits"] is None


class TestEntropy:
    def test_certified_mixture(self, capsys):
        code, doc = run(capsys, "entropy", "--input", SSD)
        assert code == 0
        e = doc["entanglement"]
        assert e["certified_mcs"] is True
        assert abs(e["distillable_bits"] - 0.75 * np.log2(3.0)) < 1e-9

    def test_uncertified_reports_hashing_bound_only(self, capsys):
        code, doc = run(capsys, "entropy", "--input", NONSSD)
        assert code == 0
        e = doc["entanglement"]
        assert e["certified_mcs"] is False
        assert e["distillable_bits"] is None
        assert e["hashing_lower_bound_bits"] >= 0.0


class TestBell:
    def test_enumerate_three_dim(self, capsys):
        code, doc = run(capsys, "bell", "enumerate", "--d", "3", "--size", "3")
        assert code == 0
        assert doc["count"] == 12

    def test_enumerate_with_listing(self, capsys):
        code, doc = run(capsys, "bell", "enumerate", "--d", "2", "--size", "2", "--list")
        assert code == 0
        assert len(doc["sets"]) == doc["count"] == 6

    def test_check_passing(self, capsys):
        code, doc = run(capsys, "bell", "check", "--d", "3", "--indices", "0,0;1,1;2,2")
        assert code == 0
        assert doc["decomposable"] is True
        assert doc["witness"] == [1, 2, 0]

    def test_check_failing(self, capsys):
        code, doc = run(capsys, "bell", "check", "--d", "3", "--indices", "0,0;0,1;1,0")
        assert code == 1
        assert doc["witness"] is None

    def test_family(self, capsys):
        code, doc = run(capsys, "bell", "family", "--d", "4", "--f", "1", "--g", "0")
        assert code == 0
        assert doc["indices"] == [[0, 0], [1, 1], [2, 2], [3, 3]]
        assert doc["witness"] is not None

    def test_malformed_indices(self, capsys):
        code, doc = run(capsys, "bell", "check", "--d", "3", "--indices", "0;1,1")
        assert code == 2
        assert doc["error"]["type"] == "DocumentError"


class TestLocc:
    def test_synth_and_simulate(self, capsys, tmp_path):
        proto_file = tmp_path / "protocol.json"
        code, doc = run(
            capsys,
            "locc", "synth", "--d", "3", "--indices", "0,0;1,1;2,2",
            "--output", str(proto_file),
        )
        assert code == 0
        assert sorted(doc["labels"]) == [0, 1, 2]
        code, rep = run(
            capsys,
            "locc", "simulate", "--protocol", str(proto_file),
            "--trials", "2000", "--seed", "9",
        )
        assert code == 0
        assert rep["success_rate"] == 1.0
        assert sum(rep["per_state_successes"]) == 2000

    def test_synth_rejects_failing_set(self, capsys):
        code, doc = run(capsys, "locc", "synth", "--d", "3", "--indices", "0,0;0,1;1,0")
        assert code == 2
        assert doc["error"]["type"] == "NotDecomposableError"

    def test_synth_reports_klein_obstruction(self, capsys):
        code, doc = run(
            capsys, "locc", "synth", "--d", "4", "--indices", "0,0;2,0;0,2;2,2"
        )
        assert code == 2
        assert doc["error"]["type"] == "CanonicalizationError"


class TestSeedHandling:
    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SCHMIDTKIT_SEED", "7")
        code, doc = run(capsys, "check", "--input", SSD)
        assert code == 0
        assert doc["params"]["seed"] == 7

    def test_explicit_seed_wins(self, capsys, monkeypatch):
        monkeypatch.setenv("SCHMIDTKIT_SEED", "7")
        code, doc = run(capsys, "check", "--input", SSD, "--seed", "3")
        assert doc["params"]["seed"] == 3

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SCHMIDTKIT_SEED", "pony")
        code, doc = run(capsys, "check", "--input", SSD)
        assert code == 2
        assert doc["error"]["type"] == "DocumentError"


class TestRankDeficiencyFlag:
    def test_dependent_vectors_flagged(self, capsys, tmp_path):
        import numpy as np
        from schmidtkit import BipartiteVector, GramEnsemble
        from schmidtkit.documents import dumps, states_to_doc

        amps = np.zeros(9, complex)
        amps[[0, 4, 8]] = 1.0 / np.sqrt(3.0)
        v = BipartiteVector(3, 3, amps)
        ens = GramEnsemble.uniform((v, v))
        path = tmp_path / "dependent.json"
        path.write_text(dumps(states_to_doc(ens)))
        code, doc = run(capsys, "check", "--input", str(path))
        assert code == 0
        assert doc["input"]["vectors_rank_deficient"] is True
