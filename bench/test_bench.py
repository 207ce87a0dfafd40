"""Smoke tests for the benchmark itself: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import schmidtkit.cli as cli  # noqa: E402

END_TO_END = {"request_p50_s": "s", "request_tail_s": "s", "throughput_rps": "1/s",
              "failed_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}


def bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = done.stdout.splitlines()
    return done, lines, (json.loads(lines[-1]) if done.returncode == 0 else None)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_is_correct_and_prints_every_metric(name):
    done, lines, result = bench("--workload", name, "--seed", "3", "--seconds", "0",
                                "--trace", "0", "--size", "tiny")
    assert done.returncode == 0, done.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith(name + " ")}
    assert printed == END_TO_END
    assert f"{name} failed_ratio 0 ratio" in done.stdout
    assert set(result["metrics"]) == set(END_TO_END) - {"failed_ratio"}


def test_traced_run_reports_every_layer_metric_and_repeats_counts():
    counts = []
    for _ in range(2):
        done, lines, result = bench("--workload", "bell_locc", "--seed", "4", "--seconds", "0",
                                    "--trace", "1", "--size", "tiny")
        assert done.returncode == 0, done.stderr
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == tracing.UNITS
        printed = {line.split()[1]: float(line.split()[2]) for line in lines
                   if line.startswith("bell_locc ") and line.split()[1] in tracing.COUNTS}
        assert set(printed) == set(tracing.COUNTS)
        counts.append(printed)
    assert counts[0] == counts[1]
    assert counts[0]["bell.subsets_passing"] == workloads.PINNED_TALLIES[(4, 4)]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == tracing.UNITS
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS

    # per request, the layer self times account for the wall time within the
    # tracing overhead measured on that same request
    trace = json.loads((BENCH / "out" / "trace-bell_locc-seed4.json").read_text())
    spans = [tracing.Span(*row) for row in trace["spans"]]
    accounting = tracing.request_accounting(spans)
    assert sorted(accounting) == [r["id"] for r in trace["requests"]]
    for r in trace["requests"]:
        self_sum, root = accounting[r["id"]]
        assert self_sum == pytest.approx(root, rel=1e-9, abs=1e-9)
        overhead = abs(r["wall_traced_s"] - r["wall_untraced_s"])
        assert abs(self_sum - r["wall_untraced_s"]) <= overhead + 1e-4
        assert 0.0 <= r["wall_traced_s"] - self_sum < 1e-4


def test_a_wrong_guard_count_makes_the_run_incorrect(monkeypatch, tmp_path):
    real = workloads.bell_locc

    def skewed(*args):
        workload = real(*args)
        workload.guards["locc.trials"] += 1
        return workload

    monkeypatch.setattr(workloads, "bell_locc", skewed)
    monkeypatch.setattr(run, "WORK", tmp_path)
    result = run.run_workload(run.parse_args(["--workload", "bell_locc", "--seed", "4",
                                              "--seconds", "0", "--trace", "1", "--size", "tiny"]))
    assert not result["correct"] and result["failed"] == 0


def _documents(name, seed, workdir):
    workdir.mkdir()
    workload = run.build(name, seed, "tiny", workdir, cli)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    argvs = [[a.replace(str(workdir), "") for a in r.argv] for r in workload.requests()]
    return files, argvs


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generated_inputs_follow_the_seed(name, tmp_path):
    first = _documents(name, 11, tmp_path / "a")
    assert first == _documents(name, 11, tmp_path / "b")
    assert first != _documents(name, 12, tmp_path / "c")


def _issue(workload, kind, workdir):
    request = next(r for r in workload.requests() if r.kind == kind)
    argv, output = list(request.argv), None
    if workloads.OUTPUT in argv:
        output = str(workdir / f"out-{kind.replace('/', '-')}.json")
        argv = [output if a == workloads.OUTPUT else a for a in argv]
    wall, code, stdout, error = run.call(cli.main, argv)
    return run.Call(request, output, wall, code, stdout, error)


def _corrupt(c, **fields):
    doc = json.loads(c.stdout)
    for path, value in fields.items():
        target = doc
        *parents, leaf = path.split(".")
        for key in parents:
            target = target[key]
        target[leaf] = value
    text, output = json.dumps(doc), c.output
    if output:  # keep the --output file equal to standard output, so only the field is wrong
        output = output.replace(".json", "-corrupt.json")
        Path(output).write_text(text, encoding="utf-8")
    return run.Call(c.request, output, c.wall, c.code, text, c.error)


def test_corrupted_outputs_are_counted_as_failures(tmp_path):
    family = run.build("family_decide", 5, "tiny", tmp_path, cli)
    pipeline = run.build("certified_pipeline", 5, "tiny", tmp_path, cli)
    bell = run.build("bell_locc", 5, "tiny", tmp_path, cli)
    positive = _issue(family, "check/positive", tmp_path)
    factorization = _issue(family, "check/factorization", tmp_path)
    certified = _issue(pipeline, "decompose/certified", tmp_path)
    uncertified = _issue(pipeline, "decompose/uncertified", tmp_path)
    enumerate_ = _issue(bell, "bell/enumerate", tmp_path)
    synth = _issue(bell, "locc/synth", tmp_path)
    simulate = _issue(bell, "locc/simulate", tmp_path)
    reject = _issue(bell, "locc/reject", tmp_path)

    good = {"family_decide": [positive, factorization],
            "certified_pipeline": [certified, uncertified],
            "bell_locc": [enumerate_, synth, simulate, reject]}
    for name, calls in good.items():
        assert run.check_all(calls, workloads.CHECKERS[name]) == []

    bad = {
        "family_decide": [
            run.Call(positive.request, None, 0.0, 1, positive.stdout),
            _corrupt(factorization, **{"verdict.witness.check": "commutation"}),
            run.Call(positive.request, None, 0.0, None, "", "RuntimeError: boom"),
        ],
        "certified_pipeline": [
            _corrupt(certified, **{"entanglement.distillable_bits":
                                   json.loads(certified.stdout)["entanglement"]["distillable_bits"] + 1e-6}),
            _corrupt(uncertified, **{"entanglement.distillable_bits": 0.5}),
        ],
        "bell_locc": [
            _corrupt(enumerate_, count=json.loads(enumerate_.stdout)["count"] + 1),
            _corrupt(synth, labels=[0] * len(json.loads(synth.stdout)["labels"])),
            _corrupt(simulate, success_rate=0.999),
            _corrupt(reject, **{"error.type": "NotDecomposableError"}),
            run.Call(simulate.request, None, 0.0, 0, "not json"),
        ],
    }
    for name, calls in bad.items():
        assert len(run.check_all(calls, workloads.CHECKERS[name])) == len(calls), name


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
    done, lines, _ = bench("--workload", "bell_locc", "--seed", "1", "--seconds", "1",
                           "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in lines)
