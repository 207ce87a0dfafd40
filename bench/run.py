#!/usr/bin/env python3
"""schmidtkit benchmark: seeded CLI requests from one closed-loop client.

Run from the root of a schmidtkit checkout:

    python3 bench/run.py --workload family_decide --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each request is one in-process call of ``schmidtkit.cli.main(argv)`` with
standard output captured; the next request starts when the previous one
returns. Inputs are generated from ``--seed``, and every output is checked
against the generator's answer after the timed loop. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
from a traced run with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
OUT = BENCH / "out"

WORKLOADS = ("family_decide", "certified_pipeline", "bell_locc")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: fresh-interpreter imports before the timed loop, and how many to spread
#: over each round
SETUP_BEFORE, SETUP_PER_ROUND = 5, 2

END_TO_END_UNITS = {
    "request_p50_s": "s",
    "request_tail_s": "s",
    "throughput_rps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cap_blas_threads(limit: int) -> None:
    """Keep BLAS threads at most ``limit``; must run before numpy loads."""
    for var in BLAS_ENV:
        raw = os.environ.get(var, "")
        value = int(raw) if raw.isdigit() and int(raw) > 0 else limit
        os.environ[var] = str(min(value, limit))


def openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if one is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(np) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "blas_threads": openblas_threads(),
    }


def fresh_import() -> float:
    """Seconds a fresh interpreter spends in ``import schmidtkit.cli``."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import schmidtkit.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


@dataclass
class Call:
    """One issued request and what came back."""

    request: object
    output: str | None
    wall: float
    code: int | None
    stdout: str
    error: str | None = None


def call(main, argv) -> tuple[float, int | None, str, str | None]:
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
        except Exception as exc:  # an unexpected error counts as a failed request
            code, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, buf.getvalue(), error


def run_rounds(workload, seconds: float, min_requests: int, rng, issue, between=None, per_round=1):
    """Issue the workload's rounds in turn, each in a fresh seeded order,
    until ``seconds`` of requests have passed and ``min_requests`` were
    issued, stopping only at the end of a round. ``between`` runs off the
    clock ``per_round`` times a round, evenly spaced. Returns rounds and the
    seconds spent issuing requests."""
    issued = rounds = 0
    paused = 0.0
    start = time.perf_counter()
    while True:
        requests = workload.rounds[rounds % len(workload.rounds)]
        step = max(1, len(requests) // per_round)
        for k in rng.permutation(len(requests)):
            issue(requests[int(k)], issued)
            issued += 1
            if between is not None and issued % step == 0:
                pause = time.perf_counter()
                between()
                paused += time.perf_counter() - pause
        rounds += 1
        busy = time.perf_counter() - start - paused
        if busy >= seconds and issued >= min_requests:
            return rounds, busy


def tail(values: list[float], percentile: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-percentile * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def check_all(calls: list[Call], checker) -> list[str]:
    failures = []
    for c in calls:
        problem = c.error
        if problem is None:
            try:
                problem = checker(c.request, c.code, c.stdout, c.output)
            except Exception as exc:  # malformed output: the request failed
                problem = f"unreadable output ({type(exc).__name__}: {exc})"
        if problem:
            failures.append(f"{c.request.label()}: {problem}")
    return failures


def build(name: str, seed: int, size: str, workdir: Path, cli):
    import workloads

    if name == "family_decide":
        return workloads.family_decide(seed, size, workdir)
    if name == "certified_pipeline":
        return workloads.certified_pipeline(seed, size, workdir)

    def make_protocol(argv, path):
        _, code, stdout, error = call(cli.main, argv)
        if code != 0 or error:
            raise RuntimeError(f"input generation: {' '.join(argv)} exited {code}: {error or stdout}")
        return json.loads(Path(path).read_text(encoding="utf-8"))

    return workloads.bell_locc(seed, size, workdir, make_protocol)


def run_workload(args) -> dict:
    import numpy as np
    import schmidtkit.cli as cli

    import tracing
    import workloads

    facts = machine_facts(np)
    print("machine " + json.dumps(facts, sort_keys=True))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = build(args.workload, args.seed, args.size, workdir, cli)
        rng = np.random.default_rng([args.seed, 1])
        calls: list[Call] = []
        guard_failures: list[str] = []

        def output_for(request, tag):
            argv = list(request.argv)
            if workloads.OUTPUT not in argv:
                return argv, None
            path = str(workdir / f"out-{tag}.json")
            return [path if a == workloads.OUTPUT else a for a in argv], path

        if not args.trace:
            # set-up is sampled across the whole run, so it sees the same
            # machine load as the requests
            setup = [fresh_import() for _ in range(SETUP_BEFORE)]

            def issue(request, index):
                argv, path = output_for(request, index)
                calls.append(Call(request, path, *call(cli.main, argv)))

            def between():
                setup.append(fresh_import())

            rounds, elapsed = run_rounds(workload, args.seconds, workload.min_requests, rng,
                                         issue, between, SETUP_PER_ROUND)
            walls = [c.wall for c in calls]
            tail_s, beyond = tail(walls, workload.tail_percentile)
            metrics = {
                "request_p50_s": statistics.median(walls),
                "request_tail_s": tail_s,
                "throughput_rps": len(calls) / elapsed,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            notes = {
                "request_tail_s": f"p{workload.tail_percentile} of {len(calls)} requests, {beyond} beyond it",
                "throughput_rps": f"{len(calls)} requests in {rounds} rounds, {elapsed:.2f} s",
                "setup_s": f"median of {len(setup)} fresh interpreters",
            }
            units = END_TO_END_UNITS
        else:
            tracer = tracing.Tracer()
            traced_main = tracer.root(cli.main)
            untraced, traced = [], []

            def issue(request, index):
                # the same request untraced and traced, in alternating order
                # so that neither side always runs on warm memory: the pair
                # gives the tracing overhead on identical work
                for traced_side in (index % 2 == 1, index % 2 == 0):
                    argv, path = output_for(request, f"{index}-{int(traced_side)}")
                    if not traced_side:
                        calls.append(Call(request, path, *call(cli.main, argv)))
                        untraced.append(calls[-1].wall)
                        continue
                    tracer.request = index
                    first = len(tracer.spans)
                    tracer.install()
                    try:
                        calls.append(Call(request, path, *call(traced_main, argv)))
                    finally:
                        tracer.uninstall()
                    reruns = sum(s.end - s.start for s in tracer.spans[first:] if s.rerun)
                    traced.append(calls[-1].wall - reruns)

            rounds, _ = run_rounds(workload, args.seconds, 1, rng, issue)
            layer = tracing.layer_metrics(tracer.spans, rounds, untraced, traced)
            metrics = {name: layer[name]["value"] for name in tracing.UNITS}
            units = dict(tracing.UNITS)
            notes = {}
            for name, unit in tracing.COUNTS.items():
                value = layer[name]["value"]
                guard = workload.guards.get(name)
                mark = "" if guard is None else " (guard)" if value == guard else f" (expected {guard})"
                basis = tracing.COUNT_BASIS.get(name, "per round")
                print(f"{args.workload} {name} {value:.6g} {unit} {basis}{mark}")
                if guard is not None and value != guard:
                    guard_failures.append(f"traced count {name} is {value}, expected {guard}")
            OUT.mkdir(exist_ok=True)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "size": args.size,
                "rounds": rounds, "machine": facts,
                "requests": [{"id": i, "kind": r.request.kind, "argv": r.request.argv,
                              "wall_untraced_s": u, "wall_traced_s": t}
                             for i, (r, u, t) in enumerate(zip(calls[::2], untraced, traced))],
                "span_fields": ["name", "start", "end", "parent", "request", "rerun", "info"],
                "spans": [s.row() for s in tracer.spans],
            }) + "\n", encoding="utf-8")
            print(f"trace {trace_path.relative_to(ROOT)}")

        failures = check_all(calls, workloads.CHECKERS[args.workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in failures[:20] + guard_failures:
        print(f"FAILED {problem}", file=sys.stderr)
    attempted = len(calls)
    print(f"{args.workload} failed_ratio {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} requests failed)")
    for name, value in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{args.workload} {name} {value:.6g} {units[name]}{note}")
    return {
        "correct": not failures and not guard_failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload, each in its own process so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            raise SystemExit(f"bench: workload {name} exited with {done.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'tiny' shrinks every input, for smoke tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    if not (SRC / "schmidtkit" / "__init__.py").is_file():
        print(f"bench: no schmidtkit sources under {SRC}; run from a schmidtkit checkout",
              file=sys.stderr)
        return 2
    limit = nproc()
    cap_blas_threads(limit)
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
