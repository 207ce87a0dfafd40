"""Spans around schmidtkit's public functions, and the per-layer metrics
computed from them.

For the traced run, :meth:`Tracer.install` replaces selected public functions
of each library module with wrappers that record a span (name, start, end,
parent, request id). Every module attribute bound to the original function is
replaced, so calls between library modules are traced too. The library's
files are not changed, and :meth:`Tracer.uninstall` restores the originals.

A layer's self time is its spans' durations minus the time their child spans
cover. Component re-runs (calls the request did not make, timed only to split
a layer's work further) are flagged and left out of every duration, every
self time and the request's wall time.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "documents", "ssd", "linalg", "states", "entropy", "bell", "locc")

#: public functions wrapped in the traced run, per layer. Helpers that the
#: library calls inside its O(l^4) and O(d!) loops (frobenius, is_normal,
#: commutator_norm, fix_column_phases, amplitude_matrix, bell_state, the
#: complex-pair codecs) are not wrapped: a span on each call would cost more
#: than the work it measures, and their time shows as their caller's self time.
TRACED = {
    "documents": ("load_states", "load_protocol", "dumps", "matrix_to_doc", "protocol_to_doc"),
    "ssd": ("decompose", "to_maximally_correlated"),
    "linalg": ("joint_diagonalize",),
    "states": ("assemble_density", "partial_trace"),
    "entropy": ("entanglement_report", "von_neumann_entropy"),
    "bell": ("check_bell_set", "enumerate_bell_sets", "bell_vectors"),
    "locc": ("synthesize", "simulate", "verify_protocol", "outcome_distributions"),
}

ROOT_SPAN = "cli.main"
RERUN_COMMUTATION = "ssd.check_commutation"

#: bytes per complex128 entry
_C16 = 16


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: int
    rerun: bool = False
    info: dict = field(default_factory=dict)

    def row(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.request, self.rerun, self.info]


class Tracer:
    """Collects spans in memory for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self._paused = False
        self._patched: list[tuple] = []

    def begin(self, name: str, rerun: bool = False) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request, rerun))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def root(self, main):
        """``main`` wrapped in the request's root span."""

        @functools.wraps(main)
        def traced_main(argv):
            idx = self.begin(ROOT_SPAN)
            try:
                return main(argv)
            finally:
                self.end(idx)

        return traced_main

    def rerun(self, name: str, fn, *args, **kwargs):
        """Time a component call the request did not make; nothing inside it
        is traced."""
        self._paused = True
        idx = self.begin(name, rerun=True)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)
            self._paused = False

    def install(self, package: str = "schmidtkit") -> None:
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for layer, names in TRACED.items():
            home = sys.modules[f"{package}.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.spans[idx].info["raised"] = type(exc).__name__
                raise
            finally:
                self.end(idx)
            if observe is not None:
                observe(self, self.spans[idx], args, kwargs, result)
            return result

        return wrapper


# ---------------------------------------------------------------- observers
# Each records, on the span of one call, the counts that call's inputs and
# result determine. Arguments are read the way the library's callers pass them.


def _text_in(tracer, span, args, kwargs, result):
    span.info["bytes"] = len(args[0].encode("utf-8"))


def _text_out(tracer, span, args, kwargs, result):
    span.info["bytes"] = len(result.encode("utf-8"))


def _decompose(tracer, span, args, kwargs, result):
    from schmidtkit.ssd import CommutationWitness, check_commutation

    vectors = args[0]
    l, da = len(vectors), vectors[0].dim_a
    verdict = result.verdict
    if verdict.decomposable:
        outcome = "positive"
    elif isinstance(verdict.witness, CommutationWitness):
        outcome = "commutation"
    else:
        outcome = "factorization"
    span.info.update(l=l, dim_a=da, outcome=outcome)
    tracer.rerun(RERUN_COMMUTATION, check_commutation, vectors, kwargs.get("tol", 1e-10))


def _joint_diagonalize(tracer, span, args, kwargs, result):
    span.info["family"] = len(args[0])


def _dense_dim(tracer, span, args, kwargs, result):
    span.info["dim"] = args[0].dim_a * args[0].dim_b


def _report(tracer, span, args, kwargs, result):
    certified = kwargs.get("mcs_certified", args[1] if len(args) > 1 else False)
    span.info["certified"] = bool(certified)


def _entropy(tracer, span, args, kwargs, result):
    span.info["dim"] = len(args[0])


def _enumerate(tracer, span, args, kwargs, result):
    d, size = args[0], args[1]
    span.info.update(scanned=math.comb(d * d, size), passing=result.count)


def _simulate(tracer, span, args, kwargs, result):
    span.info.update(trials=result.trials, d=args[0].d)


OBSERVERS = {
    "documents.load_states": _text_in,
    "documents.load_protocol": _text_in,
    "documents.dumps": _text_out,
    "ssd.decompose": _decompose,
    "linalg.joint_diagonalize": _joint_diagonalize,
    "ssd.to_maximally_correlated": _dense_dim,
    "states.assemble_density": _dense_dim,
    "entropy.entanglement_report": _report,
    "entropy.von_neumann_entropy": _entropy,
    "bell.enumerate_bell_sets": _enumerate,
    "locc.simulate": _simulate,
}


# ---------------------------------------------------------------- metrics

#: per-layer metrics the traced run reports, with units; BENCHMARK.json lists
#: exactly these
UNITS = {
    "cli.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS[1:]},
    "documents.load_s": "s",
    "documents.dump_s": "s",
    "documents.bytes_out": "B",
    "ssd.decompose_s": "s",
    "ssd.check_commutation_s": "s",
    "linalg.joint_diagonalize_s": "s",
    "ssd.to_mcs_s": "s",
    "states.assemble_density_s": "s",
    "entropy.report_certified_s": "s",
    "entropy.report_uncertified_s": "s",
    "bell.enumerate_s": "s",
    "bell.check_s": "s",
    "locc.synthesize_s": "s",
    "locc.synth_decompose_s": "s",
    "locc.synth_search_s": "s",
    "locc.reject_s": "s",
    "locc.simulate_s": "s",
    "locc.trials_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}

#: counts and sizes that the inputs fix, printed by the traced run but not
#: reported as metrics: no optimisation of the library may move them. The
#: ones a workload's generator knows are checked for equality (its guards).
COUNTS = {
    "documents.bytes_in": "B",
    "ssd.commutator_pairs": "count",
    "ssd.commutator_gflop": "GFLOP",
    "ssd.verdicts_positive": "count",
    "ssd.witness_commutation": "count",
    "ssd.witness_factorization": "count",
    "linalg.jd_family_size": "count",
    "ssd.to_mcs_dense_mb": "MB",
    "states.density_dim": "count",
    "entropy.eig_dim_sum": "count",
    "bell.subsets_scanned": "count",
    "bell.subsets_passing": "count",
    "bell.pass_ratio": "ratio",
    "locc.synth_rejected": "count",
    "locc.trials": "count",
    "locc.simulate_mb_computed": "MB",
}

#: how each input-fixed count is taken; the others are totals per round
COUNT_BASIS = {
    "linalg.jd_family_size": "mean per call",
    "ssd.to_mcs_dense_mb": "mean per call",
    "states.density_dim": "mean per call",
    "locc.simulate_mb_computed": "mean per call",
    "bell.pass_ratio": "of subsets scanned",
}


def durations(spans: list[Span]) -> tuple[list[float], list[float]]:
    """Per span: duration and self time, both without re-runs."""
    rerun_inside = [0.0] * len(spans)
    for s in spans:
        if s.rerun:
            p = s.parent
            while p >= 0:
                rerun_inside[p] += s.end - s.start
                p = spans[p].parent
    dur = [s.end - s.start - rerun_inside[i] for i, s in enumerate(spans)]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0 and not s.rerun:
            children[s.parent] += dur[i]
    return dur, [d - c for d, c in zip(dur, children)]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], rounds: int, untraced: list[float], traced: list[float]) -> dict:
    """Per-layer metrics of a traced run.

    Times ending in ``_s`` are means per call (per request for the
    ``.self_s`` metrics); counts are per round, so they repeat exactly
    whatever the number of rounds. ``untraced`` and ``traced`` are the wall
    times of the same requests without and with tracing, re-runs excluded.
    """
    dur, self_time = durations(spans)
    live = [i for i, s in enumerate(spans) if not s.rerun]
    by_name: dict[str, list[int]] = {}
    for i in live:
        by_name.setdefault(spans[i].name, []).append(i)

    def calls(*names, where=lambda s: True):
        return [i for n in names for i in by_name.get(n, ()) if where(spans[i])]

    def mean_dur(*names, where=lambda s: True):
        return _mean(dur[i] for i in calls(*names, where=where))

    def per_round(values) -> float:
        return sum(values) / rounds

    requests = len(traced)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i in live:
        layer_self[spans[i].name.split(".")[0]] += self_time[i]

    decomposes = [spans[i].info for i in calls("ssd.decompose")]
    pairs = [math.comb(d["l"] ** 2, 2) for d in decomposes]
    # one commutator of two n x n complex products: two matmuls of 8 n^3 flops
    gflop = [p * 16 * d["dim_a"] ** 3 / 1e9 for p, d in zip(pairs, decomposes)]
    enumerations = [spans[i].info for i in calls("bell.enumerate_bell_sets")]
    scanned = per_round(e["scanned"] for e in enumerations)
    passing = per_round(e["passing"] for e in enumerations)
    synth_ok = calls("locc.synthesize", where=lambda s: "raised" not in s.info)
    synth_ok_set = set(synth_ok)
    synth_decompose = mean_dur("ssd.decompose", where=lambda s: s.parent in synth_ok_set)
    simulations = calls("locc.simulate")
    trials = [spans[i].info["trials"] for i in simulations]
    # simulate holds two trials x d^2 arrays at once: the gathered cumulative
    # probabilities (float64) and the comparison mask (bool)
    sim_mb = [spans[i].info["trials"] * spans[i].info["d"] ** 2 * 9 / 1e6 for i in simulations]

    values = {
        "cli.self_s": layer_self["cli"] / requests,
        **{f"{layer}.self_s": layer_self[layer] / requests for layer in LAYERS[1:]},
        "documents.load_s": mean_dur("documents.load_states", "documents.load_protocol"),
        # outermost serialization calls only: protocol_to_doc nests two
        # matrix_to_doc calls, and dumps may follow them
        "documents.dump_s": mean_dur("documents.dumps", "documents.matrix_to_doc",
                                     "documents.protocol_to_doc",
                                     where=lambda s: s.parent < 0
                                     or not spans[s.parent].name.startswith("documents.")),
        "documents.bytes_in": per_round(spans[i].info["bytes"] for i in
                                        calls("documents.load_states", "documents.load_protocol")),
        "documents.bytes_out": per_round(spans[i].info["bytes"] for i in calls("documents.dumps")),
        "ssd.decompose_s": mean_dur("ssd.decompose"),
        "ssd.check_commutation_s": _mean(s.end - s.start for s in spans if s.name == RERUN_COMMUTATION),
        "ssd.commutator_pairs": per_round(pairs),
        "ssd.commutator_gflop": per_round(gflop),
        "ssd.verdicts_positive": per_round(d["outcome"] == "positive" for d in decomposes),
        "ssd.witness_commutation": per_round(d["outcome"] == "commutation" for d in decomposes),
        "ssd.witness_factorization": per_round(d["outcome"] == "factorization" for d in decomposes),
        "linalg.joint_diagonalize_s": mean_dur("linalg.joint_diagonalize"),
        "linalg.jd_family_size": _mean(spans[i].info["family"] for i in calls("linalg.joint_diagonalize")),
        "ssd.to_mcs_s": mean_dur("ssd.to_maximally_correlated"),
        # dense (dA dB)^2 arrays of one call: rho, kron(ua, ub), u @ rho, the
        # conjugated matrix and the target pattern
        "ssd.to_mcs_dense_mb": _mean(5 * spans[i].info["dim"] ** 2 * _C16 / 1e6
                                     for i in calls("ssd.to_maximally_correlated")),
        "states.assemble_density_s": mean_dur("states.assemble_density"),
        "states.density_dim": _mean(spans[i].info["dim"] for i in calls("states.assemble_density")),
        "entropy.report_certified_s": mean_dur("entropy.entanglement_report",
                                               where=lambda s: s.info.get("certified")),
        "entropy.report_uncertified_s": mean_dur("entropy.entanglement_report",
                                                 where=lambda s: not s.info.get("certified")),
        "entropy.eig_dim_sum": per_round(spans[i].info["dim"] for i in calls("entropy.von_neumann_entropy")),
        "bell.enumerate_s": mean_dur("bell.enumerate_bell_sets"),
        "bell.check_s": mean_dur("bell.check_bell_set"),
        "bell.subsets_scanned": scanned,
        "bell.subsets_passing": passing,
        "bell.pass_ratio": _ratio(passing, scanned),
        "locc.synthesize_s": _mean(dur[i] for i in synth_ok),
        "locc.synth_decompose_s": synth_decompose,
        "locc.synth_search_s": _mean(dur[i] for i in synth_ok) - synth_decompose,
        "locc.reject_s": mean_dur("locc.synthesize", where=lambda s: "raised" in s.info),
        "locc.synth_rejected": per_round(1 for _ in calls("locc.synthesize", where=lambda s: "raised" in s.info)),
        "locc.simulate_s": mean_dur("locc.simulate"),
        "locc.trials": per_round(trials),
        "locc.trials_per_s": _ratio(sum(trials), sum(dur[i] for i in simulations)),
        "locc.simulate_mb_computed": _mean(sim_mb),
        "trace.overhead_ratio": _ratio(statistics.median(traced), statistics.median(untraced)),
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in {**UNITS, **COUNTS}.items()}


def request_accounting(spans: list[Span]) -> dict:
    """Per request: the sum of every layer's self time, and the root span's
    duration, both without re-runs. The two agree by construction (each
    span's self time is its duration less its children's); the request's
    wall time exceeds them only by the client's own timing calls."""
    dur, self_time = durations(spans)
    out: dict[int, list[float]] = {}
    for i, s in enumerate(spans):
        if s.rerun:
            continue
        row = out.setdefault(s.request, [0.0, 0.0])
        row[0] += self_time[i]
        if s.parent < 0:
            row[1] += dur[i]
    return {request: tuple(row) for request, row in out.items()}
