"""Answer one workload's battery in this (fresh) interpreter and print JSON.

    python3 perfbench/answer.py --workload exact --seed 0 [--trace SPANS.json.gz]

Imports davlab from the checkout's src/, asks every question serially with
threads=1, and prints one JSON line: per-answer seconds and serialized
results, the battery's wall time and this process's peak RSS.  Without
--trace the host's pace is sampled throughout (see pace.py), and each answer
and the whole battery also get their time in reference seconds (`ref_s`).
With --trace, the public functions of each module are wrapped (see
spans.py), the spans are written to the given path, and per-layer metrics
plus a few probes of single layers are added to the output.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import batteries  # noqa: E402
from layers import GATE_COUNTS, SPAN_FIELDS  # noqa: E402
from pace import Pace  # noqa: E402
from spans import Tracer  # noqa: E402

import davlab  # noqa: E402
from davlab import constructions, engine, fdsolver, groups, randomlab, solver, verify  # noqa: E402


def _group(q):
    return groups.GroupSpec(tuple(q["group"]))


def _weights(q):
    return engine.WeightSet(q["group"][-1], tuple(q["weights"]))


def _suite(report):
    return {"ok": report.ok, "checks": len(report.checks),
            "failures": [c.name for c in report.failures()]}


def _construction(rep):
    return {"verified_bound": rep.verified_bound, "verification": rep.verification,
            "size": rep.size, "weights": list(rep.weight_set.residues)}


def _fd(res):
    return {"status": res.status.value, "value": res.value,
            "witness": list(res.witness_set.residues) if res.witness_set else None,
            "sizes_excluded": res.sizes_excluded, "candidates": res.search_stats.candidates,
            "nodes": res.search_stats.nodes}


# fn -> (call, serialize).  Calls look functions up on their module at call
# time, so that the tracer's wrappers are the ones called.
ASK = {
    "davenport": (
        lambda q: solver.davenport(_group(q), _weights(q), threads=1),
        lambda r: {"value": r.value, "witness": [list(e) for e in r.witness.entries],
                   "nodes": r.nodes_explored},
    ),
    "max_davenport_over_size": (
        lambda q: solver.max_davenport_over_size(q["p"], q["k"], threads=1),
        lambda r: {"value": r.value, "argmax": list(r.argmax.residues),
                   "candidates": r.candidates},
    ),
    "certify_dav_value": (
        lambda q: solver.certify_dav_value(_group(q), _weights(q), q["value"], threads=1),
        bool,
    ),
    "fd": (lambda q: fdsolver.fd(_group(q), q["k"], threads=1), _fd),
    "fd_fast_k2": (lambda q: fdsolver.fd_fast_k2(q["p"]), _fd),
    "threshold_sweep": (
        lambda q: randomlab.threshold_sweep(
            randomlab.SweepConfig(p=q["p"], k=q["k"], theta_grid=(q["theta"],),
                                  trials=q["trials"], seed=q["seed"]),
            threads=1,
        ),
        lambda r: {"csv": r.to_csv(), "partial": r.partial},
    ),
    "known_formulas": (lambda q: verify.known_formulas(max_n=q["max_n"]), _suite),
    "intervals_suite": (lambda q: verify.intervals_suite(limit=q["limit"]), _suite),
    "complement_suite": (lambda q: verify.complement_suite(), _suite),
    "singer_suite": (lambda q: verify.singer_suite(), _suite),
    "quartic_weight_set_auto": (
        lambda q: constructions.quartic_weight_set_auto(q["p"]), _construction),
    "interval_weight_set": (lambda q: constructions.interval_weight_set(q["p"]), _construction),
    "complement_weight_set": (
        lambda q: constructions.complement_weight_set(q["p"], q["r"]), _construction),
    "singer_weight_set": (lambda q: constructions.singer_weight_set(q["p"]), _construction),
}


def ask_all(questions) -> tuple[list[dict], tuple[float, float]]:
    """Every answer with its start and end; an exception is recorded as that
    answer's error.  Also returns the start and end of the whole battery."""
    answers = []
    start = time.perf_counter()
    for q in questions:
        call, serialize = ASK[q["fn"]]
        t0 = time.perf_counter()
        try:
            raw = call(q)
            error = None
        except Exception:  # counted as a failed answer by the caller, never skipped
            raw = None
            error = traceback.format_exc(limit=-3)
        t1 = time.perf_counter()
        answers.append({"id": q["id"], "t": (t0, t1),
                        "result": None if error else serialize(raw), "error": error})
    return answers, (start, time.perf_counter())


def time_answers(answers, battery, pace: Pace | None) -> dict[str, float]:
    """Replaces each answer's start and end by its seconds and, with a pace,
    its reference seconds, both without the pace's samples; returns the
    battery's wall_s (and wall_ref_s)."""
    for a in answers:
        t0, t1 = a.pop("t")
        a["s"] = t1 - t0 if pace is None else pace.unscaled(t0, t1)
        if pace is not None:
            a["ref_s"] = pace.scaled(t0, t1)
    if pace is None:
        return {"wall_s": battery[1] - battery[0]}
    return {"wall_s": pace.unscaled(*battery), "wall_ref_s": pace.scaled(*battery)}


# ------------------------------------------------------------------- tracing

TARGETS = (
    (groups, "canonical_roots"),
    (engine, "dilation_orbit_reps"),
    (engine, "has_weighted_zero_sum"),
    (engine, "quotient_set"),
    (solver, "davenport"),
    (solver, "check_dav_at_most"),
    (solver, "certify_dav_value"),
    (solver, "max_davenport_over_size"),
    (fdsolver, "fd"),
    (fdsolver, "fd_fast_k2"),
    (fdsolver, "ratio_covers"),
    (constructions, "interval_weight_set"),
    (constructions, "complement_weight_set"),
    (constructions, "singer_weight_set"),
    (constructions, "quartic_weight_set"),
    (randomlab, "threshold_sweep"),
    (randomlab, "classify_dav"),
    (randomlab, "sample_theta_random"),
    (verify, "known_formulas"),
    (verify, "intervals_suite"),
    (verify, "complement_suite"),
    (verify, "singer_suite"),
)
GENERATORS = {"engine.dilation_orbit_reps"}


def install_tracer() -> tuple[Tracer, dict]:
    """Wrap every target in every davlab module that binds it.  Also returns
    the distinct (invariant factors, weights) pairs the solver is called on,
    filled in as the battery runs."""
    tracer = Tracer()
    pairs: dict[tuple, None] = {}

    def on_davenport(counts, args, kwargs, r):
        counts["solver.davenport.nodes"] += r.nodes_explored
        pairs[(args[0].invariant_factors, tuple(args[1].residues))] = None

    def on_check(counts, args, kwargs, r):
        counts["solver.check_dav_at_most.nodes"] += r.nodes
        counts["solver.check_dav_at_most.holds"] += int(r.holds)
        pairs[(args[0].invariant_factors, tuple(args[1].residues))] = None

    def on_fd(counts, args, kwargs, r):
        counts["fdsolver.fd.candidates"] += r.search_stats.candidates
        counts["fdsolver.fd.nodes"] += r.search_stats.nodes

    def on_fd_fast(counts, args, kwargs, r):
        counts["fdsolver.fd_fast_k2.candidates"] += r.search_stats.candidates

    def on_classify(counts, args, kwargs, r):
        counts["randomlab.classify_dav." + r.value.lower()] += 1

    hooks = {
        "solver.davenport": on_davenport,
        "solver.check_dav_at_most": on_check,
        "fdsolver.fd": on_fd,
        "fdsolver.fd_fast_k2": on_fd_fast,
        "randomlab.classify_dav": on_classify,
    }
    wrappers = {}
    for module, fn_name in TARGETS:
        fn = getattr(module, fn_name)
        name = module.__name__.removeprefix("davlab.") + "." + fn_name
        wrappers[fn] = (tracer.wrap_generator(name, fn) if name in GENERATORS
                        else tracer.wrap(name, fn, hooks.get(name)))
    tracer.install("davlab", wrappers)
    return tracer, pairs


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.layers()
    out: dict[str, float] = {}
    for name, fields in SPAN_FIELDS.items():
        for field in fields:
            if field in ("s", "self_s"):
                out[f"{name}.{field}"] = spans.get(name, {}).get(field, 0.0)
            else:
                out[f"{name}.{field}"] = tracer.counts.get(f"{name}.{field}", 0)
    kernel_s = out["solver.davenport.self_s"] + out["solver.check_dav_at_most.self_s"]
    nodes = out["solver.davenport.nodes"] + out["solver.check_dav_at_most.nodes"]
    out["solver.nodes_per_s"] = nodes / kernel_s if kernel_s > 0 else 0.0
    return out


def _median_us(fn, items, blocks=5, per_block=2000):
    per_call = []
    reps = max(1, per_block // len(items))
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(reps):
            for it in items:
                fn(*it)
        per_call.append((time.perf_counter() - t0) / (reps * len(items)) * 1e6)
    return statistics.median(per_call)


def probe_engine(seed: int) -> dict[str, float]:
    """negate and sumset per call, on half-full random sets, per group shape."""
    rng = random.Random(f"davlab-bench:probe:{seed}")
    out = {}
    for shape, factors in (("cyclic", (499,)), ("rank2", (6, 6)), ("rank3", (3, 3, 3))):
        group = groups.GroupSpec(factors)
        n = group.order
        halves = [engine.ResidueSet(group, rng.getrandbits(n)) for _ in range(16)]
        smalls = [engine.ResidueSet(group, sum(1 << i for i in rng.sample(range(n), 8)))
                  for _ in range(16)]
        out[f"engine.negate_us.{shape}"] = _median_us(engine.negate, [(s,) for s in halves])
        out[f"engine.sumset_us.{shape}"] = _median_us(
            engine.sumset, list(zip(smalls, halves)), per_block=500)
    return out


def table_build_ms(pairs: list, limit: int = 64) -> float:
    """Median of check_dav_at_most(G, A, 1), which builds the move tables and
    stops at the first root, over up to `limit` of the distinct (G, A) pairs."""
    if len(pairs) > limit:
        pairs = [pairs[i * len(pairs) // limit] for i in range(limit)]
    times = []
    for factors, residues in pairs:
        group = groups.GroupSpec(factors)
        weights = engine.WeightSet(group.exponent, residues)
        t0 = time.perf_counter()
        solver.check_dav_at_most(group, weights, 1, threads=1)
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=batteries.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", metavar="SPANS_PATH")
    args = ap.parse_args(argv)
    if Path(davlab.__file__).resolve().parent != SRC / "davlab":
        print(f"davlab imported from {davlab.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    questions = batteries.build(args.workload, args.seed)
    if args.trace:
        tracer, pairs = install_tracer()
        pace = None
        try:
            answers, battery = ask_all(questions)
        finally:
            tracer.uninstall()
    else:
        tracer, pairs = None, {}
        with Pace() as pace:
            answers, battery = ask_all(questions)
    walls = time_answers(answers, battery, pace)
    out = {
        "answers": answers,
        **walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.dump(args.trace)
        layers = layer_metrics(tracer)
        out["gate"] = {k: layers[k] for k in GATE_COUNTS}
        layers.update(probe_engine(args.seed))
        layers["solver.table_build_ms"] = table_build_ms(list(pairs))
        out["layers"] = layers
        out["splits"] = {
            parent: tracer.children_of(parent)
            for parent in ("fdsolver.fd", "fdsolver.fd_fast_k2", "randomlab.threshold_sweep",
                           "solver.certify_dav_value", "verify.known_formulas")
        }
        out["spans"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
