"""Tests of the benchmark itself: the tracer, the pace, the batteries and their checks.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import answer
import batteries
import layers
import pace
import run
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------------- tracer


def test_wrapped_function_returns_what_the_original_returns():
    tracer = Tracer()
    seen = []
    orig = batteries.dilate
    wrapped = tracer.wrap("x.dilate", orig, lambda c, a, k, r: seen.append(r))
    for u, n in ((3, 10), (7, 12), (1, 5)):
        assert wrapped(u, range(1, 4), n) == orig(u, range(1, 4), n)
    assert tracer.counts["x.dilate.calls"] == 3
    assert len(tracer.spans) == 3 and seen == [orig(u, range(1, 4), n)
                                              for u, n in ((3, 10), (7, 12), (1, 5))]
    with pytest.raises(ZeroDivisionError):
        tracer.wrap("x.div", lambda: 1 // 0)()
    assert tracer.spans[-1][1] == "x.div" and not tracer.stack


def test_wrapped_generator_yields_the_same_items_and_counts_them():
    tracer = Tracer()

    def gen(n):
        yield from range(n)

    inner = tracer.wrap("x.inner", lambda v: v)
    wrapped = tracer.wrap_generator("x.gen", gen)
    outer = tracer.wrap("x.outer", lambda: list(wrapped(5)))
    assert outer() == list(gen(5))
    # list() consumes with no span in between: one merged child span
    assert [s[1] for s in tracer.spans] == ["x.gen", "x.outer"]
    assert tracer.spans[0][4] == tracer.spans[1][0]
    assert [inner(v) for v in wrapped(3)] == [0, 1, 2]
    assert tracer.counts["x.gen.reps"] == 8 and tracer.counts["x.gen.calls"] == 2
    # interleaved with other spans, every next() is its own span
    assert sum(1 for s in tracer.spans if s[1] == "x.gen") == 1 + 4


def test_self_time_subtracts_child_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    child = tracer.wrap("child", lambda: None)
    parent = tracer.wrap("parent", lambda: (child(), child()))
    parent()
    agg = tracer.layers()
    assert agg["child"]["s"] == 2.0 and agg["child"]["spans"] == 2
    assert agg["parent"]["s"] == 5.0 and agg["parent"]["self_s"] == 3.0
    assert tracer.children_of("parent") == {"child": 2.0}


def test_install_patches_every_binding_and_uninstall_restores():
    from davlab import fdsolver, randomlab, solver

    original = solver.check_dav_at_most
    tracer, pairs = answer.install_tracer()
    try:
        for module in (solver, fdsolver, randomlab):
            assert module.check_dav_at_most is not original
        res = fdsolver.fd(answer.groups.GroupSpec((7,)), 2, threads=1)
        assert res.value == batteries.FD_EXPECTED[7]
    finally:
        tracer.uninstall()
    assert fdsolver.check_dav_at_most is original and solver.check_dav_at_most is original
    metrics = answer.layer_metrics(tracer)
    assert metrics["fdsolver.fd.calls"] == 1
    assert metrics["solver.check_dav_at_most.calls"] == metrics["fdsolver.fd.candidates"]
    assert metrics["solver.check_dav_at_most.nodes"] == res.search_stats.nodes
    assert metrics["engine.dilation_orbit_reps.reps"] >= res.search_stats.candidates
    assert len(pairs) == res.search_stats.candidates


# --------------------------------------------------------------------- pace


def _pace(starts, loops):
    p = pace.Pace()
    p.starts, p.loops = list(starts), list(loops)
    p.speeds = pace.speeds(p.loops)
    return p


def test_scaled_time_cancels_a_uniform_slowdown():
    nominal = pace.REF_NOMINAL_S
    at_speed = _pace([0.0, 1.0, 2.0, 3.0], [nominal] * 4)
    # wall seconds without the two samples taken inside (1, 2.5)
    assert at_speed.unscaled(0.5, 2.5) == pytest.approx(2.0 - 2 * nominal)
    assert at_speed.scaled(0.5, 2.5) == pytest.approx(2.0 - 2 * nominal)
    # the host at half speed: the same work and every loop take twice as long
    slow = _pace([0.0, 2.0, 4.0, 6.0], [2 * nominal] * 4)
    assert slow.scaled(1.0, 5.0) == pytest.approx(at_speed.scaled(0.5, 2.5))
    # full speed, then half speed from the sample at 3.0: a slice between a
    # sample at each speed runs at their mean, 0.75
    mixed = _pace([0.0, 1.0, 3.0, 4.0, 5.0, 6.0], [nominal] * 2 + [2 * nominal] * 2 + [nominal] * 2)
    assert mixed.scaled(0.0, 1.0) == pytest.approx(1.0)
    assert mixed.scaled(2.9, 4.0) == pytest.approx(0.1 * 0.75 + 1.0 * 0.5 - 2 * nominal * 0.5)
    # a lone interrupted sample does not change the speed
    spiky = _pace([0.0, 1.0, 2.0, 3.0], [nominal, 5 * nominal, nominal, nominal])
    assert spiky.scaled(0.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        at_speed.scaled(-1.0, 1.0)


def test_pace_samples_while_active_and_restores_the_signal_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with pace.Pace() as p:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        t1 = time.perf_counter()
        with pytest.raises(RuntimeError):
            p.scaled(t0, t1)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(p.loops) >= 5 and len(p.speeds) == len(p.loops)
    assert 0 < p.unscaled(t0, t1) < t1 - t0
    assert p.scaled(t0, t1) > 0


def test_harrell_davis_estimates_quantiles():
    assert run.harrell_davis([3.0] * 50, 0.9) == pytest.approx(3.0)
    xs = list(range(1, 102))
    assert run.harrell_davis(xs, 0.5) == pytest.approx(51.0, abs=0.01)
    assert run.harrell_davis(xs, 0.9) == pytest.approx(91.8, abs=0.5)
    # a value crossing a gap next to the quantile moves the estimate little
    low, high = [1.0] * 50 + [2.0] * 51, [1.0] * 51 + [2.0] * 50
    assert run.nearest_rank(low, 0.5) != run.nearest_rank(high, 0.5)
    assert abs(run.harrell_davis(low, 0.5) - run.harrell_davis(high, 0.5)) < 0.1
    assert not math.isnan(run.harrell_davis(xs[:3], 0.9))


# --------------------------------------------------------------- batteries


def _cheap(workload: str, q: dict) -> bool:
    fn = q["fn"]
    if workload == "sweep":
        return q["id"] in ("sweep:2:0", "sweep:3:99")
    if fn in ("davenport", "certify_dav_value"):
        return q["group"][-1] <= 14 and len(q["group"]) == 1 or q["id"].startswith(("2x2", "3x3:"))
    if fn == "fd":
        return q["group"][-1] <= 13
    if fn in ("known_formulas", "intervals_suite", "fd_fast_k2"):
        return False
    return True


@pytest.mark.parametrize("workload", batteries.WORKLOADS)
def test_expectations_agree_with_the_package_on_a_reduced_battery(workload):
    qs = [q for q in batteries.build(workload, 3) if _cheap(workload, q)]
    assert len(qs) >= 2
    answers, _ = answer.ask_all(qs)
    checker = batteries.Checker()
    by_id = {q["id"]: q for q in qs}
    for a in answers:
        assert a["error"] is None, a
        assert checker.check(by_id[a["id"]], a["result"]) is None, a


def test_checker_rejects_wrong_answers():
    checker = batteries.Checker()
    q = batteries._q("Z8:pm1", "davenport", group=[8], weights=[1, 7], expect=4)
    assert checker.check(q, {"value": 4, "witness": [[1], [2], [4]]}) is None
    assert checker.check(q, {"value": 4, "witness": [[1], [2], [3]]})  # 1 + 2 - 3 = 0
    assert checker.check(q, {"value": 5, "witness": [[1], [2], [4], [8 - 1]]})
    fdq = batteries._q("fd:Z7:2", "fd", group=[7], k=2, expect=3)
    assert checker.check(fdq, {"status": "FINITE", "value": 3, "witness": [1, 2, 5]}) is None
    assert checker.check(fdq, {"status": "FINITE", "value": 3, "witness": [1, 2, 3]})


def test_batteries_are_seeded_and_large_enough():
    for w in batteries.WORKLOADS:
        qs = batteries.build(w, 7)
        assert qs == batteries.build(w, 7)
        assert len(qs) >= 100 and len({q["id"] for q in qs}) == len(qs)
        assert qs != batteries.build(w, 8)


def _brute_dav(p, weights):
    k = 1
    while batteries.zsf_multiset_exists((p,), weights, k):
        k += 1
    return k


def test_sweep_classifier_matches_brute_force():
    rng = random.Random(5)
    for p in (11, 13, 17):
        field = batteries.PrimeField(p)
        for _ in range(25):
            ws = sorted(rng.sample(range(1, p), rng.randint(1, p // 2)))
            d = _brute_dav(p, ws)
            for k in (2, 3):
                want = "LT" if d < k else "EQ" if d == k else "GT"
                assert field.classify(ws, k) == want, (p, ws, k, d)


def test_frozen_fd_table_matches_brute_force_on_small_groups():
    def brute_fd(factors, k):
        e = factors[-1]
        for size in range(1, e):
            for ws in itertools.combinations(range(1, e), size):
                if not batteries.zsf_multiset_exists(factors, ws, k):
                    return size
        return "inf"

    for p, value in batteries.FD_EXPECTED.items():
        assert batteries.FD_CYCLIC[p][0] == value
    assert batteries.FD_FAST_K2[31] == batteries.FD_EXPECTED[31]
    for q in batteries.build("inverse", 0):
        if q["fn"] == "fd" and max(q["group"]) <= 7 and len(q["group"]) <= 2:
            assert brute_fd(tuple(q["group"]), q["k"]) == q["expect"], q["id"]


def test_closed_forms_match_brute_force_davenport():
    for name, n, ws, value in batteries.known_formula_instances(9):
        assert _brute_dav(n, ws) == value, name


# ----------------------------------------------------------------- contract


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(batteries.WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
