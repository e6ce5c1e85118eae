"""davlab benchmark: answer one workload's question battery and print its metrics.

    python3 perfbench/run.py --workload exact --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; davlab is imported from its src/.  Workloads
(see batteries.py and README.md): exact, inverse, sweep, certify.

--trace 0 measures the end-to-end metrics.  Their times are reference
seconds: wall time rescaled by the host's pace, sampled while the time is
measured (pace.py), so that the host's slow spells cancel out.  setup_s is the
median over cold CLI calls (`python3 -m davlab <subcommand> ...` on a trivial
input).  Then the battery is answered in fresh interpreters, one after
another, until --seconds have passed; wall_s and peak_rss_mb are medians over
those repetitions, and answer_p50_ms / answer_p90_ms are Harrell-Davis
percentiles over the answers of each answer's median time.

--trace 1 measures the per-layer metrics: CLI start-up split into bare
interpreter and `import davlab`, then one untraced and one traced battery.

Every answer is checked against an expectation computed apart from the
program (batteries.Checker).  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it holds
the host context, and a full report goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import batteries  # noqa: E402
from layers import per_layer_units  # noqa: E402
from pace import Pace, ref_loop  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "answer_p50_ms": "ms",
    "answer_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

CLI_REPEATS = 9
# Battery repetitions per run, at least: the median of three drops one
# answer that a garbage collection or a burst on the host slowed down.
MIN_REPS = 3
# Whole-run limit, kept below the 180 s every run must end within.
RUN_LIMIT_S = 170.0


# ------------------------------------------------------------------ CLI calls


def _check_davenport_cli(out):
    ok = out["value"] == 4 and batteries.is_zero_sum_free(
        (8,), (1, 7), [(x,) for x in out["witness"]]) and len(out["witness"]) == 3
    return None if ok else f"davenport CLI printed {out}"


def _check_fd_cli(out):
    ok = (out["status"], out["value"]) == ("FINITE", batteries.FD_EXPECTED[7]) and \
        batteries.ratios_cover(7, out["witness"])
    return None if ok else f"fd CLI printed {out}"


def _check_sweep_cli(out):
    field = batteries.PrimeField(13)
    want = []
    for ti, theta in enumerate((0.3, 0.6)):
        n_le, n_eq, total, empty = batteries.expected_sweep_row(field, 2, theta, 5, 0, ti)
        want.append({"theta": theta, "p_le": n_le / 5, "p_eq": n_eq / 5,
                     "mean_size": total / 5, "empty": empty})
    return None if out["rows"] == want else f"sweep CLI printed {out['rows']}"


def _check_construct_cli(out):
    ok = out["verified_bound"] == 2 and out["size"] == 20 and \
        batteries.ratios_cover(101, out["weights"])
    return None if ok else f"construct CLI printed {out}"


CLI_CALLS = {
    "exact": (["davenport", "--group", "8", "--weights", "1,7"], _check_davenport_cli),
    "inverse": (["fd", "--group", "7", "--k", "2"], _check_fd_cli),
    "sweep": (["sweep", "--p", "13", "--k", "2", "--theta", "0.3:0.6:2", "--trials", "5"],
              _check_sweep_cli),
    "certify": (["construct", "interval", "--p", "101"], _check_construct_cli),
}


class Run:
    """One benchmark run: child processes, their checks, and the tallies."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        # threads=1 is passed wherever davlab takes it; this pins the calls
        # that read DAVLAB_THREADS internally (sweep trials, constructions).
        self.env["DAVLAB_THREADS"] = "1"
        # CLI timings assume compiled bytecode, as an installed package has it
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.questions = {q["id"]: q for q in batteries.build(workload, seed)}
        self.checker = batteries.Checker()
        self.attempted = 0
        self.failures: list[str] = []  # one per failed answer or CLI call
        self.problems: list[str] = []  # determinism: repetitions or runs that disagree
        self.results_digest: str | None = None

    def _spawn(self, argv: list[str]) -> tuple[float, float, str]:
        """(start, end, stdout) of one child; start and end are perf_counter times."""
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable] + argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        t1 = time.perf_counter()
        if proc.returncode != 0:
            raise ChildFailed(f"{' '.join(argv[:3])} exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}")
        return t0, t1, proc.stdout

    def cli_call(self) -> tuple[float, float]:
        """Checks one cold CLI call; returns its start and end."""
        args, check = CLI_CALLS[self.workload]
        t0, t1, stdout = self._spawn(["-m", "davlab"] + args)
        self.attempted += 1
        try:
            reason = check(json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"CLI output not understood: {exc!r}"
        if reason:
            self.failures.append(reason)
        return t0, t1

    def python_c(self, code: str) -> tuple[float, str]:
        t0, t1, stdout = self._spawn(["-c", code])
        return t1 - t0, stdout

    def battery(self, spans_path: Path | None = None) -> dict:
        argv = [str(HERE / "answer.py"), "--workload", self.workload, "--seed", str(self.seed)]
        if spans_path is not None:
            argv += ["--trace", str(spans_path)]
        _, _, stdout = self._spawn(argv)
        rep = json.loads(stdout.splitlines()[-1])
        results = []
        for a in rep["answers"]:
            self.attempted += 1
            reason = a["error"] or self.checker.check(self.questions[a["id"]], a["result"])
            if reason:
                self.failures.append(f"{a['id']}: {reason.strip().splitlines()[-1]}")
            results.append([a["id"], a["result"]])
        if self.workload == "sweep" and self.seed == 0:
            rows = batteries.sweep_digest(dict(results))
            if rows != batteries.SWEEP_SEED0_DIGEST:
                self.problems.append(f"seed-0 sweep rows hash to {rows}, not the recorded "
                                     f"{batteries.SWEEP_SEED0_DIGEST}")
        digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
        if self.results_digest is None:
            self.results_digest = digest
        elif digest != self.results_digest:
            self.problems.append("results (values, witnesses or node counts) differ between "
                                 "repetitions of one seed")
        return rep


class ChildFailed(RuntimeError):
    pass


# --------------------------------------------------------------- measurements


def reference_loop_s() -> float:
    """Median of three long runs of the pace loop: the host's speed right now."""
    return statistics.median(ref_loop(100_000) for _ in range(3))


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def harrell_davis(values: list[float], q: float, steps: int = 4000) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics, the i-th of n weighted by the mass a Beta(q(n+1), (1-q)(n+1))
    distribution puts on [(i-1)/n, i/n].  Unlike one order statistic, it
    moves little when a few values cross a gap in the distribution."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    per = max(1, steps // n)  # midpoint rule, `per` points per order statistic
    total = weight_sum = 0.0
    for i, x in enumerate(ordered):
        w = sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                for t in ((i + (k + 0.5) / per) / n for k in range(per)))
        total += w * x
        weight_sum += w
    return total / weight_sum


def per_answer_seconds(reps: list[dict], key: str) -> dict[str, list[float]]:
    per_answer: dict[str, list[float]] = {}
    for rep in reps:
        for a in rep["answers"]:
            per_answer.setdefault(a["id"], []).append(a[key])
    return per_answer


def measure_end_to_end(run: Run, seconds: float, report: dict) -> dict:
    run.cli_call()  # writes src/davlab/__pycache__
    # the host's pace is sampled in this process while each child runs
    with Pace() as pace:
        calls = [run.cli_call() for _ in range(CLI_REPEATS)]
    setup = [pace.scaled(*call) for call in calls]
    setup_wall = [pace.unscaled(*call) for call in calls]
    reps, rep_s = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps.append(run.battery())
        rep_s.append(time.perf_counter() - t0)
        if len(reps) >= MIN_REPS and \
                time.perf_counter() - start + statistics.median(rep_s) > seconds:
            break
    per_answer = per_answer_seconds(reps, "ref_s")
    medians_ms = [statistics.median(v) * 1000 for v in per_answer.values()]
    n = len(medians_ms)
    report.update(setup_samples_s=setup, setup_wall_samples_s=setup_wall,
                  repetitions=len(reps), wall_samples_s=[r["wall_ref_s"] for r in reps],
                  wall_wall_samples_s=[r["wall_s"] for r in reps], answers=n,
                  answers_beyond_p90=n - math.ceil(0.9 * n),
                  nearest_rank_p50_ms=nearest_rank(medians_ms, 0.5),
                  nearest_rank_p90_ms=nearest_rank(medians_ms, 0.9),
                  answer_s=per_answer, answer_wall_s=per_answer_seconds(reps, "s"))
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall_ref_s"] for r in reps),
        "answer_p50_ms": harrell_davis(medians_ms, 0.5),
        "answer_p90_ms": harrell_davis(medians_ms, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def measure_layers(run: Run, report: dict) -> dict:
    run.python_c("import davlab")  # writes src/davlab/__pycache__
    interp = [run.python_c("pass")[0] for _ in range(CLI_REPEATS)]
    imports = [
        float(run.python_c("import time; t = time.perf_counter(); import davlab; "
                           "print(time.perf_counter() - t)")[1])
        for _ in range(CLI_REPEATS)
    ]
    plain = run.battery()
    spans_path = OUT / f"spans-{run.workload}-seed{run.seed}.json.gz"
    traced = run.battery(spans_path)
    metrics = dict(traced["layers"])
    metrics["cli.interpreter_s"] = statistics.median(interp)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    report.update(untraced_wall_s=plain["wall_s"], traced_wall_s=traced["wall_s"],
                  gate=traced["gate"], splits=traced["splits"], spans=traced["spans"],
                  spans_file=str(spans_path.relative_to(ROOT)))
    return metrics


# ----------------------------------------------------------------- host, gate


def tree_digest(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def host_context() -> dict:
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = None
    try:
        load = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        load = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "sympy": sympy_version,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "src_sha256": tree_digest(ROOT / "src"),
        "bench_sha256": tree_digest(HERE),
        "DAVLAB_THREADS": os.environ.get("DAVLAB_THREADS"),
        "loadavg_start": load,
    }


def determinism_gate(run: Run, context: dict, gate_counts: dict | None) -> list[str]:
    """Compare this run's results digest and gate counts with an earlier clean
    run of the same workload, seed, sources and benchmark in this checkout."""
    path = OUT / "gate.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    key = (f"{run.workload}|seed={run.seed}|src={context['src_sha256']}"
           f"|bench={context['bench_sha256']}")
    entry = known.get(key, {})
    mine = {"results_sha256": run.results_digest}
    if gate_counts is not None:
        mine["counts"] = gate_counts
    problems = [
        f"determinism gate: {field} differs from an earlier run ({entry[field]} != {value})"
        for field, value in mine.items()
        if field in entry and entry[field] != value
    ]
    if not problems and not run.failures and not run.problems:
        known[key] = {**entry, **mine}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(path)
    return problems


# ---------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=batteries.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "davlab" / "__init__.py").is_file():
        print(f"no davlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    context = host_context()
    context["reference_loop_s_start"] = reference_loop_s()
    run = Run(args.workload, args.seed)
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        if args.trace:
            metrics = measure_layers(run, report)
        else:
            metrics = measure_end_to_end(run, args.seconds, report)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3
    run.problems += determinism_gate(run, context, report.get("gate"))
    context["reference_loop_s_end"] = reference_loop_s()
    failed = len(run.failures)
    context["failed_frac"] = failed / run.attempted
    report.update(context=context, metrics=metrics, failures=run.failures[:50],
                  problems=run.problems)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    for reason in run.problems + run.failures[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    units = per_layer_units() if args.trace else END_TO_END
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
