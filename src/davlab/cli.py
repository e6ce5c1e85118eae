"""Command-line surface.

Machine-readable JSON on stdout, a human table with --pretty, and an
append-only JSON-lines log of self-contained result records with --log.
Exit codes: 0 success, 1 violated claim, 2 budget exhaustion (including an
exceeded davenport --cap), 64 usage.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from typing import Optional

from . import __version__
from .constructions import (
    ConstructionError,
    complement_weight_set,
    interval_weight_set,
    quartic_weight_set,
    quartic_weight_set_auto,
    singer_difference_set,
    singer_weight_set,
    symmetric_range_weight_set,
)
from .engine import WeightSet
from .fdsolver import FdStatus, fd
from .groups import parse_group
from .randomlab import SweepConfig, threshold_sweep
from .solver import Budget, CapExceededError, davenport, max_davenport_over_size
from .verify import SUITES

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64

_RANGE = re.compile(r"^(-?\d+)-(-?\d+)$")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def parse_weights(text: str, exponent: int) -> WeightSet:
    """Comma-separated residues and ranges; negatives count down from the
    exponent; zero (after reduction) is rejected."""
    values: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty weight token")
        m = _RANGE.match(token)
        if m and not (token.startswith("-") and token.count("-") == 1):
            lo, hi = int(m.group(1)), int(m.group(2))
            if lo > hi:
                raise ValueError(f"range {token!r} is decreasing")
            values.extend(range(lo, hi + 1))
        else:
            values.append(int(token))
    for v in values:
        if v % exponent == 0:
            raise ValueError(f"weight {v} is 0 mod {exponent}")
    return WeightSet.of(exponent, values)


def _flatten(element: tuple[int, ...]):
    return element[0] if len(element) == 1 else list(element)


def _emit(payload: dict, pretty_lines: Optional[list[str]], args) -> None:
    if getattr(args, "pretty", False) and pretty_lines is not None:
        print("\n".join(pretty_lines))
    else:
        print(json.dumps(payload))


def _log_record(args, command: str, normalized: dict, result: dict, elapsed_ms: float) -> None:
    path = getattr(args, "log", None)
    if not path:
        return
    record = {
        "command": command,
        "normalized_input": normalized,
        "result": result,
        "provenance": {
            "seed": getattr(args, "seed", None),
            "threads": getattr(args, "threads", 1),
            "version": __version__,
        },
        "elapsed_ms": round(elapsed_ms, 3),
    }
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def _budget(args) -> Budget:
    """The Budget of --max-nodes (fd only) and --max-seconds; unset limits are None."""
    return Budget(max_nodes=getattr(args, "max_nodes", None), max_seconds=args.max_seconds)


def _cmd_davenport(args) -> int:
    group = parse_group(args.group)
    weights = parse_weights(args.weights, group.exponent)
    normalized = {"group": str(group), "weights": list(weights.residues), "cap": args.cap}
    t0 = time.perf_counter()
    try:
        res = davenport(group, weights, cap=args.cap)
    except CapExceededError as exc:
        ms = (time.perf_counter() - t0) * 1000
        result = {
            "status": "CAP_EXCEEDED",
            "cap": exc.cap,
            "nodes": exc.nodes,
            "elapsed_ms": round(ms, 3),
        }
        _log_record(args, "davenport", normalized, result, ms)
        lines = [f"D_A({group}) > {exc.cap} (cap exceeded)", f"nodes explored: {exc.nodes}"]
        _emit(result, lines, args)
        return EXIT_BUDGET
    ms = (time.perf_counter() - t0) * 1000
    result = {
        "value": res.value,
        "witness": [_flatten(e) for e in res.witness.entries] if res.witness else [],
        "nodes": res.nodes_explored,
        "elapsed_ms": round(ms, 3),
    }
    _log_record(args, "davenport", normalized, result, ms)
    _emit(
        result,
        [
            f"D_A({group}) = {res.value}",
            "witness: " + " ".join(str(_flatten(e)) for e in res.witness.entries)
            if res.witness
            else "witness: (empty)",
            f"nodes explored: {res.nodes_explored}",
        ],
        args,
    )
    return EXIT_OK


def _cmd_davenport_max(args) -> int:
    t0 = time.perf_counter()
    res = max_davenport_over_size(args.p, args.k, threads=args.threads)
    ms = (time.perf_counter() - t0) * 1000
    result = {
        "value": res.value,
        "argmax": list(res.argmax.residues),
        "candidates": res.candidates,
        "elapsed_ms": round(ms, 3),
    }
    normalized = {"p": args.p, "k": args.k}
    _log_record(args, "davenport-max", normalized, result, ms)
    _emit(
        result,
        [
            f"max D_A(Z_{args.p}) over |A| = {args.k}: {res.value}",
            f"attained by A = {set(res.argmax.residues)}",
            f"orbit representatives tried: {res.candidates}",
        ],
        args,
    )
    return EXIT_OK


def _cmd_fd(args) -> int:
    group = parse_group(args.group)
    t0 = time.perf_counter()
    res = fd(group, args.k, budget=_budget(args))
    ms = (time.perf_counter() - t0) * 1000
    result = {
        "status": res.status.value,
        "value": res.value,
        "witness": list(res.witness_set.residues) if res.witness_set else None,
        "sizes_excluded": res.sizes_excluded,
        "nodes": res.search_stats.nodes,
        "candidates": res.search_stats.candidates,
        "checks": res.search_stats.checks,
        "elapsed_ms": round(ms, 3),
    }
    normalized = {"group": str(group), "k": args.k}
    _log_record(args, "fd", normalized, result, ms)
    label = {
        FdStatus.FINITE: f"fd({group}, {args.k}) = {res.value}",
        FdStatus.INFINITE: f"fd({group}, {args.k}) = INFINITE",
        FdStatus.UNKNOWN: f"fd({group}, {args.k}) UNKNOWN (budget), sizes <= {res.sizes_excluded} excluded",
    }[res.status]
    lines = [label]
    if res.witness_set:
        lines.append(f"witness A = {set(res.witness_set.residues)}")
    _emit(result, lines, args)
    return EXIT_BUDGET if res.status is FdStatus.UNKNOWN else EXIT_OK


# the options each construction cannot do without
_CONSTRUCT_NEEDS = {
    "singer": ("q",),
    "singer-weights": ("p",),
    "interval": ("p",),
    "symmetric": ("n", "r"),
    "complement": ("p", "r"),
    "quartic": ("p",),
}


def _cmd_construct(args) -> int:
    missing = [f"--{name}" for name in _CONSTRUCT_NEEDS[args.kind] if getattr(args, name) is None]
    if missing:
        raise ValueError(f"construct {args.kind} needs {', '.join(missing)}")
    t0 = time.perf_counter()
    try:
        if args.kind == "singer":
            pds = singer_difference_set(args.q)
            result = {"v": pds.v, "elements": list(pds.elements)}
            lines = [f"perfect difference set in Z_{pds.v}: {list(pds.elements)}"]
        else:
            if args.kind == "singer-weights":
                rep = singer_weight_set(args.p)
            elif args.kind == "interval":
                rep = interval_weight_set(args.p)
            elif args.kind == "symmetric":
                rep = symmetric_range_weight_set(args.n, args.r)
            elif args.kind == "complement":
                rep = complement_weight_set(args.p, args.r)
            else:  # quartic
                if args.auto:
                    rep = quartic_weight_set_auto(args.p)
                else:
                    rep = quartic_weight_set(
                        args.p,
                        c0=args.c0,
                        s_num=args.s_num,
                        s_den=args.s_den,
                        seed=args.seed,
                        n_dilates=args.n_dilates,
                    )
            result = rep.as_dict()
            lines = [f"{k}: {v}" for k, v in result.items()]
    except ConstructionError as exc:
        ms = (time.perf_counter() - t0) * 1000
        result = {"error": str(exc), "info": {k: str(v) for k, v in exc.info.items()}}
        _log_record(args, f"construct-{args.kind}", vars_of(args), result, ms)
        _emit(result, [f"construction failed: {exc}"], args)
        return EXIT_VIOLATION
    ms = (time.perf_counter() - t0) * 1000
    _log_record(args, f"construct-{args.kind}", vars_of(args), result, ms)
    _emit(result, lines, args)
    return EXIT_OK


def vars_of(args) -> dict:
    skip = {"func", "pretty", "log", "threads"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _parse_theta_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("theta grid must be A:B:STEPS")
    a, b, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 1:
        raise ValueError("STEPS must be >= 1")
    if steps == 1:
        return (a,)
    return tuple(a + i * (b - a) / (steps - 1) for i in range(steps))


def _cmd_sweep(args) -> int:
    grid = _parse_theta_grid(args.theta)
    config = SweepConfig(
        p=args.p, k=args.k, theta_grid=grid, trials=args.trials, seed=args.seed, omega=args.omega
    )
    t0 = time.perf_counter()
    res = threshold_sweep(config, threads=args.threads, budget=_budget(args))
    ms = (time.perf_counter() - t0) * 1000
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(res.to_csv())
    result = {
        "rows": [
            {
                "theta": r.theta,
                "p_le": r.empirical_p_le,
                "p_eq": r.empirical_p_eq,
                "mean_size": r.mean_size,
                "empty": r.trials_empty,
            }
            for r in res.rows
        ],
        "partial": res.partial,
        "window": list(res.window),
        "window_empty": res.window_empty,
        "log_base": "e",
        "elapsed_ms": round(ms, 3),
    }
    normalized = {
        "p": args.p,
        "k": args.k,
        "theta_grid": list(grid),
        "trials": args.trials,
        "seed": args.seed,
        "omega": args.omega,
    }
    _log_record(args, "sweep", normalized, result, ms)
    if res.window_empty:
        print(
            f"note: theoretical window empty at p={args.p}, k={args.k}, omega={args.omega}",
            file=sys.stderr,
        )
    lines = ["theta     p_le    p_eq    mean|A|  empty"]
    for r in res.rows:
        lines.append(
            f"{r.theta:<9.5f} {r.empirical_p_le:<7.3f} {r.empirical_p_eq:<7.3f} "
            f"{r.mean_size:<8.2f} {r.trials_empty}"
        )
    _emit(result, lines, args)
    return EXIT_BUDGET if res.partial else EXIT_OK


def _cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    kwargs = {}
    if args.suite == "known-formulas" and args.max_n is not None:
        kwargs["max_n"] = args.max_n
    if args.suite == "singer" and args.q is not None:
        kwargs["qs"] = (args.q,)
    if args.suite == "intervals" and args.limit is not None:
        kwargs["limit"] = args.limit
    if args.suite == "relations" and args.p is not None:
        kwargs = {"p": args.p, "m": args.m, "k": args.k}
    if args.suite == "dual-max" and args.p is not None and args.k is not None:
        kwargs["pairs"] = ((args.p, args.k),)
    if args.suite == "pair-lemma" and args.max_n is not None:
        kwargs["n_max"] = args.max_n
    if args.suite == "complement" and args.p is not None:
        kwargs["ps"] = (args.p,)
    t0 = time.perf_counter()
    report = suite(**kwargs)
    ms = (time.perf_counter() - t0) * 1000
    result = report.as_dict()
    _log_record(args, f"verify-{args.suite}", {"suite": args.suite, **kwargs}, result, ms)
    lines = []
    for c in report.checks:
        mark = "ok  " if c.ok else "FAIL"
        lines.append(f"[{mark}] {c.name}: computed={c.computed} expected={c.expected}")
    lines.append(f"suite {report.suite}: {'all checks passed' if report.ok else 'VIOLATIONS FOUND'}")
    _emit(result, lines, args)
    if not report.ok:
        for c in report.failures():
            print(
                f"violated: {c.name}: computed={c.computed} expected={c.expected}",
                file=sys.stderr,
            )
        return EXIT_VIOLATION
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="davlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"davlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, threads=False):
        if threads:
            p.add_argument(
                "--threads", type=_positive_int, default=1, help="worker processes (default 1)"
            )
        p.add_argument("--pretty", action="store_true", help="human table instead of JSON")
        p.add_argument("--log", help="append a JSON-lines result record to this file")

    p_dav = sub.add_parser("davenport", help="exact weighted Davenport constant")
    p_dav.add_argument("--group", required=True, help="invariant factors, e.g. 8 or 2x4")
    p_dav.add_argument("--weights", required=True, help="residues/ranges, e.g. 1,5-7; negatives wrap")
    p_dav.add_argument(
        "--cap", type=int, default=None, help="stop (exit 2) once the value is shown to exceed this cap"
    )
    common(p_dav)
    p_dav.set_defaults(func=_cmd_davenport)

    p_max = sub.add_parser("davenport-max", help="max D_A over weight sets of one size")
    p_max.add_argument("--p", type=int, required=True)
    p_max.add_argument("--k", type=int, required=True, help="weight set size")
    common(p_max, threads=True)
    p_max.set_defaults(func=_cmd_davenport_max)

    p_fd = sub.add_parser("fd", help="minimum weight-set size achieving D_A <= k")
    p_fd.add_argument("--group", required=True)
    p_fd.add_argument("--k", type=int, required=True)
    p_fd.add_argument("--max-nodes", type=int, default=None)
    p_fd.add_argument("--max-seconds", type=float, default=None)
    common(p_fd)
    p_fd.set_defaults(func=_cmd_fd)

    p_con = sub.add_parser("construct", help="explicit weight sets with verification")
    p_con.add_argument(
        "kind",
        choices=["singer", "singer-weights", "interval", "symmetric", "complement", "quartic"],
    )
    p_con.add_argument("--q", type=int, help="prime order (singer)")
    p_con.add_argument("--p", type=int, help="prime modulus")
    p_con.add_argument("--n", type=int, help="cyclic modulus (symmetric)")
    p_con.add_argument("--r", type=int, help="radius (symmetric, complement)")
    p_con.add_argument("--c0", type=float, default=1.5, help="quartic interval constant")
    p_con.add_argument("--s-num", type=int, default=1)
    p_con.add_argument("--s-den", type=int, default=10)
    p_con.add_argument("--seed", type=int, default=0)
    p_con.add_argument("--n-dilates", type=int, default=None)
    p_con.add_argument("--auto", action="store_true", help="try the default (c0, seed) schedule")
    common(p_con)
    p_con.set_defaults(func=_cmd_construct)

    p_sw = sub.add_parser("sweep", help="Monte Carlo density sweep")
    p_sw.add_argument("--p", type=int, required=True)
    p_sw.add_argument("--k", type=int, required=True)
    p_sw.add_argument("--theta", required=True, help="grid A:B:STEPS")
    p_sw.add_argument("--trials", type=int, required=True)
    p_sw.add_argument("--seed", type=int, default=0)
    p_sw.add_argument("--omega", type=float, default=10.0)
    p_sw.add_argument("--out", help="write CSV here")
    p_sw.add_argument("--max-seconds", type=float, default=None)
    common(p_sw, threads=True)
    p_sw.set_defaults(func=_cmd_sweep)

    p_ver = sub.add_parser("verify", help="bundled verification suites")
    p_ver.add_argument("suite", choices=sorted(SUITES))
    p_ver.add_argument("--max-n", type=int, default=None)
    p_ver.add_argument("--limit", type=int, default=None)
    p_ver.add_argument("--q", type=int, default=None)
    p_ver.add_argument("--p", type=int, default=None)
    p_ver.add_argument("--m", type=int, default=None)
    p_ver.add_argument("--k", type=int, default=None)
    common(p_ver)
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        parser.exit(EXIT_USAGE, f"davlab: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
