"""Command-line surface.

Each subcommand computes and returns its command name, normalized input,
result, human table and exit code. main alone times that call, ends the
result with elapsed_ms, appends the self-contained JSON-lines record of
--log, and prints the result as JSON on stdout, or the table with --pretty.
Exit codes: 0 success, 1 violated claim, 2 budget exhaustion (including an
exceeded davenport --cap), 64 usage (including a flag the subcommand does
not read and an unwritable --log or --out file, refused before computing).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
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


def _write(flag: str, path: str, mode: str, text: str) -> None:
    """Write to a file the user named; a path that cannot be written is a usage error."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _check_writable(flag: str, path: str) -> None:
    """Refuse a file the user named that cannot be written, before anything is
    computed for it; creates nothing, so a run refused later leaves no file."""
    if os.path.exists(path):
        ok = not os.path.isdir(path) and os.access(path, os.W_OK)
    else:
        parent = os.path.dirname(path) or "."
        ok = os.path.isdir(parent) and os.access(parent, os.W_OK)
    if not ok:
        raise ValueError(f"{flag}: cannot write {path!r}")


def _log_record(args, command: str, normalized: dict, result: dict, elapsed_ms: float) -> None:
    record = {
        "command": command,
        "normalized_input": normalized,
        "result": result,
        "provenance": {
            "seed": normalized.get("seed"),
            "threads": getattr(args, "threads", 1),
            "version": __version__,
        },
        "elapsed_ms": round(elapsed_ms, 3),
    }
    _write("--log", args.log, "a", json.dumps(record) + "\n")


# what each _cmd_* hands to main: command name, normalized input, result,
# human table and exit code
_Outcome = tuple[str, dict, dict, list[str], int]


def _budget(args) -> Budget:
    """The Budget of --max-nodes (fd only) and --max-seconds; unset limits are None."""
    return Budget(max_nodes=getattr(args, "max_nodes", None), max_seconds=args.max_seconds)


def _cmd_davenport(args) -> _Outcome:
    group = parse_group(args.group)
    weights = parse_weights(args.weights, group.exponent)
    normalized = {"group": str(group), "weights": list(weights.residues), "cap": args.cap}
    try:
        res = davenport(group, weights, cap=args.cap)
    except CapExceededError as exc:
        result = {"status": "CAP_EXCEEDED", "cap": exc.cap, "nodes": exc.nodes}
        lines = [f"D_A({group}) > {exc.cap} (cap exceeded)", f"nodes explored: {exc.nodes}"]
        return "davenport", normalized, result, lines, EXIT_BUDGET
    result = {
        "value": res.value,
        "witness": [_flatten(e) for e in res.witness.entries],
        "nodes": res.nodes_explored,
    }
    lines = [
        f"D_A({group}) = {res.value}",
        "witness: " + " ".join(str(_flatten(e)) for e in res.witness.entries),
        f"nodes explored: {res.nodes_explored}",
    ]
    return "davenport", normalized, result, lines, EXIT_OK


def _cmd_davenport_max(args) -> _Outcome:
    res = max_davenport_over_size(args.p, args.k, threads=args.threads)
    result = {
        "value": res.value,
        "argmax": list(res.argmax.residues),
        "candidates": res.candidates,
    }
    lines = [
        f"max D_A(Z_{args.p}) over |A| = {args.k}: {res.value}",
        f"attained by A = {set(res.argmax.residues)}",
        f"orbit representatives tried: {res.candidates}",
    ]
    return "davenport-max", {"p": args.p, "k": args.k}, result, lines, EXIT_OK


def _cmd_fd(args) -> _Outcome:
    group = parse_group(args.group)
    res = fd(group, args.k, budget=_budget(args))
    result = {
        "status": res.status.value,
        "value": res.value,
        "witness": list(res.witness_set.residues) if res.witness_set else None,
        "sizes_excluded": res.sizes_excluded,
        "nodes": res.search_stats.nodes,
        "candidates": res.search_stats.candidates,
        "checks": res.search_stats.checks,
    }
    label = {
        FdStatus.FINITE: f"fd({group}, {args.k}) = {res.value}",
        FdStatus.INFINITE: f"fd({group}, {args.k}) = INFINITE",
        FdStatus.UNKNOWN: f"fd({group}, {args.k}) UNKNOWN (budget), sizes <= {res.sizes_excluded} excluded",
    }[res.status]
    lines = [label]
    if res.witness_set:
        lines.append(f"witness A = {set(res.witness_set.residues)}")
    code = EXIT_BUDGET if res.status is FdStatus.UNKNOWN else EXIT_OK
    return "fd", {"group": str(group), "k": args.k}, result, lines, code


def _flags(names) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in names)


def _flag_values(args, command: str, flags, needs, optional, bare: bool = False) -> dict:
    """The values of the flags a command reads, given or defaulted, None left out.

    A given flag the command does not read is refused, and so is a needed one
    that is missing, unless no flag is given and the command runs bare (its
    default battery)."""
    given = [name for name in flags if getattr(args, name) is not None]
    stray = [name for name in given if name not in needs and name not in optional]
    if stray:
        raise ValueError(f"{command} does not read {_flags(stray)}")
    missing = [name for name in needs if name not in given]
    if missing and (given or not bare):
        with_given = f" with {_flags(given)}" if given else ""
        raise ValueError(f"{command}{with_given} needs {_flags(missing)}")
    values = {}
    for name in needs + tuple(optional):
        value = getattr(args, name)
        value = optional.get(name) if value is None else value
        if value is not None:
            values[name] = value
    return values


# each construction's flags (the ones it needs, then the optional ones with
# their defaults, None for none) and the call they make; other flags are
# refused, and --auto picks a quartic row of its own
_CONSTRUCT_FLAGS = ("q", "p", "n", "r", "c0", "s_num", "s_den", "seed", "n_dilates", "auto")
_QUARTIC_OPTIONAL = {"c0": 1.5, "s_num": 1, "s_den": 10, "seed": 0, "n_dilates": None}
_CONSTRUCT_ARGS = {
    "singer": (("q",), {}, singer_difference_set),
    "singer-weights": (("p",), {}, singer_weight_set),
    "interval": (("p",), {}, interval_weight_set),
    "symmetric": (("n", "r"), {}, symmetric_range_weight_set),
    "complement": (("p", "r"), {}, complement_weight_set),
    "quartic": (("p",), _QUARTIC_OPTIONAL, quartic_weight_set),
    "quartic --auto": (("p", "auto"), {}, lambda p, auto: quartic_weight_set_auto(p)),
}


def _cmd_construct(args) -> _Outcome:
    kind = f"{args.kind} --auto" if args.kind == "quartic" and args.auto else args.kind
    needs, optional, build = _CONSTRUCT_ARGS[kind]
    values = _flag_values(args, f"construct {kind}", _CONSTRUCT_FLAGS, needs, optional)
    command = f"construct-{args.kind}"
    normalized = {"kind": args.kind, **values}
    try:
        built = build(**values)
    except ConstructionError as exc:
        result = {"error": str(exc), "info": {k: str(v) for k, v in exc.info.items()}}
        return command, normalized, result, [f"construction failed: {exc}"], EXIT_VIOLATION
    if args.kind == "singer":
        result = {"v": built.v, "elements": list(built.elements)}
        lines = [f"perfect difference set in Z_{built.v}: {result['elements']}"]
    else:
        result = built.as_dict()
        lines = [f"{k}: {v}" for k, v in result.items()]
    return command, normalized, result, lines, EXIT_OK


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


def _cmd_sweep(args) -> _Outcome:
    grid = _parse_theta_grid(args.theta)
    config = SweepConfig(
        p=args.p, k=args.k, theta_grid=grid, trials=args.trials, seed=args.seed, omega=args.omega
    )
    res = threshold_sweep(config, threads=args.threads, budget=_budget(args))
    if args.out:
        _write("--out", args.out, "w", res.to_csv())
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
    }
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
    code = EXIT_BUDGET if res.partial else EXIT_OK
    return "sweep", dataclasses.asdict(config), result, lines, code


# verify: each suite's flags (the ones it needs once any is given, then the
# optional ones with their defaults) and the keyword arguments they become;
# other flags are refused
_VERIFY_FLAGS = ("max_n", "limit", "q", "p", "m", "k")
_VERIFY_ARGS = {
    "known-formulas": (("max_n",), {}, lambda v: v),
    "singer": (("q",), {}, lambda v: {"qs": (v["q"],)}),
    "intervals": (("limit",), {}, lambda v: v),
    "relations": (("p",), {"m": None, "k": None}, lambda v: v),
    "dual-max": (("p", "k"), {}, lambda v: {"pairs": ((v["p"], v["k"]),)}),
    "pair-lemma": (("max_n",), {}, lambda v: {"n_max": v["max_n"]}),
    "complement": (("p",), {}, lambda v: {"ps": (v["p"],)}),
}


def _cmd_verify(args) -> _Outcome:
    needs, optional, to_kwargs = _VERIFY_ARGS[args.suite]
    values = _flag_values(args, f"verify {args.suite}", _VERIFY_FLAGS, needs, optional, bare=True)
    kwargs = to_kwargs(values) if values else {}
    report = SUITES[args.suite](**kwargs)
    lines = []
    for c in report.checks:
        mark = "ok  " if c.ok else "FAIL"
        lines.append(f"[{mark}] {c.name}: computed={c.computed} expected={c.expected}")
    lines.append(f"suite {report.suite}: {'all checks passed' if report.ok else 'VIOLATIONS FOUND'}")
    for c in report.failures():
        print(
            f"violated: {c.name}: computed={c.computed} expected={c.expected}",
            file=sys.stderr,
        )
    code = EXIT_OK if report.ok else EXIT_VIOLATION
    return f"verify-{args.suite}", {"suite": args.suite, **kwargs}, report.as_dict(), lines, code


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
    p_con.add_argument("--c0", type=float, help="quartic interval constant (default 1.5)")
    p_con.add_argument("--s-num", type=int, help="quartic slope numerator (default 1)")
    p_con.add_argument("--s-den", type=int, help="quartic slope denominator (default 10)")
    p_con.add_argument("--seed", type=int, help="quartic dilate seed (default 0)")
    p_con.add_argument("--n-dilates", type=int, help="quartic dilate cap")
    p_con.add_argument(
        "--auto", action="store_true", default=None, help="quartic: try the (c0, seed) schedule"
    )
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
    for name in _VERIFY_FLAGS:
        p_ver.add_argument(_flags([name]), type=int, default=None)
    common(p_ver)
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("log", "out"):
            path = getattr(args, flag, None)
            if path:
                _check_writable("--" + flag, path)
        t0 = time.perf_counter()
        command, normalized, result, lines, code = args.func(args)
        elapsed_ms = (time.perf_counter() - t0) * 1000
        result["elapsed_ms"] = round(elapsed_ms, 3)
        if args.log:
            _log_record(args, command, normalized, result, elapsed_ms)
    except (ValueError, KeyError) as exc:
        parser.exit(EXIT_USAGE, f"davlab: error: {exc}\n")
    print("\n".join(lines) if args.pretty else json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
