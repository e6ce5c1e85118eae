"""Names and units of the per-layer metrics reported by a traced run.

Span metrics are `<module>.<function>.<quantity>`: `calls` (count), `s`
(inclusive seconds), `self_s` (seconds not covered by child spans) and the
counts read from return values.  The rest are probes of single layers
measured apart from the battery, and the tracing overhead itself.
"""

from __future__ import annotations

SPAN_FIELDS = {
    "groups.canonical_roots": ("calls", "s"),
    "engine.dilation_orbit_reps": ("s", "reps"),
    "engine.has_weighted_zero_sum": ("calls", "s"),
    "engine.quotient_set": ("calls", "s"),
    "solver.davenport": ("calls", "s", "self_s", "nodes"),
    "solver.check_dav_at_most": ("calls", "s", "self_s", "nodes", "holds"),
    "solver.certify_dav_value": ("calls", "s"),
    "solver.max_davenport_over_size": ("calls", "s"),
    "fdsolver.fd": ("calls", "s", "self_s", "candidates", "nodes"),
    "fdsolver.fd_fast_k2": ("calls", "s", "self_s", "candidates"),
    "fdsolver.ratio_covers": ("calls", "s"),
    "constructions.interval_weight_set": ("calls", "s", "self_s"),
    "constructions.complement_weight_set": ("calls", "s", "self_s"),
    "constructions.singer_weight_set": ("calls", "s", "self_s"),
    "constructions.quartic_weight_set": ("calls", "s", "self_s"),
    "randomlab.threshold_sweep": ("calls", "s", "self_s"),
    "randomlab.classify_dav": ("calls", "s", "self_s", "lt", "eq", "gt"),
    "randomlab.sample_theta_random": ("s",),
    "verify.known_formulas": ("s",),
    "verify.intervals_suite": ("s",),
    "verify.complement_suite": ("s",),
    "verify.singer_suite": ("s",),
}

PROBES = {
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    **{f"engine.{op}_us.{shape}": "us"
       for op in ("negate", "sumset") for shape in ("cyclic", "rank2", "rank3")},
    "solver.table_build_ms": "ms",
    "solver.nodes_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}

# counts that must repeat exactly between two runs of one commit and seed
GATE_COUNTS = (
    "solver.davenport.nodes", "solver.check_dav_at_most.nodes",
    "fdsolver.fd.candidates", "fdsolver.fd_fast_k2.candidates",
    "engine.dilation_orbit_reps.reps", "randomlab.classify_dav.lt",
    "randomlab.classify_dav.eq", "randomlab.classify_dav.gt",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, fields in SPAN_FIELDS.items():
        for field in fields:
            units[f"{name}.{field}"] = "s" if field in ("s", "self_s") else "count"
    units.update(PROBES)
    return units
