"""Names and units of the benchmark's metrics (BENCHMARK.json lists the
same names; a test keeps the two in step).

End-to-end metrics come from untraced passes.  Per-layer metrics come from
the traced passes of a ``--trace 1`` run and are per pass: totals over the
traced passes divided by their number (``max_bits`` is a maximum).  Names
are ``<module>.<function>.<field>`` for the wrapped sphlie functions; see
README.md for which end-to-end metric each should move, on which workload.
"""

# Gated.  ``*_ref`` times are in reference slices (hostref.py): host
# speed drift cancels out of them, so they are steady enough to bound.
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "slowest_item_ref": "ref",
    "peak_rss_mb": "MB",
}

# Printed and recorded next to the gated metrics, not bounded: the raw
# seconds move with the host's speed, the slice time shows that speed, and
# fail_ratio is 0 on a correct run (failures already make it incorrect).
PRINTED = {
    "wall_s": "s",
    "slowest_item_s": "s",
    "ref_slice_s": "s",
    "fail_ratio": "ratio",
}

_SPAN_FIELDS = {"calls": "count", "incl_s": "s", "self_s": "s"}

# (function, fields taken from its spans)
_SPANS = (
    ("orbits.exp_ad_apply", ("calls", "self_s")),
    ("orbits.orbit_identity_check", ("incl_s",)),
    ("orbits.derivation_pair", ("incl_s",)),
    ("liealg.LieAlgebra.build", ("self_s",)),
    ("liealg.cartan_data", ("incl_s",)),
    ("liealg.cartan_decompose", ("calls", "self_s")),
    ("liealg.LieAlgebra.bracket", ("calls", "self_s")),
    ("liealg.LieAlgebra.ad", ("calls", "self_s")),
    ("liealg.simple_ideal_split", ("calls", "incl_s")),
    ("problem.positivity_from_hint", ("incl_s",)),
    ("spherical.candidate_subsets", ("calls", "incl_s")),
    ("parabolic.standard_parabolic", ("calls",)),
    ("spherical.structure_report", ("self_s",)),
    ("normalizer.normalizer_in", ("calls", "incl_s")),
    ("normalizer.normalizer_report", ("self_s",)),
    ("liealg.LieAlgebra.invariant_form", ("calls",)),
    ("spectral.eigen_split", ("calls", "self_s")),
    ("linalg.rref", ("calls", "self_s")),
    ("linalg.subspace_sum", ("calls",)),
    ("linalg.subspace_intersect", ("calls",)),
    ("linalg.mat_mul", ("calls", "self_s")),
    ("linalg.mat_apply", ("calls", "self_s")),
    ("linalg.exp_nilpotent_matrix", ("calls", "self_s")),
    ("linalg.mat_invert", ("calls",)),
    ("spherical.apply_ad", ("calls", "self_s")),
    ("spherical.conjugate_search", ("incl_s",)),
    ("spherical.compact_transitivity_check", ("incl_s",)),
    ("orbits.solve_conjugator", ("calls", "incl_s")),
    ("cli.main", ("self_s",)),
    ("problem.parse_problem", ("incl_s",)),
    ("problem.build_pair", ("incl_s",)),
)

# Counters fed by spantrace.COUNTER_HOOKS: name -> (unit, summed per pass or
# the maximum seen).
COUNTERS = {
    "orbits.orbit_identity_check.samples": ("count", "sum"),
    "spherical.candidate_subsets.passing": ("count", "sum"),
    "linalg.rref.rows_in": ("count", "sum"),
    "linalg.rref.max_bits": ("bits", "max"),
    "spherical.conjugate_search.attempts": ("count", "sum"),
    "spherical.compact_transitivity_check.samples": ("count", "sum"),
}

OVERHEAD_RATIO = "trace.overhead_ratio"

PER_LAYER = {
    **{f"{fn}.{field}": _SPAN_FIELDS[field]
       for fn, fields in _SPANS for field in fields},
    **{name: unit for name, (unit, _) in COUNTERS.items()},
    OVERHEAD_RATIO: "ratio",
}


def per_layer_values(summary: dict, counters: dict, passes: int,
                     overhead_ratio: float) -> dict:
    """Per-pass value of every per-layer metric from a tracer's span
    summary and counters; functions never called report 0."""
    out = {}
    for fn, fields in _SPANS:
        row = summary.get(fn, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for field in fields:
            out[f"{fn}.{field}"] = row[field] / passes
    for name, (_, how) in COUNTERS.items():
        value = counters.get(name, 0)
        out[name] = value if how == "max" else value / passes
    out[OVERHEAD_RATIO] = overhead_ratio
    return out
