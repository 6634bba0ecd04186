"""What each per-layer metric should move, and the names of the verify checks.

``BENCHMARK.json`` at the repository root lists the metrics themselves.  Here
each per-layer metric is mapped, by name prefix, to the end-to-end metric and
workload it should move, recorded before anything is optimized, so that a
later change can check that its saving lands where it claims.
"""

from __future__ import annotations

VERIFY_CHECKS = (
    "expr_simplify_preserves_eval",
    "expr_differentiate_rules",
    "expr_canonical_idempotent",
    "diffop_chain_rule",
    "diffop_apply_linearity",
    "diffop_wedge_antisymmetry",
    "twist_annihilates_constants",
    "twist_chart_consistency",
    "twist_parameter_linearity",
    "star_unit",
    "commutator_antisymmetry",
    "commutator_leibniz",
    "classical_limits",
    "rindler_canonical_structural",
    "rindler_flat_functoriality",
    "twist_spectrum_integrand_consistency",
    "gamma_modulus_identity",
    "planck_equivalence",
    "quadrature_agreement",
    "correction_integral_agreement",
    "deformed_correction_assembly",
    "quadrature_refinement",
    "deformed_deviation_closed",
    "deformed_deviation_finite_difference",
    "geometry_roundtrip",
    "metric_pullback",
)

# Names `starwedge verify` writes to report.json, in order: the flat-relation
# checks follow classical_limits.
REPORT_CHECKS = (
    VERIFY_CHECKS[: VERIFY_CHECKS.index("classical_limits") + 1]
    + ("flat_relations_canonical", "flat_relations_lie", "flat_relations_quadratic")
    + VERIFY_CHECKS[VERIFY_CHECKS.index("classical_limits") + 1 :]
)


# (metric-name prefixes, what they should move); the first matching entry holds
PREDICTIONS = [
    (
        ("quadrature.",),
        "spectrum wall_norm, pass_share and peak_rss_mb; verify wall_norm; algebra unchanged",
    ),
    (("spectrum.f_quadrature.",), "spectrum wall_norm"),
    (
        ("gammafn.", "spectrum."),
        "closed-form parts take microseconds: predicted no change on any workload",
    ),
    (("expr.simplify.", "expr.differentiate.", "expr.substitute."), "algebra wall_norm"),
    (("expr.eval_numeric.", "expr.equality_probe."), "verify wall_norm"),
    (("diffop.", "twists.", "starprod."), "algebra wall_norm, then verify wall_norm"),
    (("rindler.", "grammar.", "config.", "cli."), "small shares of wall_norm on all three workloads"),
    (("verification.",), "verify wall_norm"),
    (("import.", "run.setup_"), "setup_s on all three workloads (run.setup_* are its raw median and kernel time)"),
    (
        ("run.",),
        "raw median pass and reference kernel times; wall_norm divides each pass by the kernel times around it",
    ),
    (("trace.",), "nothing: traced minus untraced pass wall time of the same run"),
]


def prediction(name: str) -> str | None:
    """What the per-layer metric ``name`` should move, or None if no entry covers it."""
    return next((what for prefixes, what in PREDICTIONS if name.startswith(prefixes)), None)
