"""Names, units and intended effects of every metric the benchmark prints.

``BENCHMARK.json`` at the repository root lists the same names and units;
``test_smoke.py`` keeps the two in agreement.  ``MOVES`` records, before any
measurement, which end-to-end metric a change in each layer metric should
move and on which workload, and where the prediction is no change.
"""

DEFAULT_SEED = 20081227

WORKLOADS = ("norm-large", "cli")

# accepted cli input that fails today: maximal_member(S_3, start >= 3)
# raises Unbounded, so `audit l3 --level 3` exits 1 without writing --json
KNOWN_FAILING_CLI = "audit-l3-level3"

# rounds replayed by a traced run (and by its untraced twin), so that its
# work counts repeat exactly for a given seed
TRACE_ROUNDS = {"norm-large": 2, "cli": 1}

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


_NORM_LARGE = "ops_per_s and op_p50_ms on norm-large; no change on cli"
_REUSE = "ops_per_s on cli through audit tav, audit kriv and audit domination"
_AVERAGES = "ops_per_s on cli through avg build/check, scc and audit tav"
_FAMILIES = (
    "op_p50_ms on norm-large through its inner_ak space; "
    "op_tail_ms on cli through audit sch1"
)
_FUNCTIONALS = "ops_per_s on cli through split and comparable; no change on norm-large"
_AUDIT = "op_tail_ms and ops_per_s on cli through the audit commands"
_CLI = "op_p50_ms on cli; setup_s on every workload"

# (name, unit, better, moves)
PER_LAYER = (
    ("norm.norm.calls", "count", "lower", _NORM_LARGE),
    ("norm.norm.busy_s", "s", "lower", _NORM_LARGE),
    ("norm.norm.self_s", "s", "lower", _NORM_LARGE),
    ("norm.fill.calls", "count", "lower", _NORM_LARGE),
    ("norm.fill.exact_s", "s", "lower", _NORM_LARGE),
    ("norm.fill.float_s", "s", "lower", _NORM_LARGE),
    ("norm.witness.busy_s", "s", "lower", _NORM_LARGE),
    ("norm.intervals", "count", "lower", _NORM_LARGE),
    ("norm.intervals_per_s.exact", "1/s", "higher", _NORM_LARGE),
    ("norm.intervals_per_s.float", "1/s", "higher", _NORM_LARGE),
    ("norm.admissible_sum.calls", "count", "lower", _REUSE),
    ("norm.admissible_sum.busy_s", "s", "lower", _REUSE),
    ("norm.flat_norm_table.busy_s", "s", "lower", _REUSE),
    ("norm.distinct_input_ratio", "ratio", "higher", _REUSE),
    ("averages.estimate_equiv_const.busy_s", "s", "lower", _AVERAGES),
    ("averages.check_lr_average_bounds.busy_s", "s", "lower", _AVERAGES),
    ("averages.build_averaging_tree.busy_s", "s", "lower", _AVERAGES),
    ("averages.check_averaging_tree.busy_s", "s", "lower", _AVERAGES),
    ("averages.audit_tav.busy_s", "s", "lower", _AVERAGES),
    ("averages.equal_norm_partition.busy_s", "s", "lower", _AVERAGES),
    ("averages.interval_norm_table.busy_s", "s", "lower", _AVERAGES),
    ("averages.fills_per_op", "fills/op", "lower", _AVERAGES),
    ("families.is_member.calls", "count", "lower", _FAMILIES),
    ("families.is_member.busy_s", "s", "lower", _FAMILIES),
    ("families.family_members.sets", "count", "lower", _FAMILIES),
    ("families.family_members.busy_s", "s", "lower", _FAMILIES),
    ("families.memo_entries", "count", "lower", _FAMILIES),
    ("families.max_weight_subset.busy_s", "s", "lower", _FAMILIES),
    ("families.decompose.busy_s", "s", "lower", _FAMILIES),
    ("spaces.theta.calls", "count", "lower", "ops_per_s on norm-large through its float presets"),
    ("spaces.theta.busy_s", "s", "lower", "ops_per_s on norm-large through its float presets"),
    ("functionals.eval_functional.calls", "count", "lower", _FUNCTIONALS),
    ("functionals.eval_functional.busy_s", "s", "lower", _FUNCTIONALS),
    ("functionals.validate.calls", "count", "lower", _FUNCTIONALS),
    ("functionals.validate.busy_s", "s", "lower", _FUNCTIONALS),
    ("functionals.split_xk.calls", "count", "lower", _FUNCTIONALS),
    ("functionals.split_xk.busy_s", "s", "lower", _FUNCTIONALS),
    ("functionals.make_comparable.calls", "count", "lower", _FUNCTIONALS),
    ("functionals.make_comparable.busy_s", "s", "lower", _FUNCTIONALS),
    ("functionals.is_comparable.calls", "count", "lower", _FUNCTIONALS),
    ("functionals.is_comparable.busy_s", "s", "lower", _FUNCTIONALS),
    ("functionals.parse_functional.calls", "count", "lower", _FUNCTIONALS),
    ("functionals.parse_functional.busy_s", "s", "lower", _FUNCTIONALS),
    ("audit.sch1.busy_s", "s", "lower", _AUDIT),
    ("audit.inclusion.busy_s", "s", "lower", _AUDIT),
    ("audit.l3.busy_s", "s", "lower", _AUDIT),
    ("audit.pest.busy_s", "s", "lower", _AUDIT),
    ("audit.kriv.busy_s", "s", "lower", _AUDIT),
    ("audit.domination.busy_s", "s", "lower", _AUDIT),
    ("audit.rows_checked", "count", "higher", _AUDIT),
    ("audit.rows_failed", "count", "lower", _AUDIT),
    ("cli.process_ms", "ms", "lower", _CLI),
    ("cli.run_ms", "ms", "lower", _CLI),
    ("cli.startup_ms", "ms", "lower", _CLI),
    ("tracing.overhead_frac", "fraction", "lower", "none: the cost of tracing itself, traced vs untraced ops_per_s"),
)

# fail_rate is printed with the end-to-end metrics but is not in
# BENCHMARK.json: it is 0 on three workloads, and a bound relative to 0 is empty
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
UNITS["fail_rate"] = "fraction"
MOVES = {name: moves for name, _, _, moves in PER_LAYER}
