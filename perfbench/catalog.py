"""Every metric the benchmark prints: name, unit, where it comes from and
what it should move.

``END_TO_END`` is printed with ``--trace 0``, ``PER_LAYER`` with
``--trace 1``.  Each per-layer entry names the end-to-end metric and the
workload(s) a change in it is predicted to move, written down before any
optimisation is measured against it.  ``selftest.py`` checks that this
catalogue, ``BENCHMARK.json`` and the printed metrics agree.
"""

from __future__ import annotations

# name -> (unit, definition)
END_TO_END = {
    "docs_per_s": (
        "docs/s",
        "input rows / wall from the read_pages_parquet call until the "
        "lineage Dataset is fully consumed; median over the timed runs",
    ),
    "first_commit_s": (
        "s",
        "same start to the earliest _manifests/part-*.json mtime written "
        "by the timed run; median over the timed runs",
    ),
    "setup_s": (
        "s",
        "engine + ray.data import, ray.init and the untimed warm pilot, up "
        "to when the first timed run may begin; median over sessions",
    ),
    "peak_task_mem_mb": (
        "MB",
        "DatasetStatsSummary.get_max_heap_memory() of the timed run, which "
        "Ray reports in MiB, converted to MB; median over the timed runs",
    ),
    "matched_url_share": (
        "ratio",
        "1 - mismatched_urls / golden urls: committed (url, text_sha256) "
        "pairs equal to the golden; mismatched_urls itself is printed as "
        "gate.mismatched_urls",
    ),
    "ok_run_share": (
        "ratio",
        "1 - failed_run_share: timed runs that finished, in time, and "
        "passed the golden gate / runs attempted",
    ),
}

BOTH = "giant_skew,resume_half"
# A change smaller than the run-to-run spread of docs_per_s (~0.1 of its
# median) cannot be told from noise; "unresolved" marks a prediction whose
# layer takes too small a share of the timed wall for that.
#
# Shares measured on the shipped inputs (seeds 1-3, 4 CPUs; README.md
# "Where the time goes"): the fused extract operator runs on one actor and
# is ~60% of the Ray wall on giant_skew and ~50% on resume_half; the giant
# lane is ~76% of the traced pass on giant_skew, the html lane ~75% on
# resume_half.

# (name, unit, source, moves: "<end-to-end metric> on <workloads>")
PER_LAYER = [
    # pipelines.extract read: ReadParquet operator of the timed run
    ("read.wall_s", "s", "ray", "docs_per_s on resume_half; unresolved: 5-8% of the wall"),
    ("read.cpu_s", "s", "ray", "docs_per_s on resume_half; unresolved: 5-8% of the wall"),
    ("read.bytes", "bytes", "ray", "docs_per_s on resume_half; unresolved: 5-8% of the wall"),
    # pipelines.extract classify: make_classifier + url_part_ids
    ("classify.s", "s", "traced", "unresolved: ~1% of the traced pass on " + BOTH),
    ("classify.rows", "count", "traced", "none: every input row, a count"),
    # stages.html_extract, html lane
    ("extract.html.s", "s", "traced", "docs_per_s,first_commit_s on resume_half (~75% of the traced pass); none on giant_skew (3-4%)"),
    ("extract.html.rows", "count", "traced", "none: a count"),
    ("extract.html.bytes", "bytes", "traced", "none: a count"),
    ("html_extract.decode_s", "s", "traced", "unresolved: ~1% of the traced pass on " + BOTH),
    ("html_extract.parse_s", "s", "traced", "docs_per_s,first_commit_s on " + BOTH + " (parse is ~88% of each lane)"),
    ("html_extract.score_s", "s", "traced", "unresolved: ~1% of the traced pass on " + BOTH),
    # stages.html_extract, giant lane
    ("extract.html_giant.s", "s", "traced", "docs_per_s,first_commit_s,peak_task_mem_mb on giant_skew (~76% of the traced pass); zero on resume_half"),
    ("extract.html_giant.rows", "count", "traced", "none: a count (10% of giant_skew rows)"),
    ("extract.html_giant.bytes", "bytes", "traced", "none: a count (98% of giant_skew html bytes)"),
    # the fused classify -> ExtractActor operator of the timed run
    ("extract.wall_s", "s", "ray", "docs_per_s,first_commit_s on " + BOTH),
    ("extract.cpu_s", "s", "ray", "docs_per_s,first_commit_s on " + BOTH),
    ("extract.wall_share", "ratio", "ray", "docs_per_s on " + BOTH + "; a pool-size change is unresolved while one actor takes all 4 blocks"),
    # stages.pdf_parse: <1% of CPU, only makes a lane regression visible
    ("extract.pdf.s", "s", "traced", "unresolved: <1% of the traced pass (regression visibility only)"),
    ("extract.pdf.rows", "count", "traced", "none: a count"),
    # shuffle: compress_shuffle_payload + groupby("part_id")
    ("shuffle.compress_s", "s", "traced", "docs_per_s,first_commit_s on " + BOTH + "; ~5% of the traced pass, unresolved alone"),
    ("shuffle.raw_bytes", "bytes", "traced", "none: a count"),
    ("shuffle.bytes", "bytes", "ray", "none: a count (compressed exchange bytes)"),
    ("shuffle.map_s", "s", "ray", "unresolved: ~0.02 s per run"),
    ("shuffle.reduce_s", "s", "ray", "unresolved: ~0.02 s per run"),
    ("shuffle.part_rows_max_over_median", "ratio", "lineage", "none: fixed by the url hash and the input"),
    # pipelines.extract finalize: PartitionFinalizer, decompress
    ("finalize.wall_s", "s", "ray", "docs_per_s (not first_commit_s) on " + BOTH + "; 4-8% of the wall, unresolved alone"),
    ("finalize.cpu_s", "s", "ray", "docs_per_s (not first_commit_s) on " + BOTH + "; 4-8% of the wall, unresolved alone"),
    ("finalize.partition_max_s", "s", "traced", "unresolved: ~0.02 s"),
    ("finalize.decompress_s", "s", "traced", "unresolved: ~0.05 s"),
    ("finalize.commit_span_s", "s", "manifests", "docs_per_s (not first_commit_s) on " + BOTH + "; unresolved: 0.1-0.4 s"),
    # state.manifest
    ("manifest.commit_s", "s", "traced", "docs_per_s on " + BOTH + "; ~4% of the traced pass, unresolved alone"),
    ("manifest.commit_bytes", "bytes", "traced", "none: a count"),
    ("manifest.completed_parts_s", "s", "traced", "unresolved: ~0.1 ms on resume_half"),
    ("resume.rows_skipped", "count", "traced", "none: a count (~half the rows on resume_half)"),
    # Ray Data streaming executor
    ("executor.schedule_s", "s", "ray", "docs_per_s on " + BOTH),
    ("executor.spilled_bytes", "bytes", "ray", "none: 0 at these sizes"),
    ("executor.cpu_util", "ratio", "ray", "docs_per_s on " + BOTH + " (0.14-0.20: one busy actor of 4 CPUs)"),
    ("executor.operators_seen", "count", "ray", "none: 5 while the flagship plan keeps its five operators"),
    # lineage counts of the timed run: exact, a change is a behaviour change
    ("lineage.n_urls", "count", "lineage", "none: behaviour change"),
    ("lineage.n_ok", "count", "lineage", "none: behaviour change"),
    ("lineage.n_salvaged", "count", "lineage", "none: behaviour change"),
    ("lineage.n_fallback", "count", "lineage", "none: behaviour change"),
    ("lineage.n_failed", "count", "lineage", "none: behaviour change"),
    ("lineage.n_image_only", "count", "lineage", "none: behaviour change"),
    ("lineage.blocks_kept", "count", "lineage", "none: behaviour change"),
    ("lineage.blocks_dropped", "count", "lineage", "none: behaviour change"),
    ("lineage.bytes_out", "bytes", "lineage", "none: behaviour change"),
    # the golden gate, as raw counts (the end-to-end shares are 1 - these)
    ("gate.mismatched_urls", "count", "gate", "must stay 0"),
    ("gate.failed_run_share", "ratio", "gate", "must stay 0"),
    # the traced pass itself
    ("trace.wall_s", "s", "traced", "tracing overhead reference"),
    ("trace.coverage", "ratio", "traced", "must stay >= 0.9: span self-times / traced wall"),
]

# Not a metric: the N -> 4N scaling efficiency of the ROADMAP is unmeasured
# on a 4-CPU host (4N = 16 exceeds the cores, and at 1 CPU the fixed actor
# pool takes the only CPU), so it is recorded as unmeasured, never as a number.
