"""Self-test of the benchmark on a small input.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json, the metric catalogue and the workloads agree;
that one session on a 40-row resume input prints every end-to-end metric
and, traced, every per-layer metric, each with its unit; and that the
golden gate passes a real committed output and fails a corrupted copy of
it.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import sys

import pyarrow as pa
import pyarrow.parquet as pq

import catalog
import harness
import run
import tracing


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({w["name"]: w["why"] for w in spec["workloads"]}
          == {w.name: w.why for w in harness.WORKLOADS.values()},
          "BENCHMARK.json workloads match harness.WORKLOADS")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]}
          == {k: u for k, (u, _) in catalog.END_TO_END.items()},
          "BENCHMARK.json end_to_end matches catalog.END_TO_END")
    check({m["name"]: m["unit"] for m in spec["per_layer"]}
          == {n: u for n, u, _, _ in catalog.PER_LAYER},
          "BENCHMARK.json per_layer matches catalog.PER_LAYER")


def check_printed(result: dict, expected: dict, what: str) -> None:
    printed = json.loads(run._result_json(result))
    check(printed["correct"] and printed["failed"] == 0, f"{what}: correct, none failed")
    got = {k: m["unit"] for k, m in printed["metrics"].items()}
    check(got == expected, f"{what}: every metric printed once, with its unit")


def corrupt_text(part: str) -> None:
    t = pq.read_table(part)
    texts = t.column("extracted_text").to_pylist()
    texts[0] = texts[0] + " "
    i = t.schema.get_field_index("extracted_text")
    pq.write_table(t.set_column(i, "extracted_text", pa.array(texts, pa.large_string())),
                   part)


def check_gate(prep, work) -> None:
    out = work / "gate-good"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    _, lineage = tracing.traced_pass(prep.pages_dir, out, tracing.Tracer())
    check(harness.mismatched_urls(prep, out, lineage) == 0,
          "gate passes a committed output of the engine")

    bad = work / "gate-bad"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(out, bad)
    corrupt_text(str(sorted(bad.glob("part_id=*/data.parquet"))[0]))
    check(harness.mismatched_urls(prep, bad, lineage) > 0,
          "gate fails a copy with one text changed")
    shutil.rmtree(bad)
    shutil.copytree(out, bad)
    sorted((bad / "_manifests").glob("part-*.json"))[0].unlink()
    check(harness.mismatched_urls(prep, bad, lineage) > 0,
          "gate fails a copy with one manifest missing")
    check(harness.mismatched_urls(prep, out, lineage[1:]) > 0,
          "gate fails a lineage result with one partition missing")
    shutil.rmtree(bad)
    shutil.rmtree(out)


def main() -> int:
    check_benchmark_json()
    import_s = run._import_engine()
    work = run.ROOT / ".perfbench_work" / "self"
    wl = harness.Workload("selftest", "t2", 40, True, "small resume input")

    result = run.run_workload(wl, 3, 0, False, work, import_s, max_sessions=1)
    check_printed(result, {k: u for k, (u, _) in catalog.END_TO_END.items()},
                  "--trace 0")
    result = run.run_workload(wl, 3, 0, True, work, import_s, max_sessions=1)
    check_printed(result, {n: u for n, u, _, _ in catalog.PER_LAYER}, "--trace 1")
    m = result["metrics"]
    check(m["executor.operators_seen"] == 5, "all five flagship operators in the Ray stats")
    check(m["trace.coverage"] >= 0.9, f"span self-times cover {m['trace.coverage']:.3f} "
          "of the traced wall (>= 0.9)")
    check(m["resume.rows_skipped"] > 0, "the resume skip filter dropped restored rows")

    check_gate(harness.prepare(work, run.ROOT, "t2", 40, 3), work)
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
