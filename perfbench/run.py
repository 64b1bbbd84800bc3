"""Benchmark of the flagship extraction pipeline, ``run_extract_pipeline``.

    python3 perfbench/run.py --workload resume_half --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The input is generated from ``--seed``
(untimed, cached with its eager golden under ``.perfbench_work/``).  Each
session (its own Ray session, 4 CPUs) sets up once and makes four timed
runs, each gated against the golden; sessions repeat until ``--seconds`` of
timed runs are measured (at least two sessions, at most three), and every
reported figure is a median over the runs (``setup_s``: over sessions).
``--trace 1`` adds one in-process traced pass and prints the per-layer
metrics instead of the end-to-end ones.  The last line on stdout is the
JSON result; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import uuid
from pathlib import Path

import catalog
import harness
import rayrun
import tracing

ROOT = Path(__file__).resolve().parent.parent
# Timed walls vary by ~25% from run to run (README.md), so one invocation
# reports the median of 8 timed runs; they share 2 sessions because a
# session's ~7 s of set-up and shutdown would not fit 8 in a minute.
MIN_SESSIONS, MAX_SESSIONS = 2, 3
RUNS_PER_SESSION = 4
# no session starts after this, so an invocation ends well inside 180 s
# even when a session hits its own 60 s deadline
SESSIONS_BUDGET_S = 80
MIB = 1 << 20


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def _import_engine() -> float:
    """Import the engine and Ray Data; returns the seconds it took."""
    if not (ROOT / "docling_graph_ray" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no docling_graph_ray package under {ROOT}")
    sys.path.insert(0, str(ROOT))
    # the same Ray settings whatever the calling environment sets: no usage
    # reports, and no memory monitor killing workers when another job on
    # the host fills its memory
    for var, value in (("RAY_worker_niceness", "0"),
                       ("RAY_DATA_DISABLE_PROGRESS_BARS", "1"),
                       ("RAY_USAGE_STATS_ENABLED", "0"),
                       ("RAY_memory_monitor_refresh_ms", "0")):
        os.environ[var] = value
    t = time.perf_counter()
    import ray.data  # noqa: F401

    import docling_graph_ray.pipelines.extract  # noqa: F401
    return time.perf_counter() - t


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _lineage_metrics(rows: list[dict]) -> dict:
    out = {f"lineage.{k}": sum(r[k] for r in rows)
           for k in ("n_urls", "n_ok", "n_salvaged", "n_fallback", "n_failed",
                     "n_image_only", "blocks_kept", "blocks_dropped", "bytes_out")}
    sizes = [r["n_urls"] for r in rows]
    out["shuffle.part_rows_max_over_median"] = max(sizes) / _median(sizes) if sizes else 0.0
    return out


def run_workload(wl, seed: int, seconds: float, trace: bool, work: Path,
                 import_s: float, max_sessions: int = MAX_SESSIONS) -> dict:
    """Measure one workload; returns the result object that is printed."""
    prep = harness.prepare(work, ROOT, wl.profile, wl.rows, seed)
    pilot = harness.prepare(work, ROOT, wl.profile, harness.PILOT_ROWS, harness.PILOT_SEED)
    n_golden = prep.golden.num_rows  # one row per url

    runs, setups, failed, mismatched = [], [], 0, 0
    measured = 0.0
    attempted = n_sessions = 0
    started = time.monotonic()
    while (n_sessions < max_sessions and time.monotonic() - started < SESSIONS_BUDGET_S
           and (n_sessions < MIN_SESSIONS or measured < seconds)):
        n_sessions += 1
        outs = []
        for _ in range(RUNS_PER_SESSION):
            out = work / "out" / f"{wl.name}-{uuid.uuid4().hex}"
            out.mkdir(parents=True)
            outs.append((out, harness.restore_half(prep, out) if wl.resume else set()))
        attempted += len(outs)
        try:
            sess = rayrun.timed_session(work, prep.pages_dir, pilot.pages_dir,
                                        [out for out, _ in outs], import_s)
        except Exception as e:  # noqa: BLE001 - failed runs are counted, not fatal
            log(f"{wl.name} session {n_sessions}: FAILED {type(e).__name__}: {e}")
            failed += len(outs)
            for out, _ in outs:
                shutil.rmtree(out, ignore_errors=True)
            continue
        setups.append(sess["setup_s"])
        log(f"{wl.name} session {n_sessions}: setup {sess['setup_s']:.2f} s")
        for (out, restored), r in zip(outs, sess["runs"]):
            bad = harness.mismatched_urls(prep, out, r["lineage"], restored)
            commits = harness.manifest_mtimes(out, restored)
            shutil.rmtree(out, ignore_errors=True)
            measured += r["wall_s"]
            if bad or not commits:
                log(f"{wl.name} session {n_sessions}: {bad} mismatched urls vs the golden")
                failed += 1
                mismatched = max(mismatched, bad)
                continue
            r["first_commit_s"] = commits[0] - r["t0_wall"]
            r["commit_span_s"] = commits[-1] - commits[0]
            runs.append(r)
            log(f"{wl.name} session {n_sessions}: wall {r['wall_s']:.2f} s, "
                f"first commit {r['first_commit_s']:.2f} s")

    if trace:
        metrics = _per_layer(wl, prep, runs, work)
        mismatched = max(mismatched, metrics.pop("_traced_mismatches"))
        metrics["gate.mismatched_urls"] = mismatched
        metrics["gate.failed_run_share"] = failed / attempted
    else:
        metrics = {
            "docs_per_s": _median([prep.rows / r["wall_s"] for r in runs]),
            "first_commit_s": _median([r["first_commit_s"] for r in runs]),
            "setup_s": _median(setups),
            "peak_task_mem_mb": _median(  # Ray reports MiB
                [r["stats"].get_max_heap_memory() * MIB / 1e6 for r in runs]),
            "matched_url_share": 1 - mismatched / n_golden,
            "ok_run_share": 1 - failed / attempted,
        }
    return {"correct": not failed and not mismatched, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _per_layer(wl, prep, runs: list[dict], work: Path) -> dict:
    metrics: dict = {}
    ray_runs = [rayrun.ray_layer_metrics(r["stats"], r["wall_s"]) for r in runs]
    for key in ray_runs[0] if ray_runs else ():
        metrics[key] = _median([m[key] for m in ray_runs])
    if runs:
        metrics.update(_lineage_metrics(runs[0]["lineage"]))
        metrics["finalize.commit_span_s"] = _median([r["commit_span_s"] for r in runs])

    out = work / "out" / f"{wl.name}-traced-{uuid.uuid4().hex}"
    out.mkdir(parents=True)
    restored = harness.restore_half(prep, out) if wl.resume else set()
    tracer = tracing.Tracer()
    traced, lineage = tracing.traced_pass(prep.pages_dir, out, tracer)
    tracer.dump(work / "traces" / f"{wl.name}-{tracer.run_id}.jsonl")
    metrics["_traced_mismatches"] = harness.mismatched_urls(prep, out, lineage, restored)
    shutil.rmtree(out, ignore_errors=True)
    metrics.update(traced)
    log(f"{wl.name} traced pass: {traced['trace.wall_s']:.2f} s, "
        f"span coverage {traced['trace.coverage']:.3f}")
    return metrics


def _result_json(result: dict) -> str:
    units = {k: u for k, (u, _) in catalog.END_TO_END.items()}
    units.update({name: unit for name, unit, _, _ in catalog.PER_LAYER})
    metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(result["metrics"].items())}
    return json.dumps({**result, "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_s = _import_engine()
    work = ROOT / ".perfbench_work"
    result = run_workload(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), work, import_s)
    print(_result_json(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
