"""Timed flagship runs in a Ray session the benchmark owns.

A session is: ``ray.init`` → the untimed warm pilot → for each timed run,
drop every Dataset reference and wait until all CPUs are free again, then
run → ``ray.shutdown`` → wait for every process the session started.  An
actor left from an earlier execution keeps a CPU until the calling
process's Dataset is collected, and a run measured next to it is ~3x
slower, so no timed run starts before every CPU is free.
"""

from __future__ import annotations

import gc
import os
import shutil
import signal
import tempfile
import time
import uuid
from contextlib import contextmanager, suppress
from pathlib import Path

from harness import NUM_PARTITIONS

CPUS = 4  # the CPU affinity set of the measuring host
# a run keeps well under 100 MB in the object store; a small store keeps a
# session's footprint small on a host whose memory other jobs share
OBJECT_STORE_BYTES = 512 << 20
CPU_WAIT_S = 30.0
SESSION_TIMEOUT_S = 60
# Ray's unix sockets sit up to 71 characters below <this dir>/<pid>, and a
# socket path may not exceed 107 characters
_MAX_TEMP_DIR_CHARS = 35


class RunFailed(Exception):
    """A timed run that raised, timed out or did not get its CPUs back."""


@contextmanager
def deadline(seconds: int):
    def expire(signum, frame):
        raise RunFailed(f"session exceeded {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@contextmanager
def ray_session(work: Path):
    """``ray.init`` with Ray's files under ``work`` (or, when that path is
    too long for Ray's unix sockets, under a short temporary directory),
    and on exit, also when ``ray.init`` failed, ``ray.shutdown`` plus a
    wait for every process it started.

    The object store's memory is mapped from a file under ``work``, not
    from ``/dev/shm``: Ray's store thread has been seen to hang at start
    while mapping its ``/dev/shm`` file, and the session then never starts."""
    import ray
    import psutil  # shipped with Ray: importable once ray is imported

    base = (work / "ray").resolve()
    if len(str(base)) > _MAX_TEMP_DIR_CHARS:
        base = Path(tempfile.gettempdir()) / "perfbench-ray"
    # one directory per process: another benchmark process may share ``work``
    temp = base / str(os.getpid())
    plasma = (work / "plasma" / str(os.getpid())).resolve()
    for d in (temp, plasma):
        d.mkdir(parents=True, exist_ok=True)
    try:
        ray.init(address="local", num_cpus=CPUS, object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, log_to_driver=False,
                 logging_level="ERROR", _temp_dir=str(temp),
                 _plasma_directory=str(plasma))
        yield
    finally:
        procs = psutil.Process().children(recursive=True)
        ray.shutdown()
        _, alive = psutil.wait_procs(procs, timeout=10)
        for p in alive:
            p.kill()
        psutil.wait_procs(alive, timeout=5)
        for d in (temp, plasma):
            shutil.rmtree(d, ignore_errors=True)
        with suppress(OSError):  # left in place while another process uses it
            base.rmdir()


def _consume(ds) -> list[dict]:
    rows = []
    for batch in ds.iter_batches(batch_format="pyarrow"):
        rows.extend(batch.to_pylist())
    return rows


def _wait_for_cpus() -> None:
    import ray

    gc.collect()
    end = time.monotonic() + CPU_WAIT_S
    while ray.available_resources().get("CPU", 0) < CPUS:
        if time.monotonic() > end:
            raise RunFailed(f"CPUs not free {CPU_WAIT_S:.0f} s after the pilot")
        time.sleep(0.02)


def timed_session(work: Path, pages_dir: Path, pilot_dir: Path, out_dirs: list[Path],
                  import_s: float) -> dict:
    """Set up a session, then run the flagship over ``pages_dir`` once into
    each of ``out_dirs`` (which may already hold restored partitions),
    waiting before every run until all CPUs are free.  Returns the set-up
    time and the raw measurements of each run.  Raises RunFailed or
    whatever the engine raised."""
    import ray.data

    from docling_graph_ray.pipelines.extract import (
        read_pages_parquet,
        run_extract_pipeline,
    )

    t_setup = time.perf_counter()
    setup_s, runs = None, []
    # the deadline ends before ray_session's exit, so shutdown always runs whole
    with ray_session(work), deadline(SESSION_TIMEOUT_S):
        ray.data.DataContext.get_current().enable_progress_bars = False
        pilot_out = work / "out" / f"pilot-{uuid.uuid4().hex}"
        _consume(run_extract_pipeline(read_pages_parquet(str(pilot_dir)),
                                      out_dir=str(pilot_out),
                                      num_partitions=NUM_PARTITIONS))
        shutil.rmtree(pilot_out, ignore_errors=True)
        for out_dir in out_dirs:
            _wait_for_cpus()
            if setup_s is None:
                setup_s = import_s + time.perf_counter() - t_setup

            t0_wall = time.time()
            t0 = time.perf_counter()
            ds = run_extract_pipeline(read_pages_parquet(str(pages_dir)),
                                      out_dir=str(out_dir),
                                      num_partitions=NUM_PARTITIONS)
            lineage = _consume(ds)
            wall_s = time.perf_counter() - t0
            runs.append({"wall_s": wall_s, "t0_wall": t0_wall, "lineage": lineage,
                         "stats": ds._get_stats_summary()})
            del ds
    return {"setup_s": setup_s, "runs": runs}


# ---------------------------------------------------------------------------
# per-layer numbers from Ray's DatasetStatsSummary of the timed run


def _levels(summary) -> list:
    """The summary and, recursively, the summaries of its parents."""
    out = [summary]
    for parent in summary.parents:
        out.extend(_levels(parent))
    return out


def _role(name: str) -> str | None:
    if "ExtractActor" in name:
        return "extract"
    if "finalize_partition" in name:
        return "finalize"
    if name.startswith("Read"):
        return "read"
    if not name.startswith("MapBatches"):  # the exchange between the two
        return "shuffle_reduce" if "Reduce" in name else "shuffle_map"
    return None


def ray_layer_metrics(summary, wall_s: float) -> dict:
    """Busy seconds (sum over tasks), CPU seconds and output bytes of the
    five flagship operators, plus the executor's own numbers."""
    acc: dict = {}
    cpu_total = 0.0
    levels = _levels(summary)
    for op in (op for level in levels for op in level.operators_stats):
        cpu = op.cpu_time.get("sum", 0.0) if op.cpu_time else 0.0
        cpu_total += cpu
        role = _role(op.operator_name)
        if role is None:
            continue
        a = acc.setdefault(role, {"wall": 0.0, "cpu": 0.0, "bytes": 0})
        a["wall"] += op.wall_time.get("sum", 0.0) if op.wall_time else 0.0
        a["cpu"] += cpu
        a["bytes"] += op.output_size_bytes.get("sum", 0) if op.output_size_bytes else 0

    def get(role, key):
        return acc.get(role, {}).get(key, 0)

    return {
        "read.wall_s": get("read", "wall"),
        "read.cpu_s": get("read", "cpu"),
        "read.bytes": get("read", "bytes"),
        "extract.wall_s": get("extract", "wall"),
        "extract.cpu_s": get("extract", "cpu"),
        "extract.wall_share": get("extract", "wall") / wall_s,
        "shuffle.bytes": get("shuffle_map", "bytes"),
        "shuffle.map_s": get("shuffle_map", "wall"),
        "shuffle.reduce_s": get("shuffle_reduce", "wall"),
        "finalize.wall_s": get("finalize", "wall"),
        "finalize.cpu_s": get("finalize", "cpu"),
        "executor.schedule_s": max(s.streaming_exec_schedule_s or 0.0 for s in levels),
        "executor.spilled_bytes": max(s.global_bytes_spilled or 0 for s in levels),
        "executor.cpu_util": cpu_total / (wall_s * CPUS),
        "executor.operators_seen": len(acc),
    }
