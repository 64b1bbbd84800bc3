"""The flagship over 16 read blocks under a 512 MiB object store.

ROADMAP direction 1's cliff: ``giant_skew``'s input (200 ``bench`` rows,
20 of them carrying ~98% of the html bytes) read as 16 blocks under a
512 MiB file-backed store once stalled Ray 2.49's streaming executor for
about 44 s, twice ~20 s of waiting around less than 1 s of work; a healthy
run takes a few seconds.  This test builds the same shape in a separate
local Ray session and bounds the run at 20 s, far from both figures.

The session runs in a subprocess so that its object-store size and
plasma directory are its own, and so that its shutdown can be checked:
every process the session started must be gone once the driver exits.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pyarrow.parquet as pq

from docling_graph_ray.fixtures.pages import make_pages_table
from docling_graph_ray.pipelines.golden import golden_extract

_REPO = Path(__file__).resolve().parent.parent
ROWS, SEED, PROFILE = 200, 3, "bench"
BLOCKS, PARTITIONS = 16, 32
STORE_BYTES = 512 << 20
BOUND_S = 20.0

_DRIVER = """
import json, sys, time
import ray
import psutil  # shipped with Ray: importable once ray is imported

path, out_dir, plasma = sys.argv[1:4]
ray.init(address="local", num_cpus=4, object_store_memory={store},
         include_dashboard=False, log_to_driver=False, logging_level="ERROR",
         _plasma_directory=plasma)
import ray.data
from docling_graph_ray.pipelines.extract import run_extract_pipeline

t0 = time.perf_counter()
lineage = run_extract_pipeline(
    ray.data.read_parquet(path, override_num_blocks={blocks}),
    num_partitions={parts}, out_dir=out_dir).take_all()
wall = time.perf_counter() - t0
procs = []
for p in psutil.Process().children(recursive=True):
    try:
        procs.append((p.pid, p.create_time(), " ".join(p.cmdline())[:200]))
    except psutil.Error:  # exited between the listing and the read
        pass
ray.shutdown()
print("RESULT " + json.dumps({{"wall_s": wall, "n_parts": len(lineage),
                              "n_failed": sum(r["n_failed"] for r in lineage),
                              "procs": procs}}), flush=True)
"""


def _alive(procs, psutil) -> list[tuple[int, str]]:
    """The recorded processes still running.  A zombie has exited; only
    its parent's (or, once orphaned, init's) reaping is outstanding."""
    out = []
    for pid, created, cmd in procs:
        try:
            p = psutil.Process(pid)
            if (p.create_time() == created
                    and p.status() != psutil.STATUS_ZOMBIE):
                out.append((pid, cmd))
        except psutil.NoSuchProcess:
            pass
    return out


def test_sixteen_blocks_under_a_512_mib_store_run_golden_and_fast(
        ray_session, tmp_path):
    import psutil  # shipped with Ray; the ray_session fixture imported it

    path = tmp_path / "pages.parquet"
    pq.write_table(make_pages_table(list(range(ROWS)), SEED, PROFILE), path,
                   row_group_size=128)
    golden, _ = golden_extract(ROWS, SEED, PROFILE, PARTITIONS)
    plasma = tmp_path / "plasma"
    plasma.mkdir()
    out_dir = tmp_path / "out"

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(_REPO), os.environ.get("PYTHONPATH", "")]))
    driver = _DRIVER.format(store=STORE_BYTES, blocks=BLOCKS,
                            parts=PARTITIONS)
    proc = subprocess.Popen(
        [sys.executable, "-c", driver, str(path), str(out_dir), str(plasma)],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        kids = psutil.Process(proc.pid).children(recursive=True)
        for p in [psutil.Process(proc.pid), *kids]:
            p.kill()
        psutil.wait_procs(kids, timeout=10)
        proc.communicate()
        raise AssertionError("the run did not finish within 240 s")
    assert proc.returncode == 0, stderr[-3000:]
    result = json.loads(next(
        ln for ln in stdout.splitlines() if ln.startswith("RESULT "))[7:])

    # every process of the session exits after ray.shutdown (1.5-2 s on
    # an idle 1-CPU host; 30 s of grace for a loaded one); leftovers are
    # killed so later tests do not inherit them
    left = _alive(result["procs"], psutil)
    end = time.monotonic() + 30
    while left and time.monotonic() < end:
        time.sleep(0.2)
        left = _alive(result["procs"], psutil)
    for pid, _ in left:
        with contextlib.suppress(psutil.NoSuchProcess):
            psutil.Process(pid).kill()
    assert not left, f"Ray processes left behind: {left}"

    assert result["n_failed"] == 0
    assert result["wall_s"] < BOUND_S, result["wall_s"]
    committed = pq.read_table(out_dir, columns=["url", "text_sha256"])
    assert result["n_parts"] == len(set(
        pq.read_table(out_dir, columns=["part_id"]).column(
            "part_id").to_pylist()))
    assert sorted(zip(committed.column("url").to_pylist(),
                      committed.column("text_sha256").to_pylist())) == \
        sorted(zip(golden.column("url").to_pylist(),
                   golden.column("text_sha256").to_pylist()))
