"""Workloads, their inputs and goldens, and the correctness gate.

Everything here is harness work: it runs untimed, in the benchmark
process, on one thread, with no Ray.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import uuid
from dataclasses import dataclass
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# bench.py's rule max(32, 4 * cpus) at the 4 CPUs of the measuring host
NUM_PARTITIONS = 32
PILOT_ROWS = 48
PILOT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str  # fixtures.pages profile
    rows: int
    resume: bool  # every other partition is committed before the timed run
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "giant_skew", "bench", 200, False,
            "200 bench rows, 10% of them with 98% of html bytes: giant lane "
            "~76% of the traced pass; the extract operator, on one actor, ~60% "
            "of the Ray wall",
        ),
        Workload(
            "resume_half", "t2", 1000, True,
            "1000 t2 rows, even partitions committed: resume path skips "
            "~half; html lane ~75% of the traced pass; extract operator ~50% "
            "of the Ray wall, read ~6%",
        ),
    )
}


@dataclass
class Prepared:
    """One workload's generated input and its eager golden."""

    pages_dir: Path
    rows: int
    golden: pa.Table  # deduped extracted rows, as pipelines.golden returns them
    lineage: dict  # part_id -> golden lineage record

    def golden_shas(self) -> dict:
        return dict(zip(self.golden.column("url").to_pylist(),
                        self.golden.column("text_sha256").to_pylist()))


def source_key(root: Path) -> str:
    """Hash of the engine's sources: a cached input or golden is reused
    only by the code that made it."""
    h = hashlib.blake2b(digest_size=6)
    for p in sorted((root / "docling_graph_ray").rglob("*.py")):
        h.update(p.relative_to(root).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _write_pages(table: pa.Table, dest: Path) -> None:
    """pages_parquet_dir's layout: <=512 rows per file, 128-row groups."""
    n = table.num_rows
    per_file = max(250, min(512, n // 64))
    dest.mkdir(parents=True)
    for k, start in enumerate(range(0, n, per_file)):
        pq.write_table(table.slice(start, per_file),
                       dest / f"part-{k:05d}.parquet", row_group_size=128)


def prepare(work: Path, root: Path, profile: str, rows: int, seed: int) -> Prepared:
    """Generate (or reuse) the input Parquet and its golden.

    Built in a unique temporary directory under ``work`` and renamed into
    place, so a half-written cache entry is never seen."""
    from docling_graph_ray.fixtures.pages import make_pages_table
    from docling_graph_ray.pipelines.golden import golden_extract

    dest = work / "inputs" / f"{profile}-n{rows}-s{seed}-{source_key(root)}"
    if not (dest / "golden_lineage.json").exists():
        tmp = work / "inputs" / f".tmp-{uuid.uuid4().hex}"
        table = make_pages_table(list(range(rows)), seed, profile)
        _write_pages(table, tmp / "pages")
        golden, lineage = golden_extract(rows, seed, profile, NUM_PARTITIONS)
        pq.write_table(golden, tmp / "golden.parquet")
        (tmp / "golden_lineage.json").write_text(
            json.dumps(lineage.to_pylist(), sort_keys=True))
        try:
            os.replace(tmp, dest)
        except OSError:  # another process built it first
            shutil.rmtree(tmp, ignore_errors=True)
    recs = json.loads((dest / "golden_lineage.json").read_text())
    return Prepared(dest / "pages", rows, pq.read_table(dest / "golden.parquet"),
                    {r["part_id"]: r for r in recs})


def restore_half(prep: Prepared, out_dir: Path) -> set[int]:
    """Commit every other (even) partition from the golden, the state a
    crash halfway through an earlier run leaves; returns those part ids."""
    from docling_graph_ray.state.manifest import write_partition_atomic

    done = {p for p in prep.lineage if p % 2 == 0}
    pid = prep.golden.column("part_id")
    for p in sorted(done):
        part = prep.golden.filter(pc.equal(pid, p)).drop_columns(["part_id"])
        write_partition_atomic(str(out_dir), p, part, prep.lineage[p])
    return done


def manifest_mtimes(out_dir: Path, skip: set[int] = frozenset()) -> list[float]:
    """mtimes of the manifests committed by a run (``skip``: restored ones)."""
    mdir = out_dir / "_manifests"
    if not mdir.is_dir():
        return []
    return sorted(
        e.stat().st_mtime for e in os.scandir(mdir)
        if e.name.startswith("part-") and e.name.endswith(".json")
        and int(e.name[5:-5]) not in skip
    )


def mismatched_urls(prep: Prepared, out_dir: Path, lineage_rows: list[dict],
                    restored: set[int] = frozenset()) -> int:
    """Committed (url, text_sha256) pairs that differ from the golden, plus
    missing urls, extra urls and unequal lineage records.

    The text's sha256 is recomputed from the committed bytes, so a changed
    text with an unchanged digest column still counts.  Lineage is checked
    twice: the committed manifests and the rows the lineage Dataset
    returned, which must cover exactly the partitions this run committed."""
    golden = prep.golden_shas()
    seen: set[str] = set()
    bad = 0
    for part in sorted(out_dir.glob("part_id=*/data.parquet")):
        t = pq.read_table(part, columns=["url", "extracted_text", "text_sha256"])
        texts = t.column("extracted_text").cast(pa.large_binary())
        for url, raw, stored in zip(t.column("url").to_pylist(), texts,
                                    t.column("text_sha256").to_pylist()):
            sha = hashlib.sha256(raw.as_buffer()).hexdigest()
            if url in seen or url not in golden:
                bad += 1  # extra or duplicated url
            elif not golden[url] == stored == sha:
                bad += 1
            seen.add(url)
    bad += len(golden.keys() - seen)  # missing urls

    manifests = {}
    mdir = out_dir / "_manifests"
    for m in mdir.glob("part-*.json") if mdir.is_dir() else ():
        rec = json.loads(m.read_text())
        manifests[rec["part_id"]] = rec
    for p in prep.lineage.keys() | manifests.keys():
        bad += manifests.get(p) != prep.lineage.get(p)
    returned = {}
    for rec in lineage_rows:
        bad += rec["part_id"] in returned  # one lineage row per partition
        returned[rec["part_id"]] = rec
    expected = prep.lineage.keys() - restored
    for p in expected | returned.keys():
        bad += p not in expected or returned.get(p) != prep.lineage[p]
    return bad
