"""The traced pass: the flagship's layers called in-process, without Ray.

Spans are recorded from outside the engine: around the benchmark's own
calls, and around the engine's public functions by swapping the module
attribute each caller looks up for a timing wrapper for the length of the
pass.  Spans live in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import time
import uuid
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from harness import NUM_PARTITIONS

BATCH_ROWS = 32  # ExtractActor's batch_size in the flagship
LANES = ("html", "html_giant", "pdf")


class Tracer:
    """Spans ``[name, start, end, parent index]`` of one run id."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_total(self) -> float:
        """Sum of span self times: each span's duration minus its children's."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return sum(own)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "run_id": self.run_id}) + "\n")


@contextmanager
def _patched(tracer: Tracer, targets):
    """Swap ``module.attr`` for a traced wrapper; restore on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, name in targets:
            setattr(mod, attr, tracer.wrap(getattr(mod, attr), name))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def traced_pass(pages_dir: Path, out_dir: Path, tracer: Tracer) -> tuple[dict, list]:
    """Run the flagship's layers over ``pages_dir`` per 32-row batch and per
    lane, then shuffle, finalize and commit into ``out_dir`` (which may
    hold restored partitions).  Returns (per-layer metrics, lineage rows)."""
    from docling_graph_ray.pipelines import extract as ex
    from docling_graph_ray.stages import html_extract
    from docling_graph_ray.state.manifest import completed_parts

    counts = Counter()
    targets = [
        (html_extract, "decode_html", "html_extract.decode"),
        (html_extract, "parse_blocks", "html_extract.parse"),
        (html_extract, "classify_blocks", "html_extract.score"),
        (ex, "decompress_shuffle_payload", "finalize.decompress"),
        (ex, "write_partition_atomic", "manifest.commit"),
    ]
    lineage: list[dict] = []
    t0 = time.perf_counter()
    with _patched(tracer, targets):
        with tracer.span("manifest.completed_parts"):
            done = pa.array(sorted(completed_parts(str(out_dir))), pa.int32())
        with tracer.span("read"):
            pages = pq.read_table(sorted(pages_dir.glob("*.parquet")))
        with tracer.span("extract.init"):
            actor = ex.ExtractActor(shuffle_codec=None)
            classify = ex.make_classifier(NUM_PARTITIONS)
        shuffled = []
        for start in range(0, pages.num_rows, BATCH_ROWS):
            with tracer.span("classify"):
                batch = classify(pages.slice(start, BATCH_ROWS))
            counts["classify.rows"] += batch.num_rows
            if len(done):
                with tracer.span("resume.skip"):
                    keep = pc.invert(pc.is_in(batch.column("part_id"), value_set=done))
                    n_in = batch.num_rows
                    batch = batch.filter(keep)
                counts["resume.rows_skipped"] += n_in - batch.num_rows
            for lane in LANES:
                with tracer.span("lane.split"):
                    rows = batch.filter(pc.equal(batch.column("lane"), lane))
                if not rows.num_rows:
                    continue
                with tracer.span(f"extract.{lane}"):
                    outs = list(actor(rows))
                counts[f"extract.{lane}.rows"] += rows.num_rows
                counts[f"extract.{lane}.bytes"] += pc.sum(
                    pc.binary_length(rows.column("html"))).as_py()
                for out in outs:
                    counts["shuffle.raw_bytes"] += pc.sum(
                        pc.binary_length(out.column("extracted_text"))).as_py() or 0
                    with tracer.span("shuffle.compress"):
                        shuffled.append(ex.compress_shuffle_payload(out))
        with tracer.span("shuffle.group"):
            table = pa.concat_tables(shuffled)
            table = table.take(pc.sort_indices(table.column("part_id")))
            pids = table.column("part_id").to_numpy()
            cuts = [0] + [i for i in range(1, len(pids)) if pids[i] != pids[i - 1]]
            groups = [table.slice(a, b - a) for a, b in zip(cuts, cuts[1:] + [len(pids)])]
        finalizer = ex.PartitionFinalizer(str(out_dir))
        for group in groups:
            with tracer.span("finalize.partition"):
                lineage.extend(finalizer(group).to_pylist())
    wall_s = time.perf_counter() - t0

    restored = set(done.to_pylist())
    commit_bytes = sum(
        (out_dir / f"part_id={r['part_id']}" / "data.parquet").stat().st_size
        + (out_dir / "_manifests" / f"part-{r['part_id']:05d}.json").stat().st_size
        for r in lineage if r["part_id"] not in restored)

    def total(name):
        return sum(tracer.durations(name))

    metrics = {
        "classify.s": total("classify"),
        "html_extract.decode_s": total("html_extract.decode"),
        "html_extract.parse_s": total("html_extract.parse"),
        "html_extract.score_s": total("html_extract.score"),
        "shuffle.compress_s": total("shuffle.compress"),
        "finalize.partition_max_s": max(tracer.durations("finalize.partition"), default=0.0),
        "finalize.decompress_s": total("finalize.decompress"),
        "manifest.commit_s": total("manifest.commit"),
        "manifest.commit_bytes": commit_bytes,
        "manifest.completed_parts_s": total("manifest.completed_parts"),
        "trace.wall_s": wall_s,
        "trace.coverage": tracer.self_total() / wall_s,
    }
    for lane in LANES:
        metrics[f"extract.{lane}.s"] = total(f"extract.{lane}")
    for key in ("classify.rows", "resume.rows_skipped", "shuffle.raw_bytes",
                "extract.html.rows", "extract.html.bytes", "extract.html_giant.rows",
                "extract.html_giant.bytes", "extract.pdf.rows"):
        metrics[key] = counts[key]
    return metrics, lineage
