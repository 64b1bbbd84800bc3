"""The flagship's extract stage runs as a task fused into the Parquet read,
and the parser classes it is handed are built only inside the workers."""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

from docling_graph_ray.fixtures.pages import make_pages_table
from docling_graph_ray.pipelines.extract import (
    ExtractActor,
    extract_pages_dataset,
    read_pages_parquet,
    run_extract_pipeline,
)

FUSED = "ReadParquet->MapBatches(classify)->MapBatches(ExtractActor)"
P = 4


def _pages_dir(root, n_files=3, rows_per_file=40) -> str:
    """A pages Parquet directory of ``n_files`` files; fewer files than
    the session's CPUs, the shape a CPU-floored read would split."""
    d = root / "pages"
    d.mkdir()
    for k in range(n_files):
        idx = range(k * rows_per_file, (k + 1) * rows_per_file)
        pq.write_table(make_pages_table(list(idx), profile="t1"),
                       d / f"part-{k:05d}.parquet")
    return str(d)


def _operator_names(ds) -> list[str]:
    def levels(summary):
        out = [summary]
        for parent in summary.parents:
            out.extend(levels(parent))
        return out

    return [op.operator_name for level in levels(ds._get_stats_summary())
            for op in level.operators_stats]


def test_read_classify_extract_fuse_into_one_task(ray_session, tmp_path):
    """Fresh and resumed runs plan read → classify → extract as ONE task
    operator that never splits the read's blocks: raw html stays inside
    the task that read it."""
    src = _pages_dir(tmp_path)
    out = str(tmp_path / "out")
    for resumed in (False, True):
        ds = run_extract_pipeline(read_pages_parquet(src), out_dir=out,
                                  num_partitions=P)
        lineage = ds.take_all()
        names = _operator_names(ds)
        assert FUSED in names, names
        assert not any("SplitBlocks" in n for n in names), names
        if resumed:
            assert sorted(r["part_id"] for r in lineage) == list(range(0, P, 2))
        else:
            assert len(lineage) == P
            for pid in range(0, P, 2):  # uncommit half the partitions
                os.remove(os.path.join(out, "_manifests", f"part-{pid:05d}.json"))
                shutil.rmtree(os.path.join(out, f"part_id={pid}"))


def test_injected_backends_are_built_in_workers(ray_session, tmp_path):
    """``parser_cls`` and ``ocr_backend`` are constructed in the workers,
    never on the driver, and an injected subclass that changes nothing
    extracts exactly what the default parser does."""
    pid_dir = str(tmp_path)

    def record(name):
        with open(os.path.join(pid_dir, name), "a") as f:
            f.write(f"{os.getpid()}\n")

    class RecordingOcr:
        def __init__(self):
            record("ocr.pids")

        def recognize(self, raw: bytes) -> str:
            return ""  # recovers nothing: image_only rows stay image_only

    class RecordingParser(ExtractActor):
        def __init__(self, shuffle_codec=None, ocr_backend=None):
            record("parser.pids")
            super().__init__(shuffle_codec=shuffle_codec,
                             ocr_backend=ocr_backend)

    src = _pages_dir(tmp_path)

    def extracted(**kw):
        ds = extract_pages_dataset(read_pages_parquet(src), num_partitions=P,
                                   **kw)
        return pa.concat_tables(ds.iter_batches(batch_format="pyarrow")
                                ).sort_by("url").to_pylist()

    injected = extracted(parser_cls=RecordingParser, ocr_backend=RecordingOcr)
    for name in ("parser.pids", "ocr.pids"):
        with open(os.path.join(pid_dir, name)) as f:
            pids = {int(line) for line in f}
        assert pids, name
        assert os.getpid() not in pids, name
    assert injected == extracted()
