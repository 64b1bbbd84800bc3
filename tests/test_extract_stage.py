"""The flagship's extract stage runs as a task fused into the Parquet read,
one task per file or, with fewer files than CPUs, per bin of row groups;
its tasks run side by side, and the parser classes it is handed are built
only inside the workers."""

import os
import shutil
import time
import uuid

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from docling_graph_ray.fixtures.pages import make_pages_table
from docling_graph_ray.pipelines.extract import (
    ExtractActor,
    _RowGroupBinsDatasource,
    extract_pages_dataset,
    read_pages_parquet,
    run_extract_pipeline,
)

FUSED = "ReadParquet->MapBatches(classify)->MapBatches(ExtractActor)"
P = 4
CPUS = 4  # the ray_session fixture's


def _pages_dir(root, n_files=3, rows_per_file=40) -> str:
    """A pages Parquet directory of ``n_files`` one-row-group files; the
    default, fewer files than the session's CPUs, reads as row-group
    bins."""
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
    operator that never splits the read's blocks, through either read:
    row-group bins for fewer files than CPUs, ``read_parquet`` one task
    per file for as many (large inputs, ``resume_half``).  Raw html stays
    inside the task that read it."""
    for n_files in (3, CPUS):
        root = tmp_path / str(n_files)
        root.mkdir()
        src = _pages_dir(root, n_files=n_files)
        out = str(root / "out")
        for resumed in (False, True):
            pages = read_pages_parquet(src)
            read = pages._logical_plan.dag._datasource_or_legacy_reader
            binned = isinstance(read, _RowGroupBinsDatasource)
            assert binned == (n_files < CPUS)
            ds = run_extract_pipeline(pages, out_dir=out, num_partitions=P)
            lineage = ds.take_all()
            names = _operator_names(ds)
            assert FUSED in names, names
            assert not any("SplitBlocks" in n for n in names), names
            if resumed:
                assert (sorted(r["part_id"] for r in lineage)
                        == list(range(0, P, 2)))
            else:
                assert len(lineage) == P
                for pid in range(0, P, 2):  # uncommit half the partitions
                    os.remove(os.path.join(out, "_manifests",
                                           f"part-{pid:05d}.json"))
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


def _read_tasks(ds):
    """The read tasks the planner will run for a just-read Dataset."""
    read = ds._logical_plan.dag
    return read._datasource_or_legacy_reader.get_read_tasks(read._parallelism)


def _write_file(path, rows, row_group_size):
    """Pages rows ``rows`` in row groups of ``row_group_size``."""
    pq.write_table(make_pages_table(list(rows), profile="t1"), path,
                   row_group_size=row_group_size)


def test_read_plans_one_task_per_file_with_files_ge_cpus(ray_session,
                                                        tmp_path):
    """As many files as CPUs or more: one read task per file, whatever
    their row groups."""
    d = tmp_path / "pages"
    d.mkdir()
    for k in range(CPUS):
        _write_file(d / f"part-{k:05d}.parquet", range(k * 20, k * 20 + 20),
                    row_group_size=5)
    ds = read_pages_parquet(str(d))
    assert ds._logical_plan.dag.name == "ReadParquet"
    tasks = _read_tasks(ds)
    assert len(tasks) == CPUS
    assert sorted(len(t.metadata.input_files) for t in tasks) == [1] * CPUS
    assert ds.count() == CPUS * 20


def test_read_splits_row_groups_into_contiguous_bins(ray_session, tmp_path):
    """Fewer files than CPUs: k row groups read as min(k, CPUs) tasks over
    contiguous bins of near-equal row-group count, in file order, a bin
    spanning two files where the cut falls so."""
    d = tmp_path / "pages"
    d.mkdir()
    _write_file(d / "part-00000.parquet", range(20), row_group_size=10)
    _write_file(d / "part-00001.parquet", range(20, 60), row_group_size=10)
    ds = read_pages_parquet(str(d))
    assert ds._logical_plan.dag.name == "ReadParquet"
    tasks = _read_tasks(ds)
    # 6 row groups of 10 rows in 4 bins: 1, 2, 1, 2 row groups
    assert [t.metadata.num_rows for t in tasks] == [10, 20, 10, 20]
    assert [len(t.metadata.input_files) for t in tasks] == [1, 2, 1, 1]
    # read in order, the bins give back the files row for row
    got = pa.concat_tables(b for t in tasks for b in t())
    assert got.equals(pa.concat_tables(pq.read_table(f)
                                       for f in sorted(d.iterdir())))
    assert ds.count() == 60

    few = tmp_path / "few"
    few.mkdir()
    _write_file(few / "part-00000.parquet", range(30), row_group_size=10)
    assert [t.metadata.num_rows
            for t in _read_tasks(read_pages_parquet(str(few)))] == [10] * 3


def test_read_falls_back_to_read_parquet(ray_session, tmp_path, monkeypatch):
    """A file with no row group and a non-local path both go to
    ``ray.data.read_parquet``."""
    calls = []

    def fake_read_parquet(path, **kw):
        calls.append((path, kw))
        return "read_parquet"

    monkeypatch.setattr(ray.data, "read_parquet", fake_read_parquet)
    d = tmp_path / "pages"
    d.mkdir()
    _write_file(d / "part-00000.parquet", range(20), row_group_size=10)
    pq.ParquetWriter(d / "part-00001.parquet",
                     pq.read_schema(d / "part-00000.parquet")).close()
    assert read_pages_parquet(str(d)) == "read_parquet"
    assert calls == [(str(d), {"override_num_blocks": 2})]
    calls.clear()
    assert read_pages_parquet("s3://bucket/pages") == "read_parquet"
    assert calls == [("s3://bucket/pages", {})]


def test_row_group_tasks_of_one_file_run_side_by_side(ray_session, tmp_path):
    """One file of two row groups runs as two fused tasks AT ONCE: no CPU
    is held back for the operators behind the groupby's sort, which
    cannot start before extraction ends anyway."""
    d = tmp_path / "pages"
    d.mkdir()
    _write_file(d / "part-00000.parquet", range(40), row_group_size=20)
    meet = tmp_path / "meet"
    meet.mkdir()
    meet_dir = str(meet)

    class MeetingParser(ExtractActor):
        """Each parser, built once per block inside its task, leaves an
        arrival file, waits up to 20 s for a second arrival and records
        whether one came."""

        def __init__(self, shuffle_codec=None, ocr_backend=None):
            me = uuid.uuid4().hex
            open(os.path.join(meet_dir, f"arrived-{me}"), "w").close()
            end = time.monotonic() + 20
            while not (met := sum(n.startswith("arrived-")
                                  for n in os.listdir(meet_dir)) > 1):
                if time.monotonic() > end:
                    break
                time.sleep(0.05)
            with open(os.path.join(meet_dir, f"met-{me}"), "w") as f:
                f.write(str(int(met)))
            super().__init__(shuffle_codec=shuffle_codec,
                             ocr_backend=ocr_backend)

    ds = run_extract_pipeline(read_pages_parquet(str(d)),
                              out_dir=str(tmp_path / "out"),
                              num_partitions=P, parser_cls=MeetingParser)
    assert len(ds.take_all()) == P
    names = _operator_names(ds)
    assert FUSED.replace("ExtractActor", "MeetingParser") in names, names
    assert not any("SplitBlocks" in n for n in names), names
    met = [(meet / n).read_text() for n in os.listdir(meet)
           if n.startswith("met-")]
    assert met == ["1", "1"]


def test_reservation_setting_stays_on_the_pipeline(ray_session, tmp_path):
    """The pipeline turns Ray Data's operator CPU reservation off on its
    own DataContext only: neither the session's current context nor the
    caller's pages Dataset sees the change."""
    pages = read_pages_parquet(_pages_dir(tmp_path))
    ds = run_extract_pipeline(pages, num_partitions=P)
    assert len(ds.take_all()) == P
    assert FUSED in _operator_names(ds)
    assert ds.context.op_resource_reservation_enabled is False
    assert pages.context.op_resource_reservation_enabled is True
    assert ray.data.DataContext.get_current().op_resource_reservation_enabled
