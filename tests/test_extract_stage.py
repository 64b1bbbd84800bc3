"""The flagship's extract stage runs as a task fused into the Parquet read
(whatever the input: a directory at any depth, a single file, a URI or a
relative path), one task per bin of row groups (one file per task with
as many files as CPUs), a row group with more than a CPU's share of the
html bytes cut into pieces that each re-read it; the read leaves the
crawler text in storage, and a row that fails to parse gets its own
crawler text from there; the tasks run side by side, and the parser
classes the stage is handed are built only inside the workers."""

import os
import shutil
import time
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from docling_graph_ray.fixtures.pages import make_pages_table
from docling_graph_ray.functions.hashing import url_part_ids
from docling_graph_ray.pipelines.extract import (
    ExtractActor,
    _read_row_groups,
    _RowGroupBinsDatasource,
    crawler_text,
    extract_pages_dataset,
    make_classifier,
    read_pages_parquet,
    run_extract_pipeline,
)
from docling_graph_ray.pipelines.golden import golden_extract_pages
from docling_graph_ray.state.manifest import read_lineage

FUSED = "ReadParquet->MapBatches(classify)->MapBatches(ExtractActor)"
P = 4
CPUS = 4  # the ray_session fixture's
SRC = ["_src_file", "_src_row"]  # the read's per-row source columns


def _pages_dir(root, n_files=3, rows_per_file=40) -> str:
    """A pages Parquet directory of ``n_files`` one-row-group files."""
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
    operator that never splits the read's blocks, with fewer files than
    CPUs and with as many (``resume_half``): both read row-group bins.
    Raw html stays inside the task that read it."""
    for n_files in (3, CPUS):
        root = tmp_path / str(n_files)
        root.mkdir()
        src = _pages_dir(root, n_files=n_files)
        out = str(root / "out")
        for resumed in (False, True):
            pages = read_pages_parquet(src)
            read = pages._logical_plan.dag._datasource_or_legacy_reader
            assert isinstance(read, _RowGroupBinsDatasource)
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
    """As many files as CPUs or more, each of four row groups: the same
    row-group bins as fewer files, one read task per file, each task the
    file's rows in order."""
    for n_files in (CPUS, CPUS + 2):
        d = tmp_path / str(n_files)
        d.mkdir()
        for k in range(n_files):
            _write_file(d / f"part-{k:05d}.parquet",
                        range(k * 20, k * 20 + 20), row_group_size=5)
        ds = read_pages_parquet(str(d))
        assert ds._logical_plan.dag.name == "ReadParquet"
        assert isinstance(ds._logical_plan.dag._datasource_or_legacy_reader,
                          _RowGroupBinsDatasource)
        tasks = _read_tasks(ds)
        files = sorted(str(f) for f in d.iterdir())
        assert [t.metadata.input_files for t in tasks] == [[f] for f in files]
        assert [t.metadata.num_rows for t in tasks] == [20] * n_files
        for t, f in zip(tasks, files):
            got = pa.concat_tables(list(t()))
            assert got.drop_columns(SRC).equals(
                pq.read_table(f).drop_columns(["text"]))
            assert got.column("_src_row").to_pylist() == list(range(20))
        assert ds.count() == n_files * 20


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
    # read in order, the bins give back the files row for row, but for
    # the crawler text, and each row names its file and row in it
    got = pa.concat_tables(b for t in tasks for b in t())
    assert got.drop_columns(SRC).equals(pa.concat_tables(
        pq.read_table(f).drop_columns(["text"]) for f in sorted(d.iterdir())))
    assert [(r["_src_file"], r["_src_row"])
            for r in got.select(SRC).to_pylist()] == (
        [(str(d / "part-00000.parquet"), i) for i in range(20)]
        + [(str(d / "part-00001.parquet"), i) for i in range(40)])
    assert ds.count() == 60

    few = tmp_path / "few"
    few.mkdir()
    _write_file(few / "part-00000.parquet", range(30), row_group_size=10)
    assert [t.metadata.num_rows
            for t in _read_tasks(read_pages_parquet(str(few)))] == [10] * 3


def _html_file(path, sizes, row_group_size=None):
    """A Parquet file of rows with ``sizes[i]`` html bytes (``None``: null
    html), each row's bytes its own."""
    html = [None if n is None else (b"%07d " % i * (n // 8 + 1))[:n]
            for i, n in enumerate(sizes)]
    pq.write_table(pa.table({"url": [f"u{i}" for i in range(len(sizes))],
                             "html": pa.array(html, pa.binary())}),
                   path, row_group_size=row_group_size)


def test_row_group_pieces_give_back_the_row_group(tmp_path):
    """Piece j of k keeps the rows whose html starts in the j-th of k
    equal cuts of the row group's html bytes (nulls count 0): for k = 2..4
    the pieces, in order, are the row group row for row.  A row larger
    than a cut leaves the pieces it spans empty, and a row group with no
    html bytes is all piece 0.  Each row keeps its row number in the
    file."""
    cases = {
        "mixed": [300, None, 5000, 0, 120, 2000, None, 800, 40, 3000],
        "one_giant": [10, 50_000, 10],
        "all_empty": [0, None, 0, 0],
    }
    sizes_of = {}
    for name, sizes in cases.items():
        path = str(tmp_path / f"{name}.parquet")
        _html_file(path, sizes)
        whole = pq.read_table(path)
        total = sum(n or 0 for n in sizes)
        for k in range(2, 5):
            pieces = list(_read_row_groups([(path, 0, j, k)
                                            for j in range(k)]))
            assert len(pieces) == k
            got = pa.concat_tables(pieces)
            assert got.drop_columns(SRC).equals(whole), (name, k)
            assert got.column("_src_row").to_pylist() == list(range(len(sizes)))
            want, before = [], 0
            for n in sizes:
                want.append(before * k // max(total, 1))
                before += n or 0
            assert [j for j, p in enumerate(pieces)
                    for _ in range(p.num_rows)] == want, (name, k)
            sizes_of[name, k] = [p.num_rows for p in pieces]
    assert sizes_of["one_giant", 4] == [2, 0, 0, 1]
    assert sizes_of["all_empty", 3] == [4, 0, 0]


def test_read_splits_row_groups_by_html_bytes(ray_session, tmp_path):
    """One file of two row groups, each ~3 MB of html with its giant rows
    together (``giant_skew``'s shape): each row group holds two CPUs'
    share, so the read plans 4 tasks on 4 CPUs, one per half row group,
    each within 1.5x of the mean html bytes; split pieces report no row
    count.  A row group under the 1 MB giant-row threshold never splits,
    however large its share."""
    d = tmp_path / "giant"
    d.mkdir()
    group = [2_000] * 12 + [600_000] * 5 + [2_000] * 3
    _html_file(d / "part-00000.parquet", group * 2, row_group_size=20)
    ds = read_pages_parquet(str(d))
    assert ds._logical_plan.dag.name == "ReadParquet"
    tasks = _read_tasks(ds)
    assert len(tasks) == CPUS == ds._logical_plan.dag._parallelism
    assert [t.metadata.num_rows for t in tasks] == [None] * CPUS
    blocks = [pa.concat_tables(list(t())) for t in tasks]
    shares = [pc.sum(pc.binary_length(b.column("html"))).as_py()
              for b in blocks]
    mean = sum(shares) / len(shares)
    assert all(mean / 1.5 <= b <= 1.5 * mean for b in shares), shares
    assert pa.concat_tables(blocks).drop_columns(SRC).equals(
        pq.read_table(d / "part-00000.parquet"))

    small = tmp_path / "small"
    small.mkdir()
    _html_file(small / "part-00000.parquet", [900_000] + [1_000] * 9,
               row_group_size=5)
    tasks = _read_tasks(read_pages_parquet(str(small)))
    assert [t.metadata.num_rows for t in tasks] == [5, 5]


def test_split_row_groups_extract_golden_fresh_and_resumed(ray_session,
                                                          tmp_path):
    """A one-file input whose giant-row row group splits across tasks
    runs as the one fused operator with no ``SplitBlocks`` and commits
    exactly the eager golden's text digests and lineage, fresh and after
    half its partitions are uncommitted."""
    n, seed, profile = 100, 3, "bench"  # rows 90-99 are the giant ones
    d = tmp_path / "pages"
    d.mkdir()
    pages = make_pages_table(list(range(n)), seed, profile)
    pq.write_table(pages, d / "part-00000.parquet", row_group_size=50)
    assert None in [t.metadata.num_rows
                    for t in _read_tasks(read_pages_parquet(str(d)))]
    _check_golden_fresh_and_resumed(str(d), pages, [], str(tmp_path / "out"))


CORRUPT = b"\x1f\x8b\x00\x00 not a gzip stream"  # gzip magic, no stream


def _write_pages(d, pages: pa.Table, files: int, row_group_size: int):
    """``pages`` cut into ``files`` equal Parquet files in ``d``."""
    d.mkdir()
    n = pages.num_rows // files
    for k in range(files):
        pq.write_table(pages.slice(k * n, n), d / f"part-{k:05d}.parquet",
                       row_group_size=row_group_size)


def _corrupt(pages: pa.Table, rows) -> pa.Table:
    """``pages`` with the html of ``rows`` a broken gzip stream, which
    fails to decode, so those rows fall back to their crawler text."""
    html = pages.column("html").to_pylist()
    for r in rows:
        html[r] = CORRUPT
    return pages.set_column(pages.schema.get_field_index("html"), "html",
                            pa.array(html, pa.binary()))


# (profile, seed, rows, files, row group size, corrupt rows): where the
# read puts the corrupt rows
CORRUPT_CASES = {
    # 5 row groups in 4 bins: the last bin is rows 30-49, one block
    "second_row_group_of_a_bin": ("t1", 42, 50, 1, 10, [33, 43]),
    # rows 90-99 are giants: row group 50-99 is cut into 4 pieces
    "later_piece_of_a_split_row_group": ("bench", 3, 100, 1, 50, [92, 96]),
    # one task per file, each of two row groups
    "files_ge_cpus": ("t1", 42, 80, CPUS, 10, [56, 78]),
    # the same, read through the directory's ``file://`` URI
    "files_ge_cpus_file_uri": ("t1", 42, 80, CPUS, 10, [56, 78]),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_CASES))
def test_failed_rows_get_their_own_crawler_text(ray_session, tmp_path, case):
    """A row whose html fails to parse gets its own crawler text, which
    the read left on disk, wherever the read puts it; the committed
    text digests and lineage equal the eager golden's, fresh and after
    half the partitions are uncommitted."""
    profile, seed, n, files, rg_size, bad = CORRUPT_CASES[case]
    pages = _corrupt(make_pages_table(list(range(n)), seed, profile), bad)
    urls = pages.column("url").to_pylist()
    assert all(urls.count(urls[r]) == 1 for r in bad)
    d = tmp_path / "pages"
    _write_pages(d, pages, files, rg_size)
    path = d.as_uri() if case.endswith("file_uri") else str(d)
    read = read_pages_parquet(path)
    blocks = [pa.concat_tables(list(t())) for t in _read_tasks(read)]
    for r in bad:
        block = next(b for b in blocks if urls[r] in b.column("url").to_pylist())
        if case == "second_row_group_of_a_bin":
            assert block.num_rows == 2 * rg_size
        elif case == "later_piece_of_a_split_row_group":
            # the block does not start at the row group's first row
            assert block.column("_src_row")[0].as_py() % rg_size
        else:  # the file's second row group
            assert block.num_rows == n // files and r % (n // files) >= rg_size
    _check_golden_fresh_and_resumed(path, pages, bad, str(tmp_path / "out"))


def _check_golden_fresh_and_resumed(path: str, pages: pa.Table, bad, out):
    """``run_extract_pipeline`` over ``read_pages_parquet(path)`` runs as
    the one fused operator with no ``SplitBlocks``, and its committed
    text digests, manifests and returned lineage equal the eager golden's
    of ``pages``, fresh and after half the partitions are uncommitted;
    the rows ``bad`` (in even partitions) fall back to their own crawler
    text."""
    urls = pages.column("url").to_pylist()
    assert all(p % 2 == 0 for p in url_part_ids([urls[r] for r in bad], P))
    golden, golden_lineage = golden_extract_pages(pages, P)
    assert sum(golden_lineage.column("n_fallback").to_pylist()) == len(bad)
    want = sorted(zip(golden.column("url").to_pylist(),
                      golden.column("text_sha256").to_pylist()))
    for resumed in (False, True):
        ds = run_extract_pipeline(read_pages_parquet(path), out_dir=out,
                                  num_partitions=P)
        lineage = sorted(ds.take_all(), key=lambda r: r["part_id"])
        names = _operator_names(ds)
        assert FUSED in names, names
        assert not any("SplitBlocks" in name for name in names), names
        redone = range(0, P, 2) if resumed else range(P)
        assert lineage == [golden_lineage.to_pylist()[p] for p in redone]
        committed = pq.read_table(out)
        assert sorted(zip(committed.column("url").to_pylist(),
                          committed.column("text_sha256").to_pylist())) == want
        assert read_lineage(out) == golden_lineage.to_pylist()
        rows = {r["url"]: r for r in committed.to_pylist()}
        for r in bad:
            assert rows[urls[r]]["parse_status"] == "fallback_text"
            assert (rows[urls[r]]["extracted_text"]
                    == pages.column("text")[r].as_py())
        for pid in range(0, P, 2):  # uncommit half the partitions
            os.remove(os.path.join(out, "_manifests", f"part-{pid:05d}.json"))
            shutil.rmtree(os.path.join(out, f"part_id={pid}"))


def _write_layout(root, pages: pa.Table, kind: str) -> str:
    """``pages`` written under ``root`` in the layout ``kind``, and the
    path ``read_pages_parquet`` is given for it."""
    d = root / "pages"
    if kind == "single_file":
        d.mkdir()
        pq.write_table(pages, d / "pages.parquet", row_group_size=10)
        return str(d / "pages.parquet")
    if kind != "nested":
        _write_pages(d, pages, CPUS, 10)
        return {"flat_dir": str(d), "file_uri": d.as_uri(),
                "relative_dir": "pages"}[kind]
    # halves at two depths, one under a hive directory; the ``.``/``_``
    # names and the non-Parquet file hold rows the golden does not have
    n = pages.num_rows // 2
    extra = make_pages_table(list(range(500, 510)), profile="t1")
    for sub, table in (("a", pages.slice(0, n)),
                       ("b/crawl=2024", pages.slice(n)),
                       ("_tmp", extra), (".staging", extra)):
        (d / sub).mkdir(parents=True)
        pq.write_table(table, d / sub / "part-00000.parquet",
                       row_group_size=10)
    pq.write_table(extra, d / "b" / "_part-00001.parquet")
    pq.write_table(extra, d / "b" / ".part-00002.parquet")
    (d / "README").write_text("not Parquet")
    return str(d)


@pytest.mark.parametrize("kind", ["flat_dir", "file_uri", "relative_dir",
                                  "single_file", "nested"])
def test_one_reader_plans_every_input_fused(ray_session, tmp_path,
                                            monkeypatch, kind):
    """A directory, its ``file://`` URI, a path relative to the caller's
    working directory (Ray workers do not share it), a single file and a
    nested layout (``.``/``_`` names skipped, a hive directory adding no
    column) all read through the one planned read: every row of the
    input once, without the crawler ``text``, and the fused pipeline
    commits the golden, a failed row's crawler text included."""
    pages = _corrupt(make_pages_table(list(range(80)), 42, "t1"), [56, 78])
    monkeypatch.chdir(tmp_path)
    path = _write_layout(tmp_path, pages, kind)
    tasks = _read_tasks(read_pages_parquet(path))
    got = pa.concat_tables([b for t in tasks for b in t()])
    assert got.column_names == [c for c in pages.column_names
                                if c != "text"] + SRC
    assert sorted(got.column("url").to_pylist()) \
        == sorted(pages.column("url").to_pylist())
    assert all(os.path.isabs(f) for t in tasks for f in t.metadata.input_files)
    _check_golden_fresh_and_resumed(path, pages, [56, 78],
                                    str(tmp_path / "out"))


def test_read_refuses_a_path_with_no_parquet_file(ray_session, tmp_path):
    """A path under which no ``.parquet`` file is read raises at planning
    time, naming the path; a file with no row group gives no piece."""
    d = tmp_path / "pages"
    (d / "_tmp").mkdir(parents=True)
    _write_file(d / "_tmp" / "part-00000.parquet", range(10), 10)
    (d / "README").write_text("not Parquet")
    for path in (str(d), d.as_uri()):
        with pytest.raises(FileNotFoundError, match=str(d)):
            read_pages_parquet(path)
    with pytest.raises(FileNotFoundError):
        read_pages_parquet(str(tmp_path / "missing"))
    _write_file(d / "part-00000.parquet", range(20), row_group_size=10)
    pq.ParquetWriter(d / "part-00001.parquet",
                     pq.read_schema(d / "part-00000.parquet")).close()
    tasks = _read_tasks(read_pages_parquet(str(d)))
    assert [t.metadata.input_files for t in tasks] == [
        [str(d / "part-00000.parquet")]] * 2


def test_read_decodes_crawler_text_only_for_failed_rows(tmp_path,
                                                        monkeypatch):
    """Read tasks never decode the crawler ``text`` column, and the
    extract stage reads it only for rows that fail to parse: one
    ``text`` read of each such row's row group, whichever block it is
    in.  In-process, so every ``read_row_group`` call is seen."""
    reads = []
    read_row_group = pq.ParquetFile.read_row_group

    def recording(self, i, columns=None, **kw):
        reads.append((i, "text" in (columns or ["text"])))
        return read_row_group(self, i, columns=columns, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", recording)
    pages = make_pages_table(list(range(50)), 42, "t1")
    classify = make_classifier(P)
    for name, bad in (("clean", []), ("corrupt", [13, 33, 36, 43])):
        d = tmp_path / name
        _write_pages(d, _corrupt(pages, bad), 1, 10)
        tasks = _read_tasks(read_pages_parquet(str(d)))
        block = pa.concat_tables([b for t in tasks for b in t()])
        assert "text" not in block.column_names
        assert reads == [(i, False) for i in range(5)]
        reads.clear()
        out = pa.concat_tables(list(ExtractActor()(classify(block))))
        assert reads == [(g, True) for g in sorted({r // 10 for r in bad})]
        reads.clear()
        status = out.column("parse_status").to_pylist()
        assert [i for i, st in enumerate(status)
                if st == "fallback_text"] == bad
        assert [crawler_text(block, r) for r in bad] == [
            pages.column("text")[r].as_py() for r in bad]


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


def test_lone_surrogate_row_is_salvaged_not_fatal(ray_session, tmp_path):
    """A DoclingDocument-JSON page whose text holds a ``"\\ud800"`` escape
    decodes to a str UTF-8 cannot encode; the run commits every
    partition, with the surrogate as U+FFFD and the row ``salvaged``."""
    pages = make_pages_table(list(range(20)), 42, "t1")
    doc = b'{"schema_name": "DoclingDocument", "texts": [{"text": "a \\ud800 b"}]}'
    html = pages.column("html").to_pylist()
    html[7] = doc
    pages = pages.set_column(pages.schema.get_field_index("html"), "html",
                             pa.array(html, pa.binary()))
    urls = pages.column("url").to_pylist()
    out = str(tmp_path / "out")
    lineage = run_extract_pipeline(ray.data.from_arrow(pages), out_dir=out,
                                   num_partitions=P).take_all()
    assert sorted(r["part_id"] for r in lineage) == \
        sorted(set(url_part_ids(urls, P)))
    rows = {r["url"]: r for r in pq.read_table(out).to_pylist()}
    assert set(rows) == set(urls)
    assert rows[urls[7]]["parse_status"] == "salvaged"
    assert rows[urls[7]]["extracted_text"] == "a � b"
    assert sum(r["n_salvaged"] for r in lineage) == sum(
        r["parse_status"] == "salvaged" for r in rows.values())
