"""The flagship pipeline: pages → extracted text + spans + lineage.

Ray-Data-first shape (SURVEY.md §7) — a LINEAR chain, one source scan:

    read pages, one task per Parquet file, or per row-group bin when
    there are fewer files than CPUs      (url, warc_ts, html, text, lang)
      → classify: lane + part_id                      (cheap, vectorized)
      → map_batches(ExtractActor stage)               (plain task UDF)
          - read, classify and extract are all task UDFs, so Ray FUSES
            them into one operator,
            ReadParquet->MapBatches(classify)->MapBatches(ExtractActor):
            each task reads a file (or a bin), classifies and extracts it
          - the parser (ExtractActor) is built inside that task once per
            block and called on 32-row windows: HTML rows (any size)
            decode → parse → score → text+spans, giant rows handled by
            sub-batch yields; PDF/binary rows parsed with the parser's
            warm state (__init__)
      → groupby(part_id).map_groups(PartitionFinalizer)   # the ONE shuffle
          - latest-wins url dedup (url-hash partitioning makes it global)
          - per-partition lineage + metrics
          - atomic partition Parquet + manifest (idempotent resume)

Design notes for 100 TB:
- the chain is linear on purpose: a filter-branch union (one branch per
  lane) re-executes the whole upstream once PER BRANCH in Ray Data's plan
  (no common-subplan caching), i.e. it re-reads the 100 TB source three
  times.  Handling both content kinds inside one stage keeps the source
  scan single-pass;
- the extract stage is fused into the read rather than run as an actor
  pool behind it: a pool paid actor start (a fresh worker imports
  ray.data, ~0.5 s), shipped every block's raw html and crawler text
  through the object store, where the read's small output budget let the
  giant-bearing blocks out one at a time, and held its CPUs until the
  stream ended, so the finalizer ran on the one CPU left.  The fused task
  runs on warm task workers and only the compressed extracted text
  leaves it;
- the fused operator gets every CPU: Ray Data's operator resource
  reservation is off on the pipeline's own DataContext.  With it on, Ray
  2.49 reserved about a CPU each for the sort and the finalizer, which
  cannot start before the last extract task ends (the sort is an
  all-to-all barrier), and left the extract operator 1.44 of 4 CPUs: one
  task at a time.  The object store has to hold all the extract output
  before the reduce in any case, so the reservation only idled CPUs;
- the read makes enough tasks for the CPUs: with fewer Parquet files
  than CPUs it reads contiguous bins of row groups, one task each
  (``read_pages_parquet``), so a one-file input is not one task;
- the single wide op is the url-hash groupby, and the same key drives
  dedup, lineage, checkpoint layout and resume (SURVEY.md §7.4);
- ``html`` is projected away inside the extract stage, so the shuffle
  moves extracted text only (§7.5);
- ``num_partitions`` must scale with input size (each partition's group is
  held in one worker: target 100–500 MB of *output* per partition);
- resume filters completed partitions out of each window BEFORE the
  parse, so a resumed run pays only for missing partitions.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterator
from functools import partial

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data import Dataset
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

from docling_graph_ray.functions.hashing import url_part_ids, xor_rollup_hex
from docling_graph_ray.stages.doc_formats import extract_doc_json, extract_doclang
from docling_graph_ray.stages.html_extract import (
    EXTRACT_SCHEMA,
    SPAN_TYPE,
    extract_html_doc,
    iter_binary_views,
    text_column_with_digests,
)
from docling_graph_ray.stages.pdf_parse import PDF_MAGIC, PdfParseActor
from docling_graph_ray.state.manifest import completed_parts, write_partition_atomic

DEFAULT_GIANT_BYTES = 1 << 20  # 1 MB: giant-lane threshold

LINEAGE_SCHEMA = pa.schema(
    [
        ("part_id", pa.int32()),
        ("n_urls", pa.int64()),
        ("n_ok", pa.int64()),
        ("n_salvaged", pa.int64()),
        ("n_fallback", pa.int64()),
        ("n_failed", pa.int64()),
        ("n_image_only", pa.int64()),
        ("n_ocr_recovered", pa.int64()),
        ("blocks_kept", pa.int64()),
        ("blocks_dropped", pa.int64()),
        ("bytes_in", pa.int64()),
        ("bytes_out", pa.int64()),
        ("content_hash", pa.string()),
    ]
)


# ---------------------------------------------------------------------------
# classify (lane + partition id) — cheap vectorized projection


def make_classifier(num_partitions: int, giant_bytes: int = DEFAULT_GIANT_BYTES):
    def classify(batch: pa.Table) -> pa.Table:
        html = batch.column("html")
        nbytes = pc.binary_length(html).cast(pa.int64())
        try:
            prefix = pc.binary_slice(html, 0, len(PDF_MAGIC))
            is_pdf = pc.equal(prefix, PDF_MAGIC)
        except (AttributeError, pa.ArrowNotImplementedError):
            is_pdf = pa.array(
                [(h or b"")[: len(PDF_MAGIC)] == PDF_MAGIC for h in html.to_pylist()]
            )
        is_pdf = pc.fill_null(is_pdf, False)
        giant = pc.and_(pc.invert(is_pdf), pc.greater_equal(nbytes, giant_bytes))
        lane = pc.if_else(
            is_pdf, "pdf", pc.if_else(giant, "html_giant", "html")
        )
        part = pa.array(
            url_part_ids(batch.column("url").to_pylist(), num_partitions),
            pa.int32(),
        )
        return batch.append_column("lane", lane).append_column("part_id", part)

    return classify


# ---------------------------------------------------------------------------
# the extraction stage: one parser for both content kinds

# EXTRACT_SCHEMA + the partition id that drives the downstream groupby
_STAGE_SCHEMA = EXTRACT_SCHEMA.append(pa.field("part_id", pa.int32()))
# codec variant: extracted_text rides as zlib large_binary (see
# compress_shuffle_payload) — produced when the parser compresses at flush
_STAGE_SCHEMA_Z = pa.schema(
    [
        pa.field("extracted_text", pa.large_binary())
        if f.name == "extracted_text"
        else f
        for f in _STAGE_SCHEMA
    ]
)

# yield an output sub-batch once this much input html has been consumed —
# bounds task-output block latency/memory even when single rows are huge
_SUB_BATCH_BYTES = 32 << 20


#: per-row parse budget for the ``html_giant`` lane: a single
#: pathological row (a 500 MB "html" blob in a web crawl) must never
#: hold a task hostage; rows above the cap parse only their head and are
#: downgraded to ``salvaged`` — the truncation-ladder analogue
#: (reference: batch halving orchestrator.py:1587-1741 + char-level
#: splits document_chunker.py:301-334 as the skew playbook, SURVEY §4.1)
GIANT_PARSE_CAP_BYTES = 8 << 20


class ExtractActor(PdfParseActor):
    """Generator batch parser: classified pages in, _STAGE_SCHEMA
    sub-batches out.

    The flagship builds it inside the fused read task, once per input
    block, and calls it on that block's 32-row windows (``_lanes``); the
    name stays ``ExtractActor`` because the stage's operator takes it.
    Warm parser state (the PDF/layout stack stand-in) comes from
    ``PdfParseActor.__init__`` and is reused across the block's windows
    (reference analogue: DocumentProcessor's model stack,
    docling_graph/core/extractors/document_processor.py:127-230).  HTML
    rows are stateless per-row work and run inline; giant rows are handled
    by sub-batch yields so a multi-MB row never holds a whole output block
    hostage, plus the ``giant_parse_cap`` head-parse budget above."""

    giant_parse_cap = GIANT_PARSE_CAP_BYTES

    def __init__(self, shuffle_codec: str | None = None,
                 ocr_backend: type | None = None) -> None:
        """``shuffle_codec="zlib"`` compresses ``extracted_text`` AT FLUSH,
        inside the extract stage, so the uncompressed text never enters
        the object store.  A separate compress ``map_batches`` stage
        downstream is NOT equivalent at scale: once total uncompressed
        extract output exceeds the object store, the executor's
        per-operator memory budgeting wedges — the extract stage's output
        queue fills the store, the compress stage that would drain it is
        denied submission by the same exhausted budget, and the whole
        stream trickles (measured at 96k bench rows / 32 cpus: 86-96
        docs/s with every operator backpressured and load ~1, vs ~860
        docs/s at 48k where the uncompressed output still fit)."""
        super().__init__()
        if shuffle_codec not in (None, "zlib"):
            raise ValueError(f"unknown shuffle_codec: {shuffle_codec!r}")
        self.shuffle_codec = shuffle_codec
        # ``ocr_backend`` is a CLASS (OcrBackend protocol) instantiated
        # here so the OCR model loads once per parser alongside the warm
        # parser stack — image_only rows route through it while the raw
        # bytes are still in hand (no second ship of the binary payload)
        self.ocr = ocr_backend() if ocr_backend is not None else None

    def __call__(self, batch: pa.Table):
        urls = batch.column("url")
        warcs = batch.column("warc_ts")
        langs = batch.column("lang")
        parts = batch.column("part_id")
        lanes = batch.column("lane").to_pylist()
        # the crawler text is only the fallback of a failed row: read it
        # per failed row, never as a whole column of Python strings
        texts = batch.column("text")

        def new_acc():
            return {
                "idx": [], "extracted_text": [], "spans": [],
                "n_blocks_kept": [], "n_blocks_dropped": [], "parse_status": [],
                "bytes_in": [],
            }

        def flush(acc):
            idx = pa.array(acc["idx"], pa.int64())
            # single-encode rule: the Arrow array build is the ONE UTF-8
            # encode; sha256 + bytes_out come from the array's own buffer
            text_arr, shas, bytes_out = text_column_with_digests(
                acc["extracted_text"]
            )
            schema = _STAGE_SCHEMA
            if self.shuffle_codec == "zlib":
                # sha256/bytes_out above come from the uncompressed
                # buffers, so the byte-identity invariant still rides
                # alongside the compressed payload
                text_arr = pa.array(
                    [
                        zlib.compress(s.as_buffer(), _SHUFFLE_ZLIB_LEVEL)
                        for s in text_arr.cast(pa.large_binary())
                    ],
                    pa.large_binary(),
                )
                schema = _STAGE_SCHEMA_Z
            return pa.Table.from_arrays(
                [
                    urls.take(idx).cast(pa.string()),
                    warcs.take(idx),
                    langs.take(idx),
                    text_arr,
                    pa.array(shas, pa.string()),
                    pa.array(acc["spans"], pa.list_(SPAN_TYPE)),
                    pa.array(acc["n_blocks_kept"], pa.int32()),
                    pa.array(acc["n_blocks_dropped"], pa.int32()),
                    pa.array(acc["parse_status"], pa.string()),
                    pa.array(acc["bytes_in"], pa.int64()),
                    bytes_out,
                    parts.take(idx),
                ],
                schema=schema,
            )

        acc = new_acc()
        consumed = 0
        html_views = iter_binary_views(batch.column("html"))
        for i, (raw, lane) in enumerate(zip(html_views, lanes)):
            acc["idx"].append(i)
            if lane == "pdf":
                # the PDF codec's object scan does many bytes ops; one
                # whole-payload copy here is fine — the lane is rare and
                # the parse itself dominates
                t, st, spans = self._parse_one(bytes(raw))
                if st == "image_only" and self.ocr is not None:
                    # scanned-PDF recovery via the injected OcrBackend;
                    # a backend failure keeps the row quantified as
                    # image_only rather than failing the partition
                    try:
                        ocr_text = self.ocr.recognize(bytes(raw))
                    except Exception:
                        ocr_text = None
                    if ocr_text:
                        t, st = ocr_text, "ocr_recovered"
                        spans = [{"span_id": 0, "start": 0,
                                  "end": len(ocr_text), "kind": "ocr",
                                  "path": "pdf", "block_class": "ocr"}]
                r = {"extracted_text": t, "spans": spans,
                     "n_blocks_kept": len(spans), "n_blocks_dropped": 0,
                     "parse_status": st}
            else:
                # giant-lane head-parse budget: parse only the first
                # giant_parse_cap bytes of a pathological row (decode_html
                # salvages the cut-mid-byte tail); successful rows
                # downgrade to 'salvaged' since content was dropped
                capped = (lane == "html_giant"
                          and len(raw) > self.giant_parse_cap)
                body = raw[:self.giant_parse_cap] if capped else raw
                # structured-document lanes (already-parsed formats,
                # handlers.py:526-673 analogue): cheap head checks here,
                # full sniffing in stages/sniff.py.  bytes(...) on the
                # 2 KB head only — body stays a zero-copy view for the
                # dominant html lane
                head = bytes(body[:2048])
                if head.lstrip()[:1] == b"{" and b'"schema_name"' in head:
                    r = extract_doc_json(bytes(body))
                elif b"<doclang" in head[:256].lower():
                    r = extract_doclang(bytes(body))
                else:
                    r = extract_html_doc(body, None)
                if capped and r["parse_status"] == "ok":
                    r["parse_status"] = "salvaged"
                if r["parse_status"] == "failed" and (fb := texts[i].as_py()):
                    r = {"extracted_text": fb,
                         "spans": [{"span_id": 0, "start": 0, "end": len(fb),
                                    "kind": "fallback", "path": "text",
                                    "block_class": "text"}],
                         "n_blocks_kept": 1, "n_blocks_dropped": 0,
                         "parse_status": "fallback_text"}
            acc["extracted_text"].append(r["extracted_text"])
            acc["spans"].append(r["spans"])
            acc["n_blocks_kept"].append(r["n_blocks_kept"])
            acc["n_blocks_dropped"].append(r["n_blocks_dropped"])
            acc["parse_status"].append(r["parse_status"])
            acc["bytes_in"].append(len(raw))
            consumed += len(raw)
            if consumed >= _SUB_BATCH_BYTES:
                yield flush(acc)
                acc, consumed = new_acc(), 0
        if acc["idx"]:
            yield flush(acc)


# ---------------------------------------------------------------------------
# partition finalizer (the wide step)


def _dedup_latest_wins(group: pa.Table) -> pa.Table:
    """Per-url latest-wins (warc_ts desc, text_sha256 desc tie-break) —
    the per-group-first pattern (reference semantics: duplicate absorption
    in docling_graph/core/merge/merger.py:175-238, re-expressed as a
    sort + first-occurrence mask)."""
    import numpy as np

    idx = pc.sort_indices(
        group,
        sort_keys=[
            ("url", "ascending"),
            ("warc_ts", "descending"),
            ("text_sha256", "descending"),
        ],
    )
    g = group.take(idx)
    urls = np.asarray(g.column("url").to_pylist(), dtype=object)
    mask = np.empty(len(urls), dtype=bool)
    if len(urls):
        mask[0] = True
        mask[1:] = urls[1:] != urls[:-1]
    return g.filter(pa.array(mask))


def _lineage_record(part_id: int, deduped: pa.Table) -> dict:
    status = deduped.column("parse_status")
    def _count(v: str) -> int:
        return int(pc.sum(pc.cast(pc.equal(status, v), pa.int64())).as_py() or 0)

    return {
        "part_id": int(part_id),
        "n_urls": deduped.num_rows,
        "n_ok": _count("ok"),
        "n_salvaged": _count("salvaged"),
        "n_fallback": _count("fallback_text"),
        "n_failed": _count("failed"),
        # scanned-image PDFs (text-free pages drawing images): the OCR
        # gap quantified instead of silently folded into n_failed
        # (reference closes it with RapidOCR,
        # document_processor.py:199-230 — out of scope here)
        "n_image_only": _count("image_only"),
        # rows an injected OcrBackend recovered text for (r5: the OCR
        # gap is pluggable, not just quantified)
        "n_ocr_recovered": _count("ocr_recovered"),
        "blocks_kept": int(pc.sum(deduped.column("n_blocks_kept")).as_py() or 0),
        "blocks_dropped": int(pc.sum(deduped.column("n_blocks_dropped")).as_py() or 0),
        "bytes_in": int(pc.sum(deduped.column("bytes_in")).as_py() or 0),
        "bytes_out": int(pc.sum(deduped.column("bytes_out")).as_py() or 0),
        "content_hash": xor_rollup_hex(deduped.column("text_sha256").to_pylist()),
    }


# Shuffle-payload compression for the single wide op.  The extracted text
# is ~40% of input bytes and utterly dominates what the url-hash groupby
# moves; ds.stats() at 3x bench volume shows the sort-reduce merge costing
# 1117 s remote wall vs 788 s for extraction itself.  zlib level 1 (~3:1
# on text) turns that byte-bound merge back into a row-bound one —
# measured 48k-row runs go 374-520 -> 620 docs/s, restoring flat
# throughput vs the 16k level.  On a real multi-node cluster the same
# trade (cheap CPU for shuffle bytes) pays on the network instead of the
# memory bus.  sha256/bytes_out are computed BEFORE compression and ride
# alongside, so the invariant "byte-identical extracted text per url"
# is checked end-to-end by the golden tests over the compressed path.
_SHUFFLE_ZLIB_LEVEL = 1


def compress_shuffle_payload(batch: pa.Table) -> pa.Table:
    """extracted_text: large_string → zlib large_binary (idempotent).

    The flagship path compresses inside ``ExtractActor`` at flush (so the
    object store never holds uncompressed text); this standalone form
    remains for query-side groupbys over datasets built without a codec —
    it is a no-op when the column is already binary."""
    col = batch.column("extracted_text")
    if pa.types.is_large_binary(col.type):
        return batch
    bin_arr = col.cast(pa.large_binary()).combine_chunks()  # zero-copy view
    comp = pa.array(
        [zlib.compress(s.as_buffer(), _SHUFFLE_ZLIB_LEVEL) for s in bin_arr],
        pa.large_binary(),
    )
    i = batch.schema.get_field_index("extracted_text")
    return batch.set_column(i, "extracted_text", comp)


def decompress_shuffle_payload(tbl: pa.Table) -> pa.Table:
    """Inverse of :func:`compress_shuffle_payload` (idempotent); the
    binary→string cast re-validates UTF-8 on the restored bytes."""
    col = tbl.column("extracted_text")
    if not pa.types.is_large_binary(col.type):
        return tbl
    texts = pa.array(
        [zlib.decompress(c.as_buffer()) for c in col.combine_chunks()],
        pa.large_binary(),
    ).cast(pa.large_string())
    i = tbl.schema.get_field_index("extracted_text")
    return tbl.set_column(i, "extracted_text", texts)


class PartitionFinalizer:
    """``map_groups`` callable: one url-hash partition in → one lineage row
    out; optionally commits the partition Parquet + manifest atomically.

    Analogue of the reference's run-stats + ledger freeze
    (docling_graph/core/extractors/contracts/dense/orchestrator.py:
    2010-2180) — but per-partition and resumable."""

    def __init__(self, out_dir: str | None) -> None:
        self.out_dir = out_dir

    def __call__(self, group: pa.Table) -> pa.Table:
        part_id = group.column("part_id")[0].as_py()
        # dedup BEFORE decompressing: text is not a sort key, so only the
        # surviving (latest-wins) rows pay the decompress
        deduped = decompress_shuffle_payload(_dedup_latest_wins(group))
        rec = _lineage_record(part_id, deduped)
        if self.out_dir:
            write_partition_atomic(
                self.out_dir, part_id, deduped.drop_columns(["part_id"]), rec
            )
        return pa.Table.from_pylist([rec], schema=LINEAGE_SCHEMA)


# ---------------------------------------------------------------------------
# pipeline assembly


def _resolve_parser(parser_cls, shuffle_codec: str | None,
                    ocr_backend: type | None = None):
    """Duck-typed backend injection (the reference's
    ``PipelineConfig.llm_client`` protocol injection, config.py:161-165 +
    protocols.py:239-283, re-expressed for the extract stage): a custom
    class slots in where ``ExtractActor`` goes, validated structurally
    WITHOUT instantiating on the driver (its ``__init__`` may load a
    model stack) — it is constructed in the worker once per input block.
    ``ocr_backend`` (state.protocols.OcrBackend class) is validated the
    same way and handed to the parser's constructor, which instantiates
    it next to its warm parser state.  Returns ``(cls, ctor_kwargs)``."""
    import inspect

    from docling_graph_ray.state.protocols import (
        ocr_backend_class_defines_recognize,
        stage_class_defines_call,
    )

    if ocr_backend is not None and not ocr_backend_class_defines_recognize(
            ocr_backend):
        raise TypeError(
            f"{getattr(ocr_backend, '__name__', ocr_backend)!r} is not an "
            "OCR backend: it must be a class defining recognize(raw) "
            "(see state.protocols.OcrBackend)"
        )
    if parser_cls is None:
        kwargs = {"shuffle_codec": shuffle_codec}
        if ocr_backend is not None:
            kwargs["ocr_backend"] = ocr_backend
        return ExtractActor, kwargs
    if not stage_class_defines_call(parser_cls):
        raise TypeError(
            f"{getattr(parser_cls, '__name__', parser_cls)!r} is not a "
            "batch stage: it must be a class defining __call__(batch) "
            "(see state.protocols.BatchStage)"
        )
    params = inspect.signature(parser_cls.__init__).parameters
    kwargs: dict = {}
    if "shuffle_codec" in params:
        kwargs["shuffle_codec"] = shuffle_codec
    elif shuffle_codec:
        raise TypeError(
            f"{parser_cls.__name__} does not accept shuffle_codec= but "
            f"the pipeline was asked for {shuffle_codec!r} payload "
            "compression — add the kwarg (compress at flush, see "
            "ExtractActor.__init__) or pass shuffle_codec=None"
        )
    if ocr_backend is not None:
        if "ocr_backend" not in params:
            raise TypeError(
                f"{parser_cls.__name__} does not accept ocr_backend= but "
                "an OCR backend was injected — add the kwarg "
                "(instantiate in __init__, route image_only rows; see "
                "ExtractActor) or drop the backend"
            )
        kwargs["ocr_backend"] = ocr_backend
    return parser_cls, kwargs


#: rows per parser call — a window of giant rows yields its output before
#: the next window is parsed, so one block never holds all its output
_WINDOW_ROWS = 32


def _lanes(classified, shuffle_codec: str | None = None, parser_cls=None,
           ocr_backend: type | None = None, done: pa.Array | None = None):
    """The extraction stage, one parse per row, as a plain task UDF: Ray
    fuses it and the classify before it into the read, so one task reads,
    classifies and extracts each input block, and raw html never enters
    the object store.  No ``batch_size`` or ``concurrency`` is passed: in
    Ray 2.49 either one blocks that fusion (a minimum bundle size below
    the row-changing read; task pools of unequal size).

    The parser is built in the worker once per block and called on
    zero-copy ``_WINDOW_ROWS``-row slices of it; ``done`` (part ids
    already committed, on resume) filters each window before its parse."""
    cls, ctor_kwargs = _resolve_parser(parser_cls, shuffle_codec, ocr_backend)

    def stage(block: pa.Table):
        parser = cls(**ctor_kwargs)
        for off in range(0, block.num_rows, _WINDOW_ROWS):
            window = block.slice(off, _WINDOW_ROWS)
            if done is not None:
                window = window.filter(
                    pc.invert(pc.is_in(window.column("part_id"), value_set=done))
                )
                if not window.num_rows:
                    continue
            out = parser(window)
            if isinstance(out, Iterator):
                yield from out
            else:
                yield out

    # the operator is named after the UDF: MapBatches(ExtractActor)
    stage.__name__ = cls.__name__
    return classified.map_batches(stage, batch_format="pyarrow")


def _read_row_groups(row_groups: list[tuple[str, int]]):
    """Read task body: one table per row group, so a task holds one row
    group at a time whatever the bin's size."""
    files: dict[str, pq.ParquetFile] = {}
    for path, index in row_groups:
        if path not in files:
            files[path] = pq.ParquetFile(path)
        yield files[path].read_row_group(index, use_threads=False)


class _RowGroupBinsDatasource(Datasource):
    """Parquet row groups read as contiguous bins of near-equal row-group
    count, one read task per bin.

    Named ``Parquet`` so the fused operator keeps the name
    ``ReadParquet->MapBatches(classify)->MapBatches(ExtractActor)``."""

    def __init__(self, row_groups: list[tuple[str, int, int, int]]) -> None:
        # (path, row-group index, num_rows, total_byte_size), in file order
        self._row_groups = row_groups

    def get_name(self) -> str:
        return "Parquet"

    def estimate_inmemory_data_size(self) -> None:
        # no estimate: Ray splits the blocks of a read it expects to be
        # large (``SplitBlocks``), and a split read does not fuse
        return None

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        rgs = self._row_groups
        n, k = len(rgs), min(parallelism, len(rgs))
        tasks = []
        for part in (rgs[i * n // k:(i + 1) * n // k] for i in range(k)):
            meta = BlockMetadata(
                num_rows=sum(rg[2] for rg in part),
                size_bytes=sum(rg[3] for rg in part),
                input_files=sorted({rg[0] for rg in part}),
                exec_stats=None,
            )
            tasks.append(ReadTask(
                partial(_read_row_groups, [(rg[0], rg[1]) for rg in part]),
                meta,
            ))
        return tasks


def read_pages_parquet(path: str):
    """Read a pages Parquet directory: one read task per file, or, when the
    directory has fewer files than the cluster has CPUs, one task per bin
    of row groups.

    Each read task is one task of the fused read → classify → extract
    operator (``_lanes``), so the read's task count is the extract
    stage's parallelism.  With as many files as CPUs or more, it reads
    ``read_parquet(override_num_blocks=n_files)``: one task per file.  A
    read planned with more blocks than tasks splits its output
    (``SplitBlocks``), and a split read does not fuse; and Ray's default
    planning targets ~200 blocks whatever the input size, so a
    bench-scale input fanned into ~180 blocks of a few dozen rows and the
    url-hash groupby became an O(blocks²) tiny-object shuffle (measured
    16.4 s vs 3.7 s for the identical sf0.1 flagship run).

    With fewer files than CPUs, one task per file leaves CPUs idle (a
    single-file input extracted on 1 of 4 CPUs), so the row groups of all
    files, in file order, are cut into ``min(row groups, CPUs)``
    contiguous bins of near-equal row-group count, one read task each: a
    file of at most as many row groups as CPUs (perfbench's
    ``giant_skew``: one file, two row groups) gets a task per row group.
    Only the files < CPUs case splits: one task per row
    group on a 4-file, 8-row-group input with 4 CPUs (perfbench's
    ``resume_half``) ran slower than one task per file, 1589–1668 vs
    1705–1820 docs/s over three interleaved pairs.

    Falls back to Ray's default planning for non-local paths (no cheap
    listing) and for a directory with no top-level ``.parquet`` file, and
    to one task per file when a file has no row group or no Ray session
    is up yet (no CPU count to plan for).
    """
    import os

    import ray

    try:
        files = sorted(
            e.path
            for e in os.scandir(path)
            if e.is_file() and e.name.endswith(".parquet")
        )
    except OSError:
        return ray.data.read_parquet(path)
    cpus = ray.cluster_resources().get("CPU", 0) if ray.is_initialized() else 0
    if 0 < len(files) < cpus:
        metas = [pq.read_metadata(f) for f in files]
        if all(m.num_row_groups for m in metas):
            row_groups = [
                (f, i, m.row_group(i).num_rows, m.row_group(i).total_byte_size)
                for f, m in zip(files, metas)
                for i in range(m.num_row_groups)
            ]
            return ray.data.read_datasource(
                _RowGroupBinsDatasource(row_groups),
                override_num_blocks=min(len(row_groups), int(cpus)),
            )
    return ray.data.read_parquet(path, override_num_blocks=len(files) or None)


def extract_pages_dataset(
    pages,
    *,
    num_partitions: int = 16,
    giant_bytes: int = DEFAULT_GIANT_BYTES,
    shuffle_codec: str | None = None,
    parser_cls=None,
    ocr_backend: type | None = None,
):
    """pages Dataset → extracted Dataset (NOT deduped; no shuffle).

    The narrow part of the pipeline, for callers that want the extracted
    rows themselves (queries, tests).  Pass ``shuffle_codec="zlib"`` when
    the result feeds a wide op (``dedup_extracted`` detects it and skips
    its own compress pass).  ``parser_cls`` injects a custom extraction
    backend (duck-typed, ``state.protocols.BatchStage``) in place of
    ``ExtractActor`` — the reference's custom-backend protocol surface
    (docling_graph/protocols.py:1-301; docs/usage/advanced/
    custom-backends.md)."""
    classified = pages.map_batches(
        make_classifier(num_partitions, giant_bytes), batch_format="pyarrow"
    )
    return _lanes(classified, shuffle_codec, parser_cls, ocr_backend)


def run_extract_pipeline(
    pages,
    *,
    out_dir: str | None = None,
    num_partitions: int = 16,
    giant_bytes: int = DEFAULT_GIANT_BYTES,
    resume: bool = True,
    shuffle_codec: str | None = "zlib",
    parser_cls=None,
    ocr_backend: type | None = None,
):
    """Full pipeline; returns the lineage Dataset (one row per partition).

    With ``out_dir`` set, each partition's Parquet + manifest is committed
    atomically inside the groupby; on a re-run with ``resume=True``,
    already-committed partitions are filtered out BEFORE the parse.
    ``shuffle_codec="zlib"`` (default) compresses the extracted-text
    payload INSIDE the extract stage (see ``ExtractActor.__init__``), so
    the object store and the wide op only ever hold compressed text."""
    classified = pages.map_batches(
        make_classifier(num_partitions, giant_bytes), batch_format="pyarrow"
    )
    done = completed_parts(out_dir) if out_dir and resume else None
    if shuffle_codec not in (None, "zlib"):
        raise ValueError(f"unknown shuffle_codec: {shuffle_codec!r}")
    extracted = _lanes(classified, shuffle_codec, parser_cls, ocr_backend,
                       pa.array(sorted(done), pa.int32()) if done else None)
    finalizer = PartitionFinalizer(out_dir)

    def finalize_partition(group: pa.Table) -> pa.Table:
        return finalizer(group)

    lineage = extracted.groupby("part_id").map_groups(
        finalize_partition, batch_format="pyarrow"
    )
    # every operator after the extract waits behind the groupby's sort, so
    # a CPU reserved for it idles until extraction is over; the setting
    # goes on a private copy of the DataContext, which the plan otherwise
    # shares with the caller's ``pages``
    lineage = Dataset.copy(lineage, _deep_copy=True)
    lineage.context.op_resource_reservation_enabled = False
    return lineage


def dedup_extracted(extracted, shuffle_codec: str | None = "zlib"):
    """Deduped extracted rows (latest-wins per url) via the same url-hash
    groupby, without writing — used by queries/tests.  Applies the same
    shuffle-payload compression as ``run_extract_pipeline`` (text is not
    a sort key; only surviving rows pay the decompress)."""
    if shuffle_codec == "zlib":
        extracted = extracted.map_batches(
            compress_shuffle_payload, batch_format="pyarrow"
        )

    def dedup_group(group: pa.Table) -> pa.Table:
        return decompress_shuffle_payload(_dedup_latest_wins(group))

    return extracted.groupby("part_id").map_groups(
        dedup_group, batch_format="pyarrow"
    )
