"""The flagship pipeline: pages → extracted text + spans + lineage.

Ray-Data-first shape (SURVEY.md §7) — a LINEAR chain, one source scan:

    read pages, one task per bin of row groups planned from the footers
    (one file per task with as many files as CPUs), crawler text left in
    storage               (url, warc_ts, html, lang, _src_file, _src_row)
      → classify: lane + part_id                      (cheap, vectorized)
      → map_batches(ExtractActor stage)               (plain task UDF)
          - read, classify and extract are all task UDFs, so Ray FUSES
            them into one operator,
            ReadParquet->MapBatches(classify)->MapBatches(ExtractActor):
            each task reads a bin, classifies and extracts it
          - the parser (ExtractActor) is built inside that task once per
            block (a task's row groups reach it as one block) and called
            on 32-row windows: HTML rows (any size) decode → parse →
            score → text+spans, giant rows handled by sub-batch yields;
            PDF/binary rows parsed with the parser's warm state
            (__init__); a row that fails to parse reads its crawler text
            from disk (``crawler_text``)
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
- the read makes enough tasks for the CPUs: it reads contiguous bins of
  row groups, one task each, as many as the CPUs or the files if more
  (never more than the pieces), and cuts a row group
  holding more than a CPU's share of the html bytes (the footer records
  them) into pieces of near-equal bytes that re-read it
  (``read_pages_parquet``), so neither a one-file input nor one giant
  row group is one task;
- the read skips the crawler ``text`` column, which only a row that
  fails to parse needs: each row carries its source file and row, and
  ``crawler_text`` reads the text of such a row from its row group;
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

import os
import re
from collections.abc import Iterator
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.fs as pafs
import pyarrow.parquet as pq
import ray
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


def make_classifier(num_partitions: int):
    def classify(batch: pa.Table) -> pa.Table:
        html = batch.column("html")
        nbytes = pc.binary_length(html).cast(pa.int64())
        prefix = pc.binary_slice(html, 0, len(PDF_MAGIC))
        is_pdf = pc.fill_null(pc.equal(prefix, PDF_MAGIC), False)
        giant = pc.and_(pc.invert(is_pdf),
                        pc.greater_equal(nbytes, DEFAULT_GIANT_BYTES))
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
# codec variant: extracted_text rides as zstd large_binary (see
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

_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def _replace_surrogates(acc: dict) -> None:
    """Replace the lone surrogates UTF-8 cannot encode with U+FFFD, in
    each accumulated row's text and span strings, in place.  A
    ``"\\ud800"`` escape in DoclingDocument JSON decodes to one (the
    html lane's ``html.unescape`` already maps ``&#xD800;`` to U+FFFD);
    a row that had one and parsed ``ok`` counts as ``salvaged``."""
    for i, text in enumerate(acc["extracted_text"]):
        acc["extracted_text"][i], n = _SURROGATE_RE.subn("\ufffd", text)
        for span in acc["spans"][i]:
            for k, v in span.items():
                if isinstance(v, str):
                    span[k], m = _SURROGATE_RE.subn("\ufffd", v)
                    n += m
        if n and acc["parse_status"][i] == "ok":
            acc["parse_status"][i] = "salvaged"


class ExtractActor(PdfParseActor):
    """Generator batch parser: classified pages in, _STAGE_SCHEMA
    sub-batches out.

    The flagship builds it inside the fused read task, once per input
    block, and calls it on that block's 32-row windows (``_lanes``); the
    name stays ``ExtractActor`` because the stage's operator takes it.
    A block holds all the rows a read task yields, several row groups
    or files' worth, so anything taken per row, such as the crawler
    text of a row that fails to parse (``crawler_text``), is taken from
    that row's own columns, never once per block.
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
        """``shuffle_codec="zstd"`` (the one codec; ``None`` for plain
        text) compresses each row's ``extracted_text`` to one zstd frame
        AT FLUSH, with the same helper as ``compress_shuffle_payload``,
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
        _check_codec(shuffle_codec)
        self.shuffle_codec = shuffle_codec
        # the crawler text of the last row group a failed row read
        # (``crawler_text``): the failed rows of a block come in row order
        self.source_text: dict = {}
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

        def new_acc():
            return {
                "idx": [], "extracted_text": [], "spans": [],
                "n_blocks_kept": [], "n_blocks_dropped": [], "parse_status": [],
                "bytes_in": [],
            }

        def flush(acc):
            try:
                return build(acc)
            except UnicodeEncodeError:
                _replace_surrogates(acc)
                return build(acc)

        def build(acc):
            idx = pa.array(acc["idx"], pa.int64())
            # single-encode rule: the Arrow array build is the ONE UTF-8
            # encode; sha256 + bytes_out come from the array's own buffer
            text_arr, shas, bytes_out = text_column_with_digests(
                acc["extracted_text"]
            )
            schema = _STAGE_SCHEMA
            if self.shuffle_codec == "zstd":
                # sha256/bytes_out above come from the uncompressed
                # buffers, so the byte-identity invariant still rides
                # alongside the compressed payload
                text_arr = _zstd_frames(text_arr)
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
                if (r["parse_status"] == "failed"
                        and (fb := crawler_text(batch, i, self.source_text))):
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
# dominates what the url-hash groupby moves, and the sort-reduce merge is
# byte-bound, so the text crosses the shuffle compressed: one zstd frame
# per row (Arrow's own codec, its default level 1).  Measured in one
# process on one core of a 4-CPU box, best of 5, over perfbench's seed-3
# inputs: the 42 MB of ``giant_skew`` text compresses in 0.019 s and is
# restored in 0.059 s at 122:1, where zlib level 1 took 0.112 s and
# 0.137 s at 51:1; the 38 MB of ``resume_half`` text takes 0.039 s and
# 0.069 s at 30:1 (zlib: 0.140 s and 0.113 s at 23:1).  On a multi-node
# cluster the same trade (cheap CPU for shuffle bytes) pays on the
# network.  sha256/bytes_out are computed BEFORE compression and ride
# alongside, so the invariant "byte-identical extracted text per url"
# is checked end-to-end by the golden tests over the compressed path.
_SHUFFLE_CODEC = "zstd"
_ZSTD_MAGIC = b"\x28\xb5\x2f\xfd"


def _check_codec(shuffle_codec: str | None) -> None:
    if shuffle_codec not in (None, _SHUFFLE_CODEC):
        raise ValueError(f"unknown shuffle_codec: {shuffle_codec!r} "
                         f"(use {_SHUFFLE_CODEC!r} or None)")


def _zstd_content_size(frame) -> int:
    """The decompressed size a zstd frame header records (RFC 8878
    §3.1.1.1), so each frame decodes without a size stored beside it.
    Arrow writes it on every frame; a header without one, or cut short,
    raises."""
    head = bytes(memoryview(frame)[:18])
    if len(head) < 6 or head[:4] != _ZSTD_MAGIC:
        raise ValueError("not a zstd frame")
    desc = head[4]
    single_segment = desc >> 5 & 1
    pos = 5 + (not single_segment) + (0, 1, 2, 4)[desc & 3]
    width = (single_segment, 2, 4, 8)[desc >> 6]
    if not width:
        raise ValueError("zstd frame without a content size")
    if len(head) < pos + width:
        raise ValueError("truncated zstd frame header")
    size = int.from_bytes(head[pos:pos + width], "little")
    return size + 256 if width == 2 else size


def _zstd_frames(texts) -> pa.Array:
    """String array → one zstd frame per row, as large_binary."""
    return pa.array(
        [pa.compress(s.as_buffer(), codec=_SHUFFLE_CODEC, asbytes=True)
         for s in texts.cast(pa.large_binary())],  # zero-copy views
        pa.large_binary(),
    )


def compress_shuffle_payload(batch: pa.Table) -> pa.Table:
    """extracted_text: large_string → zstd large_binary (idempotent).

    The flagship path compresses inside ``ExtractActor`` at flush (so the
    object store never holds uncompressed text); this standalone form
    remains for query-side groupbys over datasets built without a codec —
    it is a no-op when the column is already binary."""
    col = batch.column("extracted_text")
    if pa.types.is_large_binary(col.type):
        return batch
    i = batch.schema.get_field_index("extracted_text")
    return batch.set_column(i, "extracted_text", _zstd_frames(col))


def decompress_shuffle_payload(tbl: pa.Table) -> pa.Table:
    """Inverse of :func:`compress_shuffle_payload` (idempotent); the
    binary→string cast re-validates UTF-8 on the restored bytes."""
    col = tbl.column("extracted_text")
    if not pa.types.is_large_binary(col.type):
        return tbl
    frames = [c.as_buffer() for c in col.combine_chunks()]
    sizes = [_zstd_content_size(f) for f in frames]
    # one join into the column's data buffer: building the array from
    # per-row bytes objects costs twice as much on giant rows
    data = b"".join([
        pa.decompress(f, n, codec=_SHUFFLE_CODEC, asbytes=True)
        for f, n in zip(frames, sizes)
    ])
    offsets = np.cumsum([0, *sizes], dtype=np.int64)
    texts = pa.Array.from_buffers(
        pa.large_binary(), len(sizes),
        [None, pa.py_buffer(offsets), pa.py_buffer(data)],
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
        # resolved here, in the driver: a worker's cwd is not the caller's
        self.out_dir = out_dir and os.path.abspath(out_dir)

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

    _check_codec(shuffle_codec)

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


def _row_group_piece(table: pa.Table, j: int, k: int) -> pa.Table:
    """Piece ``j`` of ``k`` of a row group: the rows whose html starts in
    the ``j``-th of ``k`` equal cuts of the row group's html bytes,
    ``before * k // total == j`` with ``before`` the html bytes of the
    rows ahead of it (null html counts 0).  ``before`` never
    decreases, so each piece is one contiguous zero-copy slice and the
    pieces, in order, give back the row group row for row; a row larger
    than a cut stays whole in the piece it starts in, and a row group
    with no html bytes is all piece 0."""
    nbytes = (pc.fill_null(pc.binary_length(table.column("html")), 0)
              .cast(pa.int64()).to_numpy())
    before = np.cumsum(nbytes) - nbytes
    cut = before * k // max(int(nbytes.sum()), 1)
    lo, hi = np.searchsorted(cut, [j, j + 1])
    return table.slice(lo, hi - lo)


#: per-row source columns of a Parquet read: the file (dictionary string,
#: an absolute path or a URI, which ``pq.ParquetFile`` opens through its
#: pyarrow filesystem) and the row, whence ``crawler_text`` reads the
#: crawler text of a failed row
_SRC_FILE, _SRC_ROW = "_src_file", "_src_row"


def _row_group_starts(meta) -> np.ndarray:
    """First row of each row group of a Parquet file, then its row count."""
    return np.cumsum([0] + [meta.row_group(i).num_rows
                            for i in range(meta.num_row_groups)])


def _read_row_groups(pieces: list[tuple[str, int, int, int]]):
    """Read task body: one table per ``(path, row group, j, k)``, piece
    ``j`` of ``k`` of the row group (the whole of it when ``k`` is 1).

    The crawler ``text`` column is not read: each row carries its source
    instead (``_src_file``, ``_src_row``), and ``crawler_text`` reads the
    text of the rare row that fails to parse.  The rows are tagged one
    by one because the tables of one task reach the extract stage as one
    block: Ray's read concatenates a task's tables up to its target block
    size, so a bin of two row groups is one block of both."""
    files: dict[str, tuple] = {}
    for path, index, j, k in pieces:
        if path not in files:
            f = pq.ParquetFile(path)
            files[path] = (f, [c for c in f.schema_arrow.names if c != "text"],
                           _row_group_starts(f.metadata))
        f, columns, starts = files[path]
        table = f.read_row_group(index, columns=columns, use_threads=False)
        n = table.num_rows
        table = table.append_column(_SRC_FILE, pa.DictionaryArray.from_arrays(
            pa.array(np.zeros(n, np.int32)), pa.array([path]),
        )).append_column(_SRC_ROW, pa.array(
            np.arange(starts[index], starts[index] + n, dtype=np.int64)))
        yield table if k == 1 else _row_group_piece(table, j, k)


def crawler_text(batch: pa.Table, i: int,
                 cache: dict | None = None) -> str | None:
    """The crawler ``text`` of row ``i`` of a pages batch: the fallback of
    a row whose html fails to parse.

    In-memory, JSONL and WARC pages carry the ``text`` column.  A Parquet
    read (``read_pages_parquet``) leaves it in storage and tags each row
    with its source file and row; the text is then read from that
    row's row group, so a read in which no row fails never decodes the
    column.  ``cache``, a dict the caller keeps (``ExtractActor`` keeps
    one per parser), holds the last row group's text, so the failed rows
    of one row group read it once.  ``None`` when the batch has
    neither."""
    names = batch.column_names
    if "text" in names:
        return batch.column("text")[i].as_py()
    if _SRC_FILE not in names:
        return None
    path = batch.column(_SRC_FILE)[i].as_py()
    row = batch.column(_SRC_ROW)[i].as_py()
    cache = {} if cache is None else cache
    hit = cache.get(path)
    if hit is None or not hit[0] <= row < hit[0] + len(hit[1]):
        f = pq.ParquetFile(path)
        starts = _row_group_starts(f.metadata)
        index = int(np.searchsorted(starts, row, side="right")) - 1
        cache.clear()
        cache[path] = hit = (int(starts[index]), f.read_row_group(
            index, columns=["text"], use_threads=False).column("text"))
    return hit[1][row - hit[0]].as_py()


def _plan_pieces(files: list[str], metas: list, cpus: int) -> list[tuple]:
    """Row groups of ``files``, in file order, as read pieces
    ``(path, row group, j, k, num_rows, size_bytes)``: piece ``j`` of ``k``.

    Planned from the footer's html bytes: a row group of ``b`` bytes
    against a per-CPU share of ``total / cpus`` is cut into
    ``max(1, min(round(b / share), b // DEFAULT_GIANT_BYTES))`` pieces
    (``_row_group_piece``), so a row group holding several CPUs' share
    of the html is read by as many tasks, while one under the giant-row
    threshold stays whole.  A file with no row group gives no piece.  A
    split piece's row count is unknown until it is read (``None``);
    ``size_bytes`` leaves out the crawler text, which the read skips."""
    row_groups = []
    for f, m in zip(files, metas):
        names = m.schema.names
        html = names.index("html")
        text = names.index("text") if "text" in names else None
        for i in range(m.num_row_groups):
            rg = m.row_group(i)
            size = rg.total_byte_size - (
                0 if text is None else rg.column(text).total_uncompressed_size)
            row_groups.append((f, i, rg.num_rows, size,
                               rg.column(html).total_uncompressed_size))
    share = sum(rg[4] for rg in row_groups) / max(cpus, 1)
    planned = []
    for f, i, num_rows, size, html_bytes in row_groups:
        k = (max(1, min(round(html_bytes / share),
                        html_bytes // DEFAULT_GIANT_BYTES))
             if html_bytes else 1)
        planned.extend((f, i, j, k, num_rows if k == 1 else None, size // k)
                       for j in range(k))
    return planned


class _RowGroupBinsDatasource(Datasource):
    """Parquet row-group pieces (``_plan_pieces``) read as contiguous bins
    of near-equal piece count, one read task per bin.

    Named ``Parquet`` so the fused operator keeps the name
    ``ReadParquet->MapBatches(classify)->MapBatches(ExtractActor)``."""

    def __init__(self, pieces: list[tuple]) -> None:
        # (path, row group, j, k, num_rows, size_bytes), in read order
        self._pieces = pieces

    def get_name(self) -> str:
        return "Parquet"

    def estimate_inmemory_data_size(self) -> None:
        # no estimate: Ray splits the blocks of a read it expects to be
        # large (``SplitBlocks``), and a split read does not fuse
        return None

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        ps = self._pieces
        n, k = len(ps), min(parallelism, len(ps))
        tasks = []
        for part in (ps[i * n // k:(i + 1) * n // k] for i in range(k)):
            rows = [p[4] for p in part]
            meta = BlockMetadata(
                num_rows=None if None in rows else sum(rows),
                size_bytes=sum(p[5] for p in part),
                input_files=sorted({p[0] for p in part}),
                exec_stats=None,
            )
            tasks.append(ReadTask(
                partial(_read_row_groups, [p[:4] for p in part]), meta,
            ))
        return tasks


def read_pages_parquet(path: str):
    """Read pages Parquet as bins of row-group pieces planned from the
    files' footers, ``min(pieces, max(CPUs, files))`` read tasks, each one
    task of the fused read → classify → extract operator (``_lanes``).

    ``path`` is a local path (absolute, or relative to the caller's
    working directory) or a URI (``file://``, ``s3://``, ...) naming a
    Parquet file or a directory, whose ``.parquet`` files at any depth
    are read in path order, save those under a name that starts with
    ``.`` or ``_``; a hive ``key=value`` directory adds no column.  A
    path with no ``.parquet`` file raises here.

    A row group with more than about one CPU's share of the html bytes is
    cut into pieces of near-equal html bytes, each re-reading it
    (``_plan_pieces``), and the pieces, in file order, into contiguous
    bins of near-equal piece count: perfbench's ``giant_skew`` (one file,
    two row groups of ~23 MB of html) reads as four tasks, its
    ``resume_half`` (4 files of 2 row groups, 4 CPUs) as one per file.
    The task count is fixed here: a read planned with more blocks than
    tasks splits its output (``SplitBlocks``), which does not fuse; and
    Ray's default ~200 blocks made a bench-scale url-hash groupby an
    O(blocks²) tiny-object shuffle (16.4 s vs 3.7 s on the sf0.1
    flagship).  Without a Ray session (no CPU count) the input reads as
    one bin per file and no row group is split.

    The crawler ``text``, only the fallback of a row whose html fails to
    parse (20.7 of the 48.7 MB of a ``giant_skew`` row group), is left
    in storage: each row carries its file (``_src_file``: the absolute
    path, or ``scheme://path`` off the local filesystem) and row, from
    which ``crawler_text`` reads a failed row's text.
    """
    fs, base = pafs.FileSystem.from_uri(
        path if "://" in path else os.path.abspath(path))
    scheme = "" if fs.type_name == "local" else path.split("://")[0] + "://"
    selector = pafs.FileSelector(base, recursive=True)
    files = [base] if fs.get_file_info(base).is_file else sorted(
        i.path for i in fs.get_file_info(selector)
        if i.is_file and i.path.endswith(".parquet") and not any(
            c.startswith((".", "_")) for c in i.path[len(base):].split("/")))
    if not files:
        raise FileNotFoundError(f"no .parquet file under {path!r}")
    cpus = (int(ray.cluster_resources().get("CPU", 0))
            if ray.is_initialized() else 0)
    metas = [pq.read_metadata(f, filesystem=fs) for f in files]
    pieces = _plan_pieces([scheme + f for f in files], metas, cpus)
    return ray.data.read_datasource(
        _RowGroupBinsDatasource(pieces),
        override_num_blocks=max(1, min(len(pieces), max(cpus, len(files)))),
    )


def extract_pages_dataset(
    pages,
    *,
    num_partitions: int = 16,
    shuffle_codec: str | None = None,
    parser_cls=None,
    ocr_backend: type | None = None,
):
    """pages Dataset → extracted Dataset (NOT deduped; no shuffle).

    The narrow part of the pipeline, for callers that want the extracted
    rows themselves (queries, tests).  Pass ``shuffle_codec="zstd"`` when
    the result feeds a wide op (``dedup_extracted`` detects it and skips
    its own compress pass).  ``parser_cls`` injects a custom extraction
    backend (duck-typed, ``state.protocols.BatchStage``) in place of
    ``ExtractActor`` — the reference's custom-backend protocol surface
    (docling_graph/protocols.py:1-301; docs/usage/advanced/
    custom-backends.md)."""
    classified = pages.map_batches(
        make_classifier(num_partitions), batch_format="pyarrow"
    )
    return _lanes(classified, shuffle_codec, parser_cls, ocr_backend)


def run_extract_pipeline(
    pages,
    *,
    out_dir: str | None = None,
    num_partitions: int = 16,
    resume: bool = True,
    shuffle_codec: str | None = "zstd",
    parser_cls=None,
    ocr_backend: type | None = None,
):
    """Full pipeline; returns the lineage Dataset (one row per partition).

    With ``out_dir`` set, each partition's Parquet + manifest is committed
    atomically inside the groupby; on a re-run with ``resume=True``,
    already-committed partitions are filtered out BEFORE the parse.
    ``shuffle_codec="zstd"`` (default) compresses the extracted-text
    payload INSIDE the extract stage (see ``ExtractActor.__init__``), so
    the object store and the wide op only ever hold compressed text."""
    classified = pages.map_batches(
        make_classifier(num_partitions), batch_format="pyarrow"
    )
    done = completed_parts(out_dir) if out_dir and resume else None
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


def dedup_extracted(extracted, shuffle_codec: str | None = "zstd"):
    """Deduped extracted rows (latest-wins per url) via the same url-hash
    groupby, without writing — used by queries/tests.  Applies the same
    shuffle-payload compression as ``run_extract_pipeline`` (text is not
    a sort key; only surviving rows pay the decompress)."""
    _check_codec(shuffle_codec)
    if shuffle_codec:
        extracted = extracted.map_batches(
            compress_shuffle_payload, batch_format="pyarrow"
        )

    def dedup_group(group: pa.Table) -> pa.Table:
        return decompress_shuffle_payload(_dedup_latest_wins(group))

    return extracted.groupby("part_id").map_groups(
        dedup_group, batch_format="pyarrow"
    )
