"""Golden end-to-end: distributed pipeline == eager single-process oracle.

The north-rule invariant (BASELINE.json): extracted text must be
byte-identical per url, for any parallelism."""

import pandas as pd
import pyarrow as pa
import pytest

from docling_graph_ray.fixtures.pages import pages_dataset
from docling_graph_ray.pipelines.extract import (
    dedup_extracted,
    extract_pages_dataset,
    run_extract_pipeline,
)
from docling_graph_ray.pipelines.golden import golden_extract

N = 300
P = 8


@pytest.fixture(scope="module")
def golden():
    return golden_extract(N, profile="t1", num_partitions=P)


def test_extracted_text_byte_identical_per_url(ray_session, golden):
    gold_ded, _ = golden
    ded = dedup_extracted(
        extract_pages_dataset(pages_dataset(N, profile="t1"), num_partitions=P)
    )
    dt = ded.to_pandas().sort_values("url").reset_index(drop=True)
    gd = gold_ded.to_pandas().reset_index(drop=True)
    assert list(dt["url"]) == list(gd["url"])
    assert (dt["extracted_text"] == gd["extracted_text"]).all()
    assert (dt["text_sha256"] == gd["text_sha256"]).all()
    # span equality, not just text equality (bbox arrays → lists first)
    def norm(spans):
        return [
            {k: (list(v) if hasattr(v, "__len__") and not isinstance(v, str)
                 else v)
             for k, v in s.items()}
            for s in spans
        ]

    for a, b in zip(dt["spans"], gd["spans"]):
        assert norm(a) == norm(b)


def test_lineage_matches_golden(ray_session, golden, tmp_path):
    _, gold_lin = golden
    lineage = run_extract_pipeline(
        pages_dataset(N, profile="t1"),
        out_dir=str(tmp_path / "out"),
        num_partitions=P,
    )
    lt = lineage.to_pandas().sort_values("part_id").reset_index(drop=True)
    gl = gold_lin.to_pandas().sort_values("part_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(lt, gl)


def test_parse_status_population(ray_session, golden):
    gold_ded, _ = golden
    statuses = set(gold_ded.column("parse_status").to_pylist())
    # fixture guarantees ok + salvaged rows at this scale
    assert "ok" in statuses and "salvaged" in statuses


def test_giant_parse_cap_downgrades_to_salvaged():
    """html_giant rows above the per-row parse budget head-parse only and
    downgrade to 'salvaged' — the skew safety valve (truncation-ladder
    analogue; a 500 MB row must never hold a task hostage)."""
    import datetime

    import pyarrow as pa_

    from docling_graph_ray.pipelines.extract import ExtractActor

    body = ("<html><body><article>" +
            "<p>real paragraph content with many words here</p>" * 50 +
            "</article></body></html>").encode()

    class Capped(ExtractActor):
        giant_parse_cap = 256  # tiny budget for the test

    batch = pa_.table({
        "url": ["giant", "normal"],
        "warc_ts": pa_.array([datetime.datetime(2024, 1, 1)] * 2,
                             pa_.timestamp("us")),
        "lang": ["en", "en"],
        "html": pa_.array([body, body], pa_.binary()),
        "text": ["", ""],
        "lane": ["html_giant", "html"],
        "part_id": pa_.array([0, 0], pa_.int32()),
    })
    out = pa_.concat_tables(list(Capped()(batch)))
    rows = {r["url"]: r for r in out.to_pylist()}
    assert rows["giant"]["parse_status"] == "salvaged"
    assert rows["normal"]["parse_status"] == "ok"
    # the capped row parsed only its head
    assert len(rows["giant"]["extracted_text"]) < len(
        rows["normal"]["extracted_text"])
    assert rows["giant"]["extracted_text"]  # but is not empty


def test_fallback_text_read_only_for_failed_rows():
    """The actor reads the crawler ``text`` only for a row that failed to
    parse; its rows equal the golden kernel's (``extract_batch``, which
    hands every row's text to ``extract_html_doc``), fallback rows too."""
    import datetime
    import gzip

    import pyarrow as pa_

    from docling_graph_ray.pipelines.extract import ExtractActor
    from docling_graph_ray.stages.html_extract import extract_batch

    good = gzip.compress(b"<html><body><article><p>" + b"kept words " * 20
                         + b"</p></article></body></html>")
    corrupt = b"\x1f\x8b\x00\x00 not a gzip stream"
    batch = pa_.table({
        "url": ["corrupt-fb", "corrupt-nofb", "good", "corrupt-giant"],
        "warc_ts": pa_.array([datetime.datetime(2024, 1, 1)] * 4,
                             pa_.timestamp("us")),
        "lang": ["en"] * 4,
        "html": pa_.array([corrupt, corrupt, good, corrupt], pa_.binary()),
        "text": ["crawler fallback text", "", "unused text", "giant fallback"],
        "lane": ["html", "html", "html", "html_giant"],
        "part_id": pa_.array([0] * 4, pa_.int32()),
    })
    out = pa_.concat_tables(list(ExtractActor()(batch))).drop_columns(["part_id"])
    assert out.to_pylist() == extract_batch(batch).to_pylist()
    rows = {r["url"]: r for r in out.to_pylist()}
    assert rows["corrupt-fb"]["parse_status"] == "fallback_text"
    assert rows["corrupt-fb"]["extracted_text"] == "crawler fallback text"
    assert rows["corrupt-fb"]["spans"][0]["kind"] == "fallback"
    assert rows["corrupt-nofb"]["parse_status"] == "failed"
    assert rows["good"]["parse_status"] == "ok"
    assert rows["corrupt-giant"]["extracted_text"] == "giant fallback"


def test_shuffle_payload_codec_roundtrip():
    import pyarrow as pa

    from docling_graph_ray.pipelines.extract import (
        compress_shuffle_payload,
        decompress_shuffle_payload,
    )

    texts = ["", "plain ascii", "unicode — héllo wörld ✓", "x" * 100_000]
    # no bytes_out or any other size column: each value decodes alone
    t = pa.table({
        "url": pa.array([f"u{i}" for i in range(len(texts))]),
        "extracted_text": pa.array(texts, pa.large_string()),
    })
    comp = compress_shuffle_payload(t)
    assert pa.types.is_large_binary(comp.column("extracted_text").type)
    # one zstd frame per row
    frames = comp.column("extracted_text").to_pylist()
    assert all(f[:4] == b"\x28\xb5\x2f\xfd" for f in frames)
    # compression actually shrinks the repetitive payload
    assert len(frames[3]) < 1000
    # idempotent both directions; byte-identical round-trip
    comp2 = compress_shuffle_payload(comp)
    assert comp2.equals(comp)
    back = decompress_shuffle_payload(comp2)
    assert back.column("extracted_text").to_pylist() == texts
    assert decompress_shuffle_payload(back).equals(back)
    # schema position and names unchanged
    assert back.schema.names == t.schema.names
    # any subset in any order decodes (the finalizer decodes the rows
    # that survive its dedup, re-sorted)
    sub = decompress_shuffle_payload(comp.take([3, 0, 2]))
    assert sub.column("extracted_text").to_pylist() == [texts[3], texts[0],
                                                         texts[2]]
    # a truncated frame raises; it never decodes to some other text
    for row in (0, 2, 3):
        frame = frames[row]
        for cut in sorted({1, 4, 5, 6, len(frame) // 2, len(frame) - 1}):
            cut_tbl = pa.table({"extracted_text": pa.array(
                [frame[:cut]], pa.large_binary())})
            with pytest.raises((ValueError, OSError)):
                decompress_shuffle_payload(cut_tbl)


def test_zstd_is_the_only_shuffle_codec():
    """The codec value is checked on the driver: ``"zlib"``, the codec's
    old name, is refused by the parser, the pipeline's parser resolution
    and ``dedup_extracted``, with no alias."""
    from docling_graph_ray.pipelines.extract import (
        ExtractActor,
        _resolve_parser,
        dedup_extracted,
    )

    assert ExtractActor(shuffle_codec="zstd").shuffle_codec == "zstd"
    for bad in ("zlib", "gzip"):
        with pytest.raises(ValueError, match="shuffle_codec"):
            ExtractActor(shuffle_codec=bad)
        with pytest.raises(ValueError, match="shuffle_codec"):
            _resolve_parser(None, bad)
        with pytest.raises(ValueError, match="shuffle_codec"):
            dedup_extracted(None, shuffle_codec=bad)


def test_in_actor_codec_emits_compressed_blocks(ray_session):
    """The extract actor compresses AT FLUSH (shuffle_codec='zstd'), so
    downstream blocks — what the object store holds — carry large_binary
    text; without a codec they carry large_string.  The object store must
    never hold uncompressed text on the codec path: a downstream compress
    stage wedges the executor's per-operator memory budget once total
    uncompressed extract output exceeds the store (measured at 96k bench
    rows: 860 → 90 docs/s with every operator backpressured)."""
    import pyarrow as pa

    from docling_graph_ray.pipelines.extract import extract_pages_dataset

    for codec, expect in ((None, pa.types.is_large_string),
                          ("zstd", pa.types.is_large_binary)):
        ds = extract_pages_dataset(
            pages_dataset(64, profile="t1"), num_partitions=4,
            shuffle_codec=codec,
        )
        assert expect(ds.schema().base_schema.field("extracted_text").type)


def test_codec_and_plain_paths_write_identical_partitions(ray_session, tmp_path):
    """run_extract_pipeline(shuffle_codec='zstd') and (=None) commit
    byte-identical partition Parquet — the codec is a transport detail,
    invisible to consumers."""
    import pyarrow.parquet as pq

    outs = {}
    for codec in ("zstd", None):
        out = str(tmp_path / f"out_{codec}")
        run_extract_pipeline(
            pages_dataset(96, profile="t1"), out_dir=out,
            num_partitions=4, shuffle_codec=codec,
        ).materialize()
        t = pq.read_table(out).sort_by("url")
        outs[codec] = t
    assert outs["zstd"].schema == outs[None].schema
    assert outs["zstd"].equals(outs[None])
    import pyarrow as pa

    assert pa.types.is_large_string(outs["zstd"].schema.field("extracted_text").type)


def _ocr_pages_table():
    import datetime

    from docling_graph_ray.fixtures.pages import PAGES_SCHEMA
    from docling_graph_ray.fixtures.pdf_writer import (
        build_image_pdf,
        simple_text_pdf,
    )

    ts = datetime.datetime(2024, 1, 1)
    rows = [
        {"url": "http://x.test/scan", "warc_ts": ts,
         "html": build_image_pdf(n_pages=2), "text": None, "lang": "en"},
        {"url": "http://x.test/pdf", "warc_ts": ts,
         "html": simple_text_pdf(["hello pdf world"]), "text": None,
         "lang": "en"},
        {"url": "http://x.test/html", "warc_ts": ts,
         "html": b"<html><body><p>plain html body text here</p></body></html>",
         "text": None, "lang": "en"},
    ]
    return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)


def _fake_ocr_cls():
    """OcrBackend protocol stand-in, built INSIDE the caller so
    cloudpickle ships it by value (a module-level test class would be
    pickled by reference and the worker cannot import test modules).
    Deterministic text keyed to payload size — no OCR model in this
    container; the plumbing is what the tests pin: routing, spans,
    sha, lineage counter."""

    class FakeOcr:
        def recognize(self, raw: bytes) -> str:
            return f"ocr recovered {len(raw)} bytes"

    return FakeOcr


def _broken_ocr_cls():
    class BrokenOcr:
        def recognize(self, raw: bytes) -> str:
            raise RuntimeError("model exploded")

    return BrokenOcr


def test_ocr_backend_recovers_image_only(ray_session):
    import hashlib

    import ray.data

    from docling_graph_ray.pipelines.extract import extract_pages_dataset

    ds = ray.data.from_arrow(_ocr_pages_table())
    out = (extract_pages_dataset(ds, num_partitions=4,
                                 ocr_backend=_fake_ocr_cls())
           .to_pandas().set_index("url"))
    scan = out.loc["http://x.test/scan"]
    assert scan["parse_status"] == "ocr_recovered"
    assert scan["extracted_text"].startswith("ocr recovered ")
    assert scan["text_sha256"] == hashlib.sha256(
        scan["extracted_text"].encode()).hexdigest()
    assert [s["kind"] for s in scan["spans"]] == ["ocr"]
    # non-image rows are untouched by the backend
    assert out.loc["http://x.test/pdf", "parse_status"] == "ok"
    assert out.loc["http://x.test/html", "parse_status"] == "ok"


def test_ocr_backend_absent_and_broken_keep_image_only(ray_session):
    import ray.data

    from docling_graph_ray.pipelines.extract import extract_pages_dataset

    for backend in (None, _broken_ocr_cls()):
        ds = ray.data.from_arrow(_ocr_pages_table())
        out = (extract_pages_dataset(ds, num_partitions=4,
                                     ocr_backend=backend)
               .to_pandas().set_index("url"))
        scan = out.loc["http://x.test/scan"]
        assert scan["parse_status"] == "image_only"
        assert scan["extracted_text"] == ""


def test_ocr_lineage_counter(ray_session, tmp_path):
    import ray.data

    lineage = run_extract_pipeline(
        ray.data.from_arrow(_ocr_pages_table()),
        out_dir=str(tmp_path / "out"), num_partitions=2,
        ocr_backend=_fake_ocr_cls(),
    ).to_pandas()
    assert int(lineage["n_ocr_recovered"].sum()) == 1
    assert int(lineage["n_image_only"].sum()) == 0
    # without a backend the gap stays quantified, not recovered
    lineage2 = run_extract_pipeline(
        ray.data.from_arrow(_ocr_pages_table()),
        out_dir=str(tmp_path / "out2"), num_partitions=2,
    ).to_pandas()
    assert int(lineage2["n_ocr_recovered"].sum()) == 0
    assert int(lineage2["n_image_only"].sum()) == 1


def test_ocr_backend_validation(ray_session):
    import ray.data

    from docling_graph_ray.pipelines.extract import extract_pages_dataset

    class NotABackend:
        pass

    with pytest.raises(TypeError, match="OCR backend"):
        extract_pages_dataset(ray.data.from_arrow(_ocr_pages_table()),
                              ocr_backend=NotABackend)
