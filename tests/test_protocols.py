"""Backend protocol surface (SURVEY.md §2.11): built-in actors satisfy
the structural contracts; validate_stage rejects malformed plugins."""

import pyarrow as pa
import pytest

from docling_graph_ray.stages.multimodal import MediaFeatureActor
from docling_graph_ray.stages.pdf_parse import PdfParseActor
from docling_graph_ray.state.protocols import (
    BatchStage,
    DocumentParser,
    validate_stage,
)


def test_builtin_actors_are_batch_stages():
    assert isinstance(PdfParseActor(), BatchStage)
    assert isinstance(MediaFeatureActor(), BatchStage)


def test_pdf_actor_is_document_parser():
    assert isinstance(PdfParseActor(), DocumentParser)


def test_validate_stage_accepts_conforming_plugin():
    class MyStage:
        def __init__(self):
            self.n = 0

        def __call__(self, batch: pa.Table) -> pa.Table:
            return batch

    validate_stage(MyStage, batch=pa.table({"x": [1]}))


def test_validate_stage_rejects_required_args():
    class NeedsArgs:
        def __init__(self, model_path):
            pass

        def __call__(self, batch):
            return batch

    with pytest.raises(TypeError, match="no arguments"):
        validate_stage(NeedsArgs)


def test_validate_stage_rejects_non_callable():
    class NoCall:
        pass

    with pytest.raises(TypeError, match="__call__"):
        validate_stage(NoCall)


def test_validate_stage_rejects_wrong_return():
    class WrongReturn:
        def __call__(self, batch):
            return {"rows": []}

    with pytest.raises(TypeError, match="pyarrow.Table"):
        validate_stage(WrongReturn, batch=pa.table({"x": [1]}))


def test_stage_kind_dispatch():
    """Duck-typed dispatch tags (reference protocols.py:239-283
    get_backend_type / is_vlm_backend / is_llm_backend analogue)."""
    from docling_graph_ray.state.protocols import (
        get_stage_kind,
        is_batch_stage,
        is_document_parser,
        stage_class_defines_call,
    )

    parser = PdfParseActor()
    assert is_document_parser(parser) and is_batch_stage(parser)
    assert get_stage_kind(parser) == "document_parser"

    class PlainStage:
        def __call__(self, batch):
            return batch

    assert get_stage_kind(PlainStage()) == "batch_stage"
    assert not is_document_parser(PlainStage())
    assert get_stage_kind(object()) == "unknown"
    assert stage_class_defines_call(PlainStage)
    assert stage_class_defines_call(PdfParseActor)
    assert not stage_class_defines_call(int("1").__class__ and type("X", (), {}))


def test_custom_parser_injection(ray_session):
    """A custom backend class slots into the flagship pipeline where
    ExtractActor goes (the reference's custom-backend injection,
    config.py:161-165 / docs custom-backends.md): same schema out, the
    custom transform visibly applied."""
    import shutil
    import tempfile

    from docling_graph_ray.fixtures.pages import pages_dataset
    from docling_graph_ray.pipelines.extract import (
        ExtractActor,
        extract_pages_dataset,
        run_extract_pipeline,
    )

    class ShoutingExtractor(ExtractActor):
        """Warm-state custom backend: uppercases every extracted text."""

        def __call__(self, batch):
            import pyarrow.compute as _pc
            for sub in super().__call__(batch):
                if self.shuffle_codec is None:
                    idx = sub.schema.get_field_index("extracted_text")
                    sub = sub.set_column(
                        idx, sub.schema.field(idx),
                        _pc.utf8_upper(
                            sub.column("extracted_text").cast(pa.large_string())
                        ).cast(sub.schema.field(idx).type),
                    )
                yield sub

    pages = pages_dataset(60, profile="t1")
    out = extract_pages_dataset(pages, num_partitions=4,
                                parser_cls=ShoutingExtractor)
    texts = [b for b in out.iter_batches(batch_format="pyarrow")]
    joined = pa.concat_tables(
        [t.select(["extracted_text"]) for t in texts if t.num_rows]
    )
    decoded = [v if isinstance(v, str) else v.decode("utf-8")
               for v in joined.column("extracted_text").to_pylist()]
    nonempty = [s for s in decoded if s.strip()]
    assert nonempty and all(s == s.upper() for s in nonempty)

    # full pipeline: custom parser without codec support + zlib → clear error
    with pytest.raises(TypeError, match="shuffle_codec"):
        class NoCodec:
            def __call__(self, batch):
                return batch
        run_extract_pipeline(pages, out_dir=None, parser_cls=NoCodec)
    # non-callable class refused
    with pytest.raises(TypeError, match="__call__"):
        extract_pages_dataset(pages, parser_cls=type("Nope", (), {}))

    # end-to-end with codec disabled: the injected class drives the full
    # pipeline to lineage + committed partitions (the transform itself
    # is proven above on the narrow path; lineage text_sha256 digests
    # are computed at flush, upstream of the subclass mutation)
    tmp = tempfile.mkdtemp(prefix="inject_")
    try:
        lin = run_extract_pipeline(
            pages, out_dir=tmp, num_partitions=4, shuffle_codec=None,
            parser_cls=ShoutingExtractor).to_pandas()
        assert int(lin.n_urls.sum()) >= 55
        assert int(lin.n_failed.sum()) == 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
