"""Structural backend protocols — the extension surface, typed.

The reference exposes backend/exporter plugin protocols
(docling_graph/core/extractors/backends/*, SURVEY.md §2.11); in this
engine the plugin point is "a callable class usable as a warm actor in
``map_batches(Cls, concurrency=...)``".  These ``typing.Protocol``
classes make that contract checkable: a custom backend that satisfies
the protocol slots into the pipeline unchanged — pass the class where
the built-in one (``PdfParseActor``, ``MediaFeatureActor``, …) goes.

All are ``runtime_checkable``: ``isinstance(obj, BatchStage)`` verifies
a candidate instance structurally in tests / registry validation (the
check sees method *presence*, not signatures — the unit tests cover the
signature contract).
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

import pyarrow as pa


@runtime_checkable
class BatchStage(Protocol):
    """A warm-actor batch stage: construct once per actor (load models,
    compile patterns, build indexes), then transform Arrow batches.

    As the flagship's extraction backend (``parser_cls``) it gets
    classified pages batches.  A batch read from Parquet
    (``read_pages_parquet``, any local path or URI) has no crawler
    ``text`` column: each row names its source file and row instead
    (``_src_file``, ``_src_row``).  A parser that falls back to the crawler text for a
    row it cannot parse takes it with
    ``pipelines.extract.crawler_text(batch, i)``, which reads the
    column where the batch has it (in-memory, JSONL and WARC pages) and
    the row's source otherwise.  The output names its columns: the
    source columns are not for the shuffle."""

    def __call__(self, batch: pa.Table) -> pa.Table: ...


@runtime_checkable
class DocumentParser(Protocol):
    """A binary-document parser lane (the ``PdfParseActor`` shape):
    row-local bytes → (extracted_text, parse_status, spans)."""

    def __call__(self, batch: pa.Table) -> pa.Table: ...

    def _parse_one(self, raw: bytes) -> tuple[str, str, list[dict]]: ...


@runtime_checkable
class OcrBackend(Protocol):
    """An OCR recognizer for image-only (scanned) documents: raw
    document bytes in, recovered plain text out (None/"" = nothing
    recovered).  The class is instantiated INSIDE the extraction parser,
    in the worker (warm model state, once per parser: once per input
    block in the flagship); ``recognize`` runs per
    image-only row — the reference's RapidOCR lane
    (docling_graph/core/extractors/document_processor.py:199-230) as a
    pluggable protocol.  This container has no OCR model; a real
    cluster injects one without touching pipeline code."""

    def recognize(self, raw: bytes) -> str | None: ...


@runtime_checkable
class Exporter(Protocol):
    """A graph/document exporter: Dataset in, artifact paths out."""

    def __call__(self, ds: Any, out_dir: str) -> Any: ...


def is_batch_stage(obj: Any) -> bool:
    """TypeGuard-style structural check (reference
    docling_graph/protocols.py:239-283 ``is_vlm_backend`` /
    ``is_llm_backend`` analogue): does the instance satisfy the
    warm-actor batch contract?"""
    return isinstance(obj, BatchStage)


def is_document_parser(obj: Any) -> bool:
    """Structural check for the binary-parser lane contract (the
    ``PdfParseActor`` shape: batch ``__call__`` plus row-local
    ``_parse_one``)."""
    return isinstance(obj, DocumentParser)


def get_stage_kind(obj: Any) -> str:
    """Duck-typed dispatch tag (reference ``get_backend_type``,
    protocols.py:270-283): 'document_parser' beats 'batch_stage' (it is
    the narrower contract); anything else is 'unknown'."""
    if is_document_parser(obj):
        return "document_parser"
    if is_batch_stage(obj):
        return "batch_stage"
    return "unknown"


def ocr_backend_class_defines_recognize(cls: type) -> bool:
    """Class-level structural probe for the ``OcrBackend`` contract
    that does NOT instantiate (the backend's ``__init__`` loads the OCR
    model — that belongs inside the actor, never on the driver)."""
    return isinstance(cls, type) and any(
        "recognize" in vars(k) for k in cls.__mro__ if k is not object
    )


def stage_class_defines_call(cls: type) -> bool:
    """Class-level structural probe that does NOT instantiate (a custom
    parser's ``__init__`` may load a model stack — never run that on the
    driver just to type-check): ``__call__`` must be defined somewhere
    in the MRO above ``object``."""
    return isinstance(cls, type) and any(
        "__call__" in vars(k) for k in cls.__mro__ if k is not object
    )


def validate_stage(cls: type, *, batch: pa.Table | None = None) -> None:
    """Registry-time validation for a custom stage class: instantiable
    with no args (actor-pool contract) and structurally a BatchStage;
    with ``batch`` given, also smoke-runs one call and checks the output
    is an Arrow table.  Raises TypeError with a precise message."""
    try:
        inst = cls()
    except TypeError as e:
        raise TypeError(
            f"{cls.__name__} must be constructible with no arguments "
            f"(map_batches actor-pool contract): {e}"
        ) from None
    if not isinstance(inst, BatchStage):
        raise TypeError(f"{cls.__name__} lacks a __call__(batch) method")
    if batch is not None:
        out = inst(batch)
        if not isinstance(out, pa.Table):
            raise TypeError(
                f"{cls.__name__}.__call__ must return pyarrow.Table, "
                f"got {type(out).__name__}"
            )
