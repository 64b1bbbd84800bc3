"""Contract resolution — the per-document routing predicate.

Ports the reference's deterministic routing (reference:
docling_graph/core/extractors/contracts/auto.py:31-132
``resolve_auto_contract`` — CHARS_PER_TOKEN=4, DIRECT_OVERFLOW_RATIO=1.0,
direct iff input+budget fits the context AND content chars fit the
output capacity).

In the Ray engine it is a COLUMN predicate: ``resolve_contract_batch``
derives a ``contract`` column with pyarrow.compute so a dataset splits
into direct/dense sub-pipelines with ``ds.filter`` — the size-bucketing
rung of SURVEY.md §2.6 (the giant-HTML lane in pipelines/extract.py is
the same family applied to raw bytes)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

CHARS_PER_TOKEN = 4
DIRECT_OVERFLOW_RATIO = 1.0


def resolve_contract_batch(
    batch: pa.Table,
    *,
    chars_col: str,
    output_budget_tokens: int,
    context_limit_tokens: int | None,
    chunking_available: bool = True,
) -> pa.Table:
    """Vectorized routing: appends ``est_input_tokens`` (int64) and
    ``contract`` ('direct'|'dense') columns."""
    chars = batch.column(chars_col).cast(pa.int64())
    est = pc.max_element_wise(
        pc.divide(chars, CHARS_PER_TOKEN), pa.scalar(1, pa.int64())
    )
    if not chunking_available:
        contract = pa.array(["direct"] * batch.num_rows)
    else:
        if context_limit_tokens is None:
            fits_context = pa.array([True] * batch.num_rows)
        else:
            fits_context = pc.less_equal(
                pc.add(est, output_budget_tokens), context_limit_tokens
            )
        capacity = int(output_budget_tokens * CHARS_PER_TOKEN
                       * DIRECT_OVERFLOW_RATIO)
        fits_output = pc.less_equal(chars, capacity)
        contract = pc.if_else(
            pc.and_(fits_context, fits_output), "direct", "dense"
        )
    return batch.append_column(
        "est_input_tokens", est
    ).append_column("contract", contract)
