"""Contract routing (reference: auto.py:31-132)."""

import pyarrow as pa

from docling_graph_ray.functions.contracts import resolve_contract_batch


def test_resolve_contract_batch_matches_scalar():
    # the per-document rule, by hand: est = max(1, chars // 4); direct iff
    # est + 2048 <= 8192 (context) and chars <= 2048 * 4 (one response)
    chars = [0, 100, 8192, 8193, 100_000]
    batch = pa.table({"n_chars": pa.array(chars, pa.int64())})
    out = resolve_contract_batch(
        batch, chars_col="n_chars", output_budget_tokens=2048,
        context_limit_tokens=8192,
    )
    assert out.column("contract").to_pylist() == [
        "direct", "direct", "direct", "dense", "dense"]
    assert out.column("est_input_tokens").to_pylist() == [
        1, 25, 2048, 2048, 25_000]
