"""Hashed-feature linear quality classifier (fastText / CCNet style).

The web-curation stacks the north rule targets (CCNet, fastText-based
FineWeb/RefinedWeb filters) gate documents with a tiny linear model
over hashed bag-of-words features: train on weak labels ("looks like
the target domain" vs not), score every page, keep the confident ones.
This is the trainable counterpart of the fixed-weights heuristics in
``stages/text_analysis.py`` and the model-based sibling of the DSIR
log-likelihood selector in ``stages/dsir.py`` (beyond-reference
training-data operator; SURVEY §7.9 family — the reference has no
corpus-scale analogue).

Model: binary logistic regression over **presence** features — the
distinct ``crc32(word) % n_buckets`` buckets of each document — plus a
bias.  Presence (not counts) keeps the per-doc feature vector sparse,
bounded by the vocabulary, and exactly recomputable in DuckDB via the
recursive-CTE CRC table the near-dup/DSIR oracles already use.

Ray-Data-first, the k-means/BPE iterative shape:

1. **FEATURIZE once** — one ``map_batches`` pass collapses the corpus
   to a narrow materialized working set ``(y, buckets list<int64>,
   id)``; text never rides into the training loop.  The iterative
   barrier materialization is the same pattern as
   ``stages/graphalgo.py`` rounds — the working set is a tiny
   projection of the corpus (ids + hashed vocab indices, no text).
2. **FIT** — ``iters`` full-batch gradient-descent steps.  Each step
   is one streaming pass: a block's partial gradient is a dense
   ``float64[n_buckets + 1]`` vector (σ(z)−y folded into the doc's
   buckets with ``np.add.at``; z per doc via one cumsum over the
   flattened list column — no Python row loop), emitted as nonzero
   ``(bucket, g)`` rows; a C-path grouped sum folds them to
   ≤ n_buckets+1 rows and the driver applies ``w -= lr·g/n``.  The
   model is O(n_buckets) — tiny by contract, like the CCNet bigram LM.
3. **SCORE** — the trained vector rides into a stateless closure;
   one streaming pass, no shuffle anywhere in the operator.

Determinism / oracle notes (the emitted-model pattern of
``emb_kmeans`` / ``emb_near_dedup``): training sums float64 block partials
whose combination order Ray does not fix, so the low bits of the
trained weights are run-dependent — which is why the oracle contract
emits the weights themselves (dense table + bias row) and recomputes
only the SCORE pass in SQL: distinct CRC buckets → weight join →
``σ(bias + Σw)``, both sides rounded to ``round_digits``.  The
``predicted`` flag derives from ``z`` rounded at the same precision on
both sides so summation-order drift (~1e-14) cannot flip it.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

__all__ = ["logreg_fit", "logreg_score", "quality_classifier"]


def _doc_buckets(text: str | None, n_buckets: int) -> np.ndarray:
    """Distinct (sorted) hashed word-presence buckets of one document."""
    words = (text or "").split()
    if not words:
        return np.empty(0, np.int64)
    feats = {zlib.crc32(w.encode()) % n_buckets for w in words}
    return np.fromiter(sorted(feats), np.int64, count=len(feats))


def _list_sums(vals: np.ndarray, offs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-list sums of ``w[vals]`` under list offsets (empty-safe)."""
    cs = np.concatenate([[0.0], np.cumsum(w[vals], dtype=np.float64)])
    return cs[offs[1:]] - cs[offs[:-1]]


def _featurize(ds, *, text_col: str, id_col: str, target_col: str | None,
               target_value, n_buckets: int):
    """Collapse the corpus to the narrow training working set."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        bkts = [_doc_buckets(t, n_buckets) for t in texts]
        cols = {
            id_col: batch.column(id_col),
            "buckets": pa.array([b.tolist() for b in bkts],
                                pa.list_(pa.int64())),
        }
        if target_col is not None:
            tv = batch.column(target_col).to_pylist()
            cols["y"] = pa.array(
                [1.0 if v == target_value else 0.0 for v in tv],
                pa.float64(),
            )
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def logreg_fit(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    target_col: str,
    target_value,
    n_buckets: int = 1024,
    iters: int = 20,
    lr: float = 2.0,
) -> tuple[np.ndarray, float]:
    """Train the presence-feature logistic model; returns ``(w, bias)``.

    Full-batch gradient descent (no stochasticity — every pass sees the
    whole corpus, so the only run-to-run wobble is float summation
    order).  ``lr`` is per-mean-gradient; with presence features and
    add-free scaling the default converges to a separating direction in
    a handful of passes, which is all a quality gate needs.
    """
    feats = _featurize(
        ds, text_col=text_col, id_col=id_col,
        target_col=target_col, target_value=target_value,
        n_buckets=n_buckets,
    ).materialize()  # narrow working set: ids + hashed vocab indices
    n = feats.count()
    if n == 0:
        return np.zeros(n_buckets, np.float64), 0.0

    w = np.zeros(n_buckets, np.float64)
    bias = 0.0
    for _ in range(iters):
        w_c, b_c = w, bias

        def grad_partial(batch: pa.Table, _w=w_c, _b=b_c) -> pa.Table:
            col = batch.column("buckets").combine_chunks()
            vals = col.values.to_numpy(zero_copy_only=False)
            offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            y = batch.column("y").to_numpy(zero_copy_only=False)
            z = _b + _list_sums(vals, offs, _w)
            with np.errstate(over="ignore"):
                p = 1.0 / (1.0 + np.exp(-z))
            resid = p - y
            g = np.zeros(len(_w), np.float64)
            lens = np.diff(offs)
            np.add.at(g, vals, np.repeat(resid, lens))
            nz = np.nonzero(g)[0]
            return pa.table({
                "bucket": pa.array(
                    np.concatenate([nz, [-1]]), pa.int64()),
                "g": pa.array(
                    np.concatenate([g[nz], [float(resid.sum())]]),
                    pa.float64()),
            })

        rows = (
            feats.map_batches(grad_partial, batch_format="pyarrow")
            .groupby("bucket")
            .sum("g")
            .take_all()  # ≤ n_buckets + 1 rows — the gradient, tiny
        )
        grad = np.zeros(n_buckets, np.float64)
        gb = 0.0
        for r in rows:
            if r["bucket"] == -1:
                gb = r["sum(g)"]
            else:
                grad[r["bucket"]] = r["sum(g)"]
        w = w - lr * grad / n
        bias = bias - lr * gb / n
    return w, bias


def logreg_score(
    ds,
    w: np.ndarray,
    bias: float,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    round_digits: int = 6,
):
    """Score every document; returns ``(id, n_feat_buckets, clf_score,
    predicted)`` rows.  Streaming, no shuffle; ``predicted`` is the
    ≥0.5-probability gate, derived from z rounded at ``round_digits``
    so the SQL twin's summation order cannot flip it."""
    n_buckets = len(w)

    def score(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        nf = np.empty(len(texts), np.int64)
        z = np.empty(len(texts), np.float64)
        for i, t in enumerate(texts):
            b = _doc_buckets(t, n_buckets)
            nf[i] = len(b)
            z[i] = bias + (w[b].sum() if len(b) else 0.0)
        zr = np.round(z, round_digits)
        with np.errstate(over="ignore"):
            p = 1.0 / (1.0 + np.exp(-z))
        return pa.table({
            id_col: batch.column(id_col),
            "n_feat_buckets": pa.array(nf),
            "clf_score": pa.array(np.round(p, round_digits)),
            "predicted": pa.array(zr >= 0.0),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def quality_classifier(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    target_col: str,
    target_value,
    n_buckets: int = 1024,
    iters: int = 20,
    lr: float = 2.0,
    round_digits: int = 6,
    weights_out: str | None = None,
):
    """Composite fit → score.  When ``weights_out`` is given, the dense
    trained weight table (bucket ∈ [0, n_buckets) plus the bias at
    bucket = −1) is written there for the emitted-model SQL twin."""
    w, bias = logreg_fit(
        ds, text_col=text_col, id_col=id_col,
        target_col=target_col, target_value=target_value,
        n_buckets=n_buckets, iters=iters, lr=lr,
    )
    if weights_out is not None:
        import pyarrow.parquet as pq

        pq.write_table(
            pa.table({
                "bucket": pa.array(
                    list(range(n_buckets)) + [-1], pa.int64()),
                "weight": pa.array(
                    np.concatenate([w, [bias]]), pa.float64()),
            }),
            weights_out,
        )
    return logreg_score(
        ds, w, bias, text_col=text_col, id_col=id_col,
        round_digits=round_digits,
    )
