"""Stats-ancestry control for iterative Dataset algorithms, and block
refs taken with one run of a plan.

``materialize()`` cuts EXECUTION lineage (blocks are pinned; the new
plan reads them as input data) but deliberately carries the old plan's
``DatasetStats`` object forward (ray/data/dataset.py, ``materialize``:
``ExecutionPlan(copy._plan.stats(), ...)``).  Ray Data then computes
``stats.to_summary()`` at the END of every execution
(``streaming_executor.py``, post-run summary) and that recursion into
``DatasetStats.parents`` has no memoization — a dataset consumed as TWO
inputs of a later plan (a union branch plus a join side) contributes
its entire ancestry twice.

For an iterative algorithm whose round-N output feeds round N+1 in >=2
branches the end-of-run summary walk is therefore O(2^rounds) of pure
driver-side Python.  Measured on a 1e7-edge chain graph
(connected_components, 32 cpus): per-round wall 13.5 s -> 600 s by
round 12 while the executor-reported execution time stayed ~1.5 s —
all of the growth was the driver building exponentially self-similar
stats summaries between executions.

``cut_stats_ancestry`` severs the parent chain on a just-materialized
dataset, making every later summary walk O(1).  It drops nothing an
iterative caller needs: per-round timings come from the round loop's
own clock, and the blocks/lineage of the materialized data are
untouched.  Best-effort across Ray versions — on any attribute
mismatch the dataset is returned unmodified (slow but correct).
"""

from __future__ import annotations


def cut_stats_ancestry(ds):
    """Sever ``DatasetStats.parents`` on a materialized dataset.

    Call immediately after ``materialize()`` at an iteration barrier.
    Returns ``ds`` (mutated in place when the private layout matches).
    """
    try:
        stats = ds._plan.stats()
        if getattr(stats, "parents", None):
            stats.parents = []
    except Exception:
        pass
    return ds


def round_barrier(ds, num_blocks: int):
    """The canonical per-round barrier for iterative algorithms:
    repartition to a fixed block count (union/join rounds multiply
    block counts; see graphalgo module docstring), materialize to cut
    execution lineage, and sever stats ancestry to keep the driver's
    per-execution summary walk O(1) across rounds."""
    return cut_stats_ancestry(ds.repartition(num_blocks).materialize())


def arrow_refs(ds) -> list:
    """The Arrow block refs of ``ds``, with its plan run once.

    ``Dataset.to_arrow_refs()`` streams the plan, then asks
    ``schema(fetch_if_missing=True)``, which on a lazy plan runs it a
    second time under a limit (Ray 2.49, ``dataset.py``); a materialized
    dataset answers from its snapshot."""
    return ds.materialize().to_arrow_refs()
