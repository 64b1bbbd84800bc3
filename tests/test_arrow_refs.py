"""Collecting a dataset's Arrow blocks runs its plan once.

``Dataset.to_arrow_refs()`` on a lazy plan streams it, then asks for the
schema, which runs the plan again under a limit: a UDF over 8 blocks is
called more than 8 times.  ``lineage.arrow_refs`` and the driver-side
collectors built on it take the refs of a materialized dataset."""

import pyarrow as pa
import pytest

import ray
import ray.data

from docling_graph_ray.stages.joins import _collect_small
from docling_graph_ray.stages.lineage import arrow_refs
from docling_graph_ray.visualize import _collect

BLOCKS = 8


def _counted(log):
    def udf(b: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write("call\n")
        return b

    return ray.data.range(400, override_num_blocks=BLOCKS).map_batches(
        udf, batch_size=None, batch_format="pyarrow")


@pytest.mark.parametrize("n_rows", [
    lambda ds: sum(t.num_rows for t in ray.get(arrow_refs(ds))),
    lambda ds: _collect_small(ds, ["id"]).num_rows,
    lambda ds: len(_collect(ds)),
], ids=["arrow_refs", "collect_small", "visualize_collect"])
def test_collecting_runs_the_udf_once_per_block(ray_session, tmp_path,
                                                n_rows):
    log = tmp_path / "calls"
    assert n_rows(_counted(log)) == 400
    assert log.read_text().count("call\n") == BLOCKS
