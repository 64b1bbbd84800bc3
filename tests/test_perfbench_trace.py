"""perfbench's traced pass runs against the engine it measures.

``perfbench/run.py --trace 1`` calls the flagship's layers in-process
(``tracing.traced_pass``): ``ExtractActor(shuffle_codec=None)``,
``make_classifier``, ``compress_shuffle_payload``, ``PartitionFinalizer``
and the module attribute ``extract.write_partition_atomic``, among
others.  A change to any of them breaks ``--trace 1`` and nothing else;
this runs the traced pass on each workload profile's 48-row pilot input
and checks the benchmark's golden gate."""

import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO / "perfbench"))

import harness  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_traced_pass_on_the_pilot_matches_the_golden(tmp_path, workload):
    profile = harness.WORKLOADS[workload].profile
    prep = harness.prepare(tmp_path, _REPO, profile, harness.PILOT_ROWS,
                           harness.PILOT_SEED)
    out = tmp_path / "out"
    out.mkdir()
    metrics, lineage = tracing.traced_pass(prep.pages_dir, out,
                                           tracing.Tracer())
    assert metrics["classify.rows"] == harness.PILOT_ROWS
    assert harness.mismatched_urls(prep, out, lineage) == 0
