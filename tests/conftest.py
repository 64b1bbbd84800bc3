import os

os.environ.setdefault("RAY_DATA_DISABLE_PROGRESS_BARS", "1")
# Ray's default worker niceness (15) deprioritizes workers vs any nice-0
# process; set before ray.init so the raylet spawns workers at nice 0.
os.environ.setdefault("RAY_worker_niceness", "0")

import pytest
import ray


@pytest.fixture(scope="session")
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
    )
    yield
    ray.shutdown()


@pytest.fixture
def schema_jobs(monkeypatch):
    """The Datasets whose ``schema()`` was asked to fetch a missing schema,
    that is, to run the unexecuted part of the plan as a job (which
    cancels the tasks it did not need).  Ray's own ``groupby`` asks with
    ``fetch_if_missing=False``, which runs nothing, and is not counted."""
    from ray.data import Dataset

    calls = []
    schema = Dataset.schema

    def counting_schema(self, fetch_if_missing=True):
        if fetch_if_missing:
            calls.append(self)
        return schema(self, fetch_if_missing)

    monkeypatch.setattr(Dataset, "schema", counting_schema)
    return calls
