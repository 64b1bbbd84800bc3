"""Pinned extraction bytes: the eager golden's per-url text digests.

Every other golden test compares the Ray path against ``golden_extract``,
which runs the same kernel, so a kernel change that alters extracted text
would pass them all.  These digests were recorded once and must not move:
a change that means to alter extracted text has to update them on purpose.

Each digest is sha256 over ``"\\n".join(f"{url}\\t{text_sha256}")`` for the
deduped golden rows sorted by url.  The t1 and t2 fixtures contain blocks
with newlines or tabs, so the whitespace-collapsing path is pinned as
well as the clean-text path."""

import hashlib

import pytest

from docling_graph_ray.pipelines.golden import golden_extract

PINNED = {
    ("t1", 300, 42): "9ebfe28573d6a300b18cf0349b4e18b4731f179acf7f82862cf16c6928111e2d",
    ("t2", 150, 42): "8952dd6895937b6141512ddd5d947ae3cccde62e39baf77ba498e01b24f7b4bd",
    ("bench", 100, 3): "f4a007ad729c74d7cb228e9bb315f9cd8399aea4f09494db5f702f9d7bc763ca",
}


def _digest(profile: str, n: int, seed: int) -> str:
    deduped, _ = golden_extract(n, seed=seed, profile=profile, num_partitions=16)
    urls = deduped.column("url").to_pylist()
    shas = deduped.column("text_sha256").to_pylist()
    rows = sorted(zip(urls, shas))
    return hashlib.sha256(
        "\n".join(f"{u}\t{s}" for u, s in rows).encode()
    ).hexdigest()


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: "-".join(map(str, k)))
def test_golden_text_digest_pinned(key):
    profile, n, seed = key
    assert _digest(profile, n, seed) == PINNED[key]
