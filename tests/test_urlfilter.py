"""URL domain-blocklist gate (stages/urlfilter.py): suffix semantics
on label boundaries, host normalization, most-specific-wins."""

from __future__ import annotations

import pyarrow as pa

import ray.data

from docling_graph_ray.stages.urlfilter import (
    blocklist_annotate,
    extract_hosts,
)

URLS = [
    (1, "http://bad.example/x"),                  # exact host match
    (2, "https://sub.bad.example/y"),             # subdomain match
    (3, "http://deep.a.b.bad.example/z"),         # deep subdomain
    (4, "http://notbad.example/q"),               # label boundary: clean
    (5, "HTTP://BAD.EXAMPLE:80/caps"),            # case + port noise
    (6, "https://good.site/ok"),                  # clean
    (7, "http://very.bad.example/v"),             # more specific entry
    (8, "not a url at all"),                      # host '' → clean
    (9, "https://tracker.net:443/t"),             # second entry
]
BLOCKED = ["bad.example", "very.bad.example", "tracker.net"]


def _ds():
    ids, urls = zip(*URLS)
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "url": list(urls),
    }))


def test_extract_hosts():
    assert extract_hosts(["http://A.B.C:8080/x?y#z"]) == ["a.b.c"]
    assert extract_hosts(["nope", None, ""]) == ["", "", ""]
    assert extract_hosts(["https://h.io"]) == ["h.io"]


def test_annotate_semantics(ray_session):
    out = {r["doc_id"]: r for r in blocklist_annotate(
        _ds(), BLOCKED).take_all()}
    assert out[1]["blocked"] and out[1]["blocked_by"] == "bad.example"
    assert out[2]["blocked"] and out[2]["blocked_by"] == "bad.example"
    assert out[3]["blocked"]
    assert not out[4]["blocked"]          # notbad.example ≠ *.bad.example
    assert out[5]["blocked"] and out[5]["host"] == "bad.example"
    assert not out[6]["blocked"]
    # most-specific entry wins over its own suffix
    assert out[7]["blocked_by"] == "very.bad.example"
    assert not out[8]["blocked"] and out[8]["host"] == ""
    assert out[9]["blocked"] and out[9]["blocked_by"] == "tracker.net"


def test_empty_blocklist_keeps_everything(ray_session):
    out = blocklist_annotate(_ds(), []).take_all()
    assert len(out) == len(URLS) and not any(r["blocked"] for r in out)


def test_whitespace_entries_ignored(ray_session):
    out = blocklist_annotate(_ds(), ["  ", "", "bad.example"]).take_all()
    assert sum(r["blocked"] for r in out) == 5


from hypothesis import given, settings
from hypothesis import strategies as st

_label = st.sampled_from(["a", "bb", "bad", "example", "net", "x1"])
_host = st.lists(_label, min_size=1, max_size=4).map(".".join)


@settings(max_examples=10, deadline=None)
@given(st.lists(_host, min_size=1, max_size=12),
       st.lists(_host, max_size=5))
def test_property_matches_brute_suffix(ray_session, hosts, blocked):
    """Engine verdicts equal a brute-force label-boundary suffix check
    with longest-entry-wins for arbitrary host/blocklist mixes."""
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(hosts)), pa.int64()),
        "url": [f"http://{h}/p" for h in hosts],
    }))
    out = {r["doc_id"]: r for r in blocklist_annotate(ds, blocked).take_all()}
    bl = {d.strip().lower() for d in blocked if d.strip()}
    for i, h in enumerate(hosts):
        labels = h.split(".")
        cands = [".".join(labels[k:]) for k in range(len(labels))]
        hits = [c for c in cands if c in bl]
        best = max(hits, key=lambda c: (len(c), c)) if hits else None
        # longest suffix of one host is unique per depth, so first-hit
        # (engine) == longest (brute)
        assert out[i]["blocked"] == (best is not None), (h, blocked)
        assert out[i]["blocked_by"] == (best or None), (h, blocked)
