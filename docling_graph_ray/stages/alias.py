"""LLM-free alias reconciliation within class partitions.

The reference proposes same-class containment-alias candidates — one
entity's name tokens a subset of another's, with equal digit signatures —
then merges them (optionally LLM-confirmed; vetoed when the pair co-occur
as siblings).  Reference: docling_graph/core/utils/alias_reconciler.py:
54-330.  Here only the deterministic fuzzy rung is ported (SURVEY.md
§2.6 checklist: "optional LLM-free fuzzy rung only"), as a
``groupby(class).map_groups`` operator — the partitioning assumption is:
one class's entities fit one worker (bound classes with
``cardinality_bound`` first when they don't).  Candidate proposal inside
a group is inverted-index-driven (near-linear typical) with a
``max_survivor_scan`` cap so a pathological hot class degrades
gracefully instead of going quadratic — see ``reconcile_group``.

Merge direction: the SHORTER name (token-subset) is the alias; it folds
into the richer entity with first-non-empty-wins enrichment and its
mention count accumulates."""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from docling_graph_ray.functions.normalize import normalize_entity_name

_DIGIT_RE = re.compile(r"\d+")


def digit_signature(name: str) -> tuple[str, ...]:
    """Sorted digit-run signature: '4 Main St Apt 4' → ('4', '4')."""
    return tuple(sorted(_DIGIT_RE.findall(name)))


# Candidate-scan cap per row: a hot class degrades gracefully (a row
# whose match sits beyond the cap becomes its own survivor, audited via
# ``audit_col``) instead of hanging a worker on a quadratic scan — the
# same cap+audit treatment as the embedding near-dup verify rung
# (stages/dedup.py max_bucket_verify).
ALIAS_MAX_SURVIVOR_SCAN = 1024

# Group-size guard (VERDICT r4 next-step #8): ``map_groups`` hands one
# whole class to one worker, and the exact path's ``to_pylist`` costs
# ~10x the Arrow bytes in Python objects.  Above this row cap only the
# top-richness-K rows go through exact reconciliation; the rest pass
# through VECTORIZED (Arrow-level, no Python dicts) as their own
# survivors, counted in ``audit_col`` — memory stays bounded by K, not
# by the hot class.
ALIAS_MAX_GROUP_ROWS = 200_000


def reconcile_group(group: pa.Table, *, name_col: str,
                    count_col: str | None = None,
                    max_survivor_scan: int = ALIAS_MAX_SURVIVOR_SCAN,
                    audit_col: str | None = None,
                    max_group_rows: int = ALIAS_MAX_GROUP_ROWS) -> pa.Table:
    """Merge containment aliases inside one class partition.

    Deterministic: rows ordered by (token count desc, name asc) so richer
    names absorb shorter ones; each alias folds into the FIRST (richest)
    matching survivor.

    Scale shape: a containment alias must share EVERY canonical token
    with its survivor, so candidates come from an inverted token index
    (shortest posting list among the row's tokens) instead of a scan of
    all survivors — posting lists keep insertion (richness) order, so
    the first verified candidate is exactly the survivor the full scan
    would have chosen.  Typical cost is near-linear in group size; the
    pathological shared-token class is bounded by ``max_survivor_scan``
    verified candidates per row, with rows that hit the cap unresolved
    counted in ``audit_col`` (opt-in, keeps the default schema stable).

    Memory shape: a group larger than ``max_group_rows`` reconciles
    exactly among its top-richness-K rows only (whitespace-token count
    desc, name asc — richer names are the absorbers, so the kept head
    is where merges happen); the remainder passes through vectorized as
    its own survivors with the unreconciled count in ``audit_col``.
    Worker memory is bounded by K whatever the class size."""
    if group.num_rows > max_group_rows:
        return _reconcile_capped(
            group, name_col=name_col, count_col=count_col,
            max_survivor_scan=max_survivor_scan, audit_col=audit_col,
            max_group_rows=max_group_rows)
    idx = pc.sort_indices(group, sort_keys=[(name_col, "ascending")])
    rows = group.take(idx).to_pylist()
    meta = []
    for r in rows:
        norm = normalize_entity_name(r[name_col])
        toks = set(norm.split("_"))
        toks.discard("")
        meta.append((len(norm.split("_")), toks, digit_signature(r[name_col])))
    order = sorted(range(len(rows)),
                   key=lambda i: (-meta[i][0], rows[i][name_col]))
    survivors: list[dict] = []
    surv_meta: list[tuple[set, tuple]] = []
    posting: dict[str, list[int]] = {}
    n_overflow = 0
    for i in order:
        row = rows[i]
        _, toks, sig = meta[i]
        target = None
        truncated = False
        if toks:
            cands: list[int] | None = None
            for t in toks:
                pl = posting.get(t)
                if pl is None:
                    cands = []
                    break
                if cands is None or len(pl) < len(cands):
                    cands = pl
            scanned = 0
            for si in cands or ():
                if scanned >= max_survivor_scan:
                    truncated = True
                    break
                s_toks, s_sig = surv_meta[si]
                # containment alias on precomputed sets: strict token
                # subset + equal digit signatures
                if toks < s_toks and sig == s_sig:
                    target = survivors[si]
                    break
                scanned += 1
        if target is None:
            row = dict(row)
            row["aliases"] = []
            if count_col is None:
                row["n_merged"] = 1
            si = len(survivors)
            survivors.append(row)
            surv_meta.append((toks, sig))
            for t in toks:
                posting.setdefault(t, []).append(si)
            if truncated:
                n_overflow += 1
        else:
            target["aliases"] = sorted([*target["aliases"], row[name_col]])
            if count_col is not None:
                target[count_col] = (target.get(count_col) or 0) + (
                    row.get(count_col) or 0
                )
            else:
                target["n_merged"] += 1
            for k, v in row.items():
                if k in (name_col, "aliases"):
                    continue
                if (target.get(k) in (None, "", [], {})) and v not in (None, "", [], {}):
                    target[k] = v
    survivors.sort(key=lambda r: r[name_col])
    if audit_col is not None:
        for s in survivors:
            s[audit_col] = n_overflow
    out = pa.Table.from_pylist(survivors)
    if out.num_rows and "aliases" in out.column_names:
        # all-empty alias lists infer list<null>; pin list<string> so
        # schemas agree across groups and with the capped passthrough
        i = out.schema.get_field_index("aliases")
        out = out.set_column(
            i, "aliases", out.column("aliases").cast(pa.list_(pa.string())))
    return out


def _reconcile_capped(group: pa.Table, *, name_col: str,
                      count_col: str | None, max_survivor_scan: int,
                      audit_col: str | None,
                      max_group_rows: int) -> pa.Table:
    """Top-richness-K fallback for a class exceeding ``max_group_rows``:
    exact reconciliation among the K richest names (the absorbers), an
    Arrow-level passthrough for the rest — no Python dict is ever built
    for a capped-out row, so worker memory is bounded by K."""
    import numpy as np

    names = group.column(name_col).cast(pa.string())
    richness = pc.list_value_length(pc.utf8_split_whitespace(names))
    order = pc.sort_indices(
        pa.table({"r": richness, "n": names}),
        sort_keys=[("r", "descending"), ("n", "ascending")])
    g = group.take(order)
    head, rest = g.slice(0, max_group_rows), g.slice(max_group_rows)
    out_head = reconcile_group(
        head, name_col=name_col, count_col=count_col,
        max_survivor_scan=max_survivor_scan, audit_col=audit_col,
        max_group_rows=group.num_rows + 1)
    n_rest = rest.num_rows
    total_audit = n_rest
    if audit_col is not None:
        if out_head.num_rows:
            total_audit += int(out_head.column(audit_col)[0].as_py() or 0)
            hi = out_head.schema.get_field_index(audit_col)
            out_head = out_head.set_column(
                hi, audit_col,
                pa.array([total_audit] * out_head.num_rows, pa.int64()))

    rest = rest.combine_chunks()
    empty_aliases = pa.ListArray.from_arrays(
        pa.array(np.zeros(n_rest + 1, dtype=np.int32)),
        pa.array([], pa.string()))
    rest = rest.append_column("aliases", empty_aliases)
    if count_col is None:
        rest = rest.append_column(
            "n_merged", pa.array(np.ones(n_rest, dtype=np.int64)))
    if audit_col is not None:
        rest = rest.append_column(
            audit_col, pa.array(
                np.full(n_rest, total_audit, dtype=np.int64)))
    rest = rest.select(out_head.column_names)
    out = pa.concat_tables([out_head, rest], promote_options="permissive")
    return out.take(pc.sort_indices(out, sort_keys=[(name_col, "ascending")]))


def alias_reconcile(nodes, *, class_col: str, name_col: str,
                    count_col: str | None = None,
                    max_survivor_scan: int = ALIAS_MAX_SURVIVOR_SCAN,
                    audit_col: str | None = None,
                    max_group_rows: int = ALIAS_MAX_GROUP_ROWS):
    """Dataset-level operator: ``groupby(class).map_groups(reconcile)``."""

    def fn(group: pa.Table) -> pa.Table:
        return reconcile_group(group, name_col=name_col, count_col=count_col,
                               max_survivor_scan=max_survivor_scan,
                               audit_col=audit_col,
                               max_group_rows=max_group_rows)

    return nodes.groupby(class_col).map_groups(fn, batch_format="pyarrow")
