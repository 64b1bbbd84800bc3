"""Distributed extraction-quality evaluation (graph vs. ground truth).

Re-expresses the reference's evaluation harness
(docs/examples/scripts/16_extraction_evaluation.py:1-745 — strict /
relaxed / structurally-aligned node matching, edge P/R/F1 via matched
node identities, micro tp/fp/fn summed before ratios, attribute
completeness on strict matches, verbatim-fidelity ratio) as a Ray Data
operator:

- both graphs' nodes and edges (and optional per-document source texts)
  are tagged into ONE union dataset keyed by ``doc_id``;
- ``groupby(doc_id).map_groups`` runs the whole matching ladder per
  document — a document's graph is small, so the per-group work is
  cheap Python, while the fleet of documents is embarrassingly
  parallel (the reference scores one run directory at a time; here a
  100 TB corpus of per-doc graphs streams through);
- each group emits integer count rows ``(doc_id, section, rung, cls,
  tp, fp, fn)``, so micro P/R/F1 sums tp/fp/fn across classes AND
  documents before ratios, the reference's micro discipline
  (16_extraction_evaluation.py:233-240, 17_benchmark_aggregate.py:59-69).

Node identity here is the pair ``(cls, key)`` where ``key`` is the
caller-supplied canonical identity string (build it with
``functions.normalize.canonical_identity_key``).  Edge endpoints are
identity tokens ``cls + "\\x1f" + key`` so the relaxed/aligned fold
maps apply to edges exactly as the reference folds produced-side
aliases onto ground-truth identities (16_extraction_evaluation.py:
500-514).
"""

from __future__ import annotations

import json
import re
import unicodedata

import pyarrow as pa
import pyarrow.compute as pc

_DIGIT_RUNS = re.compile(r"\d+")
_NON_ALNUM = re.compile(r"[^a-z0-9]+")
_LOOSE_BULLETS = re.compile(r"(?:(?<=\s)|^)[-•*+]+(?=\S)", re.MULTILINE)
_WS = re.compile(r"\s+")

# A shared verbatim span at least this long counts as strong identity
# evidence in structural alignment (16_extraction_evaluation.py:99-103).
STRONG_CONTAINMENT_CHARS = 40
# got-side string values at least this long are verbatim-checked against
# the source (16_extraction_evaluation.py:551-556).
VERBATIM_MIN_CHARS = 80

SEP = "\x1f"

META_KEYS = frozenset(
    {"id", "label", "type", "__class__", "__provenance__", "merged_aliases"}
)

COUNT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("section", pa.string()),
        ("rung", pa.string()),
        ("cls", pa.string()),
        ("tp", pa.int64()),
        ("fp", pa.int64()),
        ("fn", pa.int64()),
    ]
)

TAGGED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("side", pa.string()),   # "gt" | "got" | "src"
        ("kind", pa.string()),   # "node" | "edge" | "source"
        ("cls", pa.string()),    # node class / edge label
        ("key", pa.string()),    # canonical identity (node rows)
        ("src", pa.string()),    # identity token (edge rows)
        ("dst", pa.string()),
        ("attrs", pa.string()),  # JSON attrs (nodes) / raw text (source)
    ]
)


def identity_token(cls: str, key: str) -> str:
    """Edge-endpoint token; lets fold maps rewrite endpoints per class."""
    return f"{cls}{SEP}{key}"


# ---------------------------------------------------------------------------
# scalar helpers (ported semantics, cited per function)


def normalize_text(text: str) -> str:
    """NFKD + bullet-marker strip + whitespace squash + casefold
    (16_extraction_evaluation.py:246-250)."""
    text = unicodedata.normalize("NFKD", text)
    text = _LOOSE_BULLETS.sub("", text)
    return _WS.sub(" ", text).casefold().strip()


def squash(text: str) -> str:
    """Lowercased [a-z0-9]-only projection (16_extraction_evaluation.py:253-255)."""
    return _NON_ALNUM.sub("", text.casefold())


def digit_signature(text: str) -> tuple[str, ...]:
    return tuple(_DIGIT_RUNS.findall(text))


def is_filled(value: object) -> bool:
    if value is None:
        return False
    if isinstance(value, str):
        return bool(value.strip())
    if isinstance(value, (list, dict)):
        return bool(value)
    return True


def relaxed_match_pairs(
    unmatched_gt: list[tuple[str, str]], unmatched_got: list[tuple[str, str]]
) -> list[tuple[tuple[str, str], tuple[str, str]]]:
    """Unique same-class containment with equal digit signature — the
    relaxed rung (16_extraction_evaluation.py:184-218): canonical-text
    containment either direction, with a squashed ([a-z0-9]-only)
    containment fallback for word-glue; only a UNIQUE candidate pairs."""
    pairs: list[tuple[tuple[str, str], tuple[str, str]]] = []
    used: set[int] = set()
    for key_gt in unmatched_gt:
        text_gt = key_gt[1]
        squash_gt = squash(text_gt)
        candidates = []
        for i, key_got in enumerate(unmatched_got):
            if i in used or key_got[0] != key_gt[0]:
                continue
            text_got = key_got[1]
            if not text_gt or not text_got:
                continue
            if digit_signature(text_gt) != digit_signature(text_got):
                continue
            squash_got = squash(text_got)
            if (
                text_gt in text_got
                or text_got in text_gt
                or (squash_gt and squash_got
                    and (squash_gt in squash_got or squash_got in squash_gt))
            ):
                candidates.append(i)
        if len(candidates) == 1:
            used.add(candidates[0])
            pairs.append((key_gt, unmatched_got[candidates[0]]))
    return pairs


def pair_similarity(gt_attrs: dict, got_attrs: dict) -> float:
    """Attribute-overlap score for structural alignment
    (16_extraction_evaluation.py:293-326): +1 per exact-equal filled
    scalar, +1 per long shared verbatim span (>= STRONG_CONTAINMENT_CHARS),
    +0.5 per short containment or overlapping list field."""
    score = 0.0
    for field, gt_value in gt_attrs.items():
        if field in META_KEYS or not is_filled(gt_value):
            continue
        got_value = got_attrs.get(field)
        if not is_filled(got_value):
            continue
        if isinstance(gt_value, (str, int, float)) and isinstance(
            got_value, (str, int, float)
        ):
            a, b = normalize_text(str(gt_value)), normalize_text(str(got_value))
            if not a or not b:
                continue
            if a == b:
                score += 1.0
            elif len(a) >= 4 and len(b) >= 4 and (a in b or b in a):
                score += (
                    1.0 if min(len(a), len(b)) >= STRONG_CONTAINMENT_CHARS else 0.5
                )
        elif isinstance(gt_value, list) and isinstance(got_value, list):
            a_set = {normalize_text(str(x)) for x in gt_value
                     if isinstance(x, (str, int, float))}
            b_set = {normalize_text(str(x)) for x in got_value
                     if isinstance(x, (str, int, float))}
            if a_set & b_set:
                score += 0.5
    return score


def structural_align_pairs(
    remaining_gt: list[tuple[str, str]],
    remaining_got: list[tuple[str, str]],
    gt_attrs_by_key: dict[tuple[str, str], dict],
    got_attrs_by_key: dict[tuple[str, str], dict],
    classes: set[str],
) -> list[tuple[tuple[str, str], tuple[str, str], float]]:
    """Greedy best-first one-to-one pairing by attribute overlap; only
    pairs scoring >= 1.0 accepted (16_extraction_evaluation.py:329-365)."""
    candidates: list[tuple[float, tuple[str, str], tuple[str, str]]] = []
    for key_gt in remaining_gt:
        if key_gt[0] not in classes:
            continue
        for key_got in remaining_got:
            if key_got[0] != key_gt[0]:
                continue
            score = pair_similarity(
                gt_attrs_by_key.get(key_gt, {}), got_attrs_by_key.get(key_got, {})
            )
            if score >= 1.0:
                candidates.append((score, key_gt, key_got))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))  # deterministic ties
    used_gt: set[tuple[str, str]] = set()
    used_got: set[tuple[str, str]] = set()
    pairs = []
    for score, key_gt, key_got in candidates:
        if key_gt in used_gt or key_got in used_got:
            continue
        used_gt.add(key_gt)
        used_got.add(key_got)
        pairs.append((key_gt, key_got, score))
    return pairs


def detect_synthetic_classes(
    gt_keys: list[tuple[str, str]], source_squashed: str
) -> set[str]:
    """Classes whose GT identifiers mostly do NOT occur in the source —
    invented slugs make strict matching unwinnable, so the structural
    rung applies (16_extraction_evaluation.py:262-281)."""
    per_class: dict[str, list[bool]] = {}
    for cls, key in gt_keys:
        sq = squash(key)
        found = len(sq) >= 3 and sq in source_squashed
        per_class.setdefault(cls, []).append(found)
    return {
        cls for cls, hits in per_class.items()
        if hits and sum(hits) / len(hits) < 0.5
    }


# ---------------------------------------------------------------------------
# dataset-level operator


def tag_graph(nodes, edges, *, side: str, doc_col: str = "doc_id",
              cls_col: str = "class", key_col: str = "key",
              label_col: str = "label", src_col: str = "src",
              dst_col: str = "dst", attr_cols: list[str] | None = None):
    """Project node/edge datasets into the tagged union schema.

    ``key_col`` must already hold the canonical identity string; edge
    ``src``/``dst`` must hold identity tokens (``identity_token``)."""
    attr_cols = attr_cols or []

    def tag_nodes(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if attr_cols:
            cols = {c: batch.column(c).to_pylist() for c in attr_cols}
            attrs = [
                json.dumps({c: cols[c][i] for c in attr_cols if is_filled(cols[c][i])},
                           sort_keys=True, ensure_ascii=False)
                for i in range(n)
            ]
        else:
            attrs = ["{}"] * n
        return pa.table(
            {
                "doc_id": batch.column(doc_col).cast(pa.string()),
                "side": pa.array([side] * n),
                "kind": pa.array(["node"] * n),
                "cls": batch.column(cls_col).cast(pa.string()),
                "key": batch.column(key_col).cast(pa.string()),
                "src": pa.array([""] * n, pa.string()),
                "dst": pa.array([""] * n, pa.string()),
                "attrs": pa.array(attrs, pa.string()),
            },
            schema=TAGGED_SCHEMA,
        )

    def tag_edges(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "doc_id": batch.column(doc_col).cast(pa.string()),
                "side": pa.array([side] * n),
                "kind": pa.array(["edge"] * n),
                "cls": batch.column(label_col).cast(pa.string()),
                "key": pa.array([""] * n, pa.string()),
                "src": batch.column(src_col).cast(pa.string()),
                "dst": batch.column(dst_col).cast(pa.string()),
                "attrs": pa.array(["{}"] * n, pa.string()),
            },
            schema=TAGGED_SCHEMA,
        )

    tagged = nodes.map_batches(tag_nodes, batch_format="pyarrow")
    if edges is not None:
        tagged = tagged.union(edges.map_batches(tag_edges, batch_format="pyarrow"))
    return tagged


def _eval_one_doc(group: pa.Table, structural: str, root_cls: str | None) -> pa.Table:
    """The matching ladder for ONE document (pure Python on a small group)."""
    doc_id = group.column("doc_id")[0].as_py()
    rows = group.to_pylist()

    gt_by_key: dict[tuple[str, str], dict] = {}
    got_by_key: dict[tuple[str, str], dict] = {}
    gt_edges: list[tuple[str, str, str]] = []
    got_edges: list[tuple[str, str, str]] = []
    source_text = ""
    for r in rows:
        if r["kind"] == "node":
            key = (r["cls"], r["key"])
            target = gt_by_key if r["side"] == "gt" else got_by_key
            # first wins; duplicates are integrity findings (eval:403)
            target.setdefault(key, json.loads(r["attrs"] or "{}"))
        elif r["kind"] == "edge":
            edge = (r["cls"], r["src"], r["dst"])
            (gt_edges if r["side"] == "gt" else got_edges).append(edge)
        elif r["kind"] == "source":
            source_text += r["attrs"] or ""

    source_norm = normalize_text(source_text) if source_text else None
    source_squashed = squash(source_text) if source_text else None

    # --- node matching: strict -> relaxed -> structural ---
    strict = set(gt_by_key) & set(got_by_key)
    gt_only = sorted(k for k in gt_by_key if k not in strict)
    got_only = sorted(k for k in got_by_key if k not in strict)
    relaxed_pairs = relaxed_match_pairs(gt_only, got_only)
    relaxed_gt = {a for a, _ in relaxed_pairs}
    relaxed_got = {b for _, b in relaxed_pairs}

    if structural == "on":
        align_classes = {k[0] for k in gt_by_key} | {k[0] for k in got_by_key}
    elif structural == "auto" and source_squashed:
        align_classes = detect_synthetic_classes(list(gt_by_key), source_squashed)
    else:
        align_classes = set()

    aligned_pairs: list[tuple[tuple[str, str], tuple[str, str], object]] = []
    # singleton-root pairing (16_extraction_evaluation.py:434-449)
    if structural != "off" and root_cls:
        gt_roots = [k for k in gt_by_key if k[0] == root_cls]
        got_roots = [k for k in got_by_key if k[0] == root_cls]
        if (
            len(gt_roots) == 1 and len(got_roots) == 1
            and gt_roots[0] in gt_only and got_roots[0] in got_only
            and gt_roots[0] not in relaxed_gt and got_roots[0] not in relaxed_got
        ):
            aligned_pairs.append((gt_roots[0], got_roots[0], "singleton-root"))

    if align_classes:
        paired_gt = {a for a, _, _ in aligned_pairs}
        paired_got = {b for _, b, _ in aligned_pairs}
        remaining_gt = [k for k in gt_only
                        if k not in relaxed_gt and k not in paired_gt]
        remaining_got = [k for k in got_only
                         if k not in relaxed_got and k not in paired_got]
        aligned_pairs.extend(
            structural_align_pairs(remaining_gt, remaining_got,
                                   gt_by_key, got_by_key, align_classes)
        )
    aligned_gt = {a for a, _, _ in aligned_pairs}
    aligned_got = {b for _, b, _ in aligned_pairs}
    aligned_active = bool(align_classes) or bool(aligned_pairs)

    out: list[tuple[str, str, str, str, int, int, int]] = []

    classes = sorted({k[0] for k in gt_by_key} | {k[0] for k in got_by_key})
    for cls in classes:
        gt_cls = {k for k in gt_by_key if k[0] == cls}
        got_cls = {k for k in got_by_key if k[0] == cls}
        tp = len(gt_cls & got_cls)
        rel_extra = len([a for a in relaxed_gt if a[0] == cls])
        ali_extra = rel_extra + len([a for a in aligned_gt if a[0] == cls])
        rel_got = len([b for b in relaxed_got if b[0] == cls])
        ali_got = rel_got + len([b for b in aligned_got if b[0] == cls])
        out.append((doc_id, "nodes", "strict", cls,
                    tp, len(got_cls) - tp, len(gt_cls) - tp))
        out.append((doc_id, "nodes", "relaxed", cls,
                    tp + rel_extra, len(got_cls) - tp - rel_got,
                    len(gt_cls) - tp - rel_extra))
        if aligned_active:
            out.append((doc_id, "nodes", "aligned", cls,
                        tp + ali_extra, len(got_cls) - tp - ali_got,
                        len(gt_cls) - tp - ali_extra))

    # --- edge matching via identity-token fold maps (eval:491-514) ---
    def token(key: tuple[str, str]) -> str:
        return identity_token(*key)

    alias_fold = {token(b): token(a) for a, b in relaxed_pairs}
    aligned_fold = dict(alias_fold)
    aligned_fold.update({token(b): token(a) for a, b, _ in aligned_pairs})

    def edge_keys(edges: list, fold: dict) -> set:
        return {
            (label, fold.get(s, s), fold.get(d, d))
            for label, s, d in edges
        }

    gt_e = edge_keys(gt_edges, {})
    got_strict = edge_keys(got_edges, {})
    got_relaxed = edge_keys(got_edges, alias_fold)
    got_aligned = edge_keys(got_edges, aligned_fold)
    for label in sorted({k[0] for k in gt_e | got_strict}):
        gt_l = {k for k in gt_e if k[0] == label}
        for rung, got_set in (
            ("strict", got_strict), ("relaxed", got_relaxed),
            ("aligned", got_aligned),
        ):
            if rung == "aligned" and not aligned_active:
                continue
            got_l = {k for k in got_set if k[0] == label}
            out.append((doc_id, "edges", rung, label,
                        len(gt_l & got_l), len(got_l - gt_l), len(gt_l - got_l)))

    # --- attribute completeness on strict matches (eval:540-549) ---
    comp: dict[tuple[str, str], list[int]] = {}
    verbatim = [0, 0]
    for key in strict:
        gt_attrs, got_attrs = gt_by_key[key], got_by_key[key]
        for field, gt_value in gt_attrs.items():
            if field in META_KEYS or not is_filled(gt_value):
                continue
            slot = comp.setdefault((key[0], field), [0, 0])
            slot[1] += 1
            if is_filled(got_attrs.get(field)):
                slot[0] += 1
        if source_norm:
            for field, value in got_attrs.items():
                if field in META_KEYS or not isinstance(value, str):
                    continue
                if len(value) < VERBATIM_MIN_CHARS:
                    continue
                verbatim[1] += 1
                if normalize_text(value) in source_norm:
                    verbatim[0] += 1
    for (cls, field), (filled, expected) in sorted(comp.items()):
        out.append((doc_id, "completeness", field, cls,
                    filled, 0, expected - filled))
    if verbatim[1]:
        out.append((doc_id, "verbatim", "", "",
                    verbatim[0], 0, verbatim[1] - verbatim[0]))

    if not out:
        return pa.table(
            {n: pa.array([], t.type) for n, t in zip(COUNT_SCHEMA.names,
                                                     COUNT_SCHEMA)},
            schema=COUNT_SCHEMA,
        )
    cols = list(zip(*out))
    return pa.table(
        {
            "doc_id": pa.array(cols[0], pa.string()),
            "section": pa.array(cols[1], pa.string()),
            "rung": pa.array(cols[2], pa.string()),
            "cls": pa.array(cols[3], pa.string()),
            "tp": pa.array(cols[4], pa.int64()),
            "fp": pa.array(cols[5], pa.int64()),
            "fn": pa.array(cols[6], pa.int64()),
        },
        schema=COUNT_SCHEMA,
    )


def evaluate_graphs(tagged, *, structural: str = "auto",
                    root_cls: str | None = None):
    """Per-document evaluation over the tagged union dataset.

    Returns count rows ``(doc_id, section, rung, cls, tp, fp, fn)``.
    ``structural``: "auto" (detect synthetic-id classes from the source
    text), "on" (align every class), "off".  Partitioning assumption:
    one document's graph fits in one group — the same per-document
    locality the whole engine relies on (SURVEY.md §2.12).

    Partition-bucketed (stages/bucketing.py): ``map_groups`` runs once
    per ``hash(doc_id) % P`` bucket, never once per document (SURVEY
    §7.4) — the matching ladder is inherent per-doc Python, but the
    per-group task/slice/table overhead is gone; one sorted pass walks
    the doc runs as zero-copy slices."""
    from docling_graph_ray.stages.bucketing import bucketed_map, run_starts

    def eval_partition(g: pa.Table) -> pa.Table:
        idx = pa.compute.sort_indices(
            g, sort_keys=[("doc_id", "ascending")])
        g = g.take(idx).combine_chunks()
        starts, lens = run_starts(g, ["doc_id"])
        return pa.concat_tables([
            _eval_one_doc(g.slice(s, ln), structural, root_cls)
            for s, ln in zip(starts.tolist(), lens.tolist())
        ])

    return bucketed_map(tagged, ["doc_id"], eval_partition)
