"""CLI: ``python -m docling_graph_ray <command>``.

The user-facing analogue of the reference's ``docling-graph`` CLI
(docling_graph/cli/main.py:79-83 — convert / merge): here the unit of
work is a pages TABLE, not one document.

Commands:
  extract   pages parquet → partitioned extraction run (resumable)
  report    completed run dir → report.md
  chunks    extraction run → chunk-table parquet
  merge     N graph.json exports → merged graph.json + merge_report.json

The CLI owns its Ray session (guarded init); library code never calls
ray.init (driver contract)."""

from __future__ import annotations

import argparse
import os
import sys


def _ray_init(num_cpus: int | None) -> bool:
    """Guarded init; returns True iff THIS call created the session (the
    CLI only shuts down a session it owns — an embedding caller's
    session is never torn down)."""
    import ray

    if ray.is_initialized():
        return False
    kwargs = {"address": "local", "include_dashboard": False,
              "logging_level": "ERROR"}
    if num_cpus:
        kwargs["num_cpus"] = num_cpus
    ray.init(**kwargs)
    return True


_INIT_CONFIG = """\
# docling_graph_ray pipeline configuration (written by `init`).
# Values here are DEFAULTS for `extract --config <this file>`; explicit
# CLI flags always win.  Reference analogue: cli/commands/init.py
# (interactive); this scaffold is non-interactive by design — edit it.
input: ./pages_parquet      # pages parquet dir/file (url, warc_ts, html, text, lang)
out: ./extract_run          # run output dir (partitioned parquet + manifests)
partitions: 64              # url-hash partitions (resume granularity)
num_cpus: null              # null = let ray size the local session
resume: true                # skip partitions with committed manifests
shuffle_codec: zstd         # zstd | null — text payload through the shuffle
"""


def cmd_init(args: argparse.Namespace) -> int:
    path = args.out or "docling_graph_ray.yaml"
    if os.path.exists(path) and not args.force:
        print(f"init: {path} already exists (use --force to overwrite)")
        return 1
    with open(path, "w", encoding="utf-8") as f:
        f.write(_INIT_CONFIG)
    print(f"init: wrote {path}\nnext: edit it, then run\n"
          f"  python -m docling_graph_ray extract --config {path}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """Graph export (nodes.csv/edges.csv dir, or graph.json) →
    self-contained interactive HTML (reference: cli/commands/inspect.py
    — browser-opening dropped; the HTML file is the product)."""
    from docling_graph_ray.visualize import export_graph_html

    path = args.path
    fmt = args.format
    if fmt == "auto":
        fmt = "json" if os.path.isfile(path) else "csv"
    if fmt == "json":
        from docling_graph_ray.stages.exporters import import_graph_json

        nodes, edges, _meta = import_graph_json(path)
    elif fmt == "csv":
        import pandas as pd

        nodes_p = os.path.join(path, "nodes.csv")
        edges_p = os.path.join(path, "edges.csv")
        for p in (nodes_p, edges_p):
            if not os.path.exists(p):
                print(f"inspect: missing {p}")
                return 1
        nodes = pd.read_csv(nodes_p).to_dict("records")
        edges = pd.read_csv(edges_p).to_dict("records")
    else:
        print(f"inspect: unknown format {fmt!r} (csv | json)")
        return 1
    out = args.out or (
        os.path.splitext(path)[0] + ".html" if fmt == "json"
        else os.path.join(path, "graph.html"))
    export_graph_html(nodes, edges, out,
                      max_nodes=args.max_nodes,
                      title=os.path.basename(path.rstrip("/")))
    print(f"inspect: wrote {out} ({len(nodes)} nodes, {len(edges)} edges)")
    return 0


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset extract args from a YAML config (CLI flags win)."""
    if not getattr(args, "config", None):
        if not args.input or not args.out:
            raise SystemExit("extract: --input/--out required "
                             "(or pass --config)")
        if args.partitions is None:
            args.partitions = 64
        return
    import yaml

    with open(args.config, encoding="utf-8") as f:
        cfg = yaml.safe_load(f) or {}
    args.input = args.input or cfg.get("input")
    args.out = args.out or cfg.get("out")
    if args.partitions is None:
        args.partitions = int(cfg.get("partitions") or 64)
    if args.num_cpus is None and cfg.get("num_cpus"):
        args.num_cpus = int(cfg["num_cpus"])
    if not args.no_resume and cfg.get("resume") is False:
        args.no_resume = True
    if not args.no_shuffle_codec and cfg.get("shuffle_codec", "zstd") in (
            None, "null", "none"):
        args.no_shuffle_codec = True
    if not args.input or not args.out:
        raise SystemExit("extract: input/out missing from flags AND config")


def cmd_extract(args: argparse.Namespace) -> int:
    _apply_config(args)
    owns = _ray_init(args.num_cpus)
    import ray

    from docling_graph_ray.pipelines.extract import (
        read_pages_parquet,
        run_extract_pipeline,
    )
    from docling_graph_ray.report import write_run_report
    from docling_graph_ray.state.manifest import write_run_manifest

    lineage = run_extract_pipeline(
        read_pages_parquet(args.input), out_dir=args.out,
        num_partitions=args.partitions, resume=not args.no_resume,
        shuffle_codec=None if args.no_shuffle_codec else "zstd",
    )
    n = lineage.count()
    write_run_manifest(args.out, {
        "input": args.input, "num_partitions": args.partitions,
    })
    report = write_run_report(args.out)
    print(f"extract: {n} partitions finalized → {args.out} ({report})")
    if owns:
        ray.shutdown()
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from docling_graph_ray.report import write_run_report

    print(write_run_report(args.run_dir))
    return 0


def cmd_chunks(args: argparse.Namespace) -> int:
    owns = _ray_init(args.num_cpus)
    import ray
    import ray.data

    from docling_graph_ray.stages.chunking import chunk_batch

    extracted = ray.data.read_parquet(args.input)
    chunks = extracted.map_batches(
        chunk_batch(max_tokens=args.max_tokens), batch_format="pyarrow"
    )
    chunks.write_parquet(args.out)
    print(f"chunks: wrote {args.out}")
    if owns:
        ray.shutdown()
    return 0


def cmd_induce(args: argparse.Namespace) -> int:
    """Induce a template from a parquet table: distributed field
    profiling → spec → repair → lint gate → deterministic render →
    exec verification (the reference's ``docling-graph template
    from-docs`` flow, templategen/generate.py:1-40, with profiling in
    place of the LLM draft)."""
    import json as _json
    from pathlib import Path

    owns = _ray_init(args.num_cpus)
    import ray
    import ray.data

    from docling_graph_ray.templategen import (
        induce_spec,
        lint_spec,
        profile_columns,
        render_template,
        repair_spec,
        verify_template_source,
    )

    ds = ray.data.read_parquet(args.input)
    columns = args.columns.split(",") if args.columns else ds.schema().names
    prof = profile_columns(ds, cls=args.root, columns=columns)
    spec = induce_spec(prof, root=args.root)
    spec, actions = repair_spec(spec)
    findings = [f for f in lint_spec(spec) if f["code"].startswith("E")]
    if findings:
        print(f"induce: {len(findings)} unrepaired lint errors", file=sys.stderr)
        for f in findings:
            print(f"  {f['code']} {f['where']}: {f['message']}", file=sys.stderr)
        return 1
    source = render_template(spec)
    verify_template_source(source)  # accept gate: must execute
    out = Path(args.out)
    out.write_text(source, encoding="utf-8")
    out.with_suffix(".spec.json").write_text(
        _json.dumps(spec, indent=2, ensure_ascii=False), encoding="utf-8"
    )
    print(f"induce: {len(spec['models'])} models, {len(spec['enums'])} enums, "
          f"{len(actions)} repairs → {out} (+ {out.with_suffix('.spec.json').name})")
    if owns:
        ray.shutdown()
    return 0


def cmd_from_ontology(args: argparse.Namespace) -> int:
    """Compile an ontology/schema file into a template module — the
    reference's LLM-free ``docling-graph template from-ontology`` flow
    (templategen/ontology/{jsonschema,linkml,owl}.py): compile → repair →
    lint gate → deterministic render → exec verification.  Driver-side
    tooling; no Ray session needed."""
    import json as _json
    from pathlib import Path

    from docling_graph_ray.ontology import (
        spec_from_json_schema,
        spec_from_linkml,
        spec_from_ttl,
    )
    from docling_graph_ray.templategen import (
        lint_spec,
        render_template,
        repair_spec,
        verify_template_source,
    )

    src_path = Path(args.input)
    text = src_path.read_text(encoding="utf-8")
    suffix = src_path.suffix.lower()
    if args.format:
        fmt = args.format
    elif suffix == ".json" or src_path.name.endswith(".schema.json"):
        fmt = "jsonschema"
    elif suffix in (".yaml", ".yml"):
        fmt = "linkml"
    elif suffix in (".ttl", ".n3"):
        fmt = "ttl"
    else:
        print(f"from-ontology: cannot infer format of {src_path}; "
              "pass --format", file=sys.stderr)
        return 1
    if fmt == "jsonschema":
        spec = spec_from_json_schema(_json.loads(text), name=src_path.stem)
    elif fmt == "linkml":
        spec = spec_from_linkml(text, name=src_path.stem)
    else:
        spec = spec_from_ttl(text, name=src_path.stem)
    spec, actions = repair_spec(spec)
    findings = [f for f in lint_spec(spec) if f["code"].startswith("E")]
    if findings:
        print(f"from-ontology: {len(findings)} unrepaired lint errors",
              file=sys.stderr)
        for f in findings:
            print(f"  {f['code']} {f['where']}: {f['message']}",
                  file=sys.stderr)
        return 1
    source = render_template(spec)
    verify_template_source(source)
    out = Path(args.out)
    out.write_text(source, encoding="utf-8")
    out.with_suffix(".spec.json").write_text(
        _json.dumps(spec, indent=2, ensure_ascii=False), encoding="utf-8")
    print(f"from-ontology[{fmt}]: {len(spec['models'])} models, "
          f"{len(spec['enums'])} enums, {len(actions)} repairs → {out}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Lint an EXISTING template module: import the root class, walk it
    back into a spec (reverse.py semantics — lenient, findings not
    crashes), and report what the rulebook would change (reference
    ``docling-graph template lint`` / reverse.py spec_from_dotted_path).
    Driver-side; no Ray session."""
    import importlib.util
    import sys as _sys
    from pathlib import Path

    from pydantic import BaseModel

    from docling_graph_ray.templategen import (
        lint_spec,
        render_template,
        spec_from_template,
        verify_template_source,
    )

    module_path, _, class_name = args.target.rpartition(":")
    if not module_path:
        print("lint: target must be 'module_or_file:ClassName'",
              file=sys.stderr)
        return 2
    if module_path.endswith(".py"):
        # load the file as a scratch module (TemplateLoadingStage
        # semantics: cwd temporarily importable)
        spec_ns: dict = {}
        source = Path(module_path).read_text(encoding="utf-8")
        # user-supplied file: the V1b import allowlist runs BEFORE exec
        # (linting executes the module — reference verify.py gate order)
        try:
            spec_ns = verify_template_source(source, check_imports=True)
        except (ValueError, SyntaxError) as err:
            print(f"lint: refused — {err}", file=sys.stderr)
            return 2
        cls = spec_ns.get(class_name)
    else:
        from docling_graph_ray.templategen import check_template_imports

        _sys.path.insert(0, ".")
        try:
            # dotted-module targets execute module code on import — run
            # the same V1b allowlist over the located source FIRST so
            # both target forms are gated (reference verify.py order)
            spec = importlib.util.find_spec(module_path)
            origin = getattr(spec, "origin", None) if spec else None
            if origin and origin.endswith(".py"):
                violations = check_template_imports(
                    Path(origin).read_text(encoding="utf-8"))
                if violations:
                    print("lint: refused — import allowlist: "
                          + "; ".join(violations), file=sys.stderr)
                    return 2
            elif origin != "built-in":
                print(f"lint: refused — cannot locate python source for "
                      f"{module_path!r} to gate imports", file=sys.stderr)
                return 2
            mod = importlib.import_module(module_path)
        except (ImportError, SyntaxError, OSError) as err:
            print(f"lint: refused — {err}", file=sys.stderr)
            return 2
        finally:
            _sys.path.pop(0)
        cls = getattr(mod, class_name, None)
    if not (isinstance(cls, type) and issubclass(cls, BaseModel)):
        print(f"lint: {args.target!r} is not a BaseModel class",
              file=sys.stderr)
        return 2
    spec, findings = spec_from_template(cls)
    errors = [f for f in lint_spec(spec) if f["code"].startswith("E")]
    for line in findings:
        print(f"  note  {line}")
    for f in errors:
        print(f"  ERROR {f['code']} {f['where']}: {f['message']}")
    if args.out:
        Path(args.out).write_text(render_template(spec), encoding="utf-8")
        print(f"lint: repaired re-render → {args.out}")
    print(f"lint: {len(findings)} findings, {len(errors)} errors")
    return 1 if errors else 0


def cmd_merge(args: argparse.Namespace) -> int:
    # pure driver-side composition (graph.json exports are small); no Ray
    from docling_graph_ray.merge import merge_graph_files

    try:
        report = merge_graph_files(
            args.inputs, args.out,
            strict=not args.no_strict, rekey=not args.no_rekey,
        )
    except ValueError as e:
        print(f"merge: refused — {e}", file=sys.stderr)
        return 2
    print(
        f"merge: {report['inputs']} inputs → {report['n_nodes']} nodes, "
        f"{report['n_edges']} edges; {len(report['splits'])} splits, "
        f"{len(report['fold_conflicts'])} conflicts → {args.out}"
    )
    return 0


def cmd_curate(args: argparse.Namespace) -> int:
    owns = _ray_init(args.num_cpus)
    import ray
    import ray.data

    from docling_graph_ray.pipelines.textops import curate_documents

    docs = ray.data.read_parquet(args.input, columns=["doc_id", "text", "lang"])
    out = curate_documents(docs, alpha=args.alpha)
    out.write_parquet(args.out)
    print(f"curate: wrote split assignments → {args.out}")
    if owns:
        ray.shutdown()
    return 0


def cmd_shards(args: argparse.Namespace) -> int:
    """documents parquet → binary training shards + manifest parquet
    (whitespace tokens hashed to ids; plug a BPE pass upstream for
    real vocabularies — the sink only needs (doc_id, toks, n_tokens))."""
    owns = _ray_init(args.num_cpus)
    import zlib

    import pyarrow as pa

    import ray
    import ray.data

    from docling_graph_ray.stages.token_shards import write_token_shards

    def tok(b: pa.Table) -> pa.Table:
        texts = b.column("text").to_pylist()
        toks = [
            [zlib.crc32(w.encode()) % args.vocab for w in (t or "").split()]
            for t in texts
        ]
        return pa.table({
            "doc_id": b.column("doc_id"),
            "toks": pa.array(toks, pa.list_(pa.int64())),
            "n_tokens": pa.array([len(x) for x in toks], pa.int64()),
        })

    docs = ray.data.read_parquet(args.input, columns=["doc_id", "text"])
    man = write_token_shards(
        docs.map_batches(tok, batch_format="pyarrow"),
        args.out,
        seq_len=args.seq_len, seqs_per_shard=args.seqs_per_shard,
        num_buckets=args.num_buckets, skip_existing=args.resume,
    ).materialize()  # manifest: one tiny row per shard
    man.write_parquet(args.out + "/_manifest")
    print(f"shards: wrote {man.count()} shards + manifest → {args.out}")
    if owns:
        ray.shutdown()
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="docling_graph_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    ini = sub.add_parser("init", help="write a pipeline config scaffold")
    ini.add_argument("--out", default=None,
                     help="config path (default docling_graph_ray.yaml)")
    ini.add_argument("--force", action="store_true")
    ini.set_defaults(fn=cmd_init)

    ins = sub.add_parser(
        "inspect", help="graph export (csv dir / graph.json) → HTML view")
    ins.add_argument("path", help="nodes.csv+edges.csv dir, or graph.json")
    ins.add_argument("--format", default="auto",
                     choices=["auto", "csv", "json"])
    ins.add_argument("--out", default=None, help="output HTML path")
    ins.add_argument("--max-nodes", type=int, default=2000,
                     dest="max_nodes")
    ins.set_defaults(fn=cmd_inspect)

    ex = sub.add_parser("extract", help="pages parquet → extraction run")
    ex.add_argument("--input", default=None, help="pages parquet dir/file")
    ex.add_argument("--out", default=None, help="run output dir")
    ex.add_argument("--config", default=None,
                    help="YAML config (from `init`); flags win")
    ex.add_argument("--partitions", type=int, default=None)
    ex.add_argument("--no-resume", action="store_true")
    ex.add_argument("--no-shuffle-codec", action="store_true",
                    dest="no_shuffle_codec",
                    help="disable zstd compression of the text payload "
                         "through the url-hash shuffle")
    ex.add_argument("--num-cpus", type=int, default=None, dest="num_cpus")
    ex.set_defaults(fn=cmd_extract)

    rp = sub.add_parser("report", help="run dir → report.md")
    rp.add_argument("run_dir")
    rp.set_defaults(fn=cmd_report)

    ch = sub.add_parser("chunks", help="extraction parquet → chunk parquet")
    ch.add_argument("--input", required=True)
    ch.add_argument("--out", required=True)
    ch.add_argument("--max-tokens", type=int, default=512, dest="max_tokens")
    ch.add_argument("--num-cpus", type=int, default=None, dest="num_cpus")
    ch.set_defaults(fn=cmd_chunks)

    ind = sub.add_parser("induce", help="parquet table → induced template .py")
    ind.add_argument("--input", required=True, help="records parquet dir/file")
    ind.add_argument("--out", required=True, help="template .py output path")
    ind.add_argument("--root", default="Record", help="root class name")
    ind.add_argument("--columns", default=None,
                     help="comma-separated columns (default: all)")
    ind.add_argument("--num-cpus", type=int, default=None, dest="num_cpus")
    ind.set_defaults(fn=cmd_induce)

    onto = sub.add_parser(
        "from-ontology",
        help="JSON-Schema / LinkML / OWL-TTL file → template .py (no LLM)",
    )
    onto.add_argument("--input", required=True, help="schema/ontology file")
    onto.add_argument("--out", required=True, help="template .py output path")
    onto.add_argument("--format", choices=("jsonschema", "linkml", "ttl"),
                      default=None, help="override format inference")
    onto.set_defaults(fn=cmd_from_ontology)

    lt = sub.add_parser(
        "lint", help="lint an existing template module (reverse → rules)")
    lt.add_argument("target",
                    help="'module_or_file.py:ClassName' root template")
    lt.add_argument("--out", default=None,
                    help="write the repaired re-render here")
    lt.set_defaults(fn=cmd_lint)

    mg = sub.add_parser(
        "merge", help="merge graph.json exports (gate + re-key + split)")
    mg.add_argument("--inputs", required=True, nargs="+",
                    help="graph.json paths, merged left to right")
    mg.add_argument("--out", required=True, help="merged graph.json path")
    mg.add_argument("--no-strict", action="store_true", dest="no_strict",
                    help="warn instead of refusing on schema-hash mismatch")
    mg.add_argument("--no-rekey", action="store_true", dest="no_rekey",
                    help="keep input node ids (skip identity re-keying)")
    mg.set_defaults(fn=cmd_merge)

    cu = sub.add_parser(
        "curate",
        help="documents parquet → curated split assignments "
             "(quality gate + dedup + temperature mix + split)",
    )
    cu.add_argument("--input", required=True,
                    help="documents parquet dir/file "
                         "(doc_id, text, lang columns)")
    cu.add_argument("--out", required=True, help="output parquet dir")
    cu.add_argument("--alpha", type=float, default=0.5,
                    help="temperature (1 keeps all, 0 equalizes languages)")
    cu.add_argument("--num-cpus", type=int, default=None, dest="num_cpus")
    cu.set_defaults(fn=cmd_curate)

    sh = sub.add_parser(
        "shards",
        help="documents parquet → binary training shards (.bin) + "
             "manifest (tokenize → pack → shard-bounded assembly)",
    )
    sh.add_argument("--input", required=True,
                    help="documents parquet dir/file (doc_id, text)")
    sh.add_argument("--out", required=True, help="shard output dir")
    sh.add_argument("--seq-len", type=int, default=2048, dest="seq_len")
    sh.add_argument("--seqs-per-shard", type=int, default=1024,
                    dest="seqs_per_shard")
    sh.add_argument("--num-buckets", type=int, default=64,
                    dest="num_buckets")
    sh.add_argument("--vocab", type=int, default=65536,
                    help="hashed-token vocabulary size")
    sh.add_argument("--resume", action="store_true",
                    help="skip shards whose file already exists")
    sh.add_argument("--num-cpus", type=int, default=None, dest="num_cpus")
    sh.set_defaults(fn=cmd_shards)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
