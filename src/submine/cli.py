"""Command-line driver.

Subcommands:
  run              execute one mining job, write manifest/metrics/results
  bench-queues     run the same job under both queue kinds and compare
  gen              write a deterministic synthetic dataset
  convert-edgelist turn a whitespace edge list into the canonical format

Configuration precedence for run/bench-queues: command-line flags beat
the --config file, which beats built-in defaults.  The manifest written
next to the results records the effective configuration plus the input
checksum, which is enough to reproduce the run byte-for-byte on the same
machine.
"""

import argparse
import os
import sys
from dataclasses import replace

from . import __version__
from .apps import APP_NAMES, make_app, parse_query_file
from .engine import RunConfig, run_job
from .gen import (
    complete_graph,
    fig4_data_graph,
    gnp_graph,
    graph_from_edges,
    hub_cluster_graph,
    labeled_gnp_graph,
    path_graph,
    star_graph,
)
from .graph import (
    MASK64,
    read_graph,
    read_graph_sha256,
    write_graph,
)

# job flag -> the RunConfig field it sets; its default is that field's
_RUN_FIELDS = {
    "workers": "workers",
    "buffer_capacity": "buffer_capacity",
    "file_capacity": "file_capacity",
    "cache_capacity": "cache_capacity",
    "queue": "queue_kind",
    "ell": "ell",
    "seed": "run_seed",
    "sync_rounds": "sync_every_rounds",
    "sync_ms": "sync_every_ms",
}

DEFAULTS = {
    **{flag: getattr(RunConfig, f) for flag, f in _RUN_FIELDS.items()},
    "gamma": "0.6",
    "min_size": 4,
}

_CONFIG_KEYS = set(DEFAULTS)


def _coerce(key, value):
    if key in ("queue", "gamma"):
        return value
    if key == "sync_ms":
        return float(value)
    return int(value)


def _read_config_file(path):
    """key = value lines; # comments; keys match the run flags.  Values
    are typed as they are read, so a bad one names its line."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"{path} line {lineno}: expected key = value")
            key, _, value = body.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path} line {lineno}: unknown key {key!r}")
            try:
                out[key] = _coerce(key, value)
            except ValueError:
                raise ValueError(
                    f"{path} line {lineno}: bad value {value!r} for {key}"
                ) from None
    return out


def _effective_config(args):
    """Defaults, then the --config file, then the flags (which argparse
    has already typed)."""
    eff = dict(DEFAULTS)
    if args.config:
        eff.update(_read_config_file(args.config))
    for k in _CONFIG_KEYS:
        v = getattr(args, k, None)
        if v is not None:
            eff[k] = v
    return eff


def _build_app(args, eff):
    query = None
    if args.app == "gmatch":
        if not args.query:
            raise ValueError("gmatch needs --query pointing at a query file")
        query = parse_query_file(args.query)
    return make_app(
        args.app,
        gamma=eff["gamma"],
        min_size=eff["min_size"],
        query=query,
        emit_triangles=args.emit_triangles,
    )


def _run_config(args, eff):
    fields = {f: eff[flag] for flag, f in _RUN_FIELDS.items()}
    fields["sync_every_rounds"] = fields["sync_every_rounds"] or None  # 0: off
    return RunConfig(**fields, workdir=args.workdir, collect_trace=args.trace)


def _fmt_aggregate(app_name, aggregate):
    if app_name == "maxclique":
        size, witness = aggregate
        return f"{size}\t{' '.join(map(str, witness))}"
    return str(aggregate)


def _write_manifest(path, args, eff, input_sha):
    lines = [
        "# run manifest",
        f"# tool version {__version__}",
        f"app = {args.app}",
        f"input = {os.path.abspath(args.input)}",
        f"input_sha256 = {input_sha}",
    ]
    for key in sorted(_CONFIG_KEYS):
        lines.append(f"{key} = {eff[key]}")
    if args.app == "gmatch":
        lines.append(f"query = {os.path.abspath(args.query)}")
    lines.append(f"emit_triangles = {args.emit_triangles}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_metrics(path, result):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"elapsed_s\t{result.elapsed:.6f}\n")
        for key in sorted(result.metrics):
            fh.write(f"{key}\t{result.metrics[key]}\n")
        for wid, m in enumerate(result.per_worker):
            for key in sorted(m):
                fh.write(f"w{wid}.{key}\t{m[key]}\n")


def _write_results(outdir, result):
    for wid, lines in enumerate(result.lines):
        path = os.path.join(outdir, f"results-w{wid}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")


def format_trace_event(ev):
    """One trace event as a line of its trace file: space-separated
    fields, each tuple field written comma-terminated (5,9,12,)."""
    return " ".join(
        ",".join(map(str, f)) + "," if isinstance(f, tuple) else str(f)
        for f in ev
    )


def cmd_run(args):
    eff = _effective_config(args)
    app = _build_app(args, eff)
    cfg = _run_config(args, eff)
    graph, input_sha = read_graph_sha256(args.input)
    result = run_job(cfg, app, graph)
    outdir = args.outdir or "."
    os.makedirs(outdir, exist_ok=True)
    _write_manifest(os.path.join(outdir, "manifest.txt"), args, eff, input_sha)
    _write_metrics(os.path.join(outdir, "metrics.txt"), result)
    _write_results(outdir, result)
    if args.trace and result.traces is not None:
        for wid, tr in enumerate(result.traces):
            with open(os.path.join(outdir, f"trace-w{wid}.txt"), "w",
                      encoding="utf-8") as fh:
                fh.writelines(format_trace_event(ev) + "\n" for ev in tr)
    print(_fmt_aggregate(args.app, result.aggregate))
    return 0


def cmd_bench_queues(args):
    eff = _effective_config(args)
    app = _build_app(args, eff)
    base = _run_config(args, eff)
    cfgs = [replace(base, queue_kind=kind) for kind in ("lsh", "stream")]
    graph = read_graph(args.input)
    rows = []
    for cfg in cfgs:
        result = run_job(cfg, app, graph)
        m = result.metrics
        rows.append({
            "queue": cfg.queue_kind,
            "elapsed_s": f"{result.elapsed:.3f}",
            "hit_rate": f"{result.cache_hit_rate():.4f}",
            "file_reads": m["queue_file_reads"],
            "file_writes": m["queue_file_writes"],
            "requests": m["requests_sent"],
            "aggregate": _fmt_aggregate(args.app, result.aggregate),
        })
    cols = ["queue", "elapsed_s", "hit_rate", "file_reads", "file_writes",
            "requests", "aggregate"]
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    if rows[0]["aggregate"] != rows[1]["aggregate"]:
        print("error: queue kinds disagree on the aggregate", file=sys.stderr)
        return 1
    return 0


# `gen --model` name -> its generator, called with the parsed arguments
_MODELS = {
    "gnp": lambda a: gnp_graph(a.n, a.p, a.seed),
    "labeled-gnp": lambda a: labeled_gnp_graph(
        a.n, a.p, a.seed, alphabet=_parse_labels(a.labels)),
    "complete": lambda a: complete_graph(a.n, start_id=a.start_id),
    "hub-cluster": lambda a: hub_cluster_graph(a.clusters, a.members, a.hubs,
                                               a.seed),
    "fig4": lambda a: fig4_data_graph(),
    "star": lambda a: star_graph(a.n),
    "path": lambda a: path_graph(a.n),
}


def cmd_gen(args):
    g = _MODELS[args.model](args)
    write_graph(g, args.out)
    print(f"{args.out}: {g.num_vertices} vertices")
    return 0


def _parse_labels(spec):
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        if len(lo) != 1 or len(hi) != 1 or ord(lo) > ord(hi):
            raise ValueError(f"bad label range {spec!r}")
        return "".join(chr(c) for c in range(ord(lo), ord(hi) + 1))
    return spec


def _edge_end(tok, lineno):
    try:
        vid = int(tok)
    except ValueError:
        raise ValueError(f"line {lineno}: bad vertex id {tok!r}") from None
    if not 0 <= vid <= MASK64:
        raise ValueError(f"line {lineno}: vertex id {vid} is outside 0..2^64-1")
    return vid


def cmd_convert_edgelist(args):
    edges = set()
    with open(args.input, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            parts = body.split()
            if len(parts) < 2:
                raise ValueError(f"line {lineno}: expected two vertex ids")
            a, b = _edge_end(parts[0], lineno), _edge_end(parts[1], lineno)
            if a == b:
                continue
            edges.add((min(a, b), max(a, b)))
    g = graph_from_edges(sorted({vid for e in edges for vid in e}), edges)
    write_graph(g, args.out)
    print(f"{args.out}: {g.num_vertices} vertices, {len(edges)} edges")
    return 0


def _add_job_flags(p):
    p.add_argument("--app", required=True, choices=APP_NAMES)
    p.add_argument("--input", required=True, help="data graph file")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--workers", type=int)
    p.add_argument("--buffer-capacity", type=int, dest="buffer_capacity")
    p.add_argument("--file-capacity", type=int, dest="file_capacity")
    p.add_argument("--cache-capacity", type=int, dest="cache_capacity")
    p.add_argument("--queue", choices=("lsh", "stream"))
    p.add_argument("--ell", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--sync-rounds", type=int, dest="sync_rounds",
                   help="aggregator sync period in rounds; 0 disables")
    p.add_argument("--sync-ms", type=float, dest="sync_ms")
    p.add_argument("--gamma", help="quasi-clique density, e.g. 0.6")
    p.add_argument("--min-size", type=int, dest="min_size")
    p.add_argument("--query", help="query graph file (gmatch)")
    p.add_argument("--emit-triangles", action="store_true",
                   help="emit one line per triangle (attribution checks)")
    p.add_argument("--workdir", help="queue spill directory (default: temp)")
    p.add_argument("--trace", action="store_true",
                   help="collect per-worker event traces")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="submine",
        description="multi-worker subgraph-centric graph mining",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one mining job")
    _add_job_flags(p_run)
    p_run.add_argument("--outdir", help="where manifest/metrics/results go")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench-queues",
                             help="compare lsh and stream queues on one job")
    _add_job_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench_queues)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("--model", required=True, choices=sorted(_MODELS))
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--n", type=int, default=10)
    p_gen.add_argument("--p", type=float, default=0.1)
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--labels", default="a..g")
    p_gen.add_argument("--start-id", type=int, default=1, dest="start_id")
    p_gen.add_argument("--clusters", type=int, default=10)
    p_gen.add_argument("--members", type=int, default=20)
    p_gen.add_argument("--hubs", type=int, default=5)
    p_gen.set_defaults(func=cmd_gen)

    p_conv = sub.add_parser("convert-edgelist",
                            help="convert an edge list to the canonical format")
    p_conv.add_argument("--input", required=True)
    p_conv.add_argument("--out", required=True)
    p_conv.set_defaults(func=cmd_convert_edgelist)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: no such file: {e.filename or e}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
