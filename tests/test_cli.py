"""End-to-end checks of the command-line driver (in-process)."""

import builtins
import hashlib
import os
import tempfile

import pytest

from submine import __version__
from submine.cli import main
from submine.apps import make_app
from submine.engine import RunConfig, run_job
from submine.gen import complete_graph, fig4_data_graph, gnp_graph
from submine.graph import check_undirected, read_graph, write_graph

from testkit import parse_trace

FIG4_QUERY = "# start: 1\n1\ta\t2 3\n2\tc\t1 3 4\n3\tb\t1 2\n4\tb\t2 5\n5\td\t4\n"


def _k4(tmp_path):
    path = tmp_path / "k4.graph"
    write_graph(complete_graph(4), path)
    return str(path)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _manifest_dict(outdir):
    out = {}
    for line in _read(os.path.join(outdir, "manifest.txt")).splitlines():
        if line.startswith("#"):
            continue
        k, _, v = line.partition(" = ")
        out[k] = v
    return out


def test_run_triangle_counts_k4(tmp_path, capsys):
    g = _k4(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--app", "triangle", "--input", g,
               "--workers", "2", "--outdir", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "4"
    man = _manifest_dict(out)
    assert man["app"] == "triangle"
    assert man["workers"] == "2"
    with open(g, "rb") as fh:
        assert man["input_sha256"] == hashlib.sha256(fh.read()).hexdigest()
    assert man["queue"] == "lsh"  # default recorded even when not given


def test_run_defaults_are_run_config_defaults(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--app", "triangle", "--input", _k4(tmp_path),
               "--outdir", str(out)])
    assert rc == 0
    capsys.readouterr()
    d = RunConfig()
    want = {"workers": d.workers, "buffer_capacity": d.buffer_capacity,
            "file_capacity": d.file_capacity,
            "cache_capacity": d.cache_capacity, "queue": d.queue_kind,
            "ell": d.ell, "seed": d.run_seed,
            "sync_rounds": d.sync_every_rounds, "sync_ms": d.sync_every_ms}
    man = _manifest_dict(out)
    assert {k: man[k] for k in want} == {k: str(v) for k, v in want.items()}


def test_run_emit_triangles_results_files(tmp_path, capsys):
    g = _k4(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--app", "triangle", "--input", g, "--workers", "3",
               "--emit-triangles", "--outdir", str(out)])
    assert rc == 0
    lines = []
    for w in range(3):
        lines += _read(out / f"results-w{w}.txt").splitlines()
    assert sorted(lines) == ["1 2 3", "1 2 4", "1 3 4", "2 3 4"]


def test_run_results_files_are_each_workers_lines_in_emit_order(
        tmp_path, capsys):
    g = gnp_graph(150, 0.08, seed=3)
    data = tmp_path / "g.graph"
    write_graph(g, data)
    out = tmp_path / "out"
    rc = main(["run", "--app", "maximalcliques", "--input", str(data),
               "--workers", "3", "--cache-capacity", "30",
               "--buffer-capacity", "16", "--file-capacity", "4",
               "--outdir", str(out)])
    assert rc == 0
    capsys.readouterr()
    res = run_job(RunConfig(workers=3, cache_capacity=30, buffer_capacity=16,
                            file_capacity=4),
                  make_app("maximalcliques"), graph=g)
    assert all(res.lines)  # every worker emitted
    for k in range(3):
        assert _read(out / f"results-w{k}.txt").splitlines() == [
            line for w, _s, line in res.emitted if w == k]


def test_run_metrics_file(tmp_path, capsys):
    g = _k4(tmp_path)
    out = tmp_path / "out"
    main(["run", "--app", "triangle", "--input", g, "--workers", "2",
          "--outdir", str(out)])
    capsys.readouterr()
    keys = {line.split("\t")[0] for line in
            _read(out / "metrics.txt").splitlines()}
    for want in ("elapsed_s", "rounds", "tasks_completed", "queue_enqueued",
                 "cache_hits", "w0.rounds", "w1.tasks_completed"):
        assert want in keys


def test_run_trace_files_parse(tmp_path, capsys):
    g = _k4(tmp_path)
    out = tmp_path / "out"
    main(["run", "--app", "triangle", "--input", g, "--workers", "2",
          "--trace", "--outdir", str(out)])
    capsys.readouterr()
    total = 0
    for w in range(2):
        total += len(parse_trace(_read(out / f"trace-w{w}.txt")))
    assert total > 0


def test_run_maxclique_prints_size_and_witness(tmp_path, capsys):
    g = _k4(tmp_path)
    rc = main(["run", "--app", "maxclique", "--input", g, "--workers", "1",
               "--outdir", str(tmp_path / "o")])
    assert rc == 0
    size, witness = capsys.readouterr().out.strip().split("\t")
    assert size == "4"
    assert witness == "1 2 3 4"


def test_run_gmatch_end_to_end(tmp_path, capsys):
    data = tmp_path / "fig4.graph"
    write_graph(fig4_data_graph(), data)
    query = tmp_path / "query.txt"
    query.write_text(FIG4_QUERY, encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["run", "--app", "gmatch", "--input", str(data),
               "--query", str(query), "--workers", "2", "--outdir", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"
    lines = []
    for w in range(2):
        lines += _read(out / f"results-w{w}.txt").splitlines()
    assert lines == ["2 5 4 7 8"]
    assert _manifest_dict(out)["query"] == str(query)


def test_run_gmatch_without_query_fails(tmp_path, capsys):
    g = _k4(tmp_path)
    rc = main(["run", "--app", "gmatch", "--input", g])
    assert rc == 1
    assert "--query" in capsys.readouterr().err


def test_run_missing_input_names_path(tmp_path, capsys):
    rc = main(["run", "--app", "triangle",
               "--input", str(tmp_path / "absent.graph")])
    assert rc == 1
    assert "absent.graph" in capsys.readouterr().err


def test_run_reads_input_once_and_hashes_the_parsed_bytes(
        tmp_path, capsys, monkeypatch):
    g = _k4(tmp_path)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if file == g:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    rc = main(["run", "--app", "triangle", "--input", g, "--workers", "2",
               "--outdir", str(tmp_path / "out")])
    monkeypatch.undo()
    assert rc == 0
    assert opened == [g]
    with open(g, "rb") as fh:
        want = hashlib.sha256(fh.read()).hexdigest()
    assert _manifest_dict(tmp_path / "out")["input_sha256"] == want


@pytest.mark.parametrize("text,want", [
    ("1\t\t2\nx\t\t1\n", "line 2: bad vertex id 'x'"),
    ("1\t\t2\n2\t\t1\n1\t\t2\n", "line 3: duplicate vertex id 1"),
    ("# two vertices\n1\t\t2\n2\t\t1 3\n",
     "line 3: vertex 2 references missing vertex 3"),
])
def test_run_load_error_names_file_and_line(tmp_path, capsys, text, want):
    path = tmp_path / "bad.graph"
    path.write_text(text)
    rc = main(["run", "--app", "triangle", "--input", str(path)])
    assert rc == 1
    assert capsys.readouterr().err.strip() == f"error: {path}: {want}"


def test_run_rejects_non_utf8_input(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_bytes(b"1\t\t2\n2\t\xff\t1\n")
    rc = main(["run", "--app", "triangle", "--input", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8")


def test_run_accepts_stream_buffer_below_file_capacity(
        tmp_path, capsys, monkeypatch):
    # a stream queue is the key-ordered queue with sequence-only keys, so
    # it spills a buffer smaller than a file as the lsh queue does.
    # Seeding fills the queue only up to the buffer, so the spills come
    # from quasiclique's requeued tasks.
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    data = tmp_path / "g.graph"
    write_graph(gnp_graph(80, 0.15, seed=3), data)
    answers = []
    for queue in ("stream", "lsh"):
        out = tmp_path / queue
        rc = main(["run", "--app", "quasiclique", "--gamma", "0.6",
                   "--min-size", "4", "--input", str(data),
                   "--workers", "2", "--queue", queue, "--buffer-capacity",
                   "4", "--file-capacity", "100", "--outdir", str(out)])
        assert rc == 0
        answers.append(capsys.readouterr().out)
        metrics = dict(line.split("\t") for line in
                       _read(out / "metrics.txt").splitlines())
        assert int(metrics["queue_file_writes"]) > 0  # the buffer spilled
    assert answers[0] == answers[1] and int(answers[0]) > 0
    assert list(tmp.glob("submine-run-*")) == []


@pytest.mark.parametrize("command, queue", [
    ("run", ["--queue", "stream"]),
    ("bench-queues", []),  # runs a stream job after the lsh one
])
def test_bad_stream_capacities_fail_before_the_input_is_read(
        tmp_path, capsys, command, queue):
    # the config is checked first: a missing input is never reached
    for flag, value, message in [
            ("--buffer-capacity", "0", "buffer_capacity must be >= 1"),
            ("--file-capacity", "1", "file_capacity must be >= 2")]:
        rc = main([command, "--app", "triangle",
                   "--input", str(tmp_path / "missing.graph"), *queue,
                   flag, value])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--ell", "0", "ell must be >= 1"),
    ("--file-capacity", "1", "file_capacity must be >= 2"),
    ("--buffer-capacity", "0", "buffer_capacity must be >= 1"),
    ("--cache-capacity", "0", "cache capacity must be >= 1"),
    ("--ell", "65536", "ell must be <= 65535"),
    ("--file-capacity", "4294967296", "file_capacity must be <= 4294967295"),
    ("--sync-rounds", "-1", "sync_every_rounds must be >= 0"),
    ("--sync-ms", "-5", "sync_every_ms must be >= 0"),
])
def test_bad_config_fails_before_the_input_is_read(
        tmp_path, capsys, flag, value, message):
    rc = main(["run", "--app", "triangle", "--workers", "2",
               "--input", str(tmp_path / "missing.graph"), flag, value])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_config_file_precedence(tmp_path, capsys):
    g = _k4(tmp_path)
    cfg = tmp_path / "job.cfg"
    cfg.write_text("workers = 5\nqueue = stream  # spill FIFO\nseed = 9\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["run", "--app", "triangle", "--input", g, "--config", str(cfg),
               "--workers", "3", "--outdir", str(out)])
    assert rc == 0
    man = _manifest_dict(out)
    assert man["workers"] == "3"      # flag beats file
    assert man["queue"] == "stream"   # file beats default
    assert man["seed"] == "9"
    assert man["file_capacity"] == "100"  # untouched default


def test_config_file_skips_comments_and_reads_float_sync_ms(tmp_path, capsys):
    g = _k4(tmp_path)
    cfg = tmp_path / "job.cfg"
    cfg.write_text("# a job file\n\nsync_ms = 2.5  # milliseconds\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["run", "--app", "triangle", "--input", g, "--config", str(cfg),
               "--outdir", str(out)])
    assert rc == 0
    assert _manifest_dict(out)["sync_ms"] == "2.5"


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    g = _k4(tmp_path)
    cfg = tmp_path / "job.cfg"
    cfg.write_text("wokers = 5\n", encoding="utf-8")
    rc = main(["run", "--app", "triangle", "--input", g, "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown key" in err and "wokers" in err


def test_config_file_rejects_bad_line(tmp_path, capsys):
    g = _k4(tmp_path)
    cfg = tmp_path / "job.cfg"
    for text, want in (
        ("workers: 5\n", "line 1: expected key = value"),
        ("seed = 2\nworkers = abc\n", "line 2: bad value 'abc' for workers"),
    ):
        cfg.write_text(text, encoding="utf-8")
        rc = main(["run", "--app", "triangle", "--input", g,
                   "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{cfg} {want}" in err


def test_bench_queues_agrees(tmp_path, capsys):
    g = tmp_path / "g.graph"
    rc = main(["gen", "--model", "gnp", "--out", str(g),
               "--n", "40", "--p", "0.15", "--seed", "7"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["bench-queues", "--app", "triangle", "--input", str(g),
               "--workers", "2", "--cache-capacity", "16",
               "--buffer-capacity", "8", "--file-capacity", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:3] == ["queue", "elapsed_s", "hit_rate"]
    assert lines[1].split()[0] == "lsh"
    assert lines[2].split()[0] == "stream"
    # both rows report the same count in the aggregate column
    assert lines[1].split()[-1] == lines[2].split()[-1]


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.graph", tmp_path / "b.graph"
    for path in (a, b):
        main(["gen", "--model", "gnp", "--out", str(path),
              "--n", "60", "--p", "0.1", "--seed", "3"])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["--model", "gnp", "--n", "30", "--p", "0.2", "--seed", "1"],
    ["--model", "labeled-gnp", "--n", "30", "--p", "0.2", "--seed", "1",
     "--labels", "a..c"],
    ["--model", "complete", "--n", "6"],
    ["--model", "hub-cluster", "--clusters", "3", "--members", "5",
     "--hubs", "2", "--seed", "4"],
    ["--model", "fig4"],
    ["--model", "star", "--n", "7"],
    ["--model", "path", "--n", "7"],
])
def test_gen_models_write_valid_graphs(tmp_path, capsys, argv):
    out = tmp_path / "g.graph"
    rc = main(["gen", "--out", str(out)] + argv)
    assert rc == 0
    g = read_graph(out)
    check_undirected(g)
    assert g.num_vertices > 0


def test_gen_labeled_gnp_labels_roughly_uniform(tmp_path, capsys):
    out = tmp_path / "g.graph"
    main(["gen", "--model", "labeled-gnp", "--out", str(out), "--n", "10000",
          "--p", "0.0001", "--seed", "11", "--labels", "a..g"])
    capsys.readouterr()
    g = read_graph(out)
    counts = {}
    for v in g:
        counts[v.label] = counts.get(v.label, 0) + 1
    assert set(counts) == set("abcdefg")
    for c in counts.values():
        assert abs(c - 10000 / 7) / (10000 / 7) < 0.10


def test_gen_bad_label_range(tmp_path, capsys):
    rc = main(["gen", "--model", "labeled-gnp", "--out",
               str(tmp_path / "g"), "--labels", "z..a"])
    assert rc == 1
    assert "label range" in capsys.readouterr().err


def test_convert_edgelist(tmp_path, capsys):
    src = tmp_path / "edges.txt"
    src.write_text("# comment\n1 2\n2 1\n2 2\n3 1\n\n2 3\n", encoding="utf-8")
    out = tmp_path / "g.graph"
    rc = main(["convert-edgelist", "--input", str(src), "--out", str(out)])
    assert rc == 0
    assert "3 vertices, 3 edges" in capsys.readouterr().out
    g = read_graph(out)
    check_undirected(g)
    assert sorted(g[1].neighbor_ids()) == [2, 3]
    assert sorted(g[2].neighbor_ids()) == [1, 3]  # self-loop 2-2 dropped


@pytest.mark.parametrize("text,want", [
    ("1 2\n3\n", "line 2: expected two vertex ids"),
    ("1 2\n\n3 x\n", "line 3: bad vertex id 'x'"),
    ("-3 4\n", "line 1: vertex id -3 is outside 0..2^64-1"),
    (f"1 {2**64}\n", f"line 1: vertex id {2**64} is outside 0..2^64-1"),
])
def test_convert_edgelist_rejects_bad_line(tmp_path, capsys, text, want):
    src = tmp_path / "edges.txt"
    src.write_text(text, encoding="utf-8")
    out = tmp_path / "g.graph"
    rc = main(["convert-edgelist", "--input", str(src), "--out", str(out)])
    assert rc == 1
    assert want in capsys.readouterr().err
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_run_sync_rounds_zero_disables(tmp_path, capsys):
    g = _k4(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--app", "maxclique", "--input", g, "--workers", "2",
               "--sync-rounds", "0", "--outdir", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip().startswith("4\t")
