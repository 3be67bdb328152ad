"""The command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_schedulers_lists_all(capsys):
    assert main(["schedulers"]) == 0
    out = capsys.readouterr().out
    for name in ("fair", "sjf", "coflow", "sincronia", "echelon"):
        assert name in out


def test_models_lists_zoo(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    assert "resnet50" in out and "gpt2_xl" in out
    assert "1496.0M" in out  # GPT-2 XL ~1.5B params


def test_fig2_reports_optimum(capsys):
    assert main(["fig2"]) == 0
    out = capsys.readouterr().out
    assert "echelon" in out
    assert "| 8 " in out or "| 8\n" in out


def test_run_pp(capsys):
    assert (
        main(
            [
                "run",
                "--paradigm",
                "pp-gpipe",
                "--model",
                "tiny_mlp",
                "--workers",
                "2",
                "--micro-batches",
                "2",
                "--timeline",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "comp finish time" in out
    assert "|" in out  # the timeline rendered


@pytest.mark.parametrize("paradigm", ["dp-allreduce", "dp-ps", "tp", "fsdp", "pp-1f1b"])
def test_run_every_paradigm(capsys, paradigm):
    assert (
        main(
            [
                "run",
                "--paradigm",
                paradigm,
                "--model",
                "tiny_mlp",
                "--workers",
                "2",
                "--micro-batches",
                "2",
            ]
        )
        == 0
    )
    assert "flows delivered" in capsys.readouterr().out


def test_run_writes_trace(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert (
        main(
            [
                "run",
                "--paradigm",
                "dp-allreduce",
                "--model",
                "tiny_mlp",
                "--workers",
                "2",
                "--trace",
                str(path),
            ]
        )
        == 0
    )
    payload = json.loads(path.read_text())
    assert payload["flows"]


def test_cluster_command(capsys):
    assert (
        main(
            [
                "cluster",
                "--model",
                "tiny_mlp",
                "--jobs",
                "4",
                "--hosts",
                "4",
                "--job-workers",
                "2",
                "--rate",
                "50",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "jobs completed" in out and "| 4" in out


def test_matrix_command(capsys):
    assert (
        main(
            [
                "matrix",
                "--schedulers",
                "fair,echelon",
                "--model",
                "tiny_mlp",
                "--workers",
                "2",
                "--micro-batches",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "fsdp" in out and "pp-1f1b" in out
    assert "fair" in out and "echelon" in out and "best" in out


def test_run_emits_chrome_trace_and_metrics(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    events_path = tmp_path / "events.jsonl"
    assert (
        main(
            [
                "run",
                "--paradigm",
                "fsdp",
                "--model",
                "tiny_mlp",
                "--workers",
                "2",
                "--emit-trace",
                str(trace_path),
                "--metrics-out",
                str(metrics_path),
                "--events-out",
                str(events_path),
            ]
        )
        == 0
    )
    document = json.loads(trace_path.read_text())
    assert document["traceEvents"]
    assert any(e["ph"] == "X" for e in document["traceEvents"])
    metrics = json.loads(metrics_path.read_text())
    assert metrics["scheduler"]["invocations"] > 0
    assert metrics["scheduler"]["by_cause"]
    assert metrics["links"]
    assert all(
        0 <= link["peak_utilization"] <= 1 + 1e-9
        for link in metrics["links"].values()
    )
    assert events_path.read_text().strip()


def test_fig2_emit_trace(tmp_path, capsys):
    path = tmp_path / "fig2.json"
    assert main(["fig2", "--emit-trace", str(path)]) == 0
    document = json.loads(path.read_text())
    assert document["traceEvents"]


def test_cluster_metrics_out(tmp_path, capsys):
    path = tmp_path / "metrics.json"
    assert (
        main(
            [
                "cluster",
                "--model",
                "tiny_mlp",
                "--jobs",
                "2",
                "--hosts",
                "4",
                "--job-workers",
                "2",
                "--rate",
                "50",
                "--metrics-out",
                str(path),
            ]
        )
        == 0
    )
    metrics = json.loads(path.read_text())
    assert metrics["scheduler"]["invocations"] > 0


def test_run_spec_obs_flags(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "topology": {"kind": "big_switch", "hosts": 2,
                             "bandwidth_gbps": 10},
                "jobs": [
                    {"name": "j", "paradigm": "fsdp", "model": "tiny_mlp",
                     "workers": 2}
                ],
            }
        )
    )
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    assert (
        main(
            [
                "run-spec",
                str(spec),
                "--emit-trace",
                str(trace_path),
                "--metrics-out",
                str(metrics_path),
            ]
        )
        == 0
    )
    assert json.loads(trace_path.read_text())["traceEvents"]
    assert json.loads(metrics_path.read_text())["scheduler"]["by_cause"]


def test_obs_subcommand_summarizes_log(tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    assert (
        main(
            [
                "run",
                "--paradigm",
                "dp-allreduce",
                "--model",
                "tiny_mlp",
                "--workers",
                "2",
                "--events-out",
                str(events_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["obs", str(events_path)]) == 0
    out = capsys.readouterr().out
    assert "scheduler invocations" in out
    assert "flows delivered" in out
    assert main(["obs", str(events_path), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["scheduler"]["invocations"] > 0


def _write_fig2_log(tmp_path, scheduler):
    path = tmp_path / f"{scheduler}.jsonl"
    assert (
        main(
            [
                "fig2",
                "--obs-scheduler",
                scheduler,
                "--events-out",
                str(path),
            ]
        )
        == 0
    )
    return path


def test_diagnose_subcommand(tmp_path, capsys):
    path = _write_fig2_log(tmp_path, "coflow")
    capsys.readouterr()
    assert main(["diagnose", str(path)]) == 0
    out = capsys.readouterr().out
    assert "critical path [fig2]" in out
    assert "act mb0" in out
    assert "coverage: 3/3 flows with rate data" in out
    assert main(["diagnose", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 1
    assert report["critical_paths"]["fig2"]["jct"] == pytest.approx(12.0)
    assert report["attribution"]["echelonflows"]["fig2/ef"][
        "tardiness"
    ] == pytest.approx(6.0)


def test_diff_subcommand_fig2_fair_beats_coflow(tmp_path, capsys):
    """Acceptance criterion: `repro diff` on the two Fig. 2 logs reports
    fair sharing beating Coflow and blames the later micro-batches."""
    fair = _write_fig2_log(tmp_path, "fair")
    coflow = _write_fig2_log(tmp_path, "coflow")
    capsys.readouterr()
    assert main(["diff", str(fair), str(coflow)]) == 0
    out = capsys.readouterr().out
    assert "winner" in out and "act mb0" in out
    assert main(["diff", str(fair), str(coflow), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["jobs"]["fig2"]["delta"] == pytest.approx(2.5)
    assert report["jobs"]["fig2"]["winner"] == "a"
    head = next(r for r in report["stages"] if r["stage"] == "act mb0")
    assert head["contention_delta"]["act mb1"] == pytest.approx(1.0)
    assert head["contention_delta"]["act mb2"] == pytest.approx(1.5)


def test_diagnose_missing_file_errors(tmp_path, capsys):
    assert main(["diagnose", str(tmp_path / "nope.jsonl")]) == 1
    assert "error" in capsys.readouterr().err


def test_table1_obs_flags(tmp_path, capsys):
    metrics_path = tmp_path / "metrics.json"
    events_path = tmp_path / "events.jsonl"
    assert (
        main(
            [
                "table1",
                "--obs-paradigm",
                "FSDP",
                "--obs-scheduler",
                "coflow",
                "--metrics-out",
                str(metrics_path),
                "--events-out",
                str(events_path),
            ]
        )
        == 0
    )
    metrics = json.loads(metrics_path.read_text())
    assert metrics["scheduler"]["invocations"] > 0
    assert metrics["scheduler"]["by_cause"]
    assert metrics["links"]
    assert metrics["diagnosis"]["coverage"]["with_rate_data"] > 0
    assert events_path.read_text().strip()


def test_matrix_obs_flags(tmp_path, capsys):
    metrics_path = tmp_path / "metrics.json"
    events_path = tmp_path / "events.jsonl"
    assert (
        main(
            [
                "matrix",
                "--schedulers",
                "fair,echelon",
                "--model",
                "tiny_mlp",
                "--workers",
                "2",
                "--micro-batches",
                "2",
                "--obs-case",
                "fsdp",
                "--obs-scheduler",
                "echelon",
                "--metrics-out",
                str(metrics_path),
                "--events-out",
                str(events_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "observed cell: fsdp / echelon" in out
    metrics = json.loads(metrics_path.read_text())
    assert metrics["scheduler"]["invocations"] > 0
    assert metrics["links"]
    assert events_path.read_text().strip()


def test_matrix_rejects_unknown_obs_cell(tmp_path, capsys):
    assert (
        main(
            [
                "matrix",
                "--schedulers",
                "fair",
                "--model",
                "tiny_mlp",
                "--workers",
                "2",
                "--obs-case",
                "bogus",
                "--events-out",
                str(tmp_path / "e.jsonl"),
            ]
        )
        == 1
    )
    assert "--obs-case" in capsys.readouterr().err


def test_obs_reports_scheduler_latency(tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    assert (
        main(
            [
                "run",
                "--paradigm",
                "dp-allreduce",
                "--model",
                "tiny_mlp",
                "--workers",
                "2",
                "--events-out",
                str(events_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["obs", str(events_path)]) == 0
    assert "scheduler latency p50/p95/p99" in capsys.readouterr().out
    assert main(["obs", str(events_path), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    latency = summary["scheduler"]["latency_seconds"]
    assert latency["count"] == summary["scheduler"]["invocations"]
    assert 0 <= latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bogus"])


def test_parser_rejects_unknown_paradigm():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--paradigm", "quantum"])


@pytest.mark.parametrize(
    "query",
    [
        "degrade_link:h1-core@50%,factor=abc",
        "degrade_link:h1-core@50%,factor=nan",
        "submit_job:dp@50%,layers=x",
    ],
)
def test_whatif_bad_option_is_an_error_not_a_traceback(capsys, query):
    assert main(["whatif", "--hosts", "4", "--jobs", "2", query]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: option ") and query in err
