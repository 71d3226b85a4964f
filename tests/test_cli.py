"""Tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main


def test_workloads_command(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for key in ("W1", "W2", "W3", "W4", "W5"):
        assert key in out


def test_alloc_command(capsys):
    assert main(["alloc", "W2"]) == 0
    out = capsys.readouterr().out
    assert "6 unscheduled + 2 scheduled" in out
    assert "P7" in out


def test_alloc_command_with_prios(capsys):
    assert main(["alloc", "W3", "--prios", "4"]) == 0
    out = capsys.readouterr().out
    assert "scheduled" in out


def _summary_rows(out):
    """The ``label : value`` rows ``repro run`` printed."""
    return {label.strip(): value.strip() for label, _, value in (
        line.partition(" : ") for line in out.splitlines())}


def test_run_command_small(capsys):
    code = main([
        "run", "--protocol", "homa", "--workload", "W1",
        "--load", "0.3", "--racks", "1", "--hosts-per-rack", "4",
        "--aggrs", "0", "--duration-ms", "0.5", "--warmup-ms", "0",
        "--drain-ms", "4", "--max-messages", "200",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "p99" in out
    assert "finish rate" in out


def test_run_command_with_every_sample_in_the_warmup(capsys):
    """Eight messages, all created inside the default 0.5 ms warm-up:
    the summary still prints (percentiles as n/a), stderr names the
    flags to change, and the exit code is non-zero — no traceback."""
    code = main([
        "run", "--protocol", "homa", "--workload", "W1",
        "--load", "0.3", "--racks", "1", "--hosts-per-rack", "4",
        "--aggrs", "0", "--max-messages", "8",
    ])
    assert code == 1
    captured = capsys.readouterr()
    summary = _summary_rows(captured.out)
    assert summary["messages measured"] == "0"
    assert summary["submitted / completed"] == "8 / 8"
    assert summary["overall p50 slowdown"] == "n/a"
    assert summary["overall p99 slowdown"] == "n/a"
    assert "wall time" in summary            # the whole table printed
    (line,) = captured.err.splitlines()
    for flag in ("--warmup-ms", "--duration-ms", "--max-messages"):
        assert flag in line


@pytest.mark.parametrize("extra,code", [(0, 0), (1, 1)])
def test_run_command_reports_duplicate_deliveries(capsys, monkeypatch,
                                                  extra, code):
    """More completions than submissions is an at-most-once violation:
    the summary carries the count and a non-zero count fails the run."""
    import dataclasses

    import repro.__main__ as cli
    from repro.experiments.runner import run_experiment

    def stubbed(cfg):
        result = run_experiment(dataclasses.replace(
            cfg, racks=1, hosts_per_rack=2, aggrs=0))
        return dataclasses.replace(result,
                                   completed=result.submitted + extra)

    monkeypatch.setattr(cli, "run_experiment", stubbed)
    assert main(["run", "--workload", "W1", "--load", "0.3",
                 "--duration-ms", "0.1", "--warmup-ms", "0",
                 "--drain-ms", "2", "--max-messages", "20"]) == code
    captured = capsys.readouterr()
    summary = _summary_rows(captured.out)
    assert summary["duplicate deliveries"] == str(extra)
    if extra:
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and "at-most-once" in line
    else:
        assert captured.err == ""


def test_campaign_command_no_sim_figure(capsys):
    # fig01 derives from the workload catalog (zero campaign cells), so
    # this exercises the full campaign CLI path in milliseconds.
    assert main(["campaign", "fig01"]) == 0
    out = capsys.readouterr().out
    assert "artifacts:" in out
    assert "fig01_workloads" in out


def test_campaign_parser_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["campaign", "fig99"])


def test_campaign_parser_accepts_jobs_and_fresh():
    args = build_parser().parse_args(
        ["campaign", "fig12", "--jobs", "4", "--fresh"])
    assert args.figure == "fig12" and args.jobs == 4 and args.fresh


def test_campaign_parser_accepts_farm_flags():
    args = build_parser().parse_args(
        ["campaign", "fig17", "--farm", "127.0.0.1:0",
         "--farm-wait", "3", "--farm-retries", "1"])
    assert args.farm == "127.0.0.1:0"
    assert args.farm_wait == 3.0 and args.farm_retries == 1


def test_campaign_farm_defaults_to_local_pool():
    args = build_parser().parse_args(["campaign", "fig17"])
    assert args.farm is None


def test_farm_worker_parser():
    args = build_parser().parse_args(
        ["farm-worker", "10.0.0.2:9000", "--name", "w1",
         "--heartbeat", "1.5", "--die-after", "2"])
    assert args.address == "10.0.0.2:9000"
    assert args.name == "w1"
    assert args.heartbeat == 1.5 and args.die_after == 2


def test_farm_worker_rejects_bad_address(capsys):
    assert main(["farm-worker", "not-an-address"]) == 2
    assert "HOST:PORT" in capsys.readouterr().err


def test_parser_rejects_unknown_protocol():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--protocol", "quic"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
