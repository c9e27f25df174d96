"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import _policy_args, build_parser, main


def test_policy_spec_parsing():
    assert _policy_args("cp_sd") == ("cp_sd", {})
    assert _policy_args("ca_rwr:cpth=37") == ("ca_rwr", {"cpth": 37})
    assert _policy_args("cp_sd_th:th=8,tw=5") == ("cp_sd_th", {"th": 8, "tw": 5})
    assert _policy_args("cp_sd_th:th=4.5") == ("cp_sd_th", {"th": 4.5})


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "cp_sd" in out and "mix10" in out and "zeusmp06" in out


def test_workloads_command(capsys):
    assert main(["workloads"]) == 0
    refs = re.findall(r"^(\w+:\w+) ", capsys.readouterr().out, re.MULTILINE)
    assert refs == [f"synthetic:mix{i}" for i in range(1, 11)] + [
        "datacenter:kv_read",
        "datacenter:kv_write",
        "datacenter:scan_analytics",
        "datacenter:kv_scan_mix",
    ]

    assert main(["workloads", "--family", "phase"]) == 2
    err = capsys.readouterr().err
    assert "unknown family 'phase' (choose from: datacenter, synthetic)" in err


def test_simulate_command(capsys):
    rc = main(
        [
            "--scale", "smoke",
            "simulate", "--mix", "mix1", "--policy", "bh",
            "--epochs", "1", "--warmup-epochs", "1",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean IPC" in out and "NVM bytes written" in out


def test_figure_command_table(capsys):
    assert main(["--scale", "smoke", "figure", "table1"]) == 0
    out = capsys.readouterr().out
    assert "B8D7" in out


def test_figure_command_unknown(capsys):
    assert main(["--scale", "smoke", "figure", "fig99"]) == 2


def test_ablation_command_unknown(capsys):
    assert main(["--scale", "smoke", "ablation", "nope"]) == 2


# ----------------------------------------------------------------------
# did-you-mean errors (exit code 2, one-line message, no traceback)

def test_unknown_mix_suggests(capsys):
    rc = main(["--scale", "smoke", "simulate", "--mix", "mix99", "--policy", "bh"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown workload 'mix99'" in err
    assert "did you mean 'mix9'" in err


def test_unknown_policy_suggests(capsys):
    rc = main(["--scale", "smoke", "simulate", "--mix", "mix1", "--policy", "cp_ds"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown policy 'cp_ds'" in err
    assert "did you mean 'cp_sd'" in err


def test_unknown_scale_suggests(capsys):
    rc = main(["--scale", "smkoe", "simulate"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown scale 'smkoe'" in err
    assert "did you mean 'smoke'" in err


def test_unknown_forecast_policy_suggests(capsys):
    rc = main(["--scale", "smoke", "forecast", "--mix", "mix1", "lhybird"])
    assert rc == 2
    assert "did you mean 'lhybrid'" in capsys.readouterr().err


def test_campaign_requires_out_or_resume(capsys):
    rc = main(["campaign", "--scale", "smoke"])
    assert rc == 2
    assert "--out" in capsys.readouterr().err


def test_campaign_unknown_experiment_suggests(tmp_path, capsys):
    rc = main(
        ["campaign", "--scale", "smoke", "--out", str(tmp_path / "c"),
         "--experiments", "fig10"]
    )
    assert rc == 2
    assert "did you mean 'fig10a'" in capsys.readouterr().err


def test_campaign_bad_chaos_spec(tmp_path, capsys):
    rc = main(
        ["campaign", "--scale", "smoke", "--out", str(tmp_path / "c"),
         "--chaos", "p=banana"]
    )
    assert rc == 2
    assert "chaos" in capsys.readouterr().err
