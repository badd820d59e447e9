import subprocess
import sys
from pathlib import Path

import pytest

import ghzdyn.cli as cli
import ghzdyn.verify as verify
from ghzdyn.channels import Channel
from ghzdyn.sweep import CSV_HEADER, MEASURES
from ghzdyn.verify import CheckResult


def _config(argv):
    return cli.build_config(cli._build_parser().parse_args(argv))


def test_defaults():
    config = _config([])
    assert config.channels == (Channel.X, Channel.Y, Channel.Z, Channel.ISO)
    assert config.measures == MEASURES
    assert config.kt_max == 0.6
    assert config.steps == 121
    assert config.method == "both"
    assert config.out == "sweep.csv"
    assert config.plot is False
    assert config.jobs == 1


def test_flags_are_parsed():
    config = _config([
        "--channel", "z", "--channel", "x", "--measure", "tau",
        "--kt-max", "0.4", "--steps", "5", "--method", "analytic",
        "--out", "run.csv", "--plot", "--jobs", "2",
    ])
    assert config.channels == (Channel.Z, Channel.X)
    assert config.measures == ("tau",)
    assert config.kt_max == 0.4
    assert config.steps == 5
    assert config.method == "analytic"
    assert config.out == "run.csv"
    assert config.plot is True
    assert config.jobs == 2


def test_bad_flag_values_exit_one():
    with pytest.raises(SystemExit) as err:
        cli._build_parser().parse_args(["--channel", "w"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        cli._build_parser().parse_args(["--unknown-flag"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        cli._build_parser().parse_args(["--steps", "many"])
    assert err.value.code == 1


def test_config_file_supplies_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "channel = x, z\n"
        "measure = tau\n"
        "kt-max = 0.4\n"
        "steps = 5\n"
        "plot = true\n"
        "\n"
    )
    config = _config(["--config", str(path)])
    assert config.channels == (Channel.X, Channel.Z)
    assert config.measures == ("tau",)
    assert config.kt_max == 0.4
    assert config.steps == 5
    assert config.plot is True


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("steps = 5\nkt-max = 0.4\n")
    config = _config(["--config", str(path), "--steps", "7"])
    assert config.steps == 7
    assert config.kt_max == 0.4


def test_flag_lists_replace_config_file_lists(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("channel = x, z\nmeasure = tau, ppt\n")
    config = _config(["--config", str(path), "--channel", "y"])
    assert config.channels == (Channel.Y,)
    assert config.measures == ("tau", "ppt")


@pytest.mark.parametrize("key, value, flag", [
    ("steps", "soon", "--steps"),
    ("channel", "w", "--channel"),
    ("measure", "bogus", "--measure"),
], ids=["steps", "channel", "measure"])
def test_bad_values_fail_alike_from_file_and_flag(tmp_path, capsys, key, value, flag):
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {value}\n")
    assert cli.main(["--config", str(path)]) == 1
    from_file = capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        cli.main([f"--{key}", value])
    assert err.value.code == 1
    message = capsys.readouterr().err.splitlines()[-1].split("error: ", 1)[1]
    assert message.startswith(f"argument {flag}: invalid") and repr(value) in message
    assert from_file.rstrip().endswith(f"{path}: {message}")


def test_config_file_edge_values(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("out = -dash.csv\nchannel = x, , z\n")
    config = _config(["--config", str(path)])
    assert config.out == "-dash.csv"
    assert config.channels == (Channel.X, Channel.Z)
    path.write_text("channel = ,\n")
    assert cli.main(["--config", str(path)]) == 1
    assert "channels must not be empty" in capsys.readouterr().err


def test_a_config_key_given_twice_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("channel = x\nsteps = 5\n\nchannel = z\n")
    assert cli.main(["--config", str(path)]) == 1
    assert capsys.readouterr().err.rstrip().endswith(
        f"{path}:4: key 'channel' given twice (first on line 1)")


def test_a_hash_inside_a_config_value_is_part_of_it(tmp_path):
    # '#' starts a comment only at the start of a line or after whitespace.
    target = tmp_path / "a#1.csv"
    path = tmp_path / "run.cfg"
    path.write_text(f"# comment line\nout = {target}\nsteps = 5  # note\nmeasure = tau\n")
    config = _config(["--config", str(path)])
    assert config.out == str(target) and config.steps == 5 and config.measures == ("tau",)
    assert cli.main(["--config", str(path)]) == 0
    from_file = target.read_bytes()
    target.unlink()
    assert cli.main(["--out", str(target), "--steps", "5", "--measure", "tau"]) == 0
    assert target.read_bytes() == from_file
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a#1.csv", "run.cfg"]


def test_config_file_errors(tmp_path):
    unknown = tmp_path / "bad.cfg"
    unknown.write_text("stepz = 5\n")
    with pytest.raises(ValueError, match="unknown key"):
        _config(["--config", str(unknown)])

    malformed = tmp_path / "worse.cfg"
    malformed.write_text("steps\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        _config(["--config", str(malformed)])

    badint = tmp_path / "badint.cfg"
    badint.write_text("steps = soon\n")
    with pytest.raises(ValueError, match="invalid int value"):
        _config(["--config", str(badint)])

    badbool = tmp_path / "badbool.cfg"
    badbool.write_text("plot = maybe\n")
    with pytest.raises(ValueError, match="true/false"):
        _config(["--config", str(badbool)])

    with pytest.raises(ValueError, match="cannot read"):
        _config(["--config", str(tmp_path / "missing.cfg")])


def test_main_maps_usage_errors_to_exit_one(tmp_path, capsys):
    assert cli.main(["--steps", "1"]) == 1
    assert "steps" in capsys.readouterr().err
    assert cli.main(["--kt-max", "-0.5"]) == 1
    assert cli.main(["--kt-max", "inf"]) == 1
    assert "finite" in capsys.readouterr().err
    assert cli.main(["--kt-max", "nan"]) == 1
    assert cli.main(["--channel", "x", "--channel", "x"]) == 1
    assert cli.main(["--config", str(tmp_path / "absent.cfg")]) == 1
    # The discord search takes no flag and no config key.
    with pytest.raises(SystemExit) as err:
        cli.main(["--refine", "3"])
    assert err.value.code == 1
    assert "unrecognized arguments: --refine 3" in capsys.readouterr().err
    knob = tmp_path / "knob.cfg"
    knob.write_text("grid-theta = 21\n")
    assert cli.main(["--config", str(knob)]) == 1
    assert "unknown key 'grid-theta'" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("channel = w", "argument --channel: invalid Channel value: 'w'"),
    ("method = fast", "argument --method: invalid choice: 'fast'"),
], ids=["channel", "method"])
def test_main_rejects_bad_config_file_values(tmp_path, capsys, line, message):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    assert cli.main(["--config", str(path)]) == 1
    assert message in capsys.readouterr().err


def test_main_runs_sweep_and_plot(tmp_path, capsys):
    out = str(tmp_path / "run.csv")
    code = cli.main([
        "--channel", "z", "--measure", "tau", "--measure", "entropy",
        "--kt-max", "0.3", "--steps", "3", "--out", out, "--plot",
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "wrote 3 records" in captured
    lines = Path(out).read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    script = str(tmp_path / "run_plot.py")
    assert "wrote plot script" in captured
    compile(Path(script).read_text(), script, "exec")


@pytest.mark.parametrize("config_text", [None, "measure = entropy\nplot = true\n"], ids=["flags", "config-file"])
def test_a_plot_without_tau_or_gqd_is_a_usage_error_that_writes_nothing(tmp_path, capsys, config_text):
    out = tmp_path / "x.csv"
    argv = ["--plot", "--measure", "entropy"]
    if config_text is not None:
        (tmp_path / "run.cfg").write_text(config_text)
        argv = ["--config", str(tmp_path / "run.cfg")]
    assert cli.main([*argv, "--steps", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "plot needs the tau or gqd measure" in captured.err and not captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if config_text is None else ["run.cfg"])


def test_back_to_back_main_calls_share_no_state(tmp_path):
    # The parser is built once; each call's flags and config file are its own.
    assert cli._build_parser() is cli._build_parser()
    base = ["--measure", "tau", "--steps", "2"]

    def channels_and_tau_numeric(name):
        rows = [row.split(",") for row in (tmp_path / name).read_text().splitlines()[1:]]
        return sorted({row[0] for row in rows}), all(row[3] for row in rows)

    assert cli.main([*base, "--channel", "x", "--out", str(tmp_path / "x.csv")]) == 0
    assert cli.main([*base, "--out", str(tmp_path / "all.csv")]) == 0
    config = tmp_path / "run.cfg"
    config.write_text("channel = z\nmethod = analytic\n")
    assert cli.main([*base, "--config", str(config), "--out", str(tmp_path / "z.csv")]) == 0
    assert cli.main([*base, "--out", str(tmp_path / "again.csv")]) == 0
    assert channels_and_tau_numeric("x.csv") == (["x"], True)
    assert channels_and_tau_numeric("all.csv") == (["iso", "x", "y", "z"], True)
    assert channels_and_tau_numeric("z.csv") == (["z"], False)
    assert channels_and_tau_numeric("again.csv") == (["iso", "x", "y", "z"], True)


def test_main_verify_exit_codes(monkeypatch, capsys):
    passing = [CheckResult("demo", "ok", 0.0, 0.0, 1e-9, True)]
    failing = [CheckResult("demo", "bad", 1.0, 0.0, 1e-9, False)]
    monkeypatch.setattr(cli, "run_checks", lambda: passing)
    assert cli.main(["--verify"]) == 0
    assert "PASS demo" in capsys.readouterr().out
    monkeypatch.setattr(cli, "run_checks", lambda: failing)
    assert cli.main(["--verify"]) == 2
    assert "FAIL demo" in capsys.readouterr().out


def test_main_verify_maps_a_raising_check_to_exit_three(monkeypatch, capsys):
    def broken():
        raise RuntimeError("check crashed")

    monkeypatch.setattr(verify, "CHECKS", {"broken": broken})
    assert cli.main(["--verify"]) == 3
    assert "runtime error: check crashed" in capsys.readouterr().err


def test_main_maps_runtime_errors_to_exit_three(monkeypatch, capsys):
    def boom(config):
        raise RuntimeError("integration diverged")

    monkeypatch.setattr(cli, "run_sweep", boom)
    assert cli.main(["--steps", "3"]) == 3
    assert "integration diverged" in capsys.readouterr().err


def test_console_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "ghzdyn", "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "--channel" in proc.stdout
    assert "--verify" in proc.stdout
