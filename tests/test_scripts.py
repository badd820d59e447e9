import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_transition_report_prints_the_kink_and_matching_discords():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                    os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "transition_report.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    kinks = {row[0]: row[2] for row in rows if len(row) == 3}
    assert kinks == {"x": "0.136666", "y": "0.136666"}
    # Snapshot rows: channel, tau (closed), tau (state), discord (closed), discord (optim), min PT eig.
    snapshots = [row for row in rows if len(row) == 6 and row[0] in ("x", "y", "z", "iso")]
    assert len(snapshots) == 8  # four channels at kappa*t = 0.1 and 0.3
    for channel, _, _, closed, optim, _ in snapshots:
        assert optim == closed, f"{channel}: discord (optim) {optim} != discord (closed) {closed}"
    # The closing reading names the channels in the order of the vanishing times in the table.
    reading = " ".join(proc.stdout.split("reading: ", 1)[1].split())
    assert reading.startswith("the concurrence bound vanishes first under iso (0.061895), "
                              "then under x and y (0.191913), and never under z;")
    assert reading.endswith("discord outlives it under iso, x and y, but not under z (dephasing), "
                            "where the bound never dies.")


def _deviation_report(tmp_path, a_text, b_text):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(a_text, encoding="utf-8")
    b.write_text(b_text, encoding="utf-8")
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "csv_deviation.py"), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


def test_csv_deviation_reports_each_column(tmp_path):
    a = "channel,kappa_t,tau_numeric,gqd_numeric\nx,0,1.5,\nx,0.1,0.25,\nz,0,1,\n"
    b = "channel,kappa_t,tau_numeric,gqd_numeric\nx,0,1.5,\nx,0.1,0.2500001,\nz,0,0.9999,\n"
    proc = _deviation_report(tmp_path, a, b)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows[0][-1] == "3"  # the header names the row count
    assert {row[0]: row[1:] for row in rows[1:]} == {
        "channel": ["-", "0"],
        "kappa_t": ["0.000e+00", "0"],
        "tau_numeric": ["1.000e-04", "2"],
        "gqd_numeric": ["-", "0"],
    }


def test_csv_deviation_rejects_files_that_do_not_line_up(tmp_path):
    proc = _deviation_report(tmp_path, "channel,tau\nx,1\n", "channel,ppt\nx,1\n")
    assert proc.returncode == 2 and "headers differ" in proc.stderr
    proc = _deviation_report(tmp_path, "channel,tau\nx,1\n", "channel,tau\nx,1\nz,1\n")
    assert proc.returncode == 2 and "row counts differ" in proc.stderr
    proc = _deviation_report(tmp_path, "", "channel,tau\nx,1\n")
    assert proc.returncode == 2 and "a.csv: empty file" in proc.stderr and not proc.stdout
    # A short row would otherwise drop the trailing columns from the report.
    proc = _deviation_report(tmp_path, "channel,tau,ppt\nx,1,2\n", "channel,tau,ppt\nx,1\n")
    assert proc.returncode == 2 and "b.csv:2: 2 fields, the header has 3" in proc.stderr
    assert not proc.stdout


def test_readme_quick_start_runs_and_prints_the_documented_values(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md#quick-start", "exec"), {})
    discord, vanishing, kink, ppt = capsys.readouterr().out.splitlines()
    assert discord.startswith("1.0 {'z': 1.0, ")
    assert (f"{float(vanishing):.6f}", f"{float(kink):.6f}") == ("0.191913", "0.136666")  # as commented
    assert float(ppt) < 0.0


def _line_count(package):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "line_count.py"), str(package)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["module", "code", "docstring", "comment", "blank", "total"]
    return {row[0]: [int(count) for count in row[1:]] for row in rows}


def test_line_count_totals_are_the_physical_line_counts():
    package = ROOT / "src" / "ghzdyn"
    counts = _line_count(package)
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines()) for path in package.glob("*.py")}
    assert set(counts) == set(lines) | {"total"}
    for name, (code, doc, comment, blank, total) in counts.items():
        physical = sum(lines.values()) if name == "total" else lines[name]
        assert code + doc + comment + blank == total == physical


def test_line_count_splits_code_docstrings_comments_and_blanks(tmp_path):
    (tmp_path / "m.py").write_text('"""Module doc,\n\nover three lines."""\n'
                                   "# a comment\n"
                                   "\n"
                                   "def f():\n"
                                   "    '''One line.'''\n"
                                   "    text = '''a string in code,\n"
                                   "\n"
                                   "    not a docstring'''  # trailing comment\n"
                                   "    return text\n", encoding="utf-8")
    assert _line_count(tmp_path)["m.py"] == [5, 4, 1, 1, 11]
