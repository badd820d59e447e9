"""Acceptance gate: the package's headline claims, one pass/fail line each.

Each numbered test drives one group of the shared verification registry
(the same code behind ``ghzdyn --verify``) and prints every sub-claim's
line, so a plain ``pytest tests/test_acceptance.py -v -s`` doubles as the
acceptance report.  The tests after them check the abstract's claims on
one sweep.
"""

import tempfile

import numpy as np
import pytest

import ghzdyn.sweep as sweep
import ghzdyn.verify as verify
from ghzdyn.sweep import CSV_HEADER, SweepConfig, run_sweep
from ghzdyn.verify import CHECKS, format_report, run_checks


def _run(name: str) -> None:
    results = run_checks([name])
    report = format_report(results)
    for line in report.splitlines()[:-1]:
        print(f"[acceptance] {line}")
    failed = [r for r in results if not r.passed]
    assert not failed, "failed sub-claims:\n" + "\n".join(
        f"  {r.criterion}: {r.detail} (computed={r.computed:.10g}, "
        f"target={r.target:.10g}, tol={r.tolerance:g})" for r in failed
    )


def test_registry_covers_all_criteria():
    assert list(CHECKS) == [
        "tau-closed-form",
        "tau-vanishing",
        "sudden-change",
        "gqd-x",
        "gqd-z",
        "gqd-iso",
        "ordering",
        "ppt",
        "integrator",
        "structure",
    ]


def test_run_checks_rejects_unknown_names():
    with pytest.raises(ValueError, match=r"unknown check names \['nope'\]"):
        run_checks(["nope"])


def test_01_concurrence_bound_reproduces_closed_forms():
    _run("tau-closed-form")


def test_02_entanglement_vanishing_times():
    _run("tau-vanishing")


def test_03_discord_sudden_change_location():
    _run("sudden-change")


def test_04_discord_x_channel_branches():
    _run("gqd-x")


def test_05_discord_z_channel_corrected_form():
    _run("gqd-z")


def test_06_discord_isotropic_closed_form():
    _run("gqd-iso")


def test_07_channel_robustness_ordering():
    _run("ordering")


def test_08_ppt_entanglement_witness():
    _run("ppt")


def test_09_integrator_agrees_with_closed_forms():
    _run("integrator")


def test_10_structure_and_determinism():
    _run("structure")


def test_the_structure_check_compares_csv_text_in_memory_with_one_worker(monkeypatch, tmp_path):
    # Two usable CPUs: the jobs=2 run of the 130-cell, two-chunk sweep starts the worker that
    # computes the second chunk.  The three CSV texts are compared as strings; no file is written.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sweep, "_write_atomic", lambda *args: pytest.fail("wrote a file"))
    monkeypatch.setattr(tempfile, "mkdtemp", lambda *args, **kwargs: pytest.fail("made a directory"))
    started, texts = [], []
    start, text = sweep._start, verify._csv_text
    monkeypatch.setattr(sweep, "_start", lambda *args: started.append(args) or start(*args))
    monkeypatch.setattr(verify, "_csv_text", lambda records: texts.append(text(records)) or texts[-1])
    results = [r for r in verify.check_structure() if r.detail.startswith("CSV bytes")]
    assert [r.passed for r in results] == [True]
    assert len(started) == 1
    assert len(texts) == 3 and texts[0].startswith(CSV_HEADER + "\n") and texts[0].count("\n") == 131
    assert list(tmp_path.iterdir()) == []


# The abstract's claims, read off one sweep of every channel and measure: 241 steps to
# kappa*t = 0.6, a grid spacing of 0.0025.
@pytest.fixture(scope="module")
def paper_sweep():
    records = run_sweep(SweepConfig(steps=241))
    kt = np.array([r.kappa_t for r in records if r.channel == "x"])
    columns = {}
    for r in records:
        for name in CSV_HEADER.split(",")[2:]:
            columns.setdefault((r.channel, name), []).append(getattr(r, name))
    return kt, {key: np.array(values) for key, values in columns.items()}


@pytest.mark.parametrize("channel", ["z", "iso"])
@pytest.mark.parametrize("name", ["gqd_analytic", "gqd_numeric"])
def test_discord_decays_monotonically_under_z_and_isotropic_noise(paper_sweep, channel, name):
    # Largest steps: -2.0e-6 (Z) and -2.1e-9 (iso).
    _, column = paper_sweep
    assert np.diff(column[channel, name]).max() < 0.0


@pytest.mark.parametrize("channel, dead_from", [("x", 0.1925), ("y", 0.1925), ("iso", 0.0625)])
def test_discord_outlives_entanglement_under_x_y_and_isotropic_noise(paper_sweep, channel, dead_from):
    # tau vanishes from the first grid point past its vanishing time on, while the
    # discord stays positive to kappa*t = 0.6 (X and Y: at least 0.0322).
    kt, column = paper_sweep
    dead = np.arange(len(kt)) >= round(dead_from / 0.0025)
    assert kt[dead][0] == pytest.approx(dead_from, abs=1e-15)
    for name in ("tau_analytic", "tau_numeric"):
        tau = column[channel, name]
        assert (tau[dead] == 0.0).all() and (tau[~dead] > 0.0).all(), name
    if channel == "iso":
        assert (column[channel, "gqd_analytic"] > 0.0).all()
    else:
        assert column[channel, "gqd_numeric"].min() >= 0.032


@pytest.mark.parametrize("tau_name", ["tau_analytic", "tau_numeric"])
@pytest.mark.parametrize("gqd_name", ["gqd_analytic", "gqd_numeric"])
def test_entanglement_outlives_discord_under_dephasing(paper_sweep, tau_name, gqd_name):
    # The exception: under Z noise tau keeps a larger share of its start than the
    # discord at every kappa*t > 0 (the smallest margin, at 0.6, is 0.0082).  iso's
    # discord, which falls faster, would pass that too, so the column must also be Z's:
    # above iso's at every kappa*t > 0 (the smallest gap, at 0.6, is 4.9e-5).
    kt, column = paper_sweep
    tau, gqd = column["z", tau_name], column["z", gqd_name]
    assert kt[0] == 0.0 and (tau[1:] / tau[0] - gqd[1:] / gqd[0] > 0.0).all()
    assert (gqd[1:] > column["iso", gqd_name][1:]).all()
