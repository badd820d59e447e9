"""Acceptance gate: the package's headline claims, one pass/fail line each.

Each test drives one group of the shared verification registry (the same
code behind ``ghzdyn --verify``) and prints every sub-claim's line, so a
plain ``pytest tests/test_acceptance.py -v -s`` doubles as the acceptance
report.
"""

import pytest

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
