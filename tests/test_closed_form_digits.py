"""The closed forms against a 50-digit ``decimal`` reference of the same formulas.

The reference takes each float kappa*t exactly and evaluates the channel weights, tau,
the discord and their roots with ``decimal`` at 50 digits, so it carries no float
rounding or cancellation.  Relative gates sit about 10x above the measured error, with
1e-14 as the floor.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from ghzdyn import Channel, SweepConfig, run_sweep
from ghzdyn.discord import analytic_gqd, sudden_change_point
from ghzdyn.entanglement import analytic_tau, tau_vanishing_time

DIGITS = 50
GRIDS = (13, 121, 241, 1001)


def _weights(channel: Channel, kt: float) -> tuple[Decimal, Decimal, Decimal, Decimal]:
    """(alpha, beta, gamma, corner) of the evolved state, as in ``channels.coefficients``."""
    kt = Decimal(kt)
    if channel is Channel.Z:
        return Decimal("0.5"), Decimal(0), Decimal(0), (-8 * kt).exp() / 2
    u = (-8 * kt).exp() if channel is Channel.ISO else (-4 * kt).exp()
    x = u * u if channel is Channel.ISO else (-8 * kt).exp()
    alpha = (1 + 6 * u + x) / 16
    return alpha, (1 - x) / 16, (1 - 2 * u + x) / 16, x / 2 if channel is Channel.ISO else alpha


def _entropy(probs) -> Decimal:
    """Entropy in bits of exact probabilities; zeros contribute nothing."""
    return -sum((p * p.ln() for p in probs if p > 0), Decimal(0)) / Decimal(2).ln()


def _x_entropy(channel: Channel, kt: float) -> Decimal:
    alpha, beta, gamma, _ = _weights(channel, kt)
    return _entropy([2 * alpha] + [2 * beta] * 4 + [2 * gamma] * 3)


def ref_gqd(channel: Channel, kt: float) -> Decimal:
    """The discord's closed form: min(1, 3 - S) for X and Y, the corner block's dephasing gain otherwise."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        if channel in (Channel.X, Channel.Y):
            return min(Decimal(1), 3 - _x_entropy(channel, kt))
        alpha, _, _, corner = _weights(channel, kt)
        return _entropy([alpha, alpha]) - _entropy([alpha + corner, alpha - corner])


def _signed_tau(channel: Channel, kt: float) -> Decimal:
    alpha, beta, gamma, corner = _weights(channel, kt)
    return 2 * corner - 8 * beta - 6 * gamma


def ref_tau(channel: Channel, kt: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return Decimal(2).sqrt() * max(Decimal(0), _signed_tau(channel, kt))


def _ref_root(f, lo: float, hi: float) -> Decimal:
    """The sign change of ``f`` on [lo, hi] to 50 digits, by bisection in ``decimal``."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        lo, hi = Decimal(lo), Decimal(hi)
        positive = f(lo) > 0
        while hi - lo > Decimal(10) ** -(DIGITS - 5):
            mid = (lo + hi) / 2
            if (f(mid) > 0) == positive:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def _relative_errors(closed_form, reference, channel, kts) -> list[float]:
    errors = []
    for kt in kts:
        got, want = closed_form(channel, kt), reference(channel, kt)
        errors.append(0.0 if got == want else float(abs(Decimal(got) - want) / abs(want)))
    return errors


# Measured worst relative errors over the four grids: Z 2.8e-15, iso 2.0e-15, X and Y 1.4e-14.
GQD_GATES = {Channel.X: 1.5e-13, Channel.Y: 1.5e-13, Channel.Z: 3e-14, Channel.ISO: 3e-14}


@pytest.mark.parametrize("steps", GRIDS)
@pytest.mark.parametrize("channel", list(Channel), ids=lambda c: c.value)
def test_analytic_gqd_meets_the_decimal_reference(channel, steps):
    errors = _relative_errors(analytic_gqd, ref_gqd, channel, np.linspace(0.0, 0.6, steps).tolist())
    assert max(errors) <= GQD_GATES[channel]


@pytest.mark.parametrize("steps, gate", [(121, 5e-14), (1001, 5e-13)])
@pytest.mark.parametrize("channel", list(Channel), ids=lambda c: c.value)
def test_analytic_tau_meets_the_decimal_reference(channel, steps, gate):
    # The signed form 2 corner - 8 beta - 6 gamma cancels beside the vanishing times, so
    # the finer grid, which lands closer to them, reads about 10x more: 4.4e-15 and 4.4e-14.
    kts = np.linspace(0.0, 0.6, steps).tolist()
    for kt, error in zip(kts, _relative_errors(analytic_tau, ref_tau, channel, kts)):
        if ref_tau(channel, kt) == 0:
            assert analytic_tau(channel, kt) == 0.0
        else:
            assert error <= gate, kt


@pytest.mark.parametrize("channel", [Channel.X, Channel.Y, Channel.ISO], ids=lambda c: c.value)
def test_tau_vanishing_time_meets_the_decimal_root(channel):
    root = _ref_root(lambda kt: _signed_tau(channel, kt), 0.0, 2.0)
    # Measured 4.2e-13 (X, Y) and 3.3e-13 (iso); the gate is the bisection's tolerance.
    assert abs(Decimal(tau_vanishing_time(channel)) - root) <= Decimal("1e-12")


@pytest.mark.parametrize("channel", [Channel.X, Channel.Y], ids=lambda c: c.value)
def test_sudden_change_point_meets_the_decimal_root(channel):
    root = _ref_root(lambda kt: 2 - _x_entropy(channel, kt), 0.0, 1.0)
    # Measured 6.6e-14; the gate is the bisection's tolerance.
    assert abs(Decimal(sudden_change_point(channel)) - root) <= Decimal("1e-12")


def test_every_printed_analytic_digit_of_the_default_sweep_holds():
    # The CSV prints each value as %.12g; every tau_analytic and gqd_analytic cell of the
    # default request is the reference rounded to 12 digits.
    records = run_sweep(SweepConfig(measures=("tau", "gqd"), method="analytic"))
    assert len(records) == 484
    with localcontext() as ctx:
        ctx.prec = 12
        for r in records:
            channel = Channel(r.channel)
            for value, reference in ((r.tau_analytic, ref_tau), (r.gqd_analytic, ref_gqd)):
                assert Decimal("%.12g" % value) == +reference(channel, r.kappa_t), r
