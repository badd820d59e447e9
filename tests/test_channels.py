import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_density
import ghzdyn.channels as channels
from ghzdyn.channels import (
    BASE_STEP,
    Channel,
    _closed_form_states,
    _coefficient_columns,
    closed_form_spectrum,
    closed_form_state,
    coefficients,
    evolve_numeric,
    ghz_ket,
    ghz_state,
    lindblad_generator,
)
from ghzdyn.discord import analytic_gqd
from ghzdyn.entanglement import (
    TAU_SCALE,
    _analytic_taus,
    _ppt_min_eigenvalues,
    _signed_tau,
    _tau_lower_bounds,
    analytic_tau,
    tau_lower_bound,
)
from ghzdyn.linalg import (
    INTEGRATOR_TOL,
    _density_spectra,
    _entropies,
    assert_density_matrix,
    partial_trace,
    trace_distance,
)

times = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**32 - 1)

WEIGHT = [bin(i).count("1") for i in range(16)]


def test_ghz_ket_and_state_structure():
    psi = ghz_ket(4)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-15
    assert psi[0] == psi[15] == pytest.approx(1 / math.sqrt(2))
    rho = ghz_state(4)
    nonzero = np.argwhere(np.abs(rho) > 1e-15)
    assert {tuple(ij) for ij in nonzero} == {(0, 0), (0, 15), (15, 0), (15, 15)}
    assert np.allclose(rho @ rho, rho, atol=1e-14)
    assert assert_density_matrix(rho) == 4
    assert psi.dtype == rho.dtype == np.float64  # real, so the discord search's shortcuts apply


def test_ghz_register_size_limits():
    with pytest.raises(ValueError):
        ghz_ket(1)
    with pytest.raises(ValueError):
        ghz_ket(11)


def test_coefficients_at_time_zero():
    for channel in Channel:
        co = coefficients(channel, 0.0)
        assert co.alpha == pytest.approx(0.5, abs=1e-15)
        assert co.corner == pytest.approx(0.5, abs=1e-15)
        assert co.beta == pytest.approx(0.0, abs=1e-15)
        assert co.gamma == pytest.approx(0.0, abs=1e-15)


@given(times)
def test_coefficients_trace_identity_and_bounds(kt):
    for channel in Channel:
        co = coefficients(channel, kt)
        assert abs(2 * co.alpha + 8 * co.beta + 6 * co.gamma - 1.0) < 1e-12
        assert co.corner <= co.alpha + 1e-15
        for value in (co.alpha, co.beta, co.gamma, co.corner):
            assert -1e-15 <= value <= 0.5 + 1e-15


def test_coefficients_rejects_negative_time():
    for channel in Channel:
        with pytest.raises(ValueError, match="nonnegative"):
            coefficients(channel, -0.1)


@pytest.mark.parametrize("kt", [math.nan, math.inf, -math.inf])
def test_non_finite_times_are_rejected(kt):
    for channel in Channel:
        for closed_form in (coefficients, analytic_tau, analytic_gqd):
            with pytest.raises(ValueError, match="finite"):
                closed_form(channel, kt)
        with pytest.raises(ValueError, match="finite"):
            evolve_numeric(ghz_state(2), channel, kt)


STACK_TIMES = (0.0, 0.05, 0.137, 0.6, 5.0)


def _reference_coefficients(channel, kt):
    """(alpha, beta, gamma, corner) by the scalar formulas the stacked builder replaced."""
    if channel in (Channel.X, Channel.Y):
        u = math.exp(-4.0 * kt)
        x = math.exp(-8.0 * kt)
        alpha = (1.0 + 6.0 * u + x) / 16.0
        return alpha, (1.0 - x) / 16.0, (1.0 - 2.0 * u + x) / 16.0, alpha
    if channel is Channel.Z:
        return 0.5, 0.0, 0.0, 0.5 * math.exp(-8.0 * kt)
    y = math.exp(-8.0 * kt)
    return ((1.0 + 6.0 * y + y * y) / 16.0, (1.0 - y * y) / 16.0,
            (1.0 - 2.0 * y + y * y) / 16.0, 0.5 * y * y)


def _reference_state(channel, kt):
    """closed_form_state by the per-entry loop the stacked builder replaced."""
    alpha, beta, gamma, corner = _reference_coefficients(channel, kt)
    by_weight = (alpha, beta, gamma, beta, alpha)
    rho = np.zeros((16, 16), dtype=complex)
    if channel is Channel.Z:
        rho[0, 0] = rho[15, 15] = alpha
    else:
        for i in range(16):
            rho[i, i] = by_weight[WEIGHT[i]]
    if channel in (Channel.X, Channel.Y):
        for i in range(16):
            sign = (-1.0) ** WEIGHT[i] if channel is Channel.Y else 1.0
            rho[i, 15 - i] = sign * by_weight[WEIGHT[i]]
    else:
        rho[0, 15] = rho[15, 0] = corner
    return rho


def _reference_analytic_tau(channel, kt):
    alpha, beta, gamma, corner = _reference_coefficients(channel, kt)
    if channel in (Channel.X, Channel.Y):
        signed = 2.0 * alpha - 8.0 * beta - 6.0 * gamma
    elif channel is Channel.Z:
        signed = 2.0 * corner
    else:
        signed = 2.0 * corner - 8.0 * beta - 6.0 * gamma
    return TAU_SCALE * max(0.0, signed)


def _bits(values):
    """Exact bit patterns, so a signed zero or a last-place change shows."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("channel", list(Channel))
def test_stacked_closed_forms_equal_the_scalar_formulas(channel):
    co = _coefficient_columns(channel, STACK_TIMES)
    states = _closed_form_states(channel, co)
    taus = _analytic_taus(co)
    assert states.shape == (len(STACK_TIMES), 16, 16)
    for k, kt in enumerate(STACK_TIMES):
        reference = _reference_coefficients(channel, kt)
        scalar = coefficients(channel, kt)
        assert _bits([scalar.alpha, scalar.beta, scalar.gamma, scalar.corner]) == _bits(reference)
        column = [np.broadcast_to(v, len(STACK_TIMES))[k] for v in (co.alpha, co.beta, co.gamma, co.corner)]
        assert _bits(column) == _bits(reference)
        assert np.array_equal(states[k], closed_form_state(channel, kt))
        reference_state = _reference_state(channel, kt)
        assert not reference_state.imag.any()
        assert _bits(states[k]) == _bits(reference_state.real)
        assert _bits([analytic_tau(channel, kt), taus[k]]) == _bits([_reference_analytic_tau(channel, kt)] * 2)
    assert _bits(_tau_lower_bounds(states)) == _bits([tau_lower_bound(rho).value for rho in states])
    # np.exp differs from math.exp on some of these times, so a vectorised exponential shows.
    grid = np.linspace(0.0, 0.6, 241).tolist()
    dense = _coefficient_columns(channel, grid)
    for field in ("alpha", "beta", "gamma", "corner"):
        assert (_bits(np.broadcast_to(getattr(dense, field), len(grid)))
                == _bits([getattr(coefficients(channel, kt), field) for kt in grid]))


def test_closed_form_states_are_real():
    for channel in Channel:
        assert closed_form_state(channel, 0.137).dtype == np.float64
        assert _closed_form_states(channel, _coefficient_columns(channel, STACK_TIMES)).dtype == np.float64


def test_real_and_complex_closed_forms_measure_alike():
    # Real and complex LAPACK round differently.  On this grid the worst gaps read
    # 1.4e-16 (spectra), 2.2e-15 (tau), 1.7e-16 (PPT) and 1.3e-15 (entropy); tau
    # reached 1.5e-14 on a 2001-point grid to 1.2, where the Wootters roots sit near zero.
    grid = np.linspace(0.0, 1.2, 241).tolist()
    for channel in Channel:
        real = _closed_form_states(channel, _coefficient_columns(channel, grid))
        copy = real.astype(complex)
        spectra, copy_spectra = _density_spectra(real), _density_spectra(copy)
        assert np.abs(spectra - copy_spectra).max() <= 1e-15
        assert np.abs(_entropies(spectra) - _entropies(copy_spectra)).max() <= 1e-14
        assert np.abs(_tau_lower_bounds(real) - _tau_lower_bounds(copy)).max() <= 2e-14
        assert np.abs(_ppt_min_eigenvalues(real, (0,)) - _ppt_min_eigenvalues(copy, (0,))).max() <= 1e-15


@pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
def test_a_stack_with_a_bad_time_raises_the_scalar_error(bad):
    for channel in Channel:
        with pytest.raises(ValueError) as scalar:
            coefficients(channel, bad)
        with pytest.raises(ValueError) as stacked:
            _coefficient_columns(channel, (0.1, bad, 0.2))
        assert str(stacked.value) == str(scalar.value)


def test_closed_form_starts_at_ghz():
    for channel in Channel:
        assert np.abs(closed_form_state(channel, 0.0) - ghz_state(4)).max() < 1e-14


def test_closed_form_support_masks():
    rho_x = closed_form_state(Channel.X, 0.2)
    rho_y = closed_form_state(Channel.Y, 0.2)
    on_cross = {(i, i) for i in range(16)} | {(i, 15 - i) for i in range(16)}
    for rho in (rho_x, rho_y):
        nonzero = {tuple(ij) for ij in np.argwhere(np.abs(rho) > 1e-15)}
        assert nonzero <= on_cross
    # Y differs from X only by a parity sign on the anti-diagonal.
    for i in range(16):
        assert rho_y[i, i] == pytest.approx(rho_x[i, i], abs=1e-15)
        sign = (-1.0) ** WEIGHT[i]
        assert rho_y[i, 15 - i] == pytest.approx(sign * rho_x[i, 15 - i], abs=1e-15)

    rho_z = closed_form_state(Channel.Z, 0.2)
    nonzero = {tuple(ij) for ij in np.argwhere(np.abs(rho_z) > 1e-15)}
    assert nonzero == {(0, 0), (15, 15), (0, 15), (15, 0)}

    rho_iso = closed_form_state(Channel.ISO, 0.2)
    nonzero = {tuple(ij) for ij in np.argwhere(np.abs(rho_iso) > 1e-15)}
    assert nonzero == {(i, i) for i in range(16)} | {(0, 15), (15, 0)}


def test_closed_form_states_are_physical():
    for channel in Channel:
        for kt in np.linspace(0.0, 1.0, 7):
            assert_density_matrix(closed_form_state(channel, kt))


def test_single_qubit_marginals_stay_maximally_mixed():
    for channel in Channel:
        rho = closed_form_state(channel, 0.13)
        for qubit in range(4):
            marginal = partial_trace(rho, (qubit,))
            assert np.abs(marginal - np.eye(2) / 2).max() < 1e-12


def test_x_and_y_spectra_match():
    for kt in np.linspace(0.0, 0.8, 9):
        lam_x = np.linalg.eigvalsh(closed_form_state(Channel.X, kt))
        lam_y = np.linalg.eigvalsh(closed_form_state(Channel.Y, kt))
        assert np.abs(lam_x - lam_y).max() < 1e-14


@pytest.mark.parametrize("kt_max", [0.6, 2.0])
@pytest.mark.parametrize("channel", list(Channel))
def test_one_signed_tau_expression_equals_the_per_channel_ones(channel, kt_max):
    co = _coefficient_columns(channel, np.linspace(0.0, kt_max, 2001).tolist())
    if channel in (Channel.X, Channel.Y):
        per_channel = 2.0 * co.alpha - 8.0 * co.beta - 6.0 * co.gamma
    elif channel is Channel.Z:
        per_channel = 2.0 * co.corner
    else:
        per_channel = 2.0 * co.corner - 8.0 * co.beta - 6.0 * co.gamma
    assert _bits(_signed_tau(co)) == _bits(per_channel)


def test_z_spectrum_is_the_two_corner_values_and_zeros():
    for kt in np.linspace(0.0, 2.0, 41):
        corner = coefficients(Channel.Z, kt).corner
        assert _bits(closed_form_spectrum(Channel.Z, kt)) == _bits([0.5 + corner, 0.5 - corner] + [0.0] * 14)


def test_closed_form_spectrum_matches_eigensolver():
    for channel in Channel:
        for kt in (0.0, 0.07, 0.31, 0.9):
            analytic = closed_form_spectrum(channel, kt)
            numeric = np.linalg.eigvalsh(closed_form_state(channel, kt))[::-1]
            assert np.abs(analytic - numeric).max() < 1e-12
            assert abs(analytic.sum() - 1.0) < 1e-12
            assert np.all(np.diff(analytic) <= 1e-15)


def test_z_spectrum_is_two_level():
    for kt in (0.05, 0.2, 0.6):
        x = math.exp(-8.0 * kt)
        lam = closed_form_spectrum(Channel.Z, kt)
        assert lam[0] == pytest.approx((1 + x) / 2, abs=1e-15)
        assert lam[1] == pytest.approx((1 - x) / 2, abs=1e-15)
        assert np.abs(lam[2:]).max() < 1e-15


def _embedded(pauli, site, n):
    op = np.ones((1, 1), dtype=complex)
    for q in range(n):
        op = np.kron(op, pauli if q == site else np.eye(2))
    return op


def _dense_generator(rho, channel):
    """Reference generator: embedded N-qubit Paulis, sum_S (S rho S - rho)."""
    n = rho.shape[0].bit_length() - 1
    out = np.zeros_like(rho)
    for site in range(n):
        for pauli in channel.paulis():
            op = _embedded(pauli, site, n)
            out += op @ rho @ op - rho
    return out


def _exact_flow(rho, channel, kt):
    """Exact solution: rho -> p rho + (1 - p) S rho S for every site and Pauli.

    The single-site generators commute and each satisfies L^2 = -2L, so
    p = (1 + exp(-2 kt)) / 2.
    """
    n = rho.shape[0].bit_length() - 1
    p = 0.5 * (1.0 + math.exp(-2.0 * kt))
    for site in range(n):
        for pauli in channel.paulis():
            op = _embedded(pauli, site, n)
            rho = p * rho + (1.0 - p) * (op @ rho @ op)
    return rho


def test_generator_matches_dense_reference():
    rng = np.random.default_rng(11)
    for n in range(1, 6):
        for channel in Channel:
            rho = random_density(n, rng)
            gap = np.abs(lindblad_generator(rho, channel) - _dense_generator(rho, channel)).max()
            assert gap < 1e-13, (n, channel, gap)


@given(seeds)
def test_generator_preserves_hermiticity_and_trace(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(2, rng)
    for channel in Channel:
        out = lindblad_generator(rho, channel)
        assert np.abs(out - out.conj().T).max() < 1e-12
        assert abs(np.trace(out)) < 1e-12


def test_generator_fixes_maximally_mixed_state():
    mixed = np.eye(16, dtype=complex) / 16
    for channel in Channel:
        assert np.abs(lindblad_generator(mixed, channel)).max() < 1e-14


def test_generator_ghz_coherence_rate():
    # Each of the four sites maps the corner coherence to minus itself,
    # so the rate is -8 * rho[0, 15], matching the exp(-8 kt) decay law.
    out = lindblad_generator(ghz_state(4), Channel.Z)
    assert out[0, 15] == pytest.approx(-8.0 * 0.5, abs=1e-13)
    scaled = lindblad_generator(ghz_state(4), Channel.Z, kappa=2.0)
    assert np.abs(scaled - 2.0 * out).max() < 1e-14


def test_generator_matches_closed_form_derivative():
    h = 1e-5
    for channel in Channel:
        ahead = closed_form_state(channel, 0.1 + h)
        behind = closed_form_state(channel, 0.1 - h)
        derivative = (ahead - behind) / (2 * h)
        generator = lindblad_generator(closed_form_state(channel, 0.1), channel)
        assert np.abs(derivative - generator).max() < 1e-6


def test_evolve_numeric_validation():
    rho = ghz_state(4)
    with pytest.raises(ValueError, match="nonnegative"):
        evolve_numeric(rho, Channel.X, -0.1)
    with pytest.raises(ValueError, match="hermitian"):
        evolve_numeric(np.ones((16, 16)) * 1j, Channel.X, 0.1)
    broken = rho.copy()
    broken[1, 2] = math.nan
    with pytest.raises(ValueError, match="initial state is not finite"):
        evolve_numeric(broken, Channel.X, 0.1)
    frozen = evolve_numeric(rho, Channel.X, 0.0)
    assert np.array_equal(frozen, rho)
    frozen[0, 0] = 0.0
    assert rho[0, 0] == pytest.approx(0.5)  # t = 0 returns an independent copy


def test_evolve_numeric_tracks_closed_forms():
    ghz = ghz_state(4)
    for channel in (Channel.X, Channel.ISO):
        gap = trace_distance(evolve_numeric(ghz, channel, 0.2), closed_form_state(channel, 0.2))
        assert gap < 1e-9


def test_evolve_numeric_output_is_physical():
    out = evolve_numeric(ghz_state(4), Channel.Y, 0.35)
    assert_density_matrix(out)


def test_evolve_numeric_matches_exact_per_site_map():
    # Random full-rank states put weight on every matrix element, so each
    # site, row bit and column bit of the paired layout is exercised.
    rng = np.random.default_rng(7)
    for n in range(2, 7):
        for channel in Channel:
            rho = random_density(n, rng)
            gap = trace_distance(evolve_numeric(rho, channel, 0.1), _exact_flow(rho, channel, 0.1))
            assert gap < 1e-10, (n, channel)


def test_isotropic_channel_forgets_everything():
    mixed = np.eye(16, dtype=complex) / 16
    assert trace_distance(closed_form_state(Channel.ISO, 3.0), mixed) < 1e-9
    gap = trace_distance(evolve_numeric(ghz_state(4), Channel.ISO, 1.0),
                         closed_form_state(Channel.ISO, 1.0))
    assert gap < 1e-8


def _paired_generator(channel, n):
    """The dense 4**n x 4**n generator of the paired layout, acting on row-major vec(V)."""
    a, b = channels._split_generator(channels._site_generator(channel), n)
    return np.kron(a, np.eye(len(b))) + np.kron(np.eye(len(a)), b)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_paired_generator_is_hermitian_with_a_binomial_ladder_spectrum(n):
    for channel in Channel:
        dense = _paired_generator(channel, n)
        assert np.array_equal(dense, dense.conj().T)
        site = np.linalg.eigvalsh(channels._site_generator(channel))
        rate = -site[0]
        assert rate == pytest.approx(4.0 if channel is Channel.ISO else 2.0, abs=1e-14)
        decaying = int(np.sum(np.abs(site + rate) < 1e-12))  # the site's -rate multiplicity
        assert decaying + int(np.sum(np.abs(site) < 1e-12)) == 4
        expected = np.concatenate([
            np.full(math.comb(n, k) * decaying**k * (4 - decaying) ** (n - k), -rate * k)
            for k in range(n, -1, -1)])
        assert np.abs(np.linalg.eigvalsh(dense) - expected).max() < 1e-12


@pytest.mark.parametrize("kt", [0.02, 0.0474, 0.3, 0.6])
def test_rk4_error_bound_covers_the_distance_to_the_exact_flow(kt):
    rng = np.random.default_rng(round(1e4 * kt))
    steps = 2 * math.ceil(kt / BASE_STEP)
    for n in range(2, 7):
        for channel in Channel:
            rho = random_density(n, rng)
            rate = 4.0 if channel is Channel.ISO else 2.0
            bound = channels._rk4_error_bound(rate, n, kt, steps)
            gap = trace_distance(evolve_numeric(rho, channel, kt), _exact_flow(rho, channel, kt))
            assert gap <= bound <= INTEGRATOR_TOL, (n, channel, gap, bound)


def test_one_rk4_run_per_integration_up_to_six_qubits(monkeypatch):
    runs = []

    def record(v0, a, b, t, steps):
        runs.append(steps)
        return v0  # the state itself: only the call and its step count matter here

    monkeypatch.setattr(channels, "_rk4", record)
    for n in range(2, 7):
        for channel in Channel:
            for kt in (1e-13, 0.003, 0.0474, 0.1, 0.6, 3.0):
                runs.clear()
                evolve_numeric(ghz_state(n), channel, kt)
                assert runs == [2 * math.ceil(kt / BASE_STEP)], (n, channel, kt)


def test_rk4_error_bound_misses_the_tolerance_at_the_scheduled_steps_for_seven_isotropic_qubits():
    steps = 2 * math.ceil(0.0336 / BASE_STEP)
    bound = channels._rk4_error_bound(4.0, 7, 0.0336, steps)
    assert bound == pytest.approx(1.62e-9, rel=0.01)
    assert bound > INTEGRATOR_TOL >= channels._rk4_error_bound(4.0, 7, 0.0336, 2 * steps)


def test_seven_isotropic_qubits_run_the_fewest_steps_that_meet_the_bound(monkeypatch):
    # The schedule's 54 steps miss INTEGRATOR_TOL at kt = 0.0336; 61 are the fewest that
    # meet it.
    runs = []

    def record(v0, a, b, t, steps):
        runs.append(steps)
        return v0

    monkeypatch.setattr(channels, "_rk4", record)
    evolve_numeric(ghz_state(7), Channel.ISO, 0.0336)
    assert runs == [61]
    assert channels._rk4_error_bound(4.0, 7, 0.0336, 60) > INTEGRATOR_TOL
    assert channels._rk4_error_bound(4.0, 7, 0.0336, 61) <= INTEGRATOR_TOL
