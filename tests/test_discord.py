import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import bell_state, random_density, random_local_unitary
import ghzdyn.discord as discord
from ghzdyn.channels import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Channel,
    closed_form_spectrum,
    closed_form_state,
    ghz_state,
)
from ghzdyn.discord import (
    DiscordResult,
    _GlobalObjective,
    _lockstep,
    analytic_gqd,
    bipartite_discord,
    dephase,
    global_discord,
    measurement_basis,
    projector,
    sudden_change_point,
    uniform_frame,
    x_frame,
    y_frame,
    z_frame,
)
from ghzdyn.linalg import partial_trace, shannon_entropies, shannon_entropy, von_neumann_entropy

angles = st.tuples(
    st.floats(min_value=0.0, max_value=math.pi, allow_nan=False),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False),
)

KINK = 0.136666181320


def _objective(rhos: np.ndarray, n: int) -> _GlobalObjective:
    """The search objective of a stack of states, with their validated spectra."""
    return _GlobalObjective(rhos, n, discord._density_spectra(rhos))


def _one_frame(rho: np.ndarray, frame: np.ndarray) -> float:
    """The discord objective of a single frame on a single state."""
    objective = _objective(rho[None], frame.shape[0])
    return float(objective(frame[None], np.zeros(1, dtype=int))[0])


@given(angles)
def test_measurement_basis_is_orthonormal(pair):
    theta, phi = pair
    v1, v2 = measurement_basis(theta, phi)
    assert abs(np.vdot(v1, v1) - 1.0) < 1e-12
    assert abs(np.vdot(v2, v2) - 1.0) < 1e-12
    assert abs(np.vdot(v1, v2)) < 1e-12


def test_projector_reference_points():
    assert np.allclose(projector(0.0, 0.0, 0), np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(projector(0.0, 0.0, 1), np.diag([0.0, 1.0]), atol=1e-15)
    plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    assert np.allclose(projector(math.pi / 2, 0.0, 0), plus, atol=1e-12)
    with pytest.raises(ValueError, match="outcome"):
        projector(0.0, 0.0, 2)


@given(angles)
def test_projectors_form_a_measurement(pair):
    theta, phi = pair
    p0 = projector(theta, phi, 0)
    p1 = projector(theta, phi, 1)
    assert np.allclose(p0 + p1, np.eye(2), atol=1e-12)
    assert np.allclose(p0 @ p0, p0, atol=1e-12)
    assert np.abs(p0 @ p1).max() < 1e-12
    assert abs(np.trace(p0) - 1.0) < 1e-12


@given(angles)
def test_projectors_point_along_the_bloch_direction(pair):
    theta, phi = pair
    axis = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                     math.cos(theta)])
    for outcome, sign in ((0, 1.0), (1, -1.0)):
        p = projector(theta, phi, outcome)
        bloch = [np.trace(p @ sigma).real for sigma in (PAULI_X, PAULI_Y, PAULI_Z)]
        assert np.abs(bloch - sign * axis).max() < 1e-12


def test_dephase_pinches_one_qubit_by_the_frame_projectors(rng):
    rho = random_density(1, rng)
    for frame in _random_frames(1, 8, rng):
        pair = [projector(theta, phi, k) for (theta, phi) in frame for k in (0, 1)]
        expected = sum(p @ rho @ p for p in pair)
        assert np.abs(dephase(rho, frame) - expected).max() < 1e-15


def test_named_frames():
    assert np.array_equal(z_frame(4), np.zeros((4, 2)))
    assert np.allclose(x_frame(4), np.tile([math.pi / 2, 0.0], (4, 1)))
    assert np.allclose(y_frame(4), np.tile([math.pi / 2, math.pi / 2], (4, 1)))
    assert uniform_frame(3, 0.4, 1.1).shape == (3, 2)
    with pytest.raises(ValueError):
        uniform_frame(0, 0.0, 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_named_frames_are_grid_points(n):
    # The search reads the named frames' values off the grid at these indices.
    grid = discord._grid(n)
    named = {"z": z_frame(n), "x": x_frame(n), "y": y_frame(n)}
    assert discord._NAMED.keys() == named.keys()
    for name, k in discord._NAMED.items():
        assert np.array_equal(grid[k], named[name])


def test_dephase_ghz_in_z_frame():
    pinched = dephase(ghz_state(4), z_frame(4))
    expected = np.zeros((16, 16), dtype=complex)
    expected[0, 0] = expected[15, 15] = 0.5
    assert np.abs(pinched - expected).max() < 1e-14


@given(angles)
def test_dephase_is_idempotent_and_trace_preserving(pair):
    theta, phi = pair
    rho = closed_form_state(Channel.X, 0.1)
    frame = uniform_frame(4, theta, phi)
    once = dephase(rho, frame)
    assert abs(np.trace(once) - 1.0) < 1e-12
    assert np.abs(once - once.conj().T).max() < 1e-12
    assert np.abs(dephase(once, frame) - once).max() < 1e-12


def test_dephase_fixes_maximally_mixed_state():
    mixed = np.eye(16, dtype=complex) / 16
    assert np.abs(dephase(mixed, uniform_frame(4, 0.7, 2.1)) - mixed).max() < 1e-13


def test_dephase_frame_validation():
    with pytest.raises(ValueError, match="frame shape"):
        dephase(ghz_state(4), np.zeros((3, 2)))


def test_objective_branch_structure_of_x_channel():
    # The computational frame always costs exactly one bit; the
    # transverse frame always costs 3 - S(rho).
    for kt in (0.0, 0.1, 0.3):
        rho = closed_form_state(Channel.X, kt)
        entropy = von_neumann_entropy(rho)
        assert _one_frame(rho, z_frame(4)) == pytest.approx(1.0, abs=1e-10)
        assert _one_frame(rho, x_frame(4)) == pytest.approx(3.0 - entropy, abs=1e-10)


def test_objective_y_channel_mirrors_x_channel():
    for kt in (0.05, 0.2):
        vx = _one_frame(closed_form_state(Channel.X, kt), x_frame(4))
        vy = _one_frame(closed_form_state(Channel.Y, kt), y_frame(4))
        assert vx == pytest.approx(vy, abs=1e-12)


@given(angles)
def test_objective_is_nonnegative(pair):
    theta, phi = pair
    rho = closed_form_state(Channel.X, 0.1)
    assert _one_frame(rho, uniform_frame(4, theta, phi)) > -1e-10


def test_global_discord_ghz():
    # A complex copy: the real ghz_state(4) takes the search's real-state shortcuts.
    result = global_discord(ghz_state(4).astype(complex))
    assert result.value == pytest.approx(1.0, abs=1e-14)
    assert result.branch_values["z"] == pytest.approx(1.0, abs=1e-14)
    assert result.branch_values["x"] == pytest.approx(3.0, abs=1e-14)
    assert result.branch_values["y"] == pytest.approx(3.0, abs=1e-14)
    assert result.optimizer_evals == 3006
    for theta, _ in result.frame:
        assert min(abs(theta), abs(math.pi - theta)) < 1e-3
    assert result.value <= min(result.branch_values.values()) + 1e-12


def test_global_discord_vanishes_on_uncorrelated_states():
    zero = np.zeros((16, 16), dtype=complex)
    zero[0, 0] = 1.0
    assert global_discord(zero).value < 1e-9
    plus = np.full((2, 2), 0.5, dtype=complex)
    product = np.array([[1.0]], dtype=complex)
    for _ in range(4):
        product = np.kron(product, plus)
    assert global_discord(product).value < 1e-9


def test_one_qubit_objective_vanishes_on_every_frame(rng):
    # The register is its own only marginal, so the two terms cancel.
    rho = random_density(1, rng)
    for frame in _random_frames(1, 24, rng):
        assert abs(_one_frame(rho, frame)) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4])
def test_global_discord_vanishes_on_random_product_states(n):
    # Full-rank factors whose marginals are not I/2; a product state costs 0 in every frame.
    rng = np.random.default_rng(n)
    rho = np.array([[1.0 + 0j]])
    for _ in range(n):
        rho = np.kron(rho, random_density(1, rng))
    for frame in _random_frames(n, 6, rng):
        assert abs(_one_frame(rho, frame)) < 1e-12
    assert global_discord(rho).value == pytest.approx(0.0, abs=1e-10)


def test_global_discord_matches_closed_forms_pointwise():
    got = global_discord(closed_form_state(Channel.Z, 0.1)).value
    assert got == pytest.approx(analytic_gqd(Channel.Z, 0.1), abs=1e-14)
    got = global_discord(closed_form_state(Channel.X, 0.2)).value
    expected = 3.0 - shannon_entropy(closed_form_spectrum(Channel.X, 0.2))
    assert got == pytest.approx(expected, abs=1e-14)
    got = global_discord(closed_form_state(Channel.X, 0.08)).value
    assert got == pytest.approx(1.0, abs=1e-14)


def test_global_discord_is_deterministic():
    rho = closed_form_state(Channel.ISO, 0.15)
    first = global_discord(rho)
    second = global_discord(rho)
    assert first.value == second.value
    assert np.array_equal(first.frame, second.frame)
    assert first.optimizer_evals == second.optimizer_evals
    assert not first.frame.flags.writeable


def test_global_discord_of_two_qubit_bell_state():
    result = global_discord(bell_state())
    assert result.value == pytest.approx(1.0, abs=1e-14)


def test_bipartite_discord_reference_states():
    assert bipartite_discord(bell_state()) == pytest.approx(1.0, abs=1e-14)
    classical = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert bipartite_discord(classical) < 1e-9
    product = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    assert bipartite_discord(product) < 1e-9
    with pytest.raises(ValueError, match="exactly 2"):
        bipartite_discord(ghz_state(3))


def test_analytic_gqd_x_branches():
    assert analytic_gqd(Channel.X, 0.05) == 1.0
    assert analytic_gqd(Channel.X, 0.2) == pytest.approx(0.630697995220, abs=1e-10)
    assert analytic_gqd(Channel.X, 0.4) == pytest.approx(0.145515246077, abs=1e-10)
    assert analytic_gqd(Channel.Y, 0.2) == analytic_gqd(Channel.X, 0.2)
    left = analytic_gqd(Channel.X, KINK - 1e-7)
    right = analytic_gqd(Channel.X, KINK + 1e-7)
    assert abs(left - right) < 1e-5
    assert left == 1.0


def test_analytic_gqd_z_and_iso_reference_values():
    assert analytic_gqd(Channel.Z, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert analytic_gqd(Channel.Z, 0.1) == pytest.approx(0.150982990486, abs=1e-11)
    assert analytic_gqd(Channel.Z, 0.3) == pytest.approx(0.005944677211, abs=1e-11)
    assert analytic_gqd(Channel.ISO, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert analytic_gqd(Channel.ISO, 0.1) == pytest.approx(0.062206130710, abs=1e-11)
    assert analytic_gqd(Channel.ISO, 0.3) == pytest.approx(0.000251823152, abs=1e-11)
    for channel in Channel:
        with pytest.raises(ValueError, match="nonnegative"):
            analytic_gqd(channel, -0.01)


def test_analytic_gqd_iso_decays():
    values = [analytic_gqd(Channel.ISO, kt) for kt in (0.05, 0.2, 0.4)]
    assert values[0] > values[1] > values[2] > 0.0


def test_sudden_change_point():
    kink = sudden_change_point(Channel.X)
    assert kink == pytest.approx(KINK, abs=1e-9)
    assert 0.136 <= kink <= 0.138
    assert sudden_change_point(Channel.Y) == pytest.approx(kink, abs=1e-12)
    for channel in (Channel.Z, Channel.ISO):
        with pytest.raises(ValueError, match="never cross"):
            sudden_change_point(channel)


def test_x_and_y_channels_share_their_discord():
    vx = global_discord(closed_form_state(Channel.X, 0.2)).value
    vy = global_discord(closed_form_state(Channel.Y, 0.2)).value
    assert vx == pytest.approx(vy, abs=1e-14)


def test_discord_result_shape():
    result = global_discord(ghz_state(4))
    assert isinstance(result, DiscordResult)
    assert result.frame.shape == (4, 2)
    assert set(result.branch_values) == {"z", "x", "y"}
    assert result.value >= 0.0


def _reference_objective(rho: np.ndarray, frame: np.ndarray) -> float:
    """One-frame discord objective: Kronecker basis, scalar entropies, marginals of the joint."""
    n = frame.shape[0]
    u = np.array([[1.0 + 0j]])
    for theta, phi in frame:
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        e = np.exp(-1j * phi)
        u = np.kron(u, np.array([[c, e * s], [-s, e * c]], dtype=complex))
    probs = ((u @ rho) * u.conj()).sum(axis=1).real
    total = shannon_entropy(probs) - von_neumann_entropy(rho)
    joint = probs.reshape((2,) * n)
    for j in range(n):
        marginal = joint.sum(axis=tuple(k for k in range(n) if k != j))
        total -= shannon_entropy(marginal) - von_neumann_entropy(partial_trace(rho, (j,)))
    return total


def _random_frames(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    frames = np.stack([rng.uniform(0.0, math.pi, size=(count, n)),
                       rng.uniform(0.0, 2.0 * math.pi, size=(count, n))], axis=-1)
    # Pin some angles to the poles, where a local basis vector loses its phase.
    frames[::3, 0, 0] = 0.0
    frames[1::3, -1, 0] = math.pi
    return frames


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_batched_objective_matches_one_frame_reference(n, rng):
    rho = random_density(n, rng)
    frames = _random_frames(n, 12, rng)
    frames = np.concatenate([frames, z_frame(n)[None], uniform_frame(n, math.pi, 1.0)[None]])
    batched = _objective(rho[None], n)(frames, np.zeros(len(frames), dtype=int))
    reference = np.array([_reference_objective(rho, f) for f in frames])
    assert np.abs(batched - reference).max() < 1e-13


def test_one_call_on_197_frames_equals_one_frame_at_a_time(rng):
    rho = random_density(4, rng)
    objective = _objective(rho[None], 4)
    frames = _random_frames(4, 197, rng)
    together = objective(frames, np.zeros(len(frames), dtype=int))
    alone = np.concatenate([objective(f[None], np.zeros(1, dtype=int)) for f in frames])
    assert together.shape == (len(frames),)
    assert np.array_equal(together, alone)


def test_batched_lines_beyond_the_cap_equal_one_row_lines(rng):
    # 150 rows on qubit 2 take three contractions of at most 64 frames; each row's values
    # are the bits of its own one-row setup.
    states = np.stack([random_density(4, rng) for _ in range(2)])
    objective = _objective(states, 4)
    assert objective.batch == 64
    frames = _random_frames(4, 150, rng)
    owners, coords = np.arange(150) % 2, np.arange(150) // 7 % 2
    xs = rng.uniform(0.0, math.pi, size=(150, 9))
    together = objective.lines(frames, owners, 2, coords)(xs)
    alone = np.concatenate([objective.lines(frames[i:i + 1], owners[i:i + 1], 2, coords[i])(
        xs[i:i + 1]) for i in range(150)])
    assert np.array_equal(together, alone)


def test_batch_cap_bounds_large_registers():
    for n, batch in ((1, 4096), (4, 64), (6, 4), (7, 1), (9, 1)):
        rho = np.eye(2**n, dtype=complex) / 2**n
        assert _objective(rho[None], n).batch == batch


def test_batched_objective_rejects_out_of_range_probabilities():
    doubled = np.zeros((4, 4), dtype=complex)
    doubled[0, 0] = doubled[1, 1] = 1.0  # trace 2: rows sum to 2
    with pytest.raises(ValueError, match="sum to 2"):
        # Unvalidated spectra: the state is invalid on purpose.
        _GlobalObjective(doubled[None], 2, np.linalg.eigvalsh(doubled[None]))(
            np.stack([z_frame(2), x_frame(2)]), np.zeros(2, dtype=int))
    good = np.full((3, 2), 0.5)
    with pytest.raises(ValueError, match="negative beyond tolerance"):
        shannon_entropies(np.vstack([good, [[1.0 + 1e-9, -1e-9]]]))
    with pytest.raises(ValueError, match="sum to 0.9"):
        shannon_entropies(np.vstack([good, [[0.5, 0.4]]]))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_tensors_of_a_stack_equal_each_state_alone(n):
    rng = np.random.default_rng(400 + n)
    states = np.stack([random_density(n, rng) for _ in range(3)])
    stacked = discord._pauli_tensors(states, n)
    assert stacked.shape == (3, 4**n)
    paulis = (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)
    for k, rho in enumerate(states):
        assert np.array_equal(stacked[k], discord._pauli_tensors(rho[None], n)[0])
        for index in rng.integers(0, 4**n, size=6):
            digits = [int(index) // 4 ** (n - 1 - j) % 4 for j in range(n)]
            sigma = np.array([[1.0]])
            for mu in digits:
                sigma = np.kron(sigma, paulis[mu])
            assert abs(stacked[k, index] - np.trace(rho @ sigma).real) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fixed_stage_equals_the_per_frame_values(n):
    rng = np.random.default_rng(200 + n)
    states = np.stack([random_density(n, rng) for _ in range(3)])
    objective = _objective(states, n)
    frames = discord._grid(n)
    assert len(frames) == 306
    fixed = objective.uniform(frames)
    assert fixed.shape == (len(states), len(frames))
    per_frame = objective(np.tile(frames, (len(states), 1, 1)),
                          np.repeat(np.arange(len(states)), len(frames))).reshape(fixed.shape)
    assert np.abs(fixed - per_frame).max() <= 1e-15
    # A state priced alone gets the values it gets beside others.
    assert np.array_equal(_objective(states[1:2], n).uniform(frames)[0], fixed[1])


def test_fixed_stage_of_the_conditional_entropy_equals_its_per_frame_values(rng):
    objective = discord._ConditionalEntropy(random_density(2, rng))
    frames = discord._grid(1)
    fixed = objective.uniform(frames)
    assert fixed.shape == (1, len(frames))
    assert np.abs(fixed[0] - objective(frames, np.zeros(len(frames), dtype=int))).max() <= 1e-15


def test_line_rejects_a_state_whose_probabilities_do_not_sum_to_one(monkeypatch):
    doubled = np.zeros((4, 4), dtype=complex)
    doubled[0, 0] = doubled[1, 1] = 1.0  # trace 2: the joint rows sum to 2 at every x
    # Unvalidated spectra: the state is invalid on purpose.
    objective = _GlobalObjective(doubled[None], 2, np.linalg.eigvalsh(doubled[None]))

    def no_trial(p):
        raise AssertionError("a trial was priced")

    monkeypatch.setattr(discord, "_outcome_plog2p", no_trial)
    with pytest.raises(ValueError, match="on a line sum to 2 "):
        objective.lines(np.stack([z_frame(2), x_frame(2)]), np.zeros(2, dtype=int), 0, 0)


def test_line_rejects_a_nan_coefficient():
    objective = _objective(closed_form_state(Channel.X, 0.2)[None], 4)
    objective.coefficients[0, 37] = math.nan
    with pytest.raises(ValueError, match="not a number"):
        objective.lines(x_frame(4)[None], np.zeros(1, dtype=int), 1, 1)
    coef = np.zeros((1, 3, 6))
    coef[0, 0] = [0.25, 0.25, 0.25, 0.25, 0.5, 0.5]
    discord._check_line(coef, 4)
    for row, column in ((0, 1), (1, 4), (2, 5)):
        bad = coef.copy()
        bad[0, row, column] = math.nan
        with pytest.raises(ValueError, match="not a number"):
            discord._check_line(bad, 4)


def test_line_checks_bound_every_point_of_the_line():
    coef = np.zeros((1, 3, 4))
    coef[0, 0] = [0.5, 0.5, 0.5, 0.5]
    coef[0, 1, :2] = [1e-9, -1e-9]  # sums stay 1 at every x; the least value is 0.5 - 1e-9
    discord._check_line(coef, 2)
    coef[0, 0, 2:] = [0.5 + 6e-10, 0.5 - 6e-10]
    coef[0, 2, 2:] = [-5e-10, 5e-10]
    discord._check_line(coef, 2)  # 1.2e-9 apart, but the sum is exactly 1
    coef[0, 2, 2:] = [5e-10, 5e-10]  # the sum swings to 1 +- 1e-9 (hypot of 0 and 1e-9)
    discord._check_line(coef, 2)
    coef[0, 2, 2:] = [6e-10, 5e-10]
    with pytest.raises(ValueError, match="on a line sum to 1 "):
        discord._check_line(coef, 2)
    coef[0, 2, 2:] = 0.0
    coef[0, 0, :2] = [0.2, 0.8]
    coef[0, 1, :2] = [0.2, -0.2]  # outcome 0 touches 0 at x = pi, outcome 1 stays above
    discord._check_line(coef, 2)
    coef[0, 2, :2] = [1e-4, -1e-4]  # now it dips to 0.2 - hypot(0.2, 1e-4)
    with pytest.raises(ValueError, match="on a line is negative"):
        discord._check_line(coef, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_line_minimum_bounds_the_sampled_probabilities(n):
    # A - hypot(B, C) is each outcome's least value on the line: at or below every point
    # sampled through whole frames, and met where the line model has its minimum.
    rng = np.random.default_rng(300 + n)
    states = np.stack([random_density(n, rng) for _ in range(2)])
    objective = _objective(states, n)
    frames = _random_frames(n, 4, rng)
    owners = np.arange(len(frames)) % 2
    width = 2**n
    for qubit in range(n):
        for coord, top in ((0, math.pi), (1, 2.0 * math.pi)):
            coef, _ = objective.line_model(frames, owners, qubit, coord)
            a, b, c = coef[:, 0], coef[:, 1], coef[:, 2]
            low = a - np.hypot(b, c)
            lowest = np.arctan2(-c, -b)  # (F, 2**n + 2) angles of each outcome's minimum
            xs = np.concatenate([rng.uniform(0.0, top, size=(len(frames), 24)), lowest], axis=1)
            trials = np.repeat(frames[:, None], xs.shape[1], axis=1)
            trials[..., qubit, coord] = xs
            rows = discord._rows(trials.reshape(-1, n, 2))
            trial_owners = owners.repeat(xs.shape[1])
            joint = objective._contract(list(rows.swapaxes(0, 1)), trial_owners)
            own = (rows[:, qubit] @ objective.bloch[trial_owners, qubit][..., None])[..., 0]
            probs = np.concatenate([joint, own], axis=1).reshape(len(frames), xs.shape[1], -1)
            assert (low[:, None, :] <= probs + 1e-15).all()
            at_minimum = probs[:, 24:][:, np.arange(width + 2), np.arange(width + 2)]
            assert np.abs(at_minimum - low).max() < 1e-14


def test_row_entropies_match_the_scalar_entropy(rng):
    rows = rng.dirichlet(np.ones(8), size=5)
    rows[0] = [1.0] + [0.0] * 7
    rows[1, :4] = 0.0
    rows[1] /= rows[1].sum()
    expected = [shannon_entropy(r) for r in rows]
    assert np.abs(shannon_entropies(rows) - expected).max() < 1e-15


@pytest.mark.parametrize("state, evals", [
    (ghz_state(4).astype(complex), 3006),
    (ghz_state(4), 848),
    *((closed_form_state(channel, 0.3), 848) for channel in Channel),
], ids=["ghz", "ghz-real", *(f"{c.value}-0.3" for c in Channel)])
def test_evaluation_count_is_pinned(state, evals):
    # 3 distinct starts, each descending for one sweep (see the round count).  A complex state
    # takes the general path: the 306 grid frames, then 4 x (12 + 13) scans of 9 points a start.
    # A real state, each of these its own cyclic qubit shift, prices the 173 grid frames with
    # phi in [0, pi] and scans only qubit 0's two lines: 173 + 3 x 225.
    assert global_discord(state).optimizer_evals == evals


def test_search_round_count_is_pinned(monkeypatch):
    # The grid, then the confirmation pass: every start's 4 theta lines of 12 scans and
    # 4 phi lines of 13 (the spacing starts at pi/8 or pi/4 and falls 4x a scan to 1e-7),
    # scanned together in 13 rounds.  No GHZ line gains, so no cyclic line follows, and
    # every scan counts.  No frame is priced whole.  The real GHZ state prices 173 grid frames
    # and each start's qubit-0 lines only, in as many rounds.
    batches = []
    uniform, lines = _GlobalObjective.uniform, _GlobalObjective.lines

    def refused(self, frames, owner):
        raise AssertionError("the search priced whole frames")

    def counting_uniform(self, frames):
        batches.append(len(frames) * len(self.coefficients))
        return uniform(self, frames)

    def counting_lines(self, *args):
        evaluate = lines(self, *args)

        def scan(xs, rows=slice(None)):
            batches.append(xs.size)
            return evaluate(xs, rows)
        return scan

    monkeypatch.setattr(_GlobalObjective, "__call__", refused)
    monkeypatch.setattr(_GlobalObjective, "uniform", counting_uniform)
    monkeypatch.setattr(_GlobalObjective, "lines", counting_lines)
    for state, evals in ((ghz_state(4).astype(complex), 3006), (ghz_state(4), 173 + 3 * 225)):
        batches.clear()
        result = global_discord(state)
        assert len(batches) == 14
        assert sum(batches) == result.optimizer_evals == evals


def _reference_descent(objective, frame: np.ndarray, value: float, copies: bool = False):
    """One descent at a time, scalar control flow: what each lockstep descent must reproduce.

    Every line is scanned.  With ``copies``, for a uniform start on a state that is its own
    cyclic qubit shift, a descent that no line of its first sweep improves counts only the
    points of qubit 0's two lines, the ones the search scans.
    """
    frame, own, points = frame.copy(), np.zeros(1, dtype=int), discord._SCAN_POINTS
    best, evals = value, 0
    for sweep in range(discord._MAX_SWEEPS):
        sweep_start = best
        for j in range(frame.shape[0]):
            if copies and (sweep, j) == (0, 1):
                opening = evals
            for coord in range(2):
                evaluate = objective.lines(frame[None], own, j, coord)
                lo, hi, x, fx = 0.0, (1 + coord) * math.pi, 0.0, math.inf
                while True:
                    step = (hi - lo) / (points - 1)
                    scan = [lo + step * k for k in range(points)]
                    values = evaluate(np.array([scan]))[0].tolist()
                    evals += points
                    k = min(range(points), key=values.__getitem__)  # the first minimum
                    if values[k] < fx:
                        x, fx = scan[k], values[k]
                    lo, hi = scan[k] - step, scan[k] + step
                    if step <= 1e-7:  # its own stop, so that the test checks _ROUNDS
                        break
                if fx < best - 1e-15:
                    frame[j, coord], best = x, fx
        if copies and sweep == 0 and best == value:
            return float(best), frame, opening
        if sweep_start - best < discord._SWEEP_TOL:
            break
    return float(best), frame, evals


def test_lockstep_descents_match_lone_descents():
    states = [closed_form_state(Channel.X, 0.2), closed_form_state(Channel.ISO, 0.15)]
    late = z_frame(4)
    late[3, 0] = 0.5  # first gains on qubit 3's theta, line 6: the cyclic sweep resumes at 7
    starts = [uniform_frame(4, 0.3, 1.0), z_frame(4), x_frame(4), y_frame(4), late]
    # values[s][i]: start i's objective value on state s.
    values = [_objective(rho[None], 4)(np.stack(starts), np.zeros(len(starts), dtype=int))
              for rho in states]
    for rho, start_values in zip(states, values):  # after the pass, its first line is line 7
        objective, setups = _objective(rho[None], 4), []
        lines = objective.lines
        objective.lines = lambda *args: setups.append(args[2:]) or lines(*args)
        _lockstep(objective, [late], [start_values[-1]], [0])
        assert np.ndim(setups[0][0]) == 1 and setups[1] == (3, 1)
    # alone[s][i]: start i descending by itself on state s, equal to the scalar reference.
    alone = [[_lockstep(_objective(rho[None], 4), [start], [value], [0])
              for start, value in zip(starts, start_values)]
             for rho, start_values in zip(states, values)]
    for rho, start_values, lone in zip(states, values, alone):
        for start, value, ((lone_value,), (frame,), (evals,)) in zip(starts, start_values, lone):
            ref_value, ref_frame, ref_evals = _reference_descent(
                _objective(rho[None], 4), start, value, copies=bool((start == start[0]).all()))
            assert (lone_value, evals) == (ref_value, ref_evals)
            assert np.array_equal(frame, ref_frame)
    # All starts on one state, then starts owned by two states.
    for stack, owners in ((states[:1], [0, 0, 0, 0, 0]), (states, [0, 1, 1, 0, 1])):
        start_values = [values[owner][i] for i, owner in enumerate(owners)]
        together, frames, evals = _lockstep(_objective(np.stack(stack), 4), starts, start_values,
                                            owners)
        assert len(together) == len(frames) == len(evals) == len(starts)
        for i, owner in enumerate(owners):
            (lone_value,), (lone_frame,), (lone_evals,) = alone[owner][i]
            assert together[i] == lone_value
            assert np.array_equal(frames[i], lone_frame)
            assert evals[i] == lone_evals


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_line_model_equals_whole_frames(n):
    rng = np.random.default_rng(100 + n)
    states = np.stack([random_density(n, rng) for _ in range(2)])
    objective = _objective(states, n)
    frames = _random_frames(n, 6, rng)
    frames[::2, :, 0] = 0.0  # pole frames, where phi does not move the direction
    owners = np.arange(len(frames)) % 2
    for qubit in range(n):
        for coord, top in ((0, math.pi), (1, 2.0 * math.pi)):
            xs = np.concatenate([np.tile([0.0, math.pi, 2.0 * math.pi], (len(frames), 1)),
                                 rng.uniform(0.0, top, size=(len(frames), 5))], axis=1)
            trials = np.repeat(frames[:, None], xs.shape[1], axis=1)
            trials[..., qubit, coord] = xs
            whole = objective(trials.reshape(-1, n, 2), owners.repeat(xs.shape[1]))
            evaluate = objective.lines(frames, owners, qubit, coord)
            assert np.abs(evaluate(xs).reshape(-1) - whole).max() < 1e-12
            # Lines built on a subset of the frames, in another order, give the same values,
            # and so does the evaluator given that subset of its rows.
            part = np.arange(len(frames))[::-2]
            subset = objective.lines(frames[part], owners[part], qubit, coord)
            assert np.array_equal(subset(xs[part]), evaluate(xs)[part])
            assert np.array_equal(evaluate(xs[part], part), evaluate(xs)[part])
    # Every (qubit, coord) of every frame as rows of one call: each row's values are the
    # bits of its line set up alone.
    lines = list(np.ndindex(n, 2))
    rows = np.repeat(np.arange(len(frames)), len(lines))
    qubits, coords = np.tile(np.array(lines).T, len(frames))
    xs = rng.uniform(0.0, math.pi, size=(len(rows), 7))
    mixed = objective.lines(frames[rows], owners[rows], qubits, coords)(xs)
    for i, (row, qubit, coord) in enumerate(zip(rows, qubits, coords)):
        alone = objective.lines(frames[row:row + 1], owners[row:row + 1], qubit, coord)
        assert np.array_equal(mixed[i], alone(xs[i:i + 1])[0])


def test_objective_entropies_match_the_partial_trace_route():
    for n in (2, 3, 4, 5):
        rng = np.random.default_rng(n)
        states = np.stack([random_density(n, rng) for _ in range(3)] + [random_density(n, rng, 1)])
        objective = _objective(states, n)
        expected = [[von_neumann_entropy(partial_trace(rho, (j,))) for j in range(n)]
                    for rho in states]
        assert np.abs(objective.marginal_entropies - expected).max() < 1e-12
        assert np.abs(objective.state_entropy
                      - [von_neumann_entropy(rho) for rho in states]).max() < 1e-12


@pytest.mark.parametrize("fault, message", [
    (1e-6j * np.triu(np.ones((16, 16)), 1), "not hermitian"),
    (np.eye(16) / 32, "trace"),
    (np.diag([0.0, 0.1, -0.1] + [0.0] * 13), "negative eigenvalue"),
], ids=["hermiticity", "trace", "positivity"])
def test_a_bad_state_in_a_search_raises_its_own_error(fault, message):
    good = closed_form_state(Channel.Z, 0.1)
    with pytest.raises(ValueError, match=message):
        global_discord(good + fault)


@pytest.mark.parametrize("channel", list(Channel), ids=lambda c: c.value)
def test_no_random_start_descends_below_the_closed_form(channel):
    # kt = 0.10 and 0.17 sit either side of the X/Y kink at 0.1367.
    rng = np.random.default_rng(7)
    kts = (0.10, 0.17, 0.40)
    objective = _objective(np.stack([closed_form_state(channel, kt) for kt in kts]), 4)
    starts = np.concatenate([_random_frames(4, 16, rng) for _ in kts])
    owners = np.repeat(np.arange(len(kts)), 16)
    values, _, _ = _lockstep(objective, list(starts), objective(starts, owners), owners)
    floor = np.array([analytic_gqd(channel, kt) for kt in kts])[owners]
    assert np.min(values - floor) > -1e-10


def _discords(states: np.ndarray) -> list[DiscordResult]:
    """The stacked search of a ``(B, d, d)`` stack, with its validated spectra."""
    return discord._global_discords(states, discord._density_spectra(states))


def _assert_same_as_alone(states: np.ndarray, results: list[DiscordResult]) -> None:
    assert len(results) == len(states)
    for rho, together in zip(states, results):
        alone = global_discord(rho)
        assert together.value == alone.value
        assert np.array_equal(together.frame, alone.frame)
        assert not together.frame.flags.writeable
        assert together.branch_values == alone.branch_values
        assert together.optimizer_evals == alone.optimizer_evals


def _channel_states() -> np.ndarray:
    """The 52 real closed-form channel states: 4 channels x kappa*t = 0, 0.05, ..., 0.6."""
    return np.stack([closed_form_state(channel, kt)
                     for channel in Channel for kt in np.round(np.arange(13) * 0.05, 2)])


def test_batched_search_equals_one_state_searches():
    # The 52 channel states, 4 random full-rank ones, and, in one real stack, channel states
    # (2-line starts) between the real parts of the random ones (8-line starts).
    channel_states = _channel_states()
    random_states = np.stack([random_density(4, np.random.default_rng(seed)) for seed in range(4)])
    mixed = np.concatenate([channel_states[:26:2], random_states.real, channel_states[26::2]])
    for states in (channel_states, random_states, mixed):
        _assert_same_as_alone(states, _discords(states))


def test_batched_channel_states_finish_in_the_confirmation_pass(monkeypatch):
    # No line improves a start on a channel state: each search prices the 173 grid frames with
    # phi in [0, pi] and makes one line setup, the pass of every start's qubit-0 lines (the
    # other 6 are copies), and each start counts those 2 lines, 225 points.
    states = _channel_states()
    setups, lines = [], _GlobalObjective.lines

    def counting_lines(self, frames, *args):
        setups.append(len(frames))
        return lines(self, frames, *args)

    monkeypatch.setattr(_GlobalObjective, "lines", counting_lines)
    starts = (np.array([r.optimizer_evals for r in _discords(states)]) - 173) / 225
    assert np.array_equal(starts, np.round(starts)) and starts.min() >= 1
    assert setups == [2 * starts.sum()]


def test_the_symmetry_shortcuts_equal_the_general_search(monkeypatch):
    # Every channel state is real and equal to its cyclic qubit shift bit for bit, so its search
    # prices half the grid and scans each start's qubit-0 lines only.
    states = _channel_states()
    assert _objective(states, 4).real and _objective(states, 4).symmetric.all()
    fast = _discords(states)
    init = _GlobalObjective.__init__

    def general(self, *args):  # the same objective, with both shortcuts' flags off
        init(self, *args)
        self.real, self.symmetric = False, np.zeros_like(self.symmetric)

    monkeypatch.setattr(_GlobalObjective, "__init__", general)
    slow = _discords(states)
    for rho, a, b in zip(states, fast, slow):
        assert abs(a.value - b.value) <= 1e-15
        assert np.array_equal(a.frame, b.frame)
        assert a.branch_values == b.branch_values
        # 173 of the 306 grid frames, and each start a quarter of its scan points.
        assert 4 * (a.optimizer_evals - 173) == b.optimizer_evals - 306
        assert abs(a.value - _reference_objective(rho, a.frame)) <= 1e-13


def test_random_states_and_complex_copies_take_no_line_shortcut(monkeypatch):
    # A random state is not its own cyclic qubit shift, and a complex copy is not real: every
    # start sets up its 8 lines.  A complex stack prices the 306 grid frames, a real one 173.
    random_states = np.stack([random_density(4, np.random.default_rng(seed)) for seed in range(3)])
    stacks = ((random_states, 306), (random_states.real.copy(), 173),
              (_channel_states()[::4].astype(complex), 306))
    priced, setups = [], []
    uniform, lines = _GlobalObjective.uniform, _GlobalObjective.lines

    def counting_uniform(self, frames):
        priced.append(len(frames))
        return uniform(self, frames)

    def counting_lines(self, frames, owners, qubits, coords):
        setups.append(np.broadcast_to(qubits, len(frames)))
        return lines(self, frames, owners, qubits, coords)

    monkeypatch.setattr(_GlobalObjective, "uniform", counting_uniform)
    monkeypatch.setattr(_GlobalObjective, "lines", counting_lines)
    for states, frames in stacks:
        priced.clear()
        setups.clear()
        _discords(states)
        assert priced == [frames]
        starts = len(setups[0]) // 8  # the confirmation pass comes first
        assert starts >= len(states)
        assert np.array_equal(setups[0], np.tile(np.repeat(np.arange(4), 2), starts))


def test_the_grid_mirror_pairs_frames_of_equal_value_on_real_states(rng):
    grid, priced, mirror = discord._grid(1)[:, 0], discord._PRICED, discord._MIRROR
    assert len(priced) == 173 and (grid[priced, 1] <= math.pi).all()
    partner = grid[priced[mirror]]
    assert np.array_equal(partner[:, 0], grid[:, 0])
    assert np.abs(partner[:, 1] - np.minimum(grid[:, 1], 2.0 * math.pi - grid[:, 1])).max() <= 1e-15
    # A partner never follows its frame, so a grid pick, the first near-least frame, is priced.
    assert (priced[mirror] <= np.arange(len(grid))).all()
    # Fully priced, partners agree to rounding on a real state, not on a complex one.
    rho = random_density(4, rng)
    for state, real in ((rho.real.copy(), True), (rho, False)):
        values = _objective(state[None], 4).uniform(discord._grid(4))[0]
        assert (np.abs(values - values[priced[mirror]]).max() <= 1e-14) == real


def test_batched_six_qubit_search_equals_one_state_searches():
    # 9 random 6-qubit states searched as one stack; the caller bounds the stack.
    rng = np.random.default_rng(66)
    states = np.stack([random_density(6, rng) for _ in range(9)])
    _assert_same_as_alone(states, _discords(states))


def _result_bits(result: DiscordResult):
    return (np.float64(result.value).view(np.uint64), result.frame.tobytes(), result.branch_values,
            result.optimizer_evals)


def test_real_states_search_as_their_complex_copies():
    # Within one dtype a state gets the same bits alone as in a stack.  A real state and its
    # complex copy are the same matrix, but their spectra, and so their entropies, come from
    # real and complex eigensolves that may round apart in the last bits, and only the real
    # stack takes the search's symmetry shortcuts: over 4 channels x 61 times up to
    # kappa*t = 1.2 the discords differ by at most 1.33e-15.
    kts = np.linspace(0.0, 1.2, 61)
    real = np.stack([closed_form_state(channel, kt) for channel in Channel for kt in kts])
    copies = real.astype(complex)
    assert real.dtype == np.float64
    real_results, complex_results = _discords(real), _discords(copies)
    for states, results in ((real, real_results), (copies, complex_results)):
        for k in (0, 90, 220):  # 220, the iso state at 0.74, holds the largest gap
            assert _result_bits(results[k]) == _result_bits(global_discord(states[k]))
    for a, b in zip(real_results, complex_results):
        assert abs(a.value - b.value) <= 1.5e-15
        assert all(abs(a.branch_values[k] - b.branch_values[k]) <= 1.5e-15 for k in discord._NAMED)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_global_discord_vanishes_on_locally_rotated_classical_states(n):
    # Diagonal in a random product basis: measuring in that basis disturbs nothing.
    rng = np.random.default_rng(60 + n)
    states = []
    for _ in range(8):
        u = random_local_unitary(n, rng)
        rho = u @ np.diag(rng.dirichlet(np.ones(2**n))) @ u.conj().T
        states.append((rho + rho.conj().T) / 2.0)
    assert max(result.value for result in _discords(np.stack(states))) <= 1e-12


class _CraftedSearch:
    """Search objective with given grid values whose line scans never improve a descent."""

    real = False

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows
        self.symmetric = np.zeros(len(rows), dtype=bool)

    def uniform(self, frames: np.ndarray) -> np.ndarray:
        assert frames.shape[0] == self.rows.shape[1]
        return self.rows

    def lines(self, frames, owners, qubits, coords):
        return lambda xs, rows=slice(None): np.full(xs.shape, 10.0)


def test_grid_pick_is_the_first_frame_within_the_tie_tolerance():
    grid, tie = discord._grid(1), discord._TIE_TOL
    rows = np.full((3, len(grid)), 2.0)
    rows[:, list(discord._NAMED.values())] = 5.0
    # A chain of near-ties: 60 is the least, 40 the first within _TIE_TOL of it; 20 is not.
    rows[0, [20, 40, 60]] = 1.0, 1.0 - 0.6 * tie, 1.0 - 1.2 * tie
    rows[1, [50, 100]] = 0.5 + 2.0 * tie, 0.5
    # The x frame (145) ties with a later least value, and is its own grid pick.
    rows[2, [discord._NAMED["x"], 250]] = 1.0 + 0.9 * tie, 1.0
    values, frames, branches, counts = discord._search(_CraftedSearch(rows), 1)
    picks = [40, 100, discord._NAMED["x"]]
    assert values.tolist() == rows[[0, 1, 2], picks].tolist()
    assert np.array_equal(frames, grid[picks])
    assert np.array_equal(branches, rows[:, list(discord._NAMED.values())])
    # Four distinct starts on states 0 and 1, three on state 2; each descent makes one sweep
    # of a theta line (12 scans) and a phi line (13 scans) of 9 points.
    assert counts.tolist() == [306 + 4 * 225, 306 + 4 * 225, 306 + 3 * 225]


def test_search_result_is_the_smallest_frame_among_near_tied_descents(monkeypatch):
    tie = discord._TIE_TOL
    rows = np.full((2, len(discord._grid(1))), 2.0)
    rows[0, 200] = rows[1, discord._NAMED["x"]] = 1.0
    # Descents in start order: state 0 from 200, z, x, y; state 1 from x, z, y.  State 0's
    # smallest frame, (0.5, 0), is not near-tied.
    values = np.array([1.0 - 0.4 * tie, 1.0 + 0.5 * tie, 1.0, 3.0, 0.5, 0.5, 0.7])
    frames = np.array([[2.0, 1.0], [1.0, 3.0], [1.0, 2.0], [0.5, 0.0],
                       [0.3, 0.2], [0.3, 0.1], [0.0, 5.0]])[:, None]

    def crafted(objective, starts, start_values, owners):
        assert owners.tolist() == [0, 0, 0, 0, 1, 1, 1]
        return values, frames, np.arange(1, 8)

    monkeypatch.setattr(discord, "_lockstep", crafted)
    got, picked, _, counts = discord._search(_CraftedSearch(rows), 1)
    # State 0: three descents lie within _TIE_TOL of the least, and (1, 2) is the smallest of
    # their frames; state 1: equal values, and the second angle decides.
    assert got.tolist() == [1.0, 0.5]
    assert np.array_equal(picked, frames[[2, 5]])
    assert counts.tolist() == [306 + 1 + 2 + 3 + 4, 306 + 5 + 6 + 7]


def _werner(z: float) -> np.ndarray:
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return (z * np.outer(singlet, singlet) + (1.0 - z) * np.eye(4) / 4.0).astype(complex)


def _xlog2x(v: float) -> float:
    return 0.0 if v <= 0.0 else v * math.log2(v)


def test_conditional_entropy_measures_along_the_projector_direction(rng):
    rho = random_density(2, rng)
    objective = discord._ConditionalEntropy(rho)
    s_a = von_neumann_entropy(partial_trace(rho, (0,)))
    for theta, phi in ((0.7, 0.4), (1.1, 2.5), (2.0, 5.3)):
        expected = -s_a
        for k in (0, 1):
            slab = np.kron(np.eye(2), projector(theta, phi, k))
            cond = partial_trace(slab @ rho @ slab, (0,))
            p = np.trace(cond).real
            expected += p * von_neumann_entropy(cond / p)
        value = objective(np.array([[[theta, phi]]]), np.zeros(1, dtype=int))[0]
        assert value == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
def test_bipartite_discord_of_werner_states(z):
    # Ollivier and Zurek, PRL 88, 017901 (2001).
    expected = 0.25 * (_xlog2x(1.0 - z) - 2.0 * _xlog2x(1.0 + z) + _xlog2x(1.0 + 3.0 * z))
    assert bipartite_discord(_werner(z)) == pytest.approx(expected, abs=1e-9)


def _bell_diagonal(c) -> np.ndarray:
    """(I + sum_j c_j sigma_j (x) sigma_j) / 4."""
    correlations = sum(cj * np.kron(s, s) for cj, s in zip(c, (PAULI_X, PAULI_Y, PAULI_Z)))
    return (np.eye(4) + correlations) / 4.0


def _luo_discord(c) -> float:
    # Luo, PRA 77, 042303 (2008): D = I - C with I = 2 + sum_k lam_k log2 lam_k over the
    # Bell weights and C = sum_(+-) (1 +- m) / 2 log2(1 +- m), m = max_j |c_j|.
    c1, c2, c3 = c
    weights = (1 - c1 - c2 - c3, 1 - c1 + c2 + c3, 1 + c1 - c2 + c3, 1 + c1 + c2 - c3)
    m = max(abs(cj) for cj in c)
    return 2.0 + sum(_xlog2x(w / 4.0) for w in weights) - 0.5 * (_xlog2x(1 - m) + _xlog2x(1 + m))


def test_bipartite_discord_of_random_bell_diagonal_states():
    rng = np.random.default_rng(11)
    cs = rng.uniform(-1.0, 1.0, size=(200, 3))
    signs = np.array([[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]])
    cs = cs[(1.0 + cs @ signs.T > 0.0).all(axis=1)][:40]  # inside the tetrahedron of states
    assert len(cs) == 40
    worst = max(abs(bipartite_discord(_bell_diagonal(c)) - _luo_discord(c)) for c in cs)
    assert worst < 1e-12


def test_bipartite_discord_of_the_dephasing_family_freezes_then_decays():
    # c = (e^{-2 gamma t}, -0.6 e^{-2 gamma t}, 0.6) changes branch where e^{-2 gamma t} = 0.6.
    change = -math.log(0.6) / 2.0
    family = [(gt, (math.exp(-2.0 * gt), -0.6 * math.exp(-2.0 * gt), 0.6))
              for gt in np.linspace(0.0, 0.5, 21)]
    got = {gt: bipartite_discord(_bell_diagonal(c)) for gt, c in family}
    assert max(abs(got[gt] - _luo_discord(c)) for gt, c in family) < 1e-12
    before = [d for gt, d in got.items() if gt < change]
    after = [d for gt, d in got.items() if gt > change]
    assert max(before) - min(before) < 1e-12  # frozen discord before the sudden change
    assert all(a > b for a, b in zip(after, after[1:])) and after[0] < before[-1] - 1e-2


def test_bipartite_discord_finds_a_minimum_just_below_phi_two_pi():
    # This state's best frame sits near (0.534, 2 pi - 0.157).  The phi scan's minimum is
    # its first point, phi = 0, so a bracket clipped to [0, 2 pi] would miss it and stop
    # at 0.0804.  No frame of a dense grid may beat the search.
    rng = np.random.default_rng(3)
    random_density(2, rng)
    rho = random_density(2, rng)
    objective = discord._ConditionalEntropy(rho)
    grid = np.stack(np.meshgrid(np.linspace(0.0, math.pi, 181), np.linspace(0.0, 2.0 * math.pi, 361),
                                indexing="ij"), axis=-1).reshape(-1, 1, 2)
    mutual = objective.s_a + von_neumann_entropy(partial_trace(rho, (1,))) - von_neumann_entropy(rho)
    dense = mutual + objective(grid, np.zeros(len(grid), dtype=int)).min()
    assert dense - 1e-3 < bipartite_discord(rho) <= dense


def test_bipartite_discord_descends_once_per_distinct_start(monkeypatch):
    calls = []
    lockstep = discord._lockstep

    def recording(objective, starts, values, owners):
        calls.append([tuple(frame.reshape(-1)) for frame in starts])
        return lockstep(objective, starts, values, owners)

    monkeypatch.setattr(discord, "_lockstep", recording)
    bipartite_discord(_werner(0.5))
    (starts,) = calls
    assert len(starts) == len(set(starts)) == 3


def test_bipartite_discord_makes_one_eigensolve(monkeypatch):
    # The validation spectrum gives S(rho); the marginals' entropies come from Bloch radii.
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    value = bipartite_discord(_werner(0.5))
    assert calls == [(1, 4, 4)]
    expected = 0.25 * (_xlog2x(0.5) - 2.0 * _xlog2x(1.5) + _xlog2x(2.5))
    assert value == pytest.approx(expected, abs=1e-9)
