import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import bell_state, random_density, random_product_state, random_pure, random_unitary
from ghzdyn.channels import Channel, closed_form_state, ghz_state
from ghzdyn.linalg import (
    MAX_QUBITS,
    _density_spectra,
    _entropies,
    assert_density_matrix,
    num_qubits,
    partial_trace,
    partial_transpose,
    permute_qubits,
    shannon_entropies,
    shannon_entropy,
    trace_distance,
    von_neumann_entropy,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_num_qubits():
    assert num_qubits(np.eye(16)) == 4
    assert num_qubits(np.eye(2)) == 1
    with pytest.raises(ValueError):
        num_qubits(np.eye(3))
    with pytest.raises(ValueError):
        num_qubits(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        num_qubits(np.eye(1))
    with pytest.raises(ValueError):
        num_qubits(np.eye(2 ** (MAX_QUBITS + 1)))


def test_assert_density_matrix_accepts_ghz():
    assert assert_density_matrix(ghz_state(4)) == 4


def test_assert_density_matrix_rejects_bad_states():
    bad = ghz_state(2).copy()
    bad[0, 1] = 0.3
    with pytest.raises(ValueError, match="hermitian"):
        assert_density_matrix(bad)
    with pytest.raises(ValueError, match="trace"):
        assert_density_matrix(1.5 * ghz_state(2))
    indefinite = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        assert_density_matrix(indefinite)


@given(seeds)
def test_partial_trace_splits_product_states(seed):
    rng = np.random.default_rng(seed)
    rho_a = random_density(2, rng)
    rho_b = random_density(1, rng)
    joint = np.kron(rho_a, rho_b)
    assert np.allclose(partial_trace(joint, (0, 1)), rho_a, atol=1e-12)
    assert np.allclose(partial_trace(joint, (2,)), rho_b, atol=1e-12)


def test_partial_trace_respects_keep_order(rng):
    rho = random_density(3, rng)
    forward = partial_trace(rho, (0, 1))
    swapped = partial_trace(rho, (1, 0))
    assert np.allclose(swapped, permute_qubits(forward, (1, 0)), atol=1e-12)


def _einsum_marginal(rho: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """The marginal on ``keep``, in its order, by one explicit einsum over rho's qubit axes."""
    n = num_qubits(rho)
    rows = [chr(ord("a") + q) for q in range(n)]
    cols = [chr(ord("A") + q) if q in keep else rows[q] for q in range(n)]
    out = "".join(rows[q] for q in keep) + "".join(cols[q] for q in keep)
    marginal = np.einsum("".join(rows + cols) + "->" + out, rho.reshape((2,) * (2 * n)))
    return marginal.reshape(2 ** len(keep), 2 ** len(keep))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_partial_trace_of_entangled_states_matches_einsum(n):
    # Every ordered keep tuple, e.g. (2, 0) of 4, on seeded full-rank states.
    rng = np.random.default_rng(60 + n)
    for rho in (random_density(n, rng) for _ in range(2)):
        for k in range(1, n + 1):
            for keep in itertools.permutations(range(n), k):
                got = partial_trace(rho, keep)
                assert got.shape == (2**k, 2**k)
                assert np.abs(got - _einsum_marginal(rho, keep)).max() <= 1e-15, keep


def test_partial_trace_validation():
    rho = ghz_state(3)
    with pytest.raises(ValueError, match="at least one"):
        partial_trace(rho, ())
    with pytest.raises(ValueError, match="duplicate"):
        partial_trace(rho, (0, 0))
    with pytest.raises(ValueError, match="out of range"):
        partial_trace(rho, (3,))


def test_permute_qubits_moves_basis_states():
    ket = np.zeros(4, dtype=complex)
    ket[1] = 1.0  # |01>
    rho = np.outer(ket, ket)
    moved = permute_qubits(rho, (1, 0))
    expected = np.zeros((4, 4), dtype=complex)
    expected[2, 2] = 1.0  # |10>
    assert np.allclose(moved, expected, atol=1e-15)


@given(seeds)
def test_permute_qubits_composition_and_spectrum(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(3, rng)
    p = list(rng.permutation(3))
    q = list(rng.permutation(3))
    once = permute_qubits(permute_qubits(rho, p), q)
    composed = permute_qubits(rho, [p[q[j]] for j in range(3)])
    assert np.allclose(once, composed, atol=1e-12)
    assert np.allclose(
        np.linalg.eigvalsh(rho), np.linalg.eigvalsh(permute_qubits(rho, p)), atol=1e-10
    )


def test_permute_qubits_validation():
    with pytest.raises(ValueError, match="not a permutation"):
        permute_qubits(ghz_state(3), (0, 1, 1))


@given(seeds)
def test_partial_transpose_involution(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(3, rng)
    pt = partial_transpose(rho, (1,))
    assert np.allclose(partial_transpose(pt, (1,)), rho, atol=1e-14)
    assert abs(np.trace(pt) - 1.0) < 1e-12
    assert np.abs(pt - pt.conj().T).max() < 1e-12


def test_partial_transpose_complement_has_same_spectrum(rng):
    rho = random_density(4, rng)
    one = np.linalg.eigvalsh(partial_transpose(rho, (0,)))
    rest = np.linalg.eigvalsh(partial_transpose(rho, (1, 2, 3)))
    assert np.allclose(one, rest, atol=1e-10)


def test_partial_transpose_rejects_a_qubit_out_of_range():
    for subset in ((2,), (-1,), (0, 3)):
        with pytest.raises(ValueError, match="out of range for 2 qubits"):
            partial_transpose(bell_state(), subset)


def test_bell_partial_transpose_floor():
    lam = np.linalg.eigvalsh(partial_transpose(bell_state(), (0,)))
    assert abs(lam.min() + 0.5) < 1e-12


@given(seeds)
def test_separable_states_stay_positive_under_partial_transpose(seed):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(3))
    rho = np.zeros((4, 4), dtype=complex)
    for w in weights:
        psi = random_product_state(2, rng)
        rho += w * np.outer(psi, psi.conj())
    assert np.linalg.eigvalsh(partial_transpose(rho, (0,))).min() > -1e-10


def test_von_neumann_entropy_validates_its_input():
    with pytest.raises(ValueError, match="not hermitian"):
        von_neumann_entropy(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def test_shannon_entropy_reference_points():
    assert abs(shannon_entropy(np.full(16, 1 / 16)) - 4.0) < 1e-12
    assert shannon_entropy([1.0, 0.0]) == 0.0
    with pytest.raises(ValueError, match="negative"):
        shannon_entropy([1.2, -0.2])
    with pytest.raises(ValueError, match="sum"):
        shannon_entropy([0.7, 0.7])


def test_nan_probabilities_raise():
    with pytest.raises(ValueError, match="not a number"):
        shannon_entropy([math.nan, 1.0])
    with pytest.raises(ValueError, match="not a number"):
        shannon_entropies(np.array([[0.5, 0.5], [math.nan, 1.0]]))


def test_von_neumann_entropy_reference_points():
    assert abs(von_neumann_entropy(ghz_state(4))) < 1e-12
    assert abs(von_neumann_entropy(np.eye(16) / 16) - 4.0) < 1e-12
    for kt in (0.05, 0.1, 0.3):
        x = math.exp(-8.0 * kt)
        p = (1.0 + x) / 2.0
        expected = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        got = von_neumann_entropy(closed_form_state(Channel.Z, kt))
        assert abs(got - expected) < 1e-12


@given(seeds)
def test_entropy_is_unitarily_invariant(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(2, rng)
    u = random_unitary(4, rng)
    assert abs(
        von_neumann_entropy(rho) - von_neumann_entropy(u @ rho @ u.conj().T)
    ) < 1e-10


def test_pinching_the_x_channel_state_costs_one_bit():
    # Wiping the coherences of the X-channel state raises its entropy by exactly one bit.
    for kt in (0.02, 0.08, 0.3):
        rho = closed_form_state(Channel.X, kt)
        pinched = np.diag(np.diag(rho))
        assert abs(von_neumann_entropy(pinched) - von_neumann_entropy(rho) - 1.0) < 1e-9


def test_trace_distance_properties(rng):
    a = random_density(2, rng)
    b = random_density(2, rng)
    c = random_density(2, rng)
    assert trace_distance(a, a) < 1e-14
    assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-12
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    assert abs(trace_distance(e0, e1) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="shape"):
        trace_distance(np.eye(2), np.eye(4))


def _ascending_entropy(lam: np.ndarray) -> float:
    """Entropy of an ascending spectrum: one sum over the full row, entries at or below 1e-12 adding 0."""
    kept = lam > 1e-12
    terms = np.zeros_like(lam)
    terms[kept] = lam[kept] * np.log2(lam[kept])
    return -terms.sum()


def _reference_entropy(rho: np.ndarray) -> float:
    """Per-state entropy: the ascending spectrum, summed as :func:`_ascending_entropy`."""
    return float(_ascending_entropy(np.linalg.eigvalsh(rho)))


def test_stacked_spectra_and_entropies_match_the_per_state_reference():
    # Random ranks below 8 make each row's summation order matter.
    rng = np.random.default_rng(52)
    states = [closed_form_state(c, kt) for c in Channel for kt in np.linspace(0.0, 0.6, 13)]
    states += [random_density(4, rng, rank=r) for r in (3, 5, 7, 16) for _ in range(3)]
    states = np.stack(states)
    spectra = _density_spectra(states)
    assert np.array_equal(spectra, np.stack([np.linalg.eigvalsh(rho) for rho in states]))
    entropies = np.array([_reference_entropy(rho) for rho in states])
    assert np.array_equal(_entropies(spectra), entropies)
    assert [von_neumann_entropy(rho) for rho in states] == entropies.tolist()


def _per_row_entropies(spectra: np.ndarray) -> np.ndarray:
    """A per-row loop over ascending spectra, each row summed as :func:`_ascending_entropy`."""
    return np.array([_ascending_entropy(row) for row in spectra])


def test_stacked_entropies_equal_the_per_row_loop(monkeypatch):
    # Every stack the default sweep hands to _entropies: its 484 cells in chunks, then the
    # discord search's 484 states and their 4 x 484 one-qubit marginals.
    import ghzdyn.discord as discord
    import ghzdyn.sweep as sweep

    seen = []

    def recording(spectra):
        seen.append(spectra.copy())
        return _entropies(spectra)

    monkeypatch.setattr(sweep, "_entropies", recording)
    monkeypatch.setattr(discord, "_entropies", recording)
    sweep.run_sweep(sweep.SweepConfig())
    assert sum(len(spectra) for spectra in seen) == 484 + 484 + 4 * 484
    for spectra in seen:
        assert np.array_equal(_entropies(spectra), _per_row_entropies(spectra))
    # Random spectra of every rank, with zeros and small negatives below the floor.
    rng = np.random.default_rng(53)
    for d in range(2, 33):
        for rank in range(1, d + 1):
            spectra = np.zeros((4, d))
            spectra[:, :d - rank] = rng.uniform(-1e-11, 1e-12, size=(4, d - rank))
            spectra[:, d - rank:] = rng.dirichlet(np.ones(rank), size=4)
            spectra.sort(axis=1)
            assert np.array_equal(_entropies(spectra), _per_row_entropies(spectra))


@pytest.mark.parametrize("kind", ["hermitian", "trace", "negative eigenvalue"])
def test_a_bad_state_inside_a_stack_raises_its_own_error(kind):
    bad = ghz_state(4)
    if kind == "hermitian":
        bad[0, 1] = 0.3
    elif kind == "trace":
        bad = 1.5 * bad
    else:
        bad = np.diag(np.r_[1.5, -0.5, np.zeros(14)]).astype(complex)
    with pytest.raises(ValueError, match=kind) as alone:
        assert_density_matrix(bad)
    good = [closed_form_state(Channel.X, kt) for kt in (0.1, 0.2, 0.3)]
    with pytest.raises(ValueError) as stacked:
        _density_spectra(np.stack(good[:2] + [bad] + good[2:]))
    assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("entry, value", [
    ((0, 0), math.nan), ((0, 15), math.nan), ((15, 0), math.inf),
], ids=["nan-diagonal", "nan-corner", "inf-corner"])
def test_a_non_finite_state_raises_before_the_eigensolve(entry, value):
    bad = ghz_state(4)
    bad[entry] = value
    with pytest.raises(ValueError, match="state is not finite"):
        assert_density_matrix(bad)
    good = closed_form_state(Channel.Z, 0.1)
    with pytest.raises(ValueError, match="state is not finite"):
        _density_spectra(np.stack([good, bad]))
    with pytest.raises(ValueError, match="not hermitian"):
        von_neumann_entropy(bad)
    with pytest.raises(ValueError, match="not hermitian"):
        trace_distance(bad, good)
