import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (bell_state, random_density, random_local_unitary, random_product_state,
                      random_pure)
from ghzdyn.channels import Channel, closed_form_state, ghz_ket, ghz_state
from ghzdyn.entanglement import (
    L0,
    TAU_SCALE,
    _bisect_root,
    _cut_arrays,
    _flip_signs,
    _flip_values,
    _ppt_min_eigenvalues,
    _tau_lower_bounds,
    _wootters_roots,
    analytic_tau,
    cut_terms,
    ppt_min_eigenvalue,
    pure_concurrence,
    tau_generator_bound,
    tau_lower_bound,
    tau_vanishing_time,
)
from ghzdyn.linalg import num_qubits, partial_transpose, permute_qubits, von_neumann_entropy

seeds = st.integers(min_value=0, max_value=2**32 - 1)

ROOT_XY = -math.log(math.sqrt(12.0) - 3.0) / 4.0
ROOT_ISO = -math.log((2.0 * math.sqrt(2.0) - 1.0) / 3.0) / 8.0


def _dense_cut_terms(rho: np.ndarray, cut: int) -> list[tuple[tuple[int, int], np.ndarray, float]]:
    """Reference: one full 2**N x 2**N product per generator, s = kron(G, L0)."""
    n = num_qubits(rho)
    moved = permute_qubits(rho, [q for q in range(n) if q != cut] + [cut])
    dim = 2 ** (n - 1)
    terms = []
    for p in range(dim):
        for q in range(p + 1, dim):
            g = np.zeros((dim, dim))
            g[p, q] = 1.0
            g[q, p] = -1.0
            s = np.kron(g, L0)
            ev = np.linalg.eigvals(moved @ s @ moved.conj() @ s).real
            ev = np.clip(ev, 0.0, None)
            ev[ev < 1e-15] = 0.0
            top = np.sort(np.sqrt(ev))[::-1][:4]
            terms.append(((p, q), top, max(0.0, top[0] - top[1] - top[2] - top[3])))
    return terms


def test_cut_terms_counts_and_pair_order():
    for n in (3, 4, 5):
        dim = 2 ** (n - 1)
        for cut in (0, n - 1):
            pairs = [t.pair for t in cut_terms(ghz_state(n), cut).terms]
            assert len(pairs) == dim * (dim - 1) // 2
            assert pairs == sorted(pairs)
            assert all(0 <= p < q < dim for p, q in pairs)
            assert all(type(p) is int and type(q) is int for p, q in pairs)


def _reference_states():
    yield "ghz", ghz_state(4)
    w = np.zeros(16, dtype=complex)
    w[[1, 2, 4, 8]] = 0.5
    yield "w", np.outer(w, w.conj())
    for channel in Channel:
        for kt in (0.02, 0.15, 0.4):
            yield f"{channel.value}-{kt}", closed_form_state(channel, kt)
    rng = np.random.default_rng(7)
    for n in (3, 4, 5, 6):
        yield f"mixed-{n}", random_density(n, rng)
        psi = random_pure(n, rng)
        yield f"pure-{n}", np.outer(psi, psi.conj())


REFERENCE_STATES = dict(_reference_states())


@pytest.mark.parametrize("name", REFERENCE_STATES)
def test_cut_terms_match_dense_reference(name):
    rho = REFERENCE_STATES[name]
    n = num_qubits(rho)
    assert tau_generator_bound(rho).per_cut == tuple(cut_terms(rho, c).aggregate for c in range(n))
    for cut in range(n):
        got = cut_terms(rho, cut).terms
        want = _dense_cut_terms(rho, cut)
        assert [t.pair for t in got] == [pair for pair, _, _ in want]
        lam = np.array([t.lambdas for t in got])
        assert np.abs(lam - np.array([top for _, top, _ in want])).max() <= 1e-12
        values = np.array([t.value for t in got])
        assert np.abs(values - np.array([v for _, _, v in want])).max() <= 1e-12


def test_pure_concurrence_reference_states():
    assert pure_concurrence(ghz_ket(4)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert pure_concurrence(ghz_ket(3)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    zero = np.zeros(16, dtype=complex)
    zero[0] = 1.0
    assert pure_concurrence(zero) == pytest.approx(0.0, abs=1e-12)
    w = np.zeros(16, dtype=complex)
    w[[1, 2, 4, 8]] = 0.5
    assert pure_concurrence(w) == pytest.approx(math.sqrt(3.0 / 8.0), abs=1e-12)
    with pytest.raises(ValueError, match="norm"):
        pure_concurrence(2.0 * zero)


def test_pure_concurrence_rejects_a_non_vector():
    with pytest.raises(ValueError, match="expected a state vector"):
        pure_concurrence(ghz_state(2))


@given(seeds)
def test_pure_concurrence_vanishes_on_product_states(seed):
    rng = np.random.default_rng(seed)
    psi = random_product_state(4, rng)
    assert pure_concurrence(psi) < 1e-6


def test_cut_terms_ghz_is_rank_one():
    for cut in range(4):
        terms = cut_terms(ghz_state(4), cut)
        assert terms.cut == cut
        assert len(terms.terms) == 28
        positive = [t for t in terms.terms if t.value > 1e-10]
        assert len(positive) == 1
        assert positive[0].pair == (0, 7)
        assert positive[0].lambdas[0] == pytest.approx(1.0, abs=1e-10)
        assert terms.aggregate == pytest.approx(1.0, abs=1e-10)
        for term in terms.terms:
            lam = term.lambdas
            assert lam[0] >= lam[1] >= lam[2] >= lam[3] >= 0.0


def test_cut_terms_vanish_on_product_state():
    zero = np.zeros((16, 16), dtype=complex)
    zero[0, 0] = 1.0
    for cut in range(4):
        assert cut_terms(zero, cut).aggregate < 1e-10


def test_cut_terms_validation():
    with pytest.raises(ValueError, match="at least 3"):
        cut_terms(bell_state(), 0)
    with pytest.raises(ValueError, match="at least 3"):
        tau_generator_bound(bell_state())
    with pytest.raises(ValueError, match="out of range"):
        cut_terms(ghz_state(3), 3)


def test_tau_lower_bound_ghz_calibration():
    result = tau_lower_bound(ghz_state(4))
    assert result.value == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert result.convention_scale == TAU_SCALE
    assert len(result.per_cut) == 4
    assert len(set(result.per_cut)) == 1
    rms = math.sqrt(sum(c**2 for c in result.per_cut) / 4)
    assert result.value == pytest.approx(TAU_SCALE * rms, abs=1e-12)


def test_tau_lower_bound_matches_closed_forms():
    for channel in Channel:
        for kt in np.linspace(0.0, 0.5, 20):
            bound = tau_lower_bound(closed_form_state(channel, kt)).value
            assert abs(bound - analytic_tau(channel, kt)) < 1e-14


def test_spin_flip_tau_matches_the_closed_form_on_a_near_pure_state():
    bound = tau_lower_bound(closed_form_state(Channel.Y, 1e-4)).value
    assert abs(bound - analytic_tau(Channel.Y, 1e-4)) <= 1e-14


def test_tau_x_equals_tau_y():
    for kt in np.linspace(0.0, 0.5, 20):
        bx = tau_lower_bound(closed_form_state(Channel.X, kt)).value
        by = tau_lower_bound(closed_form_state(Channel.Y, kt)).value
        assert abs(bx - by) <= 1e-14


def test_tau_is_permutation_invariant(rng):
    rho = closed_form_state(Channel.X, 0.07)
    perm = list(rng.permutation(4))
    assert tau_lower_bound(permute_qubits(rho, perm)).value == pytest.approx(
        tau_lower_bound(rho).value, abs=1e-10
    )


@pytest.mark.parametrize("rank", [2, 4, 16])
def test_state_measures_are_invariant_under_local_unitaries_and_qubit_order(rank):
    rng = np.random.default_rng(40 + rank)
    for _ in range(3):
        rho = random_density(4, rng, rank)
        u, perm = random_local_unitary(4, rng), list(rng.permutation(4))
        moved = permute_qubits(u @ rho @ u.conj().T, perm)
        moved = (moved + moved.conj().T) / 2.0
        assert abs(tau_lower_bound(moved).value - tau_lower_bound(rho).value) < 1e-14
        assert abs(von_neumann_entropy(moved) - von_neumann_entropy(rho)) < 1e-14
        # Output qubit j of the permutation is input qubit perm[j].
        for subset in ((0,), (1, 2), (0, 3)):
            mapped = [j for j in range(4) if perm[j] in subset]
            assert abs(ppt_min_eigenvalue(moved, mapped) - ppt_min_eigenvalue(rho, subset)) < 1e-14


@pytest.mark.parametrize("n", [3, 5])
def test_tau_lower_bound_rejects_odd_registers(n):
    # For odd N the flip form is antisymmetric and F rho* F is negative semidefinite.
    rho = random_density(n, np.random.default_rng(3))
    with pytest.raises(ValueError, match="even number of qubits, got " + str(n)):
        tau_lower_bound(rho)


def test_tau_vanishes_on_unentangled_states():
    assert tau_lower_bound(np.eye(16, dtype=complex) / 16).value == 0.0
    zero = np.zeros((16, 16), dtype=complex)
    zero[0, 0] = 1.0
    assert tau_lower_bound(zero).value == 0.0


def test_analytic_tau_never_increases():
    grid = np.linspace(0.0, 1.0, 41)
    for channel in Channel:
        values = [analytic_tau(channel, kt) for kt in grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_generator_bound_reference_values():
    assert tau_generator_bound(ghz_state(4)).value == pytest.approx(math.sqrt(2.0), abs=1e-9)
    # On GHZ-coherence states the generator route collapses to the flip value.
    for kt in (0.05, 0.2, 0.6):
        rho = closed_form_state(Channel.Z, kt)
        assert tau_generator_bound(rho).value == pytest.approx(
            tau_lower_bound(rho).value, abs=1e-10
        )
    # On the X channel it is strictly tighter.
    rho = closed_form_state(Channel.X, 0.02)
    assert tau_generator_bound(rho).value - tau_lower_bound(rho).value > 0.08


def test_generator_bound_sees_w_state_where_flip_does_not():
    w = np.zeros(16, dtype=complex)
    w[[1, 2, 4, 8]] = 0.5
    rho = np.outer(w, w.conj())
    assert tau_lower_bound(rho).value == pytest.approx(0.0, abs=1e-10)
    assert tau_generator_bound(rho).value == pytest.approx(
        2.0 * math.sqrt(3.0 / 8.0), abs=1e-6
    )


def test_generator_bound_saturates_pure_cap_on_eight_qubits():
    psi = random_pure(8, np.random.default_rng(8))
    rho = np.outer(psi, psi.conj())
    assert tau_generator_bound(rho).value == pytest.approx(2.0 * pure_concurrence(psi), abs=1e-6)


@given(seeds)
def test_bounds_respect_pure_state_cap(seed):
    rng = np.random.default_rng(seed)
    psi = random_pure(4, rng)
    rho = np.outer(psi, psi.conj())
    cap = 2.0 * pure_concurrence(psi)
    assert tau_lower_bound(rho).value <= cap + 1e-9
    # The generator route saturates the cap on pure states.
    assert tau_generator_bound(rho).value == pytest.approx(cap, abs=1e-6)


def test_analytic_tau_reference_values():
    assert analytic_tau(Channel.X, 0.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert analytic_tau(Channel.Z, 0.25) == pytest.approx(
        math.sqrt(2.0) * math.exp(-2.0), abs=1e-15
    )
    assert analytic_tau(Channel.ISO, 0.03) == pytest.approx(0.581386323141, abs=1e-11)
    assert analytic_tau(Channel.X, ROOT_XY + 0.01) == 0.0
    assert analytic_tau(Channel.ISO, ROOT_ISO + 0.01) == 0.0


def test_tau_vanishing_times():
    assert tau_vanishing_time(Channel.X) == pytest.approx(ROOT_XY, abs=1e-9)
    assert tau_vanishing_time(Channel.Y) == pytest.approx(ROOT_XY, abs=1e-9)
    assert tau_vanishing_time(Channel.ISO) == pytest.approx(ROOT_ISO, abs=1e-9)
    assert abs(tau_vanishing_time(Channel.ISO) - 0.0619) < 1e-4
    assert tau_vanishing_time(Channel.Z) is None


def test_bisect_root_needs_a_sign_change():
    with pytest.raises(ValueError, match=r"no sign change on \[0.0, 2.0\]"):
        _bisect_root(lambda x: x * x + 1.0, 0.0, 2.0)


def test_ppt_reference_values():
    assert ppt_min_eigenvalue(bell_state(), (0,)) == pytest.approx(-0.5, abs=1e-12)
    frozen = {0.25: -0.15487170, 0.5: -0.05304019, 1.0: -0.00691030}
    for kt, expected in frozen.items():
        got = ppt_min_eigenvalue(closed_form_state(Channel.X, kt), (0,))
        assert got == pytest.approx(expected, abs=1e-7)
        assert got < -1e-6
    for kt in (0.05, 0.2, 0.4):
        got = ppt_min_eigenvalue(closed_form_state(Channel.Z, kt), (0,))
        assert got == pytest.approx(-0.5 * math.exp(-8.0 * kt), abs=1e-12)


def test_ppt_subset_and_complement_agree():
    rho = closed_form_state(Channel.X, 0.3)
    assert ppt_min_eigenvalue(rho, (0,)) == pytest.approx(
        ppt_min_eigenvalue(rho, (1, 2, 3)), abs=1e-12
    )


@given(seeds)
def test_ppt_nonnegative_on_product_mixtures(seed):
    rng = np.random.default_rng(seed)
    rho = np.zeros((16, 16), dtype=complex)
    weights = rng.dirichlet(np.ones(3))
    for w in weights:
        psi = random_product_state(4, rng)
        rho += w * np.outer(psi, psi.conj())
    assert ppt_min_eigenvalue(rho, (0,)) > -1e-10
    assert tau_lower_bound(rho).value < 1e-6


def _kron_flip(n: int) -> np.ndarray:
    flip = np.array([[1.0]])
    for _ in range(n):
        flip = np.kron(flip, L0)
    return flip


def _reference_flip_value(rho: np.ndarray) -> float:
    """Per-state spin-flip Wootters value, with F built from Kronecker products.

    The textbook recipe: square roots of the eigenvalues of ``rho F rho* F``, with
    rounding below zero clipped and residue under 1e-15 zeroed before the root.
    """
    flip = _kron_flip(num_qubits(rho))
    ev = np.clip(np.linalg.eigvals(rho @ flip @ rho.conj() @ flip).real, 0.0, None)
    ev[ev < 1e-15] = 0.0
    lam = np.sqrt(ev)
    return max(0.0, 2.0 * lam.max() - lam.sum())


def _uhlmann_roots(rho: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """Descending Wootters roots of a state or stack: singular values of ``W^T F W``, ``rho = W W^H``."""
    w, v = np.linalg.eigh(rho)
    root = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    return np.linalg.svd(root.swapaxes(-1, -2) @ flip @ root, compute_uv=False)


def _real_density(n: int, rng: np.random.Generator, rank: int) -> np.ndarray:
    a = rng.normal(size=(2**n, rank))
    rho = a @ a.T
    return rho / np.trace(rho)


def _reference_ppt(rho: np.ndarray) -> float:
    """Per-state PPT witness: descending spectrum of one partial transpose."""
    return float(np.linalg.eigvalsh(partial_transpose(rho, (0,)))[::-1].min())


@pytest.mark.parametrize("n", [2, 4, 6])
def test_signed_index_reversal_is_the_kronecker_flip(n, rng):
    d = 2**n
    flip = _kron_flip(n)
    signs = _flip_signs(n)
    signed = np.zeros((d, d))
    signed[np.arange(d), d - 1 - np.arange(d)] = signs
    assert np.array_equal(signed, flip)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    assert np.array_equal(np.outer(signs, signs) * x.conj()[::-1, ::-1], flip @ x.conj() @ flip)


def _stack_test_states() -> np.ndarray:
    """The 52 channel states on kappa*t = 0, 0.05, ..., 0.6 and 12 seeded full-rank states."""
    rng = np.random.default_rng(52)
    states = [closed_form_state(c, kt) for c in Channel for kt in np.linspace(0.0, 0.6, 13)]
    return np.stack(states + [random_density(4, rng) for _ in range(12)])


def test_stack_cores_match_the_per_state_reference():
    states = _stack_test_states()
    flip = np.array([_reference_flip_value(rho) for rho in states])
    ppt = np.array([_reference_ppt(rho) for rho in states])
    # The stack is complex, so its roots come from Uhlmann's form, not the reference's product.
    assert np.abs(_flip_values(states) - flip).max() <= 1e-12
    assert np.array_equal(_ppt_min_eigenvalues(states, (0,)), ppt)
    for rho, value, witness, bound in zip(states, flip, ppt, _tau_lower_bounds(states)):
        assert tau_lower_bound(rho).value == bound
        assert np.abs(np.array(tau_lower_bound(rho).per_cut) - value).max() <= 1e-12
        assert ppt_min_eigenvalue(rho, (0,)) == witness


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_wootters_roots_match_the_uhlmann_reference(n, dtype):
    # Real stacks take |eigvals(rho F)|, complex ones the svd route; both must give Uhlmann's roots.
    rng = np.random.default_rng(5)
    make = _real_density if dtype is float else random_density
    stack = np.stack([make(n, rng, rank) for rank in (1, 2, 2**n) for _ in range(3)])
    assert stack.dtype == dtype
    want = _uhlmann_roots(stack, _kron_flip(n))
    assert np.abs(_wootters_roots(stack) - want).max() <= 1e-13
    assert np.abs(_flip_values(stack) - np.maximum(0.0, 2.0 * want[:, 0] - want.sum(axis=1))).max() <= 1e-13
    if n < 4:
        return
    pair_flip = np.kron(L0, L0)
    for rho in stack:
        for cut in range(n):
            moved = permute_qubits(rho, [q for q in range(n) if q != cut] + [cut])
            pairs, lam, _ = _cut_arrays(rho, n, cut)
            index = [[2 * p, 2 * p + 1, 2 * q, 2 * q + 1] for p, q in pairs]
            blocks = np.stack([moved[np.ix_(i, i)] for i in index])
            assert np.abs(lam - _uhlmann_roots(blocks, pair_flip)).max() <= 1e-13


@pytest.mark.parametrize("n", [2, 4, 6])
def test_tau_is_the_scaled_flip_value_of_the_stack(n):
    # The stack defines tau: a scalar call is a stack of one, and each cut holds the flip value.
    rng = np.random.default_rng(n)
    stack = np.stack([random_density(n, rng, rank=r) for r in (1, 2, 2**n) for _ in range(3)])
    values, bounds = _flip_values(stack), _tau_lower_bounds(stack)
    assert (values > 0).any()
    for k, rho in enumerate(stack):
        result = tau_lower_bound(rho)
        bits = np.array([result.value, bounds[k], TAU_SCALE * values[k]]).view(np.uint64)
        assert bits[0] == bits[1] == bits[2]
        assert result.per_cut == (values[k],) * n


@pytest.mark.parametrize("n", [2, 4])
def test_tau_lower_bound_leaves_real_states_alone(n, rng):
    # The flip conjugates a reversed view; on a real state it must still copy
    # before signing, or it writes S rho S into the caller's array.
    plus = np.full(2**n, 2 ** (-n / 2))
    a = rng.normal(size=(2**n, 2**n))
    for rho in (np.outer(plus, plus), a @ a.T / np.trace(a @ a.T)):
        kept = rho.copy()
        assert rho.dtype == float
        # Real and complex eigensolvers agree to rounding, not bit for bit.
        got, want = tau_lower_bound(rho), tau_lower_bound(rho.astype(complex))
        assert np.allclose(got.per_cut, want.per_cut, rtol=0.0, atol=1e-12)
        assert np.array_equal(rho, kept)
    assert tau_lower_bound(np.outer(plus, plus)).value == 0.0
