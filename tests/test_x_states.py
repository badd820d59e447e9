"""The closed-form 2 x 2 pair route for X-shaped real matrices against dense LAPACK.

An X-shaped matrix is nonzero only on its diagonal and anti-diagonal; every state of the
paper is one.  Its spectra, partial-transpose minima and Wootters roots come from the pairs
(i, d-1-i) in closed form; these tests hold that route to ``eigvalsh`` / ``eigvals`` on the
same matrices, and hold the per-matrix route choice to bit-for-bit stack independence.
"""

import numpy as np
import pytest

from conftest import random_density
from ghzdyn.channels import Channel, _closed_form_states, _coefficient_columns
from ghzdyn.entanglement import (
    _cut_arrays,
    _flip_signs,
    _ppt_min_eigenvalues,
    _tau_lower_bounds,
    _wootters_roots,
    ppt_min_eigenvalue,
    tau_lower_bound,
)
from ghzdyn.linalg import (
    _density_spectra,
    _hermitian_spectra,
    _partial_transposes,
    assert_density_matrix,
    permute_qubits,
    trace_distance,
)

# Every kappa*t the verify checks use, kt = 0 (the GHZ state) and the near-pure times.
VERIFY_TIMES = np.unique(np.r_[0.0, np.linspace(0.0, 0.3, 20), np.linspace(0.0, 0.5, 10),
                               0.02, 0.05, 0.08, 0.1, 0.13, 0.137, 0.2, 0.25, 0.3, 0.4, 0.5, 1.0,
                               1e-6, 1e-5, 1e-4])
SUBSETS = [(0,), (0, 1), (1, 2, 3)]
TOL = 1e-15


def _dense_roots(rhos: np.ndarray) -> np.ndarray:
    """Descending ``|eigvals(rho F)|`` by LAPACK, the spin flip F as a signed index reversal."""
    signs = _flip_signs(rhos.shape[-1].bit_length() - 1)[::-1]
    return np.sort(np.abs(np.linalg.eigvals(rhos[..., ::-1] * signs)), axis=-1)[..., ::-1]


def _assert_routes_agree(states: np.ndarray) -> None:
    n = states.shape[-1].bit_length() - 1
    assert np.abs(_density_spectra(states) - np.linalg.eigvalsh(states)).max() <= TOL
    for subset in SUBSETS[:n - 1]:
        dense = np.linalg.eigvalsh(_partial_transposes(states, subset)).min(axis=-1)
        assert np.abs(_ppt_min_eigenvalues(states, subset) - dense).max() <= TOL
    assert np.abs(_wootters_roots(states) - _dense_roots(states)).max() <= TOL


def _channel_states(channel: Channel, times=VERIFY_TIMES) -> np.ndarray:
    return _closed_form_states(channel, _coefficient_columns(channel, times))


@pytest.mark.parametrize("channel", list(Channel))
def test_channel_states_match_the_dense_route(channel):
    states = _channel_states(channel)
    _assert_routes_agree(states)
    # The cut blocks of tau_generator_bound are X-shaped too.
    for rho in states[::5]:
        for cut in range(4):
            pairs, lam, _ = _cut_arrays(rho, 4, cut)
            moved = permute_qubits(rho, [q for q in range(4) if q != cut] + [cut])
            index = np.array([[2 * p, 2 * p + 1, 2 * q, 2 * q + 1] for p, q in pairs])
            assert np.abs(lam - _dense_roots(moved[index[:, :, None], index[:, None, :]])).max() <= TOL


def _random_x_state(n: int, rng: np.random.Generator, kind: str) -> np.ndarray:
    """A real X state: a seeded PSD 2 x 2 block on each pair (i, d-1-i), blocks weighted by ``kind``.

    "full": every block of rank 2; "deficient": half the blocks 0, the rest of rank 1;
    "near-pure": one rank-1 block of weight 1 - 1e-9; "pure": one rank-1 block of weight 1.
    """
    d = 2**n
    half = d // 2
    ranks = np.full(half, 1 if kind in ("deficient", "pure") else 2)
    weights = np.zeros(half)
    if kind == "full":
        weights = rng.dirichlet(np.ones(half))
    elif kind == "deficient":
        live = rng.choice(half, half // 2, replace=False)
        weights[live] = rng.dirichlet(np.ones(len(live)))
    else:
        k = rng.integers(half)
        weights[:] = 0.0 if kind == "pure" else 1e-9 / (half - 1)
        weights[k], ranks[k] = (1.0 if kind == "pure" else 1.0 - 1e-9), 1
    rho = np.zeros((d, d))
    for i in range(half):
        v = rng.normal(size=(2, ranks[i]))
        block = v @ v.T
        rho[np.ix_([i, d - 1 - i], [i, d - 1 - i])] = block * (weights[i] / np.trace(block))
    return rho


@pytest.mark.parametrize("kind", ["full", "deficient", "near-pure", "pure"])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_random_x_states_match_the_dense_route(n, kind):
    rng = np.random.default_rng([n, len(kind)])
    states = np.stack([_random_x_state(n, rng, kind) for _ in range(6)])
    _assert_routes_agree(states)
    for a, b in zip(states, states[1:]):
        assert abs(trace_distance(a, b) - 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()) <= TOL


def test_the_pair_route_reads_the_lower_triangle():
    # As eigvalsh does: an X-shaped matrix whose upper anti-diagonal disagrees with its lower one.
    rng = np.random.default_rng(3)
    mats = np.stack([_random_x_state(4, rng, "full") for _ in range(4)])
    upper = np.triu(np.ones((16, 16), dtype=bool), k=1)
    mats[:, upper] += rng.normal(size=(4, upper.sum())) * (mats[:, upper] != 0.0)
    assert (mats != mats.swapaxes(1, 2)).any()
    assert np.abs(_hermitian_spectra(mats) - np.linalg.eigvalsh(mats)).max() <= TOL


def _counting_eigvalsh(monkeypatch) -> list:
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def test_only_finite_real_x_shaped_matrices_take_the_pair_route(monkeypatch):
    x = _channel_states(Channel.ISO, [0.1])[0]
    off = x.copy()
    off[0, 1] = off[1, 0] = 1e-300  # one tiny entry off the X
    nan = x.copy()
    nan[0, 15] = np.nan  # in the upper triangle, which neither route reads
    calls = _counting_eigvalsh(monkeypatch)
    _hermitian_spectra(x[None])
    assert calls == []
    for dense in (x.astype(complex), off, nan, x[:15, :15] / np.trace(x[:15, :15]), x.astype(np.float32)):
        _hermitian_spectra(dense[None])
    assert calls == [1] * 5


def test_a_mixed_stack_gives_each_state_its_lone_bits():
    rng = np.random.default_rng(11)
    xs = [_random_x_state(4, rng, kind) for kind in ("full", "deficient", "near-pure", "pure")]
    xs += list(_channel_states(Channel.X, [0.05, 0.3]))
    dense = [random_density(4, rng, rank=r).real for r in (1, 3, 16)]
    dense = [d / np.trace(d) for d in dense]
    # The routes differ in the last bits on some of these X states: a stack-wide route would show.
    assert any(not np.array_equal(_hermitian_spectra(s[None]), np.linalg.eigvalsh(s[None])) for s in xs)
    assert any(not np.array_equal(_wootters_roots(s[None]), _dense_roots(s[None])) for s in xs)
    real = np.stack([xs[0], dense[0], xs[1], xs[2], dense[1], xs[3], dense[2], xs[4], xs[5]])
    for stack in (real, real.astype(complex)):
        spectra, roots = _density_spectra(stack), _wootters_roots(stack)
        ppt, taus = _ppt_min_eigenvalues(stack, (0,)), _tau_lower_bounds(stack)
        for k, rho in enumerate(stack):
            assert np.array_equal(spectra[k], _density_spectra(rho[None])[0])
            assert np.array_equal(roots[k], _wootters_roots(rho[None])[0])
            assert ppt[k] == ppt_min_eigenvalue(rho, (0,))
            assert taus[k] == tau_lower_bound(rho).value
    for k in (1, 4, 6):  # the dense states keep LAPACK's bits inside the stack
        assert np.array_equal(_density_spectra(real)[k], np.linalg.eigvalsh(real[k]))
        assert np.array_equal(_wootters_roots(real)[k], _dense_roots(real[k:k + 1])[0])


@pytest.mark.parametrize("kind", ["hermitian", "trace", "negative eigenvalue", "not finite"])
def test_a_bad_x_state_raises_the_dense_route_error(kind):
    bad = _channel_states(Channel.Z, [0.2])[0]
    if kind == "hermitian":
        bad[0, 15] += 0.1  # still X-shaped
    elif kind == "trace":
        bad = 1.5 * bad
    elif kind == "negative eigenvalue":
        bad = np.diag(np.r_[1.5, -0.5, np.zeros(14)])
    else:
        bad[3, 3] = np.nan
    with pytest.raises(ValueError, match=kind) as dense:
        assert_density_matrix(bad.astype(complex))
    good = _channel_states(Channel.X, [0.1, 0.2])
    for stack in (bad[None], np.stack([good[0], bad, good[1]])):
        with pytest.raises(ValueError) as pairs:
            _density_spectra(stack)
        assert str(pairs.value) == str(dense.value)
