"""Multipartite entanglement monotones for noisy GHZ registers.

Two lower-bound constructions on the N-partite concurrence are provided,
normalised so that the 4-qubit GHZ state scores sqrt(2):

* :func:`tau_lower_bound` conjugates with the full spin flip
  ``F = L0 tensor ... tensor L0`` (one factor per qubit) and applies the
  Wootters recipe ``max(0, 2*lam_max - sum(lam))`` to the square roots of
  the eigenvalues of ``rho @ F rho* F``.  This is the quantity whose
  closed forms :func:`analytic_tau` reproduces, and it is defined only
  for even register sizes: for odd N the flip form is antisymmetric,
  ``F rho* F`` is negative semidefinite, and the call raises ``ValueError``.

* :func:`tau_generator_bound` enumerates all SO(2**(N-1)) x SO(2)
  generator pairs for each one-versus-rest cut (see :func:`cut_terms`)
  and aggregates the per-pair Wootters values in quadrature.  Each
  pair's conjugator touches only four basis states, so its term is the
  Wootters value of a 4 x 4 principal submatrix of rho, and one batched
  eigenproblem per cut covers every pair.  On pure states this route
  saturates twice the N-partite pure concurrence, so it detects states
  (W-type, for instance) that the spin flip misses.

Both share ``TAU_SCALE = sqrt(2)``, fixed once by the GHZ calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, coefficients
from .linalg import (
    EIGENVALUE_FLOOR,
    assert_density_matrix,
    hermitian_eigenvalues,
    num_qubits,
    partial_trace,
    partial_transpose,
    permute_qubits,
)

TAU_SCALE = math.sqrt(2.0)

# Real antisymmetric 2x2 seed of every flip/generator construction.
L0 = np.array([[0.0, 1.0], [-1.0, 0.0]])

# The conjugator kron(G_pq, L0) of generator pair (p, q), restricted to the
# basis states (2p, 2p+1, 2q, 2q+1) it acts on; the same for every pair.
_PAIR_FLIP = np.kron(L0, L0)

_EIG_NOISE_FLOOR = 1e-15
_EIG_NEGATIVE_LIMIT = -1e-8
_EIG_IMAG_LIMIT = 1e-8


@dataclass(frozen=True)
class CutTerm:
    """One generator pair's contribution to a single cut."""

    pair: tuple[int, int]
    lambdas: tuple[float, float, float, float]
    value: float


@dataclass(frozen=True)
class CutTermSet:
    """All generator-pair terms of one one-versus-rest cut."""

    cut: int
    terms: tuple[CutTerm, ...] = field(repr=False)

    @property
    def aggregate(self) -> float:
        """Quadrature sum of the term values for this cut."""
        return math.sqrt(math.fsum(t.value**2 for t in self.terms))


@dataclass(frozen=True)
class TauResult:
    """Concurrence lower bound with its per-cut contributions."""

    value: float
    per_cut: tuple[float, ...]
    convention_scale: float


def pure_concurrence(psi: np.ndarray) -> float:
    """N-partite concurrence sqrt(1 - mean_j Tr rho_j^2) of a pure state."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValueError(f"expected a state vector, got shape {psi.shape}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state vector norm is {norm:.12g}, expected 1")
    rho = np.outer(psi, psi.conj())
    n = num_qubits(rho)
    purity = sum(
        float(np.trace(m @ m).real) for m in (partial_trace(rho, (j,)) for j in range(n))
    )
    return math.sqrt(max(0.0, 1.0 - purity / n))


def _wootters_lambdas(products: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues of rho @ rho-tilde, sorted descending.

    ``products`` is one square matrix or a stack of them (the last two
    axes); roots come back row by row.  Each product is similar to a
    positive matrix, so its spectrum is real and nonnegative up to
    roundoff.  An eigenvalue in any row below ``_EIG_NEGATIVE_LIMIT``
    (-1e-8) or with an imaginary part above ``_EIG_IMAG_LIMIT`` (1e-8)
    aborts, values in [-1e-8, 0) clamp to zero, and residue under
    ``_EIG_NOISE_FLOOR`` (1e-15) is zeroed so null-space noise cannot leak
    through sqrt.
    """
    ev = np.linalg.eigvals(products)
    if float(np.abs(ev.imag).max()) > _EIG_IMAG_LIMIT:
        raise RuntimeError("flip eigenproblem produced complex eigenvalues")
    real = ev.real
    lo = float(real.min())
    if lo < _EIG_NEGATIVE_LIMIT:
        raise RuntimeError(f"flip eigenproblem produced negative eigenvalue {lo:.3e}")
    real = np.clip(real, 0.0, None)
    real[real < _EIG_NOISE_FLOOR] = 0.0
    return np.sort(np.sqrt(real), axis=-1)[..., ::-1]


def _aggregate(per_cut: list[float]) -> TauResult:
    value = TAU_SCALE * math.sqrt(sum(c**2 for c in per_cut) / len(per_cut))
    return TauResult(value, tuple(per_cut), TAU_SCALE)


def tau_lower_bound(rho: np.ndarray) -> TauResult:
    """Spin-flip concurrence bound, calibrated to sqrt(2) on 4-qubit GHZ.

    Every one-versus-rest cut shares the single flip construction, so
    ``per_cut`` holds N equal entries and ``value`` equals
    ``convention_scale`` times the common Wootters value.
    """
    n = assert_density_matrix(rho)
    if n % 2:
        raise ValueError(f"the spin-flip bound needs an even number of qubits, got {n}")
    flip = np.array([[1.0]])
    for _ in range(n):
        flip = np.kron(flip, L0)
    tilde = flip @ rho.conj() @ flip
    lam = _wootters_lambdas(rho @ tilde)
    c = max(0.0, 2.0 * lam[0] - lam.sum())
    return _aggregate([c] * n)


def _cut_arrays(rho: np.ndarray, n: int, cut: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs (K, 2), Wootters roots (K, 4) and values (K,) of one cut's terms.

    Pairs run lexicographically over the SO(2**(N-1)) generators, with the
    cut qubit permuted to the last wire.
    """
    if n < 3:
        raise ValueError(f"cut decomposition needs at least 3 qubits, got {n}")
    if cut < 0 or cut >= n:
        raise ValueError(f"cut {cut} out of range for {n} qubits")
    moved = permute_qubits(rho, [q for q in range(n) if q != cut] + [cut])
    p, q = np.triu_indices(2 ** (n - 1), k=1)
    index = np.stack([2 * p, 2 * p + 1, 2 * q, 2 * q + 1], axis=1)
    block = moved[index[:, :, None], index[:, None, :]]
    lam = _wootters_lambdas(block @ _PAIR_FLIP @ block.conj() @ _PAIR_FLIP)
    values = np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])
    return np.stack([p, q], axis=1), lam, values


def cut_terms(rho: np.ndarray, cut: int) -> CutTermSet:
    """Generator-pair Wootters terms for the cut qubit versus the rest.

    The cut qubit is permuted to the last wire; each conjugation operator
    is ``s = G tensor L0`` with G running over the SO(2**(N-1))
    generators.  The generator of pair (p, q) acts only on the basis
    states I = (2p, 2p+1, 2q, 2q+1), where s restricts to
    ``kron(L0, L0)``, so the nonzero spectrum of ``rho s rho* s`` is that
    of the 4 x 4 product ``R kron(L0, L0) R* kron(L0, L0)`` with R the
    principal submatrix ``rho[I, I]``.  A term's four roots are that
    product's eigenvalue roots.
    """
    n = assert_density_matrix(rho)
    pairs, lam, values = _cut_arrays(rho, n, cut)
    terms = zip(pairs.tolist(), lam.tolist(), values.tolist())
    return CutTermSet(cut, tuple(CutTerm(tuple(pair), tuple(top), v) for pair, top, v in terms))


def tau_generator_bound(rho: np.ndarray) -> TauResult:
    """Quadrature aggregate of every cut's :func:`cut_terms` values.

    Generally tighter than :func:`tau_lower_bound` (it saturates
    2 * :func:`pure_concurrence` on pure states); the two coincide on
    GHZ-coherence states such as the Z-channel family.
    """
    n = assert_density_matrix(rho)
    return _aggregate([math.sqrt(math.fsum(np.square(_cut_arrays(rho, n, cut)[2])))
                       for cut in range(n)])


def analytic_tau(channel: Channel, kt: float) -> float:
    """Closed-form value of :func:`tau_lower_bound` on a 4-qubit GHZ register."""
    channel = Channel(channel)
    co = coefficients(channel, kt)
    if channel in (Channel.X, Channel.Y):
        raw = 2.0 * co.alpha - 8.0 * co.beta - 6.0 * co.gamma
    elif channel is Channel.Z:
        raw = 2.0 * co.corner
    else:
        raw = 2.0 * co.corner - 8.0 * co.beta - 6.0 * co.gamma
    return TAU_SCALE * max(0.0, raw)


def _bisect_root(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def tau_vanishing_time(channel: Channel) -> float | None:
    """First kappa*t where the closed-form bound hits zero; None if it never does.

    Found by bisection on the signed expression inside the closed form.
    The Z-channel bound sqrt(2) * exp(-8 kt) stays positive for all times.
    """
    channel = Channel(channel)
    if channel is Channel.Z:
        return None

    def signed(kt: float) -> float:
        co = coefficients(channel, kt)
        if channel in (Channel.X, Channel.Y):
            return 2.0 * co.alpha - 8.0 * co.beta - 6.0 * co.gamma
        return 2.0 * co.corner - 8.0 * co.beta - 6.0 * co.gamma

    return _bisect_root(signed, 0.0, 2.0)


def ppt_min_eigenvalue(rho: np.ndarray, subset: tuple[int, ...] | list[int]) -> float:
    """Smallest eigenvalue after partially transposing ``subset``.

    Negative values witness entanglement across the subset/rest split.
    """
    assert_density_matrix(rho)
    return float(hermitian_eigenvalues(partial_transpose(rho, subset)).min())
