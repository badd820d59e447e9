"""Multipartite entanglement monotones for noisy GHZ registers.

Two lower-bound constructions on the N-partite concurrence are provided,
normalised so that the 4-qubit GHZ state scores sqrt(2):

* :func:`tau_lower_bound` conjugates with the full spin flip
  ``F = L0 tensor ... tensor L0`` (one factor per qubit) and applies the
  Wootters recipe ``max(0, 2*lam_max - sum(lam))`` to the roots lam, the
  square roots of the eigenvalues of ``rho F rho* F``.  This is the quantity
  whose closed forms :func:`analytic_tau` reproduces, and it is defined only
  for even register sizes: for odd N the flip form is antisymmetric,
  ``F rho* F`` is negative semidefinite, and the call raises ``ValueError``.
  F is never built: it is the signed anti-diagonal
  ``F[i, d-1-i] = (-1)**popcount(i)``, so ``rho F = rho[:, ::-1] * s[::-1]``
  with ``s_i = (-1)**popcount(i)``.

* :func:`tau_generator_bound` enumerates all SO(2**(N-1)) x SO(2)
  generator pairs for each one-versus-rest cut (see :func:`cut_terms`)
  and aggregates the per-pair Wootters values in quadrature.  Each
  pair's conjugator touches only four basis states, so its term is the
  Wootters value of a 4 x 4 principal submatrix of rho, and one batched
  solve per cut covers every pair.  On pure states this route
  saturates twice the N-partite pure concurrence, so it detects states
  (W-type, for instance) that the spin flip misses.

No root is taken as a square root, which would halve the digits of a root
near zero.  A real rho has ``rho F rho F = (rho F)**2``, so its roots are
``|eigvals(rho F)|``, from 2 x 2 blocks in closed form on a real X state
(the route of :mod:`ghzdyn.linalg`) and from one ``eigvals`` on any other
real rho.  For a complex rho the identity fails, and the
roots are the singular values of ``W^T F W`` with ``rho = W W^H`` from
``eigh`` (Uhlmann, PRA 62, 032307).  The generator pairs take the same
routes with ``F = kron(L0, L0)``, the 2-qubit spin flip.

The two bounds share ``TAU_SCALE = sqrt(2)``, fixed once by the GHZ calibration.
The spin-flip bound and the PPT witness run on stacks of validated states; the
route is chosen per state, so the public functions, which pass a stack of one,
give each state the bits it gets in any stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, ChannelCoefficients, coefficients
from .linalg import (
    NORM_TOL,
    _hermitian_spectra,
    _partial_transposes,
    _rows,
    _x_or_dense,
    assert_density_matrix,
    num_qubits,
    partial_trace,
    permute_qubits,
)

TAU_SCALE = math.sqrt(2.0)

# Real antisymmetric 2x2 seed of every flip/generator construction.
L0 = np.array([[0.0, 1.0], [-1.0, 0.0]])


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
        return _quadrature([t.value for t in self.terms])


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
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state vector norm is {norm:.12g}, expected 1")
    rho = np.outer(psi, psi.conj())
    n = num_qubits(rho)
    purity = sum(
        float(np.trace(m @ m).real) for m in (partial_trace(rho, (j,)) for j in range(n))
    )
    return math.sqrt(max(0.0, 1.0 - purity / n))


def _wootters_roots(rhos: np.ndarray) -> np.ndarray:
    """Descending Wootters roots of each matrix in a stack, by the routes of the module doc.

    F is the spin flip of an even number of qubits, so ``m F = m[..., ::-1] * s[::-1]``;
    ``W = V sqrt(w)``.
    """
    signs = _flip_signs(rhos.shape[-1].bit_length() - 1)[::-1]
    if not np.iscomplexobj(rhos):
        roots = _x_or_dense(rhos, _pair_roots, lambda m: np.abs(np.linalg.eigvals(m[..., ::-1] * signs)))
        return np.sort(roots, axis=-1)[..., ::-1]
    w, v = np.linalg.eigh(rhos)
    root = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    return np.linalg.svd((root.swapaxes(-1, -2)[..., ::-1] * signs) @ root, compute_uv=False)


def _pair_roots(entries: np.ndarray) -> np.ndarray:
    """Ascending Wootters roots of X-shaped real matrices from their pair entries.

    F flips an even number of qubits, so ``s_{d-1-i} = s_i``, and ``rho F`` is X-shaped with the
    block ``s_i [[rho_ij, rho_ii], [rho_jj, rho_ji]]`` on the pair (i, j = d-1-i).  Its roots are
    ``|m +- sqrt(h**2 + rho_ii rho_jj)|``, m and h the half sum and half difference of ``rho_ij``
    and ``rho_ji``, or twice ``hypot(m, sqrt(-h**2 - rho_ii rho_jj))`` for a complex pair.
    """
    ii, ji, jj, ij = entries[:, 0], entries[:, 1], entries[:, 2], entries[:, 3]
    m, h = 0.5 * (ij + ji), 0.5 * (ij - ji)
    disc = h * h + ii * jj
    root = np.sqrt(np.abs(disc))
    real = disc >= 0.0
    return _rows(np.where(real, np.abs(m - root), np.hypot(m, root)),
                 np.where(real, np.abs(m + root), np.hypot(m, root)))


def _quadrature(values) -> float:
    """``sqrt(sum v**2)`` of one cut's term values, summed exactly."""
    return math.sqrt(math.fsum(np.square(values)))


def _flip_signs(n: int) -> np.ndarray:
    """``s[i] = (-1)**popcount(i) = F[i, d-1-i]``, the only nonzeros of ``F = L0^(x)n``."""
    return np.array([(-1.0) ** bin(i).count("1") for i in range(2**n)])


def _flip_values(rhos: np.ndarray) -> np.ndarray:
    """Spin-flip Wootters value of each validated state in a stack; ``rho F`` as in the module doc."""
    n = rhos.shape[-1].bit_length() - 1
    if n % 2:
        raise ValueError(f"the spin-flip bound needs an even number of qubits, got {n}")
    lam = _wootters_roots(rhos)
    return np.maximum(0.0, 2.0 * lam[:, 0] - lam.sum(axis=-1))


def _tau_lower_bounds(rhos: np.ndarray) -> np.ndarray:
    """Stacked :func:`tau_lower_bound` values: ``TAU_SCALE`` times each state's flip value."""
    return TAU_SCALE * _flip_values(rhos)


def tau_lower_bound(rho: np.ndarray) -> TauResult:
    """Spin-flip concurrence bound, calibrated to sqrt(2) on 4-qubit GHZ.

    Every one-versus-rest cut shares the single flip construction, so
    ``per_cut`` holds N equal Wootters values v and ``value`` is
    ``TAU_SCALE * v``, the :func:`_tau_lower_bounds` value of a stack of one.
    """
    n = assert_density_matrix(rho)
    v = float(_flip_values(rho[None])[0])
    return TauResult(TAU_SCALE * v, (v,) * n, TAU_SCALE)


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
    lam = _wootters_roots(block)
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
    principal submatrix ``rho[I, I]``.  ``kron(L0, L0)`` is the 2-qubit spin
    flip, so a term's four roots are R's spin-flip Wootters roots, taken as in
    the module doc: ``|eigvals(R kron(L0, L0))|`` for a real R, Uhlmann's form
    for a complex one.
    """
    n = assert_density_matrix(rho)
    pairs, lam, values = _cut_arrays(rho, n, cut)
    terms = zip(pairs.tolist(), lam.tolist(), values.tolist())
    return CutTermSet(cut, tuple(CutTerm(tuple(pair), tuple(top), v) for pair, top, v in terms))


def tau_generator_bound(rho: np.ndarray) -> TauResult:
    """Quadrature aggregate of every cut's :func:`cut_terms` values.

    Generally tighter than :func:`tau_lower_bound` (it saturates
    2 * :func:`pure_concurrence` on pure states); the two coincide on
    GHZ-coherence states such as the Z-channel family.  It depends on the local basis: random
    local unitaries moved it by up to 0.079 on rank-2 4-qubit states (``default_rng(12)``).
    """
    n = assert_density_matrix(rho)
    per_cut = [_quadrature(_cut_arrays(rho, n, cut)[2]) for cut in range(n)]
    return TauResult(TAU_SCALE * math.sqrt(sum(c**2 for c in per_cut) / n), tuple(per_cut), TAU_SCALE)


def _signed_tau(co: ChannelCoefficients) -> float | np.ndarray:
    """The closed form of :func:`analytic_tau` before scaling and clamping at zero.

    One expression for every channel: X and Y carry ``corner == alpha``, Z ``beta == gamma == 0``.
    ``co`` holds floats, or arrays from :func:`_coefficient_columns`.
    """
    return 2.0 * co.corner - 8.0 * co.beta - 6.0 * co.gamma


def _analytic_taus(co: ChannelCoefficients) -> np.ndarray:
    """:func:`analytic_tau` from coefficients: one value from floats, an array from columns."""
    return TAU_SCALE * np.maximum(0.0, _signed_tau(co))


def analytic_tau(channel: Channel, kt: float) -> float:
    """Closed-form value of :func:`tau_lower_bound` on a 4-qubit GHZ register."""
    channel = Channel(channel)
    return float(_analytic_taus(coefficients(channel, kt)))


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

    Found by bisection; the Z-channel bound sqrt(2) * exp(-8 kt) stays positive.
    """
    channel = Channel(channel)
    if channel is Channel.Z:
        return None
    return _bisect_root(lambda kt: _signed_tau(coefficients(channel, kt)), 0.0, 2.0)


def _ppt_min_eigenvalues(rhos: np.ndarray, subset: tuple[int, ...] | list[int]) -> np.ndarray:
    """Smallest eigenvalue of each validated state in a stack after transposing ``subset``."""
    # A partial transpose keeps the state's entrywise hermiticity deviation.
    return _hermitian_spectra(_partial_transposes(rhos, subset)).min(axis=-1)


def ppt_min_eigenvalue(rho: np.ndarray, subset: tuple[int, ...] | list[int]) -> float:
    """Smallest eigenvalue after partially transposing ``subset``.

    Negative values witness entanglement across the subset/rest split.
    """
    assert_density_matrix(rho)
    return float(_ppt_min_eigenvalues(rho[None], subset)[0])
