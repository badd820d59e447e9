"""GHZ registers under independent Markovian Pauli noise.

Each qubit of the register couples to its own memoryless bath through a
single Pauli operator (channels ``x``, ``y``, ``z``) or through all three
with equal weight (channel ``iso``).  The dynamics is the Lindblad flow

    d rho / dt = kappa * sum_i sum_a ( S_a^(i) rho S_a^(i) - rho ),

where ``S_a^(i)`` is a Pauli acting on qubit ``i``.  Times are quoted as
the dimensionless product ``kappa * t`` throughout the public API.

For the 4-qubit GHZ initial state every channel admits a closed-form
evolved state; :func:`closed_form_state` builds it directly, and
:func:`evolve_numeric` integrates the same flow with one fixed-step RK4 run
under an a-priori error bound, so the two routes can be cross-checked.

The integrator and :func:`lindblad_generator` hold rho in a paired
layout: each qubit's (row bit, column bit) is one base-4 digit, and the
digits of the first ceil(N/2) qubits index the rows of a
4**ceil(N/2) x 4**floor(N/2) matrix V.  The generator is then a
Kronecker sum ``A kron I + I kron B`` of identical 4 x 4 site generators,
applied as ``A @ V + V @ B.T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import INTEGRATOR_TOL, MAX_QUBITS, NORM_TOL, assert_density_matrix, num_qubits

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

BASE_STEP = 0.00125

# Hamming weight of each 4-bit index, used by the closed-form builders.
_WEIGHT = tuple(bin(i).count("1") for i in range(16))


class Channel(str, Enum):
    """Which Pauli couples each qubit to its bath."""

    X = "x"
    Y = "y"
    Z = "z"
    ISO = "iso"

    def paulis(self) -> tuple[np.ndarray, ...]:
        if self is Channel.X:
            return (PAULI_X,)
        if self is Channel.Y:
            return (PAULI_Y,)
        if self is Channel.Z:
            return (PAULI_Z,)
        return (PAULI_X, PAULI_Y, PAULI_Z)


def ghz_ket(n: int = 4) -> np.ndarray:
    """(|0...0> + |1...1>) / sqrt(2) on n qubits, as a real array."""
    if n < 2 or n > MAX_QUBITS:
        raise ValueError(f"GHZ register needs 2..{MAX_QUBITS} qubits, got {n}")
    psi = np.zeros(2**n)
    psi[0] = psi[-1] = 1.0 / math.sqrt(2.0)
    return psi


def ghz_state(n: int = 4) -> np.ndarray:
    """Density matrix of the n-qubit GHZ state, as a real array."""
    psi = ghz_ket(n)
    return np.outer(psi, psi.conj())


@dataclass(frozen=True)
class ChannelCoefficients:
    """Entries of the evolved 4-qubit state in the computational basis.

    ``alpha``, ``beta`` and ``gamma`` are the diagonal weights for basis
    states of excitation number {0, 4}, {1, 3} and {2}; ``corner`` is the
    magnitude of the |0000><1111| coherence.  They satisfy
    ``2*alpha + 8*beta + 6*gamma = 1`` and ``corner <= alpha`` for every
    channel and time.  :func:`_coefficient_columns` holds ``(B,)`` arrays
    instead, one entry per time (the Z channel's constant alpha, beta and
    gamma stay floats).
    """

    alpha: float
    beta: float
    gamma: float
    corner: float


def _coefficients_from(channel: Channel, kts, decay) -> ChannelCoefficients:
    """The coefficients at times ``kts`` from ``decay(rate) = e**(-rate*kt)``: floats, or arrays."""
    for kt in kts:
        if not 0.0 <= kt < math.inf:
            raise ValueError(f"kappa*t must be finite and nonnegative, got {kt}")
    if channel is Channel.Z:
        return ChannelCoefficients(0.5, 0.0, 0.0, 0.5 * decay(8.0))
    # One weight formula in (u, x): (e^{-4kt}, e^{-8kt}) for X/Y, (y, y * y) with y = e^{-8kt} for iso.
    iso = channel is Channel.ISO
    u = decay(8.0 if iso else 4.0)
    x = u * u if iso else decay(8.0)
    alpha = (1.0 + 6.0 * u + x) / 16.0
    return ChannelCoefficients(alpha, (1.0 - x) / 16.0, (1.0 - 2.0 * u + x) / 16.0, 0.5 * x if iso else alpha)


def coefficients(channel: Channel, kt: float) -> ChannelCoefficients:
    """Closed-form matrix-element weights of the evolved 4-qubit state."""
    return _coefficients_from(Channel(channel), (kt,), lambda rate: math.exp(-rate * kt))


def _coefficient_columns(channel: Channel, kts) -> ChannelCoefficients:
    """:func:`coefficients` of one channel at each of ``kts``, as ``(B,)`` arrays.

    The exponentials are per-time ``math.exp`` values and the arithmetic is the
    scalar one elementwise, so every entry equals :func:`coefficients` bit for bit.
    """
    return _coefficients_from(channel, kts, lambda rate: np.array([math.exp(-rate * kt) for kt in kts]))


def _closed_form_states(channel: Channel, co: ChannelCoefficients) -> np.ndarray:
    """:func:`closed_form_state` from its coefficients; ``(B,)`` columns give a ``(B, 16, 16)`` stack."""
    index = np.arange(16)
    by_weight = np.array([co.alpha, co.beta, co.gamma, co.beta, co.alpha]).T[..., _WEIGHT]
    rho = np.zeros(np.shape(co.corner) + (16, 16))
    rho[..., index, index] = by_weight  # Z: beta = gamma = 0 leave only the two ends
    if channel in (Channel.Z, Channel.ISO):
        rho[..., 0, 15] = rho[..., 15, 0] = co.corner
    else:
        sign = np.array([(-1.0) ** w for w in _WEIGHT]) if channel is Channel.Y else 1.0
        rho[..., index, 15 - index] = sign * by_weight
    return rho


def closed_form_state(channel: Channel, kt: float) -> np.ndarray:
    """Evolved 4-qubit GHZ state as an explicit 16 x 16 matrix.

    The X and Y channels populate the full diagonal and anti-diagonal,
    graded by excitation number; under Y the anti-diagonal entries carry
    an extra parity sign (-1)**weight.  The Z channel only damps the GHZ
    coherence, and the isotropic channel keeps the diagonal plus the two
    extreme corners.  Every entry is real, so the state is a float64
    array and its measures run in real LAPACK; they may differ from those
    of its complex copy in the last bits.
    """
    channel = Channel(channel)
    return _closed_form_states(channel, coefficients(channel, kt))


def closed_form_spectrum(channel: Channel, kt: float) -> np.ndarray:
    """Eigenvalues of :func:`closed_form_state`, sorted descending.

    Analytic throughout: the X/Y states are rank 8 with eigenvalues
    {2*alpha, 2*beta (x4), 2*gamma (x3)}; the Z and isotropic states keep
    their diagonal and split the corner block into alpha +/- corner, so
    with Z's beta = gamma = 0 the Z state is rank 2.
    """
    channel = Channel(channel)
    co = coefficients(channel, kt)
    if channel in (Channel.X, Channel.Y):
        lam = [2.0 * co.alpha] + [2.0 * co.beta] * 4 + [2.0 * co.gamma] * 3 + [0.0] * 8
    else:
        lam = [co.alpha + co.corner, co.alpha - co.corner] + [co.beta] * 8 + [co.gamma] * 6
    return np.sort(np.asarray(lam))[::-1]


def _to_paired(rho: np.ndarray, n: int) -> np.ndarray:
    """rho as the 4**ceil(n/2) x 4**floor(n/2) paired-layout matrix V."""
    order = [axis for q in range(n) for axis in (q, n + q)]
    paired = np.asarray(rho, dtype=complex).reshape((2,) * (2 * n)).transpose(order)
    return paired.reshape(4 ** ((n + 1) // 2), 4 ** (n // 2))


def _from_paired(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`_to_paired`."""
    order = [2 * q for q in range(n)] + [2 * q + 1 for q in range(n)]
    return v.reshape((2,) * (2 * n)).transpose(order).reshape(2**n, 2**n)


def _site_generator(channel: Channel) -> np.ndarray:
    """One qubit's generator ``sum_S kron(S, S^T) - |S| I`` on its row-major (row, column) digit.

    vec(S rho S) = (S kron S^T) vec(rho); the spectrum is {0, -2}, or {0, -4} for iso.
    """
    paulis = Channel(channel).paulis()
    return sum(np.kron(s, s.T) for s in paulis) - len(paulis) * np.eye(4)


def _split_generator(site: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Factors A, B of the paired-layout generator ``A kron I + I kron B`` (kappa = 1).

    The register's generator is the Kronecker sum of the site generators;
    A collects the first ceil(n/2) qubits and B the last floor(n/2).
    """
    def kronecker_sum(qubits: int) -> np.ndarray:
        out = np.zeros((1, 1), dtype=complex)
        for _ in range(qubits):
            out = np.kron(out, np.eye(4)) + np.kron(np.eye(len(out)), site)
        return out

    return kronecker_sum((n + 1) // 2), kronecker_sum(n // 2)


def lindblad_generator(rho: np.ndarray, channel: Channel, kappa: float = 1.0) -> np.ndarray:
    """Right-hand side kappa * sum_S (S rho S - rho) of the master equation."""
    n = num_qubits(rho)
    a, b = _split_generator(_site_generator(channel), n)
    v = _to_paired(rho, n)
    return kappa * _from_paired(a @ v + v @ b.T, n)


def _rk4(v0: np.ndarray, a: np.ndarray, b: np.ndarray, t: float, steps: int) -> np.ndarray:
    """Classical RK4 for the paired-layout flow dV/dt = A V + V B^T.

    For a constant linear generator L the RK4 step is the degree-4 Taylor
    polynomial of exp(hL), evaluated in Horner form as
    w = v + (h/k) L w for k = 4, 3, 2, 1, with A and B^T pre-scaled by h/k.
    """
    h = t / steps
    stages = [((h / k) * a, (h / k) * b.T) for k in (4.0, 3.0, 2.0, 1.0)]
    v = v0
    for _ in range(steps):
        w = v
        for a_k, b_k in stages:
            w = v + a_k @ w + w @ b_k
        v = w
    return v


def _rk4_error_bound(rate: float, n: int, t: float, steps: int) -> float:
    """Bound on the trace distance from :func:`_rk4` of a state to its exact flow, rounding aside.

    The generator is hermitian with eigenvalues ``-rate*k`` (k = 0..n), so after m steps
    component k is off by ``|T4(-rate*k*t/m)**m - e**(-rate*k*t)|`` (T4: degree-4 Taylor);
    as ``||rho0||_F <= 1``, the trace distance is at most sqrt(2**n)/2 times the largest.
    """
    decay = -rate * np.arange(n + 1)
    z = decay * (t / steps)
    t4 = 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    return 0.5 * math.sqrt(2**n) * float(np.abs(t4**steps - np.exp(decay * t)).max())


def evolve_numeric(rho0: np.ndarray, channel: Channel, t_final: float) -> np.ndarray:
    """Integrate the master equation from ``rho0`` for time ``t_final`` (kappa = 1).

    One fixed-step RK4 run of ``2 * ceil(t_final / BASE_STEP)`` steps, raised beforehand
    to the fewest for which :func:`_rk4_error_bound` meets ``INTEGRATOR_TOL``, which
    never happens for N <= 6.  The result is re-hermitized and its trace renormalised;
    drift beyond ``NORM_TOL`` raises.
    """
    channel = Channel(channel)
    n = assert_density_matrix(rho0, name="initial state")
    if not 0.0 <= t_final < math.inf:
        raise ValueError(f"t_final must be finite and nonnegative, got {t_final}")
    if t_final == 0:
        return rho0.astype(complex).copy()

    site = _site_generator(channel)
    rate = -float(np.linalg.eigvalsh(site)[0])
    steps = 2 * math.ceil(t_final / BASE_STEP)
    while _rk4_error_bound(rate, n, t_final, steps) > INTEGRATOR_TOL:
        steps += 1
    a, b = _split_generator(site, n)
    out = _from_paired(_rk4(_to_paired(rho0, n), a, b, t_final, steps), n)

    rho = 0.5 * (out + out.conj().T)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > NORM_TOL:
        raise RuntimeError(f"trace drifted to {tr:.15g} during integration")
    return rho / tr
