"""Analytic twins the benchmark checks every operation against.

Each twin is written from the physics, not from the package, so a fault
in the program cannot hide behind the same fault in its reference.  The
one exception is ``closed_form_spectrum``, which the state-sweep check
takes from the package because the twin it checks is the entropy of
that spectrum.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerance of each twin: |computed - reference| must not exceed it.
TOLERANCES = {
    "gqd": 1e-8,
    "tau": 1e-8,
    "entropy": 1e-8,
    "evolve": 1e-8,
    "werner": 1e-8,
    "tau_generator": 1e-6,
}

_PAULIS = {
    "x": (np.array([[0, 1], [1, 0]], dtype=complex),),
    "y": (np.array([[0, -1j], [1j, 0]], dtype=complex),),
    "z": (np.array([[1, 0], [0, -1]], dtype=complex),),
}
_PAULIS["iso"] = _PAULIS["x"] + _PAULIS["y"] + _PAULIS["z"]


def ghz_density(n: int) -> np.ndarray:
    """(|0...0> + |1...1>)(<0...0| + <1...1|) / 2 on n qubits."""
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = rho[0, -1] = rho[-1, 0] = rho[-1, -1] = 0.5
    return rho


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state G G^dagger / Tr, G a complex Ginibre matrix."""
    dim = 2**n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def random_pure(n: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return psi / np.linalg.norm(psi)


def werner_state(z: float) -> np.ndarray:
    """z |psi-><psi-| + (1 - z) I / 4."""
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return (z * np.outer(singlet, singlet) + (1.0 - z) * np.eye(4) / 4.0).astype(complex)


def exact_pauli_flow(rho0: np.ndarray, channel: str, kt: float) -> np.ndarray:
    """Exact solution of d rho/dt = kappa sum_{i,a} (S rho S - rho).

    The single-site generators commute and each satisfies L^2 = -2L, so
    the flow is the product over sites and Paulis of
    rho -> p rho + (1 - p) S rho S with p = (1 + exp(-2 kappa t)) / 2.
    """
    dim = rho0.shape[0]
    n = dim.bit_length() - 1
    p = 0.5 * (1.0 + math.exp(-2.0 * kt))
    t = rho0.astype(complex).reshape([2] * (2 * n))
    for site in range(n):
        for s in _PAULIS[channel]:
            left = np.moveaxis(np.tensordot(s, t, axes=([1], [site])), 0, site)
            both = np.moveaxis(np.tensordot(left, s, axes=([site + n], [0])), -1, site + n)
            t = p * t + (1.0 - p) * both
    return t.reshape(dim, dim)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    diff = 0.5 * (diff + diff.conj().T)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def _xlog2x(v: float) -> float:
    return 0.0 if v <= 0.0 else v * math.log2(v)


def werner_discord(z: float) -> float:
    """Ollivier-Zurek discord of the Werner state with singlet weight z."""
    return 0.25 * (_xlog2x(1.0 - z) - 2.0 * _xlog2x(1.0 + z) + _xlog2x(1.0 + 3.0 * z))


def pure_concurrence(psi: np.ndarray) -> float:
    """N-partite concurrence sqrt(1 - mean_j Tr rho_j^2) of a state vector."""
    n = psi.size.bit_length() - 1
    t = psi.reshape([2] * n)
    purity = 0.0
    for j in range(n):
        m = np.moveaxis(t, j, 0).reshape(2, -1)
        marginal = m @ m.conj().T
        purity += float(np.sum(np.abs(marginal) ** 2))
    return math.sqrt(max(0.0, 1.0 - purity / n))


def spectrum_entropy(spectrum: np.ndarray) -> float:
    """Shannon entropy in bits of an eigenvalue list; zeros contribute 0."""
    lam = np.asarray(spectrum, dtype=float)
    lam = lam[lam > 0.0]
    return float(-(lam * np.log2(lam)).sum())
