"""Dense linear algebra for small registers of qubits.

Conventions used throughout the package:

* Qubit 0 is the slowest-varying (leftmost) tensor factor, so the basis
  state ``|b_0 b_1 ... b_{n-1}>`` sits at index ``sum_j b_j 2**(n-1-j)``.
* Entropies are measured in bits (logarithms base 2).
* Eigenvalues with magnitude below ``EIGENVALUE_FLOOR`` are treated as
  exact zeros; density matrices may carry numerical negatives down to
  ``-PSD_FLOOR`` before validation rejects them.

States are plain complex ndarrays.  Helpers here validate shape and
physicality but never wrap arrays in custom classes, so results compose
directly with numpy.
"""

from __future__ import annotations

import math

import numpy as np

MAX_QUBITS = 10
EIGENVALUE_FLOOR = 1e-12
PSD_FLOOR = 1e-10
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-12


def num_qubits(mat: np.ndarray) -> int:
    """Return n for a 2**n x 2**n matrix, rejecting anything else."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    dim = mat.shape[0]
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise ValueError(f"matrix dimension {dim} is not a power of two >= 2")
    if n > MAX_QUBITS:
        raise ValueError(f"register of {n} qubits exceeds the supported maximum of {MAX_QUBITS}")
    return n


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with a guard on the combined register size."""
    a = np.asarray(a)
    b = np.asarray(b)
    dim = a.shape[0] * b.shape[0]
    if dim > 2**MAX_QUBITS:
        raise ValueError(f"tensor product dimension {dim} exceeds 2**{MAX_QUBITS}")
    return np.kron(a, b)


def assert_density_matrix(rho: np.ndarray, *, name: str = "state") -> int:
    """Validate hermiticity, unit trace and positivity; return the qubit count.

    Hermiticity is checked entrywise to ``TRACE_TOL`` in max-abs, the trace
    to ``TRACE_TOL``, and eigenvalues may only dip to ``-PSD_FLOOR``.
    """
    n = num_qubits(rho)
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > TRACE_TOL:
        raise ValueError(f"{name} is not hermitian: max deviation {herm:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} has trace {tr:.15g}, expected 1")
    lo = float(np.linalg.eigvalsh(rho).min())
    if lo < -PSD_FLOOR:
        raise ValueError(f"{name} has negative eigenvalue {lo:.3e}")
    return n


def partial_trace(rho: np.ndarray, keep: tuple[int, ...] | list[int]) -> np.ndarray:
    """Trace out every qubit not listed in ``keep``.

    ``keep`` is an iterable of distinct qubit indices; the output orders the
    kept qubits as given (so a permuted ``keep`` permutes the marginal).
    """
    n = num_qubits(rho)
    keep = list(keep)
    if not keep:
        raise ValueError("keep must name at least one qubit")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate qubit indices in keep: {keep}")
    if any(q < 0 or q >= n for q in keep):
        raise ValueError(f"keep {keep} out of range for {n} qubits")
    drop = [q for q in range(n) if q not in keep]
    t = rho.reshape([2] * (2 * n))
    # Row/column axes of dropped qubits are contracted pairwise.
    for q in sorted(drop, reverse=True):
        t = np.trace(t, axis1=q, axis2=q + t.ndim // 2)
    # Remaining axes currently keep ascending qubit order; reorder to `keep`.
    order = sorted(keep)
    src = [order.index(q) for q in keep]
    k = len(keep)
    t = np.transpose(t, src + [s + k for s in src])
    return t.reshape(2**k, 2**k)


def permute_qubits(rho: np.ndarray, perm: tuple[int, ...] | list[int]) -> np.ndarray:
    """Reorder register wires: output qubit ``j`` is input qubit ``perm[j]``."""
    n = num_qubits(rho)
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of range({n})")
    t = rho.reshape([2] * (2 * n))
    t = np.transpose(t, perm + [p + n for p in perm])
    return t.reshape(rho.shape)


def partial_transpose(rho: np.ndarray, subset: tuple[int, ...] | list[int]) -> np.ndarray:
    """Transpose the row/column axes of the qubits in ``subset``."""
    n = num_qubits(rho)
    subset = set(subset)
    if any(q < 0 or q >= n for q in subset):
        raise ValueError(f"subset {sorted(subset)} out of range for {n} qubits")
    axes = list(range(2 * n))
    for q in subset:
        axes[q], axes[q + n] = axes[q + n], axes[q]
    t = rho.reshape([2] * (2 * n))
    return np.transpose(t, axes).reshape(rho.shape)


def hermitian_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of a hermitian matrix, sorted descending."""
    dev = float(np.abs(mat - mat.conj().T).max())
    if dev > HERMITICITY_TOL:
        raise ValueError(f"matrix is not hermitian: max deviation {dev:.3e}")
    return np.linalg.eigvalsh(mat)[::-1]


def _check_probabilities(p: np.ndarray) -> None:
    """Reject entries below ``-PSD_FLOOR`` and rows (last axis) not summing to 1."""
    if p.min() < -PSD_FLOOR:
        raise ValueError(f"probability {p.min():.3e} is negative beyond tolerance")
    sums = p.sum(axis=-1)
    deviation = np.abs(sums - 1.0)
    if deviation.max() > 1e-9:
        raise ValueError(f"probabilities sum to {sums.flat[deviation.argmax()]:.12g}, expected 1")


def shannon_entropy(probs: np.ndarray | list[float]) -> float:
    """Entropy in bits of a probability vector; tiny entries are dropped."""
    p = np.asarray(probs, dtype=float)
    _check_probabilities(p)
    p = p[p > EIGENVALUE_FLOOR]
    return float(-(p * np.log2(p)).sum())


def shannon_entropies(probs: np.ndarray) -> np.ndarray:
    """Row-wise :func:`shannon_entropy` over the last axis, with the same checks."""
    p = np.asarray(probs, dtype=float)
    _check_probabilities(p)
    q = np.where(p > EIGENVALUE_FLOOR, p, 1.0)
    return -(q * np.log2(q)).sum(axis=-1)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) = -Tr rho log2 rho via the eigenvalue spectrum."""
    lam = hermitian_eigenvalues(rho)
    if lam.min() < -PSD_FLOOR:
        raise ValueError(f"state has negative eigenvalue {lam.min():.3e}")
    lam = lam[lam > EIGENVALUE_FLOOR]
    return float(-(lam * np.log2(lam)).sum())


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho || sigma) in bits; ``math.inf`` when supp(rho) leaves supp(sigma)."""
    if rho.shape != sigma.shape:
        raise ValueError(f"shape mismatch: {rho.shape} vs {sigma.shape}")
    lam, vecs = np.linalg.eigh(sigma)
    overlap = np.einsum("ij,jk,ki->i", vecs.conj().T, rho, vecs).real
    kernel_mass = float(overlap[lam <= EIGENVALUE_FLOOR].sum())
    if kernel_mass > PSD_FLOOR:
        return math.inf
    support = lam > EIGENVALUE_FLOOR
    cross = float(-(overlap[support] * np.log2(lam[support])).sum())
    value = cross - von_neumann_entropy(rho)
    if value < -1e-9:
        raise ValueError(f"relative entropy evaluated to {value:.3e} < 0")
    return max(0.0, value)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """T(a, b) = (1/2) ||a - b||_1 for hermitian a, b."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    dev = float(np.abs(diff - diff.conj().T).max())
    if dev > HERMITICITY_TOL:
        raise ValueError(f"difference is not hermitian: max deviation {dev:.3e}")
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
