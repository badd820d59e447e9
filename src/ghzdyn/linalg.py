"""Dense linear algebra for small registers of qubits.

Conventions used throughout the package:

* Qubit 0 is the slowest-varying (leftmost) tensor factor, so the basis
  state ``|b_0 b_1 ... b_{n-1}>`` sits at index ``sum_j b_j 2**(n-1-j)``.
* Entropies are measured in bits (logarithms base 2).
* The tolerances of state validation and of the measures sit in one
  table below; README *Conventions* lists the same values.
* Every hermitian spectrum (state validation, entropies, trace distances,
  partial transposes) comes from ``_hermitian_spectra``.  A real matrix
  that is nonzero only on its diagonal and anti-diagonal, an X state as
  every state of the paper is, splits into 2 x 2 blocks on the index
  pairs (i, d-1-i), solved in closed form; any other matrix goes to
  ``np.linalg.eigvalsh``.  The partial transposes of an X state, its
  ``rho F`` and the cut blocks of the generator-pair bound are X-shaped
  too, and the Wootters roots take the same router (``_x_or_dense``), so
  a stack of channel states makes no LAPACK call.  The route is chosen
  per matrix, so a state's spectrum has the same bits alone as in any stack.

States are plain real or complex ndarrays.  Helpers here validate shape and
physicality but never wrap arrays in custom classes, so results compose
directly with numpy.
"""

from __future__ import annotations

import numbers
from functools import cache

import numpy as np

MAX_QUBITS = 10
# Entries per batched call, so memory stays flat in the batch size: 4**n per n-qubit
# frame or state (64 line frames at 4 qubits; a sweep chunk of 128 states, one discord
# search, takes twice the budget), 2**n + 2 per line-scan trial, and 4**n per state for
# each fixed discord frame, whose chunks take four times the budget.
BATCH_ENTRIES = 2**14

# Tolerances (README *Conventions* lists the same table).
TRACE_TOL = 1e-12            # density matrices: entrywise hermiticity and |trace - 1|
HERMITICITY_TOL = 1e-10      # other hermitian inputs: entropy, trace-distance differences
PSD_FLOOR = 1e-10            # eigenvalues and probabilities may dip to -PSD_FLOOR
EIGENVALUE_FLOOR = 1e-12     # spectra's entropies (and shannon_entropy) drop values at or below it
PROBABILITY_SUM_TOL = 1e-9   # |sum - 1| of a row of outcome probabilities
NORM_TOL = 1e-10             # |norm - 1| of a state vector; integrator trace drift
INTEGRATOR_TOL = 1e-9        # a-priori RK4 trace-distance bound; steps rise to the fewest that meet it
DISCORD_FLOOR = 1e-9         # a minimised discord may dip to -DISCORD_FLOOR, then clamps to 0


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


@cache
def _x_entries(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of a d x d matrix, d even: those off the X (the diagonal and anti-diagonal),
    then a ``(4, d/2)`` table of ``m_ii, m_ji, m_jj, m_ij`` on the pairs (i < d/2, j = d-1-i)."""
    k = np.arange(d)
    i, j = k[:d // 2], k[::-1][:d // 2]
    off = (k[:, None] != k) & (k[:, None] + k != d - 1)
    tables = np.flatnonzero(off), np.stack([i * (d + 1), j * d + i, j * (d + 1), i * d + j])
    for table in tables:
        table.flags.writeable = False  # cached: every caller shares these arrays
    return tables


def _x_or_dense(mats: np.ndarray, x_route, dense_route) -> np.ndarray:
    """``x_route`` of the X-shaped matrices of a ``(B, d, d)`` stack, ``dense_route`` of the rest.

    X-shaped means float64 with d even, every entry off the diagonal and anti-diagonal exactly 0
    and every entry on them finite: such a matrix is d/2 independent 2 x 2 blocks on the pairs
    (i, d-1-i), and ``x_route`` gets only their entries, as a ``(B, 4, d/2)`` stack of
    :func:`_x_entries` tables.  The route is chosen per matrix, so a matrix gets the same bits
    alone as in any stack; both routes return one row per matrix.
    """
    if mats.dtype != np.float64 or mats.ndim != 3 or mats.shape[-1] % 2 or mats.shape[-1] != mats.shape[-2]:
        return dense_route(mats)
    d = mats.shape[-1]
    off, pairs = _x_entries(d)
    flat = mats.reshape(len(mats), d * d)
    entries = flat[:, pairs]
    x = ~flat[:, off].any(axis=1) & np.isfinite(entries).all(axis=(1, 2))
    if x.all():
        return x_route(entries)
    if not x.any():
        return dense_route(mats)
    out = np.empty(mats.shape[:-1])
    out[x] = x_route(entries[x])
    out[~x] = dense_route(mats[~x])
    return out


def _pair_spectra(entries: np.ndarray) -> np.ndarray:
    """Ascending spectra of X-shaped symmetric matrices from their pair entries: ``(a+c)/2 +-
    hypot((a-c)/2, b)`` per pair, with b read from the lower triangle as ``eigvalsh`` reads it."""
    a, b, c = entries[:, 0], entries[:, 1], entries[:, 2]
    mean, radius = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
    return _rows(mean - radius, mean + radius)


def _rows(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """``[low, high]`` side by side as C-ordered ascending rows, so a row reduces as it would alone."""
    half = low.shape[1]
    out = np.empty((len(low), 2 * half))
    out[:, :half], out[:, half:] = low, high
    out.sort(axis=1)
    return out


def _hermitian_spectra(mats: np.ndarray) -> np.ndarray:
    """Ascending spectra of a ``(B, d, d)`` stack of hermitian matrices, read from the lower triangle.

    X-shaped real matrices (see :func:`_x_or_dense`) take their 2 x 2 pairs in closed form;
    every other matrix (complex, dense, non-finite) takes ``np.linalg.eigvalsh``.
    """
    return _x_or_dense(mats, _pair_spectra, np.linalg.eigvalsh)


def _density_spectra(rhos: np.ndarray, name: str = "state") -> np.ndarray:
    """Ascending spectra of a ``(B, d, d)`` stack of density matrices, by :func:`_hermitian_spectra`.

    Checks each state as :func:`assert_density_matrix`; the first bad one raises its own error,
    except that a state with a NaN or infinite entry raises before the eigensolve, which would
    not converge on it.
    """
    herm = np.abs(rhos - rhos.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    traces = np.trace(rhos, axis1=-2, axis2=-1)
    finite = np.isfinite(herm) & np.isfinite(traces)
    if not finite.all():
        k = int(finite.argmin())
        raise ValueError(f"{name} is not finite: hermiticity deviation {herm[k]:.3e}, "
                         f"trace {complex(traces[k]):.15g}")
    spectra = _hermitian_spectra(rhos)
    bad = (herm > TRACE_TOL) | (np.abs(traces - 1.0) > TRACE_TOL) | (spectra[:, 0] < -PSD_FLOOR)
    if bad.any():
        k = int(bad.argmax())
        if herm[k] > TRACE_TOL:
            raise ValueError(f"{name} is not hermitian: max deviation {herm[k]:.3e}")
        if abs(traces[k] - 1.0) > TRACE_TOL:
            raise ValueError(f"{name} has trace {complex(traces[k]):.15g}, expected 1")
        raise ValueError(f"{name} has negative eigenvalue {spectra[k, 0]:.3e}")
    return spectra


def assert_density_matrix(rho: np.ndarray, *, name: str = "state") -> int:
    """Validate hermiticity, unit trace and positivity; return the qubit count.

    Hermiticity is checked entrywise to ``TRACE_TOL`` in max-abs, the trace
    to ``TRACE_TOL``, and eigenvalues may only dip to ``-PSD_FLOOR``; a NaN or infinite
    entry fails too.
    """
    n = num_qubits(rho)
    _density_spectra(rho[None], name)
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
    k = len(keep)
    t = permute_qubits(rho, keep + drop).reshape(2**k, 2 ** (n - k), 2**k, 2 ** (n - k))
    return np.trace(t, axis1=1, axis2=3)


def permute_qubits(rho: np.ndarray, perm: tuple[int, ...] | list[int]) -> np.ndarray:
    """Reorder register wires: output qubit ``j`` is input qubit ``perm[j]``."""
    n = num_qubits(rho)
    perm = list(perm)
    if sorted(perm) != list(range(n)) or not all(isinstance(q, numbers.Integral) for q in perm):
        raise ValueError(f"perm {perm} is not a permutation of range({n})")
    t = rho.reshape([2] * (2 * n))
    t = np.transpose(t, perm + [p + n for p in perm])
    return t.reshape(rho.shape)


def _partial_transposes(rhos: np.ndarray, subset: tuple[int, ...] | list[int]) -> np.ndarray:
    """:func:`partial_transpose` of every matrix in a ``(B, d, d)`` stack, as one copy."""
    n = rhos.shape[-1].bit_length() - 1
    subset = set(subset)
    if bad := [q for q in subset if not isinstance(q, numbers.Integral)]:
        raise ValueError(f"qubit index {bad[0]!r} in subset is not an integer")
    if any(q < 0 or q >= n for q in subset):
        raise ValueError(f"subset {sorted(subset)} out of range for {n} qubits")
    axes = list(range(2 * n + 1))  # axis 0 runs over the stack
    for q in subset:
        axes[q + 1], axes[q + n + 1] = axes[q + n + 1], axes[q + 1]
    t = rhos.reshape((len(rhos),) + (2,) * (2 * n))
    return np.transpose(t, axes).reshape(rhos.shape)


def partial_transpose(rho: np.ndarray, subset: tuple[int, ...] | list[int]) -> np.ndarray:
    """Transpose the row/column axes of the qubits in ``subset``."""
    num_qubits(rho)
    return _partial_transposes(rho[None], subset)[0]


def _check_probabilities(p: np.ndarray) -> None:
    """Reject entries below ``-PSD_FLOOR`` and rows (last axis) not summing to 1; NaN fails both."""
    lo = p.min()
    if not lo >= -PSD_FLOOR:
        raise ValueError(f"probability {lo:.3e} is negative beyond tolerance or not a number")
    sums = p.sum(axis=-1)
    deviation = np.abs(sums - 1.0)
    if not deviation.max() <= PROBABILITY_SUM_TOL:
        raise ValueError(f"probabilities sum to {sums.flat[deviation.argmax()]:.12g}, expected 1")


def shannon_entropy(probs: np.ndarray | list[float]) -> float:
    """Entropy in bits of a probability vector; tiny entries are dropped."""
    return float(shannon_entropies(probs))


def shannon_entropies(probs: np.ndarray) -> np.ndarray:
    """Row-wise :func:`shannon_entropy` over the last axis, with the same checks."""
    p = np.asarray(probs, dtype=float)
    _check_probabilities(p)
    return -_plog2p(p, EIGENVALUE_FLOOR).sum(axis=-1)


def _plog2p(p: np.ndarray, floor: float) -> np.ndarray:
    """``p log2 p`` entrywise, 0 at or below ``floor``; no checks.

    Spectra take ``EIGENVALUE_FLOOR``; outcome probabilities take 0.0, which keeps the sum continuous.
    """
    q = np.where(p > floor, p, 1.0)
    return q * np.log2(q)


def _entropies(spectra: np.ndarray) -> np.ndarray:
    """Entropies in bits of a ``(B, d)`` stack of ascending spectra (may dip to ``-PSD_FLOOR``).

    Each row sums the ``p log2 p`` terms of its full spectrum, ascending; eigenvalues at or
    below ``EIGENVALUE_FLOOR`` add 0.  A row sums as it would alone.
    """
    lo = float(spectra[:, 0].min())
    if lo < -PSD_FLOOR:
        raise ValueError(f"state has negative eigenvalue {lo:.3e}")
    return -_plog2p(spectra, EIGENVALUE_FLOOR).sum(axis=1)


def _checked_spectra(m: np.ndarray, noun: str) -> np.ndarray:
    """``_hermitian_spectra(m[None])`` once ``m`` is hermitian to ``HERMITICITY_TOL``."""
    dev = float(np.abs(m - m.conj().T).max())
    if not dev <= HERMITICITY_TOL:  # NaN fails: the spectrum reads one triangle
        raise ValueError(f"{noun} is not hermitian: max deviation {dev:.3e}")
    return _hermitian_spectra(m[None])


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) = -Tr rho log2 rho via the eigenvalue spectrum."""
    return float(_entropies(_checked_spectra(rho, "matrix"))[0])


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """T(a, b) = (1/2) ||a - b||_1 for hermitian a, b."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(0.5 * np.abs(_checked_spectra(a - b, "difference")[0]).sum())
