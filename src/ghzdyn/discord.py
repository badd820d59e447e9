"""Quantum discord of noisy GHZ registers.

Global discord of an N-qubit state is minimised over products of local
projective measurements.  A frame gives qubit j the Bloch direction
``n_j = (sin theta cos phi, sin theta sin phi, cos theta)`` of its angles
``(theta_j, phi_j)``; outcome 0 projects onto +n_j, outcome 1 onto -n_j
(:func:`projector`).  Measuring pinches rho to Phi(rho) (:func:`dephase`),
and the objective is

    S(Phi(rho)) - S(rho) - sum_j [ S(Phi_j(rho_j)) - S(rho_j) ].

It is evaluated on the real Pauli tensor ``C[mu] = Tr(rho sigma_mu)``: the
frame's outcome probabilities contract C with one row pair
``0.5 * (1, +-n_j)`` per qubit, and qubit j's own are ``(1 +- r_j . n_j) / 2``
for its Bloch vector r_j, along the same axes (:class:`_GlobalObjective`).

:func:`global_discord` minimises it with one fixed, deterministic search, which takes a
whole stack of states and gives each the result it gets alone.  Each stage's rule is
stated once, beside its code:

* the stages, their starts and the tie rule: :func:`_search`;
* the uniform-frame grid, priced on every state at once, and the half of it a real stack
  prices: :meth:`_GlobalObjective.uniform`, ``_PRICED`` and ``_MIRROR``;
* the coordinate descents in lockstep, their confirmation pass and the lines a symmetric
  state copies: :func:`_lockstep`;
* a line's closed-form probabilities and its fixed scans: :meth:`_GlobalObjective.line_model`,
  :func:`_scan` and ``_ROUNDS``.

:func:`analytic_gqd` gives the closed forms of the 4-qubit channel states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import PAULI_X, PAULI_Y, PAULI_Z, Channel, closed_form_spectrum, coefficients
from .entanglement import _bisect_root
from .linalg import (BATCH_ENTRIES, DISCORD_FLOOR, EIGENVALUE_FLOOR, PROBABILITY_SUM_TOL,
                     PSD_FLOOR, _check_probabilities, _density_spectra, _entropies,
                     _plog2p, assert_density_matrix, num_qubits, shannon_entropy)

# The uniform-frame grid: theta over [0, pi] inclusive, phi over [0, 2 pi) exclusive.
_GRID_THETA = 21
_GRID_PHI = 16
_SCAN_POINTS = 9
_SCAN_OFFSETS = np.arange(_SCAN_POINTS)
# The scans of a theta and of a phi line, whatever the state: the spacing starts at pi/8 or pi/4
# and shrinks 4x a scan, to 9.4e-8 or 4.7e-8 in the last.
_ROUNDS = (12, 13)
# A descent stops after _MAX_SWEEPS sweeps, or after one that improves it by less than _SWEEP_TOL;
# a scan minimum replaces an angle only if it beats the descent's best by more than _GAIN_TOL.
_MAX_SWEEPS = 3
_SWEEP_TOL = 1e-7
_GAIN_TOL = 1e-15
_TIE_TOL = 1e-12
_PAULIS = np.stack([np.eye(2), PAULI_X, PAULI_Y, PAULI_Z])
_OUTCOME_SIGNS = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, -1.0, -1.0]])


@dataclass(frozen=True, eq=False)
class DiscordResult:
    """Minimised discord value with the frame that achieved it.

    ``branch_values`` records the objective at the named z, x and y frames,
    three points of the search grid; ``optimizer_evals`` counts the grid
    frames priced (173 on a real state, 306 on a complex one) and the scan
    points of each descent's cyclic path, not the lines a confirmation pass
    scanned past a start's first gain nor the lines it copied.
    """

    value: float
    frame: np.ndarray = field(repr=False)
    branch_values: dict[str, float]
    optimizer_evals: int


def measurement_basis(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal measurement pair along the Bloch directions n(theta, phi) and -n(theta, phi)."""
    c, s, e = math.cos(theta / 2.0), math.sin(theta / 2.0), np.exp(1j * phi)
    return np.array([c, e * s]), np.array([-s, e * c])


def projector(theta: float, phi: float, outcome: int) -> np.ndarray:
    """Rank-one projector onto the selected measurement-basis vector."""
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    v = measurement_basis(theta, phi)[outcome]
    return np.outer(v, v.conj())


def uniform_frame(n: int, theta: float, phi: float) -> np.ndarray:
    """Frame assigning the same (theta, phi) to every qubit."""
    if n < 1:
        raise ValueError(f"frame needs at least 1 qubit, got {n}")
    return np.tile(np.array([theta, phi], dtype=float), (n, 1))


def z_frame(n: int) -> np.ndarray:
    """Computational-basis measurement on every qubit."""
    return uniform_frame(n, 0.0, 0.0)


def x_frame(n: int) -> np.ndarray:
    """sigma_x-eigenbasis measurement on every qubit."""
    return uniform_frame(n, math.pi / 2.0, 0.0)


def y_frame(n: int) -> np.ndarray:
    """sigma_y-eigenbasis measurement on every qubit."""
    return uniform_frame(n, math.pi / 2.0, math.pi / 2.0)


def dephase(rho: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Projector-sum pinching of ``rho`` in the product frame, one qubit at a time."""
    n = assert_density_matrix(rho)
    frame = np.asarray(frame, dtype=float)
    if frame.shape != (n, 2):
        raise ValueError(f"frame shape {frame.shape} does not match ({n}, 2)")
    for j, (theta, phi) in enumerate(frame):
        pair = np.stack([projector(theta, phi, k) for k in (0, 1)])
        t = rho.reshape(2**j, 2, 2 ** (n - 1 - j), 2**j, 2, 2 ** (n - 1 - j))
        rho = np.einsum("kab,xbycdz,kde->xaycez", pair, t, pair).reshape(2**n, 2**n)
    return rho


def _pauli_tensors(rhos: np.ndarray, n: int) -> np.ndarray:
    """Real ``Tr(rho sigma_mu0 (x) ... (x) sigma_mu(n-1))``, mu in {I, X, Y, Z}**n, of a stack."""
    t = rhos.reshape((len(rhos),) + (2,) * (2 * n))
    for rest in range(n, 0, -1):  # trace the leading qubit against sigma_mu, append mu
        t = np.tensordot(t, _PAULIS, axes=([1, rest + 1], [2, 1]))
    return t.real.reshape(len(rhos), -1)


def _outcome_entropies(probs: np.ndarray) -> np.ndarray:
    """Row entropies of outcome probabilities, checked as by ``shannon_entropies``, unfloored."""
    _check_probabilities(probs)
    return -_plog2p(probs, 0.0).sum(axis=-1)


def _rows(frames: np.ndarray) -> np.ndarray:
    """Row pairs ``0.5 * (1, +-n_j)`` over (I, X, Y, Z) of ``(..., n, 2)`` frames."""
    theta, phi = frames[..., 0], frames[..., 1]
    s = np.sin(theta)
    axes = np.stack([np.ones_like(s), s * np.cos(phi), s * np.sin(phi), np.cos(theta)], -1)
    return 0.5 * axes[..., None, :] * _OUTCOME_SIGNS


class _GlobalObjective:
    """Discord objective of frames on a stack of states, frame-independent pieces precomputed.

    A state is held as its Pauli tensor, each qubit's ``(1, r_j)`` and the
    entropies of the state (from ``spectra``, its ascending spectrum) and of
    its marginals (eigenvalues ``(1 +- |r_j|) / 2``).  Frame ``b`` of a batch
    is measured on state ``owner[b]``.  Each frame's arithmetic is the same
    whatever batch it lands in, so its value is too.
    """

    def __init__(self, rhos: np.ndarray, n: int, spectra: np.ndarray) -> None:
        self.coefficients = _pauli_tensors(rhos, n)
        self.bloch = np.stack([self.coefficients.reshape(len(rhos), 4**j, 4, -1)[:, 0, :, 0]
                               for j in range(n)], axis=1)
        self.state_entropy = _entropies(spectra)
        radius = np.linalg.norm(self.bloch[..., 1:], axis=-1)
        halves = 0.5 * (self.bloch[..., :1] + np.stack([-radius, radius], -1))
        self.marginal_entropies = _entropies(halves.reshape(-1, 2)).reshape(len(rhos), n)
        self.batch = max(1, BATCH_ENTRIES // self.coefficients.shape[1])  # 4**n entries a frame
        # The symmetries the search uses: a real stack, whose Pauli entries with an odd count of
        # Y vanish, and its states equal bit for bit to their cyclic qubit shift.
        self.real = not np.iscomplexobj(rhos)
        shifted = np.moveaxis(rhos.reshape((len(rhos),) + (2,) * (2 * n)), (1, n + 1), (n, 2 * n))
        self.symmetric = self.real & (rhos == shifted.reshape(rhos.shape)).all(axis=(1, 2))

    def _contract(self, rows: list[np.ndarray], owner: np.ndarray) -> np.ndarray:
        """States ``owner``'s Pauli tensors contracted on qubit j with ``(B, m_j, 4)`` ``rows[j]``."""
        t, lead = self.coefficients[owner], 1
        for r in rows:
            t = r[:, None] @ t.reshape(len(owner), lead, 4, -1)
            lead *= r.shape[1]
        return t.reshape(len(owner), -1)

    def _local(self, rows: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """``S(Phi_j(rho_j)) - S(rho_j)`` of every qubit for ``(B, n, 2, 4)`` row pairs."""
        probs = (rows @ self.bloch[owner][..., None])[..., 0]
        return _outcome_entropies(probs) - self.marginal_entropies[owner]

    def __call__(self, frames: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Objective values of ``(B, n, 2)`` frames on states ``owner``, all in one batch."""
        rows = _rows(frames)
        total = _outcome_entropies(self._contract(list(rows.swapaxes(0, 1)), owner))
        return total - self.state_entropy[owner] - self._local(rows, owner).sum(axis=1)

    def uniform(self, frames: np.ndarray) -> np.ndarray:
        """Values ``(states, F)`` of uniform ``(F, n, 2)`` frames on every state.

        Every qubit of a uniform frame takes the same row pair, so all states
        meet it together: for each qubit before the last, the frame's row pair
        multiplies every state's Pauli tensor at once, the states side by side
        as columns, and the last qubit's rows and every state's Bloch rows go
        through one matrix-vector product per frame and outcome.  Each probability is the four-term sum :meth:`__call__` hands
        to the same BLAS routine, only inside a larger product; where BLAS sums
        a row the same way whatever the product's size, as OpenBLAS does, the
        values are bit for bit those of :meth:`__call__`.  A chunk of frames
        takes ``4 * BATCH_ENTRIES`` entries beside the states.
        """
        states, n = self.bloch.shape[:2]
        columns = np.ascontiguousarray(self.coefficients.T)  # (4**n, states)
        half, step = 2 ** (n - 1), max(1, 4 * BATCH_ENTRIES // columns.size)
        values, every = [], _rows(frames[:, 0])  # (F, 2, 4)
        for i in range(0, len(frames), step):
            rows = every[i:i + step]
            count = len(rows)
            t = np.broadcast_to(columns, (count,) + columns.shape)
            for j in range(n - 1):
                t = rows[:, None] @ t.reshape(count, 2**j, 4, -1)
            # Contiguous rows of 4, so that each (frame, outcome) product is one BLAS gemv.
            last = np.empty((count, states * (half + n), 4))
            t = t.reshape(count, half, 4, states).transpose(0, 3, 1, 2)
            last[:, :states * half] = t.reshape(count, -1, 4)
            last[:, states * half:] = self.bloch.reshape(-1, 4)
            probs = (last[:, None] @ rows[..., None])[..., 0]  # (f, 2, rows of last)
            joint = probs[..., :states * half].reshape(count, 2, states, half).transpose(0, 2, 3, 1)
            local = probs[..., states * half:].reshape(count, 2, states, n).transpose(0, 2, 3, 1)
            local = _outcome_entropies(local) - self.marginal_entropies
            values.append(_outcome_entropies(joint.reshape(count, states, -1)) - self.state_entropy
                          - local.sum(axis=-1))
        return np.concatenate(values).T

    def line_model(self, frames: np.ndarray, owners: np.ndarray, qubits, coords):
        """Probabilities and value offset along angle ``coords[i]`` of ``qubits[i]`` from frame i.

        On a line the qubit's direction is ``a + b cos x + c sin x``, so every
        outcome probability is ``A + B cos x + C sin x``.  Returns the rows
        ``(A, B, C)`` as ``(F, 3, 2**n + 2)`` coefficients, the joint outcomes
        first and then the qubit's own two, checked for every x at once (see
        :func:`_check_line`), and the part of the value that stays put, so that
        a value is ``H(joint) - H(own) + shift``.  A scalar qubit or coord serves
        every frame.  One contraction per qubit (``batch`` frames at a time)
        gives them, and each frame's arithmetic does not depend on the others.
        """
        count, n = frames.shape[:2]
        qubits, coords, each = np.full(count, qubits), np.full(count, coords), np.arange(count)
        # Theta: n = cos x z + sin x (cos phi, sin phi, 0); phi: n = cos theta z + sin theta
        # (cos x, sin x, 0).  Either way the row pairs r0, r1, r2 at x = 0, pi/2, pi give the
        # line's rows: 0.5 (1, +-a) = (r0 + r2) / 2, 0.5 (0, +-b) = (r0 - r2) / 2 and
        # 0.5 (0, +-c) = r1 - (r0 + r2) / 2.
        ends = np.repeat(frames[each, None, qubits], 3, axis=1)
        ends[each, :, coords] = 0.0, 0.5 * math.pi, math.pi
        rows = _rows(np.concatenate([frames, ends], axis=1))
        r0, r1, r2 = rows[:, n], rows[:, n + 1], rows[:, n + 2]
        basis = np.empty((count, 2, 3, 4))
        basis[:, :, 0], basis[:, :, 1], basis[:, :, 2] = r0 + r2, r0 - r2, 2.0 * r1 - r0 - r2
        basis, rows = basis.reshape(count, 6, 4) / 2.0, rows[:, :n]
        coef = np.empty((count, 3, 2**n + 2))
        for qubit in np.flatnonzero(np.bincount(qubits, minlength=n)):
            on = np.flatnonzero(qubits == qubit)
            for part in (on[i:i + self.batch] for i in range(0, len(on), self.batch)):
                legs = list(rows[part].swapaxes(0, 1))
                legs[qubit] = basis[part]
                t = self._contract(legs, owners[part]).reshape(len(part), 2**qubit, 2, 3, -1)
                coef[part, :, :2**n] = t.transpose(0, 3, 1, 2, 4).reshape(len(part), 3, -1)
        own = basis @ self.bloch[owners, qubits][..., None]
        coef[..., 2**n:] = own.reshape(count, 2, 3).swapaxes(1, 2)
        _check_line(coef, 2**n)
        others = np.arange(n - 1) + (np.arange(n - 1) >= qubits[:, None])  # each frame's n - 1
        local = self._local(rows, owners)[each[:, None], others].sum(axis=1)
        shift = self.marginal_entropies[owners, qubits] - self.state_entropy[owners] - local
        return coef, shift

    def lines(self, frames: np.ndarray, owners: np.ndarray, qubits, coords):
        """Evaluator of the objective along angle ``coords[i]`` of qubit ``qubits[i]`` from frame i.

        ``evaluate(xs, rows)`` values ``(len(rows), K)`` angles, row k on frame
        ``rows[k]`` (every frame by default), on the :meth:`line_model`, at
        O(2**n) a trial and with no check of its own: the model's probabilities
        passed theirs for every x.
        """
        coef, shift = self.line_model(frames, owners, qubits, coords)
        width = 2 ** frames.shape[1]

        def evaluate(xs: np.ndarray, rows=slice(None)) -> np.ndarray:
            model, offset = coef[rows], shift[rows]
            out, step = np.empty(xs.shape), max(1, BATCH_ENTRIES // (coef.shape[2] * xs.shape[1]))
            for part in (slice(i, i + step) for i in range(0, len(xs), step)):
                x = xs[part]
                trig = np.empty(x.shape + (3,))
                trig[..., 0] = 1.0
                np.cos(x, out=trig[..., 1])
                np.sin(x, out=trig[..., 2])
                terms = _plog2p(trig @ model[part], 0.0)  # H(joint) - H(own), as sums of terms
                own = terms[..., width] + terms[..., width + 1]
                out[part] = own - np.add.reduce(terms[..., :width], -1) + offset[part, None]
            return out

        return evaluate


def _check_line(coef: np.ndarray, width: int) -> None:
    """Reject line probabilities ``A + B cos x + C sin x`` out of range at any x; NaN fails.

    ``coef`` holds ``(F, 3, m)`` rows (A, B, C), columns ``:width`` and
    ``width:`` each one outcome distribution.  An outcome's least value on
    the line is ``A - hypot(B, C)``, and a distribution's sum strays from 1
    by at most ``|sum A - 1| + hypot(sum B, sum C)``, so these bounds are
    stricter than checking every trial.
    """
    low = (coef[:, 0] - np.hypot(coef[:, 1], coef[:, 2])).min()
    if not low >= -PSD_FLOOR:
        raise ValueError(f"probability {low:.3e} on a line is negative beyond tolerance "
                         "or not a number")
    sums = np.add.reduceat(coef, [0, width], axis=2)  # (F, 3, 2): each distribution's A, B, C
    swing = np.hypot(sums[:, 1], sums[:, 2])
    deviation = np.abs(sums[:, 0] - 1.0) + swing
    if not deviation.max() <= PROBABILITY_SUM_TOL:
        k = np.unravel_index(deviation.argmax(), deviation.shape)
        raise ValueError(f"probabilities on a line sum to {sums[k[0], 0, k[1]]:.12g} "
                         f"+- {swing[k]:.3g}, expected 1")


class _ConditionalEntropy:
    """Objective of :func:`bipartite_discord` on 1-qubit frames for qubit 1 (owner 0).

    Value: sum_k p_k S(rho_0 given outcome k) - S(rho_0), which is -J, for
    the outcomes of :func:`projector`.  Outcome k leaves qubit 0 in
    ``(u_0 + u . sigma) / 2``, ``u = C . 0.5 (1, +-n)`` for the Pauli tensor
    C, of eigenvalues ``(u_0 +- |u|) / 2``: the value is H(those four) - H(p) - S(rho_0).
    The one-state :class:`_GlobalObjective` of rho, validated on the way, holds C and
    the entropies ``s_a``, ``s_b`` and ``s_ab`` of rho_0, rho_1 and rho.  The search
    takes no symmetry shortcut on it.
    """

    real, symmetric = False, np.zeros(1, dtype=bool)

    def __init__(self, rho: np.ndarray) -> None:
        state = _GlobalObjective(rho[None], 2, _density_spectra(rho[None]))
        self.c = state.coefficients.reshape(4, 4)
        self.s_a, self.s_b = state.marginal_entropies[0].tolist()
        self.s_ab = float(state.state_entropy[0])

    def __call__(self, frames: np.ndarray, owner: np.ndarray) -> np.ndarray:
        u = _rows(frames[:, 0]) @ self.c.T
        radius = np.linalg.norm(u[..., 1:], axis=-1)
        lam = 0.5 * (u[..., :1] + np.stack([-radius, radius], -1))
        return _outcome_entropies(lam.reshape(-1, 4)) - _outcome_entropies(u[..., 0]) - self.s_a

    def uniform(self, frames: np.ndarray) -> np.ndarray:
        """Values ``(1, F)`` of ``(F, 1, 2)`` frames."""
        return self(frames, np.zeros(len(frames), dtype=int))[None]

    def lines(self, frames: np.ndarray, owners: np.ndarray, qubits, coords):
        """Evaluator of ``(len(rows), K)`` angles along angle ``coords[i]`` of frame i (its
        only qubit), row k on frame ``rows[k]``, as whole trial frames."""
        coords = np.full(len(frames), coords)

        def evaluate(xs: np.ndarray, rows=slice(None)) -> np.ndarray:
            trials = np.repeat(frames[rows], xs.shape[1], axis=0)
            trials[np.arange(xs.size), 0, np.repeat(coords[rows], xs.shape[1])] = xs.reshape(-1)
            return self(trials, owners[rows].repeat(xs.shape[1])).reshape(xs.shape)
        return evaluate


def _scan(evaluate, coords: np.ndarray):
    """Line minima of every row of ``evaluate``, row i along angle ``coords[i]``, in lockstep.

    A row scans ``_SCAN_POINTS`` points over [0, pi] or [0, 2 pi], then one
    spacing either side of the scan minimum, ``_ROUNDS[coords[i]]`` scans in
    all (brackets unclipped: a minimum just across the phi seam stays in
    reach); a round evaluates only the rows with a scan left.  Returns each
    row's best point and its value.
    """
    rounds = np.take(_ROUNDS, coords)
    lo, hi = np.zeros(len(coords)), (1 + coords) * math.pi
    x, fx = np.zeros(len(coords)), np.full(len(coords), np.inf)
    for r in range(rounds.max()):
        rows = slice(None) if rounds.min() > r else np.flatnonzero(rounds > r)
        step = (hi[rows] - lo[rows]) / (_SCAN_POINTS - 1)
        scan = evaluate(lo[rows, None] + step[:, None] * _SCAN_OFFSETS, rows)
        xk, fk = lo[rows] + step * scan.argmin(axis=1), np.minimum.reduce(scan, axis=1)
        gain = fk < fx[rows]
        x[rows], fx[rows] = np.where(gain, xk, x[rows]), np.where(gain, fk, fx[rows])
        lo[rows], hi[rows] = xk - step, xk + step
    return x, fx


def _lockstep(objective, starts: np.ndarray, values: np.ndarray, owners: np.ndarray):
    """Coordinate descent by repeated line scans from every start, all in lockstep.

    A sweep searches each angle in turn, qubit by qubit, with :func:`_scan`;
    the best point replaces the angle if it beats the descent's best by more
    than ``_GAIN_TOL``.  A descent ends after ``_MAX_SWEEPS`` sweeps, or after
    one that gains less than ``_SWEEP_TOL``.  The first sweep opens with a
    confirmation pass: every start's lines, set up from its start frame in
    one ``objective.lines`` call and scanned together.  Lines 0..k, k a
    start's first line that gains, see the frame they see in cyclic order, so
    the start takes line k's angle and value and resumes at line k + 1; its
    later lines are discarded.  A start that no line improves ends there.

    A start scans its 2n lines, except a uniform start on a state that
    ``objective.symmetric`` marks: there qubit j's theta and phi lines are
    qubit 0's in exact arithmetic, so the start scans only lines 0 and 1, and
    line 2j + c is by rule a copy of line c.  If neither gains, no line gains
    and the start ends; otherwise its first gain is line 0 or 1, as when all
    its lines are scanned.  Start ``i`` descends on state ``owners[i]`` from
    value ``values[i]`` exactly as it would alone in cyclic order, copied
    lines by that rule, never ending above it.  Returns values, frames and
    the scan points of each cyclic path, copies not counted, in start order.
    """
    frames, owners, best = np.array(starts, float), np.asarray(owners), np.array(values, float)
    (count, n), live, sweep_start = frames.shape[:2], np.arange(len(frames)), best.copy()
    copied = objective.symmetric[owners] & (frames == frames[:, :1]).all(axis=(1, 2))
    width = np.where(copied, 2, 2 * n)  # the lines each start scans
    start, ends = np.repeat(live, width), np.cumsum(width)
    heads, row = ends - width, np.arange(ends[-1])  # each start's first row
    qubits, coords = np.divmod(row - heads[start], 2)  # the sweep's line order
    x, fx = _scan(objective.lines(frames[start], owners[start], qubits, coords), coords)
    better = fx < best[start] - _GAIN_TOL
    k = np.minimum.reduceat(np.where(better, row, (ends - 1)[start]), heads)  # first gain, or last
    points = np.take(_ROUNDS, coords) * _SCAN_POINTS
    evals = np.add.reduceat(np.where(row <= k[start], points, 0), heads)
    moved, line = np.flatnonzero(better[k]), k - heads
    frames[moved, line[moved] // 2, line[moved] % 2] = x[k[moved]]
    best[moved] = fx[k[moved]]
    resume = np.where(better[k], line + 1, 2 * n)
    for _ in range(_MAX_SWEEPS):
        for line, (qubit, coord) in enumerate(np.ndindex(frames.shape[1:])):
            rows = live[resume[live] <= line]
            if not len(rows):
                continue
            x, fx = _scan(objective.lines(frames[rows], owners[rows], qubit, coord),
                          np.full(len(rows), coord))
            evals[rows] += _ROUNDS[coord] * _SCAN_POINTS
            better = fx < best[rows] - _GAIN_TOL
            frames[rows[better], qubit, coord] = x[better]
            best[rows[better]] = fx[better]
        live = live[sweep_start[live] - best[live] >= _SWEEP_TOL]
        if not len(live):
            break
        sweep_start, resume = best.copy(), np.zeros_like(resume)
    return best, frames, evals


# The uniform grid's (theta, phi), theta-major and phi ascending, with one frame (phi 0) at
# each pole.
_GRID_ANGLES = np.column_stack([
    np.linspace(0.0, math.pi, _GRID_THETA).repeat([1] + [_GRID_PHI] * (_GRID_THETA - 2) + [1]),
    np.r_[0.0, np.tile(np.linspace(0.0, 2.0 * math.pi, _GRID_PHI, endpoint=False),
                       _GRID_THETA - 2), 0.0]])
# Grid indices of the named frames, whose grid values each search reports.
_NAMED = {name: int(np.flatnonzero((_GRID_ANGLES == frame(1)).all(axis=1))[0])
          for name, frame in (("z", z_frame), ("x", x_frame), ("y", y_frame))}
# A real state takes the same value at (theta, phi) and (theta, 2 pi - phi), as its Pauli entries
# with an odd count of Y vanish.  A real stack prices the frames _PRICED, those with phi in
# [0, pi], and grid frame i takes the value of _PRICED[_MIRROR[i]], which shares its theta and
# |phi - pi|: itself, or its phi_k <-> phi_(16 - k) mirror.
_PRICED = np.flatnonzero(_GRID_ANGLES[:, 1] <= math.pi)
_MIRROR = np.abs(np.abs(_GRID_ANGLES - [0.0, math.pi])[:, None]
                 - np.abs(_GRID_ANGLES[_PRICED] - [0.0, math.pi])).sum(axis=-1).argmin(axis=1)


def _grid(n: int) -> np.ndarray:
    """The grid's uniform ``n``-qubit frames, one per row of ``_GRID_ANGLES``."""
    return np.repeat(_GRID_ANGLES[:, None], n, axis=1)


def _search(objective, n: int):
    """Minimise a batched frame objective over ``n``-qubit product frames for each of its states.

    All states pass the two stages together: the uniform grid, priced on
    every state by one ``objective.uniform`` call, then one lockstep descent
    from each state's grid optimum and named frames (grid points ``_NAMED``),
    distinct by grid index, each from its grid value.  A stack that
    ``objective.real`` marks prices only the 173 frames ``_PRICED`` and gives
    the other 133 their mirror partners' values (``_MIRROR``), so a grid
    pick is always a priced frame.  Both stages take the lexicographically
    smallest angle vector within ``_TIE_TOL`` of the least value: on the
    grid, which is theta-major, the first such index; then the best descent,
    as none ends above its start.  Returns per-state arrays of values,
    frames, named frames' grid values and evaluation counts, the grid
    counting the frames priced.
    """
    grid = _grid(n)
    if objective.real:
        priced, grid_values = len(_PRICED), objective.uniform(grid[_PRICED])[:, _MIRROR]
    else:
        priced, grid_values = len(grid), objective.uniform(grid)
    first = np.argmax(grid_values <= grid_values.min(axis=1, keepdims=True) + _TIE_TOL, axis=1)
    named = np.array(list(_NAMED.values()))
    # -1 stands for a named frame that is also the grid pick: one descent from it suffices.
    ks = np.column_stack([first, np.where(named == first[:, None], -1, named)])
    owners, ks = np.nonzero(ks >= 0)[0], ks[ks >= 0]
    values, frames, evals = _lockstep(objective, grid[ks], grid_values[owners, ks], owners)

    heads = np.flatnonzero(np.diff(owners, prepend=-1))  # each state's first descent
    tied = values <= np.minimum.reduceat(values, heads)[owners] + _TIE_TOL
    # By state, then near-tied first, then by angle vector (lexsort's last key leads).
    pick = np.lexsort((*frames.reshape(len(frames), -1).T[::-1], ~tied, owners))[heads]
    counts = priced + np.add.reduceat(evals, heads)
    return values[pick], frames[pick], grid_values[:, named], counts


def _global_discords(rhos: np.ndarray, spectra: np.ndarray) -> list[DiscordResult]:
    """:func:`global_discord` of a validated ``(B, d, d)`` stack, given its :func:`_density_spectra`.

    One search of the whole stack, which the caller bounds: at most ``sweep._CHUNK`` states from a
    sweep chunk, one from :func:`global_discord`, at most 10 from ``--verify``.  Each result is the
    one :func:`global_discord` gives for that state alone.
    """
    n = rhos.shape[-1].bit_length() - 1
    values, frames, branches, evals = _search(_GlobalObjective(rhos, n, spectra), n)
    if values.min() < -DISCORD_FLOOR:
        raise RuntimeError(f"discord objective minimised to {values.min():.3e} < 0")
    frames.setflags(write=False)
    return [DiscordResult(max(0.0, value), frame, dict(zip(_NAMED, branch)), count)
            for value, frame, branch, count in zip(values.tolist(), frames, branches.tolist(),
                                                   evals.tolist())]


def global_discord(rho: np.ndarray) -> DiscordResult:
    """Minimise the discord objective over product measurement frames.

    Deterministic by construction: the uniform grid (named frames included)
    is evaluated in a fixed order, descent starts are deduplicated, and ties
    within ``_TIE_TOL`` resolve to the lexicographically smallest angle vector.

    The result is the lowest point the capped descents reach: on 9 random
    4-qubit states (``default_rng(11)``, ranks 2, 4, 16) uncapped ones end 4e-5
    to 0.10 lower.  It matches :func:`analytic_gqd` on the channel states; for
    other states it is an upper bound on the global discord, nothing more.
    """
    num_qubits(rho)
    return _global_discords(rho[None], _density_spectra(rho[None]))[0]


def bipartite_discord(rho: np.ndarray) -> float:
    """Measurement-based discord of a 2-qubit state, measuring qubit 1.

    D = I(rho) - max over (theta, phi) of J, with mutual information
    I = S(rho_0) + S(rho_1) - S(rho) and classical correlations
    J = S(rho_0) - sum_k p_k S(rho given outcome k).
    """
    n = num_qubits(rho)
    if n != 2:
        raise ValueError(f"bipartite discord needs exactly 2 qubits, got {n}")
    objective = _ConditionalEntropy(rho)
    mutual = objective.s_a + objective.s_b - objective.s_ab
    best = _search(objective, 1)[0].item()

    value = mutual + best  # best == -max J
    if value < -DISCORD_FLOOR:
        raise RuntimeError(f"bipartite discord evaluated to {value:.3e} < 0")
    return max(0.0, value)


def _xlg(v: float) -> float:
    """v * log2(v) extended by continuity to 0 at v = 0."""
    return 0.0 if v <= EIGENVALUE_FLOOR else v * math.log2(v)


def analytic_gqd(channel: Channel, kt: float) -> float:
    """Closed-form global discord of the evolved 4-qubit GHZ state."""
    channel = Channel(channel)
    if not 0.0 <= kt < math.inf:
        raise ValueError(f"kappa*t must be finite and nonnegative, got {kt}")
    if channel in (Channel.X, Channel.Y):
        entropy = shannon_entropy(closed_form_spectrum(channel, kt))
        return min(1.0, 3.0 - entropy)
    if channel is Channel.Z:
        x = 2.0 * coefficients(channel, kt).corner
        return 0.5 * (_xlg(1.0 - x) + _xlg(1.0 + x))
    y = math.exp(-8.0 * kt)
    a = 1.0 + 6.0 * y + y * y
    b = 1.0 + 6.0 * y - 7.0 * y * y
    c = 1.0 + 6.0 * y + 9.0 * y * y
    return -_xlg(a) / 8.0 + _xlg(b) / 16.0 + _xlg(c) / 16.0


def sudden_change_point(channel: Channel) -> float:
    """kappa*t where the X/Y discord leaves its unit plateau.

    Bisection on 2 - S(rho), the gap between the plateau branch and the
    transverse branch; only the X and Y channels exhibit the crossing.
    """
    channel = Channel(channel)
    if channel not in (Channel.X, Channel.Y):
        raise ValueError(f"discord branches never cross for channel {channel.value!r}")

    def gap(kt: float) -> float:
        return 2.0 - shannon_entropy(closed_form_spectrum(channel, kt))

    return _bisect_root(gap, 0.0, 1.0)
