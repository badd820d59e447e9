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
for its Bloch vector r_j, along the same axes.

:func:`global_discord` minimises it with a deterministic three-stage search:
the named z/x/y frames, a uniform-frame grid, then coordinate descent with
golden-section line searches from the best starts.  The descents keep their
state in arrays and run in lockstep, each round one objective batch, and
one search carries a block of states together (each frame is measured on
the state that owns it), so a sweep pays a round's fixed cost once per
block of cells.  A frame's value does not depend on its batch, so each state
gets the result it gets when searched alone.  :func:`analytic_gqd` gives
the closed-form values for the 4-qubit channel states to cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import PAULI_X, PAULI_Y, PAULI_Z, Channel, closed_form_spectrum, coefficients
from .entanglement import _bisect_root
from .linalg import (BATCH_ENTRIES, DISCORD_FLOOR, assert_density_matrix, partial_trace,
                     shannon_entropies, shannon_entropy, von_neumann_entropy)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_POINTS = 9
_ANGLE_TOL = 1e-7
_TIE_TOL = 1e-12
# Outcome probabilities at or below this are outcomes that never occur.
_PROB_FLOOR = 1e-14
_PAULIS = np.stack([np.eye(2), PAULI_X, PAULI_Y, PAULI_Z])
_OUTCOME_SIGNS = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, -1.0, -1.0]])


@dataclass(frozen=True)
class OptimizerConfig:
    """Search controls for the measurement-frame minimisation.

    ``theta_grid`` points span [0, pi] inclusive and ``phi_grid`` points
    span [0, 2*pi) in the uniform-frame scan; ``refine_sweeps`` bounds the
    coordinate-descent passes, each stopping early once a full sweep
    improves the objective by less than ``tolerance``.
    """

    theta_grid: int = 21
    phi_grid: int = 16
    refine_sweeps: int = 3
    tolerance: float = 1e-7

    def __post_init__(self) -> None:
        if self.theta_grid < 2:
            raise ValueError(f"theta_grid must be >= 2, got {self.theta_grid}")
        if self.phi_grid < 1:
            raise ValueError(f"phi_grid must be >= 1, got {self.phi_grid}")
        if self.refine_sweeps < 0:
            raise ValueError(f"refine_sweeps must be >= 0, got {self.refine_sweeps}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")


@dataclass(frozen=True, eq=False)
class DiscordResult:
    """Minimised discord value with the frame that achieved it.

    ``branch_values`` records the objective at the named z, x and y
    frames; ``optimizer_evals`` counts every objective evaluation spent.
    """

    value: float
    frame: np.ndarray = field(repr=False)
    branch_values: dict[str, float]
    optimizer_evals: int


def _local_bases(angles: np.ndarray) -> np.ndarray:
    """Measurement pairs for ``(..., 2)`` Bloch angles; ``out[..., k, :]`` is vector k."""
    theta, phi = angles[..., 0], angles[..., 1]
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    e = np.exp(-1j * phi)
    out = np.empty(theta.shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1] = c, e * s
    out[..., 1, 0], out[..., 1, 1] = -s, e * c
    return out


def measurement_basis(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal measurement pair along the Bloch directions n(theta, phi) and -n(theta, phi)."""
    return tuple(_local_bases(np.array([theta, phi], dtype=float)).conj())


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


def _pauli_tensor(rho: np.ndarray, n: int) -> np.ndarray:
    """Real ``Tr(rho sigma_mu0 (x) ... (x) sigma_mu(n-1))``, mu in {I, X, Y, Z}**n, flattened."""
    t = rho.reshape((2,) * (2 * n))
    for rest in range(n, 0, -1):  # trace the leading qubit against sigma_mu, append mu
        t = np.tensordot(t, _PAULIS, axes=([0, rest], [2, 1]))
    return t.real.reshape(-1)


class _GlobalObjective:
    """Discord objective of frames on a stack of states, frame-independent pieces precomputed.

    A state is held as its Pauli tensor and each qubit's ``(1, r_j)``.  Frame
    ``b`` of a batch is measured on state ``owner[b]``.  Each frame's
    arithmetic is the same whatever batch it lands in, so its value is too.
    """

    def __init__(self, rhos: np.ndarray, n: int) -> None:
        self.coefficients = np.stack([_pauli_tensor(rho, n) for rho in rhos])
        self.bloch = np.stack([self.coefficients.reshape(len(rhos), 4**j, 4, -1)[:, 0, :, 0]
                               for j in range(n)], axis=1)
        self.state_entropy = np.array([von_neumann_entropy(rho) for rho in rhos])
        self.marginal_entropies = np.array(
            [[von_neumann_entropy(partial_trace(rho, (j,))) for j in range(n)] for rho in rhos])
        self.batch = max(1, BATCH_ENTRIES // self.coefficients.shape[1])  # 4**n entries a frame

    def __call__(self, frames: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Objective values of ``(B, n, 2)`` frames on states ``owner``, ``batch`` at a time."""
        return np.concatenate([self._evaluate(frames[i:i + self.batch], owner[i:i + self.batch])
                               for i in range(0, len(frames), self.batch)])

    def _evaluate(self, frames: np.ndarray, owner: np.ndarray) -> np.ndarray:
        count, n = frames.shape[:2]
        theta, phi = frames[..., 0], frames[..., 1]
        s = np.sin(theta)
        axes = np.stack([np.ones_like(s), s * np.cos(phi), s * np.sin(phi), np.cos(theta)], -1)
        rows = 0.5 * axes[..., None, :] * _OUTCOME_SIGNS  # 0.5 * (1, +-n_j) per qubit
        probs = self.coefficients[owner]
        for j in range(n):
            probs = rows[:, j, None] @ probs.reshape(count, 2**j, 4, -1)
        total = shannon_entropies(probs.reshape(count, -1)) - self.state_entropy[owner]
        local = shannon_entropies((rows @ self.bloch[owner][..., None])[..., 0])
        return total - (local - self.marginal_entropies[owner]).sum(axis=1)


class _ConditionalEntropy:
    """Objective of :func:`bipartite_discord` on 1-qubit frames for qubit 1.

    Value: sum_k p_k S(rho_0 given outcome k) - S(rho_0), which is -J.
    It holds one state, so every frame's ``owner`` is 0.
    """

    def __init__(self, rho: np.ndarray) -> None:
        self.t = rho.reshape(2, 2, 2, 2)
        self.s_a = von_neumann_entropy(partial_trace(rho, (0,)))

    def __call__(self, frames: np.ndarray, owner: np.ndarray) -> np.ndarray:
        v = _local_bases(frames[:, 0])
        m = np.einsum("bkx,axcy,bky->bkac", v.conj(), self.t, v)
        p = np.trace(m, axis1=-2, axis2=-1).real
        seen = p > _PROB_FLOOR
        weighted = np.zeros_like(p)
        lam = np.linalg.eigvalsh(m[seen] / p[seen, None, None])
        weighted[seen] = p[seen] * shannon_entropies(lam)
        return weighted.sum(axis=-1) - self.s_a


def _lockstep(objective, starts: list[np.ndarray], owners: list[int], config: OptimizerConfig):
    """Coordinate descent with golden line searches from every start, all in lockstep.

    A line search scans one angle at ``_SCAN_POINTS`` points, golden-section
    searches the bracket around the scan minimum, and keeps the better minimum
    if it beats the descent's best.  A descent ends after ``refine_sweeps``
    sweeps, or after a sweep that gains less than ``tolerance``.  Each round
    evaluates every live descent's pending trials as one batch.  Start ``i``
    descends on state ``owners[i]`` exactly as it would alone.  Returns each
    descent's ``(value, frame)`` and evaluation count, in start order.
    """
    frames = np.array(starts, dtype=float)
    count, n = frames.shape[:2]
    angles = frames.reshape(count, 2 * n)  # a view; line search l moves angle l % 2n
    owners = np.asarray(owners)
    scans = np.linspace(0.0, [math.pi, 2.0 * math.pi], _SCAN_POINTS, axis=1)  # theta, phi
    best = objective(frames, owners)
    evals = np.ones(count, dtype=int)
    sweep_start, line = best.copy(), np.zeros(count, dtype=int)
    x0, f0 = np.zeros((2, count))  # each descent's latest scan minimum
    # Descents scanning and golden stepping, by index.  A golden descent holds its
    # bracket [a, b], inner points c < d valued fc and fd, and whether its pending
    # point is c (``left``); the first ``fresh`` have a new bracket, so c is too.
    scan = np.arange(count if config.refine_sweeps else 0)
    golden = scan[:0]
    a = b = c = d = fc = fd = np.zeros(0)
    left, fresh, regroup = np.zeros(0, dtype=bool), 0, True
    while len(scan) + len(golden):
        xs = np.where(left, c, d)
        if regroup:  # the batch's rows changed since the last round
            rows = np.concatenate([np.repeat(scan, _SCAN_POINTS), golden[:fresh], golden])
            trials, owned, counts = angles[rows], owners[rows], np.bincount(rows, minlength=count)
            pending = np.arange(len(rows)), line[rows] % (2 * n)
            xs = np.concatenate([scans[line[scan] % 2].reshape(-1), c[:fresh], xs])
        trials[pending] = xs
        values = objective(trials.reshape(-1, n, 2), owned)
        evals += counts
        f = values[len(values) - len(golden):]
        fc, fd = np.where(left, f, fc), np.where(left, fd, f)
        fc[:fresh] = values[len(scan) * _SCAN_POINTS:len(scan) * _SCAN_POINTS + fresh]

        going = b - a > _ANGLE_TOL
        done = golden[~going]
        regroup = len(scan) + fresh + len(done)
        if len(done):
            end = ~going
            x, fx = np.where(fc[end] < fd[end], (c[end], fc[end]), (d[end], fd[end]))
            x, fx = np.where(fx <= f0[done], (x, fx), (x0[done], f0[done]))
            better, at = fx < best[done] - 1e-15, (done, line[done] % (2 * n))
            angles[at] = np.where(better, x, angles[at])
            best[done] = np.where(better, fx, best[done])
            a, b, c, d, fc, fd = (v[going] for v in (a, b, c, d, fc, fd))
            golden = golden[going]
            line[done] += 1
            ended = line[done] % (2 * n) == 0
            stop = ended & ((sweep_start[done] - best[done] < config.tolerance)
                            | (line[done] >= 2 * n * config.refine_sweeps))
            sweep_start[done[ended]] = best[done[ended]]
            done = done[~stop]

        # Golden step: drop the bracket end beyond the worse inner point.
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        shift = _GOLDEN * (b - a)
        c, d = np.where(left, b - shift, d), np.where(left, c, a + shift)
        fc = fd = np.minimum(fc, fd)

        fresh = len(scan)
        if fresh:  # open a bracket around each scan minimum; fc and fd are filled next round
            coord, f_scan = line[scan] % 2, values[:fresh * _SCAN_POINTS].reshape(fresh, -1)
            x0[scan], f0[scan] = scans[coord, f_scan.argmin(axis=1)], f_scan.min(axis=1)
            step, top = scans[coord, 1], scans[coord, -1]  # the scan's spacing and end
            lo, up = np.maximum(0.0, x0[scan] - step), np.minimum(top, x0[scan] + step)
            new = lo, up, up - _GOLDEN * (up - lo), lo + _GOLDEN * (up - lo), f0[scan], f0[scan]
            a, b, c, d, fc, fd = map(np.concatenate, zip(new, (a, b, c, d, fc, fd)))
            golden = np.concatenate([scan, golden])
            left = np.concatenate([np.zeros(fresh, dtype=bool), left])
        scan = done
    return [(float(v), f) for v, f in zip(best, frames)], evals.tolist()


def _search(objective, states: int, n: int, config: OptimizerConfig):
    """Minimise a batched frame objective over ``n``-qubit product frames for ``states`` states.

    All states pass the three stages together: the named z/x/y frames, the
    uniform grid, then one lockstep descent from every state's deduplicated
    grid optimum and named frames.  Ties within ``_TIE_TOL`` resolve to the
    lexicographically smallest angle vector.  Returns one ``(value, frame,
    branch_values, evals)`` per state.
    """
    owners = np.arange(states)
    named = {"z": z_frame(n), "x": x_frame(n), "y": y_frame(n)}
    named_frames = np.stack(list(named.values()))
    named_values = objective(np.tile(named_frames, (states, 1, 1)),
                             np.repeat(owners, len(named))).reshape(states, len(named))

    grid = np.empty((config.theta_grid, config.phi_grid, n, 2))
    grid[..., 0] = np.linspace(0.0, math.pi, config.theta_grid)[:, None, None]
    grid[..., 1] = np.linspace(0.0, 2.0 * math.pi, config.phi_grid, endpoint=False)[:, None]
    grid = grid.reshape(-1, n, 2)
    grid_values = objective(np.tile(grid, (states, 1, 1)),
                            np.repeat(owners, len(grid))).reshape(states, len(grid))

    candidates, starts, start_owners = [], [], []
    for s in range(states):
        row = grid_values[s].tolist()
        best = 0
        for k, value in enumerate(row):
            if value < row[best] - _TIE_TOL:
                best = k
        own = [(row[best], grid[best]), *zip(named_values[s].tolist(), named_frames)]
        distinct: dict[tuple[float, ...], np.ndarray] = {}
        for _, frame in own:
            distinct.setdefault(tuple(np.round(frame.reshape(-1), 9)), frame)
        candidates.append(own)
        starts += distinct.values()
        start_owners += [s] * len(distinct)
    refined, descent_evals = _lockstep(objective, starts, start_owners, config)

    evals = [len(named) + len(grid)] * states
    for s, result, count in zip(start_owners, refined, descent_evals):
        candidates[s].append(result)
        evals[s] += count
    results = []
    for s, own in enumerate(candidates):
        floor = min(v for v, _ in own)
        value, frame = min(((v, f) for v, f in own if v <= floor + _TIE_TOL),
                           key=lambda c: tuple(c[1].reshape(-1)))
        results.append((value, frame, dict(zip(named, named_values[s].tolist())), evals[s]))
    return results


def _global_discords(states: list[np.ndarray],
                     config: OptimizerConfig | None = None) -> list[DiscordResult]:
    """:func:`global_discord` of every state, all searched together.

    The states must share their qubit count.  Each result is the one
    :func:`global_discord` gives for that state alone.
    """
    sizes = {assert_density_matrix(rho) for rho in states}
    if len(sizes) != 1:
        raise ValueError(f"states must share one qubit count, got {sorted(sizes)}")
    n = sizes.pop()
    searched = _search(_GlobalObjective(np.stack(states), n), len(states), n,
                       config or OptimizerConfig())
    results = []
    for value, frame, branch_values, evals in searched:
        if value < -DISCORD_FLOOR:
            raise RuntimeError(f"discord objective minimised to {value:.3e} < 0")
        frame = frame.copy()
        frame.setflags(write=False)
        results.append(DiscordResult(max(0.0, value), frame, branch_values, evals))
    return results


def global_discord(rho: np.ndarray, config: OptimizerConfig | None = None) -> DiscordResult:
    """Minimise the discord objective over product measurement frames.

    Deterministic by construction: named frames and the uniform grid are
    evaluated in a fixed order, descent starts are deduplicated, and ties
    within 1e-12 resolve to the lexicographically smallest angle vector.

    The result is the best local minimum the search finds.  It matches
    :func:`analytic_gqd` on the channel states; for other states it is an
    upper bound on the global discord, not a certified minimum.
    """
    return _global_discords([rho], config)[0]


def bipartite_discord(rho: np.ndarray, config: OptimizerConfig | None = None) -> float:
    """Measurement-based discord of a 2-qubit state, measuring qubit 1.

    D = I(rho) - max over (theta, phi) of J, with mutual information
    I = S(rho_0) + S(rho_1) - S(rho) and classical correlations
    J = S(rho_0) - sum_k p_k S(rho given outcome k).
    """
    n = assert_density_matrix(rho)
    if n != 2:
        raise ValueError(f"bipartite discord needs exactly 2 qubits, got {n}")
    objective = _ConditionalEntropy(rho)
    s_b = von_neumann_entropy(partial_trace(rho, (1,)))
    mutual = objective.s_a + s_b - von_neumann_entropy(rho)
    best = _search(objective, 1, 1, config or OptimizerConfig())[0][0]

    value = mutual + best  # best == -max J
    if value < -DISCORD_FLOOR:
        raise RuntimeError(f"bipartite discord evaluated to {value:.3e} < 0")
    return max(0.0, value)


def _xlg(v: float) -> float:
    """v * log2(v) extended by continuity to 0 at v = 0."""
    return 0.0 if v <= _PROB_FLOOR else v * math.log2(v)


def analytic_gqd(channel: Channel, kt: float) -> float:
    """Closed-form global discord of the evolved 4-qubit GHZ state."""
    channel = Channel(channel)
    if kt < 0:
        raise ValueError(f"kappa*t must be nonnegative, got {kt}")
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
