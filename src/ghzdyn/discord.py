"""Quantum discord of noisy GHZ registers.

Global discord of an N-qubit state is minimised over products of local
projective measurements.  A frame assigns each qubit a Bloch direction
``(theta, phi)``; measuring in that frame pinches the state to

    Phi(rho) = sum_k |b_k><b_k| rho |b_k><b_k| / (projector sum),

and the objective is

    S(Phi(rho)) - S(rho) - sum_j [ S(Phi_j(rho_j)) - S(rho_j) ].

:func:`global_discord` minimises this over frames with a deterministic
three-stage search: the named z/x/y frames, a uniform-frame grid, then
coordinate descent with golden-section line searches from the best
starting points.  The objective evaluates batches of frames at once, and
the descents run in lockstep so that every round of trials across all
starts is one batch.

The search also batches across states: the objective holds a stack of
states and measures each frame on the state that owns it, and one search
carries a whole block of states through the three stages together, so a
sweep pays the fixed cost of a search round once per block of cells
rather than once per cell.  A frame's value does not depend on the batch
it lands in, so each state gets the value, frame, branch values and
evaluation count it gets when searched alone; :func:`global_discord` is
the one-state case.  :func:`analytic_gqd` gives the closed-form values for
the 4-qubit channel states so the optimiser can be cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, closed_form_spectrum, coefficients
from .entanglement import _bisect_root
from .linalg import (
    assert_density_matrix,
    partial_trace,
    shannon_entropies,
    shannon_entropy,
    von_neumann_entropy,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_POINTS = 9
_ANGLE_TOL = 1e-7
_TIE_TOL = 1e-12
# Outcome probabilities at or below this are outcomes that never occur.
_PROB_FLOOR = 1e-14
# Complex product-basis entries per objective batch: 64 frames at 4
# qubits, one frame from 7 qubits up, so memory stays flat in N.
_BATCH_ENTRIES = 2**14


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


def _product_bases(local: np.ndarray) -> np.ndarray:
    """Unitaries whose rows are the product basis vectors of ``(B, n, 2, 2)`` local pairs.

    Row ``k`` holds outcome bits ``k_0 ... k_{n-1}`` with qubit 0 slowest,
    the layout of the tensor product ``L_0 (x) ... (x) L_{n-1}``.
    """
    u = local[:, 0]
    for j in range(1, local.shape[1]):
        d = u.shape[-1]
        u = (u[:, :, None, :, None] * local[:, j, None, :, None, :]).reshape(-1, 2 * d, 2 * d)
    return u


def measurement_basis(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal measurement pair along the Bloch direction (theta, phi)."""
    v1, v2 = _local_bases(np.array([theta, phi], dtype=float))
    return v1, v2


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


def _check_frame(frame: np.ndarray, n: int) -> np.ndarray:
    frame = np.asarray(frame, dtype=float)
    if frame.shape != (n, 2):
        raise ValueError(f"frame shape {frame.shape} does not match ({n}, 2)")
    return frame


def dephase(rho: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Projector-sum pinching of ``rho`` in the product frame."""
    n = assert_density_matrix(rho)
    u = _product_bases(_local_bases(_check_frame(frame, n)[None]))[0]
    probs = np.einsum("kl,lm,mk->k", u, rho, u.conj().T).real
    return u.conj().T @ np.diag(probs.astype(complex)) @ u


class _GlobalObjective:
    """Discord objective of frames on a stack of states, frame-independent pieces precomputed.

    Frame ``b`` of a batch is measured on state ``owner[b]``.  Each frame's
    arithmetic is the same whatever batch it lands in, so its value is too.
    """

    def __init__(self, rhos: np.ndarray, n: int) -> None:
        self.rho = rhos
        self.state_entropy = np.array([von_neumann_entropy(rho) for rho in rhos])
        self.marginals = np.array([[partial_trace(rho, (j,)) for j in range(n)] for rho in rhos])
        self.marginal_entropies = np.array(
            [[von_neumann_entropy(m) for m in marginals] for marginals in self.marginals])
        self.batch = max(1, _BATCH_ENTRIES // rhos[0].size)

    def __call__(self, frames: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Objective values of ``(B, n, 2)`` frames on states ``owner``, ``batch`` at a time."""
        return np.concatenate([self._evaluate(frames[i:i + self.batch], owner[i:i + self.batch])
                               for i in range(0, len(frames), self.batch)])

    def _evaluate(self, frames: np.ndarray, owner: np.ndarray) -> np.ndarray:
        local = _local_bases(frames)
        u = _product_bases(local)
        probs = ((u @ self.rho[owner]) * u.conj()).sum(axis=-1).real
        total = shannon_entropies(probs) - self.state_entropy[owner]
        first = local[:, :, 0]
        p1 = np.einsum("bji,bjik,bjk->bj", first.conj(), self.marginals[owner], first).real
        local_entropies = shannon_entropies(np.stack([p1, 1.0 - p1], axis=-1))
        marginal_entropies = self.marginal_entropies[owner]
        for j in range(frames.shape[1]):
            total -= local_entropies[:, j] - marginal_entropies[:, j]
        return total


def gqd_objective(rho: np.ndarray, frame: np.ndarray) -> float:
    """Discord objective of a single frame (no optimisation)."""
    n = assert_density_matrix(rho)
    objective = _GlobalObjective(rho[None], n)
    return float(objective(_check_frame(frame, n)[None], np.zeros(1, dtype=int))[0])


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


def _descent(frame0: np.ndarray, config: OptimizerConfig):
    """Cyclic coordinate descent over all angles with golden refinement.

    A coroutine: it yields each batch of trial frames it needs, receives
    their objective values, and returns ``(value, frame)``.
    """
    frame = frame0.copy()

    def trials(j: int, coord: int, values) -> np.ndarray:
        out = np.repeat(frame[None], len(values), axis=0)
        out[:, j, coord] = values
        return out

    (best,) = yield frame[None]
    for _ in range(config.refine_sweeps):
        sweep_start = best
        for j in range(frame.shape[0]):
            for coord in range(2):
                hi = math.pi if coord == 0 else 2.0 * math.pi
                scan = np.linspace(0.0, hi, _SCAN_POINTS)
                values = yield trials(j, coord, scan)
                k = int(np.argmin(values))
                step = hi / (_SCAN_POINTS - 1)
                # Golden-section search of the bracket around the scan minimum.
                a, b = max(0.0, scan[k] - step), min(hi, scan[k] + step)
                c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
                fc, fd = yield trials(j, coord, (c, d))
                while b - a > _ANGLE_TOL:
                    if fc < fd:
                        b, d, fd = d, c, fc
                        c = b - _GOLDEN * (b - a)
                        (fc,) = yield trials(j, coord, (c,))
                    else:
                        a, c, fc = c, d, fd
                        d = a + _GOLDEN * (b - a)
                        (fd,) = yield trials(j, coord, (d,))
                x, fx = (c, fc) if fc < fd else (d, fd)
                if min(fx, values[k]) < best - 1e-15:
                    if fx <= values[k]:
                        frame[j, coord], best = x, fx
                    else:
                        frame[j, coord], best = scan[k], values[k]
        if sweep_start - best < config.tolerance:
            break
    return float(best), frame


def _lockstep(objective, starts: list[np.ndarray], owners: list[int], config: OptimizerConfig):
    """Run one descent per start, evaluating all their pending trials as one batch per round.

    Start ``i`` descends on state ``owners[i]``, and each descent sees
    exactly the evaluations it would see alone.  Returns the ``(value,
    frame)`` of every descent and its evaluation count, both in start order.
    """
    runs = [_descent(frame, config) for frame in starts]
    pending = {i: next(run) for i, run in enumerate(runs)}
    results = [None] * len(runs)
    evals = [0] * len(runs)
    while pending:
        trials = list(pending.values())
        owner = np.repeat([owners[i] for i in pending], [len(t) for t in trials])
        values = objective(np.concatenate(trials), owner)
        offset = 0
        for i, batch in zip(list(pending), trials):
            chunk = values[offset:offset + len(batch)]
            offset += len(batch)
            evals[i] += len(batch)
            try:
                pending[i] = runs[i].send(chunk)
            except StopIteration as stop:
                del pending[i]
                results[i] = stop.value
    return results, evals


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
        if value < -1e-9:
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
    if value < -1e-9:
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
