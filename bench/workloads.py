"""Operations, seeded decks and per-operation checks for the three workloads.

An operation is either one in-process ``ghzdyn.cli.main(argv)`` request
or one library call.  Workloads hand operations out in *decks*: each
deck has a fixed composition (request shapes, call kinds, register
sizes) and seeded inputs, and the runner only stops at a deck boundary.
Whole decks keep the mix of cheap and expensive operations the same on
every seed, so a seed changes the inputs but not the shape of the load.

The package is always reached through module attributes
(``cli.main``, ``channels.evolve_numeric``, ...) so that the tracer's
wrappers, when installed, see every call.
"""

from __future__ import annotations

import csv
import io
import os
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import twins
from ghzdyn import channels, cli, discord, entanglement

CHANNELS = ("x", "y", "z", "iso")
WORKLOADS = ("gqd-sweep", "state-sweep", "api-mix")
STATE_MEASURES = ("tau", "ppt", "entropy")
KT_MAX_RANGE = (0.05, 0.6)
EVOLVE_KT_RANGE = (0.02, 0.6)
STATE_STEPS_RANGE = (61, 241)
WERNER_Z_RANGE = (0.05, 1.0)
# gqd-sweep deck: every (channels, steps) shape, with the two 4-cell
# shapes twice so that the median request sits inside a block of equal
# size: 8 requests, 35 cells, 12 of them at kt = 0.
GQD_SHAPES = ((1, 2), (1, 3), (1, 4), (1, 4), (2, 2), (2, 2), (2, 3), (2, 4))
# api-mix deck: API_PER_SIZE integrations for each N = 2, 3, 4 plus two
# for N = 5, and as many calls of each other kind.  With these counts
# N = 5 takes about half of the deck's wall time at the costs measured
# when the benchmark was defined.
API_PER_SIZE = 14
API_PER_KIND = 2 + 3 * API_PER_SIZE


@dataclass
class Op:
    """One operation: ``kind`` selects the call, ``home`` the workload it models."""

    kind: str
    home: str
    units: int
    args: dict


@dataclass
class Outcome:
    latency: float
    ok: bool
    devs: dict[str, float] = field(default_factory=dict)
    csv: bytes | None = None
    error: str | None = None


def request(home: str, chans: tuple[str, ...], kt_max: float, steps: int, jobs: int,
            measures: tuple[str, ...] = ()) -> Op:
    """A CLI request; empty ``measures`` means the defaults (all four)."""
    return Op("request", home, len(chans) * steps,
              {"channels": chans, "kt_max": float(kt_max), "steps": int(steps),
               "jobs": int(jobs), "measures": measures})


def evolve(n: int, rho0: np.ndarray, channel: str, kt: float) -> Op:
    return Op("evolve", "api-mix", 1, {"n": n, "rho0": rho0, "channel": channel, "kt": float(kt)})


def bipartite(z: float) -> Op:
    return Op("bipartite", "api-mix", 1, {"z": float(z), "rho": twins.werner_state(z)})


def tau_generator(psi: np.ndarray) -> Op:
    return Op("tau_generator", "api-mix", 1, {"psi": psi})


def _stratified(rng: np.random.Generator, k: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw in each of k equal strata of [lo, hi], in seeded order."""
    u = (np.arange(k) + rng.random(k)) / k
    rng.shuffle(u)
    return lo + (hi - lo) * u


class ChannelSlots:
    """Channel stream of successive seeded permutations, so every run is balanced."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.queue: list[str] = []

    def take(self, k: int) -> tuple[str, ...]:
        picked: list[str] = []
        while len(picked) < k:
            fresh = [c for c in self.queue if c not in picked]
            if not fresh:
                self.queue.extend(CHANNELS[i] for i in self.rng.permutation(len(CHANNELS)))
                continue
            self.queue.remove(fresh[0])
            picked.append(fresh[0])
        return tuple(picked)


def _gqd_deck(rng: np.random.Generator, slots: ChannelSlots) -> list[Op]:
    kts = _stratified(rng, len(GQD_SHAPES), *KT_MAX_RANGE)
    return [request("gqd-sweep", slots.take(GQD_SHAPES[i][0]), kt, GQD_SHAPES[i][1], 1)
            for i, kt in zip(rng.permutation(len(GQD_SHAPES)), kts)]


def _state_deck(rng: np.random.Generator) -> list[Op]:
    # Alternating --jobs 1 / --jobs 2; each setting gets a pair of step
    # counts mirrored about the middle of the range, so every deck has
    # the same number of cells.
    lo, hi = STATE_STEPS_RANGE
    s1, s2 = (int(v) for v in rng.integers(lo, hi + 1, size=2))
    steps = (s1, s2, lo + hi - s1, lo + hi - s2)
    kts = rng.uniform(*KT_MAX_RANGE, size=4)
    return [request("state-sweep", CHANNELS, kt, s, jobs, STATE_MEASURES)
            for kt, s, jobs in zip(kts, steps, (1, 2, 1, 2))]


def _initial_state(n: int, rng: np.random.Generator) -> np.ndarray:
    return twins.ghz_density(n) if rng.random() < 0.5 else twins.random_density(n, rng)


def _api_deck(rng: np.random.Generator, slots: ChannelSlots) -> list[Op]:
    ops = []
    # Two N = 5 integrations with mirrored times: their cost, which grows
    # with kt, sums to about the same on every deck.
    lo, hi = EVOLVE_KT_RANGE
    u = rng.uniform(lo, hi)
    for kt in (u, lo + hi - u):
        ops.append(evolve(5, _initial_state(5, rng), slots.take(1)[0], kt))
    for n in (2, 3, 4):
        for kt in _stratified(rng, API_PER_SIZE, lo, hi):
            ops.append(evolve(n, _initial_state(n, rng), slots.take(1)[0], kt))
    ops.extend(bipartite(z) for z in _stratified(rng, API_PER_KIND, *WERNER_Z_RANGE))
    ops.extend(tau_generator(twins.random_pure(4, rng)) for _ in range(API_PER_KIND))
    return [ops[i] for i in rng.permutation(len(ops))]


def deck_stream(workload: str, seed: int):
    """Endless seeded sequence of decks for ``workload``."""
    rng = np.random.default_rng([seed, 0])
    slots = ChannelSlots(rng)
    while True:
        if workload == "gqd-sweep":
            yield _gqd_deck(rng, slots)
        elif workload == "state-sweep":
            yield _state_deck(rng)
        else:
            yield _api_deck(rng, slots)


def warmup_ops(workload: str) -> list[Op]:
    """One small request or call of each kind the workload issues."""
    if workload == "gqd-sweep":
        return [request("gqd-sweep", ("x",), 0.3, 2, 1)]
    if workload == "state-sweep":
        return [request("state-sweep", CHANNELS, 0.3, 2, jobs, STATE_MEASURES) for jobs in (1, 2)]
    # One short integration per (channel, N) fills the superoperator caches.
    rng = np.random.default_rng(0)
    return ([evolve(n, twins.ghz_density(n), ch, 0.01) for ch in CHANNELS for n in (2, 3, 4, 5)]
            + [bipartite(0.5), tau_generator(twins.random_pure(4, rng))])


def probe_ops(home: str, seed: int) -> list[Op]:
    """A miniature of ``home``, run traced when another workload is measured."""
    rng = np.random.default_rng([seed, 1])
    mid = 0.5 * sum(EVOLVE_KT_RANGE)
    if home == "gqd-sweep":
        return [request(home, (CHANNELS[rng.integers(4)],), mid, 3, 1)]
    if home == "state-sweep":
        steps = sum(STATE_STEPS_RANGE) // 2
        return [request(home, CHANNELS, rng.uniform(*KT_MAX_RANGE), steps, jobs, STATE_MEASURES)
                for jobs in (1, 2)]
    return ([evolve(n, _initial_state(n, rng), CHANNELS[rng.integers(4)], mid) for n in (2, 3, 4, 5)]
            + [bipartite(rng.uniform(*WERNER_Z_RANGE)), tau_generator(twins.random_pure(4, rng))])


def with_jobs(op: Op, jobs: int) -> Op:
    return Op(op.kind, op.home, op.units, {**op.args, "jobs": jobs})


# -- running and checking ------------------------------------------------------------


class CheckFailed(Exception):
    """The program's output is malformed or misses its analytic twin."""


def run_op(op: Op, workdir: str) -> Outcome:
    """Run one operation, timing only the call into the package, then check it."""
    result = None
    start = time.perf_counter()
    try:
        if op.kind == "request":
            out = os.path.join(workdir, "request.csv")
            with redirect_stdout(io.StringIO()):
                result = cli.main(_argv(op, out))
        elif op.kind == "evolve":
            a = op.args
            result = channels.evolve_numeric(a["rho0"], a["channel"], a["kt"])
        elif op.kind == "bipartite":
            result = discord.bipartite_discord(op.args["rho"])
        else:
            psi = op.args["psi"]
            result = entanglement.tau_generator_bound(np.outer(psi, psi.conj())).value
    except Exception as exc:  # an operation that raises counts as failed
        return Outcome(time.perf_counter() - start, False, error=f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - start
    try:
        if op.kind == "request":
            if result != 0:
                raise CheckFailed(f"ghzdyn exited with code {result}")
            with open(out, "rb") as fh:
                blob = fh.read()
            devs = check_csv(op, blob.decode("utf-8"))
            outcome = Outcome(latency, True, devs, csv=blob)
        else:
            outcome = Outcome(latency, True, check_call(op, result))
    except CheckFailed as exc:
        return Outcome(latency, False, error=str(exc))
    outcome.ok = all(dev <= twins.TOLERANCES[twin] for twin, dev in outcome.devs.items())
    if not outcome.ok:
        outcome.error = f"missed its twin: {outcome.devs}"
    return outcome


def _argv(op: Op, out: str) -> list[str]:
    a = op.args
    argv = []
    for ch in a["channels"]:
        argv += ["--channel", ch]
    for m in a["measures"]:
        argv += ["--measure", m]
    return argv + ["--kt-max", repr(a["kt_max"]), "--steps", str(a["steps"]),
                   "--method", "both", "--jobs", str(a["jobs"]), "--out", out]


def _number(row: dict, column: str) -> float:
    text = row.get(column)
    if not text:
        raise CheckFailed(f"column {column!r} is empty in row {row}")
    return float(text)


def check_csv(op: Op, text: str) -> dict[str, float]:
    """Largest deviation of each twin over the rows of one request's CSV."""
    a = op.args
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(a["channels"]) * a["steps"]:
        raise CheckFailed(f"{len(rows)} rows, expected {len(a['channels']) * a['steps']}")
    grid = np.linspace(0.0, a["kt_max"], a["steps"])
    default_measures = not a["measures"]
    devs = {"tau": 0.0}
    devs.update({"gqd": 0.0} if default_measures else {"entropy": 0.0})
    for index, row in enumerate(rows):
        channel = a["channels"][index // a["steps"]]
        kt = float(grid[index % a["steps"]])
        if row["channel"] != channel or abs(_number(row, "kappa_t") - kt) > 1e-11:
            raise CheckFailed(f"row {index} is ({row['channel']}, {row['kappa_t']}), "
                              f"expected ({channel}, {kt!r})")
        devs["tau"] = max(devs["tau"], abs(_number(row, "tau_numeric") - _number(row, "tau_analytic")))
        _number(row, "ppt_min_eig")
        entropy = _number(row, "entropy")
        if default_measures:
            gap = abs(_number(row, "gqd_numeric") - _number(row, "gqd_analytic"))
            devs["gqd"] = max(devs["gqd"], gap)
        else:
            if row["gqd_numeric"] or row["gqd_analytic"]:
                raise CheckFailed(f"row {index} carries gqd values that were not requested")
            reference = twins.spectrum_entropy(channels.closed_form_spectrum(channel, kt))
            devs["entropy"] = max(devs["entropy"], abs(entropy - reference))
    return devs


def check_call(op: Op, result) -> dict[str, float]:
    a = op.args
    if op.kind == "evolve":
        reference = twins.exact_pauli_flow(a["rho0"], a["channel"], a["kt"])
        return {"evolve": twins.trace_distance(np.asarray(result), reference)}
    if op.kind == "bipartite":
        return {"werner": abs(float(result) - twins.werner_discord(a["z"]))}
    return {"tau_generator": abs(float(result) - 2.0 * twins.pure_concurrence(a["psi"]))}


def kt0_share(ops: list[Op]) -> float:
    """Share of sweep cells that sit at kt = 0 (the bare GHZ state)."""
    return sum(len(op.args["channels"]) for op in ops) / sum(op.units for op in ops)
