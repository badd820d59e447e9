"""Parameter sweeps over kappa*t with deterministic CSV output.

A sweep evaluates the requested measures for every channel on a uniform
time grid.  ``tau`` and ``gqd`` each come in an analytic route (closed
forms) and a numeric route (state-based bound / frame optimiser) so the
CSV carries both columns when ``method = "both"``; ``ppt`` and
``entropy`` are single-route state diagnostics.

Output is byte-reproducible: records are ordered channel-major, floats
are rendered with 12 significant digits, rows end with a bare newline,
and the file is written atomically.

The cells are measured in fixed chunks, each one stack of closed-form states; how the
chunks are cut and shared among ``jobs`` processes is :func:`run_sweep`'s rule, and how
a stack of X states is solved is :mod:`ghzdyn.linalg`'s.  Only float64 columns cross a
chunk or process boundary; the records are built once, from all of them.
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
import os
from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter

import numpy as np

from .channels import Channel, _closed_form_states, _coefficient_columns
from .discord import _global_discords, analytic_gqd
from .entanglement import _analytic_taus, _ppt_min_eigenvalues, _tau_lower_bounds
from .linalg import BATCH_ENTRIES, _density_spectra, _entropies

MEASURES = ("tau", "gqd", "ppt", "entropy")
METHODS = ("analytic", "numeric", "both")
ALL_CHANNELS = (Channel.X, Channel.Y, Channel.Z, Channel.ISO)
# Cells per chunk, each chunk one discord search: 128 states at 4 qubits, twice the batch budget.
_CHUNK = 2 * BATCH_ENTRIES // 4**4


def _is(value, kind: type) -> bool:
    """Whether ``value`` is a ``kind`` number (numpy's included), bools excepted."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class SweepConfig:
    """What to compute and where to put it."""

    channels: tuple[Channel, ...] = ALL_CHANNELS
    measures: tuple[str, ...] = MEASURES
    kt_max: float = 0.6
    steps: int = 121
    method: str = "both"
    out: str = "sweep.csv"
    plot: bool = False
    jobs: int = 1

    def validate(self) -> None:
        problems = []
        for name, items, known, expected in (
                ("channels", self.channels, lambda ch: isinstance(ch, Channel), ""),
                ("measures", self.measures, MEASURES.__contains__, f" (expected one of {MEASURES})")):
            if not isinstance(items, (tuple, list)):
                problems.append(f"{name} must be a tuple or list, got {items!r}")
            elif not items:
                problems.append(f"{name} must not be empty")
            elif unknown := [item for item in items if not known(item)]:
                problems += [f"unknown {name[:-1]} {item!r}{expected}" for item in unknown]
            elif len(set(items)) != len(items):
                problems.append(f"duplicate {name} in {tuple(getattr(i, 'value', i) for i in items)}")
        if not _is(self.kt_max, numbers.Real) or not 0.0 < self.kt_max < math.inf:
            problems.append(f"kt_max must be finite and positive, got {self.kt_max!r}")
        if not _is(self.steps, numbers.Integral) or self.steps < 2:
            problems.append(f"steps must be an integer >= 2, got {self.steps!r}")
        if self.method not in METHODS:
            problems.append(f"unknown method {self.method!r} (expected one of {METHODS})")
        if not _is(self.jobs, numbers.Integral) or self.jobs < 1:
            problems.append(f"jobs must be an integer >= 1, got {self.jobs!r}")
        if not isinstance(self.out, str) or not self.out:
            problems.append(f"out must be a non-empty path, got {self.out!r}")
        if not isinstance(self.plot, bool):
            problems.append(f"plot must be a bool, got {self.plot!r}")
        elif self.plot and isinstance(self.measures, (tuple, list)) and not (
                "tau" in self.measures or "gqd" in self.measures):
            problems.append("plot needs the tau or gqd measure: the plot script draws only their curves")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class SweepRecord:
    """One (channel, time) cell, its fields in CSV column order; absent measures stay None."""

    channel: str
    kappa_t: float
    tau_analytic: float | None = None
    tau_numeric: float | None = None
    gqd_analytic: float | None = None
    gqd_numeric: float | None = None
    ppt_min_eig: float | None = None
    entropy: float | None = None


CSV_HEADER = ",".join(f.name for f in fields(SweepRecord))


def _compute_chunk(runs: list, measures: tuple[str, ...], method: str) -> dict[str, np.ndarray]:
    """Float64 columns of one chunk, its ``(channel, kts)`` runs measured and searched as one stack.

    Coefficients computed once per run give both the closed-form states and the analytic tau.
    """
    analytic = method in ("analytic", "both")
    numeric = method in ("numeric", "both")
    search = numeric and "gqd" in measures
    coefficients = [(channel, _coefficient_columns(channel, kts)) for channel, kts in runs]
    columns = {}
    if analytic and "tau" in measures:
        columns["tau_analytic"] = np.concatenate([_analytic_taus(co) for _, co in coefficients])
    if analytic and "gqd" in measures:
        columns["gqd_analytic"] = [analytic_gqd(channel, kt) for channel, kts in runs for kt in kts]
    if search or (numeric and "tau" in measures) or "ppt" in measures or "entropy" in measures:
        states = np.concatenate([_closed_form_states(channel, co) for channel, co in coefficients])
        spectra = _density_spectra(states)
        if numeric and "tau" in measures:
            columns["tau_numeric"] = _tau_lower_bounds(states)
        if search:
            columns["gqd_numeric"] = [d.value for d in _global_discords(states, spectra)]
        if "ppt" in measures:
            columns["ppt_min_eig"] = _ppt_min_eigenvalues(states, (0,))
        if "entropy" in measures:
            columns["entropy"] = _entropies(spectra)
    return {name: np.asarray(column, dtype=np.float64) for name, column in columns.items()}


def _send_columns(share: list, measures: tuple[str, ...], method: str, send) -> None:
    """Worker body: send each of ``share``'s chunks' columns, or the exception computing them raised."""
    try:
        result = [_compute_chunk(runs, measures, method) for runs in share]
    except Exception as exc:
        result = exc
    send.send(result)


# Fork where the platform has it, so a worker starts as a copy of the caller whatever the default.
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None)


def _start(share: list, measures: tuple[str, ...], method: str):
    """Start a process computing ``share``; returns it and the read end of its one-way pipe."""
    receive, send = _CONTEXT.Pipe(duplex=False)
    process = _CONTEXT.Process(target=_send_columns, args=(share, measures, method, send))
    process.start()
    send.close()  # the worker holds the only write end, so its death reads as EOF
    return process, receive


def _receive(process, receive) -> list[dict[str, np.ndarray]]:
    """A worker's chunk columns; its exception is re-raised, its death without them a RuntimeError."""
    try:
        result = receive.recv()
    except EOFError:
        process.join()
        raise RuntimeError(f"sweep worker exited with code {process.exitcode} "
                           "before sending its columns") from None
    if isinstance(result, BaseException):
        raise result
    return result


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Evaluate the configured grid, channel-major, in deterministic order.

    The channel-major cells are cut once into chunks of ``_CHUNK`` (128: ``2 *
    BATCH_ENTRIES // 4**4``), the same chunks under every ``jobs``; a chunk is a list of
    ``(channel, kts)`` runs, measured as one stack and searched by one discord search, and a
    process computes all of a chunk's columns before it starts the next.  Processes pay only for
    the discord search: a request without numeric gqd runs in the calling process alone, and one
    with it in ``min(config.jobs, chunks, usable CPUs)`` processes (the usable CPUs are the
    affinity set where the platform has one, else ``os.cpu_count()``).  The caller computes the
    first ``ceil(chunks / processes)`` chunks and each worker process, forked where the platform
    can fork, the next as many, sending their columns back over a one-way pipe.  So every cell is
    measured and searched in the same stack under every ``jobs``, and a ``jobs`` above the chunk
    count starts no more workers.
    A worker's exception is re-raised here, a worker that dies before sending is a RuntimeError
    naming its exit code, and on any failure every worker is stopped before the call returns.
    """
    config.validate()
    grid = np.linspace(0.0, config.kt_max, config.steps).tolist()
    steps, cells = len(grid), len(config.channels) * len(grid)
    chunks = [[(channel, grid[max(lo - first, 0):lo + _CHUNK - first])
               for first, channel in zip(range(0, cells, steps), config.channels)
               if lo - steps < first < lo + _CHUNK]
              for lo in range(0, cells, _CHUNK)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    searched = "gqd" in config.measures and config.method != "analytic"
    own = -(-len(chunks) // (min(config.jobs, len(chunks), cpus) if searched else 1))
    workers = []
    try:
        for lo in range(own, len(chunks), own):
            workers.append(_start(chunks[lo:lo + own], config.measures, config.method))
        parts = [_compute_chunk(runs, config.measures, config.method) for runs in chunks[:own]]
        for worker in workers:
            parts += _receive(*worker)
    except BaseException:
        for process, _ in workers:
            process.terminate()
        raise
    finally:
        for process, receive in workers:
            process.join()
            process.close()  # its sentinel pipe, else open while a traceback holds it
            receive.close()
    values = [np.concatenate([part[name] for part in parts]).tolist() if name in parts[0]
              else repeat(None) for name in CSV_HEADER.split(",")[2:]]
    names = [channel.value for channel in config.channels]
    return list(map(SweepRecord, [name for name in names for _ in grid], grid * len(names), *values))


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a new file beside ``path``, then rename it over ``path``.

    A failed write leaves any previous file intact and no temporary behind.  The temporary
    file is created as ``open(tmp, "x")`` creates one, so the kernel gives it 0o666 less the
    umask, and the umask is never read or changed.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(records: list[SweepRecord]) -> str:
    """The header, then per record its channel and each column as ``%.12g`` (empty where None)."""
    values = attrgetter(*CSV_HEADER.split(",")[1:])
    lines = [CSV_HEADER]
    for record in records:
        lines.append(",".join([record.channel] + ["" if v is None else "%.12g" % v
                                                  for v in values(record)]))
    return "\n".join(lines) + "\n"


def emit_csv(records: list[SweepRecord], path: str) -> None:
    """Write records' CSV text atomically with fixed header, digits and line endings."""
    _write_atomic(path, _csv_text(records))


_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Render the tau and gqd curves of {csv_name}, or of the sweep CSV given as the first argument."""
import csv
import os
import sys

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

CSV_PATH = sys.argv[1] if len(sys.argv) > 1 else {csv_path!r}
OUT_PATH = os.path.splitext(CSV_PATH)[0] + "_curves.png"
STYLES = dict(x="-", y="--", z="-.", iso=":")
NAMES = dict(x="Pauli-X", y="Pauli-Y", z="Pauli-Z", iso="isotropic")

with open(CSV_PATH, newline="") as fh:
    rows = list(csv.DictReader(fh))
channels = list(dict.fromkeys(row["channel"] for row in rows))
# A tau panel, then a gqd panel, each on its numeric column if any cell holds it, else the analytic one.
panels = [(held[0], label) for measure, label in (("tau", "concurrence bound"), ("gqd", "global discord"))
          if (held := [c for c in (measure + "_numeric", measure + "_analytic") if any(r[c] for r in rows)])]
if not panels:
    sys.exit(CSV_PATH + " holds neither tau nor gqd values; nothing to plot")

fig, axes = plt.subplots(1, len(panels), figsize=(5.5 * len(panels), 4.2), squeeze=False)
for ax, (column, label) in zip(axes[0], panels):
    for channel in channels:
        mine = [row for row in rows if row["channel"] == channel and row[column]]
        ax.plot([float(row["kappa_t"]) for row in mine], [float(row[column]) for row in mine],
                STYLES.get(channel, "-"), label=NAMES.get(channel, channel))
    ax.set(xlabel="kappa * t", ylabel=label)
    ax.legend()
    ax.grid(alpha=0.3)
fig.tight_layout()
fig.savefig(OUT_PATH, dpi=150)
print("wrote", OUT_PATH)
'''


def emit_plot_script(records: list[SweepRecord], csv_path: str) -> str:
    """Write ``<csv stem>_plot.py``, a standalone matplotlib script, and return its path.

    The script is fixed but for its default CSV: when run, it reads that CSV, or the sweep CSV
    given as its first argument, and draws one curve per channel on each panel it picks.
    """
    plotted = attrgetter("tau_analytic", "tau_numeric", "gqd_analytic", "gqd_numeric")
    if all(v is None for r in records for v in plotted(r)):
        raise ValueError("records carry neither tau nor gqd values; nothing to plot")
    script_path = os.path.splitext(csv_path)[0] + "_plot.py"
    _write_atomic(script_path, _PLOT_SCRIPT.format(csv_name=os.path.basename(csv_path), csv_path=csv_path))
    return script_path
