"""Parameter sweeps over kappa*t with deterministic CSV output.

A sweep evaluates the requested measures for every channel on a uniform
time grid.  ``tau`` and ``gqd`` each come in an analytic route (closed
forms) and a numeric route (state-based bound / frame optimiser) so the
CSV carries both columns when ``method = "both"``; ``ppt`` and
``entropy`` are single-route state diagnostics.

Output is byte-reproducible: records are ordered channel-major, floats
are rendered with 12 significant digits, rows end with a bare newline,
and the file is written atomically.

The sweep's one unit of work is a chunk of at most 128 cells
(``2 * BATCH_ENTRIES // 4**4``), cut from the channel-major cell list at
multiples of 128 whatever ``jobs`` is.  A chunk's closed-form states, one real
array built per channel run, are measured as one stack in real arithmetic: one
``eigvalsh`` validates them and gives their entropy spectra, one ``eigvals`` of
``rho F`` the Wootters roots (the spin flip F is a signed index reversal), one
``eigvalsh`` the partial transposes, and one discord search
(:func:`ghzdyn.discord._global_discords`) takes the same stack and spectra.  Only
the output columns outlive a chunk.  ``jobs`` counts processes, at most one per
chunk and per usable CPU: the calling process computes the first share of
chunks and each worker process the next share, so every cell is measured
in the same stack under every ``jobs``, and the record order never depends on it.
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
import os
import tempfile
from dataclasses import dataclass, fields
from itertools import groupby, repeat
from operator import attrgetter, itemgetter

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


def _compute_chunk(args: tuple[list[tuple[str, float]], tuple[str, ...], str]) -> list[SweepRecord]:
    """Records of one chunk of cells, measured and searched as one stack.

    Coefficients computed once per channel run give both the closed-form states and the
    analytic tau; every column is built as an array, and the records once.
    """
    cells, measures, method = args
    analytic = method in ("analytic", "both")
    numeric = method in ("numeric", "both")
    runs = []  # (channel, coefficient columns) of each channel run, in cell order
    for value, run in groupby(cells, itemgetter(0)):
        channel = Channel(value)
        runs.append((channel, _coefficient_columns(channel, [kt for _, kt in run])))
    columns = {}
    if analytic and "tau" in measures:
        columns["tau_analytic"] = np.concatenate([_analytic_taus(co) for _, co in runs])
    if analytic and "gqd" in measures:
        columns["gqd_analytic"] = [analytic_gqd(channel, kt) for channel, kt in cells]
    if numeric or "ppt" in measures or "entropy" in measures:
        states = np.concatenate([_closed_form_states(channel, co) for channel, co in runs])
        spectra = _density_spectra(states)
        if numeric and "tau" in measures:
            columns["tau_numeric"] = _tau_lower_bounds(states)
        if numeric and "gqd" in measures:
            columns["gqd_numeric"] = [d.value for d in _global_discords(states, spectra)]
        if "ppt" in measures:
            columns["ppt_min_eig"] = _ppt_min_eigenvalues(states, (0,))
        if "entropy" in measures:
            columns["entropy"] = _entropies(spectra)
    values = [np.asarray(columns[name]).tolist() if name in columns else repeat(None)
              for name in CSV_HEADER.split(",")[2:]]
    return list(map(SweepRecord, [c for c, _ in cells], [kt for _, kt in cells], *values))


def _records(chunks: list) -> list[SweepRecord]:
    return [record for chunk in chunks for record in _compute_chunk(chunk)]


def _send_records(share: list, send) -> None:
    """Worker body: send ``share``'s records, or the exception computing them raised."""
    try:
        result = _records(share)
    except Exception as exc:
        result = exc
    send.send(result)


def _start(share: list):
    """Start a process computing ``share``; returns it and the read end of its one-way pipe."""
    receive, send = multiprocessing.Pipe(duplex=False)
    process = multiprocessing.Process(target=_send_records, args=(share, send))
    process.start()
    send.close()  # the worker holds the only write end, so its death reads as EOF
    return process, receive


def _receive(process, receive) -> list[SweepRecord]:
    """A worker's records; its exception is re-raised, its death without records a RuntimeError."""
    try:
        result = receive.recv()
    except EOFError:
        process.join()
        raise RuntimeError(f"sweep worker exited with code {process.exitcode} "
                           "before sending its records") from None
    if isinstance(result, BaseException):
        raise result
    return result


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Evaluate the configured grid, channel-major, in deterministic order.

    The cells are cut once into chunks of ``_CHUNK``, and ``min(config.jobs, chunks,
    usable CPUs)`` processes compute them: the calling process the first
    ``ceil(chunks / processes)``, and each worker process the next as many, sending its
    records back over a pipe; with one process no worker starts.  A worker's exception
    is re-raised here, and on any failure every worker is stopped before the call returns.
    """
    config.validate()
    grid = np.linspace(0.0, config.kt_max, config.steps)
    cells = [(channel.value, float(kt)) for channel in config.channels for kt in grid]
    chunks = [(cells[lo:lo + _CHUNK], config.measures, config.method)
              for lo in range(0, len(cells), _CHUNK)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    count = min(config.jobs, len(chunks), cpus)
    if count == 1:
        return _records(chunks)
    own = -(-len(chunks) // count)
    workers = []
    try:
        for lo in range(own, len(chunks), own):
            workers.append(_start(chunks[lo:lo + own]))
        records = _records(chunks[:own])
        for worker in workers:
            records += _receive(*worker)
        return records
    except BaseException:
        for process, _ in workers:
            process.terminate()
        raise
    finally:
        for process, receive in workers:
            process.join()
            receive.close()


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it over ``path``.

    A failed write leaves any previous file intact and no temporary behind.
    The file gets the mode ``open`` would give it, 0o666 less the umask,
    rather than the 0600 of ``mkstemp``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format(value: float | None) -> str:
    return "" if value is None else f"{value:.12g}"


def emit_csv(records: list[SweepRecord], path: str) -> None:
    """Write records atomically with fixed header, digits and line endings."""
    values = attrgetter(*CSV_HEADER.split(",")[1:])
    lines = [CSV_HEADER] + [",".join([r.channel, *map(_format, values(r))]) for r in records]
    _write_atomic(path, "\n".join(lines) + "\n")


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
