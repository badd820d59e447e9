import csv
import errno
import importlib.util
import json
import math
import multiprocessing
import os
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ghzdyn.discord as discord
import ghzdyn.sweep as sweep
from ghzdyn.channels import Channel, closed_form_state
from ghzdyn.cli import main
from ghzdyn.discord import analytic_gqd, global_discord
from ghzdyn.entanglement import (_ppt_min_eigenvalues, _tau_lower_bounds, analytic_tau,
                                 ppt_min_eigenvalue, tau_lower_bound)
from ghzdyn.linalg import _density_spectra, von_neumann_entropy
from ghzdyn.sweep import (
    CSV_HEADER,
    MEASURES,
    METHODS,
    SweepConfig,
    SweepRecord,
    emit_csv,
    emit_plot_script,
    run_sweep,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_sweep.csv")
GOLDEN_DEFAULT = os.path.join(os.path.dirname(__file__), "data", "golden_default_sweep.csv")
FAST = SweepConfig(channels=(Channel.X, Channel.Z), measures=("tau", "entropy"),
                   kt_max=0.3, steps=3)


def test_default_config_is_valid():
    SweepConfig().validate()


def test_config_validation_rejects_bad_fields():
    cases = [
        replace(FAST, channels=()),
        replace(FAST, channels=(Channel.X, Channel.X)),
        replace(FAST, measures=("tau", "nope")),
        replace(FAST, measures=()),
        replace(FAST, measures=("tau", "tau")),
        replace(FAST, kt_max=0.0),
        replace(FAST, kt_max=math.inf),
        replace(FAST, kt_max=math.nan),
        replace(FAST, steps=1),
        replace(FAST, method="guess"),
        replace(FAST, jobs=0),
    ]
    for config in cases:
        with pytest.raises(ValueError):
            config.validate()


@pytest.mark.parametrize("field, value", [("steps", 2.5), ("steps", True), ("steps", "3"),
                                          ("jobs", 1.5), ("jobs", True), ("kt_max", "0.4"),
                                          ("kt_max", True), ("kt_max", None),
                                          ("channels", None), ("channels", "x"), ("channels", 3),
                                          ("measures", None), ("measures", "tau"),
                                          ("measures", {"tau"}), ("out", None), ("out", ""),
                                          ("plot", "yes"), ("plot", None)])
def test_config_validation_reports_bad_types(field, value):
    # Reported with the other problems, not left to fail later with a TypeError; a
    # numeric field's good value as a numpy scalar passes, as does a list of channels
    # or measures.  A bare string is no sequence of measures: "tau" is not 't', 'a', 'u'.
    other = "measures" if field == "channels" else "channels"
    config = replace(FAST, **{other: (), field: value})
    with pytest.raises(ValueError, match=f"(?=.*{other} must not be empty)(?=.*{field} must )") as info:
        config.validate()
    assert "unknown" not in str(info.value)
    good = getattr(FAST, field)
    if field in ("steps", "jobs", "kt_max"):
        good = np.asarray(good)[()]
    elif field in ("channels", "measures"):
        good = list(good)
    replace(FAST, **{field: good}).validate()


def test_a_channel_name_in_place_of_a_channel_is_reported_as_such():
    # 'x' names a channel but is no Channel: the message says what to pass, and nothing coerces it.
    with pytest.raises(ValueError, match=r"^channel 'x' is not a Channel \(expected a member such as "
                                         r"Channel\('x'\)\)$"):
        run_sweep(replace(FAST, channels=("x",)))


def test_run_sweep_orders_channel_major():
    records = run_sweep(FAST)
    assert [r.channel for r in records] == ["x", "x", "x", "z", "z", "z"]
    assert [r.kappa_t for r in records[:3]] == pytest.approx([0.0, 0.15, 0.3])
    for r in records:
        assert r.gqd_analytic is None and r.gqd_numeric is None
        assert r.ppt_min_eig is None
        assert r.tau_analytic is not None and r.tau_numeric is not None
        assert r.entropy is not None


def test_run_sweep_values_at_t_zero():
    records = run_sweep(FAST)
    for r in (records[0], records[3]):
        assert r.tau_analytic == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert r.tau_numeric == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert r.entropy == pytest.approx(0.0, abs=1e-9)
    for r in records:
        assert abs(r.tau_numeric - r.tau_analytic) < 1e-14


def test_run_sweep_method_selects_columns():
    analytic = run_sweep(replace(FAST, method="analytic", measures=("tau", "ppt")))
    for r in analytic:
        assert r.tau_analytic is not None
        assert r.tau_numeric is None
        assert r.ppt_min_eig is not None  # state diagnostics ignore the method
    numeric = run_sweep(replace(FAST, method="numeric", measures=("tau",)))
    for r in numeric:
        assert r.tau_analytic is None
        assert r.tau_numeric is not None


def test_run_sweep_discord_columns():
    config = SweepConfig(channels=(Channel.Z,), measures=("gqd",), kt_max=0.1, steps=2)
    records = run_sweep(config)
    assert records[0].gqd_analytic == pytest.approx(1.0, abs=1e-12)
    assert abs(records[0].gqd_numeric - 1.0) < 1e-14
    assert abs(records[1].gqd_numeric - records[1].gqd_analytic) < 1e-14


# The public per-cell function behind each measure column.
_PER_CELL = {
    "tau_analytic": analytic_tau,
    "tau_numeric": lambda channel, kt: tau_lower_bound(closed_form_state(channel, kt)).value,
    "gqd_analytic": analytic_gqd,
    "gqd_numeric": lambda channel, kt: global_discord(closed_form_state(channel, kt)).value,
    "ppt_min_eig": lambda channel, kt: ppt_min_eigenvalue(closed_form_state(channel, kt), (0,)),
    "entropy": lambda channel, kt: von_neumann_entropy(closed_form_state(channel, kt)),
}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("measure", MEASURES)
def test_a_single_measure_fills_exactly_its_own_columns(measure, method):
    config = SweepConfig(channels=(Channel.X,), measures=(measure,), kt_max=0.3, steps=2, method=method)
    routes = ("analytic", "numeric") if method == "both" else (method,)
    own = {"ppt": ["ppt_min_eig"], "entropy": ["entropy"]}.get(measure, [f"{measure}_{r}" for r in routes])
    for record in run_sweep(config):
        for name in CSV_HEADER.split(",")[2:]:
            expected = _PER_CELL[name](Channel.X, record.kappa_t) if name in own else None
            assert getattr(record, name) == expected, (name, record.kappa_t)


def test_emit_csv_format(tmp_path):
    path = str(tmp_path / "out.csv")
    emit_csv(run_sweep(FAST), path)
    blob = Path(path).read_bytes()
    assert b"\r" not in blob
    assert blob.endswith(b"\n")
    lines = blob.decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7
    cells = lines[1].split(",")
    assert cells[0] == "x"
    assert cells[4] == "" and cells[5] == "" and cells[6] == ""
    # 12 significant digits survive a round trip.
    for cell in (cells[2], cells[3]):
        assert f"{float(cell):.12g}" == cell
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


def test_emit_csv_bytes_equal_per_value_formatting(tmp_path):
    # The CSV text must give the bytes of formatting each value on its own with an f-string,
    # on records that mix None columns and carry signed zeros, infinities, NaN, subnormals
    # and numpy floats.
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310, 2.2250738585072014e-308,
                1.7976931348623157e308, 1.0, 1.0 / 3.0, -123456789012.345, 1e-12, 0.1 + 0.2]
    rng = np.random.default_rng(29)
    values = specials + (rng.normal(size=60) * 10.0 ** rng.integers(-30, 30, size=60)).tolist()
    records = []
    for k in range(200):
        filled = [(k >> bit) & 1 for bit in range(6)]
        row = [values[(7 * k + j) % len(values)] for j in range(7)]
        if k % 5 == 0:
            row = [np.float64(v) for v in row]
        records.append(SweepRecord(("x", "y", "z", "iso", Channel.Z)[k % 5], row[0],
                                   *[v if f else None for v, f in zip(row[1:], filled)]))
    path = tmp_path / "mixed.csv"
    emit_csv(records, str(path))
    lines = [CSV_HEADER] + [
        ",".join([r.channel, *("" if v is None else f"{v:.12g}" for v in
                               (getattr(r, name) for name in CSV_HEADER.split(",")[1:]))])
        for r in records]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_csv_bytes_are_reproducible(tmp_path):
    paths = [str(tmp_path / name) for name in ("a.csv", "b.csv", "c.csv")]
    emit_csv(run_sweep(FAST), paths[0])
    emit_csv(run_sweep(FAST), paths[1])
    emit_csv(run_sweep(replace(FAST, jobs=2)), paths[2])
    blobs = [Path(p).read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("channels, steps, jobs", [((Channel.Z,), 2, 3), ((Channel.ISO,), 5, 2),
                                                   ((Channel.X, Channel.Y, Channel.Z), 43, 2)],
                         ids=["more-jobs-than-cells", "one-chunk-of-5", "chunks-of-128-and-1"])
def test_csv_bytes_do_not_depend_on_how_the_chunks_are_shared(tmp_path, channels, steps, jobs):
    # 3 x 43 = 129 cells, every measure: under jobs=2, on two usable CPUs, a real worker
    # process computes the second chunk's one cell.
    config = SweepConfig(channels=channels, kt_max=0.3, steps=steps)
    paths = [str(tmp_path / "one.csv"), str(tmp_path / "many.csv")]
    emit_csv(run_sweep(config), paths[0])
    emit_csv(run_sweep(replace(config, jobs=jobs)), paths[1])
    assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()


def _cells(runs):
    """The ``(channel value, kt)`` cells of a chunk's ``(channel, kts)`` runs."""
    return [(channel.value, kt) for channel, kts in runs for kt in kts]


def _inline_workers(monkeypatch, cpus, usable=None, chunk=None):
    """Run worker shares in-process on a host of ``cpus`` CPUs; returns what the workers saw.

    That is the worker count, then the cells of each chunk the workers were given to compute.
    ``usable`` of the CPUs are the process's own (default: all).  ``cpus`` None, as
    ``os.cpu_count`` may return, stands for a platform without an affinity call too.
    ``chunk``, if given, stands in for the 128 cells of a chunk.
    """
    seen = [0, []]

    class Finished:
        """Worker process and pipe in one: ``recv`` runs the worker body when read, in order."""

        def __init__(self, args):
            self.args = args

        def send(self, result):
            self.result = result

        def recv(self):
            sweep._send_columns(*self.args, self)
            return self.result

        def terminate(self):
            pass

        join = close = terminate

    def start(share, measures, method):
        seen[0] += 1
        seen[1] += [_cells(runs) for runs in share]
        worker = Finished((share, measures, method))
        return worker, worker

    monkeypatch.setattr(sweep, "_start", start)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
    if cpus is None:
        monkeypatch.delattr(sweep.os, "sched_getaffinity", raising=False)
    else:
        affinity = set(range(cpus if usable is None else usable))
        monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: affinity, raising=False)
    if chunk is not None:
        monkeypatch.setattr(sweep, "_CHUNK", chunk)
    return seen


@pytest.mark.parametrize("steps, jobs, sizes", [(2, 3, [1, 1]), (2, 5, [1, 1]), (5, 2, [3, 2])])
def test_no_empty_chunk_reaches_the_pool(monkeypatch, steps, jobs, sizes):
    # One-cell chunks; ``sizes`` counts the chunks of the calling process, which
    # computes the first share itself, then those given to the workers.
    seen = _inline_workers(monkeypatch, cpus=64, chunk=1)
    config = SweepConfig(channels=(Channel.Z,), measures=("gqd",), kt_max=0.3,
                         steps=steps, jobs=jobs)
    assert len(run_sweep(config)) == steps
    assert seen[0] == min(jobs, steps) - 1
    assert [steps - len(seen[1]), len(seen[1])] == sizes and all(seen[1])


@pytest.mark.parametrize("cpus, usable, workers", [(2, 2, 2), (1, 1, 1), (None, None, 1), (2, 1, 1)],
                         ids=["2-2", "1-1", "None-1", "2-usable-1"])
def test_the_pool_has_at_most_one_worker_per_cpu(monkeypatch, cpus, usable, workers):
    # ``workers`` counts the calling process, which computes the first share itself.
    seen = _inline_workers(monkeypatch, cpus, usable, chunk=1)
    if workers == 1:
        monkeypatch.setattr(sweep, "_start", None)
    config = SweepConfig(channels=(Channel.Z,), measures=("gqd",), kt_max=0.3, steps=5)
    records = run_sweep(replace(config, jobs=5))
    if workers > 1:
        # Five one-cell chunks, two processes: the caller takes cells 0-2, the worker 3 and 4.
        grid = np.linspace(0.0, 0.3, 5)
        assert seen == [workers - 1, [[("z", float(kt))] for kt in grid[3:]]]
    assert records == run_sweep(config)


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_large_job_count_shares_the_chunks_among_the_cpus(monkeypatch, cpus):
    # Ten cells in five two-cell chunks; the caller takes ceil(5 / cpus) of them.
    seen = _inline_workers(monkeypatch, cpus, chunk=2)
    config = SweepConfig(channels=(Channel.Z, Channel.ISO), measures=("gqd", "entropy"),
                         kt_max=0.3, steps=5)
    records = run_sweep(replace(config, jobs=64))
    workers, pooled = seen
    cells = [(c.value, float(kt)) for c in config.channels for kt in np.linspace(0.0, 0.3, 5)]
    first = 2 * -(-5 // cpus)
    assert workers == cpus - 1
    assert pooled == [cells[lo:lo + 2] for lo in range(first, 10, 2)]
    assert records == run_sweep(config)


def test_a_huge_job_count_starts_one_process_per_chunk(monkeypatch):
    # One-cell chunks: one process per chunk, the caller's included.
    seen = _inline_workers(monkeypatch, cpus=64, chunk=1)
    config = SweepConfig(channels=(Channel.Z, Channel.ISO), measures=("gqd", "entropy"),
                         kt_max=0.3, steps=3)
    assert run_sweep(replace(config, jobs=10**12)) == run_sweep(config)
    assert seen[0] == 5 and [len(cells) for cells in seen[1]] == [1] * 5


def test_every_job_count_computes_the_same_chunks(monkeypatch):
    # The default 484-cell grid is four chunks, 128, 128, 128 and 100 cells, whichever
    # process computes them.
    _inline_workers(monkeypatch, cpus=64)
    computed, compute = {}, sweep._compute_chunk

    def recording(runs, *args):
        columns = compute(runs, *args)
        for name in columns:
            computed.setdefault(name, []).append(_cells(runs))
        return columns

    monkeypatch.setattr(sweep, "_compute_chunk", recording)
    config = SweepConfig(measures=("tau", "gqd"))
    chunks = []
    for jobs in (1, 2, 3, 64):
        computed.clear()
        run_sweep(replace(config, jobs=jobs))
        chunks.append(dict(computed))
    assert sorted(chunks[0]) == ["gqd_analytic", "gqd_numeric", "tau_analytic", "tau_numeric"]
    assert all(list(map(len, cells)) == [128, 128, 128, 100] for cells in chunks[0].values())
    assert chunks[0] == chunks[1] == chunks[2] == chunks[3]


def test_a_single_chunk_runs_without_a_pool(monkeypatch):
    monkeypatch.setattr(sweep, "_start", None)
    assert len(run_sweep(replace(FAST, jobs=1))) == 6


def test_a_one_chunk_sweep_starts_no_pool_whatever_the_jobs(monkeypatch):
    # 128 cells are one chunk, so a process count above one adds nothing.
    _inline_workers(monkeypatch, cpus=64)
    monkeypatch.setattr(sweep, "_start", None)
    config = SweepConfig(channels=(Channel.X, Channel.Y), measures=("gqd",), steps=64, jobs=64)
    assert len(run_sweep(config)) == 128


@pytest.mark.parametrize("measures, method", [(("tau", "ppt", "entropy"), "both"), (MEASURES, "analytic")],
                         ids=["state-only", "analytic"])
@pytest.mark.parametrize("jobs", [2, 64])
def test_a_request_without_the_discord_search_starts_no_worker(monkeypatch, measures, method, jobs):
    # 964 cells, eight chunks, 64 CPUs: eight processes, were the discord search requested.
    _inline_workers(monkeypatch, cpus=64)
    monkeypatch.setattr(sweep, "_start", lambda *args: pytest.fail("started a worker"))
    config = SweepConfig(measures=measures, method=method, steps=241)
    assert run_sweep(replace(config, jobs=jobs)) == run_sweep(config)


# 129 cells: two chunks, so under jobs=2, by ``run_sweep``'s rule, the caller computes the
# first and one real worker the second.  The patched ``_compute_chunk`` reaches a worker only
# through fork, the start method wherever the platform has it.
_TWO_CHUNKS = SweepConfig(channels=(Channel.X, Channel.Y, Channel.Z), measures=("tau", "gqd"),
                          kt_max=0.3, steps=43, jobs=2)
_FORKED = pytest.mark.skipif(sweep._CONTEXT.get_start_method() != "fork",
                             reason="a worker sees the patched chunk only when forked")


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this process if the block has not finished within ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"not finished within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _before_each_chunk(monkeypatch, caller=None, worker=None):
    """Patch ``_compute_chunk`` to call ``caller()`` first in this process, ``worker()`` in a worker."""
    pid, compute = os.getpid(), sweep._compute_chunk

    def compute_chunk(*args):
        act = caller if os.getpid() == pid else worker
        if act is not None:
            act()
        return compute(*args)

    monkeypatch.setattr(sweep, "_compute_chunk", compute_chunk)
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _raise(message):
    def fail():
        raise ValueError(message)
    return fail


@_FORKED
def test_a_worker_exception_is_raised_in_the_caller(monkeypatch):
    _before_each_chunk(monkeypatch, worker=_raise("no chunk in the worker"))
    with _deadline(60), pytest.raises(ValueError, match="^no chunk in the worker$"):
        run_sweep(_TWO_CHUNKS)
    assert multiprocessing.active_children() == []


@_FORKED
def test_a_worker_that_dies_is_a_runtime_error_naming_its_exit_code(monkeypatch, tmp_path, capsys):
    _before_each_chunk(monkeypatch, worker=lambda: os._exit(7))
    out = tmp_path / "sweep.csv"
    with _deadline(60):
        with pytest.raises(RuntimeError, match="exited with code 7 "):
            run_sweep(_TWO_CHUNKS)
        assert main(["--channel", "x", "--channel", "y", "--channel", "z", "--measure", "tau",
                     "--measure", "gqd", "--kt-max", "0.3", "--steps", "43", "--jobs", "2",
                     "--out", str(out)]) == 3
    assert "exited with code 7 " in capsys.readouterr().err and not out.exists()
    assert multiprocessing.active_children() == []


@_FORKED
def test_a_caller_failure_leaves_no_worker_running(monkeypatch):
    # The worker would take 30 s: the caller must stop it, not wait for it.
    _before_each_chunk(monkeypatch, caller=_raise("no chunk in the caller"), worker=lambda: time.sleep(30))
    with _deadline(10), pytest.raises(ValueError, match="^no chunk in the caller$"):
        run_sweep(_TWO_CHUNKS)
    assert multiprocessing.active_children() == []


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@_FORKED
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
@pytest.mark.parametrize("fail", [None, "worker", "caller"])
def test_a_two_process_sweep_leaves_no_descriptor_open(monkeypatch, fail):
    # A pipe end left open is closed by its finalizer without a ResourceWarning, so the
    # warning filters cannot see a leak; the descriptor count can.  The failing runs keep
    # run_sweep's frame alive in the traceback, so an end it did not close stays counted.
    started = []
    start = sweep._start
    monkeypatch.setattr(sweep, "_start", lambda *args: started.append(args) or start(*args))
    act = _raise(f"no chunk in the {fail}")
    _before_each_chunk(monkeypatch, **({fail: act} if fail else {}))
    before = _open_descriptors()
    with _deadline(60):
        if fail is None:
            assert len(run_sweep(_TWO_CHUNKS)) == 129
        else:
            with pytest.raises(ValueError, match=f"^no chunk in the {fail}$") as raised:
                run_sweep(_TWO_CHUNKS)
            assert raised.traceback
    assert len(started) == 1
    assert _open_descriptors() == before
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("start_method", [m for m in multiprocessing.get_all_start_methods() if m != "fork"])
def test_a_worker_started_without_fork_computes_the_same_records(monkeypatch, start_method):
    # A worker that starts from a fresh interpreter imports the sweep again instead of
    # inheriting it, so it must be handed everything it computes with.
    monkeypatch.setattr(sweep, "_CONTEXT", multiprocessing.get_context(start_method))
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = []
    start = sweep._start
    monkeypatch.setattr(sweep, "_start", lambda *args: started.append(args) or start(*args))
    with _deadline(60):
        records = run_sweep(_TWO_CHUNKS)
    assert len(started) == 1
    assert records == run_sweep(replace(_TWO_CHUNKS, jobs=1))
    assert multiprocessing.active_children() == []


_STUB_MATPLOTLIB = """\
CALLS = []


def use(backend):
    CALLS.append(["use", backend])
"""

_STUB_PYPLOT = """\
import json
import os

from matplotlib import CALLS


class _Axes:
    def __init__(self, panel):
        self.panel = panel

    def plot(self, xs, ys, style, label=None):
        CALLS.append(["plot", self.panel, list(xs), list(ys), style, label])

    def __getattr__(self, name):
        return lambda *args, **kwargs: None


class _Figure:
    def tight_layout(self):
        pass

    def savefig(self, path, **kwargs):
        CALLS.append(["savefig", path])
        with open(os.environ["STUB_LOG"], "w") as fh:
            json.dump(CALLS, fh)


def subplots(rows, cols, **kwargs):
    return _Figure(), [[_Axes(c) for c in range(cols)] for _ in range(rows)]
"""


def _stub_plot_calls(tmp_path, script_path, *args):
    """Run a plot script under the stub matplotlib; returns its exit status, stderr and calls."""
    stub = tmp_path / "stub" / "matplotlib"
    stub.mkdir(parents=True, exist_ok=True)
    (stub / "__init__.py").write_text(_STUB_MATPLOTLIB)
    (stub / "pyplot.py").write_text(_STUB_PYPLOT)
    log = tmp_path / "calls.json"
    log.unlink(missing_ok=True)
    env = dict(os.environ, STUB_LOG=str(log),
               PYTHONPATH=os.pathsep.join(filter(None, [str(tmp_path / "stub"),
                                                       os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, script_path, *args], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=120)
    return proc.returncode, proc.stderr, json.loads(log.read_text()) if log.exists() else None


def _csv_curves(csv_path, panel, column):
    """The (panel, xs, ys) curve of ``column`` for each channel of a sweep CSV, in file order."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    channels = list(dict.fromkeys(r["channel"] for r in rows))
    return [(panel, [float(r["kappa_t"]) for r in rows if r["channel"] == c],
             [float(r[column]) for r in rows if r["channel"] == c]) for c in channels]


def test_emit_plot_script_declares_one_curve_per_channel(tmp_path):
    config = SweepConfig(measures=("tau",), kt_max=0.2, steps=2)
    records = run_sweep(config)
    csv_path = str(tmp_path / "sweep.csv")
    emit_csv(records, csv_path)
    script_path = emit_plot_script(records, csv_path)
    assert script_path == str(tmp_path / "sweep_plot.py")
    code, err, calls = _stub_plot_calls(tmp_path, script_path)
    assert code == 0, err
    plots = [call[1:] for call in calls if call[0] == "plot"]
    assert [tuple(p[:3]) for p in plots] == _csv_curves(csv_path, 0, "tau_numeric")
    assert [tuple(p[3:]) for p in plots] == [("-", "Pauli-X"), ("--", "Pauli-Y"),
                                             ("-.", "Pauli-Z"), (":", "isotropic")]


def test_emit_plot_script_handles_two_panels(tmp_path):
    config = SweepConfig(channels=(Channel.Z,), measures=("tau", "gqd"),
                         kt_max=0.1, steps=2)
    records = run_sweep(config)
    csv_path = str(tmp_path / "sweep.csv")
    emit_csv(records, csv_path)
    code, err, calls = _stub_plot_calls(tmp_path, emit_plot_script(records, csv_path))
    assert code == 0, err
    plots = [tuple(call[1:4]) for call in calls if call[0] == "plot"]
    assert plots == _csv_curves(csv_path, 0, "tau_numeric") + _csv_curves(csv_path, 1, "gqd_numeric")


def test_the_plot_script_draws_the_csv_given_as_its_argument(tmp_path):
    # The script picks its panels when run: one written for a tau sweep draws a gqd-only CSV
    # on its analytic column, and refuses a CSV with neither measure.
    records = run_sweep(replace(FAST, measures=("tau",)))
    script_path = emit_plot_script(records, str(tmp_path / "sweep.csv"))
    other = str(tmp_path / "other.csv")
    emit_csv(run_sweep(replace(FAST, measures=("gqd",), method="analytic")), other)
    code, err, calls = _stub_plot_calls(tmp_path, script_path, other)
    assert code == 0, err
    assert [tuple(call[1:4]) for call in calls if call[0] == "plot"] == _csv_curves(other, 0, "gqd_analytic")
    assert calls[-1] == ["savefig", str(tmp_path / "other_curves.png")]
    emit_csv(run_sweep(replace(FAST, measures=("entropy",))), other)
    code, err, calls = _stub_plot_calls(tmp_path, script_path, other)
    assert code == 1 and "neither tau nor gqd" in err and calls is None


def test_emit_plot_script_rejects_plotless_measures(tmp_path):
    records = run_sweep(replace(FAST, measures=("entropy",)))
    with pytest.raises(ValueError, match="neither tau nor gqd"):
        emit_plot_script(records, str(tmp_path / "sweep.csv"))


def test_emitted_plot_script_runs(tmp_path):
    pytest.importorskip("matplotlib")
    records = run_sweep(replace(FAST, measures=("tau",)))
    csv_path = str(tmp_path / "sweep.csv")
    emit_csv(records, csv_path)
    script_path = emit_plot_script(records, csv_path)
    proc = subprocess.run([sys.executable, script_path], capture_output=True,
                          text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(str(tmp_path / "sweep_curves.png"))


def test_emitted_plot_script_draws_the_csv_series(tmp_path):
    config = SweepConfig(channels=(Channel.X, Channel.Z), measures=("tau", "gqd"),
                         method="analytic", kt_max=0.3, steps=3)
    records = run_sweep(config)
    csv_path = str(tmp_path / "sweep.csv")
    emit_csv(records, csv_path)
    script_path = emit_plot_script(records, csv_path)
    stub = tmp_path / "stub" / "matplotlib"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text(_STUB_MATPLOTLIB)
    (stub / "pyplot.py").write_text(_STUB_PYPLOT)
    log = tmp_path / "calls.json"
    env = dict(os.environ, STUB_LOG=str(log),
               PYTHONPATH=os.pathsep.join(filter(None, [str(tmp_path / "stub"),
                                                       os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, script_path], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(log.read_text())

    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = []
    for panel, column in enumerate(("tau_analytic", "gqd_analytic")):
        for channel in ("x", "z"):
            mine = [r for r in rows if r["channel"] == channel]
            expected.append((panel, [float(r["kappa_t"]) for r in mine],
                             [float(r[column]) for r in mine]))
    plots = [tuple(call[1:4]) for call in calls if call[0] == "plot"]
    assert plots == expected
    assert calls[0] == ["use", "Agg"]
    assert calls[-1] == ["savefig", str(tmp_path / "sweep_curves.png")]


class _FailingFile:
    """File stand-in that writes half of what it is given, then reports a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_plot_script_write_keeps_the_previous_script(tmp_path, monkeypatch):
    records = run_sweep(replace(FAST, measures=("tau",)))
    csv_path = str(tmp_path / "sweep.csv")
    script_path = emit_plot_script(records, csv_path)
    before = Path(script_path).read_bytes()

    real_fdopen = os.fdopen
    monkeypatch.setattr(sweep.os, "fdopen", lambda *a, **k: _FailingFile(real_fdopen(*a, **k)))
    with pytest.raises(OSError, match="No space"):
        emit_plot_script(records[:3], csv_path)
    with pytest.raises(OSError, match="No space"):
        emit_csv(records, csv_path)
    assert Path(script_path).read_bytes() == before
    assert not os.path.exists(csv_path)
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


def test_written_files_follow_the_umask(tmp_path):
    records = run_sweep(replace(FAST, measures=("tau",)))
    csv_path = str(tmp_path / "sweep.csv")
    previous = os.umask(0o022)
    try:
        emit_csv(records, csv_path)
        script_path = emit_plot_script(records, csv_path)
    finally:
        os.umask(previous)
    for path in (csv_path, script_path):
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644, path


def test_emit_csv_leaves_the_umask_alone(tmp_path, monkeypatch):
    # Setting the umask, even to read it back, would give a file that another thread of the
    # process creates meanwhile the wrong mode.
    records = run_sweep(replace(FAST, measures=("tau",)))
    monkeypatch.setattr(sweep.os, "umask", lambda mask: pytest.fail(f"os.umask({mask:#o}) called"))
    emit_csv(records, str(tmp_path / "sweep.csv"))
    assert os.listdir(tmp_path) == ["sweep.csv"]


_spec = importlib.util.spec_from_file_location(
    "csv_deviation", Path(__file__).resolve().parents[1] / "scripts" / "csv_deviation.py")
csv_deviation = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_deviation)


def _assert_matches_golden(out, golden):
    # Every column's text must match, but gqd_numeric's values only within 1e-14:
    # %.12g is relative, so tiny Z-channel values may move in the last digit.
    header, columns = csv_deviation.read_columns(out)
    golden_header, golden_columns = csv_deviation.read_columns(golden)
    assert header == golden_header
    assert [len(c) for c in columns] == [len(c) for c in golden_columns]
    report = {name: csv_deviation.column_deviation(want, got)
              for name, got, want in zip(header, columns, golden_columns)}
    worst, _ = report.pop("gqd_numeric")
    assert worst <= 1e-14 and all(changed == 0 for _, changed in report.values()), (
        f"max |a - b| and changed rows per column: {report}, gqd_numeric {worst}")


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
def test_sweep_reproduces_the_golden_csv(tmp_path, jobs):
    out = str(tmp_path / "sweep.csv")
    assert main(["--kt-max", "0.6", "--steps", "13", "--method", "both",
                 "--jobs", jobs, "--out", out]) == 0
    _assert_matches_golden(out, GOLDEN)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_default_sweep_reproduces_the_golden_csv(tmp_path, jobs):
    # The default request: every channel and measure, 121 steps to kappa*t = 0.6, 484 cells.
    out = str(tmp_path / "sweep.csv")
    assert main(["--jobs", jobs, "--out", out]) == 0
    _assert_matches_golden(out, GOLDEN_DEFAULT)


def test_default_sweep_discord_is_its_closed_form():
    # Outcome probabilities enter the search as continuous p log2 p, with no floor to
    # push them under, so every cell's optimum meets the closed form to rounding.
    records = run_sweep(SweepConfig())
    assert len(records) == 484
    assert max(abs(r.gqd_numeric - r.gqd_analytic) for r in records) <= 1e-14


def _sweep(channels, steps, measures=MEASURES):
    """A sweep of ``channels`` on ``steps`` grid points to kappa*t = 0.6, and its cells."""
    config = SweepConfig(channels=channels, measures=measures, steps=steps)
    grid = np.linspace(0.0, 0.6, steps)
    return config, [(c.value, float(kt)) for c in channels for kt in grid]


XYZ = (Channel.X, Channel.Y, Channel.Z)


@pytest.mark.parametrize("channels, steps, measures",
                         [pytest.param(XYZ, 43, MEASURES, id="129"),
                          pytest.param((Channel.ISO,), 257, ("tau", "ppt", "entropy"), id="257")])
def test_chunk_records_equal_one_cell_chunks(channels, steps, measures):
    # 129 and 257 cells end one cell into a new 128-cell chunk; at 129 the discord
    # search, which takes each chunk's stack, crosses the chunk boundary too.
    assert sweep._CHUNK == 128
    config, cells = _sweep(channels, steps, measures)
    alone = [SweepRecord(value, kt, **{name: column.item() for name, column in
                                       sweep._compute_chunk([(Channel(value), [kt])], measures, "both").items()})
             for value, kt in cells]
    assert run_sweep(config) == alone


def test_sweep_searches_each_chunk_as_one_stack(monkeypatch):
    # 129 cells: the discord search of the 128-cell chunk, then of the 1-cell chunk.
    searched, search = [], discord._search

    def counting_search(objective, qubits):
        searched.append(len(objective.coefficients))
        return search(objective, qubits)

    monkeypatch.setattr(discord, "_search", counting_search)
    records = run_sweep(_sweep(XYZ, 43)[0])
    assert searched == [128, 1]
    assert max(abs(r.gqd_numeric - r.gqd_analytic) for r in records) <= 1e-14


def _sweep_peak(steps):
    """tracemalloc peak, in bytes, of an all-measure X, Y, Z sweep of ``steps`` points."""
    config = _sweep(XYZ, steps)[0]
    tracemalloc.start()
    try:
        run_sweep(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunk_memory_is_flat_in_the_cell_count():
    # Only the output columns outlive a chunk: 129 more cells add their records, not their
    # states.  Keeping each chunk's states for one search after the loop added 565 KiB here.
    run_sweep(_sweep(XYZ, 2)[0])  # first-call caches
    small, large = _sweep_peak(43), _sweep_peak(86)
    assert large - small < 128 * 1024, (small, large)


def _count_eigenproblems(monkeypatch):
    """Record the stack shape of every LAPACK eigenproblem call, by routine."""
    calls = {"eigvalsh": [], "eigvals": [], "eigh": [], "svd": []}

    def counted(name):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            calls[name].append(a.shape)
            return original(a, *args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


def _eigenproblem_counts(monkeypatch, measures):
    """LAPACK calls by routine of a 160-cell sweep of ``measures``."""
    calls = _count_eigenproblems(monkeypatch)
    assert len(run_sweep(SweepConfig(measures=measures, steps=40))) == 160
    return {name: len(shapes) for name, shapes in calls.items()}


def test_state_sweep_eigenproblem_count_is_pinned(monkeypatch):
    # 4 channels x 40 steps = 160 cells = 2 chunks, of 128 and 32 states.  Every channel
    # state is real and X-shaped (nonzero only on the diagonal and anti-diagonal), and so
    # are its partial transposes and rho F, so the spectra, PPT minima and Wootters roots
    # all come from 2 x 2 pairs in closed form: no chunk makes a LAPACK eigensolve.  The
    # dense route's one call per stack is pinned by the dense-stack test below.
    assert (_eigenproblem_counts(monkeypatch, ("tau", "ppt", "entropy"))
            == {"eigvalsh": 0, "eigvals": 0, "eigh": 0, "svd": 0})


def test_discord_sweep_eigenproblem_count_is_pinned(monkeypatch):
    # The discord search takes each chunk's validated spectra: no eigensolve of its own,
    # and the channel states' spectra need none (see the state sweep's pin).
    assert (_eigenproblem_counts(monkeypatch, MEASURES)
            == {"eigvalsh": 0, "eigvals": 0, "eigh": 0, "svd": 0})


def test_a_dense_stack_makes_one_eigensolve_per_call(monkeypatch):
    # Real states that are not X-shaped still go to LAPACK as one stack per call; beside
    # X-shaped channel states, only the dense ones do.
    rng = np.random.default_rng(17)
    factors = [rng.normal(size=(16, rank)) for rank in (1, 3, 16, 16, 5)]
    dense = np.stack([a @ a.T / np.trace(a @ a.T) for a in factors])
    x = np.stack([closed_form_state(channel, 0.2) for channel in Channel])
    calls = _count_eigenproblems(monkeypatch)
    for stack in (dense, np.concatenate([x[:2], dense, x[2:]])):
        for name in calls:
            calls[name].clear()
        _density_spectra(stack)
        _ppt_min_eigenvalues(stack, (0,))
        _tau_lower_bounds(stack)
        assert calls == {"eigvalsh": [(5, 16, 16)] * 2, "eigvals": [(5, 16, 16)], "eigh": [], "svd": []}
