"""Set-up, the timed closed loop, the traced run and the metrics they yield.

One client issues one operation at a time and issues the next only when
the previous one has returned and been checked (a closed loop).  Timed
regions cover only the call into the package; input generation and
checking happen between them.
"""

from __future__ import annotations

import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import tracing
import twins
import workloads
from ghzdyn import verify

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

SETUP_REPEATS = 3  # setup_s is the median over this many set-ups
REPLAY_SHARE = 0.1  # share of --seconds replayed, plain and traced, for the overhead
REPLAY_MIN_OPS = 3
HARD_STOP_EXTRA = 60.0  # stop mid-deck this many seconds after --seconds
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many operations beyond it

VERIFY_CHECKS = ("tau-closed-form", "tau-vanishing", "sudden-change", "gqd-x", "gqd-z",
                 "gqd-iso", "ordering", "ppt", "integrator", "structure")
TWINS = {
    "gqd-sweep": ("gqd", "tau"),
    "state-sweep": ("tau", "entropy"),
    "api-mix": ("evolve", "werner", "tau_generator"),
}


@dataclass
class Record:
    index: int
    phase: str
    op: workloads.Op | None
    outcome: workloads.Outcome | None


class Run:
    """Every operation of one benchmark run, in order, with the tracer's spans."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.records: list[Record] = []
        self.tracer = tracing.Tracer()

    def do(self, op: workloads.Op, phase: str) -> Record:
        self.tracer.op = len(self.records)
        record = Record(len(self.records), phase, op, workloads.run_op(op, self.workdir))
        self.records.append(record)
        if not record.outcome.ok:
            print(f"bench: {phase} {op.kind} {op.args.get('channels', '')} failed: "
                  f"{record.outcome.error}", file=sys.stderr)
        return record

    def phase(self, name: str) -> list[Record]:
        return [r for r in self.records if r.phase == name]

    def failed(self) -> int:
        return sum(1 for r in self.records if r.outcome is not None and not r.outcome.ok)

    def loop(self, decks, seconds: float) -> int:
        """Run whole decks until ``seconds`` have passed; return the deck count."""
        start = time.perf_counter()
        previous = None
        count = 0
        for deck in decks:
            count += 1
            for op in deck:
                record = self.do(op, "loop")
                if previous is not None:
                    previous.outcome.csv = None  # keep only the last request's bytes
                previous = record
                if time.perf_counter() - start >= seconds + HARD_STOP_EXTRA:
                    return count
            if time.perf_counter() - start >= seconds:
                return count
        return count

    def check_jobs_identity(self) -> None:
        """Rerun the last request at the other --jobs setting; bytes must match."""
        last = self.phase("loop")[-1]
        other = workloads.with_jobs(last.op, 3 - last.op.args["jobs"])
        record = self.do(other, "identity")
        if record.outcome.ok and record.outcome.csv != last.outcome.csv:
            record.outcome.ok = False
            record.outcome.error = "CSV bytes differ between --jobs 1 and --jobs 2"
            print(f"bench: identity failed: {record.outcome.error}", file=sys.stderr)

    def replay_overhead(self, seconds: float) -> float:
        """Replay the cheapest loop operations plain and traced; return the excess in %.

        Each operation runs both ways, in alternating order, and the
        result is the median of the per-operation ratios, so a slow spell
        of the host moves it less than a ratio of sums would.
        """
        chosen, total = [], 0.0
        for record in sorted(self.phase("loop"), key=lambda r: r.outcome.latency):
            if total >= REPLAY_SHARE * seconds and len(chosen) >= REPLAY_MIN_OPS:
                break
            chosen.append(record)
            total += record.outcome.latency
        ratios = []
        for i, record in enumerate(chosen):
            latency = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    self.tracer.install()
                else:
                    self.tracer.uninstall()
                latency[traced] = self.do(record.op, "replay").outcome.latency
            ratios.append(latency[True] / latency[False])
        self.tracer.install()
        return 100.0 * (statistics.median(ratios) - 1.0)

    def probe(self, workload: str, seed: int) -> None:
        """Run a traced miniature of every other workload, each after its warm-up."""
        for home in workloads.WORKLOADS:
            if home == workload:
                continue
            self.tracer.uninstall()
            for op in workloads.warmup_ops(home):
                self.do(op, "probe-warmup")
            self.tracer.install()
            for op in workloads.probe_ops(home, seed):
                self.do(op, "probe")

    def run_verify(self) -> int:
        """Run the --verify registry traced; return the number of failed checks."""
        self.tracer.op = len(self.records)
        self.records.append(Record(len(self.records), "verify", None, None))
        try:
            results = verify.run_checks()
        except Exception as exc:  # reported as a metric, not gated
            print(f"bench: verify raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return len(VERIFY_CHECKS)
        return sum(1 for r in results if not r.passed)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, latency) at the highest percentile with TAIL_BEYOND beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def peak_rss_mib() -> float:
    """Peak resident memory of this process or its largest waited-for child."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024.0


def end_to_end(run: Run, setups: list[float], peak: float) -> tuple[dict, dict]:
    loop = run.phase("loop")
    latencies = [r.outcome.latency for r in loop]
    units = sum(r.op.units for r in loop if r.outcome.ok)
    percentile, tail_latency = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "units_per_s": (units / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_latency, "ms"),
        "peak_rss_mb": (peak, "MiB"),
    }
    info = {"op_tail_percentile": percentile, "op_tail_samples": len(latencies),
            "units": units, "setup_samples_s": setups}
    return metrics, info


def per_layer(run: Run, workload: str, overhead: float, checks_failed: int) -> dict:
    spans = run.tracer.spans
    children = run.tracer.child_durations()
    by_op: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_op[span.op].append(i)

    def source(home: str) -> list[Record]:
        # A layer is measured on its home workload: the loop when that is
        # the workload being run, otherwise the traced miniature of it.
        phase = "loop" if home == workload else "probe"
        return [r for r in run.records if r.phase == phase and r.op.home == home]

    def durations(records: list[Record], name: str, self_only: bool = False) -> list[float]:
        return [spans[i].end - spans[i].start - (children[i] if self_only else 0.0)
                for r in records for i in by_op[r.index] if spans[i].name == name]

    m: dict[str, tuple[float, str]] = {}

    gqd = source("gqd-sweep")
    gd = [i for r in gqd for i in by_op[r.index] if spans[i].name == "discord.global_discord"]
    gd_time = sum(spans[i].end - spans[i].start for i in gd)
    gd_evals = [spans[i].evals for i in gd]
    m["discord.global_discord.ms"] = (1e3 * gd_time / len(gd) if gd else 0.0, "ms")
    m["discord.global_discord.evals"] = (_mean(gd_evals), "count")
    m["discord.global_discord.us_per_eval"] = (
        1e6 * gd_time / sum(gd_evals) if sum(gd_evals) else 0.0, "us")
    m["discord.global_discord.share_pct"] = (
        100.0 * gd_time / sum(r.outcome.latency for r in gqd), "%")

    api = source("api-mix")
    m["discord.bipartite_discord.ms"] = (1e3 * _mean(durations(api, "discord.bipartite_discord")), "ms")
    m["entanglement.tau_generator_bound.ms"] = (
        1e3 * _mean(durations(api, "entanglement.tau_generator_bound")), "ms")
    for n in (2, 3, 4, 5):
        sized = [r for r in api if r.op.kind == "evolve" and r.op.args["n"] == n]
        m[f"channels.evolve_numeric.n{n}_ms"] = (
            1e3 * _mean(durations(sized, "channels.evolve_numeric")), "ms")

    state = source("state-sweep")
    jobs1 = [r for r in state if r.op.args["jobs"] == 1]
    jobs2 = [r for r in state if r.op.args["jobs"] == 2]
    for name in ("entanglement.tau_lower_bound", "entanglement.ppt_min_eigenvalue",
                 "channels.closed_form_state", "linalg.von_neumann_entropy",
                 "linalg.assert_density_matrix"):
        m[f"{name}.us"] = (1e6 * _mean(durations(jobs1, name)), "us")
    m["linalg.assert_density_matrix.calls_per_cell"] = (
        len(durations(jobs1, "linalg.assert_density_matrix")) / sum(r.op.units for r in jobs1),
        "count")
    m["cli.main.self_ms"] = (1e3 * _mean(durations(state, "cli.main", self_only=True)), "ms")
    m["sweep.run_sweep.jobs1_self_ms"] = (
        1e3 * _mean(durations(jobs1, "sweep.run_sweep", self_only=True)), "ms")
    m["sweep.run_sweep.jobs2_ms"] = (1e3 * _mean(durations(jobs2, "sweep.run_sweep")), "ms")
    m["sweep.emit_csv.ms"] = (1e3 * _mean(durations(state, "sweep.emit_csv")), "ms")

    checks = run.phase("verify")
    m["verify.run_checks.s"] = (sum(durations(checks, "verify.run_checks")), "s")
    for key in VERIFY_CHECKS:
        m[f"verify.{key}.s"] = (sum(durations(checks, f"verify.{key}")), "s")
    m["verify.checks_failed"] = (float(checks_failed), "count")
    m["trace.overhead_pct"] = (overhead, "%")

    for home, names in TWINS.items():
        for twin in names:
            worst = max((r.outcome.devs.get(twin, 0.0) for r in source(home)), default=0.0)
            m[f"check.{home}.{twin}.max_dev"] = (worst, "1")
            m[f"check.{home}.{twin}.tol_ratio"] = (worst / twins.TOLERANCES[twin], "1")
    return m


def environment() -> dict:
    """Host facts that bound what the numbers mean."""
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "blas": None, "blas_version": None,
           "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "l2_bytes": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"], env["blas_version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    # The OpenBLAS bundled with numpy wheels reports its live thread count.
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                env["blas_threads"] = getattr(lib, symbol)()
                break
    try:
        # glibc: sysconf(_SC_LEVEL2_CACHE_SIZE), which python's os module does not name.
        l2 = ctypes.CDLL(None).sysconf(191)
        env["l2_bytes"] = l2 if l2 > 0 else None
    except (OSError, AttributeError):
        pass
    env["jobs_note"] = (f"{env['nproc']} CPUs: --jobs above {env['nproc']} "
                        "cannot be measured on this host")
    return env


def _setup_child(args) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up repeat failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(args, process_start: float) -> int:
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        return _run(args, process_start, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, process_start: float, workdir: str) -> int:
    run_ = Run(workdir)
    decks = workloads.deck_stream(args.workload, args.seed)
    first = next(decks)
    for op in workloads.warmup_ops(args.workload):
        run_.do(op, "warmup")
    setup = time.perf_counter() - process_start
    if args.setup_only:
        print(json.dumps({"setup_s": setup, "attempted": len(run_.records),
                          "failed": run_.failed()}))
        return 0

    if args.trace:
        run_.tracer.install()
    loop_start = time.perf_counter()
    deck_count = run_.loop(itertools.chain([first], decks), args.seconds)
    loop_wall = time.perf_counter() - loop_start
    if args.workload == "state-sweep":
        run_.check_jobs_identity()

    attempted, failed = len(run_.records), run_.failed()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "decks": deck_count, "loop_wall_s": loop_wall,
            "loop_ops": len(run_.phase("loop")),
            "unit": "call" if args.workload == "api-mix" else "sweep cell"}
    if args.workload == "gqd-sweep":
        info["kt0_cell_share"] = workloads.kt0_share([r.op for r in run_.phase("loop")])
    if args.trace:
        overhead = run_.replay_overhead(args.seconds)
        run_.probe(args.workload, args.seed)
        checks_failed = run_.run_verify()
        run_.tracer.uninstall()
        metrics = per_layer(run_, args.workload, overhead, checks_failed)
        attempted, failed = len([r for r in run_.records if r.op]), run_.failed()
    else:
        peak = peak_rss_mib()  # before any set-up repeat starts a process
        setups = [setup]
        for _ in range(SETUP_REPEATS - 1):
            child = _setup_child(args)
            setups.append(child["setup_s"])
            attempted += child["attempted"]
            failed += child["failed"]
        metrics, extra = end_to_end(run_, setups, peak)
        info.update(extra)
    info.update({"ops": attempted, "ops_failed": failed})

    print("env " + json.dumps(environment()))
    print("run " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"metric ops = {attempted} count")
    print(f"metric ops_failed = {failed} count")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
