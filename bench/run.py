"""Benchmark runner: one workload, one seed, one closed loop, one client.

    python3 bench/run.py --workload gqd-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object carrying the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics instead.  Lines before it describe the host and
the run.  See ``bench/README.md`` for what each workload and metric
means.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# One BLAS thread, before numpy is first imported: a --jobs 2 request
# with two BLAS threads per process would run four threads on two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one ghzdyn benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=("gqd-sweep", "state-sweep", "api-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole decks until this many seconds have passed "
                             "(0 runs exactly one deck)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for repeats)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "ghzdyn", "__init__.py")):
        print(f"bench: no ghzdyn sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import harness  # noqa: E402  (imports numpy and ghzdyn: part of set-up)

    return harness.run(args, _PROCESS_START)


if __name__ == "__main__":
    sys.exit(main())
