"""Command-line sweeps, plots and self-verification.

Precedence is flags over config file over defaults.  The config file is
flat ``key = value`` text using the flag names without dashes-dashes;
repeatable flags become comma lists, e.g.::

    channel = x, z
    measure = tau, gqd
    kt-max = 0.4
    steps = 41

Exit codes: 0 success, 1 usage error (bad flags, bad config file, bad
values), 2 verification failure, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .channels import Channel
from .sweep import MEASURES, METHODS, SweepConfig, emit_csv, emit_plot_script, run_sweep
from .verify import format_report, run_checks

_CHANNEL_VALUES = tuple(c.value for c in Channel)

_SWEEP_DEFAULTS = SweepConfig()
_DEFAULTS = {
    "channel": [c.value for c in _SWEEP_DEFAULTS.channels],
    "measure": list(_SWEEP_DEFAULTS.measures),
    "kt-max": _SWEEP_DEFAULTS.kt_max,
    "steps": _SWEEP_DEFAULTS.steps,
    "method": _SWEEP_DEFAULTS.method,
    "out": _SWEEP_DEFAULTS.out,
    "plot": _SWEEP_DEFAULTS.plot,
    "jobs": _SWEEP_DEFAULTS.jobs,
}
_CONFIG_KEYS = tuple(_DEFAULTS)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghzdyn",
        description="Sweep entanglement and discord measures of a noisy 4-qubit GHZ register.",
        epilog="example: ghzdyn --channel x --channel z --measure tau --kt-max 0.4 --out run.csv",
    )
    parser.add_argument("--channel", action="append", choices=_CHANNEL_VALUES,
                        help="noise channel to sweep; repeatable (default: all)")
    parser.add_argument("--measure", action="append", choices=MEASURES,
                        help="quantity to compute; repeatable (default: all)")
    parser.add_argument("--kt-max", type=float, default=None,
                        help=f"largest kappa*t on the grid (default {_DEFAULTS['kt-max']})")
    parser.add_argument("--steps", type=int, default=None,
                        help=f"number of grid points including both ends (default {_DEFAULTS['steps']})")
    parser.add_argument("--method", choices=METHODS, default=None,
                        help=f"analytic, numeric, or both columns (default {_DEFAULTS['method']})")
    parser.add_argument("--out", default=None,
                        help=f"CSV output path (default {_DEFAULTS['out']})")
    parser.add_argument("--plot", action="store_true", default=None,
                        help="also emit a standalone matplotlib script next to the CSV")
    parser.add_argument("--jobs", type=int, default=None,
                        help=f"sweep blocks: the caller computes the first, at most one worker process "
                             f"per other CPU the rest (default {_DEFAULTS['jobs']})")
    parser.add_argument("--config", default=None,
                        help="flat key = value file supplying defaults for the flags above")
    parser.add_argument("--verify", action="store_true",
                        help="run the built-in cross-checks and exit (0 pass, 2 fail)")
    return parser


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` file, rejecting unknown keys and noise."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r} "
                             f"(known: {', '.join(_CONFIG_KEYS)})")
        values[key] = value
    return values


def _coerce(key: str, text: str):
    if key in ("channel", "measure"):
        return [item.strip() for item in text.split(",") if item.strip()]
    if key in ("steps", "jobs"):
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"config key {key!r}: expected an integer, got {text!r}") from None
    if key == "kt-max":
        try:
            return float(text)
        except ValueError:
            raise ValueError(f"config key {key!r}: expected a number, got {text!r}") from None
    if key == "plot":
        lowered = text.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise ValueError(f"config key 'plot': expected true/false, got {text!r}")
    return text


def build_config(args: argparse.Namespace) -> SweepConfig:
    """Merge defaults, the optional config file, and the flags into a SweepConfig."""
    merged = dict(_DEFAULTS)
    if args.config:
        for key, text in parse_config_file(args.config).items():
            merged[key] = _coerce(key, text)
    for key in _CONFIG_KEYS:
        value = getattr(args, key.replace("-", "_"))
        if value is not None:
            merged[key] = value

    bad = [c for c in merged["channel"] if c not in _CHANNEL_VALUES]
    if bad:
        raise ValueError(f"unknown channel values {bad} (expected {list(_CHANNEL_VALUES)})")
    config = SweepConfig(
        channels=tuple(Channel(c) for c in merged["channel"]),
        measures=tuple(merged["measure"]),
        kt_max=merged["kt-max"],
        steps=merged["steps"],
        method=merged["method"],
        out=merged["out"],
        plot=bool(merged["plot"]),
        jobs=merged["jobs"],
    )
    config.validate()
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.verify:
        try:
            results = run_checks()
        except Exception as exc:  # registry failures are runtime, not usage
            print(f"runtime error: {exc}", file=sys.stderr)
            return 3
        print(format_report(results))
        return 0 if all(r.passed for r in results) else 2

    try:
        config = build_config(args)
    except ValueError as exc:
        print(f"ghzdyn: error: {exc}", file=sys.stderr)
        return 1

    try:
        records = run_sweep(config)
        emit_csv(records, config.out)
        print(f"wrote {len(records)} records to {config.out}")
        if config.plot:
            script = emit_plot_script(records, config.out)
            print(f"wrote plot script to {script}")
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
