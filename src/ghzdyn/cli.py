"""Command-line sweeps, plots and self-verification.

Precedence is flags over config file over defaults.  The config file is
flat ``key = value`` text, each value read as the flag ``--key=value``, so
a bad one fails as the flag would; repeatable flags become comma lists, a
key given twice is a usage error, and ``#`` starts a comment only at a
line's start or after whitespace::

    channel = x, z
    measure = tau, gqd
    kt-max = 0.4
    steps = 41

Exit codes: 0 success, 1 usage error (bad flags, bad config file, bad
values), 2 verification failure, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import replace

from .channels import Channel
from .sweep import _CHUNK, MEASURES, METHODS, SweepConfig, emit_csv, emit_plot_script, run_sweep
from .verify import format_report, run_checks

_CHANNEL_VALUES = tuple(c.value for c in Channel)
_SWEEP_DEFAULTS = SweepConfig()
# Config key (the flag's name) -> SweepConfig field (the flag's dest).
_KEYS = {"channel": "channels", "measure": "measures", "kt-max": "kt_max", "steps": "steps",
         "method": "method", "out": "out", "plot": "plot", "jobs": "jobs"}
_PLOT_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser(exit_on_error: bool = True) -> argparse.ArgumentParser:
    """The flag parser, built once per process and ``exit_on_error``; parsing leaves it unchanged."""
    parser = _Parser(
        prog="ghzdyn",
        description="Sweep entanglement and discord measures of a noisy 4-qubit GHZ register.",
        epilog="example: ghzdyn --channel x --channel z --measure tau --kt-max 0.4 --out run.csv",
        exit_on_error=exit_on_error,
    )
    parser.add_argument("--channel", action="append", dest="channels", type=Channel, choices=_CHANNEL_VALUES,
                        help="noise channel to sweep; repeatable (default: all)")
    parser.add_argument("--measure", action="append", dest="measures", choices=MEASURES,
                        help="quantity to compute; repeatable (default: all)")
    parser.add_argument("--kt-max", type=float, default=None,
                        help=f"largest kappa*t on the grid (default {_SWEEP_DEFAULTS.kt_max})")
    parser.add_argument("--steps", type=int, default=None,
                        help=f"number of grid points including both ends (default {_SWEEP_DEFAULTS.steps})")
    parser.add_argument("--method", choices=METHODS, default=None,
                        help=f"analytic, numeric, or both columns (default {_SWEEP_DEFAULTS.method})")
    parser.add_argument("--out", default=None,
                        help=f"CSV output path (default {_SWEEP_DEFAULTS.out})")
    parser.add_argument("--plot", action="store_true", default=None,
                        help="also emit a standalone matplotlib script next to the CSV")
    parser.add_argument("--jobs", type=int, default=None,
                        help=f"processes computing the sweep's {_CHUNK}-cell chunks, by the rule of "
                             f"ghzdyn.sweep.run_sweep: several only for the numeric gqd search, at most "
                             f"one per chunk and per usable CPU, the workers forked where the platform "
                             f"can fork (default {_SWEEP_DEFAULTS.jobs})")
    parser.add_argument("--config", default=None,
                        help="flat key = value file supplying defaults for the flags above")
    parser.add_argument("--verify", action="store_true",
                        help="run the built-in cross-checks and exit (0 pass, 2 fail)")
    return parser


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` file, rejecting unknown or repeated keys and noise."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a BOM is not part of the first key
            raw_lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    first: dict[str, int] = {}  # each key's line
    for lineno, raw in enumerate(raw_lines, 1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()  # out = a#1.csv keeps its '#'
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if key not in _KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r} (known: {', '.join(_KEYS)})")
        if key in values:
            raise ValueError(f"{path}:{lineno}: key {key!r} given twice (first on line {first[key]})")
        values[key], first[key] = value, lineno
    return values


def build_config(args: argparse.Namespace) -> SweepConfig:
    """Merge defaults, the optional config file, and the flags into a SweepConfig.

    A config entry whose flag is absent is parsed as that flag: ``--key=value``, a comma list
    repeating its flag from an empty list (so ``channel = ,`` fails validation), or ``--plot``.
    """
    if args.config:
        tokens = []
        for key, text in parse_config_file(args.config).items():
            dest = _KEYS[key]
            if getattr(args, dest) is not None:
                continue
            if key == "plot":
                if text.lower() not in _PLOT_VALUES:
                    raise ValueError(f"config key 'plot': expected true/false, got {text!r}")
                tokens += ["--plot"] * _PLOT_VALUES[text.lower()]
            elif key in ("channel", "measure"):
                setattr(args, dest, [])
                tokens += [f"--{key}={item.strip()}" for item in text.split(",") if item.strip()]
            else:
                tokens.append(f"--{key}={text}")  # the = form keeps a value such as -x.csv a value
        try:
            _build_parser(exit_on_error=False).parse_args(tokens, args)
        except argparse.ArgumentError as exc:
            raise ValueError(f"config file {args.config}: {exc}") from None
    given = {dest: getattr(args, dest) for dest in _KEYS.values()}
    config = replace(_SWEEP_DEFAULTS, **{dest: tuple(v) if isinstance(v, list) else v
                                         for dest, v in given.items() if v is not None})
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
