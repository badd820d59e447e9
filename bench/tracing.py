"""Spans around the package's layer boundaries, recorded from outside.

The benchmark does not edit ``src/``.  Instead it replaces a module
attribute with a timing wrapper at every place where the package looks
the name up (the modules import names directly, so wrapping only the
defining module would miss most calls), and restores the originals
afterwards.  Functions that run once per discord objective evaluation,
such as ``measurement_basis`` and ``shannon_entropy``, are deliberately
left alone: per-evaluation cost is derived from the evaluation count.

Spans stay in memory.  A span records its layer name, start, end, the
index of the span that caused it and the operation it belongs to, so
self time is a span's duration minus that of its direct children.
Spans recorded inside ``--jobs 2`` worker processes stay in the worker.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

# Layer name -> (module, attribute) pairs where the package looks it up.
WRAP_SITES = {
    "cli.main": [("ghzdyn.cli", "main")],
    "sweep.run_sweep": [("ghzdyn.cli", "run_sweep")],
    "sweep.emit_csv": [("ghzdyn.cli", "emit_csv")],
    "channels.closed_form_state": [("ghzdyn.sweep", "closed_form_state")],
    "entanglement.tau_lower_bound": [("ghzdyn.sweep", "tau_lower_bound")],
    "entanglement.ppt_min_eigenvalue": [("ghzdyn.sweep", "ppt_min_eigenvalue")],
    "linalg.von_neumann_entropy": [("ghzdyn.sweep", "von_neumann_entropy")],
    "discord.global_discord": [("ghzdyn.sweep", "global_discord")],
    "linalg.assert_density_matrix": [
        ("ghzdyn.channels", "assert_density_matrix"),
        ("ghzdyn.discord", "assert_density_matrix"),
        ("ghzdyn.entanglement", "assert_density_matrix"),
    ],
    "channels.evolve_numeric": [("ghzdyn.channels", "evolve_numeric")],
    "discord.bipartite_discord": [("ghzdyn.discord", "bipartite_discord")],
    "entanglement.tau_generator_bound": [("ghzdyn.entanglement", "tau_generator_bound")],
    "verify.run_checks": [("ghzdyn.verify", "run_checks")],
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    evals: int | None = None


@dataclass
class Tracer:
    """Records spans while installed; the benchmark sets ``op`` per operation."""

    spans: list[Span] = field(default_factory=list)
    op: int = -1
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, object, str, object]] = field(default_factory=list)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if name == "discord.global_discord":
                span.evals = getattr(result, "optimizer_evals", 0)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            return
        # A site the package no longer has is skipped: its layer then
        # reports no calls instead of breaking the traced run.
        for name, sites in WRAP_SITES.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    self._saved.append((module, None, attr, original))
                    setattr(module, attr, self._wrap(name, original))
        # run_checks looks each registry check up in CHECKS at call time.
        checks = getattr(importlib.import_module("ghzdyn.verify"), "CHECKS", {})
        for key, original in list(checks.items()):
            self._saved.append((None, checks, key, original))
            checks[key] = self._wrap(f"verify.{key}", original)

    def uninstall(self) -> None:
        for module, mapping, key, original in reversed(self._saved):
            if mapping is None:
                setattr(module, key, original)
            else:
                mapping[key] = original
        self._saved.clear()

    def child_durations(self) -> list[float]:
        """Summed duration of each span's direct children, by span index."""
        totals = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                totals[span.parent] += span.end - span.start
        return totals
