"""Spans around the package's public functions, recorded from outside it.

``install`` replaces each traced function with a wrapper in its defining
module and in every ``spdc_werner`` module that imported the name (for
example ``spdc_werner.cli.two_photon_state``); ``DensityMatrix`` is timed
through ``__post_init__``. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Metric prefix -> (module, attribute path). Layer names are the modules'.
TRACED = {
    "cli.main": ("spdc_werner.cli", "main"),
    "channel.two_photon_state": ("spdc_werner.channel", "two_photon_state"),
    "channel.transmitted_reduced_state": ("spdc_werner.channel", "transmitted_reduced_state"),
    "channel.apply_beamsplitters": ("spdc_werner.channel", "apply_beamsplitters"),
    "channel.two_photon_block_closed": ("spdc_werner.channel", "two_photon_block_closed"),
    "channel.post_select_two_photon": ("spdc_werner.channel", "post_select_two_photon"),
    "fock.DensityMatrix": ("spdc_werner.fock", "DensityMatrix.__post_init__"),
    "fock.partial_trace": ("spdc_werner.fock", "partial_trace"),
    "fock.outer_product": ("spdc_werner.fock", "outer_product"),
    "metrics.metrics_report": ("spdc_werner.metrics", "metrics_report"),
    "metrics.fidelity": ("spdc_werner.metrics", "fidelity"),
    "tomography.simulate_counts": ("spdc_werner.tomography", "simulate_counts"),
    "tomography.linear_reconstruction": ("spdc_werner.tomography", "linear_reconstruction"),
    "tomography.ml_reconstruction": ("spdc_werner.tomography", "ml_reconstruction"),
    "tomography.witness_from_counts": ("spdc_werner.tomography", "witness_from_counts"),
    "tomography.read_count_records": ("spdc_werner.tomography", "read_count_records"),
    "tomography.write_count_records": ("spdc_werner.tomography", "write_count_records"),
    "calibration.fit_gain": ("spdc_werner.calibration", "fit_gain"),
    "calibration.read_calibration_csv": ("spdc_werner.calibration", "read_calibration_csv"),
}


class Tracer:
    """Records spans as [name, start, end, parent index, raised]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count_iterations = name == "tomography.ml_reconstruction"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count_iterations:
                counters[f"{name}.iterations"] += result.n_iterations
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "spdc_werner" or n.startswith("spdc_werner.")]
        for name, (module_name, path) in TRACED.items():
            owner = sys.modules[module_name]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            targets = [(owner, attr)] if parents else [
                (m, key) for m in modules for key, value in vars(m).items()
                if value is original]
            for target, key in targets:
                self._restore.append((target, key, original))
                setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()


def layer_totals(spans) -> dict[str, float]:
    """calls, self_s and errors per span name.

    A span's self time is its duration minus the durations of its direct
    children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _raised in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent, raised) in enumerate(spans):
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += end - start - child[i]
        totals[f"{name}.errors"] += raised
    return totals
