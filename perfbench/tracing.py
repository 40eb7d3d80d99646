"""Per-layer spans recorded from outside the program.

Each public entwedge function named in ``SPANS`` is replaced, for the
length of a ``Tracer.installed()`` block, by one wrapper object that is
bound into every ``entwedge`` namespace holding the original.  One
object per function matters: ``cli.cmd_measure`` tests
``fn is multipartite_measure``, so a second wrapper would silently change
its output.  Names that do not exist are skipped and reported absent.

Self time of a span is its duration minus the durations of the spans
it directly encloses.  Spans are aggregated in memory per (tag, name),
where the tag is set by the benchmark to label the current op.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np


def _arg0_nbytes(extra, name, args, kwargs, result):
    extra[name + ".bytes_in"] += np.asarray(args[0]).nbytes


def _result_nbytes(extra, name, args, kwargs, result):
    extra[name + ".bytes_computed"] += result.nbytes


def _file_bytes(extra, name, args, kwargs, result):
    extra[name + ".bytes_in"] += os.path.getsize(args[0])


def _nonzero_out(extra, name, args, kwargs, result):
    extra[name + ".nonzero_out"] += int(np.count_nonzero(result.amplitudes))


def _certificates(extra, name, args, kwargs, result):
    if result.fully_separable:
        tol = getattr(sys.modules.get("entwedge.separability"), "CERTIFICATE_TOL", 1e-8)
        extra["separability.fully_separable"] += 1
        if result.certificate_error is not None and result.certificate_error <= tol:
            extra["separability.certificate_ok"] += 1


# (span name, module, attribute, counter).  An attribute "Cls.meth" wraps
# a method on the class, so the class itself stays a class.
SPANS = (
    ("cli.cli_main", "entwedge.cli", "cli_main", None),
    ("ketlang.parse_ket", "entwedge.ketlang", "parse_ket", None),
    ("ketlang.evaluate", "entwedge.ketlang", "evaluate", _nonzero_out),
    ("statefile.load_state", "entwedge.statefile", "load_state", _file_bytes),
    ("statefile.save_state", "entwedge.statefile", "save_state", None),
    ("states.validate", "entwedge.states", "validate", None),
    ("states.matricize", "entwedge.states", "matricize", _result_nbytes),
    ("kernels.swap_term_sum", "entwedge._kernels", "swap_term_sum", _arg0_nbytes),
    ("kernels.minor_pair_sum", "entwedge._kernels", "minor_pair_sum", _arg0_nbytes),
    ("measures.multipartite_measure", "entwedge.measures", "multipartite_measure", None),
    ("measures.bipartite_concurrence", "entwedge.measures", "bipartite_concurrence", None),
    ("separability.separability_report", "entwedge.separability", "separability_report",
     _certificates),
    ("separability.partition_residual", "entwedge.separability", "partition_residual", None),
    ("lu.trial_rng", "entwedge.lu", "trial_rng", None),
    ("lu.haar_unitary", "entwedge.lu", "haar_unitary", None),
    ("lu.UnitaryGate", "entwedge.lu", "UnitaryGate.__post_init__", None),
    ("lu.apply_local", "entwedge.lu", "apply_local", None),
    ("lu.invariance_experiment", "entwedge.lu", "invariance_experiment", None),
)


def _entwedge_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "entwedge" or name.startswith("entwedge."))
    ]


class Tracer:
    """In-memory span aggregates keyed by (tag, span name)."""

    def __init__(self):
        self.self_ns = Counter()
        self.incl_ns = Counter()
        self.calls = Counter()
        self.extra = Counter()
        self.tag = None
        self.present = set()
        self._stack = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                key = (self.tag, name)
                self.self_ns[key] += elapsed - children
                self.incl_ns[key] += elapsed
                self.calls[key] += 1
            if counter is not None:
                counter(self.extra, name, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Bind the wrappers everywhere the originals are bound, then
        restore the originals on exit."""
        restore = []
        try:
            for name, modname, attr, counter in SPANS:
                try:
                    mod = importlib.import_module(modname)
                except ImportError:
                    continue
                owner_name, _, leaf = attr.rpartition(".")
                if owner_name:
                    owner = getattr(mod, owner_name, None)
                    orig = vars(owner).get(leaf) if isinstance(owner, type) else None
                    if not callable(orig):
                        continue
                    setattr(owner, leaf, self._wrap(name, orig, counter))
                    restore.append((owner, leaf, orig))
                else:
                    orig = getattr(mod, attr, None)
                    if not callable(orig):
                        continue
                    wrapper = self._wrap(name, orig, counter)
                    for module in _entwedge_modules():
                        for key, value in list(vars(module).items()):
                            if value is orig:
                                setattr(module, key, wrapper)
                                restore.append((module, key, orig))
                self.present.add(name)
            yield self
        finally:
            for owner, key, orig in reversed(restore):
                setattr(owner, key, orig)

    def total(self, counter: Counter, name: str, tag=None) -> int:
        """Sum of a per-(tag, name) counter over all tags, or one tag."""
        return sum(v for (t, n), v in counter.items() if n == name and (tag is None or t == tag))


# Per-layer metrics reported by a traced run, as (metric, unit).
LAYER_METRICS = (
    ("cli.interp_start_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.cli_main.self_ms", "ms"),
    ("ketlang.parse_ket.self_ms", "ms"),
    ("ketlang.parse_ket.calls", "count"),
    ("ketlang.evaluate.self_ms", "ms"),
    ("ketlang.evaluate.calls", "count"),
    ("ketlang.evaluate.nonzero_out", "count"),
    ("statefile.load_state.self_ms", "ms"),
    ("statefile.load_state.calls", "count"),
    ("statefile.load_state.bytes_in", "B"),
    ("statefile.save_state.self_ms", "ms"),
    ("kernels.swap_term_sum.self_ms", "ms"),
    ("kernels.swap_term_sum.calls", "count"),
    ("kernels.swap_term_sum.bytes_in", "B"),
    ("kernels.minor_pair_sum.self_ms", "ms"),
    ("kernels.minor_pair_sum.calls", "count"),
    ("kernels.minor_pair_sum.bytes_in", "B"),
    ("states.matricize.self_ms", "ms"),
    ("states.matricize.calls", "count"),
    ("states.matricize.bytes_computed", "B"),
    ("separability.separability_report.self_ms", "ms"),
    ("separability.separability_report.calls", "count"),
    ("separability.partition_residual.calls", "count"),
    ("separability.certificate_ok_ratio", "ratio"),
    ("measures.multipartite_measure.self_ms", "ms"),
    ("measures.multipartite_measure.calls", "count"),
    ("measures.bipartite_concurrence.self_ms", "ms"),
    ("measures.bipartite_concurrence.calls", "count"),
    ("states.validate.self_ms", "ms"),
    ("states.validate.calls", "count"),
    ("lu.trial_rng.self_ms", "ms"),
    ("lu.haar_unitary.self_ms", "ms"),
    ("lu.haar_unitary.calls", "count"),
    ("lu.UnitaryGate.self_ms", "ms"),
    ("lu.apply_local.self_ms", "ms"),
    ("lu.apply_local.calls", "count"),
    ("lu.invariance_experiment.self_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)


def layer_values(tracer: Tracer, ops: int, setup_tracer: Tracer) -> tuple[dict, list]:
    """Per-op span metrics of ``tracer`` plus the set-up span metrics of
    ``setup_tracer``; returns ``(values, absent)``.  Metrics not derived
    from spans (probes, overhead) are left for the caller."""
    values = {}
    absent = []
    for metric, _unit in LAYER_METRICS:
        span, _, stat = metric.rpartition(".")
        if span in ("cli", "trace") or metric == "separability.certificate_ok_ratio":
            continue
        if span not in tracer.present:
            values[metric] = 0.0
            absent.append(metric)
        elif metric == "statefile.save_state.self_ms":
            values[metric] = setup_tracer.total(setup_tracer.self_ns, span) / 1e6
        elif stat == "self_ms":
            values[metric] = tracer.total(tracer.self_ns, span) / 1e6 / ops
        elif stat == "calls":
            values[metric] = tracer.total(tracer.calls, span) / ops
        else:
            values[metric] = tracer.extra[metric] / ops
    fully = tracer.extra["separability.fully_separable"]
    if fully:
        values["separability.certificate_ok_ratio"] = tracer.extra["separability.certificate_ok"] / fully
    else:
        values["separability.certificate_ok_ratio"] = 0.0
        absent.append("separability.certificate_ok_ratio")
    return values, absent
