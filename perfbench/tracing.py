"""Spans around the public functions of each demon_ep layer.

The program has no tracing of its own, so the benchmark installs wrappers
from outside: each listed function is replaced, at its defining module and at
every ``from ... import`` re-binding inside the package, by a wrapper that
records a span (name, parent span, job, start, end).  Spans stay in memory;
:func:`fold` turns them into per-name call counts and self times, where a
span's self time is its duration minus the durations of its direct children.
:meth:`Tracer.uninstall` puts every original object back.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

#: layer -> functions traced one by one (``Class.method`` allowed).
FUNCTIONS = {
    "cli": ("main",),
    "dataio": (
        "load_config",
        "RunConfig.build_error_model",
        "parse_table",
        "sweep_csv_text",
    ),
    "runner": (
        "run_sweep",
        "run_analysis",
        "simulate_report",
        "build_kernel",
        "point_tables",
    ),
    "protocol": (
        "forward_conditionals",
        "backward_conditionals",
        "oracle_full_state",
        "forward_table",
        "backward_table",
        "tables_from_conditionals",
        "sigma_histogram",
    ),
    "entropy": (
        "evaluate",
        "sigma1",
        "sigma2",
        "sigma3",
        "sigma4",
        "sigma5",
        "sigma6",
        "support_mismatch",
    ),
}

#: layer -> functions traced and reported only as one sum per layer.
GROUPS = {
    "channels": (
        "prepare_atom",
        "prepare_cavity",
        "readout_channel",
        "feedback_channel",
        "detection_channel",
        "relaxation_channel",
        "identity_channel",
        "time_reverse",
        "compose",
        "apply",
    ),
    "statespace": (
        "gibbs_distribution",
        "extended_gibbs",
        "shannon_entropy",
        "relative_entropy",
        "mutual_information",
        "marginalize",
        "mean_occupation",
        "condition",
    ),
}

#: span name -> (extra metric, unit, function of (args, kwargs, result) -> number)
EXTRAS = {
    "dataio.parse_table": (
        "bytes", "B/job", lambda a, k, r: _source_bytes(a[0] if a else k.get("source"))
    ),
    "dataio.sweep_csv_text": ("bytes", "B/job", lambda a, k, r: len(r.encode())),
    "protocol.sigma_histogram": ("bins", "bins/job", lambda a, k, r: len(r.sigma)),
    "entropy.evaluate": ("flagged", "points/job", lambda a, k, r: 1 if r.flags else 0),
}

#: span name the benchmark opens around each job (its self time is harness cost).
JOB_SPAN = "job"

PACKAGE = "demon_ep"


def _source_bytes(source) -> int:
    try:
        return os.path.getsize(source)
    except (TypeError, OSError):
        return 0


def validate_check_names(validate_module) -> list[str]:
    """Span names of the ``validate.CHECKS`` entries, in suite order."""
    return [f"validate.{fn.__name__.removeprefix('check_')}" for _, fn in validate_module.CHECKS]


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory.

    A span is ``[name, parent index, job index, start, end, extra]``; the
    parent index is -1 for a job's root span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._job = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function; names that no longer exist are recorded as absent."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        for layer, names in list(FUNCTIONS.items()) + list(GROUPS.items()):
            module = modules.get(f"{PACKAGE}.{layer}")
            for name in names:
                span = f"{layer}.{name}" if layer in FUNCTIONS else f"{layer}:{name}"
                self._wrap_name(modules, module, name, span)
        validate = modules.get(f"{PACKAGE}.validate")
        checks = getattr(validate, "CHECKS", None)
        if checks is None:
            self.absent.append("validate.CHECKS")
            return
        wrapped = tuple(
            (label, self._wrapper(span, fn))
            for (label, fn), span in zip(checks, validate_check_names(validate))
        )
        self._set(validate, "CHECKS", wrapped)

    def _wrap_name(self, modules, module, name, span) -> None:
        owner, _, attr = name.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        original = getattr(holder, attr, None) if holder is not None else None
        if original is None:
            self.absent.append(span)
            return
        wrapper = self._wrapper(span, original)
        if owner:
            self._set(holder, attr, wrapper)
            return
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, holder, attr, value) -> None:
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRAS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, tracer._job, clock(), 0.0, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra[2](args, kwargs, result)
            return result

        return traced

    # -- jobs ---------------------------------------------------------------

    def start_job(self, job: int) -> None:
        self._job = job
        self._stack.append(len(self.spans))
        self.spans.append([JOB_SPAN, -1, job, time.perf_counter(), 0.0, None])

    def end_job(self) -> None:
        self.spans[self._stack.pop()][4] = time.perf_counter()

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def fold(spans, totals=None):
    """Add calls, self time, total time and extras per span name to ``totals``."""
    totals = totals if totals is not None else defaultdict(lambda: defaultdict(float))
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child_time[span[1]] += span[4] - span[3]
    for span, children in zip(spans, child_time):
        entry = totals[span[0]]
        entry["calls"] += 1
        entry["total_s"] += span[4] - span[3]
        entry["self_s"] += span[4] - span[3] - children
        if span[5] is not None:
            entry[EXTRAS[span[0]][0]] += span[5]
    return totals


def write_spans(spans, path) -> None:
    """Write spans as JSON lines: id, parent, job, name, start, end, extra."""
    with open(path, "w") as out:
        for index, (name, parent, job, start, end, extra) in enumerate(spans):
            out.write(
                json.dumps(
                    {"id": index, "parent": parent, "job": job, "name": name,
                     "start": start, "end": end, "extra": extra}
                )
                + "\n"
            )
