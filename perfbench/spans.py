"""In-memory spans around calls into classhedge's modules.

The benchmark never edits the package.  It replaces, for the duration of a
phase, the module attributes that callers look up (``classhedge.core.
as_simplex``, ``classhedge.aggregator.center_losses``, the methods of
``Aggregator``, ...) with wrappers that record a span per call: name, start,
end, parent span and run id.  Every alias of a wrapped function across the
package's modules is replaced, so a call is seen whichever module makes it.

Spans stay in memory and are written out as JSONL when the run ends.  Pool
workers of ``run_sweep`` inherit the wrappers when the pool forks; each
worker writes its own spans to a file after every ``run_experiment`` call and
the parent merges those files, so spans are recorded per process.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
import pickle
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, module, attribute); "Class.method" names a method.
LAYER_TARGETS = (
    ("core.validate", "core", "as_loss_array"),
    ("core.validate", "core", "as_simplex"),
    ("core.center_losses", "core", "center_losses"),
    ("core.round_stats", "core", "round_stats"),
    ("core.learning_rate", "core", "learning_rate"),
    ("core.eta_ratio", "core", "eta_ratio"),
    ("aggregator.run_round", "aggregator", "Aggregator.run_round"),
    ("aggregator.probabilities", "aggregator", "Aggregator.probabilities"),
    ("aggregator.sample", "aggregator", "Aggregator.sample"),
    ("aggregator.observe", "aggregator", "Aggregator.observe"),
    ("kernels.build", "harness", "make_kernel"),
    ("kernels.best_prefix_losses", "kernels", "best_prefix_losses"),
    ("kernels.best_competitor", "kernels", "best_competitor"),
    ("oracle.bound_report", "oracle", "bound_report"),
    ("harness.loss_gen", "harness", "loss_generator"),
    ("harness.run_experiment", "harness", "run_experiment"),
    ("harness.emit_csv", "harness", "emit_csv"),
)

# The spans an untraced sweep needs: its rounds and report phases run inside
# run_experiment in the pool workers, where the benchmark's loop cannot time them.
SWEEP_TIMING_TARGETS = tuple(
    t
    for t in LAYER_TARGETS
    if t[0]
    in (
        "aggregator.run_round",
        "kernels.best_prefix_losses",
        "kernels.best_competitor",
        "harness.run_experiment",
    )
)

# Generator functions: a span covers each item drawn, not the call.
_STREAMS = {"loss_generator"}
# Wrappers of run_experiment also hand worker spans to the parent.
_FLUSH_AFTER = {"run_experiment"}

# Span tuple layout: (pid, id, name, start_ns, end_ns, parent_id, run_id, phase).
PID, SID, NAME, START, END, PARENT, RUN, PHASE = range(8)


class Tracer:
    """Records spans for one benchmark run; one instance per run."""

    def __init__(self, flush_dir: Path, keep_worker_spans: bool):
        self.flush_dir = Path(flush_dir)
        self.keep_worker_spans = keep_worker_spans
        self.owner_pid = self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.ids = itertools.count()
        self.run_id = 0
        self.phase = ""
        self.recording = True
        self.worker_spans: list[tuple] = []
        self._flushes = itertools.count()

    # --- recording -------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = next(self.ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.run_id, self.phase))

        return traced

    def wrap_stream(self, name: str, gen_fn):
        @functools.wraps(gen_fn)
        def traced(*args, **kwargs):
            step = self.wrap(name, gen_fn(*args, **kwargs).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return traced

    def wrap_flushing(self, fn):
        @functools.wraps(fn)
        def flushing(config, *args, **kwargs):
            self._adopt_process()
            self.run_id = int(config.seed)
            try:
                return fn(config, *args, **kwargs)
            finally:
                self._flush_worker()

        return flushing

    def span(self, name: str):
        """Benchmark-side root span; it also tags the spans inside it with a phase."""
        return _RootSpan(self, name)

    def _adopt_process(self) -> None:
        # A forked worker inherits the parent's spans and stack; drop them.
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            del self.spans[:]
            del self.stack[:]

    def _flush_worker(self) -> None:
        if self.pid == self.owner_pid:
            return  # in-process call: the spans are already where the parent reads them
        self.flush_dir.mkdir(parents=True, exist_ok=True)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        path = self.flush_dir / f"{self.pid}-{next(self._flushes)}.pkl"
        with open(path, "wb") as fh:
            pickle.dump((self.pid, rss, list(self.spans)), fh)
        del self.spans[:]

    # --- collection ------------------------------------------------------

    def collect_workers(self) -> tuple[dict[int, int], list[tuple]]:
        """Read the span files pool workers wrote since the last call.

        Returns each worker's peak RSS in kB and its spans.  The spans are
        also kept for ``all_spans`` if the tracer keeps worker spans; a long
        untraced run does not, so its memory does not grow with run length.
        """
        rss: dict[int, int] = {}
        new: list[tuple] = []
        if not self.flush_dir.is_dir():
            return rss, new
        for path in sorted(self.flush_dir.glob("*.pkl")):
            # only this run's own workers write here
            with open(path, "rb") as fh:
                pid, peak_kb, spans = pickle.load(fh)
            path.unlink()
            rss[pid] = max(rss.get(pid, 0), peak_kb)
            new.extend((pid,) + s for s in spans)
        if self.keep_worker_spans:
            self.worker_spans.extend(new)
        return rss, new

    def all_spans(self) -> list[tuple]:
        return [(self.pid,) + s for s in self.spans] + self.worker_spans

    def write_jsonl(self, path: Path) -> int:
        spans = self.all_spans()
        keys = ("pid", "id", "name", "start_ns", "end_ns", "parent", "run", "phase")
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
        return len(spans)


class _RootSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.saved_phase, tr.phase = tr.phase, self.name
        self.sid = next(tr.ids)
        self.parent = tr.stack[-1] if tr.stack else -1
        tr.stack.append(self.sid)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        self.end = time.perf_counter_ns()
        tr.stack.pop()
        tr.spans.append(
            (self.sid, self.name, self.start, self.end, self.parent, tr.run_id, self.name)
        )
        tr.phase = self.saved_phase
        return False

    @property
    def ns(self) -> int:
        return self.end - self.start


class Instrumentation:
    """Context manager that installs wrappers and restores the originals on exit."""

    def __init__(self, tracer: Tracer, targets):
        self.tracer = tracer
        self.targets = targets
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == "classhedge" or name.startswith("classhedge.")
        ]
        tr = self.tracer
        for span_name, module, attr in self.targets:
            owner = sys.modules[f"classhedge.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, meth, tr.wrap(span_name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            if attr in _STREAMS:
                wrapped = tr.wrap_stream(span_name, original)
            else:
                wrapped = tr.wrap(span_name, original)
            if attr in _FLUSH_AFTER:
                wrapped = tr.wrap_flushing(wrapped)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapped)
        return self

    def _replace(self, owner, key, value) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()
        return False


# --- analysis ---------------------------------------------------------------


def self_times(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans of one process nest (a single thread with a call stack), so the
    children of a span never overlap and this is exact.
    """
    child_ns: dict[tuple[int, int], int] = defaultdict(int)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[(s[PID], s[PARENT])] += s[END] - s[START]
    return [s[END] - s[START] - child_ns.get((s[PID], s[SID]), 0) for s in spans]


def summarize(spans: list[tuple]) -> dict[str, tuple[dict, dict]]:
    """Layer spans grouped by phase.

    For each phase: per span name the call count, summed self time and the
    list of durations (ns); and the summed self time per process.  Root
    spans of the benchmark itself (``bench.*``) are not layers.
    """
    phases: dict[str, tuple[dict, dict]] = defaultdict(
        lambda: (defaultdict(lambda: {"calls": 0, "self_ns": 0, "durations": []}), defaultdict(int))
    )
    for s, own in zip(spans, self_times(spans)):
        if s[NAME].startswith("bench."):
            continue
        names, pids = phases[s[PHASE]]
        entry = names[s[NAME]]
        entry["calls"] += 1
        entry["self_ns"] += own
        entry["durations"].append(s[END] - s[START])
        pids[s[PID]] += own
    return phases
