"""Spans around the public calls of each layer, recorded from outside.

The program under test is not modified: :func:`install` replaces a
fixed list of functions and methods of ``repro`` with timing wrappers
(``functools.wraps`` keeps their names, so the process pool still
pickles them by reference).  Each span records its layer, start, end,
parent span and the benchmark operation (job id) it belongs to, plus a
byte count and one layer-specific value.  Spans stay in memory; a
spawned pool worker writes its spans to a spool directory when it
exits, and the coordinator reads them once the run ends.

Spawn workers re-import the benchmark's main module, which calls
:func:`install_in_worker` at import time; the spool directory travels
in the :data:`SPOOL_ENV` environment variable.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path

SPOOL_ENV = "PERFBENCH_SPOOL"

now = time.monotonic  # CLOCK_MONOTONIC: comparable across processes

#: layers whose spans wrap a whole user operation; the unaccounted share
#: is the loop time the *other* layers do not cover
ENVELOPES = frozenset({"service.assess"})

# span record fields
SID, PARENT, LAYER, T0, T1, JOB, NBYTES, AUX, TID = range(9)


class Recorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self.job = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> list:
        stack = self._stack()
        parent = stack[-1][SID] if stack else None
        rec = [next(self._ids), parent, layer, now(), None, self.job, 0, None,
               threading.get_ident()]
        stack.append(rec)
        return rec

    def close(self, rec: list, nbytes: int = 0, aux=None) -> None:
        rec[T1] = now()
        rec[NBYTES] = int(nbytes)
        rec[AUX] = aux
        stack = self._stack()
        if stack and stack[-1] is rec:
            stack.pop()
        self.spans.append(rec)

    def export(self) -> list[dict]:
        pid = os.getpid()
        return [_as_dict(r, pid) for r in self.spans if r[T1] is not None]


def _as_dict(rec: list, pid: int) -> dict:
    return {
        "id": rec[SID], "parent": rec[PARENT], "layer": rec[LAYER],
        "t0": rec[T0], "t1": rec[T1], "job": rec[JOB],
        "bytes": rec[NBYTES], "aux": rec[AUX], "pid": pid, "tid": rec[TID],
    }


RECORDER = Recorder()


def _timed(rec: Recorder, layer: str, fn, measure=None, when=None):
    """Wrap ``fn`` in a span; ``measure(args, kwargs, result)`` returns
    ``(nbytes, aux)`` and ``when(*args, **kwargs)`` may skip recording
    (for memoised calls that do no work)."""

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        if not rec.enabled or (when is not None and not when(*args, **kwargs)):
            return fn(*args, **kwargs)
        sp = rec.open(layer)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            nbytes, aux = measure(args, kwargs, result) if measure else (0, None)
            rec.close(sp, nbytes, aux)

    return inner


def _timed_iter(rec: Recorder, layer: str, fn, measure):
    """Wrap a generator function: one span per ``next()``."""

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if not rec.enabled:
            yield from gen
            return
        try:
            while True:
                sp = rec.open(layer)
                try:
                    item = next(gen)
                except StopIteration:
                    rec.close(sp)
                    return
                nbytes, aux = measure(item)
                rec.close(sp, nbytes, aux)
                yield item
        finally:
            gen.close()

    return inner


def _pair_bytes(args, kwargs, result):
    return args[1].nbytes + args[2].nbytes, None


def _ctx_bytes(args, kwargs, result):
    ctx = args[1]
    return ctx.orig.nbytes + ctx.dec.nbytes, None


def _targets():
    """(owner, attribute, layer, measure, when) for every wrapped call."""
    from repro.audit import checkpoint, parallel as audit_parallel, runner
    from repro.compressors.sz import SZCompressor
    from repro.core.streaming import StreamingChecker
    from repro.core.workspace import MetricWorkspace
    from repro.engine.backends import FusedHostBackend
    from repro.engine.tiling import TiledAssessment
    from repro.parallel import executor
    from repro.service.session import CheckerSession

    def file_size(args, kwargs, result):
        try:
            return os.path.getsize(args[0].path), None
        except OSError:
            return 0, None

    def begin_tiled(args, kwargs, result):
        return 0, int(result is not None and "tiled" in result.extras)

    return [
        (CheckerSession, "assess", "service.assess", _pair_bytes, None),
        (FusedHostBackend, "begin", "engine.begin", begin_tiled, None),
        (FusedHostBackend, "_pattern1", "kernels.pattern1", _ctx_bytes, None),
        (FusedHostBackend, "_pattern2", "kernels.pattern2", _ctx_bytes, None),
        (FusedHostBackend, "_pattern3", "kernels.pattern3", _ctx_bytes, None),
        (FusedHostBackend, "_auxiliary", "metrics.aux", _ctx_bytes, None),
        (MetricWorkspace, "_get", "core.workspace", None,
         lambda self, key, build: key not in self._cache),
        (TiledAssessment, "sweep1", "engine.tiled_sweep", None,
         lambda self: not self._swept),
        (TiledAssessment, "sweep2", "engine.tiled_sweep", None,
         lambda self: not self._sweep2_done),
        (StreamingChecker, "update", "core.streaming.update", _pair_bytes, None),
        (SZCompressor, "compress", "compressors.sz.compress",
         lambda a, k, r: (a[1].nbytes, None), None),
        (SZCompressor, "decompress", "compressors.sz.decompress",
         lambda a, k, r: (0 if r is None else r.nbytes, None), None),
        (checkpoint.AuditCheckpoint, "save", "audit.checkpoint.save",
         file_size, None),
        (runner, "resolve_audit_workers", "audit.resolve_workers",
         lambda a, k, r: (0, r), None),
        (runner, "_run_serial", "audit.field_loop", None, None),
        (audit_parallel, "run_parallel_audit", "audit.pool_wait", None, None),
        (audit_parallel, "_job_audit_field", "audit.worker_field", None, None),
        (executor, "resolve_executor", "parallel.resolve_executor",
         lambda a, k, r: (0, r), None),
        (executor, "cost_aware_workers", "parallel.workers",
         lambda a, k, r: (0, r), None),
        (executor, "_run_process_jobs", "parallel.pool_wait",
         lambda a, k, r: (0, a[2]), None),
        (executor, "_job_compare", "parallel.worker_job", _pair_bytes, None),
    ]


_installed = False


def install(rec: Recorder = RECORDER) -> None:
    """Wrap every target once; idempotent."""
    global _installed
    if _installed:
        return
    _installed = True
    from repro.io.bundle import DatasetBundle
    from repro.parallel.shm import SharedField

    for owner, attr, layer, measure, when in _targets():
        original = owner.__dict__[attr]
        setattr(owner, attr, _timed(rec, layer, original, measure, when))

    DatasetBundle.iter_field_chunks = _timed_iter(
        rec, "io.bundle.read", DatasetBundle.__dict__["iter_field_chunks"],
        lambda item: (item[0].nbytes, item[0].stored),
    )
    SharedField.create = classmethod(
        _timed(rec, "parallel.shm.publish", SharedField.__dict__["create"].__func__,
               lambda a, k, r: (0 if r is None else r.nbytes, None))
    )


def install_in_worker() -> None:
    """In a spawned pool worker of a traced run: record from import on
    and write the spans to the spool directory at exit."""
    spool = os.environ.get(SPOOL_ENV)
    if not spool:
        return
    install(RECORDER)
    RECORDER.enabled = True

    def dump():
        path = Path(spool) / f"{os.getpid()}.json"
        path.write_text(json.dumps(RECORDER.export()))

    atexit.register(dump)


def read_spool(spool: str | Path) -> list[dict]:
    spans: list[dict] = []
    for path in sorted(Path(spool).glob("*.json")):
        spans.extend(json.loads(path.read_text()))
    return spans


def write_chrome_trace(spans: list[dict], path: str | Path) -> None:
    """The spans as a chrome://tracing / Perfetto file, one lane per
    process and thread."""
    events = [
        {
            "name": s["layer"], "cat": s["layer"].split(".")[0], "ph": "X",
            "ts": s["t0"] * 1e6, "dur": (s["t1"] - s["t0"]) * 1e6,
            "pid": s["pid"], "tid": s["tid"],
            "args": {"id": s["id"], "parent": s["parent"], "job": s["job"],
                     "bytes": s["bytes"], "aux": s["aux"]},
        }
        for s in spans
    ]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps({"traceEvents": events}))


# -- reduction -------------------------------------------------------------


def union_length(intervals) -> float:
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def in_window(spans: list[dict], t0: float, t1: float) -> list[dict]:
    return [s for s in spans if s["t0"] >= t0 and s["t1"] <= t1]


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """Per layer: busy seconds (union of its spans per thread), self
    seconds (each span minus the time its child spans cover), calls,
    bytes and the ``aux`` values."""
    lanes: dict[tuple, list[dict]] = {}
    for s in spans:
        lanes.setdefault((s["pid"], s.get("tid")), []).append(s)
    table: dict[str, dict] = {}
    for lane in lanes.values():
        children: dict[int, list[tuple]] = {}
        for s in lane:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
        per_layer: dict[str, list[tuple]] = {}
        for s in lane:
            row = table.setdefault(
                s["layer"],
                {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "bytes": 0, "aux": []},
            )
            kids = [
                (max(a, s["t0"]), min(b, s["t1"]))
                for a, b in children.get(s["id"], ())
                if b > s["t0"] and a < s["t1"]
            ]
            row["self_s"] += (s["t1"] - s["t0"]) - union_length(kids)
            row["calls"] += 1
            row["bytes"] += s["bytes"]
            if s["aux"] is not None:
                row["aux"].append(s["aux"])
            per_layer.setdefault(s["layer"], []).append((s["t0"], s["t1"]))
        for layer, ivs in per_layer.items():
            table[layer]["busy_s"] += union_length(ivs)
    return table


def unaccounted_ratio(spans: list[dict], pid: int, wall: float) -> float:
    """Share of the coordinator's timed wall time that no layer span
    other than the operation envelope covers."""
    ivs = [
        (s["t0"], s["t1"]) for s in spans
        if s["pid"] == pid and s["layer"] not in ENVELOPES
    ]
    if wall <= 0:
        return 0.0
    return max(0.0, 1.0 - union_length(ivs) / wall)
