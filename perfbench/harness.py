"""Measurement plumbing shared by every workload: statistics, failure
accounting, memory probes, child processes, host fingerprint and the
result line.

Nothing here imports ``repro``; the self-tests exercise it directly.
"""

from __future__ import annotations

import importlib.util
import json
import math
import multiprocessing
import os
import platform
import re
import signal
import statistics
import time
from dataclasses import dataclass, field

#: metric and workload names: what the result line and BENCHMARK.json allow
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: the tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10
MB = 1e6


def valid_name(name: str) -> bool:
    return bool(NAME_RE.fullmatch(name))


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


@dataclass(frozen=True)
class Tail:
    """The tail latency of one run and the support behind it."""

    value: float
    percentile: float
    beyond: int
    samples: int

    @property
    def supported(self) -> bool:
        """True when at least :data:`TAIL_BEYOND` samples lie beyond."""
        return self.beyond >= TAIL_BEYOND


def tail(samples) -> Tail:
    """The highest percentile with at least ten samples beyond it.

    With ``n`` sorted samples that is the order statistic at index
    ``n - 11``; its percentile is the share of samples at or below it.
    Below 21 samples that percentile is not above the median, so the
    tail is the median itself, reported with the number of samples
    beyond it so a reader can see how much supports it.
    """
    s = sorted(float(x) for x in samples)
    n = len(s)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n > 2 * TAIL_BEYOND:
        idx = n - 1 - TAIL_BEYOND
        return Tail(s[idx], round(100.0 * (idx + 1) / n, 2), TAIL_BEYOND, n)
    return Tail(median(s), 50.0, n // 2, n)


class Ledger:
    """Attempted and failed operations, with the reason for each failure.

    A failure is anything the user would not get a correct answer from:
    an exception, a failed or refused job, a job unfinished at the
    deadline, or a report that fails its correctness check.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def record(self, reason: str | None) -> None:
        """``ok()`` when ``reason`` is ``None``, else ``fail(reason)``."""
        if reason is None:
            self.ok()
        else:
            self.fail(reason)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def classify_job(
    post_status: int | None,
    job: dict | None,
    deadline_passed: bool,
    report_matches: bool | None,
) -> str | None:
    """Why one served job failed, or ``None`` when it succeeded.

    ``post_status`` is the HTTP status of the submission (``None`` when
    the connection itself failed), ``job`` the final ``GET /jobs/<id>``
    body, ``report_matches`` the verdict of the report check (``None``
    when no report was compared).
    """
    if post_status is None:
        return "connection"
    if post_status == 429:
        return "http_429"
    if post_status >= 500:
        return "http_5xx"
    if post_status != 202:
        return f"http_{post_status}"
    if job is None:
        return "lost"
    status = job.get("status")
    if status == "failed":
        return "job_failed"
    if status != "done":
        return "deadline" if deadline_passed else f"status_{status}"
    if report_matches is not True:
        return "report_mismatch"
    return None


# -- memory ----------------------------------------------------------------


def vm_hwm_bytes(pid: int | str = "self") -> int:
    """Peak resident set (``VmHWM``) of a live process, in bytes."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def reset_hwm(pid: int | str = "self") -> bool:
    """Restart a process's ``VmHWM`` from its current RSS (Linux >= 4.0)."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def pool_children() -> list[int]:
    """Pids of this process's live ``multiprocessing`` children (the
    spawn pools); the resource tracker is not one of them."""
    return [p.pid for p in multiprocessing.active_children() if p.pid]


def peak_rss_mb() -> float:
    """``VmHWM`` of this process plus its pool children."""
    return sum(vm_hwm_bytes(p) for p in ["self", *pool_children()]) / MB


# -- processes -------------------------------------------------------------

PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Make this process the parent of every descendant whose own parent
    exits (Linux ``PR_SET_CHILD_SUBREAPER``): a workload process's
    ``multiprocessing`` resource tracker, or a server's, then ends as a
    child of this one and can be waited for."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def child_pids() -> list[int]:
    """Pids of this process's children, ended-but-unwaited ones included."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _read(f"/proc/{entry}/stat")
        if stat is None:
            continue
        # the command name in parentheses may hold spaces
        if int(stat.rsplit(")", 1)[-1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def end_children(grace: float = 30.0) -> list[int]:
    """Wait until every child of this process has ended and been reaped,
    killing those still running after ``grace`` seconds; returns the
    killed pids.  A resource tracker ends by itself once the last process
    holding its pipe has exited."""
    deadline = time.monotonic() + grace
    killed: list[int] = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in set(child_pids()) - set(killed):
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.append(pid)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


# -- host ------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole host from ``/proc/stat``; the
    stolen share of a phase says how much a neighbour disturbed it."""
    fields = (_read("/proc/stat") or "cpu 0").splitlines()[0].split()[1:]
    ticks = [int(x) for x in fields]
    steal = ticks[7] if len(ticks) > 7 else 0
    return steal, sum(ticks[:8])


def host_fingerprint() -> dict:
    """What a result depends on besides the code: cores, memory, caches,
    interpreter and the optional accelerators of the program."""
    import numpy

    mem_total = None
    meminfo = _read("/proc/meminfo") or ""
    m = re.search(r"MemTotal:\s+(\d+) kB", meminfo)
    if m:
        mem_total = int(m.group(1)) * 1024
    cpu = None
    m = re.search(r"model name\s*:\s*(.+)", _read("/proc/cpuinfo") or "")
    if m:
        cpu = m.group(1).strip()
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu": cpu,
        "ram_bytes": mem_total,
        "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "zstandard": importlib.util.find_spec("zstandard") is not None,
        "numba": importlib.util.find_spec("numba") is not None,
    }


# -- result line -----------------------------------------------------------


@dataclass
class Metric:
    name: str
    value: float
    unit: str


@dataclass
class Result:
    """What one run measured; ``line()`` is the last line it prints."""

    ledger: Ledger
    metrics: list[Metric] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str) -> None:
        if not valid_name(name):
            raise ValueError(f"invalid metric name {name!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.metrics.append(Metric(name, value, unit))

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.ledger.failed == 0,
                "attempted": self.ledger.attempted,
                "failed": self.ledger.failed,
                "metrics": {
                    m.name: {"value": m.value, "unit": m.unit}
                    for m in self.metrics
                },
            }
        )
