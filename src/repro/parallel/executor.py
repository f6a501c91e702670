"""Serial / thread / process execution of whole-dataset assessments.

One task per field.  The thread pool shares input arrays zero-copy.
The process executor is a spawn-safe
:class:`~concurrent.futures.ProcessPoolExecutor` whose workers attach to
fields published via :mod:`repro.parallel.shm` — the job queue carries
:class:`~repro.parallel.shm.SharedField` handles (name/shape/dtype),
never array bytes, so each worker reads the same physical pages the
driver published and runs its assessment on a core of its own.

Both pools used to lose to serial on a 2-core host, which was blamed on
the GIL.  The measured cause was nested parallelism: dot-product
reductions ran on OpenBLAS's threaded ``ddot``, whose threads spun on
the core the other worker needed: on 2 cores, each of two concurrent
workers took 97 ms per 16x80x80 pair with BLAS dots and 39 ms without.
The assessment maths now runs no BLAS threads of its own
(:func:`repro.metrics.reductions.dot`), so the pool is the only level of
parallelism, one worker per core.

Reports are inserted in the dataset's field order whatever order tasks
finish in, so parallel batches compare equal to serial ones — and the
process path runs the *same* per-field code on the *same* bytes, so its
results are bit-identical to serial (property-tested).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.config.schema import CheckerConfig
from repro.core.batch import BatchAssessment
from repro.core.checker import CuZChecker
from repro.core.compare import assess_compressor, compare_data
from repro.datasets.fields import Dataset
from repro.errors import CheckerError
from repro.parallel.shm import shared_fields, shm_available
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = [
    "active_pool_counts",
    "auto_workers",
    "cost_aware_workers",
    "parallel_assess_dataset",
    "parallel_compare_pairs",
    "process_available",
    "reset_fallback_warnings",
    "resolve_executor",
    "shutdown_pools",
    "warm_process_pool",
]

_EXECUTORS = ("serial", "thread", "process")


def _available_cores() -> int:
    """Cores this process may actually run on, not the machine's total.

    ``os.cpu_count()`` reports the physical machine; under a cgroup /
    affinity-restricted container the scheduler may only hand us a
    subset, and oversubscribing a single core with pool workers is a
    measured slowdown (0.76x at 2 workers on a 1-core host — the pool
    adds dispatch overhead with no parallelism to buy it back; see
    EXPERIMENTS.md).  One worker per available core is the whole budget:
    the assessment maths starts no BLAS threads that would compete with
    the workers for these cores.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # non-Linux: no affinity API
        return os.cpu_count() or 1


def _available_ram_bytes() -> int | None:
    """``MemAvailable`` from /proc/meminfo, or ``None`` off-Linux."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


#: per-worker working set as a multiple of one task's input bytes
#: (``task_nbytes`` = the orig+dec pair for batch jobs, one field for
#: audit workers).  Earlier values (8x, then 6x) modelled only the
#: o64/d64/err trio, but a tracemalloc high-water sweep on the reference
#: container (EXPERIMENTS.md "worker footprint") measured ~20x the pair
#: for a full-metric assessment — the fused workspace materialises the
#: whole derived-array family in float64 (pattern 1 alone peaks at 10x
#: the pair) — and ~16x the *field* for a streamed audit (the spectral
#: and SSIM accumulators are field-sized even when chunks stream).  20x
#: covers both shapes; on typical CI RAM (~7 GB free) it still admits
#: ~19 concurrent 9-MiB-pair workers, so the clamp only bites where it
#: should — genuinely RAM-tight multicore hosts.
_WORKER_FOOTPRINT_FACTOR = 20


def auto_workers(
    n_tasks: int | None = None,
    executor: str = "thread",
    task_nbytes: int = 0,
) -> int:
    """Worker count: every *available* core, never more workers than tasks.

    Returns 1 on single-core (or affinity-restricted-to-one-core) hosts,
    which makes the drivers degenerate to the plain serial loop — no
    pool is built at all.  For the process executor the count is
    additionally clamped by available RAM: shared segments and each
    worker's float64 intermediates are real memory, and a pool the host
    cannot back just trades cores for swap.
    """
    cores = _available_cores()
    workers = cores if n_tasks is None else max(1, min(cores, n_tasks))
    if executor == "process" and workers > 1 and task_nbytes > 0:
        budget = _available_ram_bytes()
        if budget is not None:
            # spend at most half of what's free on concurrent working sets
            per_worker = _WORKER_FOOTPRINT_FACTOR * task_nbytes
            affordable = max(1, int((budget // 2) // per_worker))
            workers = min(workers, affordable)
    return max(1, workers)


def cost_aware_workers(
    n_tasks: int, executor: str, task_nbytes: int = 0
) -> int:
    """Worker count chosen by predicted pool wall time.

    :func:`auto_workers` caps by cores and RAM; within that cap, the
    dispatch cost model (:func:`repro.engine.dispatch.predict_pool_seconds`)
    prices every candidate count — per-task IPC and per-worker spin-up
    for processes, the GIL-serial fraction for threads — and the argmin
    wins.  On a single-core host the cap is 1 and the drivers degenerate
    to the serial loop exactly as before.
    """
    cap = auto_workers(n_tasks, executor=executor, task_nbytes=task_nbytes)
    if cap <= 1 or executor == "serial":
        return cap
    try:
        from repro.engine.dispatch import (
            estimate_assess_seconds,
            predict_pool_seconds,
        )

        task_s = estimate_assess_seconds(task_nbytes)
        return min(
            range(1, cap + 1),
            key=lambda w: predict_pool_seconds(n_tasks, task_s, w, executor),
        )
    except Exception:  # noqa: BLE001 — the cap is always a safe answer
        return cap


def process_available() -> bool:
    """Can this platform run the process executor at all?

    Needs the ``spawn`` start method (``fork`` would duplicate whatever
    thread/lock state the driver holds) and working shared memory.
    """
    return "spawn" in multiprocessing.get_all_start_methods() and shm_available()


#: fallback reasons already reported; a long-lived owner (server, batch
#: loop) submitting many jobs on a host without shared memory should see
#: one RuntimeWarning, not one per job
_WARNED_FALLBACKS: set[str] = set()


def reset_fallback_warnings() -> None:
    """Forget which fallback reasons were already warned about (tests)."""
    _WARNED_FALLBACKS.clear()


def _fallback_to_threads(reason: str) -> str:
    if reason not in _WARNED_FALLBACKS:
        _WARNED_FALLBACKS.add(reason)
        warnings.warn(
            f"process executor unavailable ({reason}); falling back to threads",
            RuntimeWarning,
            stacklevel=3,
        )
    return "thread"


def resolve_executor(
    executor: str | None = None, config: CheckerConfig | None = None
) -> str:
    """Apply the executor precedence rule: argument > config > ``thread``.

    ``"auto"`` picks processes when the host can actually scale them
    (shared memory + spawn available and more than one usable core) and
    threads otherwise.  A forced ``"process"`` on a platform without
    shared memory degrades to threads with a one-line warning instead of
    failing — the CLI must never hard-fail over an executor choice.
    """
    name = executor or getattr(config, "executor", "") or "thread"
    if name == "auto":
        name = (
            "process"
            if process_available() and _available_cores() > 1
            else "thread"
        )
    if name not in _EXECUTORS:
        raise CheckerError(
            f"executor must be one of {', '.join(('auto',) + _EXECUTORS)}; "
            f"got {name!r}"
        )
    if name == "process" and not process_available():
        name = _fallback_to_threads("no shared memory or spawn start method")
    return name


# -- process pool ----------------------------------------------------------

_POOLS: dict[int, ProcessPoolExecutor] = {}


def _init_worker(parent_sys_path: list[str]) -> None:
    """Mirror the parent's ``sys.path`` so spawn children resolve
    ``repro`` from a source checkout (``PYTHONPATH=src``) exactly as the
    parent did."""
    for entry in reversed(parent_sys_path):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """A persistent spawn pool per worker count.

    Spawning an interpreter plus importing NumPy costs ~1 s per worker;
    keeping pools alive across batches amortises that to zero for every
    call after the first.  ``atexit`` tears them down.
    """
    pool = _POOLS.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_worker,
            initargs=(list(sys.path),),
        )
        _POOLS[workers] = pool
    return pool


def _discard_pool(workers: int, wait: bool = False) -> None:
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=wait, cancel_futures=True)


def shutdown_pools(wait: bool = False) -> None:
    """Release every persistent process pool.

    The explicit owner hook: a :class:`~repro.service.session.CheckerSession`
    calls this on close (``wait=True`` so worker interpreters are really
    gone before the caller asserts leak-freedom), and ``atexit`` calls it
    as the backstop for one-shot CLI runs.  Idempotent — pools rebuild
    lazily on the next batch.
    """
    for workers in list(_POOLS):
        _discard_pool(workers, wait=wait)


def active_pool_counts() -> tuple[int, ...]:
    """Worker counts of the pools currently alive (leak probes)."""
    return tuple(sorted(_POOLS))


atexit.register(shutdown_pools)


def _noop(_: int) -> None:
    return None


def warm_process_pool(workers: int) -> None:
    """Spawn and import every worker up front.

    Benchmarks (and latency-sensitive services) call this so the first
    timed batch measures steady-state execution, not interpreter
    start-up.
    """
    list(_get_pool(workers).map(_noop, range(workers * 3)))


# -- worker-side state -----------------------------------------------------

#: one checker per (config, with_baselines) pickle — a worker builds the
#: execution plan (and validates the config) once per distinct setup,
#: then serves every task of every batch with it
_WORKER_CHECKERS: dict[bytes, CuZChecker] = {}


def _worker_checker(blob: bytes) -> CuZChecker:
    checker = _WORKER_CHECKERS.get(blob)
    if checker is None:
        config, with_baselines = pickle.loads(blob)
        checker = CuZChecker(config=config, with_baselines=with_baselines)
        _WORKER_CHECKERS[blob] = checker
    return checker


def _export_trace(tracer: Tracer):
    """The picklable half of a worker's trace: ``(spans, epoch, pid)``."""
    if not tracer.enabled:
        return None
    return (tracer.spans, tracer._epoch, os.getpid())


def _portable_exc(exc: BaseException) -> BaseException:
    """An exception guaranteed to survive the trip back to the driver."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 — unpicklable custom exception
        return CheckerError(f"{type(exc).__name__}: {exc}")


def _job_compare(name, orig_handle, dec_handle, checker_blob, trace):
    """Worker job: assess one published (orig, dec) pair."""
    tracer = Tracer() if trace else NULL_TRACER
    orig = dec = None
    try:
        checker = _worker_checker(checker_blob)
        orig = orig_handle.attach()
        dec = dec_handle.attach()
        shm_bytes = orig_handle.nbytes + dec_handle.nbytes
        with tracer.span(
            name, category="field", bytes=shm_bytes,
            shm_bytes=shm_bytes, pid=os.getpid(),
        ):
            report = compare_data(
                orig, dec, checker=checker, tracer=tracer,
                extras={"shm_bytes": shm_bytes},
            )
        out = (report, None, _export_trace(tracer))
    except Exception as exc:  # noqa: BLE001 — isolation is the point
        out = (None, _portable_exc(exc), _export_trace(tracer))
    # drop our view references *before* unmapping — close() keeps the
    # mapping alive if anything (e.g. a traceback frame) still exports it
    orig = dec = None  # noqa: F841
    orig_handle.close()
    dec_handle.close()
    return out


def _job_batch(job_fn, items):
    """Worker job: run several per-field jobs in one submit.

    Small fields drown in per-task IPC (pickle + queue round-trip per
    submit); grouping several of them per job amortises that while
    running the *same* per-field code on the same bytes, so batched
    results stay bit-identical to one-job-per-field.  Items execute in
    submission order; each keeps its own trace payload.
    """
    return [(name, job_fn(name, *args)) for name, args in items]


#: minimum input bytes one process-pool job should carry; fields smaller
#: than this are grouped until a job reaches it (or tasks run out)
_MIN_JOB_BYTES = 4 << 20


def _group_jobs(jobs, workers: int, task_nbytes: int):
    """Chunk ordered jobs so each group carries ≥ ``_MIN_JOB_BYTES``.

    Never groups beyond ``ceil(n / workers)`` — batching must not starve
    a worker that could otherwise run concurrently.
    """
    n = len(jobs)
    if n <= 1 or task_nbytes >= _MIN_JOB_BYTES:
        size = 1
    else:
        size = min(
            -(-_MIN_JOB_BYTES // max(task_nbytes, 1)),  # ceil division
            -(-n // workers),
        )
    return [jobs[i : i + size] for i in range(0, n, size)]


def _job_assess(name, handle, compressor_blob, checker_blob, trace):
    """Worker job: compress + assess one published field."""
    tracer = Tracer() if trace else NULL_TRACER
    data = None
    try:
        checker = _worker_checker(checker_blob)
        compressor = pickle.loads(compressor_blob)
        data = handle.attach()
        with tracer.span(
            name, category="field", bytes=handle.nbytes,
            shm_bytes=handle.nbytes, pid=os.getpid(),
        ):
            report = assess_compressor(
                data, compressor, checker=checker, tracer=tracer,
                extras={"shm_bytes": handle.nbytes},
            )
        out = (report, None, _export_trace(tracer))
    except Exception as exc:  # noqa: BLE001
        out = (None, _portable_exc(exc), _export_trace(tracer))
    data = None  # noqa: F841
    handle.close()
    return out


# -- drivers ---------------------------------------------------------------


def _check_on_error(on_error: str) -> None:
    if on_error not in ("raise", "record"):
        raise CheckerError(f"on_error must be 'raise' or 'record', got {on_error!r}")


def _run_isolated(
    tasks,
    workers: int,
    on_error: str,
    batch: BatchAssessment,
    tracer: Tracer = NULL_TRACER,
    executor: str = "thread",
):
    """Run ``(name, thunk)`` tasks in-process, filling ``batch`` in task order.

    ``workers == 1`` degenerates to a plain loop (no pool overhead); the
    pool path submits everything and collects in submission order, so the
    report dict's iteration order is the dataset's field order either way.
    Every task runs inside a ``field`` span explicitly parented under the
    driver's root span — worker threads have empty span stacks, so the
    cross-thread nesting must be handed over, not inherited.
    """
    _check_on_error(on_error)
    tasks = list(tasks)
    with tracer.span(
        f"parallel:{batch.dataset_name}", category="batch",
        tasks=len(tasks), workers=workers, executor=executor,
    ) as root:
        parent = root if tracer.enabled else None

        def _traced(name, thunk):
            with tracer.span(name, category="field", parent=parent):
                return thunk()

        if workers == 1:
            outcomes = []
            for name, thunk in tasks:
                try:
                    outcomes.append((name, _traced(name, thunk), None))
                except Exception as exc:  # noqa: BLE001 — isolation is the point
                    if on_error == "raise":
                        raise
                    outcomes.append((name, None, exc))
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [
                    (name, pool.submit(_traced, name, thunk)) for name, thunk in tasks
                ]
                outcomes = []
                for name, fut in futures:
                    try:
                        outcomes.append((name, fut.result(), None))
                    except Exception as exc:  # noqa: BLE001
                        if on_error == "raise":
                            raise
                        outcomes.append((name, None, exc))
    for name, report, exc in outcomes:
        if exc is None:
            batch.reports[name] = report
        else:
            batch.errors[name] = f"{type(exc).__name__}: {exc}"
    return batch


def _run_process_jobs(
    jobs,
    job_fn,
    workers: int,
    on_error: str,
    batch: BatchAssessment,
    tracer: Tracer,
    shm_bytes: int,
    task_nbytes: int = 0,
):
    """Submit ``(name, args)`` jobs to the spawn pool, filling ``batch``.

    Small fields are grouped several-per-submit (see :func:`_group_jobs`)
    to amortise IPC; group results come back in submission order, so the
    report dict keeps the dataset's field order bit-identically.  Worker
    traces come home as picklable ``(spans, epoch, pid)`` payloads and
    merge under the driver's root span with one export lane per worker
    process — the same stable-id merge the multi-GPU ranks use.
    """
    _check_on_error(on_error)
    jobs = list(jobs)
    groups = _group_jobs(jobs, workers, task_nbytes)
    pool = _get_pool(workers)
    lanes: dict[int, int] = {}
    with tracer.span(
        f"parallel:{batch.dataset_name}", category="batch",
        tasks=len(jobs), jobs=len(groups), workers=workers,
        executor="process", shm_bytes=shm_bytes,
    ) as root:
        parent = root if tracer.enabled else None
        try:
            futures = [pool.submit(_job_batch, job_fn, group) for group in groups]
        except RuntimeError:
            # a previous batch broke this pool; build a fresh one
            _discard_pool(workers)
            pool = _get_pool(workers)
            futures = [pool.submit(_job_batch, job_fn, group) for group in groups]
        outcomes = []
        for group, fut in zip(groups, futures):
            try:
                results = fut.result()
            except BrokenProcessPool as broken:
                _discard_pool(workers)
                err = CheckerError(f"worker process died: {broken}")
                results = [(name, (None, err, None)) for name, _ in group]
            for name, (report, exc, trace) in results:
                if trace is not None:
                    spans, epoch, pid = trace
                    lane = lanes.setdefault(pid, len(lanes) + 1)
                    tracer.merge_spans(spans, epoch, parent=parent, track=lane)
                if exc is not None and on_error == "raise":
                    raise exc
                outcomes.append((name, report, exc))
    for name, report, exc in outcomes:
        if exc is None:
            batch.reports[name] = report
        else:
            batch.errors[name] = f"{type(exc).__name__}: {exc}"
    return batch


def parallel_assess_dataset(
    dataset: Dataset,
    compressor,
    config: CheckerConfig | None = None,
    with_baselines: bool = False,
    workers: int | None = None,
    on_error: str = "raise",
    tracer: Tracer | None = None,
    executor: str | None = None,
    session=None,
) -> BatchAssessment:
    """Parallel counterpart of :func:`repro.core.batch.assess_dataset`.

    Fans one compress+assess task per field across ``workers`` (threads
    by default; ``executor="process"`` publishes each field over shared
    memory and farms it to a spawn pool).  With
    ``on_error="record"``, a failing field becomes an entry in
    :attr:`~repro.core.batch.BatchAssessment.errors` instead of crashing
    the batch.
    """
    if len(dataset) == 0:
        raise CheckerError(f"dataset {dataset.name!r} has no fields")
    executor = resolve_executor(executor, config)
    fields = list(dataset)
    task_nbytes = max(f.data.nbytes for f in fields)
    workers = workers or cost_aware_workers(
        len(fields), executor=executor, task_nbytes=task_nbytes
    )
    tracer = tracer if tracer is not None else NULL_TRACER
    batch = BatchAssessment(dataset_name=dataset.name)

    if executor == "process" and workers > 1 and len(fields) > 1:
        try:
            compressor_blob = pickle.dumps(compressor)
        except Exception as exc:  # noqa: BLE001 — closure-bound codecs etc.
            executor = _fallback_to_threads(f"compressor does not pickle: {exc}")
        else:
            checker_blob = pickle.dumps((config, with_baselines))
            with shared_fields([f.data for f in fields]) as handles:
                jobs = [
                    (f.name, (h, compressor_blob, checker_blob, tracer.enabled))
                    for f, h in zip(fields, handles)
                ]
                return _run_process_jobs(
                    jobs, _job_assess, workers, on_error, batch, tracer,
                    shm_bytes=sum(h.nbytes for h in handles),
                    task_nbytes=task_nbytes,
                )

    # serial / thread path: one shared checker — the execution plan is
    # built (and the config validated) once, then every worker thread
    # executes it; plans are immutable and each execution gets its own
    # backend context.  A session hands over its persistent checker so
    # consecutive batches keep the warm plan memo.
    if session is not None:
        checker = session.checker_for(config, with_baselines)
    else:
        checker = CuZChecker(
            config=config, with_baselines=with_baselines, tracer=tracer
        )
    tasks = [
        (
            f.name,
            lambda data=f.data: assess_compressor(
                data, compressor, checker=checker
            ),
        )
        for f in fields
    ]
    effective = 1 if executor == "serial" else workers
    return _run_isolated(
        tasks, effective, on_error, batch, tracer=tracer, executor=executor
    )


def parallel_compare_pairs(
    pairs,
    config: CheckerConfig | None = None,
    with_baselines: bool = False,
    workers: int | None = None,
    on_error: str = "raise",
    dataset_name: str = "pairs",
    tracer: Tracer | None = None,
    executor: str | None = None,
    session=None,
) -> BatchAssessment:
    """Assess pre-decompressed ``(name, orig, dec)`` pairs in parallel.

    The building block for services that receive already-decompressed
    payloads; same ordering and isolation guarantees as
    :func:`parallel_assess_dataset`.  With ``executor="process"`` every
    pair is published to shared memory once and assessed by a worker
    process — zero-copy in, a small report out.
    """
    pairs = [(name, np.asarray(o), np.asarray(d)) for name, o, d in pairs]
    if not pairs:
        raise CheckerError("no pairs to assess")
    executor = resolve_executor(executor, config)
    task_nbytes = max(o.nbytes + d.nbytes for _, o, d in pairs)
    workers = workers or cost_aware_workers(
        len(pairs), executor=executor, task_nbytes=task_nbytes
    )
    tracer = tracer if tracer is not None else NULL_TRACER
    batch = BatchAssessment(dataset_name=dataset_name)

    if executor == "process" and workers > 1 and len(pairs) > 1:
        checker_blob = pickle.dumps((config, with_baselines))
        arrays = [a for _, o, d in pairs for a in (o, d)]
        with shared_fields(arrays) as handles:
            jobs = [
                (
                    name,
                    (handles[2 * i], handles[2 * i + 1], checker_blob,
                     tracer.enabled),
                )
                for i, (name, _, _) in enumerate(pairs)
            ]
            return _run_process_jobs(
                jobs, _job_compare, workers, on_error, batch, tracer,
                shm_bytes=sum(h.nbytes for h in handles),
                task_nbytes=task_nbytes,
            )

    if session is not None:
        checker = session.checker_for(config, with_baselines)
    else:
        checker = CuZChecker(
            config=config, with_baselines=with_baselines, tracer=tracer
        )
    tasks = [
        (name, lambda o=o, d=d: compare_data(o, d, checker=checker))
        for name, o, d in pairs
    ]
    effective = 1 if executor == "serial" else workers
    return _run_isolated(
        tasks, effective, on_error, batch, tracer=tracer, executor=executor
    )
