"""Parallel archive audit: one field per process-pool worker.

The coordinator fans pending fields across the same spawn-safe
persistent pool the batch drivers use
(:func:`repro.parallel.executor._get_pool`).  Each worker:

* keeps a module-global warm :class:`~repro.service.session.CheckerSession`
  per configuration (the audit analogue of the executor's per-worker
  checker cache), so consecutive fields skip plan construction;
* streams its field through the *same*
  :func:`~repro.audit.runner._stream_field` core the serial loop runs —
  identical code on identical bytes is what makes the final report
  byte-identical whatever the worker count;
* checkpoints after every chunk into a worker-owned *part* file
  (atomic replace, same format discipline as the main checkpoint).

The coordinator polls the part files while jobs run and folds them into
the single main checkpoint (``completed`` + an ``in_flight`` map), so a
SIGKILL of the whole process tree at any instant leaves a resumable
state: the main checkpoint holds the last merge, and any parts written
after it are re-folded by the next run's resume scan.  Worker trace
spans come home as picklable payloads and merge under the coordinator's
root span with one lane per worker PID — the same chunk-granular spans
the serial audit emits, now in parallel tracks.  Per chunk those are
``chunk_read`` (the bundle generator's step only: seek + read, inflate,
digest verify), ``codec_compress`` and ``codec_decompress`` (the audited
codec's round trip), the streaming checker's own ``chunk<i>`` update
span, and ``checkpoint`` (the ``on_chunk`` callback: part-file write).
"""

from __future__ import annotations

import json
import pickle
from concurrent.futures import FIRST_COMPLETED, wait
from pathlib import Path

from repro.audit.checkpoint import AuditCheckpoint, part_path_for
from repro.errors import CheckerError

__all__ = ["run_parallel_audit"]

#: marker stamped into every part file
PART_KIND = "audit-part"

#: coordinator poll interval while worker jobs run (seconds); merges are
#: cheap (raw-JSON passthrough, no array decode) so polling fast keeps
#: the main checkpoint close behind the parts
_POLL_S = 0.2


# -- worker side -----------------------------------------------------------

#: one warm session per config pickle — a worker builds the validated
#: plan once, then serves every field of every audit with it
_AUDIT_SESSIONS: dict[bytes, object] = {}


def _worker_session(config_blob: bytes):
    session = _AUDIT_SESSIONS.get(config_blob)
    if session is None:
        from repro.service.session import CheckerSession

        session = CheckerSession(config=pickle.loads(config_blob)).open()
        _AUDIT_SESSIONS[config_blob] = session
    return session


def _job_audit_field(spec: dict):
    """Worker job: stream one field, checkpointing to its part file.

    Returns ``(result, error, trace, interrupted_chunks)`` — exactly one
    of the first two is set on normal/failed completion;
    ``interrupted_chunks`` is set (and both others ``None``) when the
    ``stop_after_chunks`` test hook fired.
    """
    from repro.audit.runner import AuditInterrupted, _codec_for, _stream_field
    from repro.io.bundle import load_bundle
    from repro.parallel.executor import _export_trace, _portable_exc
    from repro.telemetry.tracer import NULL_TRACER, Tracer

    tracer = Tracer() if spec["trace"] else NULL_TRACER
    part = AuditCheckpoint(spec["part_path"])
    key = spec["key"]
    try:
        session = _worker_session(spec["config_blob"])
        compressor = _codec_for(spec["codec"], spec["codec_args"])
        bundle = load_bundle(spec["bundle_root"])

        resume_state = None
        try:
            doc = part.load()
        except Exception:  # noqa: BLE001 — a stale/corrupt part resets the field
            doc = None
        if (
            doc is not None
            and doc.get("fingerprint_sha") == spec["fingerprint_sha"]
            and doc.get("key") == key
        ):
            if doc.get("done"):
                # finished by a previous run but never merged — nothing to do
                return (doc["result"], None, None, None)
            resume_state = doc

        processed = 0
        stop_after = spec["stop_after_chunks"]

        def on_chunk(info, chunks_done, bytes_streamed, checker):
            nonlocal processed
            part.save(
                {
                    "kind": PART_KIND,
                    "fingerprint_sha": spec["fingerprint_sha"],
                    "key": key,
                    "chunks_done": chunks_done,
                    "bytes_streamed": bytes_streamed,
                    "stream": checker.state_dict(),
                }
            )
            processed += 1
            if stop_after is not None and processed >= stop_after:
                raise AuditInterrupted(processed)

        try:
            result = _stream_field(
                bundle,
                spec["rel"],
                spec["field"],
                key,
                compressor,
                session,
                tracer,
                session.config,
                spec["lag_default"],
                spec["use_ssim"],
                spec["verify"],
                spec["chunk_nz"],
                resume_state,
                on_chunk,
            )
        except AuditInterrupted:
            return (None, None, _export_trace(tracer), processed)
        part.save(
            {
                "kind": PART_KIND,
                "fingerprint_sha": spec["fingerprint_sha"],
                "key": key,
                "chunks_done": result["chunks"],
                "bytes_streamed": result["bytes_streamed"],
                "done": True,
                "result": result,
            }
        )
        return (result, None, _export_trace(tracer), None)
    except Exception as exc:  # noqa: BLE001 — isolation is the point
        return (None, _portable_exc(exc), _export_trace(tracer), None)


# -- coordinator -----------------------------------------------------------


def _read_part_raw(path: Path) -> dict | None:
    """A part file as raw (still-encoded) JSON, or ``None``.

    The coordinator never needs the arrays themselves — it folds the
    encoded state straight into the main checkpoint, whose own
    ``encode_state`` pass leaves already-encoded structures unchanged —
    so merging costs JSON parse + dump, not base64 array round-trips.
    """
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def run_parallel_audit(
    pending,
    workers: int,
    checkpoint: AuditCheckpoint,
    parts_dir: Path,
    fingerprint: dict,
    fp_sha: str,
    completed: dict,
    in_flight: dict,
    codec: str,
    codec_args: dict,
    chunk_nz: int | None,
    lag_default: int,
    use_ssim: bool,
    verify: bool,
    config,
    tracer,
    notify,
    stop_after_chunks: int | None,
) -> None:
    """Audit ``pending`` fields on ``workers`` pool processes.

    Fills ``completed`` in place and keeps the main checkpoint merged
    throughout.  Raises :class:`~repro.audit.runner.AuditInterrupted`
    when the test hook stopped any worker, or the first worker error.
    """
    from repro.audit.runner import AuditInterrupted
    from repro.parallel.executor import _discard_pool, _get_pool

    parts_dir = Path(parts_dir)
    parts_dir.mkdir(parents=True, exist_ok=True)
    config_blob = pickle.dumps(config)

    # seed part files from checkpoint in_flight state so workers resume
    # from it (an existing part is always at least as fresh — keep it)
    for _, rel, field_name, key, _ in pending:
        state = in_flight.get(key)
        ppath = part_path_for(parts_dir, key)
        if state is not None and not ppath.exists():
            AuditCheckpoint(ppath).save(
                {
                    "kind": PART_KIND,
                    "fingerprint_sha": fp_sha,
                    "key": key,
                    "chunks_done": state["chunks_done"],
                    "bytes_streamed": state["bytes_streamed"],
                    "stream": state["stream"],
                }
            )

    chunk_totals = {key: n for _, _, _, key, n in pending}
    last_progress: dict[str, int] = {}

    def merge_parts() -> None:
        """Fold every part into the single atomic main checkpoint."""
        live: dict[str, dict] = {}
        for _, _, _, key, n_chunks in pending:
            if key in completed:
                continue
            raw = _read_part_raw(part_path_for(parts_dir, key))
            if (
                raw is None
                or raw.get("fingerprint_sha") != fp_sha
                or raw.get("key") != key
            ):
                continue
            if raw.get("done"):
                completed[key] = raw["result"]
            else:
                live[key] = {
                    "key": key,
                    "chunks_done": raw["chunks_done"],
                    "bytes_streamed": raw["bytes_streamed"],
                    "stream": raw["stream"],
                }
            done_chunks = int(raw.get("chunks_done", 0))
            if done_chunks > last_progress.get(key, 0):
                last_progress[key] = done_chunks
                notify(
                    "chunk",
                    {
                        "key": key,
                        "chunk": done_chunks,
                        "of": chunk_totals[key],
                        "bytes": int(raw.get("bytes_streamed", 0)),
                    },
                )
        payload = {
            "fingerprint": fingerprint,
            "completed": list(completed.values()),
            "in_progress": None,
        }
        if live:
            payload["in_flight"] = live
        checkpoint.save(payload)

    specs = [
        {
            "bundle_root": str(bundle.root),
            "rel": rel,
            "field": field_name,
            "key": key,
            "config_blob": config_blob,
            "codec": codec,
            "codec_args": codec_args,
            "chunk_nz": chunk_nz,
            "lag_default": lag_default,
            "use_ssim": use_ssim,
            "verify": verify,
            "part_path": str(part_path_for(parts_dir, key)),
            "fingerprint_sha": fp_sha,
            "stop_after_chunks": stop_after_chunks,
            "trace": tracer.enabled,
        }
        for bundle, rel, field_name, key, _ in pending
    ]
    # the merged checkpoint exists before any worker starts, so even an
    # immediate kill resumes against a consistent fingerprinted snapshot
    merge_parts()

    pool = _get_pool(workers)
    with tracer.span(
        "audit_parallel",
        category="batch",
        tasks=len(pending),
        workers=workers,
        executor="process",
    ) as root:
        parent = root if tracer.enabled else None
        try:
            futures = {pool.submit(_job_audit_field, s): s for s in specs}
        except RuntimeError:
            # a previous batch broke this pool; build a fresh one
            _discard_pool(workers)
            pool = _get_pool(workers)
            futures = {pool.submit(_job_audit_field, s): s for s in specs}

        lanes: dict[int, int] = {}
        outstanding = set(futures)
        interrupted = 0
        hook_fired = False
        first_error: BaseException | None = None
        while outstanding:
            done, outstanding = wait(
                outstanding, timeout=_POLL_S, return_when=FIRST_COMPLETED
            )
            for fut in done:
                spec = futures[fut]
                try:
                    result, exc, trace, stopped = fut.result()
                except Exception as broken:  # noqa: BLE001 — BrokenProcessPool etc.
                    _discard_pool(workers)
                    merge_parts()
                    raise CheckerError(
                        f"audit worker process died: {broken}"
                    ) from broken
                if trace is not None:
                    spans, epoch, pid = trace
                    lane = lanes.setdefault(pid, len(lanes) + 1)
                    tracer.merge_spans(spans, epoch, parent=parent, track=lane)
                if exc is not None:
                    first_error = first_error or exc
                elif stopped is not None:
                    hook_fired = True
                    interrupted += stopped
                else:
                    completed[spec["key"]] = result
                    notify(
                        "field_done",
                        {"key": spec["key"], "result": result},
                    )
            merge_parts()
            if first_error is not None:
                for fut in outstanding:
                    fut.cancel()
                wait(outstanding)
                merge_parts()
                raise first_error

    if hook_fired:
        raise AuditInterrupted(interrupted)
