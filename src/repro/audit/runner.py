"""The archive-fleet auditor: walk, stream, checkpoint, resume.

``run_audit`` assesses every field of every bundle under a directory
tree with bounded memory:

* bundles are discovered deterministically (sorted manifest paths) and
  fields run in manifest order, so two runs over the same tree do the
  same work in the same order;
* each field streams through
  :meth:`~repro.io.bundle.DatasetBundle.iter_field_chunks` — one z-slab
  chunk resident at a time, verified against its manifest SHA-256 —
  into a :class:`~repro.core.streaming.StreamingChecker` obtained from
  a warm :class:`~repro.service.session.CheckerSession`;
* the decompressed side is produced chunk-wise by an error-bounded
  codec (compress + decompress per chunk), which keeps the pipeline
  deterministic per chunk and therefore replayable after a kill;
* after every chunk the exact stream state lands in an
  :class:`~repro.audit.checkpoint.AuditCheckpoint` (atomic replace), so
  a SIGKILL at any instant loses at most the chunk in flight — resuming
  replays from the last completed chunk and the final report is
  byte-for-byte identical to an uninterrupted run.

With ``workers`` > 1 (or ``"auto"`` on a multicore host) the audit fans
one field per process-pool worker (:mod:`repro.audit.parallel`): each
worker streams its field through its own warm session, checkpointing to
a worker-owned *part* file after every chunk, and the coordinator folds
the parts into the same single atomic checkpoint — so kill/resume, the
checkpoint contract, and the final report bytes are identical to the
serial path whatever the worker count.  ``"auto"`` prices the pool with
the dispatch cost model and stays serial when spin-up would not
amortise (small archives, single-core hosts).

SSIM streams exactly when the bundle manifest carries the field's value
range (v2/v3 bundles record it at write time — the global dynamic range
a mid-stream checker cannot otherwise know); v1 bundles audit without
SSIM rather than paying a second pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from contextlib import closing
from dataclasses import replace
from pathlib import Path

from repro.audit.checkpoint import (
    AuditCheckpoint,
    parts_dir_for,
    remove_parts,
)
from repro.errors import CheckerError, DataIOError
from repro.io.bundle import load_bundle
from repro.telemetry.tracer import NULL_TRACER

__all__ = [
    "AuditInterrupted",
    "REPORT_FORMAT",
    "discover_bundles",
    "resolve_audit_workers",
    "run_audit",
]

REPORT_FORMAT = "cuzchecker-audit-report-v1"


class AuditInterrupted(CheckerError):
    """Raised by the ``stop_after_chunks`` test hook: the deterministic
    stand-in for a SIGKILL, thrown *after* the chunk's checkpoint is on
    disk so tests can resume exactly like a killed process would.  In a
    parallel audit the cap applies per worker (each stops after that
    many chunks of its own field), which keeps the hook deterministic
    whatever the scheduling."""

    def __init__(self, chunks_processed: int):
        self.chunks_processed = chunks_processed
        super().__init__(
            f"audit interrupted after {chunks_processed} chunk(s) (test hook)"
        )


def discover_bundles(root: str | Path) -> list[Path]:
    """Bundle directories under ``root``, sorted by relative path."""
    root = Path(root)
    if not root.is_dir():
        raise DataIOError(f"audit root {root} is not a directory")
    found = sorted(p.parent for p in root.rglob("manifest.json"))
    if not found:
        raise DataIOError(f"no bundles (manifest.json) found under {root}")
    return found


def _codec_for(codec: str, codec_args: dict | None):
    from repro.compressors.registry import get_compressor

    return get_compressor(codec, **(codec_args or {}))


def _fingerprint(
    root: Path,
    bundles: list[Path],
    codec: str,
    codec_args: dict,
    chunk_nz: int | None,
    max_lag: int,
    use_ssim: bool,
) -> dict:
    """Everything the resumed run must agree on with the killed run.

    Deliberately excludes the worker count: a serial run may resume a
    killed parallel one (and vice versa) because both maintain the same
    checkpoint contract.
    """
    listing = []
    for path in bundles:
        b = load_bundle(path)
        listing.append(
            {
                "rel": path.relative_to(root).as_posix(),
                "name": b.name,
                "shape": list(b.shape),
                "dtype": b.dtype,
                "version": b.version,
                "fields": list(b.field_names),
            }
        )
    return {
        "codec": codec,
        "codec_args": json.loads(json.dumps(codec_args, sort_keys=True)),
        "chunk_nz": chunk_nz,
        "max_lag": max_lag,
        "use_ssim": use_ssim,
        "bundles": listing,
    }


def _fingerprint_sha(fingerprint: dict) -> str:
    """Short digest stamped on part files (the full fingerprint lives in
    the main checkpoint only)."""
    blob = json.dumps(fingerprint, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_report_atomic(report: dict, out_path: Path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = out_path.with_name(
        f".{out_path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    tmp.write_text(text)
    os.replace(tmp, out_path)


def resolve_audit_workers(
    workers: int | str | None,
    n_pending: int,
    field_nbytes: int,
    chunk_nbytes: int,
) -> int:
    """How many audit workers to actually run.

    ``"auto"`` (or ``None``) consults the host — processes must be
    available and the :func:`~repro.parallel.executor.auto_workers`
    core/RAM cap (clamped by *field* bytes: chunks stream, but each
    worker's spectral/SSIM accumulators are field-sized) must exceed
    one — then prices every candidate count
    with the dispatch cost model
    (:func:`~repro.engine.dispatch.predict_pool_seconds` over per-field
    task estimates) and keeps the argmin.  An archive too small to
    amortise pool spin-up prices out at 1 and runs the plain serial
    loop.  An explicit integer is honoured even on a single-core host
    (CI forces 2 there to exercise the coordinator), capped only by the
    number of pending fields; ``"serial"`` is 1.
    """
    if isinstance(workers, str):
        if workers == "serial":
            return 1
        if workers != "auto":
            try:
                workers = int(workers)
            except ValueError:
                raise CheckerError(
                    f"audit workers must be 'auto', 'serial', or a positive "
                    f"integer; got {workers!r}"
                ) from None
    if workers is None or workers == "auto":
        if n_pending <= 1:
            return 1
        from repro.parallel.executor import auto_workers, process_available

        if not process_available():
            return 1
        # RAM-clamp by *field* bytes, not chunk bytes: chunks stream,
        # but a worker's spectral/SSIM accumulators are field-sized
        # (measured ~16x the field; EXPERIMENTS.md "worker footprint")
        cap = auto_workers(
            n_pending, executor="process", task_nbytes=field_nbytes
        )
        if cap <= 1:
            return 1
        try:
            from repro.engine.dispatch import (
                estimate_assess_seconds,
                predict_pool_seconds,
            )

            task_s = estimate_assess_seconds(field_nbytes)
            serial_s = n_pending * task_s
            best = min(
                range(1, cap + 1),
                key=lambda w: predict_pool_seconds(
                    n_pending, task_s, w, "process"
                ),
            )
            best_s = predict_pool_seconds(n_pending, task_s, best, "process")
            return best if best > 1 and best_s < serial_s else 1
        except Exception:  # noqa: BLE001 — serial is always a safe answer
            return 1
    workers = int(workers)
    if workers < 1:
        raise CheckerError(f"audit workers must be >= 1, got {workers}")
    return max(1, min(workers, max(1, n_pending)))


def run_audit(
    root: str | Path,
    out_path: str | Path | None = None,
    checkpoint_path: str | Path | None = None,
    codec: str = "sz",
    codec_args: dict | None = None,
    chunk_nz: int | None = None,
    max_lag: int | None = None,
    use_ssim: bool = True,
    verify: bool = True,
    resume: bool = True,
    workers: int | str | None = None,
    session=None,
    tracer=None,
    progress=None,
    stop_after_chunks: int | None = None,
) -> dict:
    """Assess every field under ``root``; resumable, bounded memory.

    Parameters
    ----------
    root:
        Directory tree containing bundle directories (any nesting).
    out_path:
        Final JSON report (default ``<root>/audit_report.json``),
        written atomically; byte-for-byte deterministic for a given
        tree + configuration — *including* the worker count, which is
        what the parallel kill/resume CI job asserts.
    checkpoint_path:
        Checkpoint file (default ``<root>/.audit_checkpoint.json``),
        replaced atomically after every chunk and deleted once the
        report is on disk.  A parallel run adds a sibling
        ``<checkpoint>.parts/`` directory of worker-owned part files,
        removed with the checkpoint.
    codec / codec_args:
        The chunk-wise compressor under assessment (registry name +
        constructor kwargs).  Compression is applied per chunk, so the
        error structure is chunk-local — documented audit semantics,
        and the property that makes resume exact.
    chunk_nz:
        Slab depth for v1 (unchunked) bundles; v2/v3 bundles always
        stream their manifest chunk table.
    max_lag:
        Autocorrelation lags (default: the session config's
        ``pattern2.max_lag``), clamped per field to fit the plane.
    use_ssim:
        Stream SSIM for fields whose manifest records a value range.
    verify:
        Check per-chunk SHA-256 digests while streaming (v2/v3 bundles).
    resume:
        Continue from an existing checkpoint; ``False`` starts fresh.
    workers:
        ``"auto"`` (default, also read from the session config's
        ``audit_workers``), ``"serial"``, or an explicit count — see
        :func:`resolve_audit_workers`.  Not part of the resume
        fingerprint: a serial run may resume a killed parallel one.
    session:
        A :class:`~repro.service.session.CheckerSession` to run on (one
        is created and closed internally when omitted).
    progress:
        Optional callback ``(event: str, payload: dict)`` for CLI
        progress lines.
    stop_after_chunks:
        Test hook — raise :class:`AuditInterrupted` after this many
        chunks were processed *in this run* (checkpoint already saved).
        Parallel runs apply the cap per worker.
    """
    root = Path(root)
    out_path = Path(out_path) if out_path else root / "audit_report.json"
    checkpoint = AuditCheckpoint(
        checkpoint_path if checkpoint_path else root / ".audit_checkpoint.json"
    )
    parts_dir = parts_dir_for(checkpoint.path)
    if codec_args is None and codec in ("sz", "sz2", "uniform_quant"):
        codec_args = {"rel_bound": 1e-3}
    codec_args = dict(codec_args or {})
    compressor = _codec_for(codec, codec_args)

    own_session = session is None
    if own_session:
        from repro.service.session import CheckerSession

        session = CheckerSession()
        session.open()
    tracer = tracer if tracer is not None else session.tracer
    if tracer is None:
        tracer = NULL_TRACER
    notify = progress or (lambda event, payload: None)

    try:
        bundles = discover_bundles(root)
        cfg = session.config
        lag_default = cfg.pattern2.max_lag if max_lag is None else int(max_lag)
        if workers is None:
            workers = getattr(cfg, "audit_workers", "auto")
        fingerprint = _fingerprint(
            root, bundles, codec, codec_args, chunk_nz, lag_default, use_ssim
        )
        fp_sha = _fingerprint_sha(fingerprint)

        completed: dict[str, dict] = {}
        in_flight: dict[str, dict] = {}
        if resume:
            snapshot = checkpoint.load()
            if snapshot is not None:
                if snapshot["fingerprint"] != fingerprint:
                    raise CheckerError(
                        f"checkpoint {checkpoint.path} was written by a "
                        "different audit configuration or bundle tree; "
                        "rerun with resume disabled (--fresh) to discard it"
                    )
                completed = {r["key"]: r for r in snapshot["completed"]}
                current = snapshot.get("in_progress")
                if current is not None:
                    in_flight[current["key"]] = current
                for key, state in (snapshot.get("in_flight") or {}).items():
                    in_flight[key] = state
            _overlay_parts(parts_dir, fp_sha, completed, in_flight)
            if completed or in_flight:
                notify(
                    "resume",
                    {
                        "completed": len(completed),
                        "mid_field": bool(in_flight),
                    },
                )
        else:
            checkpoint.delete()
            remove_parts(parts_dir)

        # deterministic field inventory: (bundle, rel, field, key, chunks)
        inventory = []
        field_nbytes = 0
        chunk_nbytes = 0
        for bundle_path in bundles:
            bundle = load_bundle(bundle_path)
            rel = bundle_path.relative_to(root).as_posix()
            itemsize = 4 if bundle.dtype == "float32" else 8
            nbytes = math.prod(bundle.shape) * itemsize
            for field_name in bundle.field_names:
                key = f"{rel}::{field_name}"
                table = bundle.field_chunks(field_name, chunk_nz)
                inventory.append((bundle, rel, field_name, key, len(table)))
                if key not in completed:
                    field_nbytes = max(field_nbytes, nbytes)
                    chunk_nbytes = max(
                        chunk_nbytes, max(c.nbytes for c in table)
                    )
        pending = [e for e in inventory if e[3] not in completed]
        n_workers = resolve_audit_workers(
            workers, len(pending), field_nbytes, chunk_nbytes
        )

        if n_workers > 1 and len(pending) > 1:
            from repro.audit.parallel import run_parallel_audit

            run_parallel_audit(
                pending=pending,
                workers=n_workers,
                checkpoint=checkpoint,
                parts_dir=parts_dir,
                fingerprint=fingerprint,
                fp_sha=fp_sha,
                completed=completed,
                in_flight=in_flight,
                codec=codec,
                codec_args=codec_args,
                chunk_nz=chunk_nz,
                lag_default=lag_default,
                use_ssim=use_ssim,
                verify=verify,
                config=cfg,
                tracer=tracer,
                notify=notify,
                stop_after_chunks=stop_after_chunks,
            )
        else:
            _run_serial(
                pending,
                compressor,
                session,
                tracer,
                cfg,
                lag_default,
                use_ssim,
                verify,
                chunk_nz,
                checkpoint,
                fingerprint,
                completed,
                in_flight,
                notify,
                stop_after_chunks,
            )

        results = [completed[key] for _, _, _, key, _ in inventory]
        report = {
            "format": REPORT_FORMAT,
            "codec": codec,
            "codec_args": codec_args,
            "chunk_nz": chunk_nz,
            "max_lag": lag_default,
            "use_ssim": use_ssim,
            "fields": results,
            "totals": {
                "bundles": len(bundles),
                "fields": len(results),
                "chunks": sum(r["chunks"] for r in results),
                "bytes_streamed": sum(r["bytes_streamed"] for r in results),
            },
        }
        _write_report_atomic(report, out_path)
        checkpoint.delete()
        remove_parts(parts_dir)
        notify("done", {"out": str(out_path), "totals": report["totals"]})
        return report
    finally:
        if own_session:
            session.close(wait=True)


def _overlay_parts(parts_dir, fp_sha, completed, in_flight) -> None:
    """Fold leftover worker part files into the resume state.

    Parts may be *newer* than the last coordinator merge (a kill can
    land between a worker's save and the merge), so they win over the
    main checkpoint's entries.  Parts from a different fingerprint are
    ignored.
    """
    if not Path(parts_dir).is_dir():
        return
    for path in sorted(Path(parts_dir).glob("part-*.json")):
        try:
            doc = AuditCheckpoint(path).load()
        except DataIOError:
            continue
        if doc is None or doc.get("fingerprint_sha") != fp_sha:
            continue
        key = doc.get("key")
        if not key or key in completed:
            continue
        if doc.get("done"):
            completed[key] = doc["result"]
            in_flight.pop(key, None)
        else:
            in_flight[key] = {
                "key": key,
                "chunks_done": doc["chunks_done"],
                "bytes_streamed": doc["bytes_streamed"],
                "stream": doc["stream"],
            }


def _run_serial(
    pending,
    compressor,
    session,
    tracer,
    cfg,
    lag_default,
    use_ssim,
    verify,
    chunk_nz,
    checkpoint,
    fingerprint,
    completed,
    in_flight,
    notify,
    stop_after_chunks,
):
    """The single-process audit loop: one field at a time, checkpoint
    after every chunk.  ``in_flight`` states not yet consumed (left by a
    killed parallel run) ride along in every save so a later kill keeps
    their progress too."""

    def save_checkpoint(current: dict | None) -> None:
        payload = {
            "fingerprint": fingerprint,
            "completed": list(completed.values()),
            "in_progress": current,
        }
        if in_flight:
            payload["in_flight"] = in_flight
        checkpoint.save(payload)

    processed = 0
    for bundle, rel, field_name, key, n_chunks in pending:
        resume_state = in_flight.pop(key, None)

        def on_chunk(info, chunks_done, bytes_streamed, checker):
            nonlocal processed
            save_checkpoint(
                {
                    "key": key,
                    "chunks_done": chunks_done,
                    "bytes_streamed": bytes_streamed,
                    "stream": checker.state_dict(),
                }
            )
            processed += 1
            notify(
                "chunk",
                {
                    "key": key,
                    "chunk": chunks_done,
                    "of": n_chunks,
                    "bytes": bytes_streamed,
                },
            )
            if (
                stop_after_chunks is not None
                and processed >= stop_after_chunks
            ):
                raise AuditInterrupted(processed)

        result = _stream_field(
            bundle,
            rel,
            field_name,
            key,
            compressor,
            session,
            tracer,
            cfg,
            lag_default,
            use_ssim,
            verify,
            chunk_nz,
            resume_state,
            on_chunk,
        )
        completed[key] = result
        save_checkpoint(None)
        notify("field_done", {"key": key, "result": result})


def _ssim_config(bundle, field_name, cfg, use_ssim):
    """The streaming SSIM configuration for one field, or ``None``.

    Streaming SSIM needs the global dynamic range up front; only v2/v3
    manifests record it.  Degenerate (constant) fields and fields
    smaller than the window skip SSIM deterministically.
    """
    if not use_ssim:
        return None
    rng = bundle.value_range(field_name)
    if rng is None or rng[1] <= rng[0]:
        return None
    p3 = cfg.pattern3
    if min(bundle.shape) < p3.window:
        return None
    return replace(p3, dynamic_range=rng[1] - rng[0])


def _stream_field(
    bundle,
    rel,
    field_name,
    key,
    compressor,
    session,
    tracer,
    cfg,
    lag_default,
    use_ssim,
    verify,
    chunk_nz,
    resume_state,
    on_chunk,
):
    """Stream one field chunk-by-chunk into a fresh streaming checker.

    The shared core of the serial loop and every parallel worker — the
    same code path on the same bytes is what makes reports byte-identical
    across worker counts.  ``on_chunk(info, chunks_done, bytes_streamed,
    checker)`` runs after every chunk update (checkpointing lives there)
    and may raise :class:`AuditInterrupted`.
    """
    ny, nx = bundle.shape[1], bundle.shape[2]
    lag = max(0, min(lag_default, min(ny, nx) - 1))
    ssim_cfg = _ssim_config(bundle, field_name, cfg, use_ssim)
    checker = session.open_stream(
        (ny, nx),
        max_lag=lag,
        ssim=ssim_cfg,
        pwr_floor=cfg.pattern1.pwr_floor,
        tracer=tracer,
    )
    start = 0
    bytes_streamed = 0
    if resume_state is not None and resume_state.get("key") == key:
        checker.load_state(resume_state["stream"])
        start = int(resume_state["chunks_done"])
        bytes_streamed = int(resume_state["bytes_streamed"])

    chunk_table = bundle.field_chunks(field_name, chunk_nz)
    chunks = bundle.iter_field_chunks(
        field_name, chunk_nz=chunk_nz, verify=verify, start=start
    )
    with tracer.span(
        "audit_field",
        category="job",
        bundle=rel,
        field=field_name,
        chunks=len(chunk_table),
        resumed_at=start,
    ) as field_span, closing(chunks):
        for _ in range(start, len(chunk_table)):
            # chunk_read times only the generator step: seek + read,
            # inflate and digest verify
            with tracer.span(
                "chunk_read", category="chunk", bundle=rel, field=field_name
            ) as read_span:
                info, block = next(chunks)
                read_span.bytes = info.nbytes
                read_span.attrs.update(
                    stored_bytes=info.stored, chunk=info.index, z0=info.z0
                )
            with tracer.span(
                "codec_compress", category="codec", bytes=info.nbytes, chunk=info.index
            ):
                payload = compressor.compress(block)
            with tracer.span(
                "codec_decompress", category="codec", bytes=info.nbytes, chunk=info.index
            ):
                dec = compressor.decompress(payload)
            checker.update(block, dec)
            bytes_streamed += info.nbytes
            with tracer.span("checkpoint", category="checkpoint", chunk=info.index):
                on_chunk(info, info.index + 1, bytes_streamed, checker)
        field_span.attrs["bytes_streamed"] = bytes_streamed

    res = checker.finalize()
    scalars = {k: float(v) for k, v in res.scalars().items()}
    return {
        "key": key,
        "bundle": rel,
        "field": field_name,
        "shape": list(bundle.shape),
        "dtype": bundle.dtype,
        "chunks": len(chunk_table),
        "bytes_streamed": bytes_streamed,
        "scalars": scalars,
        "autocorrelation": (
            [float(v) for v in res.autocorrelation]
            if res.autocorrelation is not None
            else None
        ),
        "ssim": float(res.ssim) if res.ssim is not None else None,
    }
