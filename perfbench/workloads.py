"""The four workloads: inputs, set-up, timed phase and output checks.

Every workload makes its inputs from the seed before anything is timed,
sets up the program the way a user would (session, pools, one warm-up
operation per distinct input shape), runs a timed phase, and checks
every output it timed.  Which layer each workload stresses, and why, is
in ``perfbench/README.md``.
"""

from __future__ import annotations

import base64
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from harness import (
    MB,
    Ledger,
    classify_job,
    median,
    peak_rss_mb,
    pool_children,
    reset_hwm,
    vm_hwm_bytes,
)
from tracing import now

#: relative tolerance of the reference checks (float64 sums reduced in a
#: different order, tiled against whole-array)
REL_TOL = 1e-9


@dataclass
class Phase:
    """One timed phase: per-operation latencies and what they moved."""

    latencies: list[float] = field(default_factory=list)
    nbytes: int = 0
    t0: float = 0.0
    t1: float = 0.0
    outputs: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


def closed_loop(op, seconds: float, multiple: int = 1) -> Phase:
    """Run ``op(i) -> (output, nbytes)`` back to back for ``seconds``,
    finishing a whole number of ``multiple``-operation rounds."""
    phase = Phase(t0=now())
    i = 0
    while now() - phase.t0 < seconds or i % multiple:
        tracing.RECORDER.job = i
        start = now()
        try:
            out, nbytes = op(i)
        except Exception as exc:  # noqa: BLE001 — a failed op is a result
            out, nbytes = ("exception", f"{type(exc).__name__}: {exc}"), 0
        phase.latencies.append(now() - start)
        phase.outputs.append(out)
        phase.nbytes += nbytes
        i += 1
    phase.t1 = now()
    tracing.RECORDER.job = None
    return phase


# -- inputs ----------------------------------------------------------------


def sz_reconstruction(data: np.ndarray, rel_bound: float = 1e-3) -> np.ndarray:
    """What ``SZCompressor(rel_bound=...)`` decompresses ``data`` to.

    SZ's Lorenzo prediction, outlier list and Huffman stage are lossless
    on the pre-quantised integer lattice, so its reconstruction is the
    dequantised lattice itself.  This reproduces the compressor's bound
    arithmetic exactly without the entropy coder (the self-tests check
    bit-identity against the real codec).
    """
    from repro.compressors.quantizer import (
        dequantize,
        prequantize,
        resolve_error_bound,
    )

    eb = resolve_error_bound(data, None, rel_bound)
    maxabs = float(np.abs(data).max())
    ulp = float(np.spacing(np.float32(maxabs))) if maxabs > 0 else 0.0
    eb_q = max(eb * (1.0 - 1e-9) - ulp, eb * 0.5)
    return dequantize(prequantize(data, eb_q), eb_q).astype(data.dtype)


def make_field(rng, dataset: str, field_name: str, shape, dtype="float32"):
    from repro.datasets.registry import generate_field

    seed = int(rng.integers(0, 2**31 - 1))
    data = generate_field(dataset, field_name, shape=tuple(shape), seed=seed).data
    return np.ascontiguousarray(data, dtype=dtype)


#: datasets and fields mixed into the small-field workloads
MIXED = (
    ("hurricane", "CLOUDf48"), ("miranda", "density"),
    ("nyx", "baryon_density"), ("scale_letkf", "U"),
    ("hurricane", "Pf48"), ("miranda", "pressure"),
    ("nyx", "velocity_x"), ("scale_letkf", "T"),
)


def mixed_pairs(rng, n: int, shape) -> list[tuple[str, np.ndarray, np.ndarray]]:
    pairs = []
    for i in range(n):
        dataset, field_name = MIXED[i % len(MIXED)]
        orig = make_field(rng, dataset, field_name, shape)
        pairs.append((f"p{i:02d}-{dataset}-{field_name}", orig,
                      sz_reconstruction(orig)))
    return pairs


# -- checks ----------------------------------------------------------------


def canonical(report_dict: dict) -> str:
    """A report as compared across runs and paths: no modelled timings,
    no wall-clock throughput keys."""
    out = {k: v for k, v in report_dict.items() if k != "timings"}
    if "metrics" in out:
        out["metrics"] = {
            k: v for k, v in out["metrics"].items()
            if not k.endswith("_throughput")
        }
    return json.dumps(out, sort_keys=True)


def _close(a: float, b: float, rel: float = REL_TOL, scale: float = 0.0) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


def reference_values(orig: np.ndarray, dec: np.ndarray, config) -> dict:
    """Pattern-1 scalars from plain float64 NumPy, SSIM and the auxiliary
    metrics from the references in :mod:`repro.metrics`."""
    from repro.metrics import (
        SsimConfig,
        data_properties,
        pearson,
        spectral_comparison,
        ssim3d,
    )

    o = orig.astype(np.float64)
    d = dec.astype(np.float64)
    e = d - o
    mse = float(np.mean(e * e))
    vrange = float(o.max() - o.min())
    mask = np.abs(o) > config.pattern1.pwr_floor
    rel = e[mask] / o[mask]
    p3 = config.pattern3
    ssim = ssim3d(orig, dec, SsimConfig(
        window=p3.window, step=p3.step, k1=p3.k1, k2=p3.k2,
        dynamic_range=p3.dynamic_range,
    ))
    props = data_properties(orig)
    spec = spectral_comparison(orig, dec)
    return {
        "min_err": float(e.min()),
        "max_err": float(e.max()),
        "avg_err": float(e.mean()),
        "min_pwr_err": float(rel.min()),
        "max_pwr_err": float(rel.max()),
        "avg_pwr_err": float(rel.mean()),
        "mse": mse,
        "rmse": mse ** 0.5,
        "value_range": vrange,
        "nrmse": mse ** 0.5 / vrange,
        "psnr": 20 * np.log10(vrange) - 10 * np.log10(mse),
        "snr": 10 * np.log10(float(o.var()) / mse),
        "ssim": ssim.ssim,
        "pearson": pearson(orig, dec),
        "entropy": props.entropy,
        "mean": props.mean,
        "std": props.std,
        "spectral_mean_rel_err": spec.mean_rel_err,
        "spectral_noise_frequency": spec.noise_frequency,
    }


def reference_mismatch(scalars: dict, ref: dict) -> str | None:
    """The first metric whose value is off its reference, or ``None``.
    Means are compared against the error's magnitude, since they sit
    near zero."""
    err_scale = max(abs(ref["min_err"]), abs(ref["max_err"]))
    pwr_scale = max(abs(ref["min_pwr_err"]), abs(ref["max_pwr_err"]))
    scales = {"avg_err": err_scale, "avg_pwr_err": pwr_scale}
    for name, want in ref.items():
        got = scalars.get(name)
        if got is None or not _close(got, float(want), scale=scales.get(name, 0.0)):
            return name
    return None


# -- in-process workloads --------------------------------------------------


class Workload:
    """Template: subclasses fill in inputs, set-up, the phase and checks."""

    name = ""
    setup_reps = 3

    def __init__(self, seed: int, tmp: Path):
        self.tmp = tmp
        self.rng = np.random.default_rng(seed)
        self.session = None

    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def release(self) -> None:
        if self.session is not None:
            self.session.close(wait=True)
            self.session = None

    def prepare_checks(self) -> None:
        pass

    def run_phase(self, seconds: float) -> Phase:
        raise NotImplementedError

    def check(self, phase: Phase, ledger: Ledger) -> None:
        raise NotImplementedError

    def reset_peak(self) -> None:
        for pid in ["self", *pool_children()]:
            reset_hwm(pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def _stats(self) -> dict:
        return self.session.stats() if self.session is not None else {}

    def _open_session(self):
        from repro.service.session import CheckerSession

        self.session = CheckerSession().open()
        return self.session

    def measure(self, seconds: float) -> Phase:
        before = self._stats()
        phase = self.run_phase(seconds)
        after = self._stats()
        phase.layers.update(cache_ratios(before, after))
        return phase


def cache_ratios(before: dict, after: dict) -> dict:
    def ratio(prefix):
        hits = after.get(f"{prefix}_hits", 0) - before.get(f"{prefix}_hits", 0)
        miss = after.get(f"{prefix}_misses", 0) - before.get(f"{prefix}_misses", 0)
        return hits / (hits + miss) if hits + miss else 0.0

    return {
        "engine.plan_cache_hit_ratio": ratio("plan_cache"),
        "engine.checker_cache_hit_ratio": ratio("checker_cache"),
    }


class AssessLarge(Workload):
    """Closed loop, one client, ``CheckerSession.assess`` on three large
    SZ(rel 1e-3) pairs from different data classes."""

    name = "assess-large"
    setup_reps = 2
    SPECS = (
        ("hurricane", "CLOUDf48", (64, 256, 256), "float32"),
        ("miranda", "density", (96, 192, 192), "float32"),
        ("nyx", "baryon_density", (64, 192, 192), "float64"),
    )

    def make_inputs(self) -> None:
        self.pairs = []
        for dataset, field_name, shape, dtype in self.SPECS:
            orig = make_field(self.rng, dataset, field_name, shape, dtype)
            self.pairs.append((f"{dataset}-{field_name}", orig,
                               sz_reconstruction(orig)))
        self.warm: dict[str, str] = {}

    def setup(self) -> None:
        session = self._open_session()
        for label, orig, dec in self.pairs:
            self.warm[label] = canonical(session.assess(orig, dec).to_dict())

    def prepare_checks(self) -> None:
        config = self.session.config
        self.refs = {
            label: reference_values(orig, dec, config)
            for label, orig, dec in self.pairs
        }

    def run_phase(self, seconds: float) -> Phase:
        def op(i):
            label, orig, dec = self.pairs[i % len(self.pairs)]
            report = self.session.assess(orig, dec)
            return (label, report), orig.nbytes + dec.nbytes

        return closed_loop(op, seconds, multiple=len(self.pairs))

    def check(self, phase: Phase, ledger: Ledger) -> None:
        for out in phase.outputs:
            label, report = out
            if label == "exception":
                ledger.fail("exception")
                continue
            bad = reference_mismatch(report.scalars(), self.refs[label])
            if bad is not None:
                ledger.fail(f"reference:{bad}")
            elif canonical(report.to_dict()) != self.warm[label]:
                ledger.fail("not_repeatable")
            else:
                ledger.ok()


class BatchSmall(Workload):
    """Closed loop, one client, ``CheckerSession.compare_pairs`` over 48
    small pairs with ``executor="auto"`` (the session default is threads)."""

    name = "batch-small"
    N_PAIRS = 48
    SHAPE = (16, 80, 80)

    def make_inputs(self) -> None:
        self.pairs = mixed_pairs(self.rng, self.N_PAIRS, self.SHAPE)
        self.pair_bytes = sum(o.nbytes + d.nbytes for _, o, d in self.pairs)

    def setup(self) -> None:
        self._open_session().compare_pairs(self.pairs, executor="auto")

    def prepare_checks(self) -> None:
        self.refs = {
            name: canonical(self.session.assess(o, d).to_dict())
            for name, o, d in self.pairs
        }

    def run_phase(self, seconds: float) -> Phase:
        def op(i):
            return (self.session.compare_pairs(self.pairs, executor="auto"),
                    self.pair_bytes)

        return closed_loop(op, seconds)

    def check(self, phase: Phase, ledger: Ledger) -> None:
        for batch in phase.outputs:
            if isinstance(batch, tuple):
                ledger.fail("exception")
            elif batch.errors:
                ledger.fail("pair_error")
            elif list(batch.reports) != list(self.refs) or any(
                canonical(batch.reports[name].to_dict()) != ref
                for name, ref in self.refs.items()
            ):
                ledger.fail("report_mismatch")
            else:
                ledger.ok()


class AuditArchive(Workload):
    """``run_audit`` over eight single-field chunked-v3 zlib bundles with
    the default SZ codec and ``workers="auto"``; one operation is one
    audited field, its latency the time from the audit call to the
    field's ``field_done`` progress event."""

    name = "audit-archive"
    SHAPE = (64, 64, 64)
    CHUNK_NZ = 16
    FIELDS = MIXED

    def _write_bundle(self, root: Path, dataset: str, field_name: str) -> int:
        from repro.datasets.fields import Dataset, Field
        from repro.io.bundle import save_bundle_chunked

        ds = Dataset(name=dataset, description="benchmark input")
        ds.add(Field(name=field_name,
                     data=make_field(self.rng, dataset, field_name, self.SHAPE)))
        save_bundle_chunked(ds, root / f"{dataset}-{field_name}",
                            chunk_nz=self.CHUNK_NZ, dtype="float32", codec="zlib")
        return int(np.prod(self.SHAPE)) * 4

    def make_inputs(self) -> None:
        self.archive = self.tmp / "archive"
        self.warm_tree = self.tmp / "warm"
        self.field_bytes = [
            self._write_bundle(self.archive, ds, f) for ds, f in self.FIELDS
        ]
        for ds, f in self.FIELDS[:2]:
            self._write_bundle(self.warm_tree, ds, f)
        self.report_path = self.tmp / "audit_report.json"

    def _audit(self, root, out, workers, progress=None) -> dict:
        from repro.audit.runner import run_audit

        return run_audit(root, out_path=out, workers=workers, resume=False,
                         session=self.session, progress=progress)

    def setup(self) -> None:
        from repro.audit.runner import resolve_audit_workers
        from repro.parallel.executor import warm_process_pool

        self._open_session()
        fields = len(self.field_bytes)
        chunk = self.field_bytes[0] * self.CHUNK_NZ // self.SHAPE[0]
        workers = resolve_audit_workers("auto", fields, self.field_bytes[0], chunk)
        if workers > 1:
            warm_process_pool(workers)
        self._audit(self.warm_tree, self.tmp / "warm_report.json", "auto")

    def prepare_checks(self) -> None:
        ref_path = self.tmp / "serial_report.json"
        self._audit(self.archive, ref_path, "serial")
        self.ref_bytes = ref_path.read_bytes()
        self.ref_fields = {
            f["key"]: json.dumps(f, sort_keys=True)
            for f in json.loads(self.ref_bytes)["fields"]
        }

    def run_phase(self, seconds: float) -> Phase:
        phase = Phase(t0=now())
        i = 0
        while now() - phase.t0 < seconds:
            events: list[tuple[float, dict]] = []
            tracing.RECORDER.job = i
            start = now()
            try:
                self._audit(
                    self.archive, self.report_path, "auto",
                    progress=lambda ev, payload: (
                        events.append((now(), payload)) if ev == "field_done"
                        else None
                    ),
                )
                report = self.report_path.read_bytes()
            except Exception as exc:  # noqa: BLE001 — a failed op is a result
                report = f"{type(exc).__name__}: {exc}".encode()
            # every field of the tree is requested when the audit starts
            phase.latencies.extend(t - start for t, _ in events)
            phase.outputs.append((report, [p["key"] for _, p in events]))
            phase.nbytes += 2 * sum(self.field_bytes)
            i += 1
        phase.t1 = now()
        tracing.RECORDER.job = None
        return phase

    def check(self, phase: Phase, ledger: Ledger) -> None:
        for report, keys in phase.outputs:
            try:
                fields = {
                    f["key"]: json.dumps(f, sort_keys=True)
                    for f in json.loads(report)["fields"]
                }
            except (ValueError, KeyError, TypeError):
                fields = {}
            for key, ref in self.ref_fields.items():
                if key not in keys:
                    ledger.fail("field_not_reported")
                elif fields.get(key) != ref or report != self.ref_bytes:
                    ledger.fail("report_mismatch")
                else:
                    ledger.ok()


# -- served workload -------------------------------------------------------


def _http(url: str, body: bytes | None = None, timeout: float = 30.0):
    """``(status, parsed JSON or None)``; status ``None`` when the
    connection itself failed."""
    req = urllib.request.Request(
        url, data=body, method="POST" if body is not None else "GET",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        try:
            payload = json.loads(err.read())
        except ValueError:
            payload = None
        return err.code, payload
    except (OSError, ValueError):
        return None, None


def _npy_b64(a: np.ndarray) -> str:
    buf = io.BytesIO()
    np.save(buf, a, allow_pickle=False)
    return base64.b64encode(buf.getvalue()).decode()


class ServeUpload(Workload):
    """``cuzchecker serve`` in a subprocess; one thread submits base64
    ``.npy`` upload jobs in an open loop, another polls ``GET /jobs``."""

    name = "serve-upload"
    SHAPE = (32, 64, 64)
    N_DISTINCT = 16
    #: open-loop arrival rate: about half the closed-loop capacity of the
    #: seed commit (12.3 jobs/s with two clients on a 2-core host)
    RATE = 6.0
    READ_PERIOD = 0.25
    DRAIN_S = 30.0
    BOOT_S = 60.0

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.proc = None
        self.base = None
        self.boots = 0

    def make_inputs(self) -> None:
        self.pairs = mixed_pairs(self.rng, self.N_DISTINCT, self.SHAPE)
        self.bodies = [
            json.dumps({
                "original_npy_b64": _npy_b64(o),
                "decompressed_npy_b64": _npy_b64(d),
                "tenant": "bench",
            }).encode()
            for _, o, d in self.pairs
        ]
        self.pair_bytes = [o.nbytes + d.nbytes for _, o, d in self.pairs]

    def setup(self) -> None:
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        self.boots += 1
        self.log = open(self.tmp / f"server-{self.boots}.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=self.log, text=True, env=env,
        )
        deadline = now() + self.BOOT_S
        while self.base is None and now() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            m = re.search(r"serving on (http://\S+)", line)
            if m:
                self.base = m.group(1)
        if self.base is None:
            raise RuntimeError("server did not report its address")
        status, _ = _http(f"{self.base}/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        status, job = _http(f"{self.base}/jobs", self.bodies[0])
        if status != 202 or not self._wait_done([job["id"]], now() + self.BOOT_S):
            raise RuntimeError("warm-up job did not finish")

    def _wait_done(self, ids, deadline) -> bool:
        pending = set(ids)
        while pending and now() < deadline:
            status, listing = _http(f"{self.base}/jobs")
            if status == 200:
                pending -= {
                    j["id"] for j in listing["jobs"]
                    if j["status"] in ("done", "failed")
                }
            if pending:
                time.sleep(0.05)
        return not pending

    def release(self) -> None:
        if self.proc is not None:
            if self.base is not None:
                _http(f"{self.base}/shutdown", b"{}")
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
            self.proc.stdout.close()
            self.log.close()
        self.proc = None
        self.base = None
        super().release()

    def prepare_checks(self) -> None:
        session = self._open_session()
        self.refs = [
            canonical(session.assess(o, d).to_dict()) for _, o, d in self.pairs
        ]
        session.close(wait=True)
        self.session = None

    def reset_peak(self) -> None:
        reset_hwm(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return vm_hwm_bytes(self.proc.pid) / MB

    def _stats(self) -> dict:
        status, payload = _http(f"{self.base}/metrics")
        return payload if status == 200 else {}

    def measure(self, seconds: float) -> Phase:
        before = self._stats()
        phase = self.run_phase(seconds)
        after = self._stats()
        phase.layers.update(cache_ratios(before.get("session", {}),
                                         after.get("session", {})))
        phase.layers["server.rejected"] = (
            after.get("server", {}).get("jobs_rejected", 0)
            - before.get("server", {}).get("jobs_rejected", 0)
        )
        return phase

    def run_phase(self, seconds: float) -> Phase:
        n_jobs = max(1, int(round(seconds * self.RATE)))
        sent: list[dict] = []
        reads: list[float] = []
        done = threading.Event()
        t0 = now()
        wall0 = time.time() - (now() - t0)

        def generate():
            for k in range(n_jobs):
                due = t0 + k / self.RATE
                delay = due - now()
                if delay > 0:
                    time.sleep(delay)
                idx = k % len(self.bodies)
                start = now()
                status, payload = _http(f"{self.base}/jobs", self.bodies[idx])
                sent.append({
                    "idx": idx,
                    "due_wall": wall0 + (due - t0),
                    "late_s": start - due,
                    "post_s": now() - start,
                    "status": status,
                    "id": (payload or {}).get("id") if status == 202 else None,
                })
            done.set()

        def read():
            while not done.is_set():
                start = now()
                status, _ = _http(f"{self.base}/jobs")
                if status == 200:
                    reads.append(now() - start)
                done.wait(self.READ_PERIOD)

        threads = [threading.Thread(target=generate), threading.Thread(target=read)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = [s["id"] for s in sent if s["id"]]
        deadline = now() + self.DRAIN_S
        drained = self._wait_done(ids, deadline)

        jobs = {}
        for job_id in ids:
            status, job = _http(f"{self.base}/jobs/{job_id}")
            if status == 200:
                jobs[job_id] = job
        phase = Phase(t0=t0)
        finished = []
        for s in sent:
            job = jobs.get(s["id"]) if s["id"] else None
            if job and job.get("status") == "done":
                phase.latencies.append(job["finished_at"] - s["due_wall"])
                phase.nbytes += self.pair_bytes[s["idx"]]
                finished.append(job["finished_at"])
            phase.outputs.append((s, job, not drained))
        last = max(finished) if finished else time.time()
        phase.t1 = t0 + (last - wall0)

        status, listing = _http(f"{self.base}/jobs")
        runs = [j for j in jobs.values() if j.get("started_at") and j.get("finished_at")]
        # the client only waits; the server's share of the phase is the
        # time it spent running jobs
        busy = tracing.union_length((j["started_at"], j["finished_at"]) for j in runs)
        phase.layers.update({
            "server.queue_wait_s": median(j["started_at"] - j["submitted_at"] for j in runs),
            "server.run_s": median(j["finished_at"] - j["started_at"] for j in runs),
            "server.post_s": median(s["post_s"] for s in sent),
            "server.read_p50_s": median(reads),
            "server.jobs_retained": len(listing["jobs"]) if status == 200 else 0,
            "load.generator_late_s": max((s["late_s"] for s in sent), default=0.0),
            "telemetry.unaccounted_ratio": max(0.0, 1.0 - busy / phase.wall),
        })
        phase.info.update({
            "rate_jobs_per_s": self.RATE,
            "jobs_sent": len(sent),
            "generator_late_p50_s": median(s["late_s"] for s in sent),
            "generator_late_max_s": max((s["late_s"] for s in sent), default=0.0),
            "reads": len(reads),
        })
        if tracing.RECORDER.enabled:
            phase.layers.update(self._server_layers(ids))
        return phase

    def _server_layers(self, ids) -> dict:
        """Kernel and session time of the served jobs, read off each job's
        own trace feed (``GET /jobs/<id>/trace``)."""
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        nbytes: dict[str, int] = {}
        pattern_layer = {1: "kernels.pattern1", 2: "kernels.pattern2",
                         3: "kernels.pattern3", "aux": "metrics.aux"}
        job_bytes = self.pair_bytes[0]
        for job_id in ids:
            status, payload = _http(f"{self.base}/jobs/{job_id}/trace")
            if status != 200:
                continue
            for ev in payload["traceEvents"]:
                if ev.get("ph") != "X":
                    continue
                if ev.get("cat") == "job":
                    layer = "service.assess"
                elif ev.get("cat") == "kernel":
                    layer = pattern_layer.get(ev.get("args", {}).get("pattern"))
                else:
                    layer = None
                if layer is None:
                    continue
                busy[layer] = busy.get(layer, 0.0) + float(ev["dur"]) / 1e6
                calls[layer] = calls.get(layer, 0) + 1
                nbytes[layer] = nbytes.get(layer, 0) + job_bytes
        return {"served": {"busy": busy, "calls": calls, "bytes": nbytes}}

    def check(self, phase: Phase, ledger: Ledger) -> None:
        for s, job, deadline_passed in phase.outputs:
            matches = None
            if job is not None and job.get("status") == "done":
                matches = canonical(job["report"]) == self.refs[s["idx"]]
            ledger.record(classify_job(s["status"], job, deadline_passed, matches))


WORKLOADS = {
    w.name: w for w in (AssessLarge, BatchSmall, AuditArchive, ServeUpload)
}
