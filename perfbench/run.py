#!/usr/bin/env python3
"""Benchmark of record for the cuZ-Checker reproduction.

One workload per run::

    python3 perfbench/run.py --workload assess-large --seed 1 --seconds 15 --trace 0

prints an info line and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Every workload in turn, both modes, with a summary table written to
``perfbench/results.json`` and each traced run's spans to
``.bench_spans/<workload>.json``::

    python3 perfbench/run.py --all --seed 1 --seconds 15

The command runs the work in a child process and outlives it, so that
every process the run started, orphans included, has ended before it
exits.  See ``perfbench/README.md`` for the workloads and metrics.
"""

import os
import time

#: set by the supervising process, so that set-up time counts from the
#: start of the command
CHILD_ENV = "PERFBENCH_T_START"
T_START = float(os.environ.get(CHILD_ENV) or time.monotonic())

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
for entry in (str(HERE), str(SRC)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import tracing  # noqa: E402

# a spawned pool worker re-imports this module: in a traced run it
# records its own spans from here on
tracing.install_in_worker()

WORKLOAD_NAMES = ("assess-large", "batch-small", "audit-archive", "serve-upload")

#: (name, unit) of the metrics a ``--trace 0`` run reports
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_mbps", "MB/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the metrics a ``--trace 1`` run reports; a layer a
#: workload does not reach reports 0
PER_LAYER = (
    ("kernels.pattern1.busy_s", "s"),
    ("kernels.pattern1.calls", "count"),
    ("kernels.pattern1.computed_gbps", "GB/s"),
    ("kernels.pattern2.busy_s", "s"),
    ("kernels.pattern2.calls", "count"),
    ("kernels.pattern2.computed_gbps", "GB/s"),
    ("kernels.pattern3.busy_s", "s"),
    ("kernels.pattern3.calls", "count"),
    ("kernels.pattern3.computed_gbps", "GB/s"),
    ("metrics.aux.busy_s", "s"),
    ("core.workspace.busy_s", "s"),
    ("core.streaming.update.busy_s", "s"),
    ("core.streaming.update.calls", "count"),
    ("engine.tiled_sweep.busy_s", "s"),
    ("engine.plan_cache_hit_ratio", "1"),
    ("engine.checker_cache_hit_ratio", "1"),
    ("engine.tiled_share", "1"),
    ("compressors.sz.compress.busy_s", "s"),
    ("compressors.sz.compress.mbps", "MB/s"),
    ("compressors.sz.decompress.busy_s", "s"),
    ("compressors.sz.decompress.mbps", "MB/s"),
    ("io.bundle.read.busy_s", "s"),
    ("io.bundle.stored_bytes", "bytes"),
    ("io.bundle.raw_bytes", "bytes"),
    ("audit.checkpoint.save.busy_s", "s"),
    ("audit.checkpoint.save.calls", "count"),
    ("audit.checkpoint.save.bytes", "bytes"),
    ("audit.workers", "count"),
    ("parallel.executor.workers", "count"),
    ("parallel.executor.process_share", "1"),
    ("parallel.shm.publish_s", "s"),
    ("parallel.shm.bytes", "bytes"),
    ("parallel.pool_wait_s", "s"),
    ("parallel.task_overhead_s", "s"),
    ("service.assess.busy_s", "s"),
    ("service.assess.calls", "count"),
    ("server.queue_wait_s", "s"),
    ("server.run_s", "s"),
    ("server.post_s", "s"),
    ("server.read_p50_s", "s"),
    ("server.rejected", "count"),
    ("server.jobs_retained", "count"),
    ("load.generator_late_s", "s"),
    ("telemetry.overhead_ratio", "1"),
    ("telemetry.unaccounted_ratio", "1"),
)


def _hermetic_env(tmp: Path, trace: bool) -> None:
    """Fresh caches and temp files for this run only, inside ``tmp``: the
    program's calibration table lives under ``XDG_CACHE_HOME`` and would
    otherwise carry state from run to run."""
    for sub in ("cache", "tmp"):
        (tmp / sub).mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(tmp / "cache")
    os.environ["TMPDIR"] = str(tmp / "tmp")
    tempfile.tempdir = None
    if trace:
        spool = tmp / "spool"
        spool.mkdir()
        os.environ[tracing.SPOOL_ENV] = str(spool)


def _per_layer(phase, plain, spans: list[dict], wall: float):
    """Every per-layer metric of one traced phase, and the layer table."""
    table = tracing.layer_table(spans)
    served = phase.layers.get("served", {})
    out = {name: 0.0 for name, _ in PER_LAYER}

    def row(layer):
        return table.get(layer, {"busy_s": 0.0, "calls": 0, "bytes": 0, "aux": []})

    def busy(layer):
        return served.get("busy", {}).get(layer, row(layer)["busy_s"])

    def calls(layer):
        return served.get("calls", {}).get(layer, row(layer)["calls"])

    def nbytes(layer):
        return served.get("bytes", {}).get(layer, row(layer)["bytes"])

    def rate(layer, unit):
        b = busy(layer)
        return nbytes(layer) / unit / b if b > 0 else 0.0

    for p in (1, 2, 3):
        layer = f"kernels.pattern{p}"
        out[f"{layer}.busy_s"] = busy(layer)
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.computed_gbps"] = rate(layer, 1e9)
    out["metrics.aux.busy_s"] = busy("metrics.aux")
    out["core.workspace.busy_s"] = busy("core.workspace")
    out["core.streaming.update.busy_s"] = busy("core.streaming.update")
    out["core.streaming.update.calls"] = calls("core.streaming.update")
    out["engine.tiled_sweep.busy_s"] = busy("engine.tiled_sweep")
    tiled = row("engine.begin")["aux"]
    out["engine.tiled_share"] = sum(tiled) / len(tiled) if tiled else 0.0
    for op in ("compress", "decompress"):
        layer = f"compressors.sz.{op}"
        out[f"{layer}.busy_s"] = busy(layer)
        out[f"{layer}.mbps"] = rate(layer, 1e6)
    out["io.bundle.read.busy_s"] = busy("io.bundle.read")
    out["io.bundle.stored_bytes"] = sum(row("io.bundle.read")["aux"])
    out["io.bundle.raw_bytes"] = nbytes("io.bundle.read")
    out["audit.checkpoint.save.busy_s"] = busy("audit.checkpoint.save")
    out["audit.checkpoint.save.calls"] = calls("audit.checkpoint.save")
    out["audit.checkpoint.save.bytes"] = nbytes("audit.checkpoint.save")
    out["audit.workers"] = max(row("audit.resolve_workers")["aux"], default=0)
    out["parallel.executor.workers"] = max(row("parallel.workers")["aux"], default=0)
    kinds = row("parallel.resolve_executor")["aux"]
    out["parallel.executor.process_share"] = (
        kinds.count("process") / len(kinds) if kinds else 0.0
    )
    out["parallel.shm.publish_s"] = busy("parallel.shm.publish")
    out["parallel.shm.bytes"] = nbytes("parallel.shm.publish")
    out["parallel.pool_wait_s"] = busy("parallel.pool_wait")
    # worker-seconds the pool held that no worker spent assessing
    held = sum(
        (s["t1"] - s["t0"]) * s["aux"] for s in spans
        if s["layer"] == "parallel.pool_wait" and s["aux"]
    )
    out["parallel.task_overhead_s"] = (
        max(0.0, held - busy("parallel.worker_job")) if held else 0.0
    )
    out["service.assess.busy_s"] = busy("service.assess")
    out["service.assess.calls"] = calls("service.assess")
    for name, value in phase.layers.items():
        if name in out:
            out[name] = value
    traced_mbps = phase.nbytes / wall if wall > 0 else 0.0
    plain_mbps = plain.nbytes / plain.wall if plain.wall > 0 else 0.0
    out["telemetry.overhead_ratio"] = (
        plain_mbps / traced_mbps if traced_mbps > 0 else 0.0
    )
    if "telemetry.unaccounted_ratio" not in phase.layers:
        out["telemetry.unaccounted_ratio"] = tracing.unaccounted_ratio(
            spans, os.getpid(), wall
        )
    return out, table


def run_one(args, tmp: Path) -> int:
    from harness import Ledger, Result, cpu_ticks, host_fingerprint, median, tail

    _hermetic_env(tmp, args.trace)
    import numpy  # noqa: F401
    import repro.service.session  # noqa: F401 — part of the set-up time

    import_s = time.monotonic() - T_START
    from workloads import WORKLOADS

    if args.trace:
        tracing.install()
    wl = WORKLOADS[args.workload](args.seed, tmp)
    wl.make_inputs()
    ledger = Ledger()
    setup_times = []
    spool = os.environ.get(tracing.SPOOL_ENV)
    try:
        for rep in range(wl.setup_reps):
            if rep:
                wl.release()
            start = tracing.now()
            wl.setup()
            setup_times.append(tracing.now() - start)
        wl.prepare_checks()
        wl.reset_peak()
        ticks0 = cpu_ticks()
        plain = wl.measure(args.seconds)
        phase = plain
        if args.trace:
            tracing.RECORDER.enabled = True
            phase = wl.measure(args.seconds)
            tracing.RECORDER.enabled = False
        ticks1 = cpu_ticks()
        rss_mb = wl.peak_rss_mb()
        wl.check(plain, ledger)
        if phase is not plain:
            wl.check(phase, ledger)
    finally:
        wl.release()

    result = Result(ledger)
    latencies = phase.latencies or [phase.wall]
    lat_tail = tail(latencies)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "host": host_fingerprint(),
        "import_s": import_s,
        "setup_reps_s": setup_times,
        "operations": len(phase.latencies),
        "tail": {"percentile": lat_tail.percentile, "beyond": lat_tail.beyond,
                 "samples": lat_tail.samples, "supported": lat_tail.supported},
        "failed_ratio": ledger.failed_ratio,
        "failures": ledger.reasons,
        "steal_share": (ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1]),
        **phase.info,
    }
    if args.trace:
        spans = tracing.RECORDER.export()
        if spool:
            spans += tracing.read_spool(spool)
        spans = tracing.in_window(spans, phase.t0, phase.t1)
        if args.spans:
            tracing.write_chrome_trace(spans, args.spans)
        values, table = _per_layer(phase, plain, spans, phase.wall)
        for name, unit in PER_LAYER:
            result.add(name, values[name], unit)
        info["layers"] = {
            layer: {k: v for k, v in row.items() if k != "aux"}
            for layer, row in sorted(table.items())
        }
        info["traced_wall_s"] = phase.wall
        info["roofline"] = roofline_note(wl, info["host"]["l3"])
    else:
        values = {
            "setup_s": import_s + median(setup_times),
            "throughput_mbps": phase.nbytes / 1e6 / phase.wall,
            "latency_p50_s": median(latencies),
            "latency_tail_s": lat_tail.value,
            "peak_rss_mb": rss_mb,
        }
        for name, unit in END_TO_END:
            result.add(name, values[name], unit)
    print(json.dumps({"perfbench": info}, default=str))
    print(result.line(), flush=True)
    return 0


def roofline_note(wl, l3) -> dict:
    """What the per-kernel GB/s figures are, and the host roofs they sit
    under (``repro.gpusim.roofline``)."""
    from repro.gpusim.roofline import DEFAULT_HOST_ROOF

    sizes = sorted({
        int(o.nbytes) for _, o, _ in getattr(wl, "pairs", [])
    })
    return {
        "computed_gbps": "orig+dec bytes handed to the kernel / busy time; "
        "computed, not measured DRAM bandwidth",
        "why_not_measured": "fields of 4x the last-level cache do not fit: an "
        "assessment needs ~20x the field in RAM",
        "l3": l3,
        "field_bytes": sizes,
        "host_stream_roof_gbps": DEFAULT_HOST_ROOF.stream_bandwidth / 1e9,
        "host_cache_roof_gbps": DEFAULT_HOST_ROOF.cache_bandwidth / 1e9,
    }


def run_all(args) -> int:
    """Every workload, untraced then traced, in fresh processes."""
    results = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    # each run supervises itself and times its own set-up
    env = {k: v for k, v in os.environ.items() if k != CHILD_ENV}
    for name in WORKLOAD_NAMES:
        entry = results["workloads"][name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            if trace:
                cmd += ["--spans", str(ROOT / ".bench_spans" / f"{name}.json")]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=900, cwd=ROOT, env=env)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                status = 1
                continue
            info = json.loads(lines[-2])["perfbench"]
            res = json.loads(lines[-1])
            key = "per_layer" if trace else "end_to_end"
            entry[key] = res["metrics"]
            entry[f"{key}_info"] = info
            entry.setdefault("checks", []).append(
                {"trace": trace, "correct": res["correct"],
                 "attempted": res["attempted"], "failed": res["failed"],
                 "failed_ratio": info["failed_ratio"]}
            )
            results["host"] = info["host"]
    for name, entry in results["workloads"].items():
        print(f"\n{name}")
        for check in entry.get("checks", []):
            print(f"  {'failed_ratio':34s} {check['failed_ratio']:>14.6g} 1"
                  f"   (trace={check['trace']}, {check['failed']}"
                  f"/{check['attempted']} failed)")
        for key in ("end_to_end", "per_layer"):
            for metric, m in entry.get(key, {}).items():
                print(f"  {metric:34s} {m['value']:>14.6g} {m['unit']}")
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {out}")
    return status


def _exit_on_signal(signum, _frame):
    # unwinds through the ``finally`` blocks that release the workload
    raise SystemExit(128 + signum)


def supervise(argv: list[str]) -> int:
    """Run this command again as a child and return its exit code once it,
    and every process left behind by it, has ended."""
    from harness import adopt_orphans, end_children

    adopt_orphans()
    env = dict(os.environ, **{CHILD_ENV: repr(T_START)})
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *argv],
                            env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        killed = end_children()
        if killed:
            print(f"perfbench: killed leftover processes {killed}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "results.json"),
                        help="summary file of --all")
    parser.add_argument("--spans", help="with --trace 1: write the traced "
                        "phase's spans to this chrome-trace file")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _exit_on_signal)
    if CHILD_ENV not in os.environ:
        return supervise(sys.argv[1:] if argv is None else argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        return run_one(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
