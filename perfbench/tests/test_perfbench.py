"""Self-tests of the benchmark's own logic.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from harness import Ledger, classify_job, tail, valid_name  # noqa: E402

UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- tail percentile rule ---------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    samples = list(range(1, 51))  # 50 samples, 1..50
    t = tail(samples)
    assert t.value == 40
    assert t.beyond == 10
    assert t.percentile == 80.0
    assert t.samples == 50
    assert t.supported
    assert sum(1 for s in samples if s > t.value) == 10


def test_tail_at_twenty_one_samples_sits_above_the_median():
    t = tail(range(21, 0, -1))
    assert (t.value, t.beyond, t.supported) == (11, 10, True)
    assert t.percentile == pytest.approx(100 * 11 / 21, abs=0.01)


def test_tail_below_twenty_one_samples_is_the_median():
    t = tail([4.0, 1.0, 2.0, 3.0])
    assert (t.value, t.percentile, t.beyond, t.supported) == (2.5, 50.0, 2, False)
    t = tail(range(20))
    assert (t.value, t.beyond, t.supported) == (9.5, 10, True)


def test_tail_of_nothing_raises():
    with pytest.raises(ValueError):
        tail([])


# -- failure accounting -------------------------------------------------------


DONE = {"status": "done"}


@pytest.mark.parametrize(
    "post, job, deadline, matches, reason",
    [
        (202, DONE, False, True, None),
        (429, None, False, None, "http_429"),
        (503, None, False, None, "http_5xx"),
        (None, None, False, None, "connection"),
        (202, {"status": "failed"}, False, None, "job_failed"),
        (202, DONE, False, False, "report_mismatch"),
        (202, {"status": "running"}, True, None, "deadline"),
        (202, {"status": "queued"}, True, None, "deadline"),
        (202, None, False, None, "lost"),
    ],
)
def test_classify_job(post, job, deadline, matches, reason):
    assert classify_job(post, job, deadline, matches) == reason


def test_failed_ratio_counts_every_failure_kind():
    ledger = Ledger()
    outcomes = [
        classify_job(202, DONE, False, True),
        classify_job(202, DONE, False, True),
        classify_job(429, None, False, None),
        classify_job(202, {"status": "failed"}, False, None),
        classify_job(202, DONE, False, False),
        classify_job(202, {"status": "running"}, True, None),
    ]
    for reason in outcomes:
        ledger.record(reason)
    assert ledger.attempted == 6
    assert ledger.failed == 4
    assert ledger.failed_ratio == pytest.approx(4 / 6)
    assert ledger.reasons == {
        "http_429": 1, "job_failed": 1, "report_mismatch": 1, "deadline": 1,
    }


def test_result_line_reports_failures_as_incorrect():
    ledger = Ledger()
    ledger.ok()
    ledger.fail("exception")
    result = harness.Result(ledger)
    result.add("latency_p50_s", 0.5, "s")
    line = json.loads(result.line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (2, 1)
    assert line["metrics"] == {"latency_p50_s": {"value": 0.5, "unit": "s"}}


def test_result_rejects_bad_names_and_values():
    result = harness.Result(Ledger())
    with pytest.raises(ValueError):
        result.add("bad name", 1.0, "s")
    with pytest.raises(ValueError):
        result.add("nan_metric", float("nan"), "s")


# -- names ------------------------------------------------------------------


def test_name_rule():
    assert valid_name("kernels.pattern1.busy_s")
    assert valid_name("serve-upload")
    for bad in ("", "-leading", "has space", "a/b", "x" * 65, "ünïcode"):
        assert not valid_name(bad)


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert valid_name(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT_RE.fullmatch(m["unit"]), m
    for m in spec["end_to_end"]:
        assert m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


# -- span reduction -----------------------------------------------------------


def _span(sid, parent, layer, t0, t1, pid=1, nbytes=0, aux=None):
    return {"id": sid, "parent": parent, "layer": layer, "t0": t0, "t1": t1,
            "job": 0, "bytes": nbytes, "aux": aux, "pid": pid, "tid": 1}


def test_union_length_merges_overlaps():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert tracing.union_length([]) == 0


def test_self_time_subtracts_children():
    spans = [
        _span(1, None, "outer", 0.0, 10.0),
        _span(2, 1, "inner", 1.0, 4.0, nbytes=8),
        _span(3, 1, "inner", 3.0, 6.0, nbytes=8),
        _span(4, None, "outer", 0.0, 2.0, pid=2),
    ]
    table = tracing.layer_table(spans)
    assert table["outer"]["self_s"] == pytest.approx(10.0 - 5.0 + 2.0)
    assert table["outer"]["busy_s"] == pytest.approx(12.0)
    assert table["inner"]["busy_s"] == pytest.approx(5.0)
    assert table["inner"]["calls"] == 2
    assert table["inner"]["bytes"] == 16


def test_unaccounted_ignores_the_operation_envelope():
    spans = [
        _span(1, None, "service.assess", 0.0, 10.0),
        _span(2, 1, "kernels.pattern1", 0.0, 6.0),
    ]
    assert tracing.unaccounted_ratio(spans, 1, 10.0) == pytest.approx(0.4)


def test_wrapper_records_only_while_enabled():
    rec = tracing.Recorder()
    wrapped = tracing._timed(rec, "layer", lambda x: x * 2,
                             measure=lambda a, k, r: (r, "aux"))
    assert wrapped(3) == 6
    assert rec.spans == []
    rec.enabled = True
    assert wrapped(4) == 8
    (span,) = rec.export()
    assert (span["layer"], span["bytes"], span["aux"]) == ("layer", 8, "aux")


def test_chrome_trace_has_one_event_per_span(tmp_path):
    spans = [_span(1, None, "kernels.pattern1", 1.0, 1.5, nbytes=8)]
    path = tmp_path / "trace.json"
    tracing.write_chrome_trace(spans, path)
    (event,) = json.loads(path.read_text())["traceEvents"]
    assert (event["name"], event["cat"], event["ph"]) == ("kernels.pattern1", "kernels", "X")
    assert event["dur"] == pytest.approx(0.5e6)
    assert event["args"]["bytes"] == 8


# -- inputs -----------------------------------------------------------------


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("dataset, field", [("hurricane", "CLOUDf48"),
                                            ("nyx", "baryon_density"),
                                            ("miranda", "density")])
def test_sz_reconstruction_matches_the_codec(dataset, field, dtype):
    from repro.compressors.sz import SZCompressor
    from workloads import make_field, sz_reconstruction

    data = make_field(np.random.default_rng(5), dataset, field, (12, 20, 24), dtype)
    codec = SZCompressor(rel_bound=1e-3)
    expected = codec.decompress(codec.compress(data))
    got = sz_reconstruction(data)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def test_inputs_follow_the_seed():
    from workloads import mixed_pairs

    a = mixed_pairs(np.random.default_rng(3), 3, (16, 16, 16))
    b = mixed_pairs(np.random.default_rng(3), 3, (16, 16, 16))
    c = mixed_pairs(np.random.default_rng(4), 3, (16, 16, 16))
    assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))
    assert not np.array_equal(a[0][1], c[0][1])


# -- child processes --------------------------------------------------------


def test_end_children_reaps_orphans_and_kills_stragglers():
    # a shell that exits at once leaves two orphans: one that ends by
    # itself and one that must be killed
    script = (
        "import subprocess, harness\n"
        "assert harness.adopt_orphans()\n"
        "subprocess.run(['sh', '-c', 'sleep 0.2 & sleep 60 & exit 0'])\n"
        "killed = harness.end_children(grace=1.0)\n"
        "print(len(killed), len(harness.child_pids()))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], cwd=HERE,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "0"]
