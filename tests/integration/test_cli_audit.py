"""CLI integration: ``generate --chunk`` + ``audit`` end to end,
including resume, ``--fresh``, and the chunk-span trace artifact."""

import json

import pytest

from repro.audit import AuditInterrupted, run_audit
from repro.cli import main
from repro.errors import CheckerError, DataIOError
from repro.io.bundle import load_bundle


@pytest.fixture()
def chunked_tree(tmp_path):
    for rel, dataset in (("setA/m", "miranda"), ("setB/n", "nyx")):
        rc = main([
            "generate", "--dataset", dataset, "--scale", "0.06",
            "--fields", "1", "--chunk", "4",
            "--out", str(tmp_path / "tree" / rel),
        ])
        assert rc == 0
    return tmp_path / "tree"


class TestGenerateChunked:
    def test_generate_writes_v2(self, chunked_tree, capsys):
        bundle = load_bundle(chunked_tree / "setA/m")
        assert bundle.version == 2
        assert bundle.chunks is not None

    def test_generate_float64(self, tmp_path, capsys):
        rc = main([
            "generate", "--dataset", "nyx", "--scale", "0.05", "--fields", "1",
            "--dtype", "float64", "--out", str(tmp_path / "d64"),
        ])
        assert rc == 0
        bundle = load_bundle(tmp_path / "d64")
        assert bundle.dtype == "float64"
        assert bundle.field_path(bundle.field_names[0]).suffix == ".f64"


class TestAuditCommand:
    def test_audit_tree(self, chunked_tree, tmp_path, capsys):
        out = tmp_path / "report.json"
        trace = tmp_path / "trace.json"
        rc = main([
            "audit", str(chunked_tree), "--out", str(out),
            "--checkpoint", str(tmp_path / "ck.json"),
            "--trace", str(trace),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "audited 2 field(s) in 2 bundle(s)" in text
        report = json.loads(out.read_text())
        assert report["format"] == "cuzchecker-audit-report-v1"
        assert report["totals"]["bundles"] == 2
        assert not (tmp_path / "ck.json").exists()
        # the trace carries per-chunk read spans with byte counts
        events = json.loads(trace.read_text())["traceEvents"]
        reads = [e for e in events if e.get("name") == "chunk_read"]
        assert len(reads) == report["totals"]["chunks"]
        assert all(e["args"]["bytes"] > 0 for e in reads)

    def test_audit_trace_times_read_codec_and_checkpoint_apart(
        self, chunked_tree, tmp_path, capsys
    ):
        out = tmp_path / "report.json"
        trace = tmp_path / "trace.json"
        rc = main([
            "audit", str(chunked_tree), "--out", str(out),
            "--checkpoint", str(tmp_path / "ck.json"),
            "--trace", str(trace),
        ])
        assert rc == 0
        n_chunks = json.loads(out.read_text())["totals"]["chunks"]
        events = json.loads(trace.read_text())["traceEvents"]
        by_name = {}
        for e in events:
            by_name.setdefault(e.get("name"), []).append(e)
        for name in ("codec_compress", "codec_decompress", "checkpoint"):
            assert len(by_name.get(name, [])) == n_chunks, name
        # the read span holds no codec or checkpoint work
        read_ids = {e["args"]["span_id"] for e in by_name["chunk_read"]}
        for name in ("codec_compress", "codec_decompress", "checkpoint"):
            assert all(
                e["args"].get("parent_id") not in read_ids for e in by_name[name]
            )

    def test_audit_resume_matches_uninterrupted(self, chunked_tree, tmp_path, capsys):
        ref = tmp_path / "ref.json"
        rc = main([
            "audit", str(chunked_tree), "--out", str(ref),
            "--checkpoint", str(tmp_path / "ck_ref.json"),
        ])
        assert rc == 0

        out = tmp_path / "resumed.json"
        ck = tmp_path / "ck.json"
        with pytest.raises(AuditInterrupted):
            run_audit(chunked_tree, out_path=out, checkpoint_path=ck,
                      stop_after_chunks=3)
        rc = main([
            "audit", str(chunked_tree), "--out", str(out),
            "--checkpoint", str(ck),
        ])
        assert rc == 0
        assert "resuming from checkpoint" in capsys.readouterr().out
        assert out.read_bytes() == ref.read_bytes()

    def test_audit_fresh_discards_checkpoint(self, chunked_tree, tmp_path, capsys):
        out = tmp_path / "report.json"
        ck = tmp_path / "ck.json"
        with pytest.raises(AuditInterrupted):
            run_audit(chunked_tree, out_path=out, checkpoint_path=ck,
                      stop_after_chunks=2)
        # changed codec settings make the checkpoint stale
        with pytest.raises(CheckerError, match="fresh"):
            run_audit(chunked_tree, out_path=out, checkpoint_path=ck,
                      codec_args={"rel_bound": 1e-4})
        rc = main([
            "audit", str(chunked_tree), "--out", str(out),
            "--checkpoint", str(ck), "--rel-bound", "1e-4", "--fresh",
        ])
        assert rc == 0
        assert json.loads(out.read_text())["codec_args"] == {"rel_bound": 1e-4}

    def test_audit_empty_tree_fails(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataIOError, match="no bundles"):
            main(["audit", str(tmp_path / "empty")])

    def test_audit_workers_flag(self, chunked_tree, tmp_path, capsys):
        from repro.parallel import process_available

        if not process_available():
            pytest.skip("process pools unavailable")
        ref = tmp_path / "ref.json"
        assert main([
            "audit", str(chunked_tree), "--out", str(ref),
            "--checkpoint", str(tmp_path / "ck_ref.json"),
            "--audit-workers", "serial",
        ]) == 0
        out = tmp_path / "par.json"
        assert main([
            "audit", str(chunked_tree), "--out", str(out),
            "--checkpoint", str(tmp_path / "ck_par.json"),
            "--audit-workers", "2",
        ]) == 0
        assert out.read_bytes() == ref.read_bytes()

    def test_audit_workers_rejects_garbage(self, chunked_tree, tmp_path):
        with pytest.raises(CheckerError, match="audit workers"):
            main([
                "audit", str(chunked_tree),
                "--out", str(tmp_path / "r.json"),
                "--checkpoint", str(tmp_path / "ck.json"),
                "--audit-workers", "warp-speed",
            ])


class TestGenerateCodec:
    def test_generate_codec_writes_v3_and_audits(self, tmp_path, capsys):
        rc = main([
            "generate", "--dataset", "miranda", "--scale", "0.06",
            "--fields", "1", "--chunk", "4", "--codec", "zlib",
            "--out", str(tmp_path / "tree" / "m"),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "zlib-packed" in text
        bundle = load_bundle(tmp_path / "tree" / "m")
        assert bundle.version == 3
        assert bundle.codec == "zlib"
        rc = main([
            "audit", str(tmp_path / "tree"),
            "--out", str(tmp_path / "report.json"),
            "--checkpoint", str(tmp_path / "ck.json"),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["totals"]["fields"] == 1

    def test_codec_requires_chunk(self, tmp_path):
        with pytest.raises(CheckerError, match="--chunk"):
            main([
                "generate", "--dataset", "miranda", "--scale", "0.06",
                "--fields", "1", "--codec", "zlib",
                "--out", str(tmp_path / "m"),
            ])
