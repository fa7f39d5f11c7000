"""Tests for the repro-cli command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth + build executed once; later tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = str(root / "corpus")
    index_dir = str(root / "idx")
    assert (
        main(
            [
                "synth",
                corpus_dir,
                "--texts",
                "120",
                "--mean-length",
                "120",
                "--vocab",
                "512",
                "--seed",
                "4",
            ]
        )
        == 0
    )
    assert main(["build", corpus_dir, index_dir, "-k", "8", "-t", "20"]) == 0
    return corpus_dir, index_dir


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synth_defaults(self):
        args = build_parser().parse_args(["synth", "out"])
        assert args.preset == "synthweb"
        assert args.texts == 2000

    def test_build_defaults(self):
        args = build_parser().parse_args(["build", "c", "i"])
        assert args.k == 32 and args.t == 25 and not args.external


class TestSynth:
    def test_minipile_preset(self, tmp_path, capsys):
        code = main(
            [
                "synth",
                str(tmp_path / "mp"),
                "--preset",
                "minipile",
                "--texts",
                "40",
                "--mean-length",
                "60",
                "--vocab",
                "256",
            ]
        )
        assert code == 0
        assert "minipile" in capsys.readouterr().out


class TestBuild:
    def test_external_build(self, pipeline, tmp_path, capsys):
        corpus_dir, _ = pipeline
        code = main(
            [
                "build",
                corpus_dir,
                str(tmp_path / "ext"),
                "-k",
                "4",
                "-t",
                "20",
                "--external",
                "--batch-texts",
                "30",
            ]
        )
        assert code == 0
        assert "compact windows" in capsys.readouterr().out


class TestQuery:
    def test_query_runs(self, pipeline, capsys):
        corpus_dir, index_dir = pipeline
        from repro.corpus.store import DiskCorpus

        corpus = DiskCorpus(corpus_dir)
        text_id = next(i for i in range(len(corpus)) if corpus[i].size >= 64)
        code = main(
            [
                "query",
                index_dir,
                corpus_dir,
                "--text",
                str(text_id),
                "--length",
                "64",
                "--theta",
                "0.8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "matching texts" in out
        assert f"text {text_id}" in out  # finds at least itself

    def test_query_window_out_of_range(self, pipeline, capsys):
        corpus_dir, index_dir = pipeline
        code = main(
            [
                "query",
                index_dir,
                corpus_dir,
                "--text",
                "0",
                "--start",
                "0",
                "--length",
                "100000",
            ]
        )
        assert code == 2
        assert "exceeds" in capsys.readouterr().err


class TestStats:
    def test_stats_output(self, pipeline, capsys):
        _, index_dir = pipeline
        assert main(["stats", index_dir, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "postings=" in out
        assert "#1:" in out
        sidecar = Path(index_dir) / "index.dir.bin"
        assert f"directory_bytes={sidecar.stat().st_size} layout=flat" in out


class TestBatchQuery:
    def test_batch_query_runs(self, pipeline, tmp_path, capsys):
        corpus_dir, index_dir = pipeline
        from repro.corpus.store import DiskCorpus

        corpus = DiskCorpus(corpus_dir)
        lines = []
        for text_id in range(len(corpus)):
            text = corpus[text_id]
            if text.size >= 40:
                lines.append(" ".join(str(t) for t in text[:40].tolist()))
            if len(lines) == 3:
                break
        query_file = tmp_path / "queries.txt"
        query_file.write_text("\n".join(lines))
        code = main(
            ["batch-query", index_dir, str(query_file), "--theta", "0.9"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "latency_ms" in out
        assert "cache hit rate" in out

    def test_bad_query_line(self, pipeline, tmp_path, capsys):
        _, index_dir = pipeline
        query_file = tmp_path / "bad.txt"
        query_file.write_text("1 2 three")
        code = main(["batch-query", index_dir, str(query_file)])
        assert code == 2
        assert "not a token-id sequence" in capsys.readouterr().err


class TestIngest:
    def test_ingest_runs(self, tmp_path, capsys):
        src = tmp_path / "docs"
        src.mkdir()
        (src / "a.txt").write_text("the quick brown fox " * 10)
        (src / "b.txt").write_text("jumps over the lazy dog " * 10)
        code = main(["ingest", str(src), str(tmp_path / "out"), "--vocab", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ingested 2 files" in out
        from repro.corpus.store import DiskCorpus

        assert len(DiskCorpus(tmp_path / "out" / "corpus")) == 2


class TestDedup:
    def test_dedup_runs(self, pipeline, capsys):
        corpus_dir, index_dir = pipeline
        code = main(
            [
                "dedup",
                index_dir,
                corpus_dir,
                "--theta",
                "0.85",
                "--window",
                "48",
                "--max-probes",
                "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "duplicate clusters" in out


class TestMemorize:
    def test_memorize_runs(self, pipeline, capsys):
        corpus_dir, index_dir = pipeline
        code = main(
            [
                "memorize",
                index_dir,
                corpus_dir,
                "--model",
                "small",
                "--texts",
                "1",
                "--length",
                "64",
                "--window",
                "32",
            ]
        )
        assert code == 0
        assert "memorized%" in capsys.readouterr().out
