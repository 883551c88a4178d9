"""Tests for the command-line interface."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main
from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.storage.binary import MappedSections
from repro.synthetic.dataset import default_analyzer
from repro.synthetic.stream import stream_candidates, stream_resources


def _generation_dir(snapshot_dir):
    """The generation a v3 snapshot's CURRENT file points at."""
    lines = (snapshot_dir / "CURRENT").read_text(encoding="utf-8").splitlines()
    return snapshot_dir / lines[1]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "hello"])
        assert args.text == "hello"
        assert args.platform == "all"
        assert args.alpha == 0.6
        assert args.distance == 2

    def test_dataset_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dataset"])


class TestCommands:
    def test_query_finds_experts(self, capsys):
        code = main(["query", "best freestyle swimmer", "--scale", "tiny", "--top-k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rank" in out
        assert "person:" in out

    def test_query_no_match(self, capsys):
        code = main(["query", "zzzz qqqq xxxx", "--scale", "tiny"])
        assert code == 1
        assert "no candidate" in capsys.readouterr().out

    def test_query_platform_selection(self, capsys):
        code = main(
            ["query", "famous european football teams", "--scale", "tiny",
             "--platform", "tw", "--distance", "1"]
        )
        assert code in (0, 1)  # valid run either way

    def test_info(self, capsys):
        assert main(["info", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "candidates: 12" in out
        assert "twitter" in out

    def test_dataset_save_then_use(self, tmp_path, capsys):
        out_dir = tmp_path / "ds"
        assert main(["dataset", "--scale", "tiny", "--out", str(out_dir)]) == 0
        assert (out_dir / "meta.jsonl").exists()
        capsys.readouterr()
        assert main(["info", "--dataset", str(out_dir)]) == 0
        assert "candidates: 12" in capsys.readouterr().out

    def test_index_then_warm_query_and_serve_bench(self, tmp_path, capsys):
        snap = tmp_path / "snap"
        assert main(["index", "--scale", "tiny", "--out", str(snap)]) == 0
        assert "indexed" in capsys.readouterr().out
        assert (snap / "CURRENT").exists()
        assert (_generation_dir(snap) / "meta.jsonl").exists()

        code = main(
            ["query", "best freestyle swimmer", "--scale", "tiny",
             "--snapshot", str(snap), "--top-k", "3"]
        )
        assert code == 0
        warm_out = capsys.readouterr().out
        code = main(["query", "best freestyle swimmer", "--scale", "tiny", "--top-k", "3"])
        assert code == 0
        cold_out = capsys.readouterr().out
        assert warm_out == cold_out  # snapshot serves identical rankings

        code = main(
            ["serve-bench", "--scale", "tiny", "--snapshot", str(snap),
             "--rounds", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hit rate" in out and "p95" in out

    def test_index_parallel_build_reports_stages(self, tmp_path, capsys):
        snap = tmp_path / "snap"
        code = main(
            ["index", "--scale", "tiny", "--cold", "--workers", "2",
             "--chunk-size", "64", "--out", str(snap)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "build stages:" in out
        assert "workers=2" in out
        assert (snap / "CURRENT").exists()

    def test_experiments_subset(self, capsys):
        code = main(["experiments", "--scale", "tiny", "--only", "fig5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 5a" in out

    def test_experiments_unknown_name(self, capsys):
        code = main(["experiments", "--scale", "tiny", "--only", "nope"])
        assert code == 2
        assert "unknown experiments" in capsys.readouterr().err


class TestSegmentedCommands:
    def test_index_parser_accepts_segment_flags(self):
        args = build_parser().parse_args(
            ["index", "--scale", "tiny",
             "--seal-threshold", "8", "--compact", "--out", "x"]
        )
        assert args.seal_threshold == 8
        assert args.compact
        # every index is segmented: the layout flag is gone
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["index", "--scale", "tiny", "--index-mode", "segmented",
                 "--out", "x"]
            )

    def test_index_segmented_snapshot_and_serve_bench(self, tmp_path, capsys):
        snap = tmp_path / "seg"
        code = main(["index", "--scale", "tiny", "--out", str(snap)])
        assert code == 0
        out = capsys.readouterr().out
        assert "segments: 1 live" in out
        assert (_generation_dir(snap) / "segments.jsonl").exists()

        # the segmented snapshot answers queries identically to a cold
        # in-process build
        code = main(
            ["query", "best freestyle swimmer", "--scale", "tiny",
             "--snapshot", str(snap), "--top-k", "3"]
        )
        assert code == 0
        seg_out = capsys.readouterr().out
        code = main(
            ["query", "best freestyle swimmer", "--scale", "tiny", "--top-k", "3"]
        )
        assert code == 0
        assert capsys.readouterr().out == seg_out

        code = main(
            ["serve-bench", "--scale", "tiny", "--snapshot", str(snap),
             "--rounds", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "segments: 1 live" in out
        assert "cache survivals" in out

    def test_index_compact_merges_multi_segment_snapshot(
        self, tmp_path, capsys, tiny_dataset
    ):
        from repro.core.expert_finder import ExpertFinder

        snap = tmp_path / "seg"
        assert main(["index", "--scale", "tiny", "--out", str(snap)]) == 0
        capsys.readouterr()

        # grow the snapshot into several segments plus a buffered tail
        finder = ExpertFinder.load(snap, tiny_dataset.analyzer)
        candidate = next(iter(finder.evidence_counts))
        finder.observe(
            "cli:s1", "an incredibly rare zorpify gadget review", [(candidate, 1)]
        )
        finder.segmented_index.seal()
        finder.observe(
            "cli:s2", "another zorpify gadget deep dive", [(candidate, 1)]
        )
        grown = tmp_path / "grown"
        finder.save(grown)
        stats = finder.index_stats
        assert stats.segments >= 2 and stats.buffered == 1

        optimized = tmp_path / "optimized"
        assert main(
            ["index", "--scale", "tiny", "--snapshot", str(grown),
             "--compact", "--out", str(optimized)]
        ) == 0
        out = capsys.readouterr().out
        assert f"compacted {stats.segments} segment(s) + 1 buffered" in out
        assert "→ 1 segment(s)" in out
        assert "segments: 1 live" in out

        # the optimized snapshot round-trips and ranks identically
        for need in ("zorpify gadget", "best freestyle swimmer"):
            code = main(
                ["query", need, "--scale", "tiny",
                 "--snapshot", str(grown), "--top-k", "5"]
            )
            grown_out = capsys.readouterr().out
            assert code in (0, 1)
            assert main(
                ["query", need, "--scale", "tiny",
                 "--snapshot", str(optimized), "--top-k", "5"]
            ) == code
            assert capsys.readouterr().out == grown_out

    def test_compact_requires_segmented_finder(self, tmp_path, capsys):
        # a sharded finder holds one segmented index per shard
        snap = tmp_path / "sharded"
        assert main(
            ["index", "--scale", "tiny", "--shards", "2", "--out", str(snap)]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="segmented"):
            main(
                ["index", "--scale", "tiny", "--snapshot", str(snap),
                 "--compact", "--out", str(tmp_path / "x")]
            )


def _run_cli(*argv):
    """Run ``python -m repro.cli`` in a child process (real exit codes)."""
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
        check=False,
    )


@pytest.fixture(scope="module", params=[None, 2], ids=["segmented", "sharded"])
def inspected_snapshot(request, tmp_path_factory):
    """A segmented snapshot with a sealed segment and a buffered tail,
    and a 2-shard one."""
    candidates = stream_candidates(5)
    finder = ExpertFinder.from_stream(
        candidates,
        stream_resources(candidates, 40, seed=7),
        default_analyzer(),
        FinderConfig(),
        shards=request.param,
    )
    finder.observe(
        "late:1", "open water swimming race report", [(candidates[0], 1)],
        language="en",
    )
    directory = tmp_path_factory.mktemp("inspect") / "snap"
    finder.save(directory)
    return directory


class TestInspect:
    def test_reports_every_file_of_the_current_generation(
        self, inspected_snapshot, capsys
    ):
        assert main(["inspect", str(inspected_snapshot)]) == 0
        report = json.loads(capsys.readouterr().out)
        gen = _generation_dir(inspected_snapshot)
        assert report["generation"] == gen.name
        assert set(report["files"]) == {p.name for p in gen.iterdir()}
        for name, entry in report["files"].items():
            if name.endswith(".jsonl"):
                assert entry["records"][0]["type"] in ("snapshot", "manifest")
                continue
            mapped = MappedSections.open(gen / name)
            try:
                names = list(mapped.names())
            finally:
                mapped.close()
            assert [s["name"] for s in entry["sections"]] == names
            assert entry["bytes"] == (gen / name).stat().st_size
            assert len(entry["crc32"]) == 8

    def test_bit_flipped_container_exits_one_naming_it(
        self, inspected_snapshot, tmp_path
    ):
        directory = tmp_path / "flipped"
        shutil.copytree(inspected_snapshot, directory)
        victim = sorted(_generation_dir(directory).glob("*.bin"))[-1]
        data = bytearray(victim.read_bytes())
        data[-3] ^= 0x20  # payload byte, past header and TOC
        victim.write_bytes(bytes(data))
        proc = _run_cli("inspect", str(directory))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert victim.name in proc.stderr
        assert "checksum mismatch" in proc.stderr

    def test_missing_directory_exits_one(self, tmp_path):
        proc = _run_cli("inspect", str(tmp_path / "nope"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
