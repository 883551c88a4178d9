"""Crash-injection tests for finder snapshots.

Two failure families:

* **corruption at rest** — every snapshot file is truncated at several
  byte offsets and bit-flipped; ``load_finder`` must raise
  :class:`StorageFormatError` naming the offending path, never a bare
  ``JSONDecodeError`` / ``struct.error`` / ``EOFError``;
* **crash mid-save** — ``os.replace`` is made to fail at the k-th call
  during a re-save (the moment a SIGKILL would interrupt the rename
  dance); the previous snapshot must stay loadable with identical
  rankings for every k.
"""

import os
import shutil

import pytest

from repro.core.config import FinderConfig
from repro.core.expert_finder import ExpertFinder
from repro.storage.jsonl import StorageFormatError
from repro.storage.snapshot import load_finder, save_finder
from tests.oracle import oracle_experts


def _generation_dir(snapshot_dir):
    lines = (snapshot_dir / "CURRENT").read_text(encoding="utf-8").splitlines()
    return snapshot_dir / lines[1]


def _snapshot_files(directory):
    return sorted(
        p for p in directory.rglob("*") if p.is_file()
    )


def _cuts(size):
    return sorted({0, 1, size // 2, max(size - 1, 0)})


@pytest.fixture(scope="module")
def built_finder(tiny_dataset):
    """The saved finder; the oracle ranks over it, and loaded copies
    serve on the one query path."""
    return ExpertFinder.build(
        tiny_dataset.merged_graph,
        tiny_dataset.candidates_for(None),
        tiny_dataset.analyzer,
        FinderConfig(),
        corpus=tiny_dataset.corpus,
    )


@pytest.fixture(scope="module")
def queries(tiny_dataset):
    return tiny_dataset.queries[:3]


class TestCorruptionAtRest:
    def test_truncation_of_every_file_is_loud(
        self, built_finder, tiny_dataset, queries, tmp_path
    ):
        pristine = tmp_path / "pristine"
        save_finder(built_finder, pristine)
        reference = {
            need.text: oracle_experts(built_finder, need) for need in queries
        }
        for victim in _snapshot_files(pristine):
            data = victim.read_bytes()
            for cut in _cuts(len(data)):
                work = tmp_path / f"work-{victim.name}-{cut}"
                shutil.copytree(pristine, work)
                target = work / victim.relative_to(pristine)
                target.write_bytes(data[:cut])
                try:
                    loaded = load_finder(work, tiny_dataset.analyzer)
                except StorageFormatError as err:
                    # the error names a path inside the snapshot, so the
                    # operator knows which file to restore — and it is
                    # never a bare JSONDecodeError / struct.error
                    assert str(work) in str(err)
                else:
                    # only information-free truncation may load (losing
                    # a trailing newline) — and then nothing is lost
                    assert len(data) - cut <= 1, (
                        f"{victim.name} truncated to {cut} bytes loaded "
                        f"without an error"
                    )
                    for need in queries:
                        assert loaded.find_experts(need) == reference[need.text]
                shutil.rmtree(work)

    def test_v3_bit_flip_breaks_checksum(
        self, built_finder, tiny_dataset, tmp_path
    ):
        directory = tmp_path / "flip"
        save_finder(built_finder, directory)
        gen = _generation_dir(directory)
        for victim in sorted(gen.glob("*.bin")):
            data = bytearray(victim.read_bytes())
            data[-3] ^= 0x20  # payload byte, past header and TOC
            victim.write_bytes(bytes(data))
            with pytest.raises(StorageFormatError, match="checksum mismatch"):
                load_finder(directory, tiny_dataset.analyzer)
            # restore so the next victim is tested in isolation
            data[-3] ^= 0x20
            victim.write_bytes(bytes(data))

    def test_deleted_generation_file_is_loud(
        self, built_finder, tiny_dataset, tmp_path
    ):
        directory = tmp_path / "missing"
        save_finder(built_finder, directory)
        gen = _generation_dir(directory)
        victim = sorted(gen.iterdir())[0]
        victim.unlink()
        with pytest.raises((StorageFormatError, FileNotFoundError)):
            load_finder(directory, tiny_dataset.analyzer)


class _ReplaceBomb:
    """Make ``os.replace`` fail on its k-th invocation."""

    def __init__(self, k, real):
        self.k = k
        self.calls = 0
        self._real = real

    def __call__(self, src, dst, **kwargs):
        self.calls += 1
        if self.calls == self.k:
            raise OSError("simulated crash during rename")
        return self._real(src, dst, **kwargs)


class TestCrashMidSave:
    def _assert_survives_every_crash_point(
        self, finder, analyzer, queries, directory, monkeypatch
    ):
        finder.save(directory)
        first_gen = _generation_dir(directory)
        reference = {need.text: oracle_experts(finder, need) for need in queries}

        real_replace = os.replace
        k = 0
        while True:
            k += 1
            bomb = _ReplaceBomb(k, real_replace)
            monkeypatch.setattr(os, "replace", bomb)
            try:
                if bomb.calls >= 100:
                    raise AssertionError("runaway save")
                try:
                    finder.save(directory)
                    crashed = False
                except OSError:
                    crashed = True
            finally:
                monkeypatch.setattr(os, "replace", real_replace)
            if not crashed:
                break  # k exceeded the number of renames: a clean save
            # the interrupted save must leave the previous snapshot
            # fully loadable and byte-identical in its rankings
            assert _generation_dir(directory) == first_gen
            loaded = ExpertFinder.load(directory, analyzer)
            for need in queries:
                assert loaded.find_experts(need) == reference[need.text]
        # the final (uncrashed) save moved CURRENT to a fresh generation
        assert _generation_dir(directory) != first_gen
        loaded = ExpertFinder.load(directory, analyzer)
        for need in queries:
            assert loaded.find_experts(need) == reference[need.text]
        assert k > 2  # the loop exercised real crash points

    def test_monolithic_resave_survives_any_rename_crash(
        self, built_finder, tiny_dataset, queries, tmp_path, monkeypatch
    ):
        self._assert_survives_every_crash_point(
            built_finder,
            tiny_dataset.analyzer,
            queries,
            tmp_path / "mono",
            monkeypatch,
        )

    def test_segmented_resave_survives_any_rename_crash(
        self, tiny_dataset, queries, tmp_path, monkeypatch
    ):
        finder = ExpertFinder.build(
            tiny_dataset.merged_graph,
            tiny_dataset.candidates_for(None),
            tiny_dataset.analyzer,
            FinderConfig(),
            corpus=tiny_dataset.corpus,
            seal_threshold=2,
        )
        # grow past the cold build's one segment: a sealed tail segment
        # plus a buffered resource, so the save writes every file kind
        candidate = next(iter(finder.evidence_counts))
        for i, text in enumerate(("freestyle swimming laps", "a swimming race",
                                  "rock guitar chords tonight")):
            finder.observe(f"crash:{i}", text, [(candidate, 1)], language="en")
        stats = finder.index_stats
        assert stats.segments >= 2 and stats.buffered == 1
        self._assert_survives_every_crash_point(
            finder,
            tiny_dataset.analyzer,
            queries,
            tmp_path / "seg",
            monkeypatch,
        )

    def test_orphan_debris_from_a_crash_is_tolerated_then_pruned(
        self, built_finder, tiny_dataset, queries, tmp_path
    ):
        """A SIGKILL can leave a half-written next generation and stray
        temp files; loads must ignore them and the next save must not
        trip over them."""
        directory = tmp_path / "debris"
        built_finder.save(directory)
        reference = {need.text: oracle_experts(built_finder, need) for need in queries}

        orphan_gen = directory / "gen-0000099"
        orphan_gen.mkdir()
        (orphan_gen / "index.bin").write_bytes(b"partial garbage")
        (directory / ".CURRENT.1234.tmp").write_text("x", encoding="utf-8")

        loaded = ExpertFinder.load(directory, tiny_dataset.analyzer)
        for need in queries:
            assert loaded.find_experts(need) == reference[need.text]

        built_finder.save(directory)
        assert not orphan_gen.exists()  # debris pruned by the re-save
        loaded = ExpertFinder.load(directory, tiny_dataset.analyzer)
        for need in queries:
            assert loaded.find_experts(need) == reference[need.text]
