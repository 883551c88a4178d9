"""Self-test of the serving benchmark, at minimal size.

    python -m pytest perfbench/test_selftest.py -q

Each workload runs for one second over a tiny corpus, untraced and traced.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL = ["--seed", "3", "--seconds", "1"]


@pytest.fixture(scope="module", autouse=True)
def small_runs(tmp_path_factory: pytest.TempPathFactory) -> None:
    # a tiny corpus, and one scratch directory for the whole module, so
    # later runs compare their counters with the ones earlier runs stored
    patch = pytest.MonkeyPatch()
    patch.setattr(run, "RESOURCES", 400)
    patch.setattr(run, "CANDIDATES", 40)
    patch.setattr(run, "WORK", tmp_path_factory.mktemp("perfbench_work"))
    yield
    patch.undo()


def result(capsys: pytest.CaptureFixture[str], *args: str) -> dict:
    assert run.main([*args, *SMALL]) == 0
    captured = capsys.readouterr()
    *_, info, last = captured.out.strip().splitlines()
    out = json.loads(last)
    out["info"] = json.loads(info)["info"]
    out["stderr"] = captured.err
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(capsys, workload, trace):
    out = result(capsys, "--workload", workload, "--trace", str(trace))
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = [m["value"] for m in out["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if trace:
        assert out["info"]["absent"] == [] and out["info"]["absent_metrics"] == []
    else:
        assert all(v > 0 for v in values)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0, out["stderr"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_a_tampered_oracle_answer_is_a_failed_operation(capsys, monkeypatch, workload):
    honest = run.expected_answer
    tampered: list[str] = []

    def lying(finder, need):
        answer = honest(finder, need)
        if answer and not tampered:
            tampered.append(need)
            (candidate, score, support), *rest = answer
            return ((candidate, score * 2, support), *rest)
        return answer

    monkeypatch.setattr(run, "expected_answer", lying)
    out = result(capsys, "--workload", workload, "--trace", "0")
    assert tampered
    assert out["failed"] >= 1 and not out["correct"]


def test_counters_that_differ_from_an_earlier_run_are_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    session = run.Session(None, None)
    session.counted = {"service.queries": 128}
    assert run.check_counts([session], "key") == []
    session.counted = {"service.queries": 128, "gateway.responses_by_status.503": 0}
    assert run.check_counts([session], "key") == []
    session.counted = {"service.queries": 127}
    assert run.check_counts([session], "key")


def test_an_absent_callable_is_listed_with_the_metrics_it_feeds():
    recorder = spans.Recorder()
    recorder.install([("index.query_engine", "repro.core.expert_finder", "ExpertFinder.no_such_method")])
    assert recorder.absent == ["index.query_engine"]
    counters = {key: 1 for key in run.FED_BY_COUNTER}
    assert run.absent_metrics(recorder.absent, counters) == ["index.compile_ms_p50", "index.compiles"]
    del counters["service.blocks_scanned"]
    assert "index.block_skip_rate" in run.absent_metrics([], counters)


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
