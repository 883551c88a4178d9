"""Benchmark fixtures.

The dataset (SMALL by default — 40 people, ~15k resources; override
with ``REPRO_SCALE=tiny|small|paper``) is built once per session and
shared by every benchmark. Rendered paper-style tables are written to
``benchmarks/results/`` as each experiment completes; performance
benchmarks additionally emit machine-readable ``BENCH_<name>.json``
files so CI can accumulate a perf trajectory across commits.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
from collections.abc import Mapping

import pytest

from repro.experiments.context import ExperimentContext, scale_from_env

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: schema version of the BENCH_*.json files (bump on breaking changes)
BENCH_SCHEMA_VERSION = 1


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    return ExperimentContext.create(scale_from_env())


@pytest.fixture(scope="session")
def save_result():
    """Write an experiment's rendered text to benchmarks/results/."""

    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _save


@pytest.fixture(scope="session")
def save_json():
    """Write a benchmark's machine-readable result to
    ``benchmarks/results/BENCH_<name>.json``.

    Every file shares one schema: ``benchmark`` (name), ``schema_version``,
    ``dataset`` (scale + seed; a generated stream adds its sizes),
    ``environment`` (cpu count + python), and a benchmark-specific
    ``metrics`` mapping. *dataset* is an evaluation dataset or, for a
    generated stream, the mapping to record.
    """

    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, dataset, metrics: dict) -> None:
        if not isinstance(dataset, Mapping):
            dataset = {"scale": dataset.scale.value, "seed": dataset.seed}
        payload = {
            "benchmark": name,
            "schema_version": BENCH_SCHEMA_VERSION,
            "dataset": dict(dataset),
            "environment": {
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
            },
            "metrics": metrics,
        }
        path = RESULTS_DIR / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {path}\n")

    return _save
