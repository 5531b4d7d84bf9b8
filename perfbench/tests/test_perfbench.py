"""Tests of the benchmark itself: output format, output checks, tracing.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pipeline
import run
from repro.apps import influence_max
from repro.apps.influence_max import SeedSelection
from repro.core.embeddings import InfluenceEmbedding
from repro.serve import EmbeddingStore, InfluenceService
from repro.serve import index as serve_index
from tracer import BENCH_LAYER, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    return result


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.3",
                "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    lines = proc.stdout.splitlines()
    for spec in SPEC["end_to_end"]:
        row = result["metrics"][spec["name"]]
        assert row["unit"] == spec["unit"]
        assert row["value"] > 0, spec["name"]
        assert any(
            line.split()[:1] == [spec["name"]] and spec["unit"] in line.split()
            and "n=" in line
            for line in lines
        ), spec["name"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced_run_prints_every_per_layer_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.3",
                "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    trace = json.loads((BENCH / "out" / f"trace-{workload}-seed3.json").read_text())
    names = {span["name"] for span in trace["spans"]}
    assert {"bench.pipeline", "core.inf2vec.epoch", "sketch.rrsets.generate"} <= names


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "long-log", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- output checks ------------------------------------------------------


@pytest.fixture
def service(tmp_path):
    embedding = InfluenceEmbedding.initialize(120, 8, seed=0)
    EmbeddingStore.save(embedding, tmp_path / "store")
    service = InfluenceService.open(tmp_path / "store")
    service.precompute(k=5)
    return service


def _corrupt(index: serve_index.TopKIndex, rows) -> serve_index.TopKIndex:
    """Swap the first two answers of ``rows`` (an int or a slice)."""
    indices = np.array(index.indices)
    indices[rows, 0], indices[rows, 1] = indices[rows, 1].copy(), indices[rows, 0].copy()
    return serve_index.TopKIndex(index.direction, indices, np.array(index.scores))


def test_index_check_passes_on_a_faithful_index(service):
    assert pipeline.index_mismatches(service, range(120), 5) == []


def test_index_check_trips_on_a_corrupted_row(service):
    service.indices["influenced"] = _corrupt(service.indices["influenced"], 7)
    assert pipeline.index_mismatches(service, range(120), 5) == [7]


@pytest.mark.parametrize(
    "seeds, ok",
    [
        ((3, 1, 2), True),
        ((3, 3, 2), False),  # duplicated seed
        ((3, 1), False),  # too few
        ((3, 1, 10), False),  # not a node id
        ((3, 1, -1), False),
        ((3.0, 1, 2), False),
    ],
)
def test_seed_check(seeds, ok):
    assert pipeline.seeds_valid(seeds, 3, 10) is ok


def _main(capsys) -> tuple[int, dict]:
    code = run.main(["--workload", "long-log", "--seed", "2", "--seconds", "0.2",
                     "--trace", "0", "--smoke"])
    return code, _result(capsys.readouterr().out)


def test_corrupted_index_fails_the_run(monkeypatch, capsys):
    build = serve_index.TopKIndex.build.__func__

    def corrupted_build(cls, *args, **kwargs):
        return _corrupt(build(cls, *args, **kwargs), slice(None))

    monkeypatch.setattr(serve_index.TopKIndex, "build", classmethod(corrupted_build))
    code, result = _main(capsys)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["success_frac"]["value"] < 1.0


def test_duplicated_seed_fails_the_run(monkeypatch, capsys):
    select = influence_max.ris_influence_maximization

    def duplicated(*args, **kwargs):
        chosen = select(*args, **kwargs)
        seeds = (chosen.seeds[0],) + chosen.seeds[:-1]
        return SeedSelection(seeds, chosen.marginal_gains, chosen.expected_spread)

    monkeypatch.setattr(influence_max, "ris_influence_maximization", duplicated)
    code, result = _main(capsys)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1


# -- tracer -------------------------------------------------------------


def test_self_time_subtracts_children_and_unattributed_excludes_layers():
    tracer = Tracer()
    tracer.spans = [
        ["root", BENCH_LAYER, 0.0, 10.0, -1, None, None],
        ["a", "layer.a", 1.0, 5.0, 0, None, None],
        ["b", "layer.b", 2.0, 3.0, 1, None, None],
        ["c", "layer.b", 6.0, 8.0, 0, None, None],
    ]
    assert tracer.self_times() == [4.0, 3.0, 1.0, 2.0]
    assert tracer.layer_self_times() == {BENCH_LAYER: 4.0, "layer.a": 3.0, "layer.b": 3.0}
    assert tracer.unattributed(0) == 4.0
    assert tracer.layer_self_times(exclude=1) == {BENCH_LAYER: 4.0, "layer.b": 2.0}


def test_wrap_restores_the_original_attributes():
    original = vars(serve_index.TopKIndex)["open"]
    tracer = Tracer()
    with tracer.installed():
        tracer.wrap(serve_index.TopKIndex, "open", "serve.index.open", "serve.index")
        assert vars(serve_index.TopKIndex)["open"] is not original
    assert vars(serve_index.TopKIndex)["open"] is original
