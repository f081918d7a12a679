"""Smoke test of the end-to-end benchmark at 1/20 size.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import workloads as wl
from repro.api import FleetSessionManager, SyntheticWorld, WorldConfig

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = bench.SIZES["smoke"]


@pytest.fixture(scope="module")
def model():
    world = SyntheticWorld(WorldConfig(seed=wl.WORLD_SEED))
    return bench.build_model(world, bench.training_days(world))


@pytest.fixture(scope="module")
def results(model, tmp_path_factory):
    spans = tmp_path_factory.mktemp("spans")
    return {(name, trace): bench.run(name, seed=11, trace=trace,
                                     scale=SMOKE, model=model,
                                     trace_out=spans / f"{name}.json")
            for name in wl.WORKLOADS for trace in (False, True)}


def test_declared_workloads_exist():
    # stream-eod is left out of BENCHMARK.json to fit the time limit.
    declared = [w["name"] for w in SPEC["workloads"]]
    assert declared == [name for name in wl.WORKLOADS if name in declared]
    assert set(wl.WORKLOADS) - set(declared) == {"stream-eod"}


def test_every_declared_metric_is_printed_with_its_unit(results, capsys):
    for (name, trace), result in results.items():
        assert result.correct, (name, trace, result.problems)
        bench.emit(name, 11, result, {})
        lines = capsys.readouterr().out.splitlines()
        summary = json.loads(lines[-1])
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert summary["attempted"] >= 1 and summary["failed"] == 0
        declared = SPEC["per_layer" if trace else "end_to_end"]
        assert set(summary["metrics"]) == {m["name"] for m in declared}
        for metric in declared:
            printed = summary["metrics"][metric["name"]]
            assert printed["unit"] == metric["unit"]
            assert any(line.split()[:1] == [metric["name"]]
                       and line.split()[2] == metric["unit"]
                       for line in lines), (name, metric["name"])


def test_verdict_digests_agree(results):
    for name in wl.WORKLOADS:
        assert results[name, False].digest == results[name, True].digest
    # Sharded serving equals the serial replay of the identical feed.
    assert (results["serve-eod", False].digest
            == results["stream-eod", False].digest)


def test_gate_fails_when_one_verdict_pair_is_perturbed(model, monkeypatch):
    original = FleetSessionManager.flush_all
    perturbed = []

    def flush_all(self):
        verdicts = original(self)
        for i, verdict in enumerate(verdicts):
            if verdict.pair is not None and not perturbed:
                first, last = verdict.pair
                verdicts[i] = dataclasses.replace(verdict, pair=(last, first))
                perturbed.append(verdict)
        return verdicts

    monkeypatch.setattr(FleetSessionManager, "flush_all", flush_all)
    result = bench.run("stream-eod", seed=11, scale=SMOKE, model=model)
    assert len(perturbed) == 1
    assert not result.correct
    assert any(" pair (" in problem for problem in result.problems)


def _command(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "audit-short",
         "--seed", "3", "--seconds", str(SPEC["run_seconds"]), *extra],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=180)


def test_command_prints_the_summary_last():
    done = _command(ROOT, "--size", "smoke", "--trace", "0")
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["correct"] is True
    assert set(summary["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_command_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _command(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
