"""Tests of the benchmark itself: every answer check catches a planted
wrong answer, and a smoke-size run emits every metric with its unit.

The planted-answer tests run the real ``measure()`` path with the server
process replaced by an in-process ``ShardedIndexFrontend`` over the same
per-shard store layout, so they need no sockets or worker processes.
The smoke test drives the real server process and is slow (each server
shutdown stalls ~10 s); it runs with ``REPRO_BENCH_FULL=1``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from perfbench import REPO_ROOT
from perfbench import run as bench
from perfbench.layers import LAYER_UNITS, self_times
from perfbench.loadgen import Recorder
from perfbench.stamp import machine_stamp, stamp_mismatches
from perfbench.workloads import (SHARDS, WORKLOADS, ColdChurn, PointLookups,
                                 RangeHeavy)
from repro.api import NNResult
from repro.core.ordering import LinearOrder
from repro.obs import SpanRecord
from repro.query import JoinReport, QueryExecution
from repro.serve import shard_store_dirs
from repro.service import ArtifactStore, OrderArtifact, ShardedIndexFrontend

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"


class InProcessServer:
    """Stands in for ``ServerProcess``: same clients surface, no process."""

    def __init__(self, cache_dir, memory_entries, spoil=None):
        self.cache_dir = cache_dir
        stores = [ArtifactStore(d) for d in
                  shard_store_dirs(cache_dir, SHARDS).values()]
        front = ShardedIndexFrontend(SHARDS, stores=stores,
                                     memory_entries=memory_entries)
        self.clients = [Spoiling(front, spoil)] * 2

    def rss_mb(self):
        return 1.0

    def stop_async(self):
        pass

    def join(self):
        return 0.0

    def kill(self):
        pass


class Spoiling:
    """Passes calls through; ``spoil`` may replace one answer, once."""

    def __init__(self, inner, spoil):
        self._inner = inner
        self._spoil = spoil
        self._lock = threading.Lock()
        self._spoiled = False

    def __getattr__(self, name):
        method = getattr(self._inner, name)

        def call(*args, **kwargs):
            answer = method(*args, **kwargs)
            if self._spoil is None:
                return answer
            with self._lock:
                if self._spoiled:
                    return answer
                bad = self._spoil(name, answer)
                self._spoiled = bad is not None
            return answer if bad is None else bad
        return call


def run_measure(monkeypatch, tmp_path, workload, spoil=None):
    def fake_set_up(w, cache_dir):
        return InProcessServer(cache_dir, w.memory_entries, spoil), 0.01

    monkeypatch.setattr(bench, "set_up", fake_set_up)
    return bench.measure(workload, 0.3, tmp_path)


def swapped(perm):
    perm = np.array(perm)
    perm[[0, 1]] = perm[[1, 0]]
    return perm


def spoil_in_batch(kind):
    def spoil(name, answer):
        if name != "query_many":
            return None
        answer = list(answer)
        for i, item in enumerate(answer):
            if isinstance(item, kind):
                if kind is QueryExecution:
                    bad = dataclasses.replace(item, results=item.results[1:])
                elif kind is NNResult:
                    bad = dataclasses.replace(item,
                                              neighbors=item.neighbors[::-1])
                else:
                    bad = dataclasses.replace(
                        item, matched_pairs=item.matched_pairs + 1)
                answer[i] = bad
                return answer
        return None
    return spoil


def spoil_artifact(name, answer):
    if name != "grid_artifact" or not isinstance(answer, OrderArtifact):
        return None
    return dataclasses.replace(
        answer, order=LinearOrder(swapped(answer.order.permutation)))


def test_clean_runs_pass(monkeypatch, tmp_path):
    for cls in (RangeHeavy, PointLookups, ColdChurn):
        result = run_measure(monkeypatch, tmp_path / cls.name,
                             cls(3, smoke=True))
        assert result["failed"] == 0, (cls.name, result["detail"])
        assert result["attempted"] > 0
        assert set(result["metrics"]) == set(bench.END_TO_END)


@pytest.mark.parametrize("kind", [QueryExecution, NNResult, JoinReport],
                         ids=["range", "nn", "join"])
def test_range_heavy_catches_a_wrong_answer(monkeypatch, tmp_path, kind):
    result = run_measure(monkeypatch, tmp_path, RangeHeavy(3, smoke=True),
                         spoil_in_batch(kind))
    assert result["failed"] == 1
    assert result["detail"]["errors"] == {"wrong-answer": 1}


def test_point_lookups_catches_a_wrong_order(monkeypatch, tmp_path):
    result = run_measure(monkeypatch, tmp_path, PointLookups(3, smoke=True),
                         spoil_artifact)
    assert result["failed"] == 1
    assert result["detail"]["errors"] == {"wrong-answer": 1}


def test_point_lookups_catches_a_wrong_nn(monkeypatch, tmp_path):
    def spoil(name, answer):
        if name == "nn":
            return dataclasses.replace(answer, neighbors=answer.neighbors[::-1])
        return None

    result = run_measure(monkeypatch, tmp_path, PointLookups(3, smoke=True),
                         spoil)
    assert result["failed"] == 1


def test_cold_churn_catches_an_inconsistent_order(monkeypatch, tmp_path):
    seen = set()

    def spoil(name, answer):
        # Spoil the *second* answer for a key: the first is the one the
        # reference sample would compare, so this isolates the
        # every-answer-agrees check.
        if name != "grid_artifact":
            return None
        if answer.key not in seen:
            seen.add(answer.key)
            return None
        return spoil_artifact(name, answer)

    result = run_measure(monkeypatch, tmp_path, ColdChurn(3, smoke=True),
                         spoil)
    assert result["failed"] >= 1
    assert result["detail"]["errors"].get("wrong-answer") == 1


def test_cold_churn_reference_sample_catches_a_wrong_order(monkeypatch,
                                                           tmp_path):
    w = ColdChurn(3, smoke=True)
    w.REFERENCE_SAMPLE = 10 ** 6  # the whole (smoke) key set
    run_measure(monkeypatch, tmp_path / "ok", w)
    assert w.reference_failures() == []
    key = sorted(w.first_answer)[0]
    request, j, perm = w.first_answer[key]
    w.first_answer[key] = (request, j, swapped(perm))
    assert len(w.reference_failures()) == 1


def test_cold_churn_solver_accounting_catches_a_second_solve(monkeypatch,
                                                             tmp_path):
    w = ColdChurn(3, smoke=True)
    server = InProcessServer(tmp_path, w.memory_entries)
    before = server.clients[0].combined_stats()
    w.drive(server.clients, 0.0, Recorder(), max_epochs=1)
    after = server.clients[0].combined_stats()
    computed = after.computed - before.computed
    calls = after.solver_calls - before.solver_calls
    assert w.accounting_failures(computed, calls, tmp_path) == []
    assert len(w.accounting_failures(computed + 1, calls, tmp_path)) == 1
    assert len(w.accounting_failures(computed, calls + 1, tmp_path)) == 1


def test_stamps_refuse_a_different_machine():
    stamp = machine_stamp()
    assert stamp_mismatches(stamp, dict(stamp, git_sha="other")) == []
    assert stamp_mismatches(stamp, dict(stamp, nproc=64))
    assert stamp_mismatches(stamp, dict(stamp, scipy_importable=False))


def test_self_time_subtracts_covered_child_intervals():
    def rec(span_id, parent, start, duration, name):
        return SpanRecord("t", span_id, parent, name, start, duration)

    records = [rec("a", None, 0.0, 1.0, "root"),
               rec("b", "a", 0.1, 0.3, "child"),
               rec("c", "a", 0.2, 0.4, "child"),   # overlaps b
               rec("d", "c", 0.3, 0.1, "leaf")]
    table = self_times(records)
    assert table["root"]["self_ms"] == pytest.approx(500.0)
    assert table["child"]["self_ms"] == pytest.approx(300.0 + 300.0)
    assert table["leaf"]["self_ms"] == pytest.approx(100.0)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.skipif(not FULL, reason="set REPRO_BENCH_FULL=1 to run")
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke",
         "--seconds", "1", "--trace", str(trace)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    if trace:
        expected = dict(LAYER_UNITS)
    else:
        expected = {f"{w}.{m}": unit for w in WORKLOADS
                    for m, unit in bench.END_TO_END.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
