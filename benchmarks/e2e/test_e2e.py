"""Checks of the end-to-end benchmark itself: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import mmap
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import compare
import oracle
from host import tree_memory_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric_and_passes_oracle(workload, trace):
    done = _run(ROOT, "--workload", workload, "--scale", "0.02",
                "--seconds", "2", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    printed = {tuple(line.split()[1:4:2]) for line in lines[:-1]}
    for metric in declared:
        assert (metric["name"], metric["unit"]) in printed
        if trace == "0":
            assert result["metrics"][metric["name"]]["value"] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_memory_counts_deleted_but_mapped_shm_file():
    size = 16 * 2 ** 20
    before = tree_memory_mb()
    with tempfile.NamedTemporaryFile(dir="/dev/shm") as handle:
        handle.write(b"\1" * size)
        handle.flush()
        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        # The file is unlinked now; only the mapping keeps it alive.
        assert tree_memory_mb() - before >= 15.5
    finally:
        mapping.close()
    assert tree_memory_mb() - before < 8


def test_oracle_accepts_ties_and_rejects_wrong_answers():
    items = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.0, 1.0]])
    q = np.array([2.0, 0.0])
    good = oracle.Sample(q, ids=[1, 0], scores=[2.0, 2.0])
    assert oracle.check(items, [good], k=2) == []
    wrong_id = oracle.Sample(q, ids=[0, 2], scores=[2.0, 2.0])
    wrong_score = oracle.Sample(q, ids=[0, 1], scores=[2.0, 1.0])
    short = oracle.Sample(q, ids=[0], scores=[2.0])
    assert len(oracle.check(items, [wrong_id, wrong_score, short], k=2)) == 3
    hidden = np.array([False, True, True, True])
    assert oracle.check(items, [oracle.Sample(q, [1, 2], [2.0, 1.0],
                                              hidden)], k=2) == []
    assert oracle.check(items, [oracle.Sample(q, [0, 1], [2.0, 2.0],
                                              hidden)], k=2) != []


def test_compare_rule_on_synthetic_runs():
    base = [100.0, 101.0, 99.0, 100.0, 100.5, 99.5]
    faster = [90.0, 91.0, 89.0, 90.0, 90.5, 89.5]
    assert compare.judge(base, faster, "lower", 0.1)["verdict"] == "better"
    assert compare.judge(base, base[::-1], "lower", 0.1)["verdict"] == "same"
    slower = [120.0, 121.0, 119.0, 120.0, 120.5, 119.5]
    assert compare.judge(base, slower, "lower", 0.1)["verdict"] == "worse"
    # The same slowdown on a higher-is-better metric is a win.
    assert compare.judge(base, slower, "higher", 0.1)["verdict"] == "better"
    noisy = [70.0, 130.0, 95.0, 105.0, 80.0, 120.0]
    assert compare.judge(base, noisy, "lower", 0.1)["verdict"] == "unresolved"
    # Wide spread, but every candidate run beats every base run.
    wide = [60.0, 80.0, 70.0, 75.0, 65.0, 62.0]
    assert compare.judge(base, wide, "lower", 0.1)["verdict"] == "better"
    # Wins 5 of 6 pairs: a small shift is not claimed as a gain.
    close = [99.0, 100.0, 98.5, 99.5, 100.0, 101.0]
    result = compare.judge(base, close, "lower", 0.1)
    assert result["win"] < compare.WIN_SHARE
    assert result["verdict"] == "same"
