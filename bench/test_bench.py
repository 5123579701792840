"""Smoke test of bench/run.py: every workload, untraced and traced,
runs a few checked ops and prints a well-formed result. No timing claims.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import spans  # noqa: E402
from run import WORKLOADS  # noqa: E402

END_TO_END = {"work_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb"}


def _run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_smoke(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = set(spans.PER_LAYER) | {"trace.work_per_s.traced", "trace.work_per_s.untraced", "trace.op_s"}
    assert set(result["metrics"]) == (want if trace == "1" else END_TO_END)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["unit"]
    record = json.loads(lines[-2].removeprefix("record: "))
    assert record["seed"] == 3 and record["ops_failed"] == 0
    assert len(record["output_sha256_rounds_0_1"]) == 64


def test_same_seed_same_outputs():
    digests = set()
    for _ in range(2):
        proc = _run("--workload", "functional_gemm", "--seed", "5", "--smoke")
        digests.add(json.loads(proc.stdout.strip().splitlines()[-2].removeprefix("record: "))[
            "output_sha256_rounds_0_1"])
    assert len(digests) == 1


def test_bad_arguments_exit_nonzero():
    assert _run("--workload", "nope").returncode != 0
    assert _run("--workload", "verify", "--seconds", "0").returncode != 0
