"""Fast checks of the benchmark itself: ``python3 -m pytest bench/test_smoke.py``.

Covers the tracer's self-time rollup, that instrumentation is fully removed
again, the output contract of ``bench/run.py`` on the cheapest workload in
both modes, and that the command fails without a result when the package
source is absent.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402


def test_self_time_subtracts_only_same_layer_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [
        ["bench.op", 0.0, 10.0, -1, 0],
        ["model.head", 1.0, 9.0, 0, 0],
        ["tensor.fwd.pointwise_conv", 2.0, 8.0, 1, 0],
        ["tensor.fwd.matmul", 3.0, 6.0, 2, 0],
        ["model.merge", 6.5, 7.5, 2, 0],   # model span under a tensor span
    ]
    self_times = tracer.self_times()
    assert self_times[1] == pytest.approx(8.0 - 1.0)   # head keeps its tensor ops, loses the nested merge
    assert self_times[2] == pytest.approx(6.0 - 3.0)   # pointwise_conv minus matmul
    assert self_times[3] == pytest.approx(3.0)
    inside, calls, n_roots = tracer.rollup("bench.op")
    assert n_roots == 1
    assert inside["model.head"] + inside["model.merge"] == pytest.approx(8.0)
    assert calls["tensor.fwd.matmul"] == [1, pytest.approx(3.0)]


def test_install_records_spans_and_uninstall_restores():
    import numpy as np

    from utsf import tensor as T

    originals = (T.matmul, T.record_op, T.GradTape.backward)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        a = T.Tensor(np.ones((2, 3)), requires_grad=True)

        def step():
            with T.GradTape() as tape:
                loss = T.mean_all(T.matmul(a, T.Tensor(np.ones((3, 1)))))
            tape.backward(loss)

        tracer.root("bench.op", 0, step)
    finally:
        uninstall()
    assert (T.matmul, T.record_op, T.GradTape.backward) == originals
    names = {s[0] for s in tracer.spans}
    assert {"tensor.fwd.matmul", "tensor.vjp.matmul", "tensor.backward"} <= names
    assert tracer.counts[("bench.op", "tensor.nodes")] == 2


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_forecast_workload_meets_output_contract(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run(ROOT, "--workload", "forecast_base", "--seed", "0", "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_result_when_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "forecast_base", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
