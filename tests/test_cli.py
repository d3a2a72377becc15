"""Command-line surface: files written, exit codes, determinism."""

import csv
import hashlib
import json
import os
import platform
import shutil
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from utsf import cli, training
from utsf.cli import RunConfig, _raise_mmap_threshold, build_parser, main
from utsf.data import (SamplerConfig, load_csv_dataset, make_sine_frame, normalize_sample,
                       save_csv_dataset)
from utsf.errors import CheckpointError, ConfigError, UsageError
from utsf.model import ModelConfig, UShapedTransformer, preset, valid_seed
from utsf.training import LastValuePredictor, apply_checkpoint, evaluate, load_checkpoint, save_checkpoint

SRC = Path(__file__).resolve().parent.parent / "src"

# a process's first ``main`` allocates one untouched 16 MiB block; take it
# here, so that a test which traces one command's allocations sees that
# command alone, whichever test runs first
_raise_mmap_threshold()


@pytest.fixture()
def workspace(tmp_path):
    """Registry with one sine dataset plus a tiny-preset run config."""
    save_csv_dataset(make_sine_frame("sine", n_channels=2, length=420,
                                     period=16.0, seed=0), tmp_path / "sine.csv")
    (tmp_path / "datasets.json").write_text(json.dumps({"sine": {"path": "sine.csv"}}))
    run = {
        "model": {"preset": "tiny"},
        "sampler": {"stride": 8, "jitter": True},
        "trainer": {"lr": 1e-3, "epochs": 1, "steps_per_epoch": 25},
        "registry": "datasets.json",
        "seed": 0,
    }
    (tmp_path / "run.json").write_text(json.dumps(run))
    save_csv_dataset(make_sine_frame("probe", n_channels=1, length=40,
                                     period=16.0, seed=7), tmp_path / "probe.csv")
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_python(*argv, timeout=120, **kwargs):
    """A fresh interpreter that imports this ``utsf``, with one BLAS thread,
    the setting the determinism contract is stated for."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=timeout, **kwargs)


def run_utsf(*argv, **kwargs):
    return run_python("-m", "utsf", *argv, **kwargs)


def test_pretrain_writes_artifacts_deterministically(workspace):
    cfg = workspace / "run.json"
    out1, out2 = workspace / "r1", workspace / "r2"
    assert run_cli("pretrain", "--config", cfg, "--out", out1) == 0
    assert run_cli("pretrain", "--config", cfg, "--out", out2) == 0
    for name in ("checkpoint.bin", "loss.csv", "report.json", "resolved_config.json"):
        a, b = out1 / name, out2 / name
        assert a.exists(), name
        assert a.read_bytes() == b.read_bytes(), name
    resolved = json.loads((out1 / "resolved_config.json").read_text())
    assert "out_dir" not in json.dumps(resolved)
    rows = read_rows(out1 / "loss.csv")
    assert rows[0] == ["step", "loss"] and len(rows) == 26


def test_finetune_freezes_backbone_and_writes_checkpoint(workspace, capsys):
    cfg = workspace / "run.json"
    pre = workspace / "pre"
    assert run_cli("pretrain", "--config", cfg, "--out", pre) == 0
    fin = workspace / "fin"
    assert run_cli("finetune", "--config", cfg, "--out", fin,
                   "--checkpoint", pre / "checkpoint.bin") == 0
    assert (fin / "finetuned.bin").exists()
    assert "backbone hash unchanged" in capsys.readouterr().err


def test_a_backbone_moved_by_finetune_exits_3_and_writes_nothing(workspace, capsys, monkeypatch):
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), workspace / "ck.bin")
    finetune_epoch = training.finetune_epoch

    def nudging(model, *args, **kwargs):
        report = finetune_epoch(model, *args, **kwargs)
        model.params[model.backbone_names()[0]].data[0] += 1.0
        return report

    monkeypatch.setattr(training, "finetune_epoch", nudging)
    out = workspace / "fin"
    assert run_cli("finetune", "--config", workspace / "run.json", "--out", out,
                   "--checkpoint", workspace / "ck.bin") == 3
    err = capsys.readouterr().err
    assert err.endswith("numeric failure: backbone changed during finetune; freeze contract broken\n"), err
    assert "Traceback" not in err
    assert not (out / "finetuned.bin").exists() and not (out / "resolved_config.json").exists()


def test_numeric_failure_exits_3_and_writes_no_resolved_config(workspace, capsys):
    run = json.loads((workspace / "run.json").read_text())
    run["trainer"]["lr"] = 1e3
    (workspace / "hot.json").write_text(json.dumps(run))
    out = workspace / "hot"
    with np.errstate(over="ignore"):  # the run's own message names the overflow
        assert run_cli("pretrain", "--config", workspace / "hot.json", "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: pretrain aborted at epoch 0, step 1 (dataset sine, channel ")
    assert err.endswith("): non-finite value produced by op 'mul'\n")
    assert not (out / "resolved_config.json").exists()
    # numpy's overflow warning, raised as an error, is a numeric failure too
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("pretrain", "--config", workspace / "hot.json", "--out", out) == 3
    assert capsys.readouterr().err.startswith("numeric failure: overflow encountered")
    assert not (out / "resolved_config.json").exists()


def test_a_denormalized_forecast_that_overflows_exits_3(workspace, capsys):
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), workspace / "ck.bin")
    (workspace / "big.csv").write_text("v\n" + "".join(("0\n", "3.3e38\n")[i % 2] for i in range(40)))
    out = workspace / "big"
    with np.errstate(over="ignore"):  # the run's own message names the overflow
        assert run_cli("forecast", "--config", workspace / "run.json", "--out", out, "--denormalize",
                       "--checkpoint", workspace / "ck.bin", "--input", workspace / "big.csv") == 3
    assert "numeric failure: the denormalized forecast overflows float32" in capsys.readouterr().err
    assert not (out / "forecast.csv").exists()


@pytest.mark.parametrize("cells, flags, named", [
    # the forecast of a window near the float32 limit overflows on denormalizing
    (["0", "3.3e38"] * 20, ["--denormalize"], "the denormalized forecast overflows float32 (mu 1.65e+38, sigma 1.65e+38)"),
    # x - mu overflows while the window is normalized, before any tape op runs;
    # the window is the last 32 cells: mu = 30a/32, sigma = a * sqrt(992/8192)
    (["3.3e38"] * 39 + ["-3.3e38"], [], "the normalized window overflows float32 (mu 3.09375e+38, sigma 1.14835e+38)"),
], ids=["denormalize", "normalize"])
def test_an_overflow_of_extreme_finite_inputs_exits_3_and_is_named_under_any_warning_filter(
        workspace, capsys, monkeypatch, cells, flags, named):
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), workspace / "ck.bin")
    (workspace / "big.csv").write_text("v\n" + "\n".join(cells) + "\n")
    argv = ["forecast", "--config", workspace / "run.json", "--checkpoint", workspace / "ck.bin",
            "--input", workspace / "big.csv", *flags]
    for policy in ("default", "error"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(policy)
            assert run_cli(*argv, "--out", workspace / policy) == 3, policy
        assert not caught, [str(w.message) for w in caught]
        assert f"numeric failure: {named}\n" in capsys.readouterr().err, policy
        assert not (workspace / policy / "forecast.csv").exists()
    monkeypatch.setenv("PYTHONWARNINGS", "error")
    proc = run_utsf(*argv, "--out", workspace / "sub")
    assert proc.returncode == 3 and proc.stderr.endswith(f"numeric failure: {named}\n"), proc.stderr


def test_finetune_without_checkpoint_is_usage_error(workspace, capsys):
    assert run_cli("finetune", "--config", workspace / "run.json") == 2
    capsys.readouterr()


def test_eval_model_with_baseline_rows(workspace):
    cfg = workspace / "run.json"
    pre = workspace / "pre"
    assert run_cli("pretrain", "--config", cfg, "--out", pre) == 0
    out = workspace / "ev2"
    assert run_cli("eval", "--config", cfg, "--out", out, "--checkpoint",
                   pre / "checkpoint.bin", "--baseline", "--horizons", "32") == 0
    body = read_rows(out / "metrics.csv")[1:]
    assert [r[0] for r in body] == ["ushape", "linear"]
    for r in body:
        assert np.isfinite(float(r[3]))
    # the least-squares map forecasts the workspace sine far better than repeating its last value
    linear = float(body[1][3])
    last_value = evaluate(LastValuePredictor(32), load_csv_dataset(workspace / "sine.csv", "sine"),
                          32, 32, [32])[32]["mse"]
    assert linear < last_value, (linear, last_value)


def test_eval_bytes_are_pinned(workspace):
    # metrics.csv and metrics.json digests for this checkpoint and registry
    # (x86-64, numpy's OpenBLAS): the scoring path may change, its bytes may not
    pinned = {"metrics.csv": "ad8be56c4f992b217a4d7e58d5dffe701af66b29519a72b48a27bbae30fe8f17",
              "metrics.json": "50354b63f6de99a520faec4690103a30915a05da450992bc7d36e0a04e110e7a"}
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), workspace / "ck.bin")
    assert run_cli("eval", "--config", workspace / "run.json", "--out", workspace / "ev",
                   "--checkpoint", workspace / "ck.bin", "--baseline", "--horizons", "8,32") == 0
    for name, digest in pinned.items():
        assert hashlib.sha256((workspace / "ev" / name).read_bytes()).hexdigest() == digest, name


def test_eval_quotes_a_dataset_id_that_holds_a_comma_or_a_line_break(workspace):
    ids = ["a,b", "line\nbreak"]
    (workspace / "odd.json").write_text(json.dumps({i: {"path": "sine.csv"} for i in ids}))
    run = json.loads((workspace / "run.json").read_text())
    (workspace / "odd_run.json").write_text(json.dumps({**run, "registry": "odd.json"}))
    out = workspace / "odd"
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), workspace / "ck.bin")
    assert run_cli("eval", "--config", workspace / "odd_run.json", "--out", out,
                   "--checkpoint", workspace / "ck.bin", "--horizons", "8,32") == 0
    rows = read_rows(out / "metrics.csv")
    assert rows[0] == ["model", "dataset", "horizon", "mse", "mae", "mape"]
    assert [r[:3] for r in rows[1:]] == [["ushape", i, h] for i in ids for h in ("8", "32")]
    assert all(len(r) == 6 for r in rows)


def test_eval_requires_checkpoint_or_stub(workspace, capsys):
    # a checkpoint is eval's one model source: there is no --stub
    assert run_cli("eval", "--config", workspace / "run.json", "--out", workspace / "ev3") == 2
    assert "the following arguments are required: --checkpoint" in capsys.readouterr().err
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), workspace / "ck.bin")
    assert run_cli("eval", "--config", workspace / "run.json", "--out", workspace / "ev3",
                   "--checkpoint", workspace / "ck.bin", "--stub", "oracle") == 2
    assert "unrecognized arguments: --stub oracle" in capsys.readouterr().err
    assert not (workspace / "ev3").exists()


def test_eval_rejects_out_of_range_horizon(workspace, capsys):
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), workspace / "ck.bin")
    assert run_cli("eval", "--config", workspace / "run.json", "--out", workspace / "ev4",
                   "--checkpoint", workspace / "ck.bin", "--horizons", "999") == 2
    assert "horizon 999 outside 1..32" in capsys.readouterr().err


@pytest.mark.parametrize("raw, named", [("", "''"), (" ", "' '"), ("8,,16", "'8,,16'"), ("8,", "'8,'"),
                                        ("8,8,16", "'8,8,16': horizon 8 is repeated"),
                                        ("16,8,16", "'16,8,16': horizon 16 is repeated")])
def test_eval_refuses_an_empty_or_repeated_horizon(workspace, capsys, raw, named):
    # an empty item was skipped, "" meant the default and a repeat was scored twice
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), workspace / "ck.bin")
    assert run_cli("eval", "--config", workspace / "run.json", "--out", workspace / "ev6",
                   "--checkpoint", workspace / "ck.bin", "--horizons", raw) == 2
    assert f"bad --horizons value {named}" in capsys.readouterr().err
    assert not (workspace / "ev6" / "metrics.csv").exists()


def test_forecast_csv_and_denormalize_relation(workspace):
    cfg = workspace / "run.json"
    pre = workspace / "pre"
    assert run_cli("pretrain", "--config", cfg, "--out", pre) == 0
    ck = pre / "checkpoint.bin"
    norm_dir, den_dir = workspace / "fc1", workspace / "fc2"
    assert run_cli("forecast", "--config", cfg, "--out", norm_dir,
                   "--checkpoint", ck, "--input", workspace / "probe.csv") == 0
    assert run_cli("forecast", "--config", cfg, "--out", den_dir,
                   "--checkpoint", ck, "--input", workspace / "probe.csv",
                   "--denormalize") == 0
    norm = np.array([float(r[1]) for r in read_rows(norm_dir / "forecast.csv")[1:]])
    den = np.array([float(r[1]) for r in read_rows(den_dir / "forecast.csv")[1:]])
    assert norm.shape == (32,)
    probe = load_csv_dataset(workspace / "probe.csv", "probe")
    _, mu, sigma = normalize_sample(probe.values[0, -preset("tiny").lookback_len:])
    assert np.allclose(den, norm * sigma + mu, atol=1e-4)


def test_a_forecast_reads_the_last_lookback_values_of_a_longer_input(workspace):
    # the 40-value probe and its last 32 rows (tiny's lookback) are one request:
    # same forecast, same denormalization, same attention maps and report
    lines = (workspace / "probe.csv").read_text().splitlines(keepends=True)
    assert len(lines) - 1 == preset("tiny").lookback_len + 8
    (workspace / "last.csv").write_text(lines[0] + "".join(lines[-32:]))
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), workspace / "ck.bin")
    for command, extra in (("forecast", []), ("forecast", ["--denormalize"]), ("attn-dump", [])):
        outs = [workspace / f"{command}{len(extra)}-{name}" for name in ("probe", "last")]
        for out, name in zip(outs, ("probe.csv", "last.csv")):
            assert run_cli(command, "--config", workspace / "run.json", "--out", out, "--checkpoint",
                           workspace / "ck.bin", "--input", workspace / name, *extra) == 0
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir()) and len(files) > 1
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (command, extra, name)


def test_forecast_from_a_checkpoint_ignores_the_seed(workspace):
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=3), workspace / "ck.bin", seed=3)
    outs = [workspace / "seed0", workspace / "seed9"]
    for out, seed in zip(outs, (0, 9)):
        assert run_cli("forecast", "--config", workspace / "run.json", "--out", out, "--seed", seed,
                       "--checkpoint", workspace / "ck.bin", "--input", workspace / "probe.csv") == 0
    assert (outs[0] / "forecast.csv").read_bytes() == (outs[1] / "forecast.csv").read_bytes()


def test_forecast_bytes_are_pinned_and_the_parser_is_built_once(workspace):
    # forecast.csv digests for this checkpoint and input (x86-64, numpy's
    # OpenBLAS): the request path may change, its bytes may not
    pinned = {(): "2e78ee363722de8b677392260825fe5055108ce5e271ee2cca59f985cd8a7f9d",
              ("--denormalize",): "df83eb0b65f19c26f1860e742332e48db58025c24c32aa6adc00d65d12434c13"}
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), workspace / "ck.bin")
    build_parser.cache_clear()
    for extra, digest in pinned.items():
        texts = []
        for i in range(2):
            out = workspace / f"fc{len(extra)}{i}"
            assert run_cli("forecast", "--config", workspace / "run.json", "--out", out, "--checkpoint",
                           workspace / "ck.bin", "--input", workspace / "probe.csv", *extra) == 0
            texts.append((out / "forecast.csv").read_bytes())
        assert texts[0] == texts[1], extra
        assert hashlib.sha256(texts[0]).hexdigest() == digest, extra
    assert build_parser.cache_info().misses == 1  # one parser for all four requests


def test_resolved_config_bytes_are_pinned(workspace):
    # the resolved config a forecast writes for the workspace's run config:
    # the config reader and writer may change, the bytes may not
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), workspace / "ck.bin")
    assert run_cli("forecast", "--config", workspace / "run.json", "--out", workspace / "fc",
                   "--checkpoint", workspace / "ck.bin", "--input", workspace / "probe.csv") == 0
    digest = hashlib.sha256((workspace / "fc" / "resolved_config.json").read_bytes()).hexdigest()
    assert digest == "944c291e6cb23ec47d87e2f144b8bd7d2f3bfd4f9a8d03fbfce395ecd483d46d"


def test_checkpoint_payload_of_the_wrong_size_exits_2_and_loads_nothing(workspace, capsys):
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), workspace / "ck.bin")
    blob = (workspace / "ck.bin").read_bytes()
    payload = len(blob) - 8 - struct.unpack("<Q", blob[:8])[0]
    model = UShapedTransformer(preset("tiny"), seed=5)
    before = {name: p.data for name, p in model.params.items()}
    copies = {name: a.copy() for name, a in before.items()}
    for cut, extra in ((4, b""), (1, b""), (payload, b""), (0, b"\0\0\0\0"), (0, b"x")):
        (workspace / "bad.bin").write_bytes(blob[:len(blob) - cut] + extra)
        size = payload - cut + len(extra)
        assert run_cli("forecast", "--config", workspace / "run.json", "--out", workspace / "fc",
                       "--checkpoint", workspace / "bad.bin", "--input", workspace / "probe.csv") == 2
        assert f"payload is {size} bytes, manifest implies {payload}" in capsys.readouterr().err
        assert not (workspace / "fc" / "forecast.csv").exists()
        with pytest.raises(CheckpointError, match=f"payload is {size} bytes"):
            apply_checkpoint(model, workspace / "bad.bin")
        for name, p in model.params.items():
            assert p.data is before[name] and np.array_equal(p.data, copies[name]), (cut, extra, name)


def test_runs_are_bitwise_under_one_blas_thread(workspace):
    # the determinism contract, checked across processes as CI pins it
    outs = [workspace / "p1", workspace / "p2"]
    for out in outs:
        done = run_utsf("pretrain", "--config", workspace / "run.json", "--out", out)
        assert done.returncode == 0, done.stderr
    for name in ("checkpoint.bin", "loss.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    fcs = [workspace / "f1", workspace / "f2"]
    for out in fcs:
        done = run_utsf("forecast", "--config", workspace / "run.json", "--out", out,
                        "--checkpoint", outs[0] / "checkpoint.bin", "--input", workspace / "probe.csv")
        assert done.returncode == 0, done.stderr
    assert (fcs[0] / "forecast.csv").read_bytes() == (fcs[1] / "forecast.csv").read_bytes()


@pytest.mark.skipif(not Path("/dev/zero").exists(), reason="no /dev/zero here")
def test_device_paths_exit_2_before_reading(workspace):
    resource = pytest.importorskip("resource")

    def cap_memory():  # a path read without bound ends in MemoryError, not an exhausted host
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), workspace / "ck.bin")
    files = {"--config": workspace / "run.json", "--checkpoint": workspace / "ck.bin",
             "--input": workspace / "probe.csv"}
    for flag in files:
        argv = [a for item in {**files, flag: "/dev/zero"}.items() for a in item]
        done = run_utsf("forecast", "--out", workspace / "fc", *argv, preexec_fn=cap_memory, timeout=60)
        assert done.returncode == 2, (flag, done.stderr)
        assert "/dev/zero" in done.stderr and "not a regular file" in done.stderr, flag
    (workspace / "dev.json").write_text(json.dumps({"model": {"preset": "tiny"}, "registry": "/dev/zero"}))
    done = run_utsf("pretrain", "--config", workspace / "dev.json", "--out", workspace / "pre",
                    preexec_fn=cap_memory, timeout=60)
    assert done.returncode == 2, done.stderr
    assert "/dev/zero" in done.stderr and "not a regular file" in done.stderr


def test_running_out_of_memory_exits_2(workspace):
    resource = pytest.importorskip("resource")

    def cap_memory():  # the model below needs about 6 GiB
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    run = json.loads((workspace / "run.json").read_text())
    (workspace / "big.json").write_text(json.dumps({**run, "model": {"preset": "tiny", "d_model": 4096, "n_heads": 2}}))
    done = run_utsf("pretrain", "--config", workspace / "big.json", "--out", workspace / "big",
                    preexec_fn=cap_memory, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: Unable to allocate ") and "Traceback" not in done.stderr, done.stderr
    assert not (workspace / "big" / "checkpoint.bin").exists()


def test_a_checkpoint_of_another_config_is_refused_before_its_payload_is_read(workspace, capsys):
    save_checkpoint(UShapedTransformer(preset("base"), seed=0), workspace / "base.bin")
    run = json.loads((workspace / "run.json").read_text())
    (workspace / "small.json").write_text(json.dumps({**run, "model": {"preset": "small"}}))
    named = "base.bin: checkpoint model config 'lookback_len' is 3072, the run config's is 512"
    request = ["--checkpoint", workspace / "base.bin", "--input", workspace / "probe.csv"]
    commands = {"finetune": ["--checkpoint", workspace / "base.bin"],
                "eval": ["--checkpoint", workspace / "base.bin"],
                "forecast": request, "attn-dump": request}
    for command, extra in commands.items():
        out = workspace / command
        tracemalloc.start()
        try:
            assert run_cli(command, "--config", workspace / "small.json", "--out", out, *extra) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert named in capsys.readouterr().err, command
        assert list(out.iterdir()) == [], command
        assert peak < 2 ** 20, (command, peak)  # the payload alone is 5.6 MiB

    model = UShapedTransformer(preset("small"), seed=0)
    before = {name: p.data for name, p in model.params.items()}
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=named):
            apply_checkpoint(model, workspace / "base.bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    assert all(p.data is before[name] for name, p in model.params.items())


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the mmap threshold is glibc's")
def test_a_fresh_cli_process_forwards_without_page_faults(tmp_path):
    # 4 eval chunks of 32 small windows: each forward after the first reuses
    # its temporaries instead of faulting them back in (about 6,500 faults a
    # call); the few dozen left are new pages, such as the 32 of the 128 KiB
    # forecast that eval keeps
    save_checkpoint(UShapedTransformer(preset("small"), seed=0), tmp_path / "ck.bin")
    save_csv_dataset(make_sine_frame("sine", n_channels=32, length=7680, period=48.0, seed=0),
                     tmp_path / "sine.csv")
    (tmp_path / "datasets.json").write_text(json.dumps({"sine": {"path": "sine.csv", "splits": [0.1, 0.1, 0.8]}}))
    (tmp_path / "run.json").write_text(json.dumps({"model": {"preset": "small"}, "registry": "datasets.json"}))
    count = ("import resource, sys\n"
             "from utsf import cli, training\n"
             "forward, faults = training.ModelPredictor.__call__, []\n"
             "def counted(self, x):\n"
             "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
             "    pred = forward(self, x)\n"
             "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
             "    return pred\n"
             "training.ModelPredictor.__call__ = counted\n"
             "print(cli.main(sys.argv[1:]), *faults)\n")
    done = run_python("-c", count, "eval", "--config", tmp_path / "run.json", "--out", tmp_path / "ev",
                      "--checkpoint", tmp_path / "ck.bin")
    code, *faults = map(int, done.stdout.split())
    assert code == 0 and len(faults) == 4, done.stderr
    assert max(faults[1:]) < 256, faults


def test_forecast_rejects_bad_channel(workspace):
    cfg = workspace / "run.json"
    pre = workspace / "pre"
    assert run_cli("pretrain", "--config", cfg, "--out", pre) == 0
    assert run_cli("forecast", "--config", cfg, "--out", workspace / "fc3",
                   "--checkpoint", pre / "checkpoint.bin",
                   "--input", workspace / "probe.csv", "--channel", "5") == 2


def test_attn_dump_files_and_mass_report(workspace):
    cfg = workspace / "run.json"
    pre = workspace / "pre"
    assert run_cli("pretrain", "--config", cfg, "--out", pre) == 0
    out = workspace / "attn"
    assert run_cli("attn-dump", "--config", cfg, "--out", out,
                   "--checkpoint", pre / "checkpoint.bin",
                   "--input", workspace / "probe.csv") == 0
    names = sorted(p.name for p in out.glob("attn_*.csv"))
    assert names == ["attn_dec_L1.csv", "attn_enc_L1.csv", "attn_enc_L2.csv"]
    enc1 = np.array([[float(v) for v in row] for row in read_rows(out / "attn_enc_L1.csv")])
    assert enc1.shape == (8, 8)
    assert np.allclose(enc1.sum(axis=1), 1.0, atol=1e-4)
    report = json.loads((out / "attn_report.json").read_text(), parse_constant=_refuse_constant)
    assert set(report) >= {"n_tokens", "n_known_tokens",
                           "mean_attention_per_known_key",
                           "mean_attention_per_padded_key",
                           "known_exceeds_padded"}
    assert report["n_tokens"] == 8


def _refuse_constant(name):
    raise ValueError(f"strict JSON has no {name}")


def test_attn_dump_refuses_a_one_token_model(workspace, capsys):
    # no padded token: the padded-key mean would be the mean of an empty
    # slice, written as a bare NaN
    model = {"lookback_len": 4, "horizon_len": 4, "patch_size": 8, "n_levels": 1,
             "d_model": 8, "n_heads": 2}
    (workspace / "one.json").write_text(json.dumps({"model": model, "seed": 0}))
    save_checkpoint(UShapedTransformer(ModelConfig(**model), seed=0), workspace / "one.bin")
    out = workspace / "attn1"
    assert run_cli("attn-dump", "--config", workspace / "one.json", "--out", out,
                   "--checkpoint", workspace / "one.bin", "--input", workspace / "probe.csv") == 2
    assert "needs at least 2 tokens; this model has 1" in capsys.readouterr().err
    assert out.is_dir() and not any(out.iterdir())


def test_gradcheck_exit_codes(capsys, monkeypatch):
    assert run_cli("gradcheck", "--seeds", "1") == 0
    assert "PASS" in capsys.readouterr().out
    monkeypatch.setattr(cli, "GRADCHECK_TOLERANCE", 1e-30)
    assert run_cli("gradcheck", "--seeds", "1") == 3
    assert "FAIL" in capsys.readouterr().out
    # checking nothing is a usage error
    for value in ("0", "-3"):
        assert run_cli("gradcheck", "--seeds", value) == 2, value
        captured = capsys.readouterr()
        assert "--seeds" in captured.err and "PASS" not in captured.out
    # the bar is GRADCHECK_TOLERANCE alone, and every check includes the backbone
    for argv in (("--tolerance", "1e-6"), ("--ops-only",)):
        assert run_cli("gradcheck", *argv) == 2, argv
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err and "PASS" not in captured.out


def test_config_errors_exit_2(workspace, capsys):
    bad = workspace / "bad.json"
    bad.write_text(json.dumps({"model": {"preset": "tiny"}, "turbo": True}))
    assert run_cli("pretrain", "--config", bad, "--out", workspace / "x1") == 2
    assert "turbo" in capsys.readouterr().err

    bad.write_text("{not json")
    assert run_cli("pretrain", "--config", bad, "--out", workspace / "x2") == 2
    capsys.readouterr()

    assert run_cli("pretrain", "--config", workspace / "nope.json",
                   "--out", workspace / "x3") == 2
    capsys.readouterr()

    reg = {"model": {"preset": "tiny"}, "registry": "missing.json"}
    bad.write_text(json.dumps(reg))
    assert run_cli("pretrain", "--config", bad, "--out", workspace / "x4") == 2
    capsys.readouterr()

    # wrong-typed values are named like unknown keys, never a traceback
    wrong = [({"trainer": {"lr": "0.1"}}, "lr"), ({"model": {"preset": "tiny", "d_model": "8"}}, "d_model"),
             ({"sampler": {"stride": "8"}}, "stride"), ({"sampler": {"jitter": 1}}, "jitter"),
             ({"seed": "abc"}, "seed"), ({"seed": True}, "seed"), ({"model": [1]}, "model"),
             ({"trainer": [1]}, "trainer"), ({"registry": 5}, "registry"),
             # the legacy keys, even at the one value they once loaded at
             ({"model": {"preset": "tiny", "patch_stride": 8}}, "patch_stride"),
             ({"model": {"preset": "tiny", "dropout": 0}}, "dropout"),
             ({"model": {"preset": "tiny", "ffn_mult": 4}}, "ffn_mult"),
             ({"model": {"preset": "tiny", "mask_ratio": 0.4}}, "mask_ratio"),
             # a preset key names a preset
             ({"model": {"preset": None}}, "unknown preset None"),
             ({"trainer": {"lr": float("nan")}}, "lr"), ({"trainer": {"lr": float("inf")}}, "lr"),
             # Adam's constants, even at the values they once defaulted to
             ({"trainer": {"beta1": 0.9}}, "beta1"), ({"trainer": {"beta2": 0.999}}, "beta2"),
             ({"trainer": {"eps": 1e-8}}, "eps"),
             # a sampler seed equal to the run seed in value but not in type
             ({"seed": 1, "sampler": {"seed": True}}, "seed"),
             ({"seed": 1, "sampler": {"seed": 1.0}}, "seed"),
             # a model section without a preset names the keys it lacks
             ({"model": {}}, "['lookback_len', 'horizon_len', 'patch_size']"),
             ({"model": {"lookback_len": 32, "horizon_len": 32}}, "['patch_size']"),
             # an integer a float cannot hold is refused, not converted
             ({"trainer": {"lr": 10 ** 400}}, "'lr' is an integer too large for a float")]
    for override, name in wrong:
        bad.write_text(json.dumps({"model": {"preset": "tiny"}, **override}))
        assert run_cli("pretrain", "--config", bad, "--out", workspace / "x5") == 2, override
        assert name in capsys.readouterr().err, override

    # the file's own seed is checked even when --seed overrides it
    bad.write_text(json.dumps({"model": {"preset": "tiny"}, "registry": "datasets.json", "seed": "abc"}))
    assert run_cli("pretrain", "--config", bad, "--seed", "5", "--out", workspace / "x9") == 2
    assert "'abc'" in capsys.readouterr().err

    # wrong-typed registry entries are config errors naming the entry
    for entry in ({"path": 5}, {"path": "sine.csv", "splits": "abc"}, {"path": "sine.csv", "splits": 5},
                  {"path": "sine.csv", "splits": [10 ** 400, 0, 0]}):
        (workspace / "odd.json").write_text(json.dumps({"odd": entry}))
        bad.write_text(json.dumps({"model": {"preset": "tiny"}, "registry": "odd.json"}))
        assert run_cli("pretrain", "--config", bad, "--out", workspace / "x6") == 2, entry
        assert "odd" in capsys.readouterr().err, entry

    # an integer literal longer than Python converts (4300 digits) is invalid JSON, not a ValueError
    huge = "9" * 5000
    bad.write_text('{"model": {"preset": "tiny"}, "seed": ' + huge + "}")
    assert run_cli("pretrain", "--config", bad, "--out", workspace / "x7") == 2
    assert "not valid JSON" in capsys.readouterr().err
    (workspace / "odd.json").write_text('{"odd": {"path": "sine.csv", "splits": [' + huge + ", 0, 0]}}")
    bad.write_text(json.dumps({"model": {"preset": "tiny"}, "registry": "odd.json"}))
    assert run_cli("pretrain", "--config", bad, "--out", workspace / "x8") == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_malformed_checkpoint_manifest_exits_2(workspace, capsys):
    m = UShapedTransformer(preset("tiny"), seed=0)
    save_checkpoint(m, workspace / "ck.bin")
    blob = (workspace / "ck.bin").read_bytes()
    n = struct.unpack("<Q", blob[:8])[0]
    manifest = json.loads(blob[8:8 + n])
    # a manifest config past the size bound, or one whose count is not the
    # payload's: named before the payload buffer is allocated
    for edit, named in (({"n_layers_per_group": 10 ** 9}, "in each of 1000000000 layers"),
                        ({"d_model": 2 ** 40}, "at 'embed.w' of shape [1099511627776, 8]"),
                        ({"d_model": 16}, f"payload is {len(blob) - 8 - n} bytes, manifest implies ")):
        doctored = json.dumps({**manifest, "config": {**manifest["config"], **edit}}).encode()
        (workspace / "bad.bin").write_bytes(struct.pack("<Q", len(doctored)) + doctored + blob[8 + n:])
        tracemalloc.start()
        try:
            assert run_cli("forecast", "--config", workspace / "run.json", "--out", workspace / "fc",
                           "--checkpoint", workspace / "bad.bin", "--input", workspace / "probe.csv") == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert "bad.bin: " in err and named in err, edit
        assert not (workspace / "fc" / "forecast.csv").exists()
        assert peak < 2 * 2 ** 20, (edit, peak)

    # a run config the weights were not trained for, with the same parameter
    # names and shapes or far larger ones: named by field before its model is built
    run = json.loads((workspace / "run.json").read_text())
    for model, field in (({"preset": "tiny", "n_heads": 1}, "n_heads"),
                         ({"preset": "tiny", "lookback_len": 48, "horizon_len": 16}, "lookback_len"),
                         ({"preset": "tiny", "d_model": 2 ** 40}, "d_model"),
                         ({"preset": "tiny", "n_layers_per_group": 5000}, "n_layers_per_group")):
        (workspace / "other.json").write_text(json.dumps({**run, "model": model}))
        tracemalloc.start()
        try:
            assert run_cli("forecast", "--config", workspace / "other.json", "--out", workspace / field,
                           "--checkpoint", workspace / "ck.bin", "--input", workspace / "probe.csv") == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"checkpoint model config '{field}' is " in capsys.readouterr().err
        assert not (workspace / field / "forecast.csv").exists()
        assert peak < 2 * 2 ** 20, (field, peak)


def test_pretrain_refuses_a_model_too_large_to_build(workspace, capsys):
    # past 2**31 parameter scalars the build names the parameter that passes
    # the bound, before it allocates any; a billion layers are refused as fast
    run = json.loads((workspace / "run.json").read_text())
    for model, named in (({"preset": "tiny", "lookback_len": 10 ** 400}, "at 'pos' of shape [125"),
                         ({"preset": "tiny", "d_model": 2 ** 40}, "at 'embed.w' of shape [1099511627776, 8]"),
                         ({"preset": "tiny", "n_layers_per_group": 10 ** 9},
                          "at 'enc1.layer0.ln1.g' of shape [8] in each of 1000000000 layers")):
        (workspace / "big.json").write_text(json.dumps({**run, "model": model}))
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            assert run_cli("pretrain", "--config", workspace / "big.json", "--out", workspace / "big") == 2
            seconds, peak = time.perf_counter() - t0, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.startswith("error: model too large to build: its parameters pass 2147483648 scalars "), err
        assert named in err and "Traceback" not in err, err
        assert seconds < 1.0 and peak < 2 * 2 ** 20, (model, seconds, peak)
        assert not (workspace / "big" / "checkpoint.bin").exists()


def test_an_integer_float_field_is_resolved_as_written(workspace):
    run = json.loads((workspace / "run.json").read_text())
    (workspace / "int.json").write_text(json.dumps({**run, "trainer": {**run["trainer"], "lr": 1}}))
    assert run_cli("pretrain", "--config", workspace / "int.json", "--out", workspace / "int") == 0
    assert '"lr": 1,' in (workspace / "int" / "resolved_config.json").read_text()


def test_a_dataset_without_a_train_window_exits_2_and_is_named(workspace, capsys, monkeypatch):
    # tiny's pretraining window is 64 steps; a 50-step series has a 35-step train split
    save_csv_dataset(make_sine_frame("short", n_channels=1, length=50, period=16.0, seed=1),
                     workspace / "short.csv")
    (workspace / "datasets.json").write_text(json.dumps({"sine": {"path": "sine.csv"},
                                                         "short": {"path": "short.csv"}}))
    named = "dataset 'short': its train split of 35 steps holds no window of length 64 at stride 8"
    # eval --baseline fits the linear map first, so the fit names the dataset
    # before the model is scored on its too-short test split
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), workspace / "ck.bin")
    commands = {"checkpoint.bin": ["pretrain"],
                "metrics.csv": ["eval", "--checkpoint", workspace / "ck.bin", "--baseline", "--horizons", "8,32"]}
    monkeypatch.setenv("PYTHONWARNINGS", "error")  # for the subprocesses
    for artifact, command in commands.items():
        for policy in ("default", "error"):
            out = workspace / f"{command[0]}-{policy}"
            with warnings.catch_warnings():
                warnings.simplefilter(policy)
                assert run_cli(*command, "--config", workspace / "run.json", "--out", out) == 2
            assert named in capsys.readouterr().err, (command, policy)
            assert not (out / artifact).exists()
        proc = run_utsf(*command, "--config", workspace / "run.json", "--out", workspace / "sub")
        assert proc.returncode == 2 and named in proc.stderr, (command, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert not (workspace / "sub" / artifact).exists()


def test_unreadable_input_files_exit_2(workspace, capsys):
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), workspace / "ck.bin")
    folder = workspace / "folder"
    folder.mkdir()
    (workspace / "latin1.csv").write_bytes(b"value\n1.0\n2.5\xb0\n")
    (workspace / "latin1.json").write_bytes(b'{"model": {"preset": "tiny"}, "seed": 0} \xb0')
    files = {"--config": workspace / "run.json", "--checkpoint": workspace / "ck.bin",
             "--input": workspace / "probe.csv"}
    for flag, bad in (("--input", folder), ("--config", folder), ("--checkpoint", folder),
                      ("--input", workspace / "latin1.csv"), ("--config", workspace / "latin1.json")):
        args = {**files, flag: bad}
        argv = [a for item in args.items() for a in item]
        assert run_cli("forecast", "--out", workspace / "fc", *argv) == 2, (flag, bad)
        assert str(bad) in capsys.readouterr().err, (flag, bad)

    # a registry that is not UTF-8, or whose CSV path is a directory
    (workspace / "datasets.json").write_bytes(b'{"sine": {"path": "sine.csv"}} \xb0')
    assert run_cli("pretrain", "--config", workspace / "run.json", "--out", workspace / "x7") == 2
    assert "datasets.json" in capsys.readouterr().err
    (workspace / "datasets.json").write_text(json.dumps({"sine": {"path": "folder"}}))
    assert run_cli("pretrain", "--config", workspace / "run.json", "--out", workspace / "x8") == 2
    assert "sine" in capsys.readouterr().err


def test_missing_dataset_file_names_the_dataset(workspace, capsys):
    (workspace / "datasets.json").write_text(
        json.dumps({"ghost": {"path": "ghost.csv"}}))
    assert run_cli("pretrain", "--config", workspace / "run.json",
                   "--out", workspace / "x5") == 2
    assert "ghost" in capsys.readouterr().err


def test_seed_override_changes_resolved_config(workspace):
    cfg = workspace / "run.json"
    a, b = workspace / "s0", workspace / "s9"
    assert run_cli("pretrain", "--config", cfg, "--out", a) == 0
    assert run_cli("pretrain", "--config", cfg, "--out", b, "--seed", "9") == 0
    ca = json.loads((a / "resolved_config.json").read_text())
    cb = json.loads((b / "resolved_config.json").read_text())
    assert ca["seed"] == 0 and cb["seed"] == 9
    assert (a / "checkpoint.bin").read_bytes() != (b / "checkpoint.bin").read_bytes()


def test_seed_override_reaches_the_window_jitter(workspace, capsys):
    # a resolved config repeats its seed as sampler.seed; --seed must still
    # move the jitter, so both configs give one run
    cfg = workspace / "run.json"
    assert run_cli("pretrain", "--config", cfg, "--out", workspace / "s3", "--seed", "3") == 0
    shutil.copy(workspace / "s3" / "resolved_config.json", workspace / "resolved.json")
    a, b = workspace / "a5", workspace / "b5"
    assert run_cli("pretrain", "--config", cfg, "--out", a, "--seed", "5") == 0
    assert run_cli("pretrain", "--config", workspace / "resolved.json", "--out", b, "--seed", "5") == 0
    for name in ("checkpoint.bin", "loss.csv", "resolved_config.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert json.loads((b / "resolved_config.json").read_text())["sampler"]["seed"] == 5

    # a sampler seed other than the file's own seed is refused, naming both
    run = json.loads(cfg.read_text())
    (workspace / "split.json").write_text(json.dumps({**run, "seed": 4, "sampler": {"seed": 7}}))
    assert run_cli("pretrain", "--config", workspace / "split.json", "--out", workspace / "x") == 2
    err = capsys.readouterr().err
    assert "7" in err and "4" in err and "sampler" in err
    assert not (workspace / "x" / "resolved_config.json").exists()


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_every_seed_site_refuses_what_valid_seed_refuses(workspace, seed):
    # one rule, each site with its own error: a sampler seed used to reach
    # numpy unchecked, and the run and manifest refused numpy integers
    assert not valid_seed(seed) and valid_seed(np.int64(3))
    with pytest.raises(ConfigError, match=f"^sampler seed must be a non-negative integer, got {seed!r}$"):
        SamplerConfig(stride=4, seed=seed)
    with pytest.raises(UsageError, match="^model seed must be a non-negative integer"):
        UShapedTransformer(preset("tiny"), seed=seed)
    model = UShapedTransformer(preset("tiny"), seed=0)
    with pytest.raises(UsageError, match="^checkpoint seed must be a non-negative integer"):
        save_checkpoint(model, workspace / "ck.bin", seed=seed)
    run = json.loads((workspace / "run.json").read_text())
    (workspace / "bad.json").write_text(json.dumps({**run, "seed": seed}))
    with pytest.raises(ConfigError, match="^seed must be a non-negative integer"):
        RunConfig.load(workspace / "bad.json")
    save_checkpoint(model, workspace / "ck.bin", seed=0)
    raw = (workspace / "ck.bin").read_bytes()
    (mlen,) = struct.unpack("<Q", raw[:8])
    manifest = json.loads(raw[8:8 + mlen])
    mjson = json.dumps({**manifest, "seed": seed}).encode()
    (workspace / "ck.bin").write_bytes(struct.pack("<Q", len(mjson)) + mjson + raw[8 + mlen:])
    with pytest.raises(CheckpointError, match="manifest field 'seed' must be a non-negative integer"):
        load_checkpoint(workspace / "ck.bin")


def test_shipped_run_configs_load():
    configs = Path(__file__).resolve().parent.parent / "configs"
    runs = [p for p in sorted(configs.glob("*.json")) if p.name != "datasets.json"]
    assert runs
    for path in runs:
        cfg = RunConfig.load(path)
        assert (cfg.config_dir / cfg.registry).is_file(), path
        assert cfg.sampler.seed == cfg.seed


def test_failing_config_command_writes_no_resolved_config(workspace, capsys):
    cfg = workspace / "run.json"
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), workspace / "ck.bin")
    cases = {
        "channel": ["forecast", "--checkpoint", workspace / "ck.bin",
                    "--input", workspace / "probe.csv", "--channel", "5"],
        "attn": ["attn-dump", "--checkpoint", workspace / "ck.bin",
                 "--input", workspace / "probe.csv", "--channel", "-1"],
        "horizons": ["eval", "--checkpoint", workspace / "ck.bin", "--horizons", "8,x"],
    }
    for name, argv in cases.items():
        out = workspace / name
        assert run_cli(*argv, "--config", cfg, "--out", out) == 2, name
        assert "error:" in capsys.readouterr().err, name
        assert out.is_dir() and not any(out.iterdir()), name


def test_a_csv_cell_past_the_float32_range_exits_2_and_is_named(workspace, capsys, monkeypatch):
    cells = [f"{np.sin(i / 3):.6f}" for i in range(40)]
    (workspace / "huge.csv").write_text("v\n" + "\n".join(cells[:7] + ["1e39"] + cells[8:]) + "\n")
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), workspace / "ck.bin")
    named = "huge.csv: value '1e39' at row 9, column 'v' is not a finite float32"
    for policy in ("always", "error"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(policy)
            assert run_cli("forecast", "--config", workspace / "run.json", "--out", workspace / policy,
                           "--checkpoint", workspace / "ck.bin", "--input", workspace / "huge.csv") == 2
        assert not caught, [str(w.message) for w in caught]
        assert named in capsys.readouterr().err, policy
        assert not (workspace / policy / "forecast.csv").exists()
    monkeypatch.setenv("PYTHONWARNINGS", "error")
    proc = run_utsf("forecast", "--config", workspace / "run.json", "--out", workspace / "sub",
                    "--checkpoint", workspace / "ck.bin", "--input", workspace / "huge.csv")
    assert proc.returncode == 2 and named in proc.stderr, proc.stderr
    # the largest float32 is about 3.4e38: a 3e38 cell loads as written
    (workspace / "large.csv").write_text("v\n" + "\n".join(cells[:7] + ["3e38"] + cells[8:]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_csv_dataset(workspace / "large.csv", "large").values[0, 7] == np.float32(3e38)


def test_a_checkpoint_manifest_config_names_every_field_and_no_preset(workspace, capsys):
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), workspace / "ck.bin")
    blob = (workspace / "ck.bin").read_bytes()
    n = struct.unpack("<Q", blob[:8])[0]
    manifest = json.loads(blob[8:8 + n])
    short = {k: v for k, v in manifest["config"].items() if k != "d_model"}
    for config, named in (({"preset": "tiny"}, "unknown model config keys: ['preset']"),
                          ({**manifest["config"], "preset": "tiny"}, "unknown model config keys: ['preset']"),
                          (short, "model config is missing keys: ['d_model']")):
        doctored = json.dumps({**manifest, "config": config}).encode()
        (workspace / "bad.bin").write_bytes(struct.pack("<Q", len(doctored)) + doctored + blob[8 + n:])
        assert run_cli("forecast", "--config", workspace / "run.json", "--out", workspace / "fc",
                       "--checkpoint", workspace / "bad.bin", "--input", workspace / "probe.csv") == 2
        assert f"bad.bin: manifest field 'config': {named}" in capsys.readouterr().err, config
        assert not (workspace / "fc" / "forecast.csv").exists()
    assert run_cli("forecast", "--config", workspace / "run.json", "--out", workspace / "fc",
                   "--checkpoint", workspace / "ck.bin", "--input", workspace / "probe.csv") == 0
