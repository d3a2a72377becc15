"""The three benchmark workloads, their seeded inputs and their output checks.

Each workload runs in one process as a closed loop with one caller: the next
operation starts when the previous one returns. ``prep`` writes every input
the program sees (CSVs, registry, run config, checkpoints) and is never
timed; ``setup`` builds what the loop needs and is timed as ``setup_s``;
``op`` is one operation of the loop and is timed as ``latency_ms``.

Why each workload:

- ``pretrain_small``: masked pretraining at the ``small`` preset with every
  parameter trainable. Adam over all 1.46M scalars, the full VJP and masking
  dominate, so optimizer and backward changes show here. The registry holds
  a 50k x 8 CSV, so CSV ingestion is a real part of set-up.
- ``finetune_eval_small``: head-only finetuning over a frozen ``small``
  backbone, then evaluation of every channel's test split at horizons
  96/192/336/720. Adam touches about 0.3% of the scalars and most of the
  backward pass is spent on frozen parameters; eval is forward-only. Batching
  and finetune changes show here; Adam changes should not.
- ``forecast_base``: in-process ``utsf forecast --denormalize`` requests
  against a ``base`` checkpoint (128 tokens) with an input shorter than the
  lookback, so the pooling path runs. No tape, no optimizer: config parsing,
  CSV ingestion, checkpoint parsing, model construction, the long forward
  pass and the artifact write share the latency. Training changes must not
  move it. Its set-up is a cold ``utsf forecast`` in a fresh interpreter.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from utsf import cli as C
from utsf import data as D
from utsf import model as M
from utsf import training as TR

HORIZONS = (96, 192, 336, 720)
QUALITY_HORIZON = 720


def _write_csv(path: Path, names: list, values: np.ndarray) -> None:
    """Channels-major float values -> header row plus one row per time step."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, values.T, fmt="%.8e", delimiter=",", header=",".join(names), comments="")


def _sines(rng, n_channels: int, length: int, n_waves: int, period_range, noise: float) -> np.ndarray:
    t = np.arange(length, dtype=np.float64)
    shape = (n_channels, n_waves, 1)
    periods = rng.uniform(*period_range, size=shape)
    amps = rng.uniform(0.3, 1.5, size=shape)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    values = (amps * np.sin(2.0 * np.pi * t / periods + phases)).sum(axis=1)
    return values + noise * rng.standard_normal((n_channels, length))


def write_registry(directory: Path, seed: int) -> Path:
    """Sine 4ch x 20k, log-trend 2ch x 20k and noisy multi-sine 8ch x 50k."""
    rng = np.random.default_rng([seed, 1])
    sine = _sines(rng, 4, 20_000, 1, (24.0, 200.0), 0.05)
    t = np.arange(20_000, dtype=np.float64)
    scales = rng.uniform(0.5, 2.0, size=(2, 1))
    log = scales * np.log1p(t) + np.arange(2.0)[:, None] + 0.05 * rng.standard_normal((2, t.size))
    multi = _sines(rng, 8, 50_000, 3, (16.0, 400.0), 0.3)
    _write_csv(directory / "sine.csv", [f"sine{c}" for c in range(4)], sine)
    _write_csv(directory / "log.csv", [f"log{c}" for c in range(2)], log)
    _write_csv(directory / "multi.csv", [f"multi{c}" for c in range(8)], multi)
    registry = {name: {"path": f"{name}.csv"} for name in ("sine", "log", "multi")}
    path = directory / "datasets.json"
    path.write_text(json.dumps(registry, indent=2) + "\n", encoding="utf-8")
    return path


class Workload:
    """Base: subclasses define prep/setup/op/quality/checks."""

    min_ops = 100       # p90 needs at least ten samples beyond it
    period = 1          # the loop stops only after a multiple of this many ops

    def __init__(self, directory: Path, seed: int):
        self.dir = directory
        self.seed = seed

    def rooted(self, name: str, ident, fn, *args):
        """Run ``fn(*args)``; the runner replaces this to open a root span when tracing."""
        return fn(*args)

    def after_op(self, i: int) -> None:
        pass

    def extra_attempted(self) -> int:
        return 0

    def quality(self) -> dict:
        """Seeded, deterministic quality figures: printed, not gated."""
        return {}

    def windows_per_s(self, latencies: list) -> float:
        """One window per loop operation: operations per second in each
        stretch of at least one second of operation time, median over the
        stretches, so a short stall of the host moves one stretch only."""
        rates, n, busy = [], 0, 0.0
        for dt in latencies:
            n, busy = n + 1, busy + dt
            if busy >= 1.0:
                rates.append(n / busy)
                n, busy = 0, 0.0
        return float(np.median(rates)) if rates else len(latencies) / sum(latencies)

    def window_count(self, latencies: list) -> int:
        return len(latencies)


class PretrainSmall(Workload):
    quality_steps = 200   # final_loss: mean loss over the 50 steps before this one
    min_ops = 200
    lr = 5e-4

    def prep(self) -> None:
        self.registry = write_registry(self.dir, self.seed)
        self.config = M.preset("small")

    def setup(self) -> None:
        self.frames = D.load_registry(self.registry)
        self.model = M.UShapedTransformer(self.config, seed=self.seed)
        self.optimizer = TR.Adam(self.model.params, lr=self.lr)
        self.sampler = D.SamplerConfig(stride=64, jitter=True, seed=self.seed)
        self.rng = np.random.default_rng(self.seed)
        self.report = TR.TrainReport()

    def op(self, i: int) -> None:
        TR.pretrain_epoch(self.model, self.frames, self.sampler, self.optimizer, 1,
                          self.rng, epoch=0, report=self.report)

    def quality(self) -> dict:
        losses = self.report.steps[self.quality_steps - 50:self.quality_steps]
        return {"final_loss": float(np.mean(losses))}

    def checks(self) -> list:
        steps = np.asarray(self.report.steps)
        first, last = steps[:50].mean(), steps[self.quality_steps - 50:self.quality_steps].mean()
        return [
            ("losses finite", bool(np.all(np.isfinite(steps))), f"{steps.size} steps"),
            ("pretrain loss falls", bool(last < first),
             f"mean of steps 0-49 {first:.4f}, of steps {self.quality_steps - 50}-{self.quality_steps - 1} {last:.4f}"),
        ]


class FinetuneEvalSmall(Workload):
    pretrain_steps = 60   # untimed prep that makes the pretrain checkpoint
    period = 50           # finetune steps between eval passes; eval_mse comes from the first pass
    min_ops = 200
    lr = 1e-3

    def prep(self) -> None:
        self.registry = write_registry(self.dir, self.seed)
        self.config = M.preset("small")
        frames = D.load_registry(self.registry)
        model = M.UShapedTransformer(self.config, seed=self.seed)
        optimizer = TR.Adam(model.params, lr=5e-4)
        sampler = D.SamplerConfig(stride=64, jitter=True, seed=self.seed)
        TR.pretrain_epoch(model, frames, sampler, optimizer, self.pretrain_steps,
                          np.random.default_rng([self.seed, 2]))
        self.checkpoint = self.dir / "pretrain.bin"
        TR.save_checkpoint(model, self.checkpoint, seed=self.seed)
        self.hash_before = TR.backbone_hash(model)
        self.eval_seconds: list[float] = []
        self.eval_windows: list[int] = []
        self.eval_results: list[dict] = []

    def setup(self) -> None:
        self.frames = D.load_registry(self.registry)
        self.model = M.UShapedTransformer(self.config, seed=self.seed)
        TR.apply_checkpoint(self.model, self.checkpoint)
        self.model.freeze_backbone()
        self.optimizer = TR.Adam(self.model.params, lr=self.lr)
        self.sampler = D.SamplerConfig(stride=64, jitter=True, seed=self.seed)
        self.rng = np.random.default_rng(self.seed)
        self.report = TR.TrainReport()

    def op(self, i: int) -> None:
        TR.finetune_epoch(self.model, self.frames, self.sampler, self.optimizer, 1,
                          self.rng, epoch=0, report=self.report)

    def _evaluate(self) -> tuple[dict, int]:
        predictor = TR.ModelPredictor(self.model)
        cfg = self.config
        results = {ds: TR.evaluate(predictor, frame, cfg.lookback_len, cfg.horizon_len, HORIZONS)
                   for ds, frame in sorted(self.frames.items())}
        return results, sum(r[HORIZONS[0]]["n_windows"] for r in results.values())

    def after_op(self, i: int) -> None:
        if (i + 1) % self.period:
            return
        t0 = time.perf_counter()
        results, n = self.rooted("bench.eval", i, self._evaluate)
        self.eval_seconds.append(time.perf_counter() - t0)
        self.eval_windows.append(n)
        self.eval_results.append(results)

    def extra_attempted(self) -> int:
        return sum(self.eval_windows)

    def windows_per_s(self, latencies: list) -> float:
        """Eval windows per second: median over the eval passes."""
        rates = [n / s for n, s in zip(self.eval_windows, self.eval_seconds)]
        return float(np.median(rates))

    def window_count(self, latencies: list) -> int:
        return sum(self.eval_windows)

    def quality(self) -> dict:
        first = self.eval_results[0]
        total = sum(r[QUALITY_HORIZON]["n_windows"] for r in first.values())
        mse = sum(r[QUALITY_HORIZON]["mse"] * r[QUALITY_HORIZON]["n_windows"] for r in first.values())
        return {f"eval_mse_h{QUALITY_HORIZON}": mse / total}

    def checks(self) -> list:
        steps = np.asarray(self.report.steps)
        values = [m[k] for res in self.eval_results for per_h in res.values()
                  for m in per_h.values() for k in ("mse", "mae", "mape")]
        return [
            ("losses finite", bool(np.all(np.isfinite(steps))), f"{steps.size} steps"),
            ("backbone_hash unchanged by finetune", TR.backbone_hash(self.model) == self.hash_before, ""),
            ("eval metrics finite", bool(values) and all(math.isfinite(v) for v in values),
             f"{len(self.eval_results)} eval passes"),
        ]


class ForecastBase(Workload):
    input_len = 2500      # != base lookback 3072, so build_model_input pools

    def prep(self) -> None:
        self.config = M.preset("base")
        rng = np.random.default_rng([self.seed, 3])
        self.probe = self.dir / "probe.csv"
        _write_csv(self.probe, ["value"], _sines(rng, 1, self.input_len, 3, (32.0, 400.0), 0.1))
        model = M.UShapedTransformer(self.config, seed=self.seed)
        model.freeze_backbone()
        self.checkpoint = self.dir / "base.bin"
        TR.save_checkpoint(model, self.checkpoint, seed=self.seed)
        self.run_config = self.dir / "forecast.json"
        self.run_config.write_text(json.dumps({"model": {"preset": "base"}, "seed": self.seed}) + "\n",
                                   encoding="utf-8")
        self.out = self.dir / "out"
        self.outputs: list[bytes] = []

    def argv(self, out: Path) -> list:
        return ["forecast", "--config", str(self.run_config), "--out", str(out),
                "--checkpoint", str(self.checkpoint), "--input", str(self.probe), "--denormalize"]

    def setup(self) -> None:
        """A cold ``utsf forecast`` in a fresh interpreter: import plus first request."""
        src = str(Path(C.__file__).resolve().parent.parent)
        code = (f"import sys; sys.path.insert(0, {src!r}); from utsf.cli import main; "
                f"sys.exit(main({self.argv(self.dir / 'cold')!r}))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"cold forecast exited {done.returncode}: {done.stderr.strip()}")

    def op(self, i: int) -> None:
        code = C.main(self.argv(self.out))
        if code != 0:
            raise RuntimeError(f"forecast exited {code}")

    def after_op(self, i: int) -> None:
        # reading the artifact back is part of checking, not of the request
        self.outputs.append((self.out / "forecast.csv").read_bytes())

    def _values(self) -> np.ndarray:
        rows = self.outputs[0].decode("utf-8").strip().split("\n")[1:]
        return np.array([float(r.split(",")[1]) for r in rows])

    def checks(self) -> list:
        values = self._values() if self.outputs else np.zeros(0)
        return [
            ("forecast has horizon_len finite rows",
             values.size == self.config.horizon_len and bool(np.all(np.isfinite(values))),
             f"{values.size} rows"),
            ("forecasts byte-identical across requests",
             bool(self.outputs) and all(o == self.outputs[0] for o in self.outputs),
             f"{len(self.outputs)} requests"),
        ]


WORKLOADS = {
    "pretrain_small": PretrainSmall,
    "finetune_eval_small": FinetuneEvalSmall,
    "forecast_base": ForecastBase,
}
