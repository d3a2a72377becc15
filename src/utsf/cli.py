"""Command-line workflows: pretrain, finetune, eval, forecast, attn-dump,
gradcheck.

Exit codes: 0 success, 2 usage/config problems, 3 numeric failure. Every run
writes its resolved config next to its outputs, and identical config + seed
reproduces every output file byte for byte (timing goes to stderr only).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data as D
from . import tensor as T
from . import training as TR
from .errors import CheckpointError, ConfigError, IngestionError, NumericError, UsageError
from .model import (ModelConfig, UShapedTransformer, _raise_mmap_threshold, config_from_dict, config_to_dict,
                    preset, valid_seed)
from .tensor import Tensor, finite_diff_check

_RUN_KEYS = {"model", "sampler", "trainer", "registry", "seed"}


@dataclass
class RunConfig:
    model: ModelConfig
    sampler: D.SamplerConfig
    trainer: TR.TrainerConfig
    registry: str | None
    seed: int
    config_dir: Path

    @classmethod
    def load(cls, path, seed_override=None) -> "RunConfig":
        path = Path(path)
        raw = D.read_json_object(path, "config file")
        unknown = set(raw) - _RUN_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)} (allowed: {sorted(_RUN_KEYS)})")
        if "model" not in raw:
            raise ConfigError("config must define 'model'")
        registry = raw.get("registry")
        if registry is not None and not isinstance(registry, str):
            raise ConfigError(f"config 'registry' must be a path string, got {registry!r}")
        file_seed = raw.get("seed", 0)
        # the file's own seed is checked even when --seed overrides it
        for seed in (file_seed, seed_override):
            if seed is not None and not valid_seed(seed):
                raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
        seed = file_seed if seed_override is None else seed_override
        section = raw.get("sampler", {})
        if isinstance(section, dict) and "seed" in section:
            raise ConfigError("unknown sampler config keys: ['seed'] "
                              "(the jitter seed is the run's top-level 'seed')")
        return cls(
            model=ModelConfig.from_dict(raw["model"]),
            sampler=replace(config_from_dict(D.SamplerConfig, section, "sampler"), seed=seed),
            trainer=config_from_dict(TR.TrainerConfig, raw.get("trainer", {}), "trainer"),
            registry=registry,
            seed=seed,
            config_dir=path.parent,
        )

    def resolved(self) -> dict:
        return {
            "model": config_to_dict(self.model),
            "sampler": {"stride": self.sampler.stride, "jitter": self.sampler.jitter},
            "trainer": config_to_dict(self.trainer),
            "registry": self.registry,
            "seed": self.seed,
        }

    def load_frames(self) -> dict:
        if self.registry is None:
            raise ConfigError("this command needs a 'registry' entry in the config")
        return D.load_registry(self.config_dir / self.registry)


def _write(path: Path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# commands: each runs as ``cmd_x(args, cfg, out)`` once ``main`` has loaded
# the run config and created ``--out``; ``main`` writes the resolved config


def _train(cfg: RunConfig, model, frames: dict, phase: str, epoch_fn) -> TR.TrainReport:
    """Run ``epoch_fn`` for each configured epoch from the run seed, logging
    each epoch's mean loss and wall time."""
    optimizer = TR.Adam(model.params, lr=cfg.trainer.lr)
    rng = np.random.default_rng(cfg.seed)
    report = TR.TrainReport()
    for epoch in range(cfg.trainer.epochs):
        t0 = time.perf_counter()
        epoch_fn(model, frames, cfg.sampler, optimizer, cfg.trainer.steps_per_epoch, rng, epoch, report)
        _log(f"{phase} epoch {epoch}: mean loss {report.epoch_means[-1]:.6f} "
             f"({time.perf_counter() - t0:.1f}s)")
    return report


def _write_training(cfg: RunConfig, out: Path, model: UShapedTransformer, checkpoint_name: str,
                    report: TR.TrainReport) -> None:
    TR.save_checkpoint(model, out / checkpoint_name, seed=cfg.seed)
    _write(out / "loss.csv", report.loss_csv_text())
    _write(out / "report.json", report.json_text())


def cmd_pretrain(args, cfg: RunConfig, out: Path) -> None:
    frames = cfg.load_frames()
    model = UShapedTransformer(cfg.model, seed=cfg.seed)
    report = _train(cfg, model, frames, "pretrain", TR.pretrain_epoch)
    _write_training(cfg, out, model, "checkpoint.bin", report)


def cmd_finetune(args, cfg: RunConfig, out: Path) -> None:
    frames = cfg.load_frames()
    model, _ = TR.load_checkpoint(args.checkpoint, cfg.model)
    pre_hash = TR.backbone_hash(model)
    model.freeze_backbone()
    report = _train(cfg, model, frames, "finetune", TR.finetune_epoch)
    if TR.backbone_hash(model) != pre_hash:
        raise NumericError("backbone changed during finetune; freeze contract broken")
    _log("backbone hash unchanged by finetune")
    _write_training(cfg, out, model, "finetuned.bin", report)


def _parse_horizons(raw: str | None, horizon_len: int) -> list:
    """The flag's horizons, in order: distinct, in 1..horizon_len, none empty; without it, horizon_len."""
    if raw is None:
        return [horizon_len]
    try:
        horizons = [int(h) for h in raw.split(",")]
    except ValueError:
        raise ConfigError(f"bad --horizons value '{raw}': expected comma-separated integers") from None
    for i, h in enumerate(horizons):
        if h < 1 or h > horizon_len:
            raise ConfigError(f"horizon {h} outside 1..{horizon_len}")
        if h in horizons[:i]:
            raise ConfigError(f"bad --horizons value '{raw}': horizon {h} is repeated")
    return horizons


def cmd_eval(args, cfg: RunConfig, out: Path) -> None:
    frames = cfg.load_frames()
    horizons = _parse_horizons(args.horizons, cfg.model.horizon_len)
    results: dict = {}  # model -> dataset -> horizon -> metrics

    def run(tag, predictor):
        results[tag] = {}
        for ds_id in sorted(frames):
            per_h = TR.evaluate(predictor, frames[ds_id], cfg.model.lookback_len,
                                cfg.model.horizon_len, horizons)
            results[tag][ds_id] = {str(h): per_h[h] for h in horizons}

    ushape = TR.ModelPredictor(TR.load_checkpoint(args.checkpoint, cfg.model)[0])
    if args.baseline:  # fitted before any scoring: a registry the fit cannot use fails first
        linear = TR.BaselinePredictor(*TR.fit_linear(frames, cfg.sampler, cfg.model.lookback_len,
                                                     cfg.model.horizon_len))
    run("ushape", ushape)
    if args.baseline:
        run("linear", linear)

    # a dataset id may hold a comma, a quote or a line break: csv quotes it
    body = io.StringIO()
    rows = csv.writer(body, lineterminator="\n")
    for tag, per_ds in results.items():
        for ds_id, per_h in per_ds.items():
            for h, m in per_h.items():
                rows.writerow([tag, ds_id, h, f"{m['mse']:.8e}", f"{m['mae']:.8e}", f"{m['mape']:.8e}"])
    _write(out / "metrics.csv", "model,dataset,horizon,mse,mae,mape\n" + body.getvalue())
    _write(out / "metrics.json", json.dumps(results, sort_keys=True, indent=2) + "\n")
    _log(body.getvalue().rstrip("\n"))


def _request(args, cfg: RunConfig):
    """The checkpoint's model and its input: the last ``lookback_len`` values
    of channel ``--channel`` of ``--input`` (all of a shorter one), normalized
    by their own statistics. Returns the model, the model input, the length
    of the window used and the (mu, sigma) that denormalize a forecast."""
    frame = D.load_csv_dataset(args.input, "input")
    if not 0 <= args.channel < frame.n_channels:
        raise ConfigError(f"--channel {args.channel} outside 0..{frame.n_channels - 1}")
    norm, mu, sigma = D.normalize_sample(frame.values[args.channel, -cfg.model.lookback_len:].reshape(1, -1))
    model, _ = TR.load_checkpoint(args.checkpoint, cfg.model)
    return model, Tensor(D.build_model_input(norm, cfg.model)), norm.shape[1], (mu, sigma)


def cmd_forecast(args, cfg: RunConfig, out: Path) -> None:
    model, x, _, (mu, sigma) = _request(args, cfg)
    values = model.forecast(x).data[0]
    if args.denormalize:
        values = D.denormalize(values, mu, sigma)
        if not T.all_finite(values):
            raise NumericError(f"the denormalized forecast overflows float32 (mu {mu:.6g}, sigma {sigma:.6g})")
    # Python floats format as numpy scalars do, at a third less cost per row
    lines = ["t,value"] + [f"{t},{v:.8e}" for t, v in enumerate(values.tolist())]
    _write(out / "forecast.csv", "\n".join(lines) + "\n")


def cmd_attn_dump(args, cfg: RunConfig, out: Path) -> None:
    n = cfg.model.n_patches
    if n < 2:
        raise ConfigError(f"attn-dump's known-vs-padded report needs at least 2 tokens; this model has {n}")
    model, x, input_len, _ = _request(args, cfg)
    _, maps = model.backbone_forward(model.patch_embed(x))
    for m in maps:
        lines = [",".join(f"{w:.6g}" for w in row) for row in m.weights]
        _write(out / f"attn_{m.side}_L{m.level}.csv", "\n".join(lines) + "\n")
    # known-vs-padded mass on the first encoder map: queries restricted to the
    # known region, mass normalized per key (report only, A.4-style observation)
    n_known = max(1, min(n - 1, n * input_len // (input_len + cfg.model.horizon_len)))
    first = next(m for m in maps if m.side == "enc" and m.level == 1)
    known_mass = float(first.weights[:n_known, :n_known].mean())
    padded_mass = float(first.weights[:n_known, n_known:].mean())
    report = {
        "n_tokens": n,
        "n_known_tokens": n_known,
        "mean_attention_per_known_key": round(known_mass, 10),
        "mean_attention_per_padded_key": round(padded_mass, 10),
        "known_exceeds_padded": known_mass > padded_mass,
    }
    _write(out / "attn_report.json", json.dumps(report, sort_keys=True, indent=2) + "\n")
    _log(f"known-region mass {known_mass:.4g} vs padded {padded_mass:.4g}")


# ---------------------------------------------------------------------------
# gradient verification suite

# the gradient gate's one bar on each input's max relative error at float64
GRADCHECK_TOLERANCE = 1e-6


def _op_cases(rng):
    """Scalar-loss closures over fresh float64 tensors, one per op."""
    f64 = np.float64

    def t(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=f64)

    def sq(x):
        return T.mean_all(T.mul(x, x))

    cases = {
        "matmul": (lambda i: sq(T.matmul(i["a"], i["b"])), {"a": t(3, 4), "b": t(4, 2)}),
        "linear": (lambda i: sq(T.linear(i["x"], i["w"], i["b"])), {"x": t(5, 3), "w": t(3, 2), "b": t(2)}),
        # 2 windows x 3 tokens, 2 heads of 2 features
        "attention": (lambda i: sq(T.attention(i["q"], i["k"], i["v"], 2, 2)[0]),
                      {"q": t(6, 4), "k": t(6, 4), "v": t(6, 4)}),
        "conv1d_k2s2": (lambda i: sq(T.conv1d_k2s2(i["x"], i["w"], i["b"])),
                        {"x": t(6, 2), "w": t(4, 3), "b": t(3)}),
        "conv_transpose1d_k2s2": (lambda i: sq(T.conv_transpose1d_k2s2(i["x"], i["w"], i["b"])),
                                  {"x": t(3, 3), "w": t(3, 4), "b": t(2)}),
        "pointwise_conv": (lambda i: sq(T.pointwise_conv(i["x"], i["w"], i["b"])),
                           {"x": t(5, 2), "w": t(2, 3), "b": t(3)}),
        "softmax_lastdim": (lambda i: sq(T.softmax_lastdim(i["x"])), {"x": t(3, 5)}),
        "layer_norm": (lambda i: sq(T.layer_norm(i["x"], i["g"], i["b"])),
                       {"x": t(4, 6), "g": t(6), "b": t(6)}),
        "gelu": (lambda i: sq(T.gelu(i["x"])), {"x": t(3, 4)}),
        "add_broadcast": (lambda i: sq(T.add(i["a"], i["b"])), {"a": t(3, 4), "b": t(4)}),
        "sub_broadcast": (lambda i: sq(T.sub(i["a"], i["b"])), {"a": t(3, 4), "b": t(4)}),
        "mul": (lambda i: sq(T.mul(i["a"], i["b"])), {"a": t(3, 4), "b": t(3, 4)}),
        "neg": (lambda i: sq(T.neg(i["x"])), {"x": t(3, 4)}),
        "sum_all": (lambda i: sq(T.mul(i["a"], T.sum_all(i["x"]))), {"a": t(3), "x": t(2, 3)}),
        "narrow": (lambda i: sq(T.narrow(i["x"], 1, 1, 3)), {"x": t(2, 5)}),
        "concat": (lambda i: sq(T.concat([i["a"], i["b"]], 1)), {"a": t(2, 1), "b": t(2, 3)}),
        "reshape_transpose": (lambda i: sq(T.transpose(T.reshape(i["x"], (2, 6)), (1, 0))), {"x": t(3, 4)}),
    }
    return cases


def _gate(label: str, errors: dict[str, float], log) -> bool:
    ok = all(e < GRADCHECK_TOLERANCE for e in errors.values())
    log(f"{label}: worst rel err {max(errors.values()):.3e} {'ok' if ok else 'FAIL'}")
    return ok


def run_gradient_suite(n_seeds: int = 3, log=print) -> bool:
    """Finite-difference every op (float64) and a subsampled tiny backbone
    against ``GRADCHECK_TOLERANCE``."""
    ok = True
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        for name, (fn, inputs) in _op_cases(rng).items():
            ok &= _gate(f"seed {seed} {name}", finite_diff_check(fn, inputs), log)
        model = UShapedTransformer(preset("tiny"), seed=seed, dtype=np.float64)
        x = Tensor(rng.standard_normal((1, model.config.model_len)), dtype=np.float64)

        def loss_fn(_inputs):
            pred = model.reconstruct(x)
            return T.mean_all(T.mul(pred, pred))

        errors = finite_diff_check(loss_fn, dict(model.params.items()), max_entries=4, seed=seed)
        ok &= _gate(f"seed {seed} tiny backbone", errors, log)
    return ok


def cmd_gradcheck(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"gradcheck needs --seeds >= 1, got {args.seeds}")
    ok = run_gradient_suite(n_seeds=args.seeds)
    print("gradient suite: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: built at the first call, after which
    each ``parse_args`` returns a fresh namespace."""
    parser = argparse.ArgumentParser(prog="utsf",
                                     description="U-shaped transformer forecasting workflows")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        p.add_argument("--out", default=".", help="output directory")

    def request(p):
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--input", required=True, help="input series CSV")
        p.add_argument("--channel", type=int, default=0)

    p = sub.add_parser("pretrain", help="masked-reconstruction pretraining")
    common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="frozen-backbone forecast finetuning")
    common(p)
    p.add_argument("--checkpoint", required=True, help="pretrained checkpoint")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="metrics over the test split")
    common(p)
    p.add_argument("--checkpoint", required=True, help="model checkpoint")
    p.add_argument("--horizons", help="comma-separated horizons, e.g. 96,192,336,720")
    p.add_argument("--baseline", action="store_true", help="also fit and score the least-squares linear baseline")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("forecast", help="forecast from an input CSV")
    common(p)
    request(p)
    p.add_argument("--denormalize", action="store_true", help="restore original scale")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("attn-dump", help="export attention maps per level and side")
    common(p)
    request(p)
    p.set_defaults(func=cmd_attn_dump)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("--seeds", type=int, default=3)

    return parser


def main(argv=None) -> int:
    _raise_mmap_threshold()  # before the model build, so a run's data arrays reuse the heap too
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on usage errors; keep it callable
        return int(e.code or 0)
    try:
        if args.command == "gradcheck":
            return cmd_gradcheck(args)
        cfg = RunConfig.load(args.config, args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        args.func(args, cfg, out)
        _write(out / "resolved_config.json", json.dumps(cfg.resolved(), sort_keys=True, indent=2) + "\n")
        return 0
    except (ConfigError, UsageError, IngestionError, CheckpointError, OSError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2
    except (NumericError, RuntimeWarning) as e:  # numpy's warnings, when raised as errors
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
