"""Release acceptance gate.

Ten end-to-end checks, one test per criterion, each printing a single
PASS/FAIL line (visible with ``pytest -s`` or in failure reports). The
tolerances and budgets here are pinned; loosening them is a release
decision, not a test fix.
"""

import csv
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from utsf import tensor as T
from utsf.cli import GRADCHECK_TOLERANCE, main, run_gradient_suite
from utsf.data import (SamplerConfig, SeriesFrame, make_sine_frame,
                       normalize_sample, denormalize, save_csv_dataset,
                       weighted_sample, window_starts, zero_mask_patches)
from utsf.model import UShapedTransformer, patch_merge_naive, preset
from utsf.tensor import GradTape, Tensor
from utsf.training import (Adam, LastValuePredictor, ModelPredictor, evaluate,
                           backbone_hash, finetune_epoch, load_checkpoint,
                           pretrain_epoch, save_checkpoint)


@contextmanager
def criterion(n: int, title: str):
    detail = {}
    try:
        yield detail
    except BaseException as e:
        print(f"criterion {n:02d} [{title}]: FAIL ({e})")
        raise
    extra = f" ({detail['note']})" if "note" in detail else ""
    print(f"criterion {n:02d} [{title}]: PASS{extra}")


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------


def test_criterion_01_gradients_match_finite_differences():
    # every op plus the assembled backbone, 20 seeds, f64, rel err <= 1e-6,
    # inside a 120 s budget
    with criterion(1, "autodiff vs finite differences") as detail:
        t0 = time.perf_counter()
        assert GRADCHECK_TOLERANCE == 1e-6
        ok = run_gradient_suite(n_seeds=20, log=lambda *_: None)
        elapsed = time.perf_counter() - t0
        assert ok, "finite-difference suite reported a failure"
        assert elapsed < 120.0, f"took {elapsed:.1f} s, budget is 120 s"
        detail["note"] = f"20 seeds in {elapsed:.1f} s"


def test_criterion_02_preset_shape_towers():
    with criterion(2, "preset token geometry") as detail:
        small, base = preset("small"), preset("base")
        assert small.model_len == 1536 and small.n_patches == 48
        assert base.model_len == 4096 and base.n_patches == 128
        for cfg in (small, base):
            n, d = cfg.n_patches, cfg.d_model
            for lvl in range(1, cfg.n_levels + 1):
                assert cfg.level_shape(lvl) == (n >> (lvl - 1), d << (lvl - 1))
        m = UShapedTransformer(small, seed=0)
        tokens = m.patch_embed(Tensor(np.zeros((1, 1536), dtype=np.float32)))
        assert tokens.shape == (48, 64)
        m = UShapedTransformer(base, seed=0)
        tokens = m.patch_embed(Tensor(np.zeros((1, 4096), dtype=np.float32)))
        assert tokens.shape == (128, 64)
        detail["note"] = "small 48x64, base 128x64, doubling towers intact"


def test_criterion_03_zeroed_decoder_identity():
    # with the decoder contribution zeroed, skip summation must return the
    # embedded input bit for bit
    with criterion(3, "skip path identity") as detail:
        for name, seed in (("tiny", 0), ("small", 3)):
            m = UShapedTransformer(preset(name), seed=seed)
            x = np.random.default_rng(seed).standard_normal((1, m.config.model_len))
            tokens = m.patch_embed(Tensor(x.astype(np.float32)))
            out, _ = m.backbone_forward(tokens, zero_decoder=True)
            assert out.data.tobytes() == tokens.data.tobytes(), name
        detail["note"] = "bitwise on tiny and small"


def test_criterion_04_merge_locality():
    with criterion(4, "merge receptive fields") as detail:
        m = UShapedTransformer(preset("tiny"), seed=5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 8)).astype(np.float32)
        learn_base = m.patch_merge(Tensor(x), 1).data
        naive_base = patch_merge_naive(Tensor(x)).data
        for src in range(8):
            bumped = x.copy()
            bumped[src] += 1.0
            learn = m.patch_merge(Tensor(bumped), 1).data
            naive = patch_merge_naive(Tensor(bumped)).data
            learn_hits = set(np.where(np.any(learn != learn_base, axis=1))[0])
            naive_hits = set(np.where(np.any(naive != naive_base, axis=1))[0])
            assert learn_hits == {src // 2}, f"learnable: token {src} -> {learn_hits}"
            assert naive_hits == {src % 4}, f"naive: token {src} -> {naive_hits}"
        detail["note"] = "learnable pairs (2t, 2t+1); naive pairs (t, t+P/2)"


def test_criterion_05_pipeline_oracles():
    with criterion(5, "sampling and normalization oracles") as detail:
        # stride enumeration
        starts = window_starts(10, 2, SamplerConfig(stride=3, jitter=False))
        assert starts.tolist() == [0, 3, 6]
        # jitter stays in its lane and windows fit
        sampler = SamplerConfig(stride=6, jitter=True, seed=1)
        for epoch in range(3):
            s = window_starts(90, 12, sampler, epoch=epoch)
            base = np.arange(len(s)) * 6
            assert np.all((s >= base) & (s <= base + 3)) and np.all(s + 12 <= 90)
        # dataset draws are uniform regardless of window counts
        rng = np.random.default_rng(0)
        table = [("a", 10), ("b", 1000), ("c", 100000)]
        draws = [weighted_sample(table, rng) for _ in range(100_000)]
        freqs = [draws.count(k) / 1e5 for k, _ in table]
        assert all(abs(f - 1 / 3) < 0.02 for f in freqs), freqs
        # normalization round-trips through both branches at 1e-5
        rng = np.random.default_rng(1)
        wide = (rng.standard_normal(64) * 8 + 3).astype(np.float32)
        flat = np.full(64, 4.0, dtype=np.float32) + rng.standard_normal(64).astype(np.float32) * 1e-4
        for arr, divides in ((wide, True), (flat, False)):
            out, mu, sigma = normalize_sample(arr)
            assert (sigma >= 0.01) == divides
            assert np.allclose(denormalize(out, mu, sigma), arr, atol=1e-5)
        # masking selects exactly floor(ratio * n)
        rng = np.random.default_rng(2)
        assert zero_mask_patches(48, 0.4, rng).sum() == 19
        assert zero_mask_patches(10, 0.3, rng).sum() == 3
        detail["note"] = "stride {0,3,6}; draws within 0.02; round-trip 1e-5; mask counts exact"


def test_criterion_06_training_improves_over_baseline():
    # full pretrain -> finetune on a clean sine; the forecaster must halve its
    # reconstruction loss and beat the repeat-last-value baseline, in < 300 s
    with criterion(6, "learning on a sine") as detail:
        t0 = time.perf_counter()
        frames = {"sine": make_sine_frame("sine", n_channels=2, length=2048,
                                          period=16.0, seed=0)}
        sampler = SamplerConfig(stride=8, jitter=True, seed=0)
        m = UShapedTransformer(preset("tiny"), seed=0)
        rep = pretrain_epoch(m, frames, sampler, Adam(m.params, lr=1e-3),
                             steps=200, rng=np.random.default_rng(0))
        first = float(np.mean(rep.steps[:10]))
        last = float(np.mean(rep.steps[-10:]))
        assert last <= 0.5 * first, f"loss only moved {first:.3f} -> {last:.3f}"
        m.freeze_backbone()
        finetune_epoch(m, frames, sampler, Adam(m.params, lr=5e-3),
                       steps=200, rng=np.random.default_rng(1))
        model_mse = evaluate(ModelPredictor(m), frames["sine"], 32, 32,
                             horizons=[32], stride=16)[32]["mse"]
        naive_mse = evaluate(LastValuePredictor(32), frames["sine"], 32, 32,
                             horizons=[32], stride=16)[32]["mse"]
        assert model_mse < naive_mse, f"model {model_mse:.4f} vs last-value {naive_mse:.4f}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"took {elapsed:.1f} s, budget is 300 s"
        detail["note"] = (f"pretrain {first:.3f}->{last:.3f}; "
                          f"mse {model_mse:.4f} < {naive_mse:.4f}; {elapsed:.0f} s")


def test_criterion_07_finetune_freeze_contract(tmp_path):
    # the finetuned backbone must hash identically to the checkpoint it loaded
    with criterion(7, "backbone frozen during finetune") as detail:
        frames = {"sine": make_sine_frame("sine", n_channels=1, length=800,
                                          period=16.0, seed=2)}
        sampler = SamplerConfig(stride=8, jitter=True, seed=0)
        m = UShapedTransformer(preset("tiny"), seed=1)
        pretrain_epoch(m, frames, sampler, Adam(m.params, lr=1e-3),
                       steps=30, rng=np.random.default_rng(0))
        save_checkpoint(m, tmp_path / "pre.bin")
        pretrained = backbone_hash(m)
        loaded, _ = load_checkpoint(tmp_path / "pre.bin")
        assert backbone_hash(loaded) == pretrained
        loaded.freeze_backbone()
        finetune_epoch(loaded, frames, sampler, Adam(loaded.params, lr=5e-3),
                       steps=60, rng=np.random.default_rng(1))
        assert backbone_hash(loaded) == pretrained
        detail["note"] = f"hash {pretrained[:12]}... equals the checkpoint's after 60 steps"


def test_criterion_08_attention_maps_and_mass_report(tmp_path):
    with criterion(8, "attention maps and mass report") as detail:
        m = UShapedTransformer(preset("small"), seed=0)
        x = np.random.default_rng(3).standard_normal((1, 1536)).astype(np.float32)
        _, maps = m.backbone_forward(m.patch_embed(Tensor(x)))
        inventory = [(a.side, a.level, a.weights.shape) for a in maps]
        assert inventory == [("enc", 1, (48, 48)), ("enc", 2, (24, 24)),
                             ("enc", 3, (12, 12)), ("dec", 2, (24, 24)),
                             ("dec", 1, (48, 48))]
        for a in maps:
            assert np.allclose(a.weights.sum(axis=-1), 1.0, atol=1e-5), (a.side, a.level)
            assert np.all(a.weights >= 0.0)
        # the CLI must also emit the known-vs-padded mass report
        save_csv_dataset(make_sine_frame("probe", n_channels=1, length=40,
                                         period=16.0, seed=7), tmp_path / "probe.csv")
        (tmp_path / "reg.json").write_text(json.dumps({"probe": {"path": "probe.csv"}}))
        (tmp_path / "run.json").write_text(json.dumps(
            {"model": {"preset": "tiny"}, "registry": "reg.json"}))
        m2 = UShapedTransformer(preset("tiny"), seed=0)
        save_checkpoint(m2, tmp_path / "ck.bin")
        rc = run_cli("attn-dump", "--config", tmp_path / "run.json",
                     "--out", tmp_path / "attn", "--checkpoint", tmp_path / "ck.bin",
                     "--input", tmp_path / "probe.csv")
        assert rc == 0
        report = json.loads((tmp_path / "attn" / "attn_report.json").read_text())
        for key in ("n_tokens", "n_known_tokens", "mean_attention_per_known_key",
                    "mean_attention_per_padded_key", "known_exceeds_padded"):
            assert key in report, key
        detail["note"] = "rows sum to 1 within 1e-5 at all five maps; report emitted"


def test_criterion_09_bitwise_deterministic_runs(tmp_path):
    with criterion(9, "bitwise deterministic training") as detail:
        save_csv_dataset(make_sine_frame("sine", n_channels=2, length=420,
                                         period=16.0, seed=0), tmp_path / "sine.csv")
        (tmp_path / "reg.json").write_text(json.dumps({"sine": {"path": "sine.csv"}}))
        (tmp_path / "run.json").write_text(json.dumps({
            "model": {"preset": "tiny"},
            "sampler": {"stride": 8, "jitter": True},
            "trainer": {"lr": 1e-3, "epochs": 2, "steps_per_epoch": 20},
            "registry": "reg.json",
            "seed": 0,
        }))
        for out in ("a", "b"):
            assert run_cli("pretrain", "--config", tmp_path / "run.json",
                           "--out", tmp_path / out) == 0
        files = ("loss.csv", "checkpoint.bin", "report.json", "resolved_config.json")
        for name in files:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
        # read-only commands repeat byte for byte as well
        ck = tmp_path / "a" / "checkpoint.bin"
        for out in ("e1", "e2"):
            assert run_cli("eval", "--config", tmp_path / "run.json",
                           "--out", tmp_path / out, "--checkpoint", ck,
                           "--baseline", "--horizons", "8,32") == 0
        for name in ("metrics.csv", "metrics.json"):
            assert (tmp_path / "e1" / name).read_bytes() == \
                   (tmp_path / "e2" / name).read_bytes(), name
        for out in ("f1", "f2"):
            assert run_cli("forecast", "--config", tmp_path / "run.json",
                           "--out", tmp_path / out, "--checkpoint", ck,
                           "--input", tmp_path / "sine.csv") == 0
        assert (tmp_path / "f1" / "forecast.csv").read_bytes() == \
               (tmp_path / "f2" / "forecast.csv").read_bytes()
        detail["note"] = "pretrain, eval and forecast artifacts byte-identical across reruns"


def test_criterion_10_multi_horizon_eval_protocol(tmp_path):
    # the standard long-horizon comparison: model and least-squares linear fit
    # scored at 96/192/336/720 on a multivariate hourly-style dataset
    with criterion(10, "multi-horizon evaluation protocol") as detail:
        rng = np.random.default_rng(0)
        t = np.arange(9000, dtype=np.float64)
        chans = []
        for c in range(7):
            daily = np.sin(2 * np.pi * t / 24.0 + c * 0.7) * (1.0 + 0.3 * c)
            weekly = 0.5 * np.sin(2 * np.pi * t / 168.0 + c * 1.3)
            drift = 2e-4 * t * (c - 3)
            noise = 0.05 * rng.standard_normal(t.size)
            chans.append(daily + weekly + drift + noise)
        frame = SeriesFrame("energy", [f"load{i}" for i in range(6)] + ["temp"],
                            np.stack(chans).astype(np.float32))
        save_csv_dataset(frame, tmp_path / "energy.csv")
        (tmp_path / "reg.json").write_text(json.dumps({"energy": {"path": "energy.csv"}}))
        (tmp_path / "run.json").write_text(json.dumps({
            "model": {"preset": "small"},
            "sampler": {"stride": 64, "jitter": True},
            "trainer": {"lr": 1e-3, "epochs": 1, "steps_per_epoch": 20},
            "registry": "reg.json",
            "seed": 0,
        }))
        m = UShapedTransformer(preset("small"), seed=0)
        save_checkpoint(m, tmp_path / "ck.bin")
        rc = run_cli("eval", "--config", tmp_path / "run.json", "--out", tmp_path / "ev",
                     "--checkpoint", tmp_path / "ck.bin", "--baseline",
                     "--horizons", "96,192,336,720")
        assert rc == 0
        rows = read_rows(tmp_path / "ev" / "metrics.csv")
        assert rows[0] == ["model", "dataset", "horizon", "mse", "mae", "mape"]
        body = rows[1:]
        seen = {(r[0], r[2]) for r in body}
        want = {(mdl, str(h)) for mdl in ("ushape", "linear")
                for h in (96, 192, 336, 720)}
        assert seen == want, seen ^ want
        for r in body:
            assert all(np.isfinite(float(v)) for v in r[3:])
        metrics = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        assert metrics["ushape"]["energy"]["720"]["n_windows"] >= 7
        detail["note"] = "both models scored at 96/192/336/720 on 7 channels"
