"""Backbone architecture contracts: config tower, merges, skips, heads."""

import hashlib
import math
import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import utsf.model
import utsf.training
from utsf import tensor as T
from utsf.errors import ConfigError, DimensionError, UsageError
from utsf.model import (ModelConfig, ParameterStore, config_to_dict,
                        UShapedTransformer, param_count, param_layout, patch_merge_naive, preset)
from utsf.tensor import GradTape, Tensor

F64 = np.float64


def tiny_model(seed=0, dtype=np.float32):
    return UShapedTransformer(preset("tiny"), seed=seed, dtype=dtype)


# ---------------------------------------------------------------------------
# configuration


def test_preset_token_counts():
    small = preset("small")
    base = preset("base")
    assert small.n_patches == 48 and small.model_len == 1536
    assert base.n_patches == 128 and base.model_len == 4096
    assert small.patch_size == 32


def test_level_shapes_follow_halving_tower():
    cfg = preset("small")  # N=48, d_model=64, 3 levels
    assert cfg.level_shape(1) == (48, 64)
    assert cfg.level_shape(2) == (24, 128)
    assert cfg.level_shape(3) == (12, 256)
    # scalar count is level-invariant
    assert len({p * d for p, d in map(cfg.level_shape, (1, 2, 3))}) == 1
    with pytest.raises(UsageError):
        cfg.level_shape(4)


def test_config_validation():
    with pytest.raises(ConfigError):  # L+T not divisible by patch size
        ModelConfig(lookback_len=100, horizon_len=30, patch_size=32)
    with pytest.raises(ConfigError):  # 6 tokens cannot halve twice
        ModelConfig(lookback_len=24, horizon_len=24, patch_size=8, n_levels=3, d_model=8, n_heads=2)
    with pytest.raises(ConfigError):  # heads must divide d_model
        ModelConfig(lookback_len=32, horizon_len=32, patch_size=8, d_model=10, n_heads=4)
    with pytest.raises(ConfigError, match="halved"):  # refused without building 2**(2**62) first
        ModelConfig(lookback_len=32, horizon_len=32, patch_size=8, d_model=8, n_heads=2, n_levels=2**62)
    # the legacy keys are unknown keys, even at the one value they once loaded at
    for key, value in (("patch_stride", 8), ("patch_stride", None), ("dropout", 0.0), ("dropout", 0.1),
                       ("ffn_mult", 4), ("ffn_mult", 2), ("mask_ratio", 0.4), ("mask_ratio", 0.25)):
        with pytest.raises(ConfigError, match=rf"unknown model config keys: \['{key}'\]"):
            ModelConfig.from_dict({"preset": "tiny", key: value})


def test_the_model_config_is_the_architecture():
    assert [f.name for f in fields(ModelConfig)] == ["lookback_len", "horizon_len", "patch_size", "d_model",
                                                     "n_levels", "n_layers_per_group", "n_heads"]
    # the feed-forward width and the pretraining mask are constants, not settings
    assert utsf.model.FFN_MULT == 4 and utsf.training.MASK_RATIO == 0.4
    shapes = {name: shape for name, shape, _ in param_layout(preset("small"))}
    assert shapes["mid.layer0.ffn.fc1.w"] == (256, 4 * 256) and shapes["mid.layer0.ffn.fc2.w"] == (4 * 256, 256)


def test_the_readme_lists_every_model_config_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"`model` takes a preset name .*?explicit\s+fields \(([^)]*)\)", readme, re.S)
    assert listed, "the README's list of model config fields is gone"
    assert sorted(re.findall(r"`(\w+)`", listed.group(1))) == sorted(f.name for f in fields(ModelConfig))


def test_config_dict_round_trip_and_unknown_keys():
    cfg = preset("tiny")
    assert ModelConfig.from_dict(config_to_dict(cfg)) == cfg
    assert ModelConfig.from_dict({"preset": "tiny", "d_model": 16}).d_model == 16
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"preset": "tiny", "n_tokens": 8})
    # values must carry the field's JSON type; a bool is not an int
    for bad in ({"d_model": "8"}, {"d_model": 8.0}, {"n_heads": True}, {"preset": ["tiny"]}, {"preset": None}):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"preset": "tiny", **bad})
    with pytest.raises(ConfigError):
        ModelConfig.from_dict([1])
    with pytest.raises(ConfigError):
        preset("huge")


# ---------------------------------------------------------------------------
# parameter store


def test_parameter_store_contracts():
    store = ParameterStore()
    a = store.add("a", Tensor(np.ones(3)))
    assert a.requires_grad
    with pytest.raises(UsageError):
        store.add("a", Tensor(np.ones(2)))
    store.add("b", Tensor(np.zeros((2, 2))))
    assert store.names() == ["a", "b"]
    assert sum(t.size for _, t in store.items()) == 7
    a.requires_grad = False
    assert store.frozen("a") and not store.frozen("b")
    assert not a.requires_grad  # frozen is the tensor's own flag, not a second one
    assert [n for n, t in store.items() if t.requires_grad] == ["b"]
    a.requires_grad = True
    assert a.requires_grad and not store.frozen("a")
    assert [n for n, t in store.items() if t.requires_grad] == ["a", "b"]


def test_param_layout_is_the_built_model_and_is_lazy():
    for name in ("tiny", "small"):
        m = UShapedTransformer(preset(name), seed=0)
        assert [(n, s) for n, s, _ in param_layout(m.config)] == [(n, p.shape) for n, p in m.params.items()]
    assert len(list(param_layout(preset("tiny")))) == 59
    # a config that lays out a billion layers per group yields its first entries at once
    huge = param_layout(replace(preset("tiny"), n_layers_per_group=10 ** 9))
    assert [next(huge)[0] for _ in range(4)] == ["embed.w", "embed.b", "pos", "enc1.layer0.ln1.g"]


def test_the_build_refuses_a_model_past_the_size_bound(monkeypatch):
    # two layers per group: the count multiplies first-layer entries, and
    # must equal the full layout's, so the bound is met at the last entry
    config = replace(preset("tiny"), n_layers_per_group=2)
    total = sum(math.prod(shape) for _, shape, _ in param_layout(config))
    for other in (config, preset("small"), preset("base")):
        assert param_count(other) == sum(math.prod(shape) for _, shape, _ in param_layout(other))
    monkeypatch.setattr(utsf.model, "MAX_PARAMS", total)
    assert UShapedTransformer(config, seed=0).params.names() == [n for n, _, _ in param_layout(config)]
    monkeypatch.setattr(utsf.model, "MAX_PARAMS", total - 1)
    with pytest.raises(ConfigError, match=rf"pass {total - 1} scalars at 'head.forecast.b' of shape \[8\]$"):
        UShapedTransformer(config, seed=0)


def test_seeded_init_is_pinned_and_the_seed_is_a_non_negative_int():
    # sha256 over (name, float32 bytes) of every parameter in store order
    pinned = {("tiny", 0): "04064a2f8f3e03832415617ab1ab48ec4b6019646f0861219858a06b827f74e2",
              ("small", 3): "349fd2615c0fb62534d27286124d6b8ae813e3d54fa740ab81526aa35523ab0b"}
    for (name, seed), digest in pinned.items():
        h = hashlib.sha256()
        for n, p in UShapedTransformer(preset(name), seed=seed).params.items():
            h.update(n.encode())
            h.update(p.data.tobytes())
        assert h.hexdigest() == digest, (name, seed)
    # no seed would draw from OS entropy: a model is seeded or loaded
    for seed in (None, True, -1, 1.5):
        with pytest.raises(UsageError, match=r"seed must be a non-negative integer.*load_checkpoint"):
            UShapedTransformer(preset("tiny"), seed=seed)


def test_a_seeded_build_holds_no_float64_copy_of_a_parameter():
    # 80 MiB of float32 parameters, the largest 16 MiB: drawn whole, its
    # float64 values would peak 16 MiB above the built model
    config = ModelConfig.from_dict({"preset": "tiny", "d_model": 512, "n_heads": 2})
    tracemalloc.start()
    try:
        model = UShapedTransformer(config, seed=0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(p.data.nbytes for _, p in model.params.items()) == 16 * 2 ** 20
    assert peak - held < 2 * 2 ** 20, (held, peak)


# ---------------------------------------------------------------------------
# patch embedding


def test_patch_embed_token_count_and_level():
    m = tiny_model()
    x = Tensor(np.random.default_rng(0).standard_normal((1, 64)).astype(np.float32))
    tokens = m.patch_embed(x)
    assert tokens.shape == (8, 8) == m.config.level_shape(1)


def test_patch_embed_zero_weights_leaves_position_table():
    m = tiny_model()
    m.params["embed.w"].data[:] = 0.0
    m.params["embed.b"].data[:] = 0.0
    tokens = m.patch_embed(Tensor(np.ones((1, 64), dtype=np.float32)))
    assert np.array_equal(tokens.data, m.params["pos"].data)


def test_patch_embed_length_validation():
    m = tiny_model()
    with pytest.raises(DimensionError):
        m.patch_embed(Tensor(np.ones((1, 63))))
    with pytest.raises(DimensionError):  # a batch of wrong-length windows
        m.patch_embed(Tensor(np.ones((2, 63))))
    with pytest.raises(DimensionError):  # a 1-D series is not a batch
        m.patch_embed(Tensor(np.ones(64)))
    with pytest.raises(DimensionError):
        m.patch_embed(Tensor(np.ones((0, 64))))
    # two windows are a valid batch: 2 x 8 row-stacked tokens
    assert m.patch_embed(Tensor(np.ones((2, 64)))).shape == (16, 8)


# ---------------------------------------------------------------------------
# transformer groups


def one_level_model(lookback_len, horizon_len):
    """A U with one level: the bottleneck group plus the final skip."""
    return UShapedTransformer(ModelConfig(lookback_len=lookback_len, horizon_len=horizon_len,
                                          patch_size=8, d_model=8, n_levels=1, n_heads=2), seed=0)


def test_single_token_attention_is_identity():
    m = one_level_model(4, 4)  # one 8-value patch: a single token
    tokens = Tensor(np.random.default_rng(2).standard_normal((1, 8)).astype(np.float32))
    _, (amap,) = m.backbone_forward(tokens)
    assert np.array_equal(amap.weights, np.array([[1.0]], dtype=np.float32))


def test_group_permutation_equivariance():
    # groups see no positions (those are added at embed time), so permuting
    # the tokens of a one-level U must permute its outputs
    m = one_level_model(32, 32)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 8)).astype(np.float32)
    perm = rng.permutation(8)
    out, _ = m.backbone_forward(Tensor(x))
    out_p, _ = m.backbone_forward(Tensor(x[perm]))
    assert np.allclose(out.data[perm], out_p.data, atol=1e-5)


# ---------------------------------------------------------------------------
# merge / split


def test_merge_shape_and_zero_case():
    m = tiny_model()
    tokens = Tensor(np.random.default_rng(0).standard_normal((8, 8)).astype(np.float32))
    assert m.patch_merge(tokens, 1).shape == (4, 16) == m.config.level_shape(2)
    with pytest.raises(UsageError):  # tiny has two levels: nothing merges below level 2
        m.patch_merge(tokens, 2)
    m.params["merge1.w"].data[:] = 0.0
    m.params["merge1.b"].data[:] = 0.0
    assert np.all(m.patch_merge(tokens, 1).data == 0.0)


def test_merge_couples_only_adjacent_token_pairs():
    m = tiny_model(seed=5)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((8, 8)).astype(np.float32)
    base = m.patch_merge(Tensor(x), 1).data
    for src in range(8):
        bumped = x.copy()
        bumped[src] += 1.0
        out = m.patch_merge(Tensor(bumped), 1).data
        changed = np.where(np.any(out != base, axis=1))[0]
        assert list(changed) == [src // 2], f"token {src} leaked into {changed}"


def test_merge_gradient_locality():
    m = tiny_model(seed=7)
    x = Tensor(np.random.default_rng(8).standard_normal((8, 8)), requires_grad=True, dtype=F64)
    m64 = tiny_model(seed=7, dtype=F64)
    for out_tok in (0, 3):
        x.zero_grad()
        with GradTape() as tape:
            merged = m64.patch_merge(x, 1)
            loss = T.sum_all(T.narrow(merged, 0, out_tok, 1))
        tape.backward(loss)
        nonzero_rows = set(np.where(np.any(x.grad != 0.0, axis=1))[0])
        assert nonzero_rows == {2 * out_tok, 2 * out_tok + 1}


def test_naive_merge_channel_assignment():
    # tokens [a, b, c, d] -> [(a||c), (b||d)]
    d = 3
    tokens = np.stack([np.full(d, float(i)) for i in range(4)])
    out = patch_merge_naive(Tensor(tokens))
    assert out.shape == (2, 2 * d)
    assert np.array_equal(out.data[0], np.concatenate([np.full(d, 0.0), np.full(d, 2.0)]))
    assert np.array_equal(out.data[1], np.concatenate([np.full(d, 1.0), np.full(d, 3.0)]))


def test_naive_merge_shape_contract_matches_learnable():
    assert patch_merge_naive(Tensor(np.zeros((48, 64)))).shape == (24, 128)
    with pytest.raises(DimensionError):
        patch_merge_naive(Tensor(np.zeros((5, 4))))


def test_naive_merge_twice_never_groups_adjacent_tokens():
    # track source indices through two merges: channel blocks stay constant
    d = 2
    tokens = np.stack([np.full(d, float(i)) for i in range(8)])
    twice = patch_merge_naive(patch_merge_naive(Tensor(tokens)))
    for row in twice.data:
        sources = sorted(set(row.tolist()))
        assert len(sources) == 4
        gaps = np.diff(sources)
        assert np.all(gaps >= 2), f"adjacent tokens {sources} were grouped"


def test_split_shapes_and_zero_weight_bias_only():
    m = tiny_model()
    tokens = Tensor(np.random.default_rng(1).standard_normal((4, 16)).astype(np.float32))
    assert m.patch_split(tokens, 2).shape == (8, 8) == m.config.level_shape(1)
    with pytest.raises(UsageError):  # nothing splits above level 1
        m.patch_split(tokens, 1)
    m.params["split1.w"].data[:] = 0.0
    bias = m.params["split1.b"].data
    out = m.patch_split(tokens, 2).data
    assert np.allclose(out, np.broadcast_to(bias, (8, 8)), atol=1e-7)


def test_merge_then_split_restores_shape():
    m = tiny_model()
    tokens = Tensor(np.random.default_rng(2).standard_normal((8, 8)).astype(np.float32))
    assert m.patch_split(m.patch_merge(tokens, 1), 2).shape == tokens.shape


def test_embed_merge_split_record_no_layout_transpose(monkeypatch):
    # tokens stay (tokens, dim) end to end: the ops take that layout directly
    recorded = []
    record_op = T.record_op

    def naming_record_op(name, out_data, inputs, vjp):
        out = record_op(name, out_data, inputs, vjp)
        if out.requires_grad:
            recorded.append((name, inputs))
        return out

    monkeypatch.setattr(T, "record_op", naming_record_op)
    m = tiny_model()
    rng = np.random.default_rng(3)
    for level, fn, shape, op in ((1, m.patch_merge, (8, 8), "conv1d_k2s2"),
                                 (2, m.patch_split, (4, 16), "conv_transpose1d_k2s2")):
        recorded.clear()
        with GradTape() as tape:
            fn(Tensor(rng.standard_normal(shape), requires_grad=True), level)
        assert len(tape) == 1 and [name for name, _ in recorded] == [op]
    # trainable: the one transpose is the embedding weight's, never the tokens'
    series = Tensor(rng.standard_normal((1, 64)), requires_grad=True)
    recorded.clear()
    with GradTape() as tape:
        m.patch_embed(series)
    transposed = [inputs[0] for name, inputs in recorded if name == "transpose"]
    assert len(tape) == 6 and len(transposed) == 1 and transposed[0] is m.params["embed.w"]
    # frozen weights: the token path alone records no transpose at all; the
    # reshapes only view the rows per window to add the position table
    m.freeze_backbone()
    recorded.clear()
    with GradTape() as tape:
        m.patch_embed(series)
    assert [name for name, _ in recorded] == ["reshape", "linear", "reshape", "add", "reshape"]
    assert len(tape) == 5


# ---------------------------------------------------------------------------
# backbone


def test_backbone_zero_decoder_is_bitwise_identity():
    m = tiny_model(seed=3)
    x = Tensor(np.random.default_rng(4).standard_normal((1, 64)).astype(np.float32))
    tokens = m.patch_embed(x)
    out, maps = m.backbone_forward(tokens, zero_decoder=True)
    assert out.data.tobytes() == tokens.data.tobytes()
    assert [(a.side, a.level) for a in maps] == [("enc", 1), ("enc", 2)]


def test_backbone_map_inventory_and_row_sums(monkeypatch):
    head_means = []
    attention = T.attention

    def averaging_attention(*args):
        out, probs = attention(*args)
        head_means.append(probs[0].mean(axis=0).tobytes())
        return out, probs

    monkeypatch.setattr(T, "attention", averaging_attention)
    m = tiny_model()
    x = Tensor(np.random.default_rng(5).standard_normal((1, 64)).astype(np.float32))
    out, maps = m.backbone_forward(m.patch_embed(x))
    assert out.shape == (8, 8)
    assert [(a.side, a.level, a.weights.shape) for a in maps] == [
        ("enc", 1, (8, 8)), ("enc", 2, (4, 4)), ("dec", 1, (8, 8))]
    for a in maps:
        assert np.allclose(a.weights.sum(axis=-1), 1.0, atol=1e-5)
        assert np.all(a.weights >= 0.0)
        assert a.weights.tobytes() in head_means  # np.mean's bits, bit for bit


@pytest.mark.parametrize("name, layers", [("tiny", 1), ("small", 1), ("tiny", 2)],
                         ids=["tiny", "small", "tiny-2layers"])
def test_batch_rows_equal_single_window_passes(name, layers):
    # row b of a (B, L) pass is window b's own pass: attention, merge and
    # split never mix windows
    m = UShapedTransformer(replace(preset(name), n_layers_per_group=layers), seed=6)
    x = np.random.default_rng(7).standard_normal((3, m.config.model_len)).astype(np.float32)
    recon, maps = m.reconstruct(Tensor(x))
    fc, _ = m.forecast(Tensor(x))
    assert recon.shape == (3, m.config.model_len) and fc.shape == (3, m.config.horizon_len)
    for b in range(3):
        recon_b, maps_b = m.reconstruct(Tensor(x[b:b + 1]))
        fc_b, _ = m.forecast(Tensor(x[b:b + 1]))
        for got, want in ((recon.data[b], recon_b.data[0]), (fc.data[b], fc_b.data[0])):
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max(), b
        if b == 0:  # a batch reports its first window's maps
            for a, a_b in zip(maps, maps_b):
                assert np.abs(a.weights - a_b.weights).max() <= 1e-6


def test_backbone_requires_level_one_grid():
    m = tiny_model()
    with pytest.raises(DimensionError):  # level-2 tokens
        m.backbone_forward(Tensor(np.ones((4, 16))))
    with pytest.raises(DimensionError):  # not a whole number of 8-token windows
        m.backbone_forward(Tensor(np.ones((12, 8))))


# ---------------------------------------------------------------------------
# heads


def test_reconstruction_head_shape_and_zero_weights():
    m = tiny_model()
    tokens = Tensor(np.random.default_rng(0).standard_normal((8, 8)).astype(np.float32))
    assert m.reconstruction_head(tokens).shape == (1, 64)
    m.params["head.recon.w"].data[:] = 0.0
    bias = m.params["head.recon.b"].data
    out = m.reconstruction_head(tokens).data
    assert np.array_equal(out, np.tile(bias, 8).reshape(1, 64))


def test_embed_then_recon_is_invertible_by_least_squares():
    # with positions zeroed the composition is affine per patch; fitting the
    # head by least squares must invert it almost exactly (d_model >= patch)
    m = tiny_model(seed=9)
    m.params["pos"].data[:] = 0.0
    rng = np.random.default_rng(10)
    tokens_all, patches_all = [], []
    for _ in range(40):
        series = rng.standard_normal((1, 64)).astype(np.float32)
        tokens_all.append(m.patch_embed(Tensor(series)).data)
        patches_all.append(series.reshape(8, 8))
    A = np.concatenate([np.concatenate(tokens_all), np.ones((320, 1))], axis=1)
    Y = np.concatenate(patches_all)
    _, residual, _, _ = np.linalg.lstsq(A.astype(F64), Y.astype(F64), rcond=None)
    assert residual.size and float(residual.max()) < 1e-6


def test_forecast_head_length_and_constant_bias():
    m = tiny_model()
    tokens = Tensor(np.random.default_rng(1).standard_normal((8, 8)).astype(np.float32))
    assert m.forecast_head(tokens).shape == (1, 32)
    m.params["head.forecast.w"].data[:] = 0.0
    bias = m.params["head.forecast.b"].data
    out = m.forecast_head(tokens).data
    assert np.array_equal(out, np.tile(bias, 4).reshape(1, 32))


def test_forecast_head_gradients_pass_finite_differences():
    m = tiny_model(seed=11, dtype=F64)
    m.freeze_backbone()
    x = Tensor(np.random.default_rng(12).standard_normal((1, 64)), dtype=F64)

    def loss_fn(_):
        pred, _m = m.forecast(x)
        return T.mean_all(T.mul(pred, pred))

    head = {n: t for n, t in m.params.items() if n.startswith("head.forecast")}
    errors = T.finite_diff_check(loss_fn, head)
    assert all(e < 1e-6 for e in errors.values()), errors
    assert all(e <= 1e-6 or e == 0.0 for e in errors.values())


def test_two_layer_groups_pass_finite_differences():
    # the gradient suite checks the one-layer tiny preset; this runs the
    # group's loop over its later layers
    m = UShapedTransformer(replace(preset("tiny"), n_layers_per_group=2), seed=13, dtype=F64)
    assert "enc1.layer1.attn.q.w" in m.params.names()
    x = Tensor(np.random.default_rng(14).standard_normal((1, 64)), dtype=F64)

    def loss_fn(_):
        pred, _m = m.reconstruct(x)
        return T.mean_all(T.mul(pred, pred))

    errors = T.finite_diff_check(loss_fn, dict(m.params.items()), max_entries=2)
    assert all(e < 1e-6 for e in errors.values()), errors

