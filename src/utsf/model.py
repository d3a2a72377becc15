"""U-shaped transformer over patch tokens.

The backbone stacks pre-norm transformer groups in a U: the encoder halves
the token count (and doubles the token dimension) after each group via a
learnable stride-2 merge, a shared bottleneck group sits at the deepest
level, and the decoder mirrors the tower with transpose-convolution splits.
Each decoder level receives the same-resolution encoder group output by
elementwise addition, and the final output adds the first encoder input, so
fine-grained content reaches the heads without passing through the deep
levels.

A forward pass takes B windows at once: B series rows become B*N
row-stacked tokens ``(B*N, d)``. Every affine map runs over all rows,
attention stays within each window, and merge and split pair rows within a
window, so row b of the output is what window b alone would give.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Iterator

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError, UsageError
from .tensor import Tensor


# param_count refuses a model of more parameter scalars than this, drawn or loaded
MAX_PARAMS = 2 ** 31
FFN_MULT = 4  # a feed-forward block's hidden width, in multiples of its token dimension
# _init_param draws a parameter this many scalars at a time, so a build holds one
# float64 chunk beside each parameter, not a float64 copy of it
INIT_CHUNK = 65536

# JSON value types each config field annotation accepts (annotations are strings
# under ``from __future__ import annotations``); a bool is not a number
_FIELD_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}


def config_from_dict(cls, raw, section: str):
    """Build the config dataclass ``cls`` from a JSON object.

    Unknown keys, missing required keys, values whose JSON type does not
    match the field's annotation and integers too large for a float field
    raise ``ConfigError``; the dataclass then checks ranges.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{section} config must be a JSON object, got {type(raw).__name__}")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"unknown {section} config keys: {sorted(unknown)}")
    for key, value in raw.items():
        if type(value) not in _FIELD_TYPES[types[key]]:
            raise ConfigError(f"{section} config '{key}' must be {types[key]}, got {value!r}")
        if types[key] == "float" and float_overflows(value):
            raise ConfigError(f"{section} config '{key}' is an integer too large for a float")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in raw]
    if missing:
        raise ConfigError(f"{section} config is missing required keys: {missing}")
    return cls(**raw)


def config_to_dict(config) -> dict:
    """The JSON object of a config dataclass, every field by name: what
    ``config_from_dict`` reads back."""
    return {f.name: getattr(config, f.name) for f in fields(config)}


def valid_seed(seed) -> bool:
    """The one seed rule of run, sampler, model and checkpoint: a non-negative int or np.integer, not a bool."""
    return not isinstance(seed, bool) and isinstance(seed, (int, np.integer)) and seed >= 0


def float_overflows(value) -> bool:
    """Whether ``value`` is a JSON integer that ``float()`` cannot hold: such
    a number is refused, not rounded, so a resolved config repeats its input."""
    return type(value) is int and abs(value) > sys.float_info.max


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; token count N = (L + T) / patch_size."""

    lookback_len: int
    horizon_len: int
    patch_size: int
    d_model: int = 64
    n_levels: int = 3
    n_heads: int = 4

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 1:
                raise ConfigError(f"model config '{f.name}' must be positive, got {value}")
        total = self.lookback_len + self.horizon_len
        if total % self.patch_size != 0:
            raise ConfigError(f"L + T = {total} is not divisible by patch_size {self.patch_size}")
        n = total // self.patch_size
        # the first test bounds the shift by n's width: no huge int for a huge n_levels
        if self.n_levels > n.bit_length() or n % (1 << (self.n_levels - 1)) != 0:
            raise ConfigError(f"{n} tokens cannot be halved {self.n_levels - 1} times")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")

    @property
    def n_patches(self) -> int:
        return (self.lookback_len + self.horizon_len) // self.patch_size

    @property
    def model_len(self) -> int:
        return self.n_patches * self.patch_size

    def level_shape(self, level: int) -> tuple[int, int]:
        """(token count, token dimension) at a resolution level, 1-based."""
        if not 1 <= level <= self.n_levels:
            raise UsageError(f"level {level} outside 1..{self.n_levels}")
        return self.n_patches >> (level - 1), self.d_model << (level - 1)

    @classmethod
    def from_dict(cls, raw) -> "ModelConfig":
        """Explicit fields over an optional ``preset``, which must name one."""
        if not isinstance(raw, dict):
            raise ConfigError(f"model config must be a JSON object, got {type(raw).__name__}")
        raw = dict(raw)
        base = config_to_dict(preset(raw.pop("preset"))) if "preset" in raw else {}
        return config_from_dict(cls, {**base, **raw}, "model")


_PRESETS = {
    # Table-style presets: lookback, horizon, patch geometry; the rest are
    # the architecture defaults this implementation fixes.
    "small": dict(lookback_len=512, horizon_len=1024, patch_size=32),
    "base": dict(lookback_len=3072, horizon_len=1024, patch_size=32),
    # tiny is for verification: 8 tokens, 2 levels, cheap finite differences
    "tiny": dict(lookback_len=32, horizon_len=32, patch_size=8,
                 d_model=8, n_levels=2, n_heads=2),
}


def preset(name: str) -> ModelConfig:
    if not isinstance(name, str) or name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r} (have {sorted(_PRESETS)})")
    return ModelConfig(**_PRESETS[name])


@dataclass
class AttentionMap:
    """Head-averaged P x P row-stochastic attention weights of one group,
    for the first window of the batch."""

    level: int
    side: str  # "enc" or "dec"; the bottleneck reports as enc at the deepest level
    weights: np.ndarray


class ParameterStore:
    """Named learnable tensors; a tensor's ``requires_grad`` is its trainability.

    Iteration order is insertion order, which is the checkpoint payload
    order. ``add`` sets the flag, freezing clears it on the tensor itself
    and ``frozen`` reads it. Ops whose inputs are all frozen or constant are
    never recorded on the tape, so no gradient is computed for a frozen
    parameter, and the optimizer skips it whatever its ``grad``.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise UsageError(f"duplicate parameter name '{name}'")
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def frozen(self, name: str) -> bool:
        return not self._params[name].requires_grad

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.zero_grad()


def _init_param(rng: np.random.Generator, shape: tuple, init: tuple, dtype) -> np.ndarray:
    """One parameter's initial value: ``("fan_in", n)`` is uniform in
    +-1/sqrt(n), ``("normal", std)`` centred, ``("const", c)`` constant.

    A drawn one is taken ``INIT_CHUNK`` float64 values at a time, each
    rounded into the ``dtype`` array: the values of one whole draw, and the
    stream left at the same point."""
    kind, arg = init
    if kind == "const":
        return np.full(shape, arg, dtype=dtype)
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    bound = 1.0 / np.sqrt(arg) if kind == "fan_in" else None
    for i in range(0, flat.size, INIT_CHUNK):
        n = min(INIT_CHUNK, flat.size - i)
        flat[i:i + n] = rng.normal(0.0, arg, n) if bound is None else rng.uniform(-bound, bound, n)
    return out


def param_layout(config: ModelConfig) -> Iterator[tuple[str, tuple, tuple]]:
    """``(name, shape, init)`` of every parameter, in checkpoint payload and
    initial-draw order: what a checkpoint's ``config`` implies of its payload."""

    def linear(name, d_in, d_out):
        yield f"{name}.w", (d_in, d_out), ("fan_in", d_in)
        yield f"{name}.b", (d_out,), ("fan_in", d_in)

    def group(prefix, d):
        yield f"{prefix}.ln1.g", (d,), ("const", 1.0)
        yield f"{prefix}.ln1.b", (d,), ("const", 0.0)
        for proj in ("q", "k", "v", "o"):
            yield from linear(f"{prefix}.attn.{proj}", d, d)
        yield f"{prefix}.ln2.g", (d,), ("const", 1.0)
        yield f"{prefix}.ln2.b", (d,), ("const", 0.0)
        yield from linear(f"{prefix}.ffn.fc1", d, FFN_MULT * d)
        yield from linear(f"{prefix}.ffn.fc2", FFN_MULT * d, d)

    # embedding: pointwise conv patch_size -> d_model, plus position table
    yield "embed.w", (config.patch_size, config.d_model), ("fan_in", config.patch_size)
    yield "embed.b", (config.d_model,), ("fan_in", config.patch_size)
    yield "pos", (config.n_patches, config.d_model), ("normal", 0.02)
    for i in range(1, config.n_levels):
        d = config.d_model << (i - 1)
        yield from group(f"enc{i}", d)
        # merge level i -> i+1: a token pair [2d] -> [2d]
        yield f"merge{i}.w", (2 * d, 2 * d), ("fan_in", 2 * d)
        yield f"merge{i}.b", (2 * d,), ("fan_in", 2 * d)
    yield from group("mid", config.d_model << (config.n_levels - 1))
    for i in range(config.n_levels - 1, 0, -1):
        d = config.d_model << (i - 1)
        # split level i+1 -> i: a token [2d] -> a token pair [2d]
        yield f"split{i}.w", (2 * d, 2 * d), ("fan_in", 2 * d)
        yield f"split{i}.b", (d,), ("fan_in", 2 * d)
        yield from group(f"dec{i}", d)
    yield from linear("head.recon", config.d_model, config.patch_size)
    yield from linear("head.forecast", config.d_model, config.patch_size)


def param_count(config: ModelConfig) -> int:
    """The number of parameter scalars ``config`` lays out. A config past
    ``MAX_PARAMS`` raises ``ConfigError`` naming the entry at which a running
    count over its layout passes the bound, allocating no parameter."""
    count = 0
    for name, shape, _ in param_layout(config):
        count += math.prod(shape)
        if count > MAX_PARAMS:
            raise ConfigError(f"model too large to build: its parameters pass {MAX_PARAMS} scalars "
                              f"at '{name}' of shape {list(shape)}")
    return count


@functools.cache
def _raise_mmap_threshold() -> None:
    """Allocate one 16 MiB block and drop it untouched, once per process:
    glibc then raises its mmap threshold past it, so a batched forward reuses
    its large temporaries from the heap instead of faulting them back in on
    every call. Every model build calls it, as every forward needs it."""
    np.empty(16 << 20, np.uint8)


class UShapedTransformer:
    """The backbone plus reconstruction and forecast heads.

    Channel handling is channel-independent: every series channel passes
    through the same weights as a univariate row of a (B, L + T) batch.

    The parameters are drawn from ``seed``, or taken from ``values``: one
    array per ``param_layout`` entry, in its order, as a checkpoint's payload
    gives them (``training.load_checkpoint``). Taking them draws nothing and
    skips the size check, which reading the checkpoint's manifest has made.
    Either way every parameter is trainable until ``freeze_backbone``.
    """

    HEAD_PREFIX = "head."

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=T.DEFAULT_DTYPE, values=None):
        _raise_mmap_threshold()
        self.config = config
        self.dtype = np.dtype(dtype)
        self.params = ParameterStore()
        if values is None:
            # default_rng(None) would draw from OS entropy, not reproducibly
            if not valid_seed(seed):
                raise UsageError(f"model seed must be a non-negative integer, got {seed!r}; "
                                 f"a checkpoint's model is built by training.load_checkpoint")
            param_count(config)
            rng = np.random.default_rng(seed)
            for name, shape, init in param_layout(config):
                self.params.add(name, Tensor(_init_param(rng, shape, init, self.dtype), dtype=self.dtype))
            return
        for (name, _, _), value in zip(param_layout(config), values, strict=True):
            self.params.add(name, Tensor(value, dtype=self.dtype))

    # -- freezing ------------------------------------------------------------

    def backbone_names(self) -> list[str]:
        return [n for n in self.params.names() if not n.startswith(self.HEAD_PREFIX)]

    def freeze_backbone(self) -> None:
        for name, p in self.params.items():
            p.requires_grad = name.startswith(self.HEAD_PREFIX)

    # -- forward pieces ------------------------------------------------------

    def patch_embed(self, series: Tensor) -> Tensor:
        """Cut a (B, N*patch_size) series batch into B*N patches, project,
        add positions: (B*N, d_model) tokens, window b in rows b*N..b*N+N-1."""
        cfg = self.config
        if series.ndim != 2 or series.shape[0] < 1:
            raise DimensionError(f"patch_embed expects a (windows, length) series, got {series.shape}")
        windows, length = series.shape
        if length != cfg.model_len:  # model_len is a whole number of patches
            raise DimensionError(f"series length {length} != model length {cfg.model_len}; "
                                 "pad and pool the window first")
        patches = T.reshape(series, (windows * cfg.n_patches, cfg.patch_size))
        embedded = T.pointwise_conv(patches, self.params["embed.w"], self.params["embed.b"])
        per_window = T.reshape(embedded, (windows, cfg.n_patches, cfg.d_model))
        return T.reshape(T.add(per_window, self.params["pos"]), (windows * cfg.n_patches, cfg.d_model))

    def _linear(self, x: Tensor, name: str) -> Tensor:
        return T.linear(x, self.params[f"{name}.w"], self.params[f"{name}.b"])

    def _group(self, x: Tensor, prefix: str, level: int, side: str, windows: int) -> tuple[Tensor, AttentionMap]:
        """Run the group ``prefix``, one pre-norm transformer layer, over
        ``windows`` row-stacked sequences of its level's tokens; the map is
        the first window's head-averaged attention."""
        p = self.params
        h = T.layer_norm(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
        q, k, v = (self._linear(h, f"{prefix}.attn.{proj}") for proj in ("q", "k", "v"))
        ctx, probs = T.attention(q, k, v, self.config.n_heads, windows)
        # the first window's head average (np.mean's bits, without its Python
        # wrapper); not the whole batch's probabilities, held through the FFN
        weights = np.add.reduce(probs[0], axis=0) / self.config.n_heads
        x = T.add(x, self._linear(ctx, f"{prefix}.attn.o"))
        h = T.layer_norm(x, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
        h = self._linear(T.gelu(self._linear(h, f"{prefix}.ffn.fc1")), f"{prefix}.ffn.fc2")
        return T.add(x, h), AttentionMap(level=level, side=side, weights=weights)

    def patch_merge(self, tokens: Tensor, level: int) -> Tensor:
        """Halve tokens / double dimension with a learned stride-2 conv: level -> level + 1."""
        if not 1 <= level < self.config.n_levels:
            raise UsageError(f"no merge from level {level} (levels 1..{self.config.n_levels})")
        p = self.params
        return T.conv1d_k2s2(tokens, p[f"merge{level}.w"], p[f"merge{level}.b"])

    def patch_split(self, tokens: Tensor, level: int) -> Tensor:
        """Double tokens / halve dimension with a learned transpose conv: level -> level - 1."""
        if not 1 < level <= self.config.n_levels:
            raise UsageError(f"no split from level {level} (levels 1..{self.config.n_levels})")
        p = self.params
        return T.conv_transpose1d_k2s2(tokens, p[f"split{level - 1}.w"], p[f"split{level - 1}.b"])

    def backbone_forward(self, tokens: Tensor, zero_decoder: bool = False) -> tuple[Tensor, list[AttentionMap]]:
        """Encoder tower, bottleneck, decoder tower with summed skips, over
        B windows of level-1 tokens stacked as (B*N, d_model).

        ``zero_decoder`` replaces the whole decoder path with a zero
        function (verification hook): the output then equals the first
        encoder group's input exactly.
        """
        cfg = self.config
        n, d = cfg.level_shape(1)
        if tokens.ndim != 2 or tokens.shape[1] != d or tokens.shape[0] < n or tokens.shape[0] % n:
            raise DimensionError(f"backbone_forward takes windows of level-1 tokens {(n, d)} "
                                 f"stacked as (B*{n}, {d}), got {tokens.shape}")
        windows = tokens.shape[0] // n
        maps: list[AttentionMap] = []
        skips: list[Tensor] = []
        x = tokens
        for i in range(1, cfg.n_levels):
            out, amap = self._group(x, f"enc{i}", i, "enc", windows)
            maps.append(amap)
            skips.append(out)
            x = self.patch_merge(out, i)
        x, amap = self._group(x, "mid", cfg.n_levels, "enc", windows)
        maps.append(amap)
        if zero_decoder:
            x = Tensor(np.zeros_like(tokens.data))
        else:
            for i in range(cfg.n_levels - 1, 0, -1):
                x = T.add(self.patch_split(x, i + 1), skips[i - 1])
                x, amap = self._group(x, f"dec{i}", i, "dec", windows)
                maps.append(amap)
        return T.add(x, tokens), maps

    def reconstruction_head(self, tokens: Tensor) -> Tensor:
        """Map each token back to patch_size values and restitch each
        window's sequence: (B, model_len)."""
        vals = self._linear(tokens, "head.recon")
        return T.reshape(vals, (-1, self.config.model_len))

    def forecast_head(self, tokens: Tensor) -> Tensor:
        """De-embed to the full model length, return each window's final
        T values: (B, horizon_len)."""
        cfg = self.config
        seq = T.reshape(self._linear(tokens, "head.forecast"), (-1, cfg.model_len))
        return T.narrow(seq, 1, cfg.model_len - cfg.horizon_len, cfg.horizon_len)

    # -- end-to-end passes ---------------------------------------------------

    def reconstruct(self, series: Tensor) -> Tensor:
        return self.reconstruction_head(self.backbone_forward(self.patch_embed(series))[0])

    def forecast(self, series: Tensor) -> Tensor:
        return self.forecast_head(self.backbone_forward(self.patch_embed(series))[0])


def patch_merge_naive(tokens: Tensor) -> Tensor:
    """Parameter-free merge: stack the sequence halves as channel blocks.

    Output token t is token_t next to token_{t + P/2} -- tokens that are
    not temporal neighbours, which is the weakness the learnable merge
    exists to fix.
    """
    n_tok = tokens.shape[0]
    if n_tok % 2 != 0:
        raise DimensionError(f"naive merge needs an even token count, got {n_tok}")
    half = n_tok // 2
    first = T.narrow(tokens, 0, 0, half)
    second = T.narrow(tokens, 0, half, half)
    return T.concat([first, second], axis=1)

