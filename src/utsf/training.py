"""Two-stage optimization (masked reconstruction, then frozen-backbone
forecasting), evaluation metrics, and binary checkpoints."""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import data as D
from . import tensor as T
from .errors import CheckpointError, ConfigError, NumericError, UsageError
from .model import (ModelConfig, UShapedTransformer, config_from_dict, config_to_dict, param_count, param_layout,
                    valid_seed)
from .tensor import GradTape, Tensor

MAPE_FLOOR = 0.1
CHECKPOINT_VERSION = 3
# a manifest holds these fields and no other: the payload follows from its config
_MANIFEST_FIELDS = ("config", "format_version", "seed")
# evaluate() passes at most this many windows to one predictor call
EVAL_CHUNK = 32
# fit_linear's windows per chunk, and the ridge on its Gram's diagonal: a normalized
# lookback sums to about 0, so the Gram alone is singular along the all-ones input
LINEAR_CHUNK, LINEAR_RIDGE = 256, 1e-6
# Adam.step updates this many elements at a time, a block of a large parameter
# or a pack of small ones, so its scratch is three such rows per dtype
ADAM_BLOCK = 65536
# Adam's moment decays and the guard added to its denominator: fixed, not settings
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
MASK_RATIO = 0.4  # the share of each window's patches that pretrain_epoch zero-masks


@dataclass(frozen=True)
class TrainerConfig:
    lr: float = 1e-4
    epochs: int = 1
    steps_per_epoch: int = 100

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if self.epochs < 1 or self.steps_per_epoch < 1:
            raise ConfigError("epochs and steps_per_epoch must be >= 1")


def compute_metrics(pred, truth) -> dict:
    """MSE, MAE, and floored MAPE = mean(|y - yhat| / max(|y|, floor)).

    The floor keeps MAPE finite in normalized space where truth crosses zero.
    """
    p = np.asarray(pred, dtype=np.float64)
    y = np.asarray(truth, dtype=np.float64)
    if p.shape != y.shape:
        raise UsageError(f"metric shapes differ: {p.shape} vs {y.shape}")
    if p.size == 0:
        raise UsageError("metrics need at least one element")
    err = p - y
    return {
        "mse": float(np.mean(err ** 2)),
        "mae": float(np.mean(np.abs(err))),
        "mape": float(np.mean(np.abs(err) / np.maximum(np.abs(y), MAPE_FLOOR))),
    }


class Adam:
    """Adam with bias correction over the entries of a ParameterStore.
    β1, β2 and ε are the constants ``ADAM_BETA1``, ``ADAM_BETA2`` and
    ``ADAM_EPS``; the learning rate is the one setting. A step updates the
    entries that require a gradient and hold one, as ``torch.optim`` does: a
    frozen one is skipped whatever its gradient, and one the loss did not
    reach keeps its parameter and moments.

    Moment state exists only for entries that have been updated, since
    freezing may change after construction; zero moments make a first
    update identical to one from state allocated up front. An entry of
    ``ADAM_BLOCK`` scalars or more owns its ``m``/``v``. Smaller ones are
    packed, per dtype and in ``items()`` order, into packs of at most
    ``ADAM_BLOCK`` scalars whose moments are one ``(2, n)`` array, viewed
    by ``m[name]`` and ``v[name]``; a change of the set of entries stepped
    cuts the packs again, and moments carry over."""

    def __init__(self, params, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        # per dtype: rows for the step, the divisor and a pack's gradients
        self._scratch: dict[np.dtype, np.ndarray] = {}
        # the names of the entries the packs were cut for; per pack, its entries'
        # indices, its moments and each parameter's slice of the step row
        self._packed, self._packs = None, []

    def step(self) -> None:
        """Update every entry that requires a gradient and holds one, or
        none: each such gradient is checked for finiteness and shape, and its
        parameter for writable C-contiguous data, before any parameter,
        moment or step count changes.

        A large entry is updated in place, ``ADAM_BLOCK`` elements at a
        time. A pack's gradients are gathered into a scratch row, its moments
        are updated as one block, and each parameter subtracts its slice of
        the step in place. So a step allocates no array the size of a
        parameter. The float operations and their order are those of
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
        ``p -= lr*(m/c1) / (sqrt(v/c2) + eps)``: every bit matches."""
        entries = [(name, p, p.grad) for name, p in self.params.items() if p.requires_grad and p.grad is not None]
        for name, p, g in entries:
            if not T.all_finite(g):
                raise NumericError(f"non-finite gradient for parameter '{name}'")
            if not (p.data.flags.writeable and p.data.flags.c_contiguous):
                raise UsageError(f"parameter '{name}' is not writable C-contiguous data")
            if g.shape != p.shape:
                raise UsageError(f"gradient of parameter '{name}' has shape {g.shape}, not {p.shape}")
        self.t += 1
        if [name for name, _, _ in entries] != self._packed:
            self._pack(entries)
        consts = {dtype: self._constants(dtype) for dtype in self._scratch}
        for name, p, g in entries:
            if p.size < ADAM_BLOCK:
                continue
            a, b, _ = self._scratch[p.dtype]
            # a gradient that is not C-contiguous (a transpose VJP's) is
            # copied here; every other array is viewed flat
            pf, gf, mf, vf = p.data.reshape(-1), g.reshape(-1), self.m[name].reshape(-1), self.v[name].reshape(-1)
            for i in range(0, pf.size, ADAM_BLOCK):
                j = min(i + ADAM_BLOCK, pf.size)
                _adam_block(mf[i:j], vf[i:j], gf[i:j], a[:j - i], b[:j - i], consts[p.dtype])
                pf[i:j] -= a[:j - i]
        for idx, mv, pieces in self._packs:
            a, b, g = self._scratch[mv.dtype][:, :mv.shape[1]]
            # axis=None reads each gradient in C order, an F-ordered one too
            np.concatenate([entries[i][2] for i in idx], axis=None, out=g)
            _adam_block(mv[0], mv[1], g, a, b, consts[mv.dtype])
            for i, piece in zip(idx, pieces):
                entries[i][1].data -= piece

    def _constants(self, dtype) -> tuple:
        """The update's scalars as 0-d arrays of ``dtype``: a ufunc call costs
        less with them than with Python floats, and they round alike. A bias
        correction that is 1 in ``dtype`` is None: dividing by it is skipped."""
        c1, c2, *rest = (np.array(x, dtype) for x in (1.0 - ADAM_BETA1 ** self.t, 1.0 - ADAM_BETA2 ** self.t,
                                                       ADAM_BETA1, 1.0 - ADAM_BETA1, ADAM_BETA2, 1.0 - ADAM_BETA2,
                                                       self.lr, ADAM_EPS))
        return None if c1 == 1 else c1, None if c2 == 1 else c2, *rest

    def _pack(self, entries) -> None:
        """Give each new large entry zero moments, and cut the others into
        packs, copying in the moments of entries updated before."""
        self._packed, self._packs, packs, filling = [name for name, _, _ in entries], [], [], {}
        for i, (name, p, _) in enumerate(entries):
            if p.dtype not in self._scratch:
                self._scratch[p.dtype] = np.empty((3, ADAM_BLOCK), p.dtype)
            if p.size < ADAM_BLOCK:
                idx = filling.get(p.dtype)
                if idx is None or sum(entries[j][1].size for j in idx) + p.size > ADAM_BLOCK:
                    idx = filling[p.dtype] = []
                    packs.append(idx)
                idx.append(i)
            elif name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
        for idx in packs:
            dtype = entries[idx[0]][1].dtype
            mv, pieces, lo = np.zeros((2, sum(entries[i][1].size for i in idx)), dtype), [], 0
            for i in idx:
                name, p, _ = entries[i]
                hi = lo + p.size
                if name in self.m:
                    mv[:, lo:hi] = self.m[name].reshape(-1), self.v[name].reshape(-1)
                self.m[name], self.v[name] = (mv[k, lo:hi].reshape(p.shape) for k in (0, 1))
                pieces.append(self._scratch[dtype][0, lo:hi].reshape(p.shape))
                lo = hi
            self._packs.append((idx, mv, pieces))


def _adam_block(m, v, g, a, b, consts) -> None:
    """Update one block's moments ``m`` and ``v`` in place and leave its step
    ``lr*(m/c1) / (sqrt(v/c2) + eps)`` in ``a``, with ``b`` as scratch."""
    c1, c2, b1, nb1, b2, nb2, lr, eps = consts
    m *= b1
    np.multiply(g, nb1, out=a)
    m += a
    v *= b2
    np.multiply(g, nb2, out=a)
    a *= g
    v += a
    # a correction of None is 1: m/1 is m, bit for bit
    np.multiply(m if c1 is None else np.divide(m, c1, out=a), lr, out=a)
    np.sqrt(v if c2 is None else np.divide(v, c2, out=b), out=b)
    b += eps
    a /= b


class TrainReport:
    """Per-step and per-epoch loss series.

    It holds no clock, so two runs with one seed emit byte-identical files;
    the CLI logs each epoch's time to stderr.
    """

    def __init__(self):
        self.steps: list[float] = []
        self.epoch_means: list[float] = []

    def add_step(self, loss: float) -> None:
        self.steps.append(float(loss))

    def close_epoch(self, n_steps: int) -> None:
        self.epoch_means.append(float(np.mean(self.steps[-n_steps:])))

    def loss_csv_text(self) -> str:
        lines = ["step,loss"]
        lines += [f"{i},{v:.8e}" for i, v in enumerate(self.steps)]
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "n_steps": len(self.steps),
            "epoch_mean_loss": [round(v, 10) for v in self.epoch_means],
            "final_loss": round(self.steps[-1], 10) if self.steps else None,
        }

    def json_text(self) -> str:
        return json.dumps(self.summary(), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# epoch loops


def _window_table(frames: dict, window_len: int, sampler: D.SamplerConfig, epoch: int) -> dict:
    """Each dataset's train-split window starts; a dataset whose train split
    holds no window is a config error naming it."""
    table = {}
    for ds_id in sorted(frames):
        starts = D.jittered_windows(frames[ds_id], window_len, sampler, epoch)
        if not len(starts):
            _, n_train = frames[ds_id].split_bounds("train")
            raise ConfigError(f"dataset '{ds_id}': its train split of {n_train} steps holds no "
                              f"window of length {window_len} at stride {sampler.stride}")
        table[ds_id] = starts
    return table


def _mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    diff = T.sub(pred, target)
    return T.mean_all(T.mul(diff, diff))


def _draw_window_epoch(phase: str, step_loss, optimizer: Adam, frames: dict,
                       sampler: D.SamplerConfig, lookback_len: int, horizon_len: int,
                       steps: int, rng: np.random.Generator, epoch: int,
                       report: TrainReport | None) -> TrainReport:
    """One epoch over train-split windows: each step draws a dataset
    uniformly, then a start and a channel, cuts that window's normalized
    ``(x, y)`` pair and minimizes ``step_loss(x, y)``, which may draw
    further from ``rng``."""
    if steps < 1:
        raise UsageError(f"{phase} epoch needs steps >= 1, got {steps}")
    report = report if report is not None else TrainReport()
    table = _window_table(frames, lookback_len + horizon_len, sampler, epoch)
    counts = [(ds_id, len(table[ds_id])) for ds_id in sorted(table)]
    for step in range(steps):
        ds_id = D.weighted_sample(counts, rng)
        frame = frames[ds_id]
        starts = table[ds_id]
        start = int(starts[int(rng.integers(len(starts)))])
        channel = int(rng.integers(frame.n_channels))
        x, y = D.make_window_sample(frame, channel, start, lookback_len, horizon_len)
        try:
            optimizer.params.zero_grads()
            with GradTape() as tape:
                loss = step_loss(x, y)
            tape.backward(loss)
            optimizer.step()
            report.add_step(loss.item())
        except NumericError as e:
            raise NumericError(f"{phase} aborted at epoch {epoch}, step {step} (dataset {ds_id}, "
                               f"channel {channel}, start {start}): {e}") from e
    report.close_epoch(steps)
    return report


def pretrain_epoch(model: UShapedTransformer, frames: dict, sampler: D.SamplerConfig,
                   optimizer: Adam, steps: int, rng: np.random.Generator,
                   epoch: int = 0, report: TrainReport | None = None) -> TrainReport:
    """Masked-reconstruction epoch: full-length windows, ``MASK_RATIO`` of their patches zero-masked,
    MSE against the unmasked source over all patches, updates to all but ``head.forecast``."""
    cfg = model.config

    def step_loss(x, _):
        mask = D.zero_mask_patches(cfg.n_patches, MASK_RATIO, rng)
        return _mse_loss(model.reconstruct(Tensor(D.mask_series(x, mask, cfg.patch_size))), Tensor(x))

    return _draw_window_epoch("pretrain", step_loss, optimizer, frames, sampler,
                              cfg.model_len, 0, steps, rng, epoch, report)


def finetune_epoch(model: UShapedTransformer, frames: dict, sampler: D.SamplerConfig,
                   optimizer: Adam, steps: int, rng: np.random.Generator,
                   epoch: int = 0, report: TrainReport | None = None) -> TrainReport:
    """Forecast epoch over a frozen backbone: lookback windows padded with
    last-value repeats, MSE against the normalized horizon, updates to ``head.forecast`` only."""
    unfrozen = [n for n in model.backbone_names() if not model.params.frozen(n)]
    if unfrozen:
        raise ConfigError(f"finetune requires a frozen backbone; unfrozen: {unfrozen[:4]}")
    cfg = model.config

    def step_loss(x, y):
        return _mse_loss(model.forecast(Tensor(D.build_model_input(x, cfg))), Tensor(y))

    return _draw_window_epoch("finetune", step_loss, optimizer, frames, sampler,
                              cfg.lookback_len, cfg.horizon_len, steps, rng, epoch, report)


# ---------------------------------------------------------------------------
# evaluation


# Predictors map B windows at once: ``predict(input_norm) -> pred_norm`` with
# shapes [BxL] -> [BxT], row b depending on row b only.


class ModelPredictor:
    """Normalized-space forecast via the full model: one forward per call."""

    def __init__(self, model: UShapedTransformer):
        self.model = model

    def __call__(self, input_norm: np.ndarray) -> np.ndarray:
        return self.model.forecast(Tensor(D.build_model_input(input_norm, self.model.config))).data


class BaselinePredictor:
    """The affine map ``x @ w + b`` of ``fit_linear``, in float64."""

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w, self.b = w, b

    def __call__(self, input_norm):
        return np.asarray(input_norm, dtype=np.float64) @ self.w + self.b


class LastValuePredictor:
    """Repeats each window's final observed value across the horizon."""

    def __init__(self, horizon_len: int):
        self.horizon_len = horizon_len

    def __call__(self, input_norm):
        last = np.asarray(input_norm, dtype=np.float32)[:, -1:]
        return np.repeat(last, self.horizon_len, axis=1)


def evaluate(predict, frame: D.SeriesFrame, lookback_len: int, horizon_len: int,
             horizons, stride: int | None = None) -> dict:
    """Fixed-stride windows over the test split; metrics on the first h forecast
    values per horizon h, all in normalized space.

    Every channel's windows are stacked and passed to ``predict`` (see the
    predictor contract above) in chunks of at most ``EVAL_CHUNK`` rows.
    """
    horizons = [int(h) for h in horizons]
    for h in horizons:
        if h < 1 or h > horizon_len:
            raise UsageError(f"horizon {h} outside 1..{horizon_len}")
    total = lookback_len + horizon_len
    stride = total if stride is None else int(stride)
    if stride < 1:
        raise UsageError(f"evaluation stride must be >= 1, got {stride}")
    lo, hi = frame.split_bounds("test")
    starts = list(range(lo, hi - total + 1, stride))
    if not starts:
        raise UsageError(
            f"split 'test' of '{frame.dataset_id}' is too short for one "
            f"window: {hi - lo} < {total}"
        )
    input_mat, truth_mat = _cut_windows(frame, [(channel, start) for channel in range(frame.n_channels)
                                                for start in starts], lookback_len, horizon_len)
    preds = []
    for i in range(0, len(input_mat), EVAL_CHUNK):
        pred = np.asarray(predict(input_mat[i:i + EVAL_CHUNK]))
        want = truth_mat[i:i + EVAL_CHUNK].shape
        if pred.shape != want:
            raise UsageError(f"predictor returned shape {pred.shape} for {want[0]} windows, "
                             f"expected (B, T) = {want}")
        preds.append(pred)
    pred_mat = np.concatenate(preds)
    out = {}
    for h in horizons:
        out[h] = compute_metrics(pred_mat[:, :h], truth_mat[:, :h])
        out[h]["n_windows"] = len(input_mat)
    return out


def _cut_windows(frame: D.SeriesFrame, pairs, lookback_len: int, horizon_len: int) -> tuple[np.ndarray, np.ndarray]:
    """The normalized ``([n, L], [n, T])`` windows at ``(channel, start)`` pairs."""
    samples = [D.make_window_sample(frame, channel, start, lookback_len, horizon_len) for channel, start in pairs]
    return np.concatenate([x for x, _ in samples]), np.concatenate([y for _, y in samples])


def fit_linear(frames: dict, sampler: D.SamplerConfig, lookback_len: int,
               horizon_len: int) -> tuple[np.ndarray, np.ndarray]:
    """The affine map ``(w[L, T], b[T])`` of least squared error over epoch 0's
    train-split windows, weighted as training draws them: 1/D per dataset, and
    alike within it, with ``LINEAR_RIDGE`` on the diagonal.

    With at least as many windows as features ``[x, 1]``, the float64 normal
    equations are summed ``LINEAR_CHUNK`` windows at a time and solved. With
    fewer, the smaller dual system is: ``(A Aᵀ + LINEAR_RIDGE I) α = B`` and
    ``W = Aᵀ α``, where A and B are the rows and targets scaled by the square
    roots of their weights, so no (L+1)² Gram is formed."""
    table = _window_table(frames, lookback_len + horizon_len, sampler, 0)
    n = lookback_len + 1
    chunks = _weighted_chunks(frames, table, lookback_len, horizon_len)
    if sum(frames[ds_id].n_channels * len(starts) for ds_id, starts in table.items()) < n:
        rows = [(xa * np.sqrt(weight), np.multiply(y, np.sqrt(weight), dtype=np.float64))
                for xa, y, weight in chunks]
        a, b = (np.concatenate(parts) for parts in zip(*rows))
        kernel = a @ a.T
        kernel.flat[::len(a) + 1] += LINEAR_RIDGE
        coef = a.T @ np.linalg.solve(kernel, b)
    else:
        gram, moment = np.zeros((n, n)), np.zeros((n, horizon_len))
        for xa, y, weight in chunks:
            xw = xa.T * weight
            gram += xw @ xa
            moment += xw @ y
        gram.flat[::n + 1] += LINEAR_RIDGE
        coef = np.linalg.solve(gram, moment)
    return coef[:-1], coef[-1]


def _weighted_chunks(frames: dict, table: dict, lookback_len: int, horizon_len: int):
    """``fit_linear``'s windows, ``LINEAR_CHUNK`` at a time: the float64 rows
    ``[x, 1]``, the float32 targets and the weight of each of their windows."""
    for ds_id, starts in table.items():
        frame = frames[ds_id]
        pairs = [(channel, int(start)) for channel in range(frame.n_channels) for start in starts]
        weight = 1.0 / (len(table) * len(pairs))
        for i in range(0, len(pairs), LINEAR_CHUNK):
            x, y = _cut_windows(frame, pairs[i:i + LINEAR_CHUNK], lookback_len, horizon_len)
            yield np.concatenate([x, np.ones((len(x), 1), np.float32)], axis=1, dtype=np.float64), y, weight


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: UShapedTransformer, path, seed: int = 0) -> None:
    """Length-prefixed JSON manifest (format version, model config, seed)
    followed by the raw little-endian float32 payload, parameters in the
    config's ``param_layout`` order. Frozen flags are not saved.

    Each parameter is written straight from its array (a float32 one without
    a copy), so a save never holds a second copy of the parameters. A seed
    the loader would refuse raises ``UsageError`` before ``path`` is opened."""
    if not valid_seed(seed):
        raise UsageError(f"checkpoint seed must be a non-negative integer, got {seed!r}")
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "config": config_to_dict(model.config),
        "seed": int(seed),
    }
    mjson = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(mjson)))
        fh.write(mjson)
        for _, p in model.params.items():
            fh.write(np.ascontiguousarray(p.data, dtype="<f4"))


def _parse_checkpoint(path, expected: ModelConfig | None) -> tuple[dict, ModelConfig, np.ndarray]:
    """Validate a checkpoint file and read its payload into one float32
    buffer. Sizes are checked against the file's before anything is read, and
    the model config against ``expected``, if given, by its first differing
    field; both before the payload buffer is allocated."""
    try:
        D.require_regular_file(path)
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            manifest, config, count = _read_manifest(fh, size, path)
            if expected is not None:
                ours, theirs = config_to_dict(expected), config_to_dict(config)
                if key := next((k for k in ours if ours[k] != theirs[k]), None):
                    raise CheckpointError(f"{path}: checkpoint model config '{key}' is {theirs[key]!r}, "
                                          f"the run config's is {ours[key]!r}")
            payload = np.empty(count, dtype="<f4")
            got = fh.readinto(payload)
    except OSError as e:
        raise CheckpointError(f"{path}: cannot read checkpoint: {e.strerror}") from None
    if got != payload.nbytes:  # the file shrank after its size was read
        raise CheckpointError(f"{path}: payload is {got} bytes, manifest implies {payload.nbytes}")
    return manifest, config, payload


def _read_manifest(fh, size: int, path) -> tuple[dict, ModelConfig, int]:
    """Read and validate the length prefix and manifest of a ``size``-byte
    checkpoint, whose config names every ``ModelConfig`` field (no default
    or preset fills one in) and nothing else; returns the manifest, its
    model config and the number of float32 values the payload that follows
    must hold: ``param_count`` of that config, which refuses one past
    ``MAX_PARAMS`` before anything is allocated."""
    head = fh.read(8)
    if len(head) < 8:
        raise CheckpointError(f"{path}: truncated before the manifest length")
    (mlen,) = struct.unpack("<Q", head)
    if 8 + mlen > size:
        raise CheckpointError(f"{path}: manifest length {mlen} overruns the file")
    try:
        manifest = json.loads(fh.read(mlen).decode("utf-8"))
    except ValueError as e:  # bad UTF-8, bad JSON, or an int past Python's digit limit
        raise CheckpointError(f"{path}: manifest is not valid JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    # by type as well as value, as 2.0 == 2; !r tells "2" from 2
    version = manifest.get("format_version", CHECKPOINT_VERSION)
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: format_version {version!r} unsupported (expected {CHECKPOINT_VERSION})")
    unknown = sorted(set(manifest) - set(_MANIFEST_FIELDS))
    if unknown:
        raise CheckpointError(f"{path}: unknown manifest fields: {unknown} "
                              f"(allowed: {list(_MANIFEST_FIELDS)})")
    missing = [f for f in _MANIFEST_FIELDS if f not in manifest]
    if missing:
        raise CheckpointError(f"{path}: manifest is missing fields: {missing}")
    if not valid_seed(manifest["seed"]):
        raise CheckpointError(f"{path}: manifest field 'seed' must be a non-negative integer, "
                              f"got {manifest['seed']!r}")
    try:
        config = config_from_dict(ModelConfig, manifest["config"], "model")
        if missing := sorted(set(config_to_dict(config)) - set(manifest["config"])):
            raise ConfigError(f"model config is missing keys: {missing}")
        count = param_count(config)
    except ConfigError as e:
        raise CheckpointError(f"{path}: manifest field 'config': {e}") from None
    if size - 8 - mlen != 4 * count:
        raise CheckpointError(f"{path}: payload is {size - 8 - mlen} bytes, manifest implies {4 * count}")
    return manifest, config, count


def _payload_values(config: ModelConfig, payload: np.ndarray, dtype):
    """Each parameter's slice of the payload, in ``param_layout`` order: a
    float32 view, or a copy for another dtype."""
    offset = 0
    for _, shape, _ in param_layout(config):
        size = math.prod(shape)
        yield payload[offset:offset + size].reshape(shape).astype(dtype, copy=False)
        offset += size


def load_checkpoint(path, config: ModelConfig | None = None) -> tuple[UShapedTransformer, dict]:
    """Rebuild a model from the checkpoint's own config and payload, refused
    before the payload is read if ``config`` is given and differs. Every
    parameter is trainable; ``finetune`` freezes the backbone itself."""
    manifest, config, payload = _parse_checkpoint(path, config)
    return UShapedTransformer(config, values=_payload_values(config, payload, T.DEFAULT_DTYPE)), manifest


def apply_checkpoint(model: UShapedTransformer, path) -> dict:
    """Load a checkpoint into an existing model of the same config; the first
    config field that disagrees is named in the error, before the payload is
    read. Every parameter is overwritten; which are frozen is left as it
    was."""
    manifest, config, payload = _parse_checkpoint(path, model.config)
    for (_, p), value in zip(model.params.items(), _payload_values(config, payload, model.dtype)):
        p.data = value
    model.params.zero_grads()
    return manifest


def backbone_hash(model: UShapedTransformer) -> str:
    """SHA-256 over the byte content of every non-head parameter."""
    h = hashlib.sha256()
    for name in model.backbone_names():
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(model.params[name].data, dtype="<f4"))
    return h.hexdigest()
