"""Dataset ingestion, jittered window sampling, normalization, masking, and
model-input assembly.

Everything here works on plain numpy arrays; values only become autodiff
tensors at the model boundary. Series are stored channels-major (C x length)
and every channel is treated as an independent univariate sequence.
"""

from __future__ import annotations

import csv
import errno
import json
import os
import stat
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ConfigError, IngestionError, NumericError, UsageError
from .model import ModelConfig, float_overflows, valid_seed

# below this the window is treated as flat and only centered, never scaled
SIGMA_FLOOR = 0.01

# load_csv_dataset converts the rows of about this many characters per np.loadtxt call
_CSV_BLOCK_CHARS = 1 << 18

DEFAULT_SPLITS = (0.7, 0.1, 0.2)

_SPLIT_NAMES = ("train", "validate", "test")


@dataclass
class SeriesFrame:
    """A raw multivariate series with chronological train/validate/test tags.

    Parameters
    ----------
    dataset_id : str
        Identity used by the sampler and in metric rows.
    channel_names : list of str
    values : ndarray [C x length], float32, stored C-contiguous
    splits : (train, validate, test) fractions summing to 1
    """

    dataset_id: str
    channel_names: list
    values: np.ndarray
    splits: tuple = DEFAULT_SPLITS

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise IngestionError(f"series values must be 2-D (channels x time), got {self.values.shape}")
        if len(self.channel_names) != self.values.shape[0]:
            raise IngestionError(
                f"{len(self.channel_names)} channel names for {self.values.shape[0]} channels"
            )
        if not T.all_finite(self.values):
            raise IngestionError(f"dataset '{self.dataset_id}' contains non-finite values")
        self.splits = tuple(float(s) for s in self.splits)
        # written so that a NaN or infinite fraction fails the sum test
        if len(self.splits) != 3 or min(self.splits) < 0 or not abs(sum(self.splits) - 1.0) <= 1e-6:
            raise ConfigError(f"dataset '{self.dataset_id}': split fractions must be 3 nonnegative "
                              f"values summing to 1, got {self.splits}")

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]

    def split_bounds(self, split: str) -> tuple[int, int]:
        """[start, end) index range of one chronological split."""
        if split not in _SPLIT_NAMES:
            raise UsageError(f"unknown split '{split}' (have {_SPLIT_NAMES})")
        n_train = int(self.splits[0] * self.length)
        n_val = int(self.splits[1] * self.length)
        if split == "train":
            return 0, n_train
        if split == "validate":
            return n_train, n_train + n_val
        return n_train + n_val, self.length


def require_regular_file(path) -> None:
    """Raise ``OSError`` unless ``path`` is a regular file, so callers report
    it as a file they cannot read. Checked before the file is opened: a
    device such as ``/dev/zero`` reads without bound and a FIFO blocks."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise OSError(errno.EINVAL, "not a regular file", str(path))


def load_csv_dataset(path, dataset_id: str, splits=DEFAULT_SPLITS) -> SeriesFrame:
    """Read a UTF-8 CSV with a header of channel names and one timestep per row.

    Rejects blank cells, unparsable or non-finite values, and ragged rows,
    naming the offending row (1-based, header = row 1) and column. A leading
    byte-order mark is not part of the first name.

    The rows are read in blocks of about 256 KB of text, so the file is
    never held whole, and each block is converted by one ``np.loadtxt``:
    all of its cells at once, as float64 rounded to float32, which gives the
    values ``float()`` gives per cell. Only when that conversion refuses a
    block, gives one of another width than the header's, drops a row or
    yields a non-finite value is the file read again by the per-cell scan:
    it names the first bad cell, or parses what numpy refuses and
    ``float()`` accepts (quoted or underscored numbers). A value
    past the float32 range rounds to infinity without a warning, and the scan
    names its cell.
    """
    path = Path(path)
    try:
        require_regular_file(path)
        values = None
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = [c.strip() for c in next(csv.reader(fh), [])]
            blocks, n_lines = [], 0
            while lines := fh.readlines(_CSV_BLOCK_CHARS):
                n_lines += len(lines)
                # loadtxt skips blank lines and warns when nothing else is left:
                # a blank line shows as a line-count mismatch, and the scan then
                # rejects it
                if not lines[0].strip("\r\n"):
                    break
                try:
                    block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
                except ValueError:  # a cell numpy refuses, or rows of unequal width
                    break
                if block.shape[1] != len(header):
                    break
                with np.errstate(over="ignore"):  # the scan names a cell past the float32 range
                    blocks.append(block.astype(np.float32))
            else:
                if blocks:
                    values = np.concatenate(blocks)
        if values is None or len(values) != n_lines or not T.all_finite(values):
            values = _scan_cells(path, header)
    except OSError as e:
        raise IngestionError(f"{path}: cannot read: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise IngestionError(f"{path}: not UTF-8 text: {e}") from None
    except csv.Error as e:
        raise IngestionError(f"{path}: {e}") from None
    return SeriesFrame(dataset_id, header, values.T, splits)


@np.errstate(over="ignore")  # a cell past the float32 range is named below, not warned of
def _scan_cells(path: Path, header: list) -> np.ndarray:
    """Per-cell conversion of the rows after the header, naming the first bad
    cell; ``load_csv_dataset`` names the read errors."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        rows = list(reader)
    if not rows:
        raise IngestionError(f"{path}: need a header row plus at least one data row")
    n_cols = len(header)
    data = np.empty((len(rows), n_cols), dtype=np.float32)
    for r, row in enumerate(rows, start=2):
        if len(row) != n_cols:
            raise IngestionError(f"{path}: row {r} has {len(row)} cells, header has {n_cols}")
        for c, cell in enumerate(row):
            cell = cell.strip()
            col = header[c]
            if not cell:
                raise IngestionError(f"{path}: blank cell at row {r}, column '{col}'")
            try:
                v = float(cell)
            except ValueError:
                raise IngestionError(f"{path}: unparsable value '{cell}' at row {r}, column '{col}'") from None
            data[r - 2, c] = v
            if not np.isfinite(data[r - 2, c]):
                raise IngestionError(f"{path}: value '{cell}' at row {r}, column '{col}' is not a finite float32")
    return data


def save_csv_dataset(frame: SeriesFrame, path) -> None:
    """Inverse of load_csv_dataset; 9 significant digits round-trip float32 exactly."""
    lines = [",".join(f"{v:.8e}" for v in frame.values[:, t]) for t in range(frame.length)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(frame.channel_names)
        fh.write("\n".join(lines) + "\n")


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file at ``path``. A file that is not a regular
    file, cannot be read, is not UTF-8 or does not hold a JSON object raises
    ``ConfigError`` naming ``what`` and the path."""
    try:
        require_regular_file(path)
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{what} {path} is not UTF-8 text: {e}") from None
    except ValueError as e:  # a JSONDecodeError, or an int past Python's digit limit
        raise ConfigError(f"{what} {path} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return raw


def load_registry(path) -> dict[str, SeriesFrame]:
    """Load a JSON registry {dataset_id: {path, splits?}}; paths resolve
    relative to the registry file."""
    path = Path(path)
    raw = read_json_object(path, "dataset registry")
    frames: dict[str, SeriesFrame] = {}
    for ds_id, entry in raw.items():
        if not isinstance(entry, dict):
            raise ConfigError(f"registry entry '{ds_id}' must be an object")
        unknown = set(entry) - {"path", "splits"}
        if unknown:
            raise ConfigError(f"registry entry '{ds_id}' has unknown keys: {sorted(unknown)}")
        if "path" not in entry:
            raise ConfigError(f"registry entry '{ds_id}' is missing 'path'")
        if not isinstance(entry["path"], str):
            raise ConfigError(f"registry entry '{ds_id}': 'path' must be a string, got {entry['path']!r}")
        splits = entry.get("splits", list(DEFAULT_SPLITS))
        if not (isinstance(splits, list) and len(splits) == 3
                and all(type(s) in (int, float) for s in splits)):
            raise ConfigError(f"registry entry '{ds_id}': 'splits' must be a list of 3 numbers, got {splits!r}")
        if any(map(float_overflows, splits)):
            raise ConfigError(f"registry entry '{ds_id}': 'splits' holds an integer too large for a float")
        csv_path = path.parent / entry["path"]
        if not csv_path.is_file():
            raise ConfigError(f"dataset '{ds_id}': not a file: {csv_path}")
        frames[ds_id] = load_csv_dataset(csv_path, ds_id, tuple(splits))
    if not frames:
        raise ConfigError(f"registry {path} lists no datasets")
    return frames


# ---------------------------------------------------------------------------
# window sampling


@dataclass(frozen=True)
class SamplerConfig:
    """Stride and jitter policy for window enumeration."""

    stride: int = 1
    jitter: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.stride < 1:
            raise ConfigError(f"sampler stride must be >= 1, got {self.stride}")
        if not valid_seed(self.seed):
            raise ConfigError(f"sampler seed must be a non-negative integer, got {self.seed!r}")


def window_starts(usable_len: int, window_len: int, sampler: SamplerConfig,
                  epoch: int = 0, salt: int = 0) -> np.ndarray:
    """Window start offsets at stride tau with per-window jitter in [0, tau//2].

    The count is fixed at ((usable - window - tau//2) // tau) + 1 so every
    jittered start still fits; jitter is redrawn per epoch from a seeded
    stream, making enumeration a pure function of its arguments.
    """
    if window_len < 1:
        raise UsageError(f"window length must be >= 1, got {window_len}")
    tau = sampler.stride
    half = tau // 2
    n = (usable_len - window_len - half) // tau + 1 if usable_len >= window_len else 0
    if n <= 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.arange(n, dtype=np.int64) * tau
    if sampler.jitter and half > 0:
        rng = np.random.default_rng((sampler.seed, epoch, salt))
        starts = starts + rng.integers(0, half + 1, size=n)
    return starts


def jittered_windows(frame: SeriesFrame, window_len: int, sampler: SamplerConfig,
                     epoch: int = 0) -> np.ndarray:
    """Start indices of the windows lying fully inside the train split."""
    _, n_train = frame.split_bounds("train")
    salt = zlib.crc32(frame.dataset_id.encode())
    return window_starts(n_train, window_len, sampler, epoch, salt)


def weighted_sample(datasets: list, rng: np.random.Generator) -> str:
    """Pick a dataset id from [(dataset_id, window_count), ...].

    Each individual window carries weight 1/(X_d * D), so every dataset's
    total mass is exactly 1/D: realized as a uniform choice over datasets
    (the within-dataset window is drawn uniformly by the caller).
    """
    if not datasets:
        raise UsageError("weighted_sample over an empty dataset list")
    for ds_id, count in datasets:
        if count < 1:
            raise UsageError(f"dataset '{ds_id}' has no windows")
    return datasets[int(rng.integers(len(datasets)))][0]


# ---------------------------------------------------------------------------
# normalization


def normalize_sample(window) -> tuple[np.ndarray, float, float]:
    """Standardize a window by its own statistics, with a low-variance guard.

    Population sigma >= 0.01: returns (window - mu) / sigma. Below that the
    window is only centered, since dividing by a near-zero sigma would
    explode flat segments. Returns (normalized, mu, sigma) so the map inverts.
    """
    arr = np.asarray(window, dtype=np.float32)
    if not T.all_finite(arr):
        raise NumericError("normalize_sample input is not finite")
    mu = float(arr.mean(dtype=np.float64))
    sigma = float(arr.std(dtype=np.float64))
    return apply_normalization(arr, mu, sigma), mu, sigma


def apply_normalization(values, mu: float, sigma: float) -> np.ndarray:
    """Apply an already-computed (mu, sigma) pair under the same branch rule.
    A value that overflows float32 on the way is a ``NumericError`` naming
    the pair, under any warning filter."""
    arr = np.asarray(values, dtype=np.float32)
    with np.errstate(over="ignore"):
        out = ((arr - mu) / sigma if sigma >= SIGMA_FLOOR else arr - mu).astype(np.float32)
    if not T.all_finite(out):
        raise NumericError(f"the normalized window overflows float32 (mu {mu:.6g}, sigma {sigma:.6g})")
    return out


def denormalize(values, mu: float, sigma: float) -> np.ndarray:
    """Exact inverse of apply_normalization on the branch sigma selects. A
    value past the float32 range becomes inf without a warning: the caller
    names it."""
    arr = np.asarray(values, dtype=np.float32)
    with np.errstate(over="ignore"):
        return (arr * sigma + mu if sigma >= SIGMA_FLOOR else arr + mu).astype(np.float32)


# ---------------------------------------------------------------------------
# model-input assembly


def build_model_input(windows, config: ModelConfig) -> np.ndarray:
    """Pad with copies of the last value, then pool to the model length.

    ``windows`` is one window or a (B, length) batch, one row per window.
    Each row's horizon region is filled with horizon_len repeats of its
    final observation; adaptive average pooling then maps any input length
    onto the fixed token geometry (identity when lengths already agree).
    Returns (B, model_len).
    """
    arr = np.atleast_2d(np.asarray(windows, dtype=np.float32))
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise UsageError(f"input windows must be a non-empty (B, length) array, got shape {arr.shape}")
    pad = np.repeat(arr[:, -1:], config.horizon_len, axis=1)
    return T.adaptive_avg_pool1d(np.concatenate([arr, pad], axis=1), config.model_len)


def zero_mask_patches(n_patches: int, mask_ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean mask selecting exactly floor(mask_ratio * n_patches) patches.

    Partial Fisher-Yates: after k swaps the prefix equals the first k
    entries of a full seeded shuffle, so selection is uniform without
    replacement and cheap for small ratios.
    """
    if not 0.0 <= mask_ratio <= 1.0:
        raise UsageError(f"mask_ratio must be in [0, 1], got {mask_ratio}")
    # tiny nudge so decimal ratios land on their exact multiples (0.3 * 10 -> 3)
    k = int(np.floor(np.float64(mask_ratio) * n_patches + 1e-9))
    mask = np.zeros(n_patches, dtype=bool)
    if k == 0:
        return mask
    idx = np.arange(n_patches)
    for i in range(k):
        j = int(rng.integers(i, n_patches))
        idx[i], idx[j] = idx[j], idx[i]
    mask[idx[:k]] = True
    return mask


def mask_series(series, mask: np.ndarray, patch_size: int) -> np.ndarray:
    """Zero out whole patches of a (1, n*patch_size) series; returns a copy."""
    arr = np.array(series, dtype=np.float32, copy=True)
    n = len(mask)
    if arr.shape != (1, n * patch_size):
        raise UsageError(f"series shape {arr.shape} does not match {n} patches of size {patch_size}")
    arr.reshape(n, patch_size)[mask] = 0.0
    return arr


def make_window_sample(frame: SeriesFrame, channel: int, start: int,
                       lookback_len: int, horizon_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Cut a contiguous lookback+horizon segment into its normalized
    ([1, L] input, [1, T] target) pair; the target is normalized with the
    input window's (mu, sigma), so it stays invertible."""
    end = start + lookback_len + horizon_len
    if start < 0 or end > frame.length:
        raise UsageError(f"window [{start}, {end}) outside series of length {frame.length}")
    seg = frame.values[channel, start:end]
    raw_input = seg[:lookback_len].reshape(1, -1)
    raw_target = seg[lookback_len:].reshape(1, -1)
    norm_input, mu, sigma = normalize_sample(raw_input)
    norm_target = apply_normalization(raw_target, mu, sigma)
    return norm_input, norm_target


# ---------------------------------------------------------------------------
# synthetic generators


def make_sine_frame(dataset_id: str, length: int, n_channels: int = 1,
                    period: float = 64.0, noise: float = 0.0, seed: int = 0) -> SeriesFrame:
    """Unit sinusoid dataset; channel c is the wave shifted by c*pi/4."""
    t = np.arange(length, dtype=np.float64)
    rng = np.random.default_rng(seed)
    rows = []
    for c in range(n_channels):
        row = np.sin(2.0 * np.pi * t / period + c * np.pi / 4.0)
        if noise > 0.0:
            row = row + rng.normal(0.0, noise, size=length)
        rows.append(row)
    names = [f"sine{c}" for c in range(n_channels)]
    return SeriesFrame(dataset_id, names, np.stack(rows))


def make_log_frame(dataset_id: str, length: int, n_channels: int = 1,
                   scale: float = 1.0, noise: float = 0.0, seed: int = 0) -> SeriesFrame:
    """Slowly saturating log-trend dataset, one constant offset per channel."""
    t = np.arange(length, dtype=np.float64)
    rng = np.random.default_rng(seed)
    rows = []
    for c in range(n_channels):
        row = scale * np.log1p(t) + float(c)
        if noise > 0.0:
            row = row + rng.normal(0.0, noise, size=length)
        rows.append(row)
    names = [f"log{c}" for c in range(n_channels)]
    return SeriesFrame(dataset_id, names, np.stack(rows))
