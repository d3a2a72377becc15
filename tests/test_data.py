"""Data pipeline: ingestion, windowing, sampling, normalization, masking."""

import json
import warnings

import numpy as np
import pytest

from utsf.data import (_CSV_BLOCK_CHARS, SamplerConfig, SeriesFrame, build_model_input,
                       jittered_windows, load_csv_dataset, load_registry,
                       make_log_frame, make_sine_frame, make_window_sample,
                       mask_series, normalize_sample, denormalize,
                       save_csv_dataset, weighted_sample, window_starts,
                       zero_mask_patches)
from utsf.errors import ConfigError, IngestionError, NumericError, UsageError
from utsf.model import preset


# ---------------------------------------------------------------------------
# ingestion


def test_csv_round_trip(tmp_path):
    frame = make_sine_frame("sine", n_channels=3, length=50, period=16.0, seed=1)
    path = tmp_path / "sine.csv"
    save_csv_dataset(frame, path)
    back = load_csv_dataset(path, "sine")
    assert back.channel_names == frame.channel_names
    assert np.array_equal(back.values, frame.values)  # %.8e is exact for f32
    assert path.read_text().startswith(",".join(frame.channel_names) + "\n")
    # a quoted name keeps its comma through a save, and the byte-order mark
    # that spreadsheet exports write is not part of the first name
    for text, names in (('"temp, C",rh\n1,2\n3,4\n', ["temp, C", "rh"]),
                        ("\ufeffv,w\n1,2\n3,4\n", ["v", "w"])):
        path.write_text(text, encoding="utf-8")
        frame = load_csv_dataset(path, "in")
        assert frame.channel_names == names
        save_csv_dataset(frame, path)
        back = load_csv_dataset(path, "in")
        assert back.channel_names == names
        assert np.array_equal(back.values, [[1.0, 3.0], [2.0, 4.0]])


def test_csv_loader_shapes(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n3,4\n5,6\n")
    frame = load_csv_dataset(p, "d")
    assert frame.values.shape == (2, 3)
    assert frame.values.dtype == np.float32
    assert frame.channel_names == ["a", "b"]
    assert np.array_equal(frame.values[:, 1], [3.0, 4.0])


def test_a_frame_is_stored_channels_major(tmp_path):
    # the loader reads (rows, C) and passes its transpose: the frame keeps a
    # C-contiguous copy, so each channel's windows are contiguous slices
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n3,4\n5,6\n")
    for frame in (load_csv_dataset(p, "d"), SeriesFrame("x", ["a", "b"], np.ones((3, 2), dtype=np.float32).T)):
        assert frame.values.shape == (2, 3) and frame.values.flags.c_contiguous


def test_csv_loader_reports_cell_coordinates(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n3,\n")
    with pytest.raises(IngestionError, match=r"row 3, column 'b'"):
        load_csv_dataset(p, "bad")
    p.write_text("a,b\n1,2\nx,4\n")
    with pytest.raises(IngestionError, match=r"row 3, column 'a'"):
        load_csv_dataset(p, "bad")
    p.write_text("a,b\n1,2\ninf,4\n")
    with pytest.raises(IngestionError, match="row 3"):
        load_csv_dataset(p, "bad")
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(IngestionError, match="row 3"):
        load_csv_dataset(p, "bad")
    p.write_text("a,b\n")
    with pytest.raises(IngestionError):
        load_csv_dataset(p, "bad")
    # the same cases below valid rows, plus the rows a vectorized parse would
    # skip or accept: a blank line, too few columns for the header
    ok_rows = "".join(f"{i},{-i}\n" for i in range(50))
    for body, where in (("3,\n", r"row 54, column 'b'"), ("x,4\n", r"row 54, column 'a'"),
                        ("1,nan\n", r"row 54, column 'b'"), ("3\n", "row 54 has 1 cells"),
                        ("\n", "row 54 has 0 cells"), ("1,2,3\n", "row 54 has 3 cells")):
        p.write_text("a,b\n1,2\n1,2\n" + ok_rows + body + "5,6\n")
        with pytest.raises(IngestionError, match=where):
            load_csv_dataset(p, "bad")
    p.write_text("a,b,c\n1,2\n3,4\n")
    with pytest.raises(IngestionError, match="row 2 has 2 cells, header has 3"):
        load_csv_dataset(p, "bad")
    p.write_bytes(b"a,b\n1,2\xff\n")
    with pytest.raises(IngestionError, match="UTF-8"):
        load_csv_dataset(p, "bad")
    # past row 50 000 the rows reach the vectorized parse in several blocks; the
    # scan still names the cell, a blank row, a block of wider rows and bytes
    # that are not UTF-8
    many_rows = "a,b\n" + "".join(f"{i},{-i}\n" for i in range(50_010))
    for body, where in (("7,x\n", r"row 50012, column 'b'"), ("\n", "row 50012 has 0 cells"),
                        ("1,2,3\n" * 30_000, "row 50012 has 3 cells")):
        p.write_text(many_rows + body + "5,6\n")
        with pytest.raises(IngestionError, match=where):
            load_csv_dataset(p, "bad")
    p.write_bytes(many_rows.encode("utf-8") + b"1,2\xff\n")
    with pytest.raises(IngestionError, match="UTF-8"):
        load_csv_dataset(p, "bad")


def test_csv_loader_names_a_width_change_at_a_block_boundary(tmp_path):
    # each block parses on its own, so only the block widths disagree
    p = tmp_path / "ragged.csv"
    p.write_text("a,b\n" + "1.0,2.0\n" * 32_769 + "3.0\n" * 10)
    with open(p, newline="", encoding="utf-8") as fh:
        fh.readline()
        first = fh.readlines(_CSV_BLOCK_CHARS)
    assert len(first) == 32_769 and set(first) == {"1.0,2.0\n"}
    with pytest.raises(IngestionError, match="row 32771 has 1 cells, header has 2"):
        load_csv_dataset(p, "ragged")


def test_csv_loader_matches_float_per_cell(tmp_path):
    """Every cell loads as float32(float(cell)), bit for bit, whatever its spelling."""
    rng = np.random.default_rng(4)
    spellings = ("{:.8e}", "{!r}", " {:+.3f} ", "\t{:E}", "{:g}", "{:.17g}", "{:+.0f}.", "{:.2e}")
    cells = [[spellings[(r + c) % len(spellings)].format(float(v))
              for c, v in enumerate(row)]
             for r, row in enumerate(rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-40, 38, (40, 3)))]
    cells[0] = ["-0", "+1e-46", "  7  "]  # negative zero, float32 underflow, padding
    text = "x, y ,z\r\n" + "".join(",".join(row) + "\r\n" for row in cells)
    p = tmp_path / "spellings.csv"
    p.write_bytes(text.encode("utf-8"))
    frame = load_csv_dataset(p, "s")
    want = np.array([[np.float32(float(cell)) for cell in row] for row in cells], dtype=np.float32)
    assert frame.channel_names == ["x", "y", "z"]
    assert frame.values.tobytes() == want.T.tobytes()
    # cells numpy refuses but float() accepts still load the same way
    p.write_text('a,b\n"1.5",2_000\n3,4\n')
    assert np.array_equal(load_csv_dataset(p, "q").values, [[1.5, 3.0], [2000.0, 4.0]])


def test_registry_loading(tmp_path):
    frame = make_sine_frame("s1", n_channels=1, length=30, period=8.0)
    save_csv_dataset(frame, tmp_path / "s1.csv")
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps({"s1": {"path": "s1.csv"}}))
    frames = load_registry(reg)
    assert list(frames) == ["s1"]
    assert frames["s1"].values.shape == (1, 30)

    reg.write_text(json.dumps({"s1": {"path": "s1.csv", "color": "red"}}))
    with pytest.raises(ConfigError, match="color"):
        load_registry(reg)
    reg.write_text(json.dumps({"gone": {"path": "missing.csv"}}))
    with pytest.raises(ConfigError, match="gone"):
        load_registry(reg)
    # wrong-typed entries name the entry instead of escaping as TypeError/ValueError
    for entry in ({"path": 5}, {"path": "s1.csv", "splits": "abc"}, {"path": "s1.csv", "splits": 5},
                  {"path": "s1.csv", "splits": [0.7, 0.3]}, {"path": "s1.csv", "splits": [True, 0, 0]},
                  {"path": "s1.csv", "splits": [0.7, "0.1", 0.2]},
                  {"path": "s1.csv", "splits": [float("nan"), 0.3, 0.7]}):
        reg.write_text(json.dumps({"odd": entry}))
        with pytest.raises(ConfigError, match="odd"):
            load_registry(reg)


def test_split_bounds_use_integer_truncation():
    frame = SeriesFrame("x", ["c0"], np.ones((1, 103), dtype=np.float32))
    lo, hi = frame.split_bounds("train")
    assert (lo, hi) == (0, 72)              # int(0.7 * 103)
    assert frame.split_bounds("validate") == (72, 82)
    assert frame.split_bounds("test") == (82, 103)
    with pytest.raises(UsageError):
        frame.split_bounds("dev")


def test_frame_validation():
    with pytest.raises(IngestionError):
        SeriesFrame("x", ["a"], np.ones(5, dtype=np.float32))  # 1-D
    with pytest.raises(IngestionError):
        SeriesFrame("x", ["a", "b"], np.ones((1, 5), dtype=np.float32))
    bad = np.ones((1, 5), dtype=np.float32)
    bad[0, 2] = np.nan
    with pytest.raises(IngestionError):
        SeriesFrame("x", ["a"], bad)


# ---------------------------------------------------------------------------
# window enumeration


def test_window_starts_stride_oracle():
    # length 10, window 2, stride 3, no jitter: starts 0, 3, 6
    sampler = SamplerConfig(stride=3, jitter=False)
    assert window_starts(10, 2, sampler).tolist() == [0, 3, 6]


def test_window_starts_stride_one_is_every_position():
    sampler = SamplerConfig(stride=1, jitter=False)
    assert window_starts(10, 4, sampler).tolist() == list(range(7))


def test_window_starts_jitter_stays_in_lane():
    sampler = SamplerConfig(stride=6, jitter=True, seed=3)
    for epoch in range(5):
        starts = window_starts(100, 10, sampler, epoch=epoch)
        base = np.arange(len(starts)) * 6
        assert np.all(starts >= base)
        assert np.all(starts <= base + 3)
        assert np.all(starts + 10 <= 100)


def test_window_starts_vary_by_epoch_and_salt():
    sampler = SamplerConfig(stride=8, jitter=True, seed=0)
    a = window_starts(400, 16, sampler, epoch=0)
    b = window_starts(400, 16, sampler, epoch=1)
    c = window_starts(400, 16, sampler, epoch=0, salt=99)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, window_starts(400, 16, sampler, epoch=0))


def test_window_starts_warn_and_empty_when_too_short():
    # no window is an empty result, not a warning; the trainer names the dataset
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = window_starts(10, 9, SamplerConfig(stride=4, jitter=True))  # jitter margin eats the only slot
        assert out.size == 0 and out.dtype == np.int64
        assert window_starts(8, 9, SamplerConfig(stride=1, jitter=False)).size == 0
        assert window_starts(9, 9, SamplerConfig(stride=1, jitter=False)).tolist() == [0]


def test_window_count_is_jitter_independent():
    # enumeration reserves the jitter margin even with jitter off, so the
    # window count never depends on the flag
    on = SamplerConfig(stride=6, jitter=True, seed=0)
    off = SamplerConfig(stride=6, jitter=False, seed=0)
    assert window_starts(100, 10, on).size == window_starts(100, 10, off).size == 15


def test_jittered_windows_offsets_into_split():
    values = np.arange(200, dtype=np.float32).reshape(1, 200)
    frame = SeriesFrame("ds", ["c0"], values)
    sampler = SamplerConfig(stride=5, jitter=False)
    starts = jittered_windows(frame, 10, sampler)
    lo, hi = frame.split_bounds("train")
    assert (lo, hi) == (0, 140) and starts.tolist() == list(range(0, 130, 5))
    for epoch in range(5):  # jitter never carries a window past the train split
        jittered = jittered_windows(frame, 10, SamplerConfig(stride=5, jitter=True, seed=3), epoch)
        assert jittered.size == 26 and np.all(jittered >= lo) and np.all(jittered + 10 <= hi)


def test_jittered_windows_differ_across_datasets():
    # same geometry, different ids: the salt decorrelates the jitter
    sampler = SamplerConfig(stride=8, jitter=True, seed=0)
    vals = np.zeros((1, 600), dtype=np.float32)
    a = jittered_windows(SeriesFrame("alpha", ["c"], vals), 16, sampler)
    b = jittered_windows(SeriesFrame("beta", ["c"], vals), 16, sampler)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# dataset sampling


def test_weighted_sample_is_uniform_over_datasets():
    rng = np.random.default_rng(0)
    datasets = [("a", 10), ("b", 1000), ("c", 100000)]
    draws = [weighted_sample(datasets, rng) for _ in range(100_000)]
    for name in "abc":
        freq = draws.count(name) / len(draws)
        assert abs(freq - 1.0 / 3.0) < 0.02, (name, freq)


def test_weighted_sample_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(UsageError):
        weighted_sample([], rng)
    with pytest.raises(UsageError):
        weighted_sample([("a", 0)], rng)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_standardizes():
    arr, mu, sigma = normalize_sample(np.array([1.0, 2.0, 3.0], dtype=np.float32))
    assert mu == pytest.approx(2.0)
    assert sigma == pytest.approx(np.sqrt(2.0 / 3.0))
    assert np.allclose(arr, [-1.2247449, 0.0, 1.2247449], atol=1e-6)


def test_normalize_low_sigma_branch_only_centers():
    arr, mu, sigma = normalize_sample(np.array([5.0, 5.0, 5.0], dtype=np.float32))
    assert sigma < 0.01
    assert np.array_equal(arr, np.zeros(3, dtype=np.float32))
    assert denormalize(arr, mu, sigma).tolist() == [5.0, 5.0, 5.0]


def test_sigma_floor_separates_branches():
    # exactly representable just-above case divides ...
    arr, _, sigma = normalize_sample(np.array([0.0, 0.03125], dtype=np.float32))
    assert sigma == pytest.approx(0.015625)
    assert np.allclose(arr, [-1.0, 1.0], atol=1e-6)
    # ... just-below case only centers
    arr, _, sigma = normalize_sample(np.array([0.0, 0.0196], dtype=np.float32))
    assert sigma < 0.01
    assert np.allclose(arr, [-0.0098, 0.0098], atol=1e-6)


def test_normalize_round_trips_both_branches():
    rng = np.random.default_rng(4)
    wide = rng.standard_normal(64).astype(np.float32) * 12 + 5
    flat = np.full(64, 2.5, dtype=np.float32) + rng.standard_normal(64).astype(np.float32) * 1e-4
    for src in (wide, flat):
        arr, mu, sigma = normalize_sample(src)
        assert np.allclose(denormalize(arr, mu, sigma), src, atol=1e-5)


def test_normalize_rejects_non_finite():
    with pytest.raises(NumericError):
        normalize_sample(np.array([1.0, np.inf], dtype=np.float32))


# ---------------------------------------------------------------------------
# model input assembly


def test_build_model_input_identity_when_lengths_match():
    cfg = preset("tiny")  # model_len 64, horizon 32
    x = np.arange(32, dtype=np.float32)
    out = build_model_input(x, cfg)
    assert out.shape == (1, 64)
    assert np.array_equal(out[0, :32], x)
    assert np.array_equal(out[0, 32:], np.full(32, 31.0, dtype=np.float32))


def test_build_model_input_pools_other_lengths():
    cfg = preset("tiny")
    ramp = np.arange(100, dtype=np.float32)  # padded to 132, pooled down to 64
    out = build_model_input(ramp, cfg)
    assert out.shape == (1, 64)
    assert np.all(np.diff(out[0]) >= 0.0)      # bin means keep the ramp monotone
    assert out[0, -1] == pytest.approx(99.0)   # final bin sits in the constant tail
    short = build_model_input(np.arange(20, dtype=np.float32), cfg)  # 52 -> 64 upsample
    assert short.shape == (1, 64)
    assert short[0, -1] == pytest.approx(19.0)


def test_build_model_input_constant_series_stays_constant():
    out = build_model_input(np.full(20, 3.0, dtype=np.float32), preset("tiny"))
    assert np.allclose(out, 3.0, atol=1e-6)


# ---------------------------------------------------------------------------
# masking


def test_zero_mask_patch_count_is_exact():
    rng = np.random.default_rng(0)
    assert zero_mask_patches(48, 0.4, rng).sum() == 19  # floor(19.2)
    assert zero_mask_patches(10, 0.3, rng).sum() == 3
    assert zero_mask_patches(8, 0.0, rng).sum() == 0
    assert zero_mask_patches(8, 1.0, rng).sum() == 8


def test_zero_mask_matches_shuffle_oracle():
    # reimplement the documented draw protocol and compare selections
    for seed in range(10):
        mask = zero_mask_patches(16, 0.5, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        idx = list(range(16))
        for i in range(8):
            j = int(rng.integers(i, 16))
            idx[i], idx[j] = idx[j], idx[i]
        oracle = np.zeros(16, dtype=bool)
        oracle[idx[:8]] = True
        assert np.array_equal(mask, oracle)


def test_zero_mask_selection_is_uniform():
    n, trials = 12, 4000
    counts = np.zeros(n)
    rng = np.random.default_rng(123)
    for _ in range(trials):
        counts += zero_mask_patches(n, 0.25, rng)
    freq = counts / trials  # each position should carry k/n = 0.25
    assert np.all(np.abs(freq - 0.25) < 0.03), freq


def test_mask_series_zeroes_whole_patches():
    series = np.ones((1, 32), dtype=np.float32)
    mask = np.array([True, False, False, True], dtype=bool)
    out = mask_series(series, mask, patch_size=8)
    assert np.all(out[0, :8] == 0.0) and np.all(out[0, 24:] == 0.0)
    assert np.all(out[0, 8:24] == 1.0)
    assert np.all(series == 1.0)  # input untouched
    with pytest.raises(UsageError):
        mask_series(series, mask[:3], patch_size=8)


# ---------------------------------------------------------------------------
# window samples and generators


def test_make_window_sample_normalizes_target_with_input_stats():
    values = np.arange(100, dtype=np.float32).reshape(1, 100)
    frame = SeriesFrame("ds", ["c0"], values)
    x, y = make_window_sample(frame, channel=0, start=10, lookback_len=8, horizon_len=4)
    norm_in, mu, sigma = normalize_sample(values[:, 10:18])
    assert x.shape == (1, 8) and y.shape == (1, 4)
    assert x.dtype == norm_in.dtype and x.tobytes() == norm_in.tobytes()
    assert np.allclose(denormalize(y, mu, sigma), values[0, 18:22], atol=1e-4)
    with pytest.raises(UsageError):
        make_window_sample(frame, channel=0, start=95, lookback_len=8, horizon_len=4)


def test_sine_frame_properties():
    frame = make_sine_frame("s", n_channels=2, length=64, period=16.0, seed=0)
    assert frame.values.shape == (2, 64)
    # period 16: value repeats every 16 steps
    assert np.allclose(frame.values[0, :48], frame.values[0, 16:], atol=1e-5)
    noisy = make_sine_frame("s", n_channels=1, length=64, period=16.0, noise=0.1, seed=1)
    assert not np.allclose(noisy.values[0, :48], noisy.values[0, 16:], atol=1e-3)


def test_log_frame_is_monotone():
    frame = make_log_frame("l", n_channels=2, length=50, scale=2.0)
    assert frame.values.shape == (2, 50)
    assert np.all(np.diff(frame.values, axis=1) > 0.0)
    assert not np.array_equal(frame.values[0], frame.values[1])
