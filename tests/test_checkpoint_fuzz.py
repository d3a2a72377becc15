"""Property tests: no mutation of a valid checkpoint, of the input CSV or of
the run config escapes ``utsf forecast`` as a traceback, and no mutation of
a dataset registry escapes ``utsf pretrain``; each ends in success, a named
error (2) or a numeric failure (3)."""

import json
import struct

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from utsf.cli import main  # noqa: E402
from utsf.data import make_log_frame, make_sine_frame, save_csv_dataset  # noqa: E402
from utsf.model import UShapedTransformer, config_to_dict, preset  # noqa: E402
from utsf.training import save_checkpoint  # noqa: E402


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "run.json").write_text(json.dumps({"model": {"preset": "tiny"}, "seed": 0}))
    save_csv_dataset(make_sine_frame("probe", n_channels=1, length=40, period=16.0, seed=7),
                     root / "probe.csv")
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), root / "ck.bin")
    save_csv_dataset(make_sine_frame("sine", n_channels=2, length=160, period=16.0, seed=0), root / "sine.csv")
    save_csv_dataset(make_log_frame("log", length=120), root / "log.csv")
    blob = (root / "ck.bin").read_bytes()
    n = struct.unpack("<Q", blob[:8])[0]
    return root, blob, json.loads(blob[8:8 + n]), blob[8 + n:]


def _manifest_paths():
    """Key paths into the manifest: its fields, the config's, and fields it
    does not have (format 1's ``params`` and an unknown one), which ``_walk``
    inserts."""
    config = config_to_dict(preset("tiny"))
    paths = [(k,) for k in ("format_version", "config", "seed", "params", "extra")]
    paths += [("config", k) for k in config] + [("config", "patch_stride"), ("config", "dropout")]
    return paths


def _json_values(integers):
    return st.recursive(
        st.none() | st.booleans() | integers | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )


_JSON = _json_values(st.integers())


def _walk(doc, path):
    """The object that holds the last key of ``path`` in ``doc``, and that key."""
    *parents, key = path
    for p in parents:
        doc = doc[p]
    return doc, key


@st.composite
def _mutants(draw, blob, manifest, payload):
    """``(kind, bytes)`` of one mutation of a valid checkpoint."""
    kind = draw(st.sampled_from(["truncate", "clip_payload", "append", "flip", "retype"]))
    if kind == "truncate":
        return kind, blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "clip_payload":  # drop 1 byte up to the whole payload
        return kind, blob[:len(blob) - draw(st.integers(1, len(payload)))]
    if kind == "append":
        return kind, blob + draw(st.binary(min_size=1, max_size=64))
    if kind == "flip":  # xor bytes of the length prefix or the manifest text
        data = bytearray(blob)
        end = len(blob) - len(payload)
        for i, mask in draw(st.lists(st.tuples(st.integers(0, end - 1), st.integers(1, 255)),
                                     min_size=1, max_size=4)):
            data[i] ^= mask
        return kind, bytes(data)
    edited = json.loads(json.dumps(manifest))
    target, key = _walk(edited, draw(st.sampled_from(_manifest_paths())))
    target[key] = draw(_JSON)
    text = json.dumps(edited).encode()
    return kind, struct.pack("<Q", len(text)) + text + payload


def _forecast(root, config="run.json", checkpoint="ck.bin", csv="probe.csv"):
    return main(["forecast", "--config", str(root / config), "--out", str(root / "out"),
                 "--checkpoint", str(root / checkpoint), "--input", str(root / csv)])


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_mutated_checkpoint_forecast_exits_0_2_or_3(workspace, data):
    root, blob, manifest, payload = workspace
    kind, mutant = data.draw(_mutants(blob, manifest, payload))
    (root / "mutant.bin").write_bytes(mutant)
    code = _forecast(root, checkpoint="mutant.bin")
    # a payload of any size but the manifest's is refused
    assert code == 2 if kind in ("clip_payload", "append") else code in (0, 2, 3)


_NUMBERS = (st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr)
            | st.integers(-99, 99).map(str))
_ODD_CELLS = (st.sampled_from(["", " ", "nan", "inf", "-inf", "3e38", "-3e38", "1e39", "1e-45", '"2"',
                               "1_0", "x", "1,2"])
              | st.text(st.characters(exclude_categories=("Cs",)), max_size=3))


@st.composite
def _csv_texts(draw):
    """The bytes of a CSV, or raw bytes: a header and rows of numbers, with
    LF or CRLF line ends and an optional byte-order mark, then up to two
    edits that blank, garble or drop a cell."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=64))
    n = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from(["v", "w", '"temp, C"', ""]), min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(_NUMBERS, min_size=n, max_size=n), min_size=1, max_size=40))
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if row and draw(st.booleans()):
            row[draw(st.integers(0, len(row) - 1))] = draw(_ODD_CELLS)
        elif row:
            row.pop()
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(",".join(row) for row in [names] + rows) + draw(st.sampled_from(["", end]))
    return (draw(st.sampled_from(["", "\ufeff"])) + text).encode("utf-8")


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(text=_csv_texts())
def test_any_csv_input_forecast_exits_0_2_or_3(workspace, text):
    root = workspace[0]
    (root / "input.csv").write_bytes(text)
    assert _forecast(root, csv="input.csv") in (0, 2, 3)


_RUN = {"model": {"preset": "tiny"}, "sampler": {"stride": 8, "jitter": True},
        "trainer": {"lr": 1e-3, "epochs": 1, "steps_per_epoch": 25}, "registry": "datasets.json",
        "seed": 0}
_RUN_PATHS = ([(k,) for k in _RUN] + [("model", k) for k in config_to_dict(preset("tiny"))]
              + [("model", k) for k in ("preset", "patch_stride", "dropout", "extra")]
              + [("sampler", k) for k in ("stride", "jitter", "seed")]
              + [("trainer", k) for k in _RUN["trainer"]] + [("turbo",)])


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_mutated_run_config_forecast_exits_0_2_or_3(workspace, data):
    root = workspace[0]
    edited = json.loads(json.dumps(_RUN))
    target, key = _walk(edited, data.draw(st.sampled_from(_RUN_PATHS)))
    if data.draw(st.booleans()):
        target[key] = data.draw(_JSON)
    else:
        target.pop(key, None)
    text = json.dumps(edited)
    if data.draw(st.integers(0, 4)) == 0:
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    (root / "mutant.json").write_text(text)
    assert _forecast(root, config="mutant.json") in (0, 2, 3)


_REGISTRY = {"sine": {"path": "sine.csv", "splits": [0.7, 0.1, 0.2]}, "log": {"path": "log.csv"}}
_REGISTRY_PATHS = ([(k,) for k in _REGISTRY] + [("sine", "path"), ("sine", "splits"), ("sine", "extra"),
                   ("log", "path"), ("log", "splits"), ("other",)] + [("sine", "splits", i) for i in range(3)])
_REGISTRY_VALUES = (_JSON | st.sampled_from([10 ** 400, -10 ** 400, 2 ** 1024, 1e308, -0.0, 0.5])
                    | st.sampled_from(["sine.csv", "log.csv", "probe.csv", "run.json", "", ".", "missing.csv",
                                       "/dev/null", "../fuzz"]))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_mutated_registry_pretrain_exits_0_2_or_3(workspace, data):
    root = workspace[0]
    edited = json.loads(json.dumps(_REGISTRY))
    target, key = _walk(edited, data.draw(st.sampled_from(_REGISTRY_PATHS)))
    if data.draw(st.booleans()):
        target[key] = data.draw(_REGISTRY_VALUES)
    elif isinstance(target, list):  # a split fraction
        del target[key]
    else:
        target.pop(key, None)
    text = json.dumps(edited)
    if data.draw(st.integers(0, 4)) == 0:
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    (root / "registry.json").write_text(text)
    (root / "train.json").write_text(json.dumps({"model": {"preset": "tiny"}, "registry": "registry.json",
                                                 "trainer": {"steps_per_epoch": 2}, "seed": 0}))
    assert main(["pretrain", "--config", str(root / "train.json"), "--out", str(root / "trained")]) in (0, 2, 3)
