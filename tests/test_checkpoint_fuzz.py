"""Property test: no mutation of a valid checkpoint escapes ``utsf forecast``
as a traceback; each ends in success, a named error (2) or a numeric
failure (3)."""

import json
import struct

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from utsf.cli import main  # noqa: E402
from utsf.data import make_sine_frame, save_csv_dataset  # noqa: E402
from utsf.model import UShapedTransformer, preset  # noqa: E402
from utsf.training import save_checkpoint  # noqa: E402


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "run.json").write_text(json.dumps({"model": {"preset": "tiny"}, "seed": 0}))
    save_csv_dataset(make_sine_frame("probe", n_channels=1, length=40, period=16.0, seed=7),
                     root / "probe.csv")
    save_checkpoint(UShapedTransformer(preset("tiny"), seed=0), root / "ck.bin")
    blob = (root / "ck.bin").read_bytes()
    n = struct.unpack("<Q", blob[:8])[0]
    return root, blob, json.loads(blob[8:8 + n]), blob[8 + n:]


def _manifest_paths():
    """Key paths into the manifest: its fields, the config's and one params entry's."""
    config = preset("tiny").to_dict()
    paths = [(k,) for k in ("format_version", "config", "params", "seed")]
    paths += [("config", k) for k in config] + [("config", "patch_stride"), ("config", "dropout")]
    paths += [("params", 0), ("params", 3, "name"), ("params", 3, "shape"), ("params", 3, "frozen"),
              ("params", 3, "shape", 0)]
    return paths


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


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
    *parents, key = draw(st.sampled_from(_manifest_paths()))
    target = edited
    for p in parents:
        target = target[p]
    target[key] = draw(_JSON)
    text = json.dumps(edited).encode()
    return kind, struct.pack("<Q", len(text)) + text + payload


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_mutated_checkpoint_forecast_exits_0_2_or_3(workspace, data):
    root, blob, manifest, payload = workspace
    kind, mutant = data.draw(_mutants(blob, manifest, payload))
    (root / "mutant.bin").write_bytes(mutant)
    code = main(["forecast", "--config", str(root / "run.json"), "--out", str(root / "out"),
                 "--checkpoint", str(root / "mutant.bin"), "--input", str(root / "probe.csv")])
    # a payload of any size but the manifest's is refused
    assert code == 2 if kind in ("clip_payload", "append") else code in (0, 2, 3)
