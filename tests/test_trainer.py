"""Optimization loops, metrics, evaluation harness, checkpoints."""

import hashlib
import inspect
import json
import re
import struct
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import utsf.data
import utsf.model
import utsf.training
from utsf import tensor as T
from utsf.cli import main
from utsf.data import (SamplerConfig, build_model_input, jittered_windows, make_sine_frame, make_window_sample,
                       save_csv_dataset)
from utsf.errors import CheckpointError, ConfigError, NumericError, UsageError
from utsf.model import (ModelConfig, ParameterStore, UShapedTransformer, config_from_dict, config_to_dict,
                        param_count, param_layout, preset)
from utsf.tensor import GradTape, Tensor
from utsf.training import (_MANIFEST_FIELDS, CHECKPOINT_VERSION, EVAL_CHUNK, LINEAR_CHUNK, LINEAR_RIDGE, Adam,
                           BaselinePredictor, LastValuePredictor, ModelPredictor, TrainerConfig, TrainReport,
                           apply_checkpoint, backbone_hash, compute_metrics, evaluate, finetune_epoch,
                           fit_linear, load_checkpoint, pretrain_epoch, save_checkpoint)


def tiny_model(seed=0):
    return UShapedTransformer(preset("tiny"), seed=seed)


def sine_frames(length=420, channels=2, period=16.0, seed=0):
    f = make_sine_frame("sine", n_channels=channels, length=length, period=period, seed=seed)
    return {"sine": f}


SAMPLER = SamplerConfig(stride=8, jitter=True, seed=0)


# ---------------------------------------------------------------------------
# metrics


def test_metrics_zero_error():
    truth = np.arange(1.0, 7.0).reshape(2, 3)
    m = compute_metrics(truth, truth)
    assert m == {"mse": 0.0, "mae": 0.0, "mape": 0.0}


def test_metrics_hand_values():
    pred = np.array([[3.0, 1.0]])
    truth = np.array([[1.0, 3.0]])
    m = compute_metrics(pred, truth)
    assert m["mse"] == pytest.approx(4.0)
    assert m["mae"] == pytest.approx(2.0)
    # |err|/max(|truth|, 0.1): 2/1 and 2/3
    assert m["mape"] == pytest.approx((2.0 + 2.0 / 3.0) / 2.0)


def test_mape_floor_guards_small_truth():
    pred = np.array([[0.05]])
    truth = np.array([[0.0]])
    assert compute_metrics(pred, truth)["mape"] == pytest.approx(0.5)  # 0.05 / 0.1


def test_metrics_validation():
    with pytest.raises(UsageError):
        compute_metrics(np.ones((1, 2)), np.ones((1, 3)))
    with pytest.raises(UsageError):
        compute_metrics(np.ones(0), np.ones(0))


# ---------------------------------------------------------------------------
# optimizer


def test_adam_first_step_hand_value():
    store = ParameterStore()
    w = store.add("w", Tensor(np.array([1.0], dtype=np.float32)))
    w.grad = np.array([1.0], dtype=np.float32)
    Adam(store, lr=0.1).step()
    # bias-corrected m_hat = v_hat = 1 on step one, so the update is ~lr
    assert w.data[0] == pytest.approx(0.9, abs=1e-6)


def test_adam_zero_grad_is_noop():
    store = ParameterStore()
    w = store.add("w", Tensor(np.array([2.0, -3.0], dtype=np.float32)))
    before = w.data.tobytes()
    opt = Adam(store, lr=0.5)
    for _ in range(3):
        w.grad = np.zeros(2, dtype=np.float32)  # a gradient of zeros is stepped, and moves nothing
        opt.step()
    assert w.data.tobytes() == before
    assert not opt.m["w"].any() and not opt.v["w"].any()


def test_adam_skips_frozen_parameters():
    store = ParameterStore()
    a = store.add("a", Tensor(np.ones(4, dtype=np.float32)))
    b = store.add("b", Tensor(np.ones(4, dtype=np.float32)))
    a.requires_grad = False
    a.grad = np.ones(4, dtype=np.float32)
    b.grad = np.ones(4, dtype=np.float32)
    opt = Adam(store, lr=0.1)
    opt.step()
    assert np.array_equal(a.data, np.ones(4, dtype=np.float32))
    assert np.all(b.data < 1.0)
    # no moment state is held for an entry that was never updated
    assert "a" not in opt.m and "a" not in opt.v
    assert opt.m["b"].shape == opt.v["b"].shape == (4,)
    # unfrozen later, it starts from zero moments under the shared step count
    a.requires_grad = True
    opt.step()
    c1, c2 = 1.0 - 0.9 ** 2, 1.0 - 0.999 ** 2
    step = np.float32(0.1 * (0.1 / c1) / (np.sqrt(0.001 / c2) + 1e-8))
    assert a.data == pytest.approx(np.full(4, 1.0 - step), abs=1e-6)


def test_adam_rejects_non_finite_gradient():
    store = ParameterStore()
    a = store.add("a", Tensor(np.ones(2, dtype=np.float32)))
    w = store.add("spike", Tensor(np.ones(2, dtype=np.float32)))
    a.grad = np.array([0.5, -1.0], dtype=np.float32)
    w.grad = np.array([1.0, 2.0], dtype=np.float32)
    opt = Adam(store, lr=0.1)
    opt.step()
    state = {n: (p.data.copy(), opt.m[n].copy(), opt.v[n].copy()) for n, p in store.items()}
    # the bad gradient is the last one: nothing may change before it is seen
    w.grad = np.array([1.0, np.nan], dtype=np.float32)
    with pytest.raises(NumericError, match="spike"):
        opt.step()
    assert opt.t == 1
    for n, p in store.items():
        data, m, v = state[n]
        assert np.array_equal(p.data, data) and np.array_equal(opt.m[n], m) and np.array_equal(opt.v[n], v), n


def test_adam_keeps_an_entry_without_a_gradient_as_it_was():
    # "b" is stepped, then reached by no loss: its parameter and moments stay
    # through the steps it holds no gradient, and it resumes from them
    store = ParameterStore()
    a = store.add("a", Tensor(np.ones(3, dtype=np.float32)))
    b = store.add("b", Tensor(np.ones(2, dtype=np.float32)))
    opt = Adam(store, lr=0.1)
    a.grad = np.array([1.0, -1.0, 0.5], dtype=np.float32)
    b.grad = np.array([2.0, -0.5], dtype=np.float32)
    opt.step()
    kept = (b.data.copy(), opt.m["b"].copy(), opt.v["b"].copy())
    for _ in range(2):
        store.zero_grads()
        a.grad = np.array([0.5, 0.5, -2.0], dtype=np.float32)
        opt.step()
        assert all(np.array_equal(x, y) for x, y in zip((b.data, opt.m["b"], opt.v["b"]), kept))
    assert opt.t == 3
    b.grad = np.array([1.0, 1.0], dtype=np.float32)
    opt.step()
    m = np.float32(0.9) * kept[1] + np.float32(0.1) * b.grad
    assert opt.m["b"] == pytest.approx(m, rel=1e-6)


def test_a_head_the_loss_does_not_reach_gets_no_gradient_and_no_update():
    # masked pretraining reaches head.recon only, forecast finetuning
    # head.forecast only: the other head is neither given zeros nor stepped
    model, frames = tiny_model(seed=1), sine_frames()
    for phase, unreached, epoch in (("pretrain", "head.forecast.", pretrain_epoch),
                                    ("finetune", "head.recon.", finetune_epoch)):
        if phase == "finetune":
            model.freeze_backbone()
        names = [n for n in model.params.names() if n.startswith(unreached)]
        before = {n: model.params[n].data.tobytes() for n in names}
        opt = Adam(model.params, lr=1e-3)
        epoch(model, frames, SAMPLER, opt, 1, np.random.default_rng(0))
        assert opt.t == 1 and opt.m, phase
        for n in names:
            assert model.params[n].grad is None, (phase, n)
            assert n not in opt.m and n not in opt.v, (phase, n)
            assert model.params[n].data.tobytes() == before[n], (phase, n)
        stepped = {n for n, p in model.params.items() if p.requires_grad and p.grad is not None}
        assert set(opt.m) == set(opt.v) == stepped, phase


@pytest.mark.parametrize("dtype, big", [(np.float32, 1e18), (np.float64, 1e153)])
def test_adam_takes_a_gradient_whose_squares_overflow_and_refuses_inf(dtype, big):
    # 1,000 entries of ``big`` square-sum past the dtype's range, yet each
    # square and each moment fits: a finite gradient, which must update
    store = ParameterStore()
    a = store.add("a", Tensor(np.ones(1000, dtype=dtype)))
    w = store.add("w", Tensor(np.ones((25, 40), dtype=dtype)))
    a.grad = np.full(1000, big, dtype=dtype)
    w.grad = np.full((40, 25), -big, dtype=dtype).T  # transposed, as a transpose VJP leaves it
    opt = Adam(store, lr=0.1)
    opt.step()
    assert opt.t == 1
    assert a.data == pytest.approx(np.full(1000, 0.9), rel=1e-6)
    assert w.data == pytest.approx(np.full((25, 40), 1.1), rel=1e-6)
    state = {n: (p.data.copy(), opt.m[n].copy(), opt.v[n].copy()) for n, p in store.items()}
    for bad in (np.inf, -np.inf):
        w.grad = np.full((40, 25), -big, dtype=dtype).T.copy()
        w.grad[24, 39] = bad
        with pytest.raises(NumericError, match="^non-finite gradient for parameter 'w'$"):
            opt.step()
        assert opt.t == 1
        for n, p in store.items():
            data, m, v = state[n]
            assert np.array_equal(p.data, data) and np.array_equal(opt.m[n], m) and np.array_equal(opt.v[n], v), n


def _unblocked_adam_step(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    # the whole-array update Adam.step replays block by block
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_blocked_update_is_bitwise_the_whole_array_update(dtype):
    # entries under ADAM_BLOCK scalars are packed in items() order: 32,768
    # twice fills a pack exactly, 65,535 and 1 fill the next, 7 starts a third.
    # The steps cross the points where a bias correction rounds to 1 (c1 at
    # t = 165 in float32 and 356 in float64, c2 at 17,321 and 37,412), with
    # opt.t forced between them, and at t = 164 a packed entry is frozen and
    # one frozen until then is unfrozen
    rng = np.random.default_rng(5)
    shapes = {"a32768": (32768,), "b32768": (32768,), "n65535": (65535,), "n1": (1,), "n7": (7,),
              "n4095": (4095,), "packed_f": (40, 25), "late": (3,)}
    shapes.update({f"n{n}": (n,) for n in (65536, 65537, 200003)})
    shapes["fortran"] = (64, 1100)
    fortran = ("packed_f", "fortran")  # F-ordered gradients, as a transpose VJP gives
    store = ParameterStore()
    for name, shape in shapes.items():
        store.add(name, Tensor(rng.standard_normal(shape), dtype=dtype))
    store["late"].requires_grad = False
    ref = {name: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)) for name, p in store.items()}
    updated = set()
    opt = Adam(store, lr=3e-3)
    for t in (1, 2, 3, 164, 165, 166, 355, 356, 357, 17320, 17321, 17322, 37411, 37412, 37413):
        if t == 164:
            store["n7"].requires_grad = False
            store["late"].requires_grad = True
        for name, p in [(n, q) for n, q in store.items() if q.requires_grad]:
            g = rng.standard_normal(p.shape[::-1]).T if name in fortran else rng.standard_normal(p.shape)
            p.grad = g.astype(dtype, order="K")
            data, m, v = ref[name]
            _unblocked_adam_step(data, p.grad, m, v, t, lr=3e-3)
            updated.add(name)
        assert not any(store[name].grad.flags.c_contiguous for name in fortran)
        opt.t = t - 1
        opt.step()
        assert opt.t == t
        # an entry never updated holds no state
        assert set(opt.m) == set(opt.v) == updated
        for name, p in store.items():
            assert p.data.tobytes() == ref[name][0].tobytes(), (t, name)
            if name in updated:
                for got, want in zip((opt.m[name], opt.v[name]), ref[name][1:]):
                    assert got.dtype == dtype and got.shape == p.shape and got.tobytes() == want.tobytes(), (t, name)


def test_adam_refuses_a_read_only_parameter_before_it_changes_anything(tmp_path):
    # a loaded model trains; a parameter that later turns read-only stops the
    # whole step, even when it is the last one stepped
    save_checkpoint(tiny_model(seed=3), tmp_path / "ck.bin")
    model, _ = load_checkpoint(tmp_path / "ck.bin")
    opt = Adam(model.params, lr=1e-3)
    pretrain_epoch(model, sine_frames(), SAMPLER, opt, 1, np.random.default_rng(0))
    last, p = [(n, q) for n, q in model.params.items() if q.requires_grad and q.grad is not None][-1]
    assert last == "head.recon.b"  # pretraining does not reach head.forecast
    p.data.flags.writeable = False
    state = {n: (model.params[n].data.copy(), opt.m[n].copy(), opt.v[n].copy()) for n in opt.m}
    with pytest.raises(UsageError, match=f"'{last}' is not writable"):
        opt.step()
    assert opt.t == 1 and set(opt.m) == set(state)
    for n in opt.m:
        got =(model.params[n].data, opt.m[n], opt.v[n])
        assert all(np.array_equal(a, b) for a, b in zip(got, state[n])), n
    p.data.flags.writeable = True
    p.grad = np.zeros(1, p.dtype)
    with pytest.raises(UsageError, match=f"gradient of parameter '{last}' has shape"):
        opt.step()
    assert opt.t == 1


def test_a_warm_small_pretrain_step_allocates_little_beyond_its_gradients():
    # 1.46M float32 scalars: the step's new gradients alone are 5.8 MB, so the
    # bound leaves no room for parameter-sized Adam temporaries, nor for
    # cotangents and saved activations held to the end of backward; Adam's own
    # bound leaves none for a pack gathered into fresh arrays (about 200 KB)
    model = UShapedTransformer(preset("small"), seed=0)
    frames, rng = sine_frames(length=4000), np.random.default_rng(0)
    opt = Adam(model.params, lr=5e-4)
    pretrain_epoch(model, frames, SAMPLER, opt, 2, rng)
    tracemalloc.start()
    try:
        pretrain_epoch(model, frames, SAMPLER, opt, 1, rng)
        step_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        opt.step()
        adam_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert step_peak < 7.5e6, step_peak
    assert adam_peak < 64 * 1024, adam_peak


@pytest.mark.parametrize("dtype, params_digest, losses_digest", [
    (np.float32, "0c5f77a334df853cee34b169f6afcabb88a44f56c9f28e3e1b8d22a7b287bd58",
     "bb532bc646597173d87dc43db4dbf0c0fbb1b77e979886dab8986929bea619fc"),
    (np.float64, "edd0e7aeedf767941de5cb885098cbadcc0113a830f624818ac9d0c1121140a8",
     "8b02934d083abc2839e176ec95846775e6c7ae98516d8d0ff2b3bc2030e1d8d0"),
], ids=["float32", "float64"])
def test_small_training_bytes_are_pinned(dtype, params_digest, losses_digest):
    # parameter and loss digests after 40 pretrain and 20 finetune steps
    # (x86-64, numpy's OpenBLAS): the optimizer and the tape may change, the
    # numbers they produce may not
    model = UShapedTransformer(preset("small"), seed=0, dtype=dtype)
    frames, sampler, rng = sine_frames(length=4000), SamplerConfig(stride=64, jitter=True, seed=0), np.random.default_rng(0)
    report = pretrain_epoch(model, frames, sampler, Adam(model.params, lr=5e-4), 40, rng)
    model.freeze_backbone()
    finetune_epoch(model, frames, sampler, Adam(model.params, lr=1e-3), 20, rng, report=report)
    params = hashlib.sha256()
    for _, p in model.params.items():
        params.update(p.data.tobytes())
    assert params.hexdigest() == params_digest
    assert hashlib.sha256(np.asarray(report.steps).tobytes()).hexdigest() == losses_digest


def test_trainer_config_round_trip_and_validation():
    cfg = TrainerConfig(lr=1e-3, epochs=2, steps_per_epoch=50)
    assert config_from_dict(TrainerConfig, config_to_dict(cfg), "trainer") == cfg
    with pytest.raises(ConfigError):
        TrainerConfig(lr=-1.0)
    with pytest.raises(ConfigError):
        TrainerConfig(steps_per_epoch=0)
    with pytest.raises(ConfigError):
        config_from_dict(TrainerConfig, {"lr": 1e-3, "momentum": 0.9}, "trainer")
    for bad in ({"lr": float("nan")}, {"lr": float("inf")}):
        with pytest.raises(ConfigError, match="finite"):
            config_from_dict(TrainerConfig, bad, "trainer")
    # Adam's beta1, beta2 and eps are constants, not settings
    with pytest.raises(ConfigError, match="eps"):
        config_from_dict(TrainerConfig, {"eps": 1e-8}, "trainer")


# ---------------------------------------------------------------------------
# report


def test_report_csv_and_summary():
    rep = TrainReport()
    for loss in (0.5, 0.25):
        rep.add_step(loss)
    rep.close_epoch(2)
    lines = rep.loss_csv_text().splitlines()
    assert lines[0] == "step,loss"
    assert lines[1] == "0,5.00000000e-01"
    assert len(lines) == 3
    s = rep.summary()
    assert s["n_steps"] == 2 and s["final_loss"] == 0.25
    assert s["epoch_mean_loss"] == [pytest.approx(0.375)]
    assert json.loads(rep.json_text()) == s
    assert set(vars(rep)) == {"steps", "epoch_means"}  # a report keeps no clock


def test_training_reads_no_clock():
    # each epoch's time is the CLI's stderr line; nothing the training code
    # keeps or writes can depend on one
    assert "time" not in vars(utsf.training)
    assert "perf_counter" not in inspect.getsource(utsf.training)


# ---------------------------------------------------------------------------
# training loops


def test_pretrain_is_deterministic():
    losses, params = [], []
    for _ in range(2):
        m = tiny_model(seed=1)
        rep = pretrain_epoch(m, sine_frames(), SAMPLER, Adam(m.params, lr=1e-3),
                             steps=20, rng=np.random.default_rng(0))
        losses.append(rep.steps[:])
        params.append(b"".join(t.data.tobytes() for _, t in m.params.items()))
    assert losses[0] == losses[1]
    assert params[0] == params[1]


def test_every_op_of_a_step_and_a_forecast_goes_through_record_op(monkeypatch):
    # the benchmark's tracer counts and times ops by patching tensor.record_op
    # by name: an op that records a node, or runs frozen, without calling it
    # would go unseen
    calls = []
    record_op = T.record_op

    def counting_record_op(name, out_data, inputs, vjp):
        calls.append((name, any(t.requires_grad for t in inputs)))
        return record_op(name, out_data, inputs, vjp)

    tapes = []
    backward = GradTape.backward

    def keeping_backward(tape, loss):
        tapes.append([node.name for node in tape._nodes])
        backward(tape, loss)

    monkeypatch.setattr(T, "record_op", counting_record_op)
    monkeypatch.setattr(GradTape, "backward", keeping_backward)
    m = tiny_model()
    pretrain_epoch(m, sine_frames(), SAMPLER, Adam(m.params, lr=1e-3), steps=1, rng=np.random.default_rng(0))
    (nodes,) = tapes
    # the input series' reshape carries no gradient: it is the one call not taped
    assert calls[0] == ("reshape", False) and len(calls) == len(nodes) + 1
    assert [name for name, _ in calls[1:]] == nodes
    # a forward with no tape and a frozen backbone makes the calls a taped one records
    x = np.random.default_rng(1).standard_normal((1, m.config.model_len)).astype(np.float32)
    with GradTape() as tape:
        m.forecast(Tensor(x))
    nodes = [node.name for node in tape._nodes]
    m.freeze_backbone()
    calls.clear()
    ModelPredictor(m)(x[:, :m.config.lookback_len])
    assert [name for name, _ in calls] == ["reshape"] + nodes


def test_pretrain_reduces_loss():
    m = tiny_model(seed=1)
    rep = pretrain_epoch(m, sine_frames(), SAMPLER, Adam(m.params, lr=1e-3),
                         steps=80, rng=np.random.default_rng(0))
    head = float(np.mean(rep.steps[:10]))
    tail = float(np.mean(rep.steps[-10:]))
    assert tail < head


def test_finetune_requires_frozen_backbone():
    m = tiny_model()
    with pytest.raises(ConfigError, match="frozen"):
        finetune_epoch(m, sine_frames(), SAMPLER, Adam(m.params, lr=1e-3),
                       steps=1, rng=np.random.default_rng(0))


def test_finetune_touches_only_the_heads():
    m = tiny_model(seed=2)
    m.freeze_backbone()
    backbone_before = {n: m.params[n].data.tobytes() for n in m.backbone_names()}
    hash_before = backbone_hash(m)
    head_before = m.params["head.forecast.w"].data.tobytes()
    with GradTape() as tape:
        m.forecast(Tensor(np.zeros((1, m.config.model_len), dtype=np.float32)))
    assert len(tape) == 3  # head linear, reshape, narrow: the backbone is constant
    finetune_epoch(m, sine_frames(), SAMPLER, Adam(m.params, lr=1e-2),
                   steps=5, rng=np.random.default_rng(0))
    assert backbone_hash(m) == hash_before
    for n, blob in backbone_before.items():
        assert m.params[n].data.tobytes() == blob, n
        assert m.params[n].grad is None, n  # the frozen backbone never entered the tape
    assert m.params["head.forecast.w"].data.tobytes() != head_before


@pytest.mark.parametrize("phase", ["pretrain", "finetune"])
def test_an_epoch_of_fewer_than_one_step_is_refused_before_it_draws(phase, monkeypatch):
    # a closed epoch of no step would record the mean of earlier steps
    model = tiny_model()
    epoch_fn = pretrain_epoch
    if phase == "finetune":
        model.freeze_backbone()
        epoch_fn = finetune_epoch
    opt, rng = Adam(model.params, lr=1e-3), np.random.default_rng(0)
    report = epoch_fn(model, sine_frames(), SAMPLER, opt, steps=3, rng=rng)
    steps, means, state = list(report.steps), list(report.epoch_means), rng.bit_generator.state

    def no_table(*_):
        raise AssertionError("the window table was built")

    monkeypatch.setattr(utsf.training, "_window_table", no_table)
    for n in (0, -2):
        with pytest.raises(UsageError, match=f"{phase} epoch needs steps >= 1, got {n}"):
            epoch_fn(model, sine_frames(), SAMPLER, opt, steps=n, rng=rng, report=report)
        assert report.steps == steps and report.epoch_means == means
        assert rng.bit_generator.state == state


@pytest.mark.parametrize("phase", ["pretrain", "finetune"])
def test_non_finite_gradient_names_phase_epoch_and_step(phase, monkeypatch):
    # both phases run the same draw-window loop; poison the gradients after
    # the third backward pass and the abort must say where it happened, down
    # to the window the loop cut
    model = tiny_model()
    epoch_fn = pretrain_epoch
    if phase == "finetune":
        model.freeze_backbone()
        epoch_fn = finetune_epoch
    backward, calls = GradTape.backward, []

    def poisoned(tape, loss):
        backward(tape, loss)
        calls.append(loss)
        if len(calls) == 3:
            for _, p in model.params.items():
                p.grad = np.full_like(p.data, np.nan)

    cut = []

    def recorded(frame, channel, start, *lengths):
        cut.append((frame.dataset_id, channel, start))
        return make_window_sample(frame, channel, start, *lengths)

    monkeypatch.setattr(GradTape, "backward", poisoned)
    monkeypatch.setattr(utsf.data, "make_window_sample", recorded)
    with pytest.raises(NumericError) as err:
        epoch_fn(model, sine_frames(), SAMPLER, Adam(model.params, lr=1e-3),
                 steps=3, rng=np.random.default_rng(0), epoch=1)
    assert len(cut) == 3
    dataset_id, channel, start = cut[2]
    assert str(err.value).startswith(f"{phase} aborted at epoch 1, step 2 (dataset {dataset_id}, "
                                     f"channel {channel}, start {start}): non-finite gradient")


# ---------------------------------------------------------------------------
# evaluation


def test_oracle_predictor_scores_zero():
    # a predictor that returns the truth rows, cut here in evaluate's order
    # (channel-major, then start), pins the all-zero-metrics end of the harness
    frame = make_sine_frame("s", n_channels=2, length=6000, period=16.0, seed=3)
    lo, hi = frame.split_bounds("test")
    samples = [make_window_sample(frame, channel, start, 32, 32)
               for channel in range(2) for start in range(lo, hi - 64 + 1, 64)]
    inputs = np.concatenate([x for x, _ in samples])
    truths = np.concatenate([y for _, y in samples])
    seen = []

    def oracle(input_norm):
        i = sum(seen)
        seen.append(len(input_norm))
        assert np.array_equal(input_norm, inputs[i:i + len(input_norm)])
        return truths[i:i + len(input_norm)]

    out = evaluate(oracle, frame, 32, 32, horizons=[8, 32])
    assert len(seen) > 1 and sum(seen) == len(samples)
    for h in (8, 32):
        assert out[h]["mse"] == 0.0 and out[h]["mae"] == 0.0
        assert out[h]["n_windows"] == len(samples)


def test_evaluate_hands_each_predictor_one_positional_array():
    frame = make_sine_frame("s", n_channels=2, length=6000, period=16.0, seed=3)
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return np.zeros((len(args[0]), 32))

    out = evaluate(recording, frame, 32, 32, horizons=[32])
    assert len(calls) > 1
    for args, kwargs in calls:
        assert len(args) == 1 and kwargs == {}
        assert isinstance(args[0], np.ndarray) and args[0].ndim == 2 and args[0].shape[1] == 32
    assert sum(len(args[0]) for args, _ in calls) == out[32]["n_windows"]
    # a predictor of one parameter is all the contract asks for
    assert evaluate(lambda x: np.zeros((len(x), 32)), frame, 32, 32, horizons=[32]) == out


def test_last_value_on_constant_series_scores_zero():
    frame_vals = np.full((1, 640), 7.0, dtype=np.float32)
    from utsf.data import SeriesFrame
    frame = SeriesFrame("flat", ["c0"], frame_vals)
    out = evaluate(LastValuePredictor(32), frame, 32, 32, horizons=[32])
    assert out[32]["mse"] == 0.0


def test_evaluate_validates_horizons_and_predictor_shape():
    frame = make_sine_frame("s", n_channels=1, length=640, period=16.0)
    with pytest.raises(UsageError, match="horizon"):
        evaluate(LastValuePredictor(32), frame, 32, 32, horizons=[33])
    with pytest.raises(UsageError, match="horizon"):
        evaluate(LastValuePredictor(32), frame, 32, 32, horizons=[0])
    with pytest.raises(UsageError, match="shape"):
        evaluate(lambda i: np.zeros((1, 3)), frame, 32, 32, horizons=[32])
    with pytest.raises(UsageError, match=r"expected \(B, T\) = \(2, 32\)"):  # one row for 2 windows
        evaluate(lambda i: np.zeros((1, 32)), frame, 32, 32, horizons=[32])
    short = make_sine_frame("tiny", n_channels=1, length=80, period=16.0)
    with pytest.raises(UsageError, match="too short"):
        evaluate(LastValuePredictor(32), short, 32, 32, horizons=[32])


def test_model_predictor_matches_direct_forward():
    # 2 channels x 37 test windows: evaluate passes chunks of 32, 32 and 10
    m = tiny_model(seed=4)
    frame = make_sine_frame("s", n_channels=2, length=12_000, period=16.0, noise=0.1, seed=5)
    predictor, chunks = ModelPredictor(m), []

    def recording(input_norm):
        chunks.append(len(input_norm))
        return predictor(input_norm)

    out = evaluate(recording, frame, 32, 32, horizons=[8, 32])
    assert chunks == [EVAL_CHUNK, EVAL_CHUNK, 10]
    lo, hi = frame.split_bounds("test")
    preds, truths = [], []
    for channel in range(2):
        for start in range(lo, hi - 64 + 1, 64):
            x, y = make_window_sample(frame, channel, start, 32, 32)
            preds.append(m.forecast(Tensor(build_model_input(x, m.config))).data)
            truths.append(y)
    for h in (8, 32):
        want = compute_metrics(np.concatenate(preds)[:, :h], np.concatenate(truths)[:, :h])
        assert out[h]["n_windows"] == 74
        for key, value in want.items():
            assert abs(out[h][key] - value) <= 1e-6 * abs(value), (h, key)


def test_stub_and_baseline_rows_match_a_per_window_loop():
    rng = np.random.default_rng(6)
    inputs = rng.standard_normal((5, 32)).astype(np.float32)
    weights, bias = rng.standard_normal((32, 32)), rng.standard_normal(32)
    for predictor, rtol in ((LastValuePredictor(32), 0.0), (BaselinePredictor(weights, bias), 1e-12)):
        batch = predictor(inputs)
        assert batch.shape == (5, 32)
        for b in range(5):
            row = predictor(inputs[b:b + 1])
            assert np.abs(batch[b] - row[0]).max() <= rtol * np.abs(row).max(), (predictor, b)
    # each last-value row repeats its own window's last value
    assert np.array_equal(LastValuePredictor(32)(inputs), np.repeat(inputs[:, -1:], 32, axis=1))


def two_sine_frames():
    """Two noiseless sines of unequal train-window counts at SAMPLER's stride."""
    return {"sine": make_sine_frame("sine", 2000, n_channels=2),
            "other": make_sine_frame("other", 900, period=24.0)}


def test_linear_fit_matches_a_weighted_ridge_lstsq(monkeypatch):
    # the fit minimizes the epoch-0 draw's expected squared error: each of the
    # D datasets' n_d train windows weighs 1/(D n_d), so lstsq on rows scaled by
    # sqrt(1/(D n_d)), with sqrt(LINEAR_RIDGE) I rows appended, must agree:
    # on the primal path, whose 334 windows are cut in more than one chunk,
    # and on the dual, whose 16 windows are fewer than the 33 features
    solve, solved = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(a.shape) or solve(a, b))
    short = {"sine": make_sine_frame("sine", 160, n_channels=2), "other": make_sine_frame("other", 140, period=24.0)}
    for frames, want_counts, system in ((two_sine_frames(), {"sine": 334, "other": 71}, (33, 33)),
                                        (short, {"sine": 12, "other": 4}, (16, 16))):
        solved.clear()
        w, b = fit_linear(frames, SAMPLER, 32, 32)
        assert w.shape == (32, 32) and b.shape == (32,) and w.dtype == b.dtype == np.float64
        assert solved == [system] and LINEAR_CHUNK < 334
        rows, targets, counts = [], [], {}
        for ds_id, frame in frames.items():
            starts = jittered_windows(frame, 64, SAMPLER, 0)
            pairs = [(channel, int(start)) for channel in range(frame.n_channels) for start in starts]
            counts[ds_id] = len(pairs)
            scale = np.sqrt(1.0 / (len(frames) * len(pairs)))
            for channel, start in pairs:
                x, y = make_window_sample(frame, channel, start, 32, 32)
                rows.append(scale * np.append(x[0].astype(np.float64), 1.0))
                targets.append(scale * y[0].astype(np.float64))
        assert counts == want_counts  # unequal counts
        stacked = np.vstack(rows + [np.sqrt(LINEAR_RIDGE) * np.eye(33)])
        coef = np.linalg.lstsq(stacked, np.vstack(targets + [np.zeros((33, 32))]), rcond=None)[0]
        for got, want in ((w, coef[:32]), (b, coef[32])):
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


def test_linear_fit_forecasts_a_noiseless_sine():
    # a sine's continuation is linear in its normalized lookback, on both datasets at once
    frames = two_sine_frames()
    predictor = BaselinePredictor(*fit_linear(frames, SAMPLER, 32, 32))
    for frame in frames.values():
        out = evaluate(predictor, frame, 32, 32, horizons=[1, 8, 32])
        for h in (1, 8, 32):
            assert out[h]["mse"] < 1e-6, (frame.dataset_id, h, out[h]["mse"])


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    m = tiny_model(seed=6)
    pretrain_epoch(m, sine_frames(), SAMPLER, Adam(m.params, lr=1e-3),
                   steps=5, rng=np.random.default_rng(1))
    m.freeze_backbone()
    path = tmp_path / "ck.bin"
    save_checkpoint(m, path, seed=6)
    loaded, manifest = load_checkpoint(path)
    assert manifest == {"config": config_to_dict(m.config), "format_version": 3, "seed": 6}
    assert loaded.config == m.config
    for (na, ta), (nb, tb) in zip(m.params.items(), loaded.params.items()):
        assert na == nb
        assert ta.data.tobytes() == tb.data.tobytes()
        # no frozen flag is saved: a loaded model is all trainable, as a seeded one is
        assert tb.requires_grad, nb
    # applying a checkpoint leaves each parameter frozen or trainable as it was
    for target in (m, tiny_model(seed=8)):
        flags = [target.params.frozen(n) for n in target.params.names()]
        apply_checkpoint(target, path)
        assert [target.params.frozen(n) for n in target.params.names()] == flags


def _joined_checkpoint_bytes(model, seed):
    """The checkpoint format built in memory: prefix + manifest + each
    parameter's float32 bytes joined, the reference a streamed save must match."""
    manifest = {"format_version": 3, "config": config_to_dict(model.config), "seed": seed}
    mjson = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(p.data, dtype="<f4").tobytes() for _, p in model.params.items())
    return struct.pack("<Q", len(mjson)) + mjson + payload


def test_streamed_save_writes_the_joined_bytes(tmp_path):
    for dtype in (np.float32, np.float64):
        m = UShapedTransformer(preset("tiny"), seed=4, dtype=dtype)
        m.freeze_backbone()
        path = tmp_path / "ck.bin"
        save_checkpoint(m, path, seed=4)
        expected = _joined_checkpoint_bytes(m, 4)
        assert path.read_bytes() == expected, dtype
        # a loaded model's parameters are views of one payload buffer; they re-save unchanged
        loaded, _ = load_checkpoint(path)
        save_checkpoint(loaded, tmp_path / "again.bin", seed=4)
        assert (tmp_path / "again.bin").read_bytes() == expected, dtype


def test_save_checkpoint_refuses_a_seed_the_loader_refuses(tmp_path):
    m = tiny_model()
    path = tmp_path / "ck.bin"
    path.write_bytes(b"keep")
    for bad in (-1, 2.7, True, "3", None):
        with pytest.raises(UsageError, match="seed"):
            save_checkpoint(m, path, seed=bad)
        assert path.read_bytes() == b"keep", bad
    save_checkpoint(m, path, seed=np.int64(3))
    assert load_checkpoint(path)[1]["seed"] == 3


def test_save_checkpoint_holds_no_copy_of_the_parameters(tmp_path):
    m = UShapedTransformer(preset("small"), seed=0)  # 1.46M float32 scalars, 5.8 MB
    tracemalloc.start()
    try:
        save_checkpoint(m, tmp_path / "small.bin")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak


def test_apply_checkpoint_overwrites_in_place(tmp_path):
    src = tiny_model(seed=7)
    path = tmp_path / "ck.bin"
    save_checkpoint(src, path)
    dst = tiny_model(seed=8)
    assert backbone_hash(dst) != backbone_hash(src)
    apply_checkpoint(dst, path)
    assert backbone_hash(dst) == backbone_hash(src)
    for (na, ta), (nb, tb) in zip(src.params.items(), dst.params.items()):
        assert na == nb and ta.data.tobytes() == tb.data.tobytes(), na
    # same names and shapes, other config: refused by field, nothing overwritten
    other = UShapedTransformer(replace(preset("tiny"), n_heads=1), seed=8)
    before = backbone_hash(other)
    with pytest.raises(CheckpointError, match=r"'n_heads' is 2, the run config's is 1"):
        apply_checkpoint(other, path)
    assert backbone_hash(other) == before
    # another preset: refused by its first differing field, not by a parameter
    small = tmp_path / "small.bin"
    save_checkpoint(UShapedTransformer(preset("small"), seed=0), small)
    base = UShapedTransformer(preset("base"), seed=0)
    before = [p.data.tobytes() for _, p in base.params.items()]
    with pytest.raises(CheckpointError, match=r"'lookback_len' is 512, the run config's is 3072"):
        apply_checkpoint(base, small)
    assert [p.data.tobytes() for _, p in base.params.items()] == before, "a refused checkpoint wrote parameters"


def test_a_load_draws_nothing_and_sizes_the_model_once(tmp_path, monkeypatch):
    src = tiny_model(seed=7)
    path = tmp_path / "ck.bin"
    save_checkpoint(src, path)
    frames, rng = sine_frames(), np.random.default_rng(0)
    real_count, counted = param_count, []

    def count(config):
        counted.append(config)
        return real_count(config)

    monkeypatch.setattr(utsf.model, "param_count", count)
    monkeypatch.setattr(utsf.training, "param_count", count)
    with monkeypatch.context() as m:
        def no_draws(*args):
            raise AssertionError("a load drew initial values")
        m.setattr(np.random, "default_rng", no_draws)
        loaded, _ = load_checkpoint(path)
    # the manifest reader sizes the payload; building from it sizes nothing again
    assert counted == [src.config]
    for (na, ta), (nb, tb) in zip(src.params.items(), loaded.params.items()):
        assert na == nb and ta.data.tobytes() == tb.data.tobytes(), na
    report = pretrain_epoch(loaded, frames, SAMPLER, Adam(loaded.params, lr=1e-3), 1, rng)
    assert len(report.steps) == 1 and backbone_hash(loaded) != backbone_hash(src)
    # that count is the size bound a seeded build meets
    total = real_count(src.config)
    monkeypatch.setattr(utsf.model, "MAX_PARAMS", total - 1)
    with pytest.raises(CheckpointError, match=rf"ck.bin: manifest field 'config': model too large to build: "
                                              rf"its parameters pass {total - 1} scalars at 'head.forecast.b'"):
        load_checkpoint(path)


def test_loaded_parameters_are_views_of_one_payload_buffer(tmp_path):
    src = tiny_model(seed=7)
    path = tmp_path / "ck.bin"
    save_checkpoint(src, path)
    for loaded in (load_checkpoint(path)[0], tiny_model(seed=8)):
        apply_checkpoint(loaded, path)
        buffer = next(loaded.params.items())[1].data.base
        assert buffer is not None and buffer.dtype == np.float32
        for name, p in loaded.params.items():
            assert p.data.base is buffer and p.data.flags.writeable, name
            assert p.data.tobytes() == src.params[name].data.tobytes(), name
        assert buffer.nbytes == sum(p.data.nbytes for _, p in loaded.params.items())
    # a float64 model gets its own copy of each value
    wide = UShapedTransformer(preset("tiny"), seed=8, dtype=np.float64)
    apply_checkpoint(wide, path)
    for name, p in wide.params.items():
        assert p.dtype == np.float64 and not np.shares_memory(p.data, buffer), name
        assert np.array_equal(p.data, src.params[name].data), name


def test_checkpoint_config_that_disagrees_with_the_payload_is_refused(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(tiny_model(), path)
    # the payload is sized by the manifest's config alone: a config that lays
    # out other shapes implies another size, and both sizes are named
    wide = replace(preset("tiny"), d_model=16)
    doctored = rewrite_manifest(path, tmp_path / "wide.bin", lambda mf: mf["config"].update(d_model=16))
    sizes = rf"payload is {4 * param_count(preset('tiny'))} bytes, manifest implies {4 * param_count(wide)}$"
    target = tiny_model(seed=8)
    before = backbone_hash(target)
    for load in (load_checkpoint, lambda p: apply_checkpoint(target, p)):
        with pytest.raises(CheckpointError, match=sizes):
            load(doctored)
    assert backbone_hash(target) == before


def test_checkpoint_truncation_detected(tmp_path):
    m = tiny_model()
    path = tmp_path / "ck.bin"
    save_checkpoint(m, path)
    blob = path.read_bytes()
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError):
        load_checkpoint(clipped)
    stub = tmp_path / "stub.bin"
    stub.write_bytes(blob[:4])
    with pytest.raises(CheckpointError):
        load_checkpoint(stub)


def rewrite_manifest(path, out, edit):
    """Copy a checkpoint to ``out`` with ``edit(manifest)`` applied."""
    blob = path.read_bytes()
    n = struct.unpack("<Q", blob[:8])[0]
    manifest = json.loads(blob[8:8 + n])
    edit(manifest)
    doctored = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    out.write_bytes(struct.pack("<Q", len(doctored)) + doctored + blob[8 + n:])
    return out


def test_checkpoint_version_and_manifest_errors(tmp_path):
    m = tiny_model()
    path = tmp_path / "ck.bin"
    save_checkpoint(m, path)
    # a format 1 file, with the parameter list that format carried, names both versions
    v1_params = [{"name": n, "shape": list(shape), "frozen": False} for n, shape, _ in param_layout(m.config)]
    for edit, version in ((lambda mf: mf.update(format_version=1, params=v1_params), 1),
                          (lambda mf: mf.update(format_version=99), 99)):
        with pytest.raises(CheckpointError, match=rf"format_version {version} unsupported \(expected 3\)"):
            load_checkpoint(rewrite_manifest(path, tmp_path / "bad.bin", edit))
    # the version is the int 3: not a float, a string or a bool equal to it, quoted as written
    for value, shown in ((3.0, "3.0"), ("3", "'3'"), (True, "True"), (2, "2")):
        with pytest.raises(CheckpointError, match=rf"format_version {shown} unsupported \(expected 3\)$"):
            load_checkpoint(rewrite_manifest(path, tmp_path / "bad.bin",
                                             lambda mf: mf.update(format_version=value)))
    tiny = param_count(m.config)
    edits = {
        # the manifest holds exactly its three fields
        r"unknown manifest fields: \['params'\]": lambda mf: mf.update(params=v1_params),
        r"unknown manifest fields: \['extra', 'params'\]": lambda mf: mf.update(params=5, extra=None),
        r"manifest is missing fields: \['format_version'\]": lambda mf: mf.pop("format_version"),
        r"manifest is missing fields: \['config', 'seed'\]": lambda mf: [mf.pop("config"), mf.pop("seed")],
        "'seed'": lambda mf: mf.update(seed="abc"),
        # a config past the size bound, refused by its count before anything is allocated
        r"manifest field 'config': model too large to build: .* at 'enc1.attn.q.w' of shape "
        r"\[1048576, 1048576\]$": lambda mf: mf["config"].update(d_model=2 ** 20),
        r"manifest field 'config': .* at 'embed.w' of shape \[8, 1099511627776\]":
            lambda mf: mf["config"].update(d_model=2 ** 40),
        # a config within the bound whose count is not the payload's
        rf"payload is {4 * tiny} bytes, manifest implies "
        rf"{4 * param_count(replace(m.config, d_model=512))}$":
            lambda mf: mf["config"].update(d_model=512),
        "manifest field 'config': model config is missing required keys": lambda mf: mf.update(config={}),
        "patch_stride": lambda mf: mf["config"].update(patch_stride=4),
        "dropout": lambda mf: mf["config"].update(dropout=0.5),
        "ffn_mult": lambda mf: mf["config"].update(ffn_mult=2),
        "mask_ratio": lambda mf: mf["config"].update(mask_ratio=0.25),
        "n_layers_per_group": lambda mf: mf["config"].update(n_layers_per_group=1),
    }
    for match, edit in edits.items():
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(rewrite_manifest(path, tmp_path / "bad.bin", edit))
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(struct.pack("<Q", 4) + b"nope")
    with pytest.raises(CheckpointError):
        load_checkpoint(garbage)
    blob = path.read_bytes()
    n = struct.unpack("<Q", blob[:8])[0]
    huge = blob[8:8 + n].replace(b'"seed":0', b'"seed":' + b"9" * 5000)  # past the int digit limit
    garbage.write_bytes(struct.pack("<Q", len(huge)) + huge + blob[8 + n:])
    with pytest.raises(CheckpointError, match="not valid JSON"):
        load_checkpoint(garbage)


def test_the_checkpoint_version_is_pinned_with_the_layout_and_the_schema():
    # a payload is read by param_layout's names and shapes and a manifest by
    # its fields and the model config's: a change to any of them fails here
    # until CHECKPOINT_VERSION and this pin move together, so that a file of
    # the old layout or schema is refused by its version
    layout = hashlib.sha256()
    for name in ("tiny", "small", "base"):
        for entry, shape, _ in param_layout(preset(name)):
            layout.update(repr((entry, shape)).encode())
    assert CHECKPOINT_VERSION == 3
    assert layout.hexdigest() == "6bf05b9dc31425b269d0f5e61bc250344c9eed2e9ee63b955bac70dce854ee5d"
    assert _MANIFEST_FIELDS == ("config", "format_version", "seed")
    assert sorted(f.name for f in fields(ModelConfig)) == ["d_model", "horizon_len", "lookback_len", "n_heads",
                                                           "n_levels", "patch_size"]


def test_checkpoint_bytes_are_pinned(tmp_path):
    # a seeded tiny checkpoint in two pins (no BLAS call is involved): the
    # length prefix and manifest, which a format change re-pins, and the
    # payload, which no format change may move
    save_checkpoint(tiny_model(seed=0), tmp_path / "ck.bin")
    blob = (tmp_path / "ck.bin").read_bytes()
    n = 8 + struct.unpack("<Q", blob[:8])[0]
    manifest, payload = (hashlib.sha256(part).hexdigest() for part in (blob[:n], blob[n:]))
    assert manifest == "5f19b13fb667b6e8a7d4d95b82f6c87042eb7663816e6af66b33c13922e304bc"
    assert payload == "f9f4930981ca9ceb096651e89349fa327b3291cccb488a55291d3b92a350666a"


def test_checkpoint_with_legacy_config_keys_is_refused(tmp_path, capsys):
    # early releases wrote patch_stride and dropout, at their one implemented
    # value, into every manifest, later ones ffn_mult and mask_ratio, now
    # constants, and n_layers_per_group, a group being one layer: they are
    # unknown keys now
    m = tiny_model(seed=10)
    path = tmp_path / "ck.bin"
    save_checkpoint(m, path, seed=10)
    save_csv_dataset(make_sine_frame("probe", length=40, period=16.0, seed=7), tmp_path / "probe.csv")
    (tmp_path / "run.json").write_text(json.dumps({"model": {"preset": "tiny"}}))
    for keys, match in (({"patch_stride": 8, "dropout": 0.0}, r"\['dropout', 'patch_stride'\]"),
                        ({"ffn_mult": 4, "mask_ratio": 0.4}, r"\['ffn_mult', 'mask_ratio'\]"),
                        ({"n_layers_per_group": 1}, r"\['n_layers_per_group'\]")):
        legacy = rewrite_manifest(path, tmp_path / "legacy.bin", lambda mf: mf["config"].update(keys))
        with pytest.raises(CheckpointError, match=rf"unknown model config keys: {match}"):
            load_checkpoint(legacy)
        with pytest.raises(CheckpointError, match=rf"unknown model config keys: {match}"):
            apply_checkpoint(UShapedTransformer(m.config, seed=0), legacy)
        assert main(["forecast", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "fc"),
                     "--checkpoint", str(legacy), "--input", str(tmp_path / "probe.csv")]) == 2
        assert re.search(rf"unknown model config keys: {match}", capsys.readouterr().err), keys
        assert not (tmp_path / "fc" / "forecast.csv").exists()


def test_backbone_hash_ignores_heads():
    a = tiny_model(seed=9)
    b = tiny_model(seed=9)
    assert backbone_hash(a) == backbone_hash(b)
    for dtype in (np.float32, np.float64):  # the digest is over each backbone parameter's float32 bytes
        m = UShapedTransformer(preset("tiny"), seed=9, dtype=dtype)
        h = hashlib.sha256()
        for name in m.backbone_names():
            h.update(name.encode("utf-8"))
            h.update(m.params[name].data.astype("<f4").tobytes())
        assert backbone_hash(m) == h.hexdigest() == backbone_hash(a), dtype
    b.params["head.forecast.b"].data[:] += 1.0
    assert backbone_hash(a) == backbone_hash(b)
    b.params["enc1.attn.q.w"].data[0, 0] += 1e-3
    assert backbone_hash(a) != backbone_hash(b)
