"""Tests of the compiled inference engine (repro.nn.inference)."""

import gc
import time
import tracemalloc

import numpy as np
import pytest

from repro.core.mmspacenet import AttentionResidualBlock
from repro.core.regressor import HandJointRegressor
from repro.errors import InferenceCompileError
from repro.nn.inference import compile_model
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    Dropout,
    LayerNorm,
    Linear,
    Module,
    ReLU,
    Sequential,
)
from repro.nn.optim import SGD, Adam, RMSProp
from repro.nn.tensor import Tensor
from repro.obs import metrics as obs_metrics


@pytest.fixture
def regressor(small_dsp, small_model):
    return HandJointRegressor(small_dsp, small_model, seed=3)


def _segments(rng, dsp, batch=5):
    return rng.normal(
        size=(
            batch, dsp.segment_frames, dsp.doppler_bins,
            dsp.range_bins, dsp.angle_bins_total,
        )
    ).astype(np.float32)


def test_compiled_predict_matches_eager(regressor, small_dsp, rng):
    x = _segments(rng, small_dsp)
    eager = regressor.predict(x, use_compiled=False)
    compiled = regressor.predict(x, use_compiled=True)
    assert compiled.shape == eager.shape
    assert float(np.abs(compiled - eager).max()) <= 1e-5


def test_compiled_predict_skips_the_mode_walk(
    regressor, small_dsp, rng, monkeypatch
):
    # The plan never reads the training flag, so only the eager path
    # walks the module tree into eval mode (and back).
    x = _segments(rng, small_dsp, batch=2)
    regressor.train()
    walks = []
    eval_ = HandJointRegressor.eval
    monkeypatch.setattr(
        HandJointRegressor, "eval",
        lambda self: walks.append("eval") or eval_(self),
    )
    compiled = regressor.predict(x)
    assert walks == [] and regressor.training
    eager = regressor.predict(x, use_compiled=False)
    assert walks == ["eval"] and regressor.training
    assert float(np.abs(compiled - eager).max()) <= 1e-5


def test_compiled_run_matches_forward(regressor, small_dsp, rng):
    x = _segments(rng, small_dsp, batch=3)
    regressor.eval()
    plan = compile_model(regressor)
    eager = regressor.forward(Tensor(x)).data
    out = plan.run(x)
    assert float(np.abs(out - eager).max()) <= 1e-5


def test_compiled_run_returns_fresh_copy(regressor, small_dsp, rng):
    x = _segments(rng, small_dsp, batch=2)
    plan = regressor.compiled()
    first = plan.run(x)
    snapshot = first.copy()
    first.fill(123.0)  # clobbering the caller's array must be harmless
    second = plan.run(x)
    assert np.array_equal(second, snapshot)


def _conv_bn_relu(dtype, rng):
    """A Conv+BN+ReLU stack with non-trivial statistics in ``dtype``."""
    seq = Sequential(
        Conv2d(3, 5, kernel_size=3, padding=1,
               rng=np.random.default_rng(7)),
        BatchNorm2d(5),
        ReLU(),
    )
    bn = seq.layers[1]
    bn._buffers["running_mean"] = rng.normal(size=5).astype(dtype)
    bn._buffers["running_var"] = rng.uniform(0.5, 2.0, size=5).astype(dtype)
    object.__setattr__(bn, "running_mean", bn._buffers["running_mean"])
    object.__setattr__(bn, "running_var", bn._buffers["running_var"])
    bn.gamma.data = rng.normal(size=5).astype(dtype)
    bn.beta.data = rng.normal(size=5).astype(dtype)
    for param in seq.parameters():
        param.data = param.data.astype(dtype)
    return seq.eval()


@pytest.mark.parametrize(
    "dtype,rel_tol,standalone",
    [(np.float32, 1e-6, False), (np.float64, 1e-12, False),
     (np.float32, 1e-6, True)],
    ids=["float32-1e-06", "float64-1e-12", "standalone-bn"],
)
def test_conv_bn_folding_matches_eager(dtype, rel_tol, standalone, rng):
    seq = _conv_bn_relu(dtype, rng)
    if standalone:
        # Without a conv before it, BN (+ReLU) is its own plan op.
        seq = Sequential(*seq.layers[1:]).eval()
    x = rng.normal(size=(2, 5 if standalone else 3, 8, 8)).astype(dtype)
    eager = seq(Tensor(x)).data
    compiled = compile_model(seq)
    out = compiled.run(x)
    # conv (or standalone BN), bn and relu fused into one op
    assert [op.name for op in compiled.plan.ops] == [
        "batch_norm2d" if standalone else "conv2d"
    ]
    assert compiled.plan.ops[0].relu
    assert out.dtype == np.dtype(dtype)
    scale = float(np.abs(eager).max())
    assert float(np.abs(out - eager).max()) / scale <= rel_tol


def test_conv_transpose_bn_folding_matches_eager(rng):
    seq = Sequential(
        ConvTranspose2d(4, 3, kernel_size=3, stride=2,
                        rng=np.random.default_rng(5)),
        BatchNorm2d(3),
        ReLU(),
    ).eval()
    x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
    eager = seq(Tensor(x)).data
    out = compile_model(seq).run(x)
    assert out.shape == eager.shape
    assert float(np.abs(out - eager).max()) <= 1e-5


@pytest.mark.parametrize("batch", [1, 16])
def test_attention_residual_block_compiled_matches_eager(batch, rng):
    # One block covers every shared conv kernel: the 1x1 preserve conv,
    # strided 3x3 convs, sub-pixel transposed convs (BN folded) and the
    # banded spatial-attention conv.
    block = AttentionResidualBlock(8, depth=2, rng=np.random.default_rng(4))
    block(Tensor(rng.normal(size=(4, 8, 16, 16)).astype(np.float32)))
    block.eval()  # the training pass above left non-trivial BN stats
    x = rng.normal(size=(batch, 8, 16, 16)).astype(np.float32)
    eager = block(Tensor(x)).data
    out = compile_model(block).run(x)
    assert out.shape == eager.shape
    assert float(np.abs(out - eager).max()) <= 1e-5


def _optimizer_step(opt_cls):
    def update(regressor, x):
        opt = opt_cls(regressor.parameters(), lr=5e-2)
        loss = (regressor.forward(Tensor(regressor.normalize_inputs(x)))
                * Tensor(np.float32(1.0))).sum()
        loss.backward()
        opt.step()

    return update


def _scale_in_place_and_bump(regressor, x):
    # An in-place rewrite is invisible to the plan until bump_version.
    for param in regressor.parameters():
        param.data *= np.float32(1.05)
        param.bump_version()


@pytest.mark.parametrize(
    "update",
    [_optimizer_step(SGD), _optimizer_step(Adam),
     _optimizer_step(RMSProp), _scale_in_place_and_bump],
    ids=["SGD", "Adam", "RMSProp", "bump_version"],
)
def test_optimizer_step_invalidates_folded_weights(
    update, regressor, small_dsp, rng
):
    x = _segments(rng, small_dsp, batch=2)
    plan = regressor.compiled()
    before = plan.run(x)
    update(regressor, x)
    after = plan.run(x)
    eager_after = regressor.predict(x, use_compiled=False)
    compiled_after = regressor.predict(x)
    assert not np.allclose(before, after)
    assert float(np.abs(compiled_after - eager_after).max()) <= 1e-5


def test_load_state_dict_invalidates_folded_weights(
    small_dsp, small_model, rng
):
    a = HandJointRegressor(small_dsp, small_model, seed=1)
    b = HandJointRegressor(small_dsp, small_model, seed=2)
    x = _segments(rng, small_dsp, batch=2)
    pred_b_initial = b.predict(x)  # compiles b's plan from seed-2 weights
    b.load_state_dict(a.state_dict())
    assert np.allclose(b.predict(x), a.predict(x), atol=1e-6)
    assert not np.allclose(b.predict(x), pred_b_initial)


def test_unsupported_module_raises_and_predict_falls_back(
    regressor, small_dsp, small_model, rng
):
    hidden = small_model.lstm_hidden
    regressor.head = Sequential(
        Linear(hidden, hidden),
        LayerNorm(hidden),  # the compiler has no lowering for this
        Linear(hidden, small_model.num_joints * 3),
    )
    x = _segments(rng, small_dsp, batch=2)
    with pytest.raises(InferenceCompileError):
        compile_model(regressor).run(x)
    eager = regressor.predict(x, use_compiled=False)
    fallback = regressor.predict(x)  # must not raise
    assert np.allclose(fallback, eager)
    # The failed recording is remembered: no plan is offered again.
    assert regressor.compiled() is None


def test_dropout_compiles_to_identity(rng):
    seq = Sequential(Linear(6, 6), Dropout(0.5), Linear(6, 2)).eval()
    x = rng.normal(size=(4, 6)).astype(np.float32)
    eager = seq(Tensor(x)).data
    out = compile_model(seq).run(x)
    assert np.allclose(out, eager, atol=1e-6)


def test_compile_rejects_op_without_lowering(rng):
    # LayerNorm's forward runs Tensor ops the plan has no op for.
    seq = Sequential(Linear(3, 3), LayerNorm(3))
    with pytest.raises(InferenceCompileError):
        compile_model(seq).run(rng.normal(size=(2, 3)).astype(np.float32))


def test_custom_module_records_through_its_forward(rng):
    # A module without a lowering compiles through its own forward.
    class Identity(Module):
        def forward(self, x):
            return x

    seq = Sequential(Linear(3, 3), Identity()).eval()
    x = rng.normal(size=(2, 3)).astype(np.float32)
    compiled = compile_model(seq)
    assert np.allclose(compiled.run(x), seq(Tensor(x)).data, atol=1e-6)
    assert [op.name for op in compiled.plan.ops] == ["linear"]


def test_value_consumed_by_a_fused_op_falls_back(rng):
    # The BN folds into the conv, so the raw conv output no longer
    # exists in the plan: reusing it must refuse rather than read the
    # folded value.
    class Reuse(Module):
        def __init__(self):
            super().__init__()
            self.conv = Conv2d(2, 2, kernel_size=1)
            self.bn = BatchNorm2d(2)

        def forward(self, x):
            y = self.conv(x)
            return (self.bn(y) + y).relu()

    x = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
    with pytest.raises(InferenceCompileError):
        compile_model(Reuse().eval()).run(x)


def test_plan_counters_flow_through_obs(regressor, small_dsp, rng):
    compiles = obs_metrics.counter("model.plan.compiles").value
    executes = obs_metrics.counter("model.plan.executes").value
    x = _segments(rng, small_dsp, batch=2)
    regressor.predict(x)
    regressor.predict(x)
    assert obs_metrics.counter("model.plan.compiles").value == compiles + 1
    assert obs_metrics.counter("model.plan.executes").value == executes + 2


def test_refold_counter_increments_on_weight_change(
    regressor, small_dsp, rng
):
    x = _segments(rng, small_dsp, batch=2)
    regressor.predict(x)
    refolds = obs_metrics.counter("model.plan.refolds").value
    regressor.load_state_dict(regressor.state_dict())
    regressor.predict(x)
    assert obs_metrics.counter("model.plan.refolds").value == refolds + 1


def test_plan_validates_input_shape(regressor, small_dsp, rng):
    from repro.errors import ModelError

    bad = rng.normal(
        size=(2, small_dsp.segment_frames + 1, small_dsp.doppler_bins,
              small_dsp.range_bins, small_dsp.angle_bins_total)
    ).astype(np.float32)
    plan = regressor.compiled()
    with pytest.raises(ModelError):
        plan.run(bad)


def test_single_segment_promotion_matches_batched(
    regressor, small_dsp, rng
):
    x = _segments(rng, small_dsp, batch=1)
    plan = regressor.compiled()
    batched = plan.run(x)
    promoted = plan.run(x[0])  # (st, V, D, A) promoted to batch of one
    assert np.array_equal(batched, promoted)


def test_memory_plan_shrinks_arena(regressor, small_dsp, rng):
    x = _segments(rng, small_dsp, batch=3)
    plan = regressor.compiled()
    plan.run(x)
    stats = plan.stats()
    assert stats["memory_plans"] >= 1
    assert 0 < stats["planned_bytes"] < stats["arena_bytes"]


def test_memory_plan_execution_is_deterministic(
    regressor, small_dsp, rng
):
    # Slot sharing must never let one op read another's stale bytes:
    # re-running the planned arena bit-for-bit reproduces the output.
    x = _segments(rng, small_dsp, batch=2)
    plan = regressor.compiled()
    first = plan.run(x).copy()
    for _ in range(3):
        assert np.array_equal(plan.run(x), first)


def test_profile_reports_per_op_timings(regressor, small_dsp, rng):
    x = _segments(rng, small_dsp, batch=2)
    plan = regressor.compiled()
    rows = plan.profile(regressor.normalize_inputs(x))
    assert rows and len(rows) == len(plan.plan.ops)
    assert all(row["median_s"] >= 0.0 for row in rows)
    # Sorted descending by time, shares sum to ~1.
    medians = [row["median_s"] for row in rows]
    assert medians == sorted(medians, reverse=True)
    assert abs(sum(row["share"] for row in rows) - 1.0) < 1e-6


def test_profile_shares_ignore_one_slow_repeat(rng):
    # Op 0 sleeps 50 ms on one repeat only (a preempted op): its share
    # comes from per-op medians, so it stays near its unslowed value.
    seq = Sequential(Linear(256, 256), ReLU(), Linear(256, 256)).eval()
    x = rng.normal(size=(256, 256)).astype(np.float32)
    compiled = compile_model(seq)

    def share_of_first_op(rows):
        return next(row for row in rows if row["op_id"] == 0)["share"]

    unslowed = share_of_first_op(compiled.profile(x))
    op = compiled.plan.ops[0]
    calls = []

    def run(regs, arena, _run=op.run):
        calls.append(None)
        if len(calls) == 3:
            time.sleep(0.05)
        _run(regs, arena)

    op.run = run
    slowed = share_of_first_op(compiled.profile(x))
    assert len(calls) >= 10
    assert abs(slowed - unslowed) < 0.2


def test_first_call_does_not_hold_every_scratch_buffer(rng):
    # The recording run is the memory-plan probe; it keeps each buffer's
    # size and lifetime but frees scratch when its op ends, so its peak
    # stays far below one-buffer-per-request (arena_bytes).
    regressor = HandJointRegressor(seed=0)
    x = _segments(rng, regressor.dsp, batch=8)
    compiled = compile_model(regressor)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        compiled.run(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arena_bytes = compiled.stats()["arena_bytes"]
    assert peak < 0.5 * arena_bytes


def test_new_batch_size_replays_the_recording(regressor, small_dsp, rng):
    compiles = obs_metrics.counter("model.plan.compiles").value
    plan = regressor.compiled()
    regressor.eval()
    for batch in (3, 1, 7):
        x = _segments(rng, small_dsp, batch=batch)
        eager = regressor.forward(Tensor(x)).data
        assert float(np.abs(plan.run(x) - eager).max()) <= 1e-5
    assert obs_metrics.counter("model.plan.compiles").value == compiles + 1
    assert plan.stats()["memory_plans"] == 3


def test_recording_leaves_no_cyclic_garbage(regressor, small_dsp, rng):
    # Recorded values point at their recorder; the recorder must not
    # point back once done, or every session open leaves its op list
    # and folded weights to the cyclic collector.
    x = _segments(rng, small_dsp, batch=2)
    compile_model(regressor).run(x)
    gc.collect()
    gc.disable()
    try:
        compile_model(regressor).run(x)
        assert gc.collect() == 0
    finally:
        gc.enable()
