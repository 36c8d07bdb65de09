"""Portable compiled-plan artifacts (save_plan / load_plan / verify_plan).

The artifact must round-trip the full execution state -- op list,
folded weights, static memory plans -- into a fresh
process with no module tree, reject tampered or mismatched files, and
pass the standalone eager-parity verification.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.regressor import HandJointRegressor
from repro.errors import SerializationError
from repro.nn.serialization import (
    attach_plan,
    load_plan,
    plan_matches_config,
    regressor_config_meta,
    save_plan,
    verify_plan,
)
from repro.obs import metrics as obs_metrics


@pytest.fixture
def regressor(small_dsp, small_model):
    return HandJointRegressor(small_dsp, small_model, seed=3)


def _segments(rng, dsp, batch=4):
    return rng.normal(
        size=(
            batch, dsp.segment_frames, dsp.doppler_bins,
            dsp.range_bins, dsp.angle_bins_total,
        )
    ).astype(np.float32)


def _export(regressor, rng, dsp, prefix, seed=3):
    """Warm the plan's memory plan and export it with embedded config."""
    x = _segments(rng, dsp)
    regressor.predict(x)
    return save_plan(
        regressor.compiled(), prefix,
        config=regressor_config_meta(regressor, seed=seed),
    ), x


def test_export_load_parity(regressor, small_dsp, tmp_path, rng):
    (json_path, npz_path), x = _export(
        regressor, rng, small_dsp, tmp_path / "plan"
    )
    assert os.path.exists(json_path) and os.path.exists(npz_path)
    original = regressor.compiled()
    loaded = load_plan(tmp_path / "plan")
    normalized = regressor.normalize_inputs(x)
    assert np.array_equal(original.run(normalized), loaded.run(normalized))
    # The memory plan came along.
    assert loaded.stats()["memory_plans"] == (
        original.stats()["memory_plans"]
    )
    assert loaded.stats()["planned_bytes"] > 0


def test_attach_plan_serves_without_tracing(
    regressor, small_dsp, small_model, tmp_path, rng
):
    _, x = _export(regressor, rng, small_dsp, tmp_path / "plan")
    fresh = HandJointRegressor(small_dsp, small_model, seed=3)
    compiles = obs_metrics.counter("model.plan.compiles").value
    attach_plan(fresh, load_plan(tmp_path / "plan"))
    assert np.array_equal(fresh.predict(x), regressor.predict(x))
    # attach_plan + load_plan never traced or folded the module tree.
    assert obs_metrics.counter("model.plan.compiles").value == compiles


def test_loaded_plan_replays_any_batch_of_its_sample_shape(
    regressor, small_dsp, tmp_path, rng
):
    from repro.errors import ModelError

    _, x = _export(regressor, rng, small_dsp, tmp_path / "plan")
    loaded = load_plan(tmp_path / "plan")
    x = regressor.normalize_inputs(x)
    for batch in (1, 3):
        assert np.array_equal(loaded.run(x[:batch]),
                              regressor.compiled().run(x[:batch]))
    # No module to record from: another per-sample shape is refused.
    with pytest.raises(ModelError, match="recorded for input shape"):
        loaded.run(x[:, :1])


def test_artifact_load_counter_increments(
    regressor, small_dsp, tmp_path, rng
):
    _export(regressor, rng, small_dsp, tmp_path / "plan")
    loads = obs_metrics.counter("model.plan.artifact_loads").value
    load_plan(tmp_path / "plan")
    assert (
        obs_metrics.counter("model.plan.artifact_loads").value
        == loads + 1
    )


def test_verify_plan_passes(regressor, small_dsp, tmp_path, rng):
    _export(regressor, rng, small_dsp, tmp_path / "plan")
    report = verify_plan(tmp_path / "plan", batch=2)
    assert report["passed"] is True
    assert report["float32_ok"] is True


def test_verify_detects_divergence(
    regressor, small_dsp, tmp_path, rng
):
    # Lie about the seed in the embedded config: the eager reference
    # verify_plan rebuilds then has different weights than the plan.
    _export(regressor, rng, small_dsp, tmp_path / "plan", seed=7)
    report = verify_plan(tmp_path / "plan", batch=2)
    assert report["float32_ok"] is False
    assert report["passed"] is False


def test_tampered_npz_rejected(regressor, small_dsp, tmp_path, rng):
    (_, npz_path), _ = _export(
        regressor, rng, small_dsp, tmp_path / "plan"
    )
    with np.load(npz_path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    name = sorted(arrays)[0]
    arrays[name] = arrays[name] + np.float32(0.25)
    np.savez(npz_path, **arrays)
    with pytest.raises(SerializationError):
        load_plan(tmp_path / "plan")


def test_wrong_format_and_missing_artifact_rejected(
    regressor, small_dsp, tmp_path, rng
):
    with pytest.raises(SerializationError):
        load_plan(tmp_path / "nothing-here")
    (json_path, _), _ = _export(
        regressor, rng, small_dsp, tmp_path / "plan"
    )
    with open(json_path) as fh:
        meta = json.load(fh)
    meta["layout_version"] = 999
    with open(json_path, "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(SerializationError):
        load_plan(tmp_path / "plan")


@pytest.mark.parametrize("layout", [1, 2, 3])
def test_old_layout_artifact_rejected(
    layout, regressor, small_dsp, tmp_path, rng
):
    # Layout 1 lowered transposed convs to zero-stuffing + conv ops;
    # layout 2 carried activation ranges and per-precision memory plans;
    # layout 3 held a hand-built op list with shape-check ops and
    # declarative reshape specs instead of a recorded one.
    (json_path, _), _ = _export(
        regressor, rng, small_dsp, tmp_path / "plan"
    )
    with open(json_path) as fh:
        meta = json.load(fh)
    meta["layout_version"] = layout
    with open(json_path, "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(
        SerializationError, match=f"layout version {layout}"
    ):
        load_plan(tmp_path / "plan")


def test_plan_matches_config_guard(
    regressor, small_dsp, small_model, tmp_path, rng
):
    import dataclasses

    _export(regressor, rng, small_dsp, tmp_path / "plan")
    _, meta = load_plan(tmp_path / "plan", with_meta=True)
    assert plan_matches_config(meta, small_dsp, small_model)
    other = dataclasses.replace(small_model, lstm_hidden=32)
    assert not plan_matches_config(meta, small_dsp, other)


def test_cli_export_then_verify_in_fresh_process(tmp_path):
    """The acceptance path: export, then verify from a new process."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    prefix = str(tmp_path / "artifact")
    export = subprocess.run(
        [sys.executable, "-m", "repro.cli", "plan", "export", prefix,
         "--small", "--seed", "0"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert export.returncode == 0, export.stderr
    assert os.path.exists(prefix + ".json")
    verify = subprocess.run(
        [sys.executable, "-m", "repro.cli", "plan", "verify", prefix,
         "--batch", "2"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert verify.returncode == 0, verify.stdout + verify.stderr
    assert "plan verification passed" in verify.stdout
