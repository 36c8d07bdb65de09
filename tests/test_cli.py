"""Tests of the command-line interface (all subcommands exercised with
tiny configurations via monkeypatched defaults)."""

import numpy as np
import pytest

from repro import cli
from repro.config import CampaignConfig, DspConfig, ModelConfig, RadarConfig


@pytest.fixture(autouse=True)
def small_defaults(monkeypatch):
    """Shrink the CLI's default radar/model so tests stay fast."""
    small_radar = RadarConfig(samples_per_chirp=32, chirp_loops=8)
    small_dsp = DspConfig(
        range_bins=16, doppler_bins=4, azimuth_bins=8, elevation_bins=8,
        segment_frames=2,
    )
    small_model = ModelConfig(
        base_channels=4, hourglass_depth=1, num_blocks=1, feature_dim=16,
        lstm_hidden=16,
    )
    import repro.config as config_module

    monkeypatch.setattr(config_module, "RadarConfig",
                        lambda **kw: small_radar)
    monkeypatch.setattr(config_module, "DspConfig", lambda **kw: small_dsp)
    monkeypatch.setattr(config_module, "ModelConfig",
                        lambda **kw: small_model)
    # Re-point the default-constructed classes used inside the CLI path.
    import repro.data.collection as collection
    import repro.core.regressor as regressor_module
    import repro.core.pipeline as pipeline_module

    original_generator = collection.CampaignGenerator

    def patched_generator(radar=None, dsp=None, campaign=None, **kw):
        return original_generator(
            small_radar, small_dsp, campaign, **kw
        )

    monkeypatch.setattr(collection, "CampaignGenerator", patched_generator)
    original_regressor = regressor_module.HandJointRegressor

    def patched_regressor(dsp=None, model=None, seed=0):
        return original_regressor(small_dsp, small_model, seed=seed)

    monkeypatch.setattr(
        regressor_module, "HandJointRegressor", patched_regressor
    )
    yield


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([])


def test_generate_train_evaluate_cycle(tmp_path, capsys):
    dataset_path = str(tmp_path / "data.npz")
    weights_path = str(tmp_path / "weights.npz")

    assert cli.main(
        [
            "generate-data", dataset_path,
            "--users", "2", "--segments-per-user", "8", "--seed", "3",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "wrote 16 segments" in out

    assert cli.main(
        [
            "train", dataset_path, weights_path,
            "--epochs", "1", "--batch-size", "4",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "weights ->" in out

    assert cli.main(["evaluate", dataset_path, weights_path]) == 0
    out = capsys.readouterr().out
    assert "MPJPE" in out
    assert "overall" in out


def test_evaluate_single_user(tmp_path, capsys):
    dataset_path = str(tmp_path / "data.npz")
    weights_path = str(tmp_path / "weights.npz")
    cli.main(["generate-data", dataset_path, "--users", "2",
              "--segments-per-user", "6"])
    cli.main(["train", dataset_path, weights_path, "--epochs", "1",
              "--batch-size", "4"])
    capsys.readouterr()
    assert cli.main(
        ["evaluate", dataset_path, weights_path, "--user", "1"]
    ) == 0
    assert cli.main(
        ["evaluate", dataset_path, weights_path, "--user", "99"]
    ) == 1


def test_generate_with_condition(tmp_path, capsys):
    dataset_path = str(tmp_path / "gloved.npz")
    assert cli.main(
        [
            "generate-data", dataset_path,
            "--users", "1", "--segments-per-user", "4",
            "--environment", "lab", "--glove", "silk",
            "--distance", "0.35",
        ]
    ) == 0
    from repro.data.dataset import HandPoseDataset

    dataset = HandPoseDataset.load(dataset_path)
    assert all(m.environment == "lab" for m in dataset.meta)
    assert all(m.condition == "glove:silk" for m in dataset.meta)


def test_export_mesh(tmp_path, capsys):
    prefix = str(tmp_path / "hand")
    assert cli.main(
        ["export-mesh", "fist", prefix, "--fit-steps", "10"]
    ) == 0
    assert (tmp_path / "hand.obj").exists()
    assert (tmp_path / "hand.svg").exists()


def test_export_mesh_unknown_gesture(tmp_path, capsys):
    assert cli.main(
        ["export-mesh", "spock", str(tmp_path / "x")]
    ) == 1
    assert "unknown gesture" in capsys.readouterr().err


def test_serve_help(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["serve", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--listen" in out
    assert "--chaos-frame-rate" in out
    for retired in ("--sessions", "--frames", "--policy", "--report-every"):
        assert retired not in out


def test_serve_requires_listen_and_a_worker(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["serve"])
    assert excinfo.value.code != 0
    assert "--listen" in capsys.readouterr().err
    for workers in ("0", "-2"):
        assert cli.main(
            ["serve", "--listen", "127.0.0.1:0", "--workers", workers]
        ) == 1
        assert "--workers must be >= 1" in capsys.readouterr().err


def test_serve_listen_writes_merged_trace_metrics_and_report(tmp_path):
    """Two workers behind ``serve --listen``: the trace is ONE merged
    file with worker-side forward spans from both worker processes,
    and the metrics and drain report account for every frame."""
    import json

    from conftest import serve_listen, stop_serve
    from repro.gateway.loadgen import make_frame_pool
    from repro.netfront import NetFrontClient

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    report_path = tmp_path / "report.json"
    with serve_listen(
        "--workers", "2", "--trace-out", str(trace_path),
        "--metrics-json", str(metrics_path), "--json", str(report_path),
    ) as (proc, port, output):
        # The subprocess runs the full-size default configuration.
        pool = make_frame_pool(DspConfig(), 6, seed=0)
        with NetFrontClient.connect(
            "127.0.0.1", port, timeout_s=30.0
        ) as client:
            # Sessions are balanced across workers: one on each.
            sessions = [client.open_session() for _ in range(2)]
            for sid in sessions:
                for fid, cube in enumerate(pool):
                    client.send_cube(sid, cube, frame_id=fid)
            # 4-frame window: 6 frames -> 3 poses per session.
            client.poll_poses(expect=6, timeout_s=120.0)
        returncode = stop_serve(proc, output)
    assert returncode == 0, "".join(output)

    events = json.loads(trace_path.read_text())["traceEvents"]
    forward_pids = {
        event["pid"] for event in events
        if event.get("name") == "worker.forward"
    }
    assert len(forward_pids) == 2
    assert proc.pid not in forward_pids
    assert any(
        event.get("name") == "gateway.submit" and event["pid"] == proc.pid
        for event in events
    )
    metrics = json.loads(metrics_path.read_text())
    assert metrics["counters"]["gateway.acks"] == 12
    assert metrics["counters"]["gateway.poses"] == 6
    report = json.loads(report_path.read_text())
    assert report["frames_submitted"] == 12
    assert report["lost_clean_frames"] == 0
    assert len(report["gateway"]["workers"]) == 2


def test_bench_smoke(tmp_path, capsys):
    """The bench subcommand runs the smoke workload and writes JSON."""
    json_path = tmp_path / "bench.json"
    assert cli.main(
        [
            "bench", "--smoke", "--json", str(json_path),
            "--model-json", str(tmp_path / "bench_model.json"),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "cube build" in out
    assert "plan cache" in out
    import json

    summary = json.loads(json_path.read_text())
    assert summary["smoke"] is True
    assert summary["cube_build"]["batched_exact"][
        "max_abs_diff_vs_reference"
    ] <= 1e-9
    assert summary["cfar"]["vectorized"]["mask_identical"] is True


def test_bench_rejects_bad_repeats(capsys):
    assert cli.main(["bench", "--smoke", "--repeats", "0"]) == 1
    assert "--repeats" in capsys.readouterr().err


def test_trace_out_runs_bench(tmp_path, capsys):
    """``mmhand bench --smoke --trace-out`` prints a span summary and
    writes a Chrome-loadable trace with nested spans covering radar
    synthesis, the DSP stages, and the model forward."""
    import json

    trace_path = tmp_path / "trace.json"
    json_path = tmp_path / "bench.json"
    assert cli.main(
        [
            "bench", "--smoke",
            "--json", str(json_path),
            "--model-json", str(tmp_path / "bench_model.json"),
            "--trace-out", str(trace_path),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "span summary" in out

    doc = json.loads(trace_path.read_text())
    events = doc["traceEvents"]
    names = {event["name"] for event in events}
    assert "radar.synthesize.sequence" in names
    dsp_stages = {
        n for n in names
        if n in ("dsp.bandpass", "dsp.range_fft", "dsp.doppler_fft",
                 "dsp.angle")
    }
    assert len(dsp_stages) >= 3
    assert "model.forward" in names
    assert any(event["args"].get("parent_id") for event in events)
    assert all(
        event["ph"] == "X" and "ts" in event and "dur" in event
        for event in events
    )


def test_bench_provenance(tmp_path, capsys):
    """Every bench JSON embeds reproducibility provenance."""
    import json

    json_path = tmp_path / "bench.json"
    assert cli.main(
        [
            "bench", "--smoke", "--json", str(json_path),
            "--model-json", str(tmp_path / "bench_model.json"),
        ]
    ) == 0
    summary = json.loads(json_path.read_text())
    provenance = summary["provenance"]
    for key in ("git_sha", "platform", "python", "numpy",
                "timestamp_utc", "config_hash"):
        assert provenance[key]


def test_profile_out_runs_command(tmp_path, capsys):
    """``--profile-out`` runs the command under the sampling profiler,
    prints the hot frames and writes a non-empty folded-stack profile."""
    out_path = tmp_path / "profile.folded"
    json_path = tmp_path / "bench.json"
    assert cli.main(
        [
            "bench", "--smoke", "--model-only",
            "--profile-out", str(out_path), "--profile-hz", "250",
            "--json", str(json_path),
            "--model-json", str(tmp_path / "bench_model.json"),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "--- profile ---" in out
    assert "overhead" in out
    folded = out_path.read_text().strip().splitlines()
    assert folded
    stack, count = folded[0].rsplit(" ", 1)
    assert int(count) >= 1
    assert ";" in stack  # thread root + at least one frame


def test_bench_compare_passes_against_self(tmp_path, capsys):
    """A benchmark compared against itself always passes; a doctored
    regression fails with a non-zero exit."""
    import json

    json_path = tmp_path / "bench_model.json"
    assert cli.main(
        [
            "bench", "--smoke", "--model-only",
            "--model-json", str(json_path),
        ]
    ) == 0
    capsys.readouterr()
    assert cli.main(
        ["bench-compare", str(json_path), str(json_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out

    doctored = json.loads(json_path.read_text())
    doctored["within_tolerance"] = False
    bad_path = tmp_path / "doctored.json"
    bad_path.write_text(json.dumps(doctored))
    assert cli.main(
        ["bench-compare", str(bad_path), str(json_path)]
    ) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_bench_compare_rejects_type_mismatch(tmp_path, capsys):
    import json

    model_like = tmp_path / "model.json"
    model_like.write_text(json.dumps({"within_tolerance": True}))
    pipeline_like = tmp_path / "pipeline.json"
    pipeline_like.write_text(json.dumps({"cube_build": {}}))
    assert cli.main(
        ["bench-compare", str(model_like), str(pipeline_like)]
    ) == 1
    assert "mismatch" in capsys.readouterr().err
    assert cli.main(
        ["bench-compare", str(model_like), str(tmp_path / "nope.json")]
    ) == 1
    assert "cannot read" in capsys.readouterr().err
