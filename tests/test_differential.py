"""One differential check of every execution path.

The same seeded segments go through the eager autograd forward, the
compiled plan, a plan artifact loaded in a fresh process, the
``InferenceServer``, a ``Gateway`` with one and with two worker
processes, and the netfront TCP server in front of a gateway over
loopback; each must agree with the eager ``no_grad`` forward within
the tolerance table of DESIGN.md section 6. The table is read from the
document, so the two cannot drift apart.
"""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.core.regressor import HandJointRegressor
from repro.dsp.radar_cube import CubeBuilder
from repro.gateway import Gateway, GatewayConfig
from repro.netfront import NetFrontClient, NetFrontConfig, start_in_thread
from repro.nn.inference import compile_model
from repro.nn.serialization import save_plan, save_state
from repro.nn.tensor import Tensor, no_grad
from repro.serving import InferenceServer, ServingConfig

ROOT = os.path.join(os.path.dirname(__file__), "..")
PATHS = (
    "eager_autograd", "compiled", "artifact", "server",
    "gateway_1", "gateway_2", "netfront",
)


def _tolerance_table():
    with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as fh:
        text = fh.read()
    rows = re.findall(
        r"^\| `(\w+)` \| `eager_no_grad` \| ([0-9.e+-]+) \|", text, re.M
    )
    return {path: float(tol) for path, tol in rows}


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    from repro.config import DspConfig, ModelConfig, RadarConfig

    dsp = DspConfig(
        range_bins=16, doppler_bins=4, azimuth_bins=8, elevation_bins=8,
        segment_frames=2,
    )
    model = ModelConfig(
        base_channels=4, hourglass_depth=1, num_blocks=1, feature_dim=16,
        lstm_hidden=16,
    )
    regressor = HandJointRegressor(dsp, model, seed=11)
    rng = np.random.default_rng(11)
    cubes = rng.normal(
        size=(9, dsp.doppler_bins, dsp.range_bins, dsp.angle_bins_total)
    ).astype(np.float32)
    st = dsp.segment_frames
    segments = np.stack(
        [cubes[i : i + st] for i in range(len(cubes) - st + 1)]
    )
    regressor.set_normalization(
        0.1, 1.5,
        rng.normal(size=(model.num_joints, 3)) * 0.05,
        rng.uniform(0.02, 0.08, size=(model.num_joints, 3)),
    )
    # One training-mode pass leaves non-trivial BN running statistics,
    # so the plan's folding is exercised.
    regressor.forward(Tensor(regressor.normalize_inputs(segments)))
    regressor.eval()
    builder = CubeBuilder(RadarConfig(samples_per_chirp=32, chirp_loops=8),
                          dsp)
    return regressor, builder, cubes, segments, tmp_path_factory.mktemp("d")


def _run_artifact_in_fresh_process(compiled, x, directory):
    prefix = str(directory / "plan")
    save_plan(compiled, prefix)
    np.save(directory / "x.npy", x)
    code = (
        "import sys, numpy as np\n"
        "from repro.nn.serialization import load_plan\n"
        "plan = load_plan(sys.argv[1])\n"
        "np.save(sys.argv[3], plan.run(np.load(sys.argv[2])))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(os.path.join(ROOT, "src"))
    subprocess.run(
        [sys.executable, "-c", code, prefix, str(directory / "x.npy"),
         str(directory / "out.npy")],
        env=env, check=True, timeout=300, capture_output=True,
    )
    return np.load(directory / "out.npy")


def _serve(regressor, builder, cubes, windows):
    server = InferenceServer(
        builder, regressor,
        ServingConfig(max_batch_size=4, enable_cache=False),
    )
    sid = server.open_session()
    results = []
    for cube in cubes:
        server.submit_cube(sid, cube)
        results.extend(server.step())
    results.extend(server.drain())
    results.sort(key=lambda r: r.frame_index)
    assert len(results) == windows
    return np.stack([r.joints for r in results])


def _gateway(regressor, builder, directory, workers):
    """A gateway whose workers load ``regressor``'s weights."""
    weights = str(directory / "weights.npz")
    save_state(regressor, weights)
    return Gateway(
        builder.radar, builder.dsp, regressor.model_config,
        GatewayConfig(
            workers=workers, ring_slots=32, weights_path=weights,
            serving=ServingConfig(max_batch_size=4, enable_cache=False),
        ),
    )


def _through_gateway(gateway, cubes, windows):
    """One session per worker, every cube to each; poses per session."""
    with gateway:
        sessions = [
            gateway.open_session() for _ in range(gateway.config.workers)
        ]
        for cube in cubes:
            for sid in sessions:
                gateway.submit_cube(sid, cube)
        results = gateway.drain(timeout_s=60.0)
    assert len(results) == windows * len(sessions)
    results.sort(key=lambda r: (r.session_id, r.frame_index))
    return np.stack([r.joints for r in results]).reshape(
        len(sessions), windows, *results[0].joints.shape
    )


def _through_netfront(gateway, cubes, windows):
    """The cubes over loopback TCP to a netfront server."""
    try:
        handle = start_in_thread(gateway, NetFrontConfig(port=0))
        with NetFrontClient.connect(
            handle.host, handle.port, timeout_s=30.0
        ) as client:
            sid = client.open_session()
            for fid, cube in enumerate(cubes):
                client.send_cube(sid, cube, frame_id=fid)
            poses = client.poll_poses(expect=windows, timeout_s=60.0)
        handle.stop()
    finally:
        gateway.shutdown()
    poses.sort(key=lambda pose: pose.frame_id)
    return np.stack([pose.joints for pose in poses])


def test_every_path_agrees_with_eager_within_the_table(setup):
    regressor, builder, cubes, segments, directory = setup
    table = _tolerance_table()
    assert set(PATHS) <= set(table), "DESIGN.md tolerance table is missing"
    x = regressor.normalize_inputs(segments)
    with no_grad():
        reference = regressor.forward(Tensor(x)).data

    autograd = regressor.forward(Tensor(x))
    assert autograd.requires_grad  # the graph was recorded
    # Recorded at a batch of 2; the rest replay at other batch sizes.
    compiled = compile_model(regressor)
    compiled.run(x[:2])
    outputs = {
        "eager_autograd": autograd.data,
        "compiled": compiled.run(x),
        "artifact": _run_artifact_in_fresh_process(compiled, x, directory),
        "server": regressor.normalize_labels(
            _serve(regressor, builder, cubes, len(segments))
        ),
    }
    for workers in (1, 2):
        outputs[f"gateway_{workers}"] = regressor.normalize_labels(
            _through_gateway(
                _gateway(regressor, builder, directory, workers),
                cubes, len(segments),
            )
        )
    outputs["netfront"] = regressor.normalize_labels(
        _through_netfront(
            _gateway(regressor, builder, directory, 1),
            cubes, len(segments),
        )
    )
    for path in PATHS:
        diff = float(np.abs(outputs[path] - reference).max())
        assert diff <= table[path], f"{path}: {diff:.3g} > {table[path]}"
