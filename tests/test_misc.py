"""Small cross-cutting tests: error hierarchy, initialisers, public API,
what the runtime imports."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.errors import (
    ConfigError,
    DatasetError,
    EvaluationError,
    GradientError,
    KinematicsError,
    MeshError,
    ModelError,
    RadarError,
    ReproError,
    SerializationError,
    SignalProcessingError,
)
from repro.nn.init import kaiming_uniform, xavier_uniform


def test_all_errors_derive_from_repro_error():
    for exc in (
        ConfigError, KinematicsError, MeshError, RadarError,
        SignalProcessingError, ModelError, DatasetError, EvaluationError,
    ):
        assert issubclass(exc, ReproError)
    assert issubclass(GradientError, ModelError)
    assert issubclass(SerializationError, ModelError)


def test_catching_base_error_covers_subsystems():
    with pytest.raises(ReproError):
        raise RadarError("radar broke")
    with pytest.raises(ReproError):
        raise GradientError("graph broke")


def test_public_api_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def _modules_after(code: str) -> list:
    """Run ``code`` in a fresh interpreter; return its module names."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_a_subpackage_loads_only_what_it_needs():
    modules = _modules_after("import repro.nn")
    assert "repro.nn" in modules
    assert "repro.dsp" not in modules
    assert "repro.radar" not in modules
    # ...and the lazy package still hands out every public name.
    modules = _modules_after(
        "import repro\nfor name in repro.__all__: getattr(repro, name)"
    )
    assert "repro.serving" in modules


def test_runtime_path_does_not_import_scipy():
    modules = _modules_after(
        "import numpy as np\n"
        "import repro.cli, repro.gateway.worker, repro.netfront\n"
        "import repro.serving\n"
        "from repro.dsp import CubeBuilder\n"
        "builder = CubeBuilder()\n"
        "raw = np.ones((1, builder.array.num_virtual,"
        " builder.radar.chirp_loops, builder.radar.samples_per_chirp),"
        " complex)\n"
        "builder.build(raw)"
    )
    assert "repro.dsp.filters" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_version_string():
    major, minor, patch = repro.__version__.split(".")
    assert int(major) >= 1


def test_kaiming_bounds_and_dtype():
    rng = np.random.default_rng(0)
    w = kaiming_uniform(rng, (64, 32), fan_in=32)
    bound = np.sqrt(6.0 / 32)
    assert w.dtype == np.float32
    assert w.min() >= -bound
    assert w.max() <= bound
    # Fills the range (not degenerate).
    assert w.std() > bound / 4


def test_xavier_bounds():
    rng = np.random.default_rng(0)
    w = xavier_uniform(rng, (20, 10), fan_in=10, fan_out=20)
    bound = np.sqrt(6.0 / 30)
    assert np.abs(w).max() <= bound


def test_initialisers_validate():
    rng = np.random.default_rng(0)
    with pytest.raises(ModelError):
        kaiming_uniform(rng, (2, 2), fan_in=0)
    with pytest.raises(ModelError):
        xavier_uniform(rng, (2, 2), fan_in=0, fan_out=2)


def test_initialisers_deterministic_per_seed():
    a = kaiming_uniform(np.random.default_rng(5), (4, 4), 4)
    b = kaiming_uniform(np.random.default_rng(5), (4, 4), 4)
    assert np.array_equal(a, b)
