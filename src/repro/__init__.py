"""repro: a full reproduction of *mmHand: 3D Hand Pose Estimation
Leveraging mmWave Signals* (ICDCS 2024).

The library spans the whole system: an FMCW mmWave radar simulator
(replacing the TI IWR1443 hardware), the signal pre-processing chain, a
from-scratch numpy deep-learning framework, the mmSpaceNet + LSTM joint
regressor with the combined 3-D/kinematic loss, a MANO-style parametric
hand mesh model, dataset generation mirroring the paper's 10-volunteer
campaign, and the evaluation harness regenerating every table and figure.

Quickstart
----------
>>> from repro import MmHand, CampaignGenerator, Trainer
>>> gen = CampaignGenerator()
>>> dataset = gen.generate(segments_per_user=20)  # doctest: +SKIP
>>> system = MmHand()
>>> Trainer(system.regressor).fit(dataset)        # doctest: +SKIP

See ``examples/quickstart.py`` for the complete walk-through.
"""

import importlib
from typing import Any, List

__version__ = "1.0.0"

# Public name -> the module that defines it. Names resolve on first
# access (PEP 562), so ``import repro.nn`` loads the nn stack without
# the radar simulator, the DSP chain and everything else listed here.
_EXPORTS = {
    "CampaignConfig": "repro.config",
    "DspConfig": "repro.config",
    "ModelConfig": "repro.config",
    "RadarConfig": "repro.config",
    "SystemConfig": "repro.config",
    "TrainConfig": "repro.config",
    "ReproError": "repro.errors",
    "HandPose": "repro.hand",
    "HandShape": "repro.hand",
    "Subject": "repro.hand",
    "forward_kinematics": "repro.hand",
    "gesture_pose": "repro.hand",
    "list_gestures": "repro.hand",
    "make_subjects": "repro.hand",
    "ManoHandModel": "repro.mano",
    "pose_to_theta": "repro.mano",
    "RadarSimulator": "repro.radar",
    "Scene": "repro.radar",
    "CubeBuilder": "repro.dsp",
    "RadarCube": "repro.dsp",
    "HandJointRegressor": "repro.core",
    "MeshReconstructor": "repro.core",
    "MmHand": "repro.core",
    "Trainer": "repro.core",
    "kfold_by_user": "repro.core",
    "CampaignGenerator": "repro.data",
    "CaptureOptions": "repro.data",
    "HandPoseDataset": "repro.data",
    "metrics": "repro.eval",
    "StreamingEstimator": "repro.core.streaming",
    "InferenceServer": "repro.serving",
    "ServingConfig": "repro.serving",
    "GestureClassifier": "repro.apps",
    "GestureCommandMapper": "repro.apps",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
