"""Model weight and compiled-plan (de)serialization.

Two artifact families live here:

* :func:`save_state` / :func:`load_state` -- a module's parameters and
  buffers as a flat ``.npz`` archive (training checkpoints, weights);
* :func:`save_plan` / :func:`load_plan` / :func:`verify_plan` -- a
  *recorded forward plan* as a versioned two-file artifact:
  ``<prefix>.json`` holds the layout (recorded op list, input shape,
  register count, the static memory plans so far, embedded configs,
  content hashes) and ``<prefix>.npz`` holds the folded weight arrays
  namespaced ``op<id>.<name>``. Loading rebuilds a detached
  :class:`~repro.nn.inference.CompiledModel` -- no module tree, no
  recording, no refolding -- which is exactly what gateway workers want
  at spawn. :func:`verify_plan` is the paired standalone parity check:
  it reconstructs the live eager model from the embedded config and
  compares outputs on a seeded batch.

Layout versioning: ``PLAN_LAYOUT_VERSION`` bumps on any breaking change
to the JSON schema, the npz namespacing, or op ``export_state``
contents; loaders reject artifacts from other layout versions rather
than guessing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import SerializationError
from repro.nn.inference import (
    OP_TYPES,
    CompiledModel,
    ForwardPlan,
    MemoryPlan,
)
from repro.nn.layers import Module
from repro.obs import metrics as obs_metrics

PLAN_FORMAT = "mmhand-forward-plan"
PLAN_LAYOUT_VERSION = 4


def save_state(module: Module, path: Union[str, os.PathLike]) -> None:
    """Write ``module``'s parameters and buffers to ``path`` (npz)."""
    state = module.state_dict()
    if not state:
        raise SerializationError("module has no parameters to save")
    directory = os.path.dirname(os.fspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    np.savez(path, **state)


def load_state(module: Module, path: Union[str, os.PathLike]) -> None:
    """Restore parameters and buffers saved by :func:`save_state`."""
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path = path + ".npz"
    if not os.path.exists(path):
        raise SerializationError(f"no saved state at {path}")
    with np.load(path) as archive:
        state = {key: archive[key] for key in archive.files}
    module.load_state_dict(state)


# ----------------------------------------------------------------------
# Compiled-plan artifacts
# ----------------------------------------------------------------------
def _plan_paths(prefix: Union[str, os.PathLike]) -> Tuple[str, str]:
    prefix = os.fspath(prefix)
    for suffix in (".json", ".npz"):
        if prefix.endswith(suffix):
            prefix = prefix[: -len(suffix)]
    return prefix + ".json", prefix + ".npz"


def _config_hash(config: Dict[str, Any]) -> str:
    blob = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _weights_digest(arrays: Dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    return digest.hexdigest()


def regressor_config_meta(regressor, seed: Optional[int] = None,
                          weights_path: Optional[str] = None
                          ) -> Dict[str, Any]:
    """The embedded-config dict for a :class:`HandJointRegressor` plan.

    ``seed`` must reproduce the regressor's weights together with
    ``weights_path`` (if the model was trained, pass the saved state;
    :func:`verify_plan` rebuilds the eager reference from exactly
    these fields).
    """
    return {
        "model_type": type(regressor).__name__,
        "dsp": dataclasses.asdict(regressor.dsp),
        "model": dataclasses.asdict(regressor.model_config),
        "seed": int(seed) if seed is not None else 0,
        "weights_path": (
            os.path.abspath(weights_path) if weights_path else None
        ),
    }


def save_plan(
    compiled: CompiledModel,
    prefix: Union[str, os.PathLike],
    config: Optional[Dict[str, Any]] = None,
) -> Tuple[str, str]:
    """Serialize ``compiled``'s latest recorded plan to ``<prefix>.json``
    + ``<prefix>.npz`` (so the model must have run once).

    Captures the full execution state: the op list (attrs and folded
    float32 weights) and every static memory plan computed so far for
    it (one per batch size). ``config`` (see
    :func:`regressor_config_meta`) is embedded verbatim so
    :func:`verify_plan` and gateway workers can validate compatibility.
    Returns the two paths written.
    """
    compiled._refresh()
    plan = compiled.plan
    if plan is None:
        raise SerializationError("no plan recorded yet: run the model")
    json_path, npz_path = _plan_paths(prefix)
    metas = []
    arrays: Dict[str, np.ndarray] = {}
    for op in plan.ops:
        meta, op_arrays = op.export_state()
        metas.append(meta)
        for name, arr in op_arrays.items():
            arrays[f"op{op.op_id}.{name}"] = arr
    config = config or {}
    meta = {
        "format": PLAN_FORMAT,
        "layout_version": PLAN_LAYOUT_VERSION,
        "input_shape": list(plan.input_shape),
        "dtype": plan.dtype,
        "num_regs": plan.num_regs,
        "out_reg": plan.out_reg,
        "ops": metas,
        "memory_plans": [
            mplan.to_meta()
            for mplan in compiled._memory_plans.values()
            if compiled._plan_for(*mplan.signature) is plan
        ],
        "config": config,
        "config_hash": _config_hash(config),
        "weights_digest": _weights_digest(arrays),
    }
    directory = os.path.dirname(json_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    np.savez(npz_path, **arrays)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return json_path, npz_path


def load_plan(
    prefix: Union[str, os.PathLike],
    with_meta: bool = False,
):
    """Rebuild a detached :class:`CompiledModel` from a plan artifact.

    The restored model has no source module: it never records or
    refolds, executes straight from the serialized folded weights, and
    reuses the artifact's memory plans. Raises
    :class:`~repro.errors.SerializationError` on missing files, wrong
    format/layout version, or a weights-digest mismatch (tampered or
    truncated npz).
    """
    json_path, npz_path = _plan_paths(prefix)
    for path in (json_path, npz_path):
        if not os.path.exists(path):
            raise SerializationError(f"no plan artifact at {path}")
    with open(json_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("format") != PLAN_FORMAT:
        raise SerializationError(
            f"{json_path} is not a {PLAN_FORMAT} artifact"
        )
    if meta.get("layout_version") != PLAN_LAYOUT_VERSION:
        raise SerializationError(
            f"plan layout version {meta.get('layout_version')} is not "
            f"supported (expected {PLAN_LAYOUT_VERSION})"
        )
    with np.load(npz_path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    if _weights_digest(arrays) != meta.get("weights_digest"):
        raise SerializationError(
            f"{npz_path} does not match its recorded weights digest; "
            "the artifact is corrupt or was modified"
        )
    ops = []
    for op_meta in meta["ops"]:
        op_cls = OP_TYPES.get(op_meta["type"])
        if op_cls is None:
            raise SerializationError(
                f"unknown plan op type {op_meta['type']!r}"
            )
        namespace = f"op{op_meta['op_id']}."
        op_arrays = {
            name[len(namespace):]: arr
            for name, arr in arrays.items()
            if name.startswith(namespace)
        }
        ops.append(op_cls.restore(op_meta, op_arrays))
    plan = ForwardPlan(
        ops, int(meta["num_regs"]), int(meta["out_reg"]),
        tuple(meta["input_shape"]), meta["dtype"],
    )
    compiled = CompiledModel(None, plan)
    for mplan_meta in meta.get("memory_plans", []):
        compiled.seed_memory_plan(MemoryPlan.from_meta(mplan_meta))
    obs_metrics.counter("model.plan.artifact_loads").increment()
    if with_meta:
        return compiled, meta
    return compiled


def attach_plan(module: Module, compiled: CompiledModel) -> None:
    """Install ``compiled`` as ``module``'s cached inference plan.

    ``module.compiled()`` then returns the artifact-backed plan without
    ever recording or folding -- the gateway-worker fast path.
    """
    object.__setattr__(module, "_compiled_plan", compiled)
    object.__setattr__(module, "_compile_failed", False)


def plan_matches_config(meta: Dict[str, Any], dsp, model) -> bool:
    """Whether an artifact's embedded configs equal the live ones.

    Both sides are normalised through JSON so tuple-valued config
    fields compare equal to the lists they deserialise back as.
    """

    def _jsonable(value: Any) -> Any:
        return json.loads(json.dumps(value, default=str))

    config = meta.get("config", {})
    return (
        _jsonable(config.get("dsp")) == _jsonable(dataclasses.asdict(dsp))
        and _jsonable(config.get("model"))
        == _jsonable(dataclasses.asdict(model))
    )


def verify_plan(
    prefix: Union[str, os.PathLike],
    batch: int = 4,
    tolerance: float = 1e-5,
) -> Dict[str, Any]:
    """Standalone parity check: artifact vs the live eager model.

    Reconstructs the eager :class:`HandJointRegressor` from the
    artifact's embedded config (``dsp`` / ``model`` / ``seed`` /
    ``weights_path``), runs both it and the restored plan on a seeded
    batch, and reports divergence. ``report["passed"]`` is the verdict;
    the CLI maps it to the exit code.
    """
    from repro.config import DspConfig, ModelConfig
    from repro.core.regressor import HandJointRegressor

    compiled, meta = load_plan(prefix, with_meta=True)
    config = meta.get("config", {})
    if not config.get("dsp") or not config.get("model"):
        raise SerializationError(
            "plan artifact has no embedded config; re-export it with "
            "config metadata to verify"
        )
    dsp = DspConfig(**config["dsp"])
    model = ModelConfig(**config["model"])
    regressor = HandJointRegressor(dsp, model, seed=config.get("seed", 0))
    weights_path = config.get("weights_path")
    if weights_path:
        load_state(regressor, weights_path)
    regressor.eval()
    rng = np.random.default_rng(config.get("seed", 0))
    segments = rng.normal(
        size=(
            batch, dsp.segment_frames, dsp.doppler_bins,
            dsp.range_bins, dsp.angle_bins_total,
        )
    ).astype(np.float32)
    eager = regressor.predict(segments, use_compiled=False)
    attach_plan(regressor, compiled)
    loaded = regressor.predict(segments, use_compiled=True)
    max_abs_diff = float(np.max(np.abs(loaded - eager)))
    ok = max_abs_diff <= tolerance
    return {
        "artifact": os.fspath(prefix),
        "batch": batch,
        "ops": len(compiled.plan.ops),
        "config_hash": meta.get("config_hash"),
        "memory_plans": len(meta.get("memory_plans", [])),
        "max_abs_diff": max_abs_diff,
        "tolerance": tolerance,
        "float32_ok": ok,
        "passed": ok,
    }
