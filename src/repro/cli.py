"""Command-line interface for the mmHand reproduction.

Subcommands cover the common workflows end to end:

* ``mmhand generate-data`` -- simulate a capture campaign to an ``.npz``;
* ``mmhand train`` -- train the joint regressor on a dataset ``.npz``
  or on a sharded campaign directory (``--train-workers W`` runs
  data-parallel training, bit-identical to the sequential reference);
* ``mmhand campaign generate|train|bench`` -- the campaign-scale data
  engine: sharded parallel generation with per-shard seeding and an
  atomic manifest, streaming prefetch training from those shards, and
  the benchmark behind ``BENCH_training.json``;
* ``mmhand evaluate`` -- MPJPE / PCK / AUC of a trained model on a dataset;
* ``mmhand demo`` -- run the full pipeline on a fresh simulated gesture
  sequence and print ASCII skeletons + recognised gestures;
* ``mmhand serve --listen HOST:PORT`` -- serve radar clients over TCP
  (the :mod:`repro.netfront` wire protocol) through the multi-process
  gateway (``--workers N``) until SIGTERM/SIGINT drains it; clients
  stream raw IF frames or cubes with
  :class:`~repro.netfront.NetFrontClient`;
* ``mmhand gateway-bench`` -- sweep the gateway across worker counts
  with the open-loop load generator and write ``BENCH_serving.json``;
* ``mmhand bench`` -- benchmark the DSP hot path against its reference
  implementations and write a ``BENCH_pipeline.json`` summary;
* ``mmhand export-mesh`` -- reconstruct a mesh from a gesture and write
  OBJ/SVG files;
* ``mmhand plan export|verify`` -- write / check a portable
  compiled-plan artifact (folded weights, static memory plans) that
  servers and gateway workers load instead of recording the network;
* ``mmhand gateway-trace`` -- smoke-run the gateway with distributed
  tracing on and export ONE merged Chrome trace whose worker-side
  spans are parented, across the process boundary, to their
  dispatcher-side submit spans;
* ``mmhand bench-compare FRESH COMMITTED`` -- regression guard that
  compares a fresh benchmark JSON against the committed baseline on
  machine-portable ratio/invariant checks.

``serve``, ``train`` and ``bench`` additionally accept ``--trace-out``
(a Chrome trace-event JSON of the run; ``serve`` writes the pool-merged
trace, the others print a span summary), ``--metrics-json`` (metrics
registry snapshot; the gateway's for ``serve``) and ``--profile-out``
(a folded-stack sampling profile; ``serve`` merges every worker's
samples under per-process lanes). Every command is deterministic given
``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _add_obs_flags(p) -> None:
    """Shared observability flags for the long-running subcommands."""
    p.add_argument(
        "--trace-out", dest="trace_out", default=None, metavar="PATH",
        help="write a Chrome trace-event JSON of this run "
             "(open in chrome://tracing or ui.perfetto.dev)",
    )
    p.add_argument(
        "--metrics-json", dest="metrics_json", default=None,
        metavar="PATH",
        help="write a metrics-registry snapshot JSON of this run",
    )
    p.add_argument(
        "--profile-out", dest="profile_out", default=None,
        metavar="PATH",
        help="sample this run's call stacks and write a folded-stack "
             "profile (flamegraph.pl / speedscope input); gateway runs "
             "merge worker-process samples into per-lane stacks",
    )
    p.add_argument(
        "--profile-hz", dest="profile_hz", type=float, default=None,
        metavar="HZ",
        help="sampling rate for --profile-out (default 97 Hz)",
    )


def _export_observability(args, registry=None) -> None:
    """Honour ``--trace-out`` / ``--metrics-json`` at command exit."""
    import json

    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    if getattr(args, "trace_out", None):
        summary = obs_trace.summary()
        if summary:
            print("--- span summary ---")
            width = max(len(name) for name in summary)
            for name in sorted(summary):
                row = summary[name]
                line = (
                    f"{name:<{width}s} x{row['count']:<6.0f} "
                    f"total {row['total_s'] * 1e3:9.2f} ms  "
                    f"mean {row['mean_s'] * 1e3:8.3f} ms  "
                    f"max {row['max_s'] * 1e3:8.3f} ms"
                )
                if row["errors"]:
                    line += f"  errors {row['errors']:.0f}"
                print(line)
        path = obs_trace.export_chrome(args.trace_out)
        print(f"trace -> {path}")
    if getattr(args, "metrics_json", None):
        target = (
            registry if registry is not None
            else obs_metrics.get_registry()
        )
        with open(args.metrics_json, "w") as fh:
            json.dump(target.snapshot(), fh, indent=2, default=float)
        print(f"metrics -> {args.metrics_json}")


def _write_profile(path, profile, overhead=None) -> None:
    """Write a profile dict as folded stacks and print a summary."""
    from repro.obs.profiler import folded_from_dict

    folded = folded_from_dict(profile)
    with open(path, "w") as fh:
        fh.write(folded + ("\n" if folded else ""))
    line = f"profile -> {path} ({profile.get('samples', 0)} samples"
    if overhead is not None:
        line += f", overhead {overhead:.2%}"
    print(line + ")")


def _add_generate(subparsers) -> None:
    p = subparsers.add_parser(
        "generate-data", help="simulate a capture campaign to an .npz"
    )
    p.add_argument("output", help="output dataset path (.npz)")
    p.add_argument("--users", type=int, default=2)
    p.add_argument("--segments-per-user", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--environment", default=None,
                   help="fix one environment instead of rotating")
    p.add_argument("--glove", default=None, choices=["silk", "cotton"])
    p.add_argument("--distance", type=float, default=None,
                   help="fixed hand distance in metres")


def _cmd_generate(args) -> int:
    from repro.config import CampaignConfig
    from repro.data.collection import CampaignGenerator, CaptureOptions
    from repro.hand.subjects import make_subjects

    generator = CampaignGenerator(
        campaign=CampaignConfig(
            num_users=args.users,
            segments_per_user=args.segments_per_user,
        )
    )
    options = CaptureOptions(
        environment=args.environment or "classroom",
        glove=args.glove,
        distance_m=args.distance,
    )
    dataset = generator.generate(
        subjects=make_subjects(args.users),
        options=options,
        seed=args.seed,
        rotate_environments=args.environment is None,
    )
    dataset.save(args.output)
    print(f"wrote {len(dataset)} segments to {args.output}")
    return 0


def _add_worker_flags(p) -> None:
    """Shared data/compute parallelism flags for training commands."""
    p.add_argument(
        "--data-workers", dest="data_workers", type=int, default=1,
        help="shard prefetch depth when training from a campaign "
             "directory: how many shards the background loader keeps "
             "buffered ahead of the consumer (default 1 = double "
             "buffering)",
    )
    p.add_argument(
        "--train-workers", dest="train_workers", type=int, default=1,
        help="data-parallel world size W: every optimizer step "
             "averages the gradients of W micro-batches; W > 1 forks "
             "one worker process per rank (shared-memory allreduce, "
             "bit-identical to W sequential micro-batches)",
    )


def _add_train(subparsers) -> None:
    p = subparsers.add_parser(
        "train", help="train the joint regressor on a dataset .npz or "
                      "a sharded campaign directory"
    )
    p.add_argument("dataset", help="dataset .npz from generate-data, "
                                   "or a campaign directory from "
                                   "'campaign generate'")
    p.add_argument("weights", help="output weights path (.npz)")
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--gamma-kinematic", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--holdout-user", type=int, default=None,
                   help="exclude one user from training for evaluation "
                        "(.npz datasets only)")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="write an atomic crash-safe checkpoint every "
                        "--checkpoint-every epochs")
    p.add_argument("--checkpoint-every", type=int, default=1)
    p.add_argument("--resume-from", default=None, metavar="PATH",
                   help="resume from a checkpoint (or 'auto' to pick "
                        "the newest one in --checkpoint-dir)")
    _add_worker_flags(p)
    _add_obs_flags(p)


def _resolve_resume(args) -> "tuple":
    """Handle ``--resume-from auto``; returns (ok, resume_path)."""
    from repro.resilience import latest_checkpoint

    resume_from = args.resume_from
    if resume_from == "auto":
        if args.checkpoint_dir is None:
            print(
                "--resume-from auto requires --checkpoint-dir",
                file=sys.stderr,
            )
            return False, None
        resume_from = latest_checkpoint(args.checkpoint_dir)
        if resume_from is None:
            print(f"no checkpoint found in {args.checkpoint_dir}; "
                  "starting fresh")
        else:
            print(f"resuming from {resume_from}")
    return True, resume_from


def _emit_train_report(
    result, segment_frames: int, train_workers: int, data_workers: int,
    prefetch_wait_s: float,
) -> None:
    """One structured (logfmt) training report line, mirroring the
    serve report: throughput, per-epoch wall clock, prefetch stall."""
    from repro.obs.logging import get_logger

    stats = result.epoch_stats
    epoch_s = (
        float(np.mean([s["elapsed_s"] for s in stats])) if stats else 0.0
    )
    segments_per_s = (
        float(np.mean([s["segments_per_s"] for s in stats]))
        if stats else 0.0
    )
    get_logger("train").info(
        "train_report",
        epochs=result.epochs,
        final_loss=result.final_loss if result.total_loss else 0.0,
        epoch_s=epoch_s,
        segments_per_s=segments_per_s,
        frames_per_s=segments_per_s * segment_frames,
        prefetch_wait_s=prefetch_wait_s,
        train_workers=train_workers,
        data_workers=data_workers,
    )


def _train_campaign(args) -> int:
    """Train from a sharded campaign directory (data-parallel path).

    Shared by ``mmhand train <campaign-dir>`` and ``mmhand campaign
    train``; optional attributes missing from one parser fall back to
    defaults.
    """
    from repro.campaign import DataParallelConfig, ShardedDataset
    from repro.config import ModelConfig, TrainConfig
    from repro.core.regressor import HandJointRegressor
    from repro.core.training import Trainer
    from repro.nn.serialization import save_state
    from repro.obs import metrics as obs_metrics
    from repro.obs.logging import configure

    configure(stream=sys.stdout)
    ok, resume_from = _resolve_resume(args)
    if not ok:
        return 1
    if getattr(args, "holdout_user", None) is not None:
        print("--holdout-user applies to .npz datasets only",
              file=sys.stderr)
        return 1
    data_workers = max(1, args.data_workers)
    train_workers = max(1, args.train_workers)
    dataset = ShardedDataset(args.dataset, prefetch_depth=data_workers)
    dsp = dataset.dsp_config()
    if getattr(args, "small", False):
        model = ModelConfig(
            base_channels=4, hourglass_depth=1, num_blocks=1,
            feature_dim=16, lstm_hidden=16,
        )
    else:
        model = ModelConfig()
    regressor = HandJointRegressor(dsp=dsp, model=model, seed=args.seed)
    trainer = Trainer(
        regressor,
        TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            learning_rate=args.learning_rate,
            gamma_kinematic=getattr(args, "gamma_kinematic", 0.1),
            seed=args.seed,
        ),
    )
    wait_before = obs_metrics.histogram("campaign.prefetch.wait_s").sum
    result = trainer.fit_data_parallel(
        dataset,
        DataParallelConfig(
            world_size=train_workers,
            processes=train_workers if train_workers > 1 else 1,
        ),
        verbose=True,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume_from=resume_from,
    )
    prefetch_wait_s = (
        obs_metrics.histogram("campaign.prefetch.wait_s").sum
        - wait_before
    )
    save_state(regressor, args.weights)
    _emit_train_report(
        result, dsp.segment_frames, train_workers, data_workers,
        prefetch_wait_s,
    )
    print(
        f"trained {result.epochs} epochs "
        f"(W={train_workers}) in {result.elapsed_s:.0f}s, "
        f"final loss {result.final_loss:.4f}; weights -> {args.weights}"
    )
    _export_observability(args)
    return 0


def _cmd_train(args) -> int:
    import os

    from repro.config import TrainConfig
    from repro.core.regressor import HandJointRegressor
    from repro.core.training import Trainer
    from repro.data.dataset import HandPoseDataset
    from repro.nn.serialization import save_state
    from repro.obs.logging import configure

    if os.path.isdir(args.dataset):
        return _train_campaign(args)

    configure(stream=sys.stdout)
    dataset = HandPoseDataset.load(args.dataset)
    if args.holdout_user is not None:
        keep = np.nonzero(dataset.user_ids != args.holdout_user)[0]
        dataset = dataset.subset(keep)
    ok, resume_from = _resolve_resume(args)
    if not ok:
        return 1
    regressor = HandJointRegressor(seed=args.seed)
    trainer = Trainer(
        regressor,
        TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            learning_rate=args.learning_rate,
            gamma_kinematic=args.gamma_kinematic,
            seed=args.seed,
        ),
    )
    train_workers = max(1, args.train_workers)
    if train_workers > 1:
        from repro.campaign import DataParallelConfig

        result = trainer.fit_data_parallel(
            dataset,
            DataParallelConfig(
                world_size=train_workers, processes=train_workers
            ),
            verbose=True,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume_from=resume_from,
        )
    else:
        result = trainer.fit(
            dataset, verbose=True,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume_from=resume_from,
        )
    save_state(regressor, args.weights)
    segment_frames = int(dataset.segments.shape[1])
    _emit_train_report(
        result, segment_frames, train_workers, args.data_workers, 0.0
    )
    print(
        f"trained {result.epochs} epochs in {result.elapsed_s:.0f}s, "
        f"final loss {result.final_loss:.4f}; weights -> {args.weights}"
    )
    _export_observability(args)
    return 0


def _add_evaluate(subparsers) -> None:
    p = subparsers.add_parser(
        "evaluate", help="evaluate trained weights on a dataset"
    )
    p.add_argument("dataset")
    p.add_argument("weights")
    p.add_argument("--user", type=int, default=None,
                   help="restrict to one user's segments")


def _cmd_evaluate(args) -> int:
    from repro.core.regressor import HandJointRegressor
    from repro.data.dataset import HandPoseDataset
    from repro.eval.metrics import group_metrics
    from repro.nn.serialization import load_state

    dataset = HandPoseDataset.load(args.dataset)
    if args.user is not None:
        dataset = dataset.for_user(args.user)
        if len(dataset) == 0:
            print(f"no segments for user {args.user}", file=sys.stderr)
            return 1
    regressor = HandJointRegressor()
    load_state(regressor, args.weights)
    regressor.eval()
    predictions = regressor.predict(dataset.segments)
    for name, metrics in group_metrics(predictions, dataset.labels).items():
        print(
            f"{name:8s} MPJPE {metrics.mpjpe_mm:6.1f} mm | "
            f"3D-PCK@40mm {metrics.pck_percent:5.1f} % | "
            f"AUC {metrics.auc:.3f}"
        )
    return 0


def _add_demo(subparsers) -> None:
    p = subparsers.add_parser(
        "demo",
        help="full pipeline on a simulated gesture sequence "
             "(requires trained weights)",
    )
    p.add_argument("weights")
    p.add_argument("--gestures", nargs="+",
                   default=["fist", "point", "open_palm"])
    p.add_argument("--seed", type=int, default=0)


def _cmd_demo(args) -> int:
    from repro.apps.ui_control import GestureCommandMapper
    from repro.config import SystemConfig
    from repro.core.pipeline import MmHand
    from repro.core.regressor import HandJointRegressor
    from repro.hand.animation import GestureSequence, Keyframe
    from repro.hand.subjects import make_subjects
    from repro.nn.serialization import load_state
    from repro.radar.radar import RadarSimulator
    from repro.radar.scatterers import hand_scatterers
    from repro.radar.scene import Scene
    from repro.viz.ascii_render import ascii_skeleton

    config = SystemConfig()
    regressor = HandJointRegressor()
    load_state(regressor, args.weights)
    regressor.eval()
    system = MmHand(config, regressor)

    keyframes = [
        Keyframe(0.8 * i, name) for i, name in enumerate(args.gestures)
    ]
    sequence = GestureSequence(
        keyframes, base_position=np.array([0.3, 0.0, 0.0]),
        seed=args.seed,
    )
    st = config.dsp.segment_frames
    frames_per_gesture = st
    hold = 0.8 / frames_per_gesture
    poses = sequence.sample(hold, len(args.gestures) * frames_per_gesture)
    shape = make_subjects(1)[0].hand_shape()
    sim = RadarSimulator(config.radar, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    raw = []
    for i, pose in enumerate(poses):
        prev = poses[i - 1] if i else None
        raw.append(
            sim.frame(
                Scene(
                    hand=hand_scatterers(
                        shape, pose, prev_pose=prev,
                        frame_period_s=hold, rng=rng,
                    )
                )
            )
        )
    segments = system.preprocess(np.stack(raw))
    skeletons, _ = system.estimate_skeletons(segments)

    mapper = GestureCommandMapper(hold_frames=1)
    for i, skeleton in enumerate(skeletons):
        print(f"\n--- segment {i} (true gesture: {args.gestures[i]}) ---")
        print(ascii_skeleton(skeleton))
        label, confidence = mapper.classifier.classify(skeleton)
        print(f"recognised: {label} (confidence {confidence:.2f})")
    return 0


def _add_serve(subparsers) -> None:
    p = subparsers.add_parser(
        "serve",
        help="serve radar clients over TCP (the netfront wire protocol) "
             "through the multi-process gateway until SIGTERM/SIGINT",
    )
    p.add_argument(
        "--listen", required=True, metavar="HOST:PORT",
        help="serve the netfront wire protocol on this address "
             "(port 0 picks an ephemeral port); runs until "
             "SIGTERM/SIGINT, then drains gracefully",
    )
    p.add_argument("--workers", type=int, default=1,
                   help="gateway worker processes, each fed through "
                        "zero-copy shared-memory rings (default: 1)")
    p.add_argument("--weights", default=None,
                   help="trained weights .npz (random weights if omitted)")
    p.add_argument("--batch-size", type=int, default=8,
                   help="micro-batch size limit")
    p.add_argument("--queue-capacity", type=int, default=64)
    p.add_argument("--no-cache", action="store_true",
                   help="disable the content-hash result cache")
    p.add_argument("--hop", type=int, default=1,
                   help="frames between emissions per session")
    p.add_argument("--plan", dest="plan_path", default=None,
                   metavar="PREFIX",
                   help="load a pre-compiled plan artifact "
                        "(mmhand plan export) instead of tracing the "
                        "network at startup")
    net = p.add_argument_group("network", "front-door auth and limits")
    net.add_argument(
        "--auth-token-file", default=None, metavar="PATH",
        help="file holding the shared auth token clients must present "
             "in HELLO (default: auth disabled)",
    )
    net.add_argument(
        "--max-connections", type=int, default=64,
        help="admission gate: concurrent TCP connections (default: 64)",
    )
    net.add_argument(
        "--max-sessions", type=int, default=256,
        help="admission gate: concurrent sessions (default: 256)",
    )
    net.add_argument(
        "--idle-timeout", type=float, default=30.0, metavar="S",
        help="reap connections silent in both directions for this "
             "long (default: 30 s)",
    )
    p.add_argument("--json", dest="json_path", default=None,
                   help="write the drain report and the merged gateway "
                        "stats to this path")
    p.add_argument("--seed", type=int, default=0)
    chaos = p.add_argument_group(
        "chaos", "deterministic fault injection for resilience drills"
    )
    chaos.add_argument("--chaos", action="store_true",
                       help="enable each worker's fault injector on the "
                            "ingest and forward paths")
    chaos.add_argument("--chaos-frame-rate", type=float, default=0.1,
                       help="fraction of ingested frames corrupted "
                            "(NaN/Inf/wrong shape/dropped)")
    chaos.add_argument("--chaos-forward-rate", type=float, default=0.05,
                       help="fraction of forward passes that raise an "
                            "injected fault")
    chaos.add_argument("--chaos-compile-fail", action="store_true",
                       help="force every compiled-plan attempt to fail "
                            "(trips the breaker to the eager path)")
    chaos.add_argument("--chaos-seed", type=int, default=0,
                       help="fault injector RNG seed")
    chaos.add_argument("--dead-letter-log", default=None, metavar="PATH",
                       help="write the pool's dead letters (quarantined "
                            "frames and unanswered requests) as JSONL")
    _add_obs_flags(p)


def _cmd_serve(args) -> int:
    """``mmhand serve --listen HOST:PORT``: real TCP serving.

    Stands up the multi-process gateway (``--workers``) behind the
    :mod:`repro.netfront` asyncio server and runs until SIGTERM/SIGINT
    triggers the graceful drain: stop accepting, flush in-flight
    frames, send every client a goodbye frame with the final
    accounting, exit 0 only if every submitted frame was answered or
    dead-lettered.
    """
    import asyncio
    import json
    import signal

    from repro.config import DspConfig, ModelConfig, RadarConfig
    from repro.gateway import Gateway, GatewayConfig
    from repro.netfront import NetFrontConfig, serve_until_signal
    from repro.obs.logging import configure, get_logger
    from repro.obs.profiler import DEFAULT_HZ
    from repro.serving import ServingConfig

    configure(stream=sys.stdout)
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 1
    host, _, port_text = args.listen.rpartition(":")
    if not host or not port_text:
        print(
            f"--listen wants HOST:PORT, got {args.listen!r}",
            file=sys.stderr,
        )
        return 1
    try:
        port = int(port_text)
    except ValueError:
        print(f"--listen port {port_text!r} is not an integer",
              file=sys.stderr)
        return 1
    auth_token = None
    if args.auth_token_file is not None:
        try:
            with open(args.auth_token_file) as fh:
                auth_token = fh.read().strip()
        except OSError as error:
            print(f"--auth-token-file: {error}", file=sys.stderr)
            return 1
        if not auth_token:
            print(
                f"--auth-token-file {args.auth_token_file} is empty",
                file=sys.stderr,
            )
            return 1

    # Trace/profile exports are pool-wide merges here, not the single-
    # process exports main() and _export_observability write: claim
    # the paths up front so those skip them.
    trace_out, args.trace_out = args.trace_out, None
    profile_out, args.profile_out = args.profile_out, None
    config = GatewayConfig(
        workers=args.workers,
        profile_hz=(args.profile_hz or DEFAULT_HZ) if profile_out else 0.0,
        serving=ServingConfig(
            max_batch_size=args.batch_size,
            queue_capacity=args.queue_capacity,
            enable_cache=not args.no_cache,
            hop_frames=args.hop,
        ),
        seed=args.seed,
        weights_path=args.weights,
        plan_path=args.plan_path,
        chaos_frame_rate=args.chaos_frame_rate if args.chaos else 0.0,
        chaos_forward_rate=args.chaos_forward_rate if args.chaos else 0.0,
        chaos_compile_fail=args.chaos and args.chaos_compile_fail,
        chaos_seed=args.chaos_seed,
    )
    net_config = NetFrontConfig(
        host=host,
        port=port,
        auth_token=auth_token,
        max_connections=args.max_connections,
        max_sessions=args.max_sessions,
        idle_timeout_s=args.idle_timeout,
    )
    gateway = Gateway(RadarConfig(), DspConfig(), ModelConfig(), config)
    ignored_signals: list = []
    stop_signals = (signal.SIGTERM, signal.SIGINT)

    async def serve() -> dict:
        report = await serve_until_signal(gateway, net_config)
        # The drain is over, but the workers still have to be joined
        # and their rings unlinked: from here on SIGTERM/SIGINT are
        # noted and otherwise ignored. Taking them over inside the loop
        # leaves no moment with the default action, which would kill
        # the process and leak the rings.
        loop = asyncio.get_running_loop()
        for signum in stop_signals:
            loop.remove_signal_handler(signum)
            signal.signal(
                signum,
                lambda s, _frame: ignored_signals.append(
                    signal.Signals(s).name
                ),
            )
        return report

    try:
        report = asyncio.run(serve())
        if args.json_path or args.metrics_json:
            # Pulls every live worker's counters into the registry.
            report["gateway"] = gateway.stats()
            _export_observability(args, registry=gateway.metrics)
    finally:
        # The workers' goodbyes deliver their last spans, profiles and
        # dead letters.
        gateway.shutdown()
    get_logger("serve").info("netfront_exit", **{
        k: v for k, v in report.items()
        if not isinstance(v, (dict, list))
    })
    if args.dead_letter_log:
        count = gateway.export_dead_letters(args.dead_letter_log)
        print(f"dead letters ({count}) -> {args.dead_letter_log}")
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(report, fh, indent=2, default=float)
        print(f"stats -> {args.json_path}")
    if trace_out:
        # ONE merged Chrome trace: dispatcher + every worker process in
        # its own lane, worker forwards parented to dispatcher submits.
        path = gateway.export_chrome(trace_out)
        spans = len(gateway.trace_records())
        print(f"trace -> {path} ({spans} spans, merged across pool)")
    if profile_out:
        profiler = getattr(args, "profiler", None)
        extra = (
            {"dispatcher": profiler.to_dict()}
            if profiler is not None else None
        )
        _write_profile(profile_out, gateway.merged_profile(extra=extra))
    # Interpreter exit resets a Python-level handler to the default
    # action, so ignore outright: a late signal must not turn this
    # exit code into -15.
    for signum in stop_signals:
        signal.signal(signum, signal.SIG_IGN)
    if ignored_signals:
        get_logger("serve").warning(
            "signals_ignored_during_shutdown",
            signals=",".join(ignored_signals),
        )
    return 0 if report.get("lost_clean_frames", 1) == 0 else 1


def _add_gateway_bench(subparsers) -> None:
    p = subparsers.add_parser(
        "gateway-bench",
        help="drive the open-loop load generator against the gateway "
             "at several worker counts and write a BENCH_serving.json "
             "scaling summary",
    )
    p.add_argument("--smoke", action="store_true",
                   help="short CI run (2 workers, small population); "
                        "exit code gates on zero lost clean frames")
    p.add_argument("--workers", default=None, metavar="N[,N...]",
                   help="comma-separated worker counts to sweep "
                        "(default: 1,2,4; smoke default: 2)")
    p.add_argument("--sessions", type=int, default=None,
                   help="simulated client sessions per run")
    p.add_argument("--frames", type=int, default=None,
                   help="frames fed per session")
    p.add_argument("--json", dest="json_path",
                   default="BENCH_serving.json",
                   help="summary output path (default: BENCH_serving.json)")
    p.add_argument("--seed", type=int, default=0)


def _cmd_gateway_bench(args) -> int:
    from repro.gateway.loadgen import (
        print_gateway_report,
        run_gateway_bench,
    )
    from repro.perf import write_bench_json

    if args.workers is not None:
        try:
            worker_counts = tuple(
                int(part) for part in args.workers.split(",") if part
            )
        except ValueError:
            print(f"bad --workers list {args.workers!r}", file=sys.stderr)
            return 1
        if not worker_counts or min(worker_counts) < 1:
            print("--workers needs positive counts", file=sys.stderr)
            return 1
    elif args.smoke:
        worker_counts = (2,)
    else:
        worker_counts = (1, 2, 4)

    summary = run_gateway_bench(
        worker_counts=worker_counts,
        smoke=args.smoke,
        seed=args.seed,
        sessions=args.sessions,
        frames_per_session=args.frames,
    )
    print_gateway_report(summary)
    write_bench_json(args.json_path, summary)
    print(f"summary -> {args.json_path}")
    lost = summary["lost_clean_frames"]
    if lost:
        print(
            f"{lost} clean frames were neither answered nor "
            "dead-lettered",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_bench(subparsers) -> None:
    p = subparsers.add_parser(
        "bench",
        help="benchmark the DSP hot path (cube build, simulator, CFAR) "
             "and the compiled model forward; writes BENCH_pipeline.json "
             "and BENCH_model.json regression summaries",
    )
    p.add_argument("--smoke", action="store_true",
                   help="tiny workload for CI regression checks")
    p.add_argument("--json", dest="json_path",
                   default="BENCH_pipeline.json",
                   help="summary output path (default: BENCH_pipeline.json)")
    p.add_argument("--model-json", dest="model_json_path",
                   default="BENCH_model.json",
                   help="model bench output path (default: BENCH_model.json)")
    p.add_argument("--model-only", action="store_true",
                   help="skip the DSP stages; run only the compiled-vs-"
                        "eager model forward bench")
    p.add_argument("--repeats", type=int, default=3,
                   help="take the best of N timing repeats")
    p.add_argument("--seed", type=int, default=0)
    _add_obs_flags(p)


def _cmd_bench(args) -> int:
    from repro.perf import (
        print_model_report,
        print_pipeline_report,
        run_model_bench,
        run_pipeline_bench,
        write_bench_json,
    )

    if args.repeats < 1:
        print("--repeats must be >= 1", file=sys.stderr)
        return 1
    if not args.model_only:
        summary = run_pipeline_bench(
            smoke=args.smoke, repeats=args.repeats, seed=args.seed
        )
        print_pipeline_report(summary)
        write_bench_json(args.json_path, summary)
        print(f"summary -> {args.json_path}")
    model_summary = run_model_bench(
        smoke=args.smoke, repeats=args.repeats, seed=args.seed
    )
    print_model_report(model_summary)
    write_bench_json(args.model_json_path, model_summary)
    print(f"model summary -> {args.model_json_path}")
    _export_observability(args)
    if not model_summary["within_tolerance"]:
        print(
            "compiled forward diverged from eager beyond "
            f"{model_summary['tolerance']:.0e} "
            f"(max |diff| {model_summary['max_abs_diff']:.2e})",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_export_mesh(subparsers) -> None:
    p = subparsers.add_parser(
        "export-mesh",
        help="reconstruct a gesture's MANO mesh and write OBJ/SVG",
    )
    p.add_argument("gesture")
    p.add_argument("output_prefix",
                   help="writes <prefix>.obj and <prefix>.svg")
    p.add_argument("--fit-steps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)


def _cmd_export_mesh(args) -> int:
    from repro.core.mesh_recovery import MeshReconstructor
    from repro.hand.gestures import gesture_pose, list_gestures
    from repro.hand.kinematics import forward_kinematics
    from repro.hand.shape import HandShape
    from repro.viz.mesh_io import mesh_summary, save_obj
    from repro.viz.svg import mesh_svg

    if args.gesture not in list_gestures():
        print(
            f"unknown gesture {args.gesture!r}; available: "
            f"{', '.join(list_gestures())}",
            file=sys.stderr,
        )
        return 1
    reconstructor = MeshReconstructor(seed=args.seed)
    reconstructor.fit(steps=args.fit_steps, batch_size=24)
    pose = gesture_pose(args.gesture, wrist_position=np.zeros(3))
    joints = forward_kinematics(HandShape(), pose)
    mesh = reconstructor.reconstruct(joints).mesh
    save_obj(mesh, args.output_prefix + ".obj")
    mesh_svg(mesh.vertices, mesh.faces, path=args.output_prefix + ".svg")
    summary = mesh_summary(mesh)
    print(
        f"wrote {args.output_prefix}.obj / .svg "
        f"({summary['num_vertices']:.0f} vertices, "
        f"{summary['num_faces']:.0f} faces)"
    )
    return 0


def _add_plan(subparsers) -> None:
    p = subparsers.add_parser(
        "plan",
        help="export / verify portable compiled-plan artifacts "
             "(folded weights, memory plans)",
    )
    plan_sub = p.add_subparsers(dest="plan_command", required=True)
    export = plan_sub.add_parser(
        "export",
        help="compile the regressor and write "
             "<prefix>.json + <prefix>.npz",
    )
    export.add_argument(
        "prefix", help="artifact path prefix (writes <prefix>.json "
                       "and <prefix>.npz)"
    )
    export.add_argument(
        "--weights", default=None,
        help="trained weights .npz (random weights if omitted)"
    )
    export.add_argument(
        "--small", action="store_true",
        help="shrunken smoke configuration (matches bench --smoke)"
    )
    export.add_argument(
        "--batch-size", type=int, default=4,
        help="batch size whose static memory plans are precomputed "
             "into the artifact"
    )
    export.add_argument("--seed", type=int, default=0)
    verify = plan_sub.add_parser(
        "verify",
        help="run an exported artifact against the live eager model "
             "on a seeded batch; exit 1 on divergence",
    )
    verify.add_argument("prefix", help="artifact path prefix")
    verify.add_argument("--batch", type=int, default=4)
    verify.add_argument("--tolerance", type=float, default=1e-5)
    verify.add_argument("--json", dest="json_path", default=None,
                        help="write the verification report JSON")


def _cmd_plan(args) -> int:
    if args.plan_command == "export":
        return _cmd_plan_export(args)
    return _cmd_plan_verify(args)


def _cmd_plan_export(args) -> int:
    from repro.errors import InferenceCompileError
    from repro.nn.serialization import regressor_config_meta, save_plan
    from repro.core.regressor import HandJointRegressor
    from repro.perf.model_bench import bench_configs

    if args.batch_size < 1:
        print("--batch-size must be >= 1", file=sys.stderr)
        return 1
    dsp, model = bench_configs(smoke=args.small)
    regressor = HandJointRegressor(dsp, model, seed=args.seed)
    if args.weights is not None:
        from repro.nn.serialization import load_state

        load_state(regressor, args.weights)
    regressor.eval()
    compiled = regressor.compiled()
    # Record the plan, with the static memory plan of the serving batch
    # size that the artifact should carry.
    rng = np.random.default_rng(args.seed)
    warm = regressor.normalize_inputs(
        rng.normal(
            size=(
                args.batch_size, dsp.segment_frames, dsp.doppler_bins,
                dsp.range_bins, dsp.angle_bins_total,
            )
        ).astype(np.float32)
    )
    try:
        compiled.run(warm)
    except InferenceCompileError as error:
        print(f"model failed to compile ({error}); nothing to export",
              file=sys.stderr)
        return 1
    json_path, npz_path = save_plan(
        compiled, args.prefix,
        config=regressor_config_meta(
            regressor, seed=args.seed, weights_path=args.weights
        ),
    )
    stats = compiled.stats()
    print(
        f"plan: {stats['ops']} ops over {stats['params']} params, "
        f"{stats['memory_plans']} memory plans "
        f"(planned {stats['planned_bytes']} B vs arena "
        f"{stats['arena_bytes']} B)"
    )
    print(f"artifact -> {json_path} + {npz_path}")
    return 0


def _cmd_plan_verify(args) -> int:
    import json

    from repro.errors import SerializationError
    from repro.nn.serialization import verify_plan

    try:
        report = verify_plan(
            args.prefix, batch=args.batch, tolerance=args.tolerance
        )
    except SerializationError as error:
        print(f"plan verify failed: {error}", file=sys.stderr)
        return 1
    print(
        f"artifact {report['artifact']}: {report['ops']} ops, "
        f"{report['memory_plans']} memory plans, config hash "
        f"{report['config_hash']}"
    )
    print(
        f"float32: max|plan - eager| {report['max_abs_diff']:.2e} "
        f"(tolerance {report['tolerance']:.0e}, "
        f"ok: {report['float32_ok']})"
    )
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(report, fh, indent=2, default=float)
        print(f"report -> {args.json_path}")
    if not report["passed"]:
        print("plan verification FAILED", file=sys.stderr)
        return 1
    print("plan verification passed")
    return 0


def _add_gateway_trace(subparsers) -> None:
    p = subparsers.add_parser(
        "gateway-trace",
        help="smoke-run the multi-process gateway with distributed "
             "tracing on, export ONE merged Chrome trace with "
             "per-process lanes, and verify the cross-process spans "
             "stitched together",
    )
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--sessions", type=int, default=8,
                   help="simulated client sessions (default: 8)")
    p.add_argument("--frames", type=int, default=6,
                   help="frames per session (default: 6)")
    p.add_argument(
        "--out", default="TRACE_gateway.json", metavar="PATH",
        help="merged Chrome trace path (default: TRACE_gateway.json)",
    )
    p.add_argument(
        "--profile-hz", dest="profile_hz", type=float, default=0.0,
        metavar="HZ",
        help="also sample worker stacks at this rate and print the "
             "merged hot frames (default: off)",
    )
    p.add_argument("--seed", type=int, default=0)


def _cmd_gateway_trace(args) -> int:
    """Acceptance gate for the distributed-tracing path: one run, one
    merged trace, every worker forward span parented to its dispatcher
    submit span through the ring-propagated context."""
    from repro.gateway import Gateway, GatewayConfig
    from repro.gateway.loadgen import (
        LoadgenConfig,
        bench_configs,
        run_loadgen,
    )
    from repro.obs import trace as obs_trace
    from repro.serving import ServingConfig

    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 1
    obs_trace.clear()
    radar, dsp, model = bench_configs()
    config = GatewayConfig(
        workers=args.workers,
        ring_slots=128,
        serving=ServingConfig(
            max_batch_size=16, queue_capacity=64, policy="block"
        ),
        seed=args.seed,
        profile_hz=args.profile_hz,
    )
    with Gateway(radar, dsp, model, config) as gateway:
        summary = run_loadgen(
            gateway,
            LoadgenConfig(
                sessions=args.sessions,
                frames_per_session=args.frames,
                seed=args.seed,
            ),
        )
        gateway.stats()
    # The shutdown byes delivered each worker's remaining spans.
    records = gateway.trace_records()
    path = gateway.export_chrome(args.out)

    submits = {
        (r["fields"]["session"], r["fields"]["frame_id"]): r
        for r in records
        if r["name"] == "gateway.submit"
    }
    forwards = [r for r in records if r["name"] == "worker.forward"]
    orphans = sum(
        1
        for r in forwards
        if (key := (r["fields"]["session"], r["fields"]["frame_id"]))
        not in submits
        or r["parent_id"] != submits[key]["span_id"]
        or r["trace_id"] != submits[key]["trace_id"]
    )
    worker_pids = sorted({r["pid"] for r in forwards})
    stage_counts = {
        stage: int(entry["count"])
        for stage, entry in summary.get("stage_latency_ms", {}).items()
    }
    print(
        f"gateway-trace: {len(records)} spans "
        f"({len(submits)} submits, {len(forwards)} forwards) from "
        f"{1 + len(worker_pids)} processes; stage samples "
        f"{stage_counts}"
    )
    print(f"trace -> {path}")
    if args.profile_hz > 0:
        profile = gateway.merged_profile()
        print(
            f"merged profile: {profile['samples']} samples across "
            f"{len(profile['counts'])} stacks"
        )
        if not profile["samples"]:
            print("gateway-trace: profiler captured no samples",
                  file=sys.stderr)
            return 1

    ok = True
    if not forwards:
        print("gateway-trace: no worker-side forward spans arrived",
              file=sys.stderr)
        ok = False
    if orphans:
        print(
            f"gateway-trace: {orphans} forward spans lost their "
            "dispatcher parent",
            file=sys.stderr,
        )
        ok = False
    if len(worker_pids) < min(args.workers, args.sessions):
        print(
            f"gateway-trace: spans from only {len(worker_pids)} of "
            f"{args.workers} workers",
            file=sys.stderr,
        )
        ok = False
    return 0 if ok else 1


def _add_campaign(subparsers) -> None:
    p = subparsers.add_parser(
        "campaign",
        help="campaign-scale data engine: sharded parallel generation, "
             "streaming data-parallel training, and its benchmark",
    )
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)

    gen = campaign_sub.add_parser(
        "generate",
        help="generate a sharded, domain-randomized campaign directory "
             "(atomic .npz shards + manifest.json)",
    )
    gen.add_argument("output", help="campaign directory to create")
    gen.add_argument("--shards", type=int, default=8)
    gen.add_argument("--segments-per-shard", type=int, default=16)
    gen.add_argument("--workers", type=int, default=1,
                     help="generator processes (shards fan out over a "
                          "process pool; output is byte-identical for "
                          "any worker count)")
    gen.add_argument("--users", type=int, default=4)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--small", action="store_true",
                     help="shrunken smoke configuration (matches "
                          "'campaign bench --smoke')")
    _add_obs_flags(gen)

    train = campaign_sub.add_parser(
        "train",
        help="train from a campaign directory with streaming prefetch "
             "and data-parallel workers",
    )
    train.add_argument("dataset", help="campaign directory from "
                                       "'campaign generate'")
    train.add_argument("weights", help="output weights path (.npz)")
    train.add_argument("--epochs", type=int, default=15)
    train.add_argument("--batch-size", type=int, default=16)
    train.add_argument("--learning-rate", type=float, default=1e-3)
    train.add_argument("--gamma-kinematic", type=float, default=0.1)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--small", action="store_true",
                       help="shrunken model (for campaigns generated "
                            "with --small)")
    train.add_argument("--checkpoint-dir", default=None, metavar="DIR")
    train.add_argument("--checkpoint-every", type=int, default=1)
    train.add_argument("--resume-from", default=None, metavar="PATH",
                       help="resume from a checkpoint (or 'auto' to "
                            "pick the newest in --checkpoint-dir)")
    _add_worker_flags(train)
    _add_obs_flags(train)

    bench = campaign_sub.add_parser(
        "bench",
        help="run the campaign data-engine benchmark (generation "
             "speedup + worker invariance, prefetch overlap, "
             "data-parallel training bit-identity)",
    )
    bench.add_argument("--json", dest="json_path", default=None,
                       help="write the summary JSON "
                            "(e.g. BENCH_training.json)")
    bench.add_argument("--smoke", action="store_true",
                       help="shrunken configuration for CI")
    bench.add_argument("--workers", type=int, default=None,
                       help="parallel generation fan-out "
                            "(default: min(4, cpu_count))")
    bench.add_argument("--seed", type=int, default=11)


def _cmd_campaign(args) -> int:
    if args.campaign_command == "generate":
        return _cmd_campaign_generate(args)
    if args.campaign_command == "train":
        return _train_campaign(args)
    return _cmd_campaign_bench(args)


def _cmd_campaign_generate(args) -> int:
    from repro.campaign import generate_campaign
    from repro.config import CampaignConfig
    from repro.obs.logging import configure
    from repro.perf.training_bench import campaign_bench_configs

    configure(stream=sys.stdout)
    if args.small:
        radar, dsp, _, campaign = campaign_bench_configs(smoke=True)
        campaign = CampaignConfig(
            num_users=args.users,
            segments_per_user=campaign.segments_per_user,
        )
    else:
        radar, dsp, campaign = None, None, CampaignConfig(
            num_users=args.users
        )
    report = generate_campaign(
        args.output, args.shards, args.segments_per_shard,
        radar=radar, dsp=dsp, campaign=campaign,
        seed=args.seed, workers=args.workers, verbose=True,
    )
    print(
        f"wrote {report.num_shards} shards / {report.total_segments} "
        f"segments ({report.total_frames} frames) to {args.output} "
        f"in {report.elapsed_s:.1f}s "
        f"({report.frames_per_s:.1f} frames/s, x{report.workers})"
    )
    _export_observability(args)
    return 0


def _cmd_campaign_bench(args) -> int:
    from repro.perf import (
        print_training_report,
        run_training_bench,
        write_bench_json,
    )

    summary = run_training_bench(
        smoke=args.smoke, seed=args.seed, workers=args.workers
    )
    print_training_report(summary)
    if args.json_path:
        write_bench_json(args.json_path, summary)
        print(f"wrote {args.json_path}")
    if not summary["training"]["losses_bit_identical"]:
        print("campaign bench: data-parallel losses diverged from the "
              "sequential reference", file=sys.stderr)
        return 1
    if not summary["generation"]["worker_invariant"]:
        print("campaign bench: parallel generation produced different "
              "shard bytes than serial", file=sys.stderr)
        return 1
    return 0


def _add_netfront_bench(subparsers) -> None:
    p = subparsers.add_parser(
        "netfront-bench",
        help="loopback benchmark of the TCP front end: connection "
             "setup and frame round-trip latency, robustness counters "
             "as hard invariants, optional protocol-fuzz drill",
    )
    p.add_argument("--smoke", action="store_true",
                   help="small sizes for CI")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--clients", type=int, default=None,
                   help="concurrent clean clients (default: 2 smoke / "
                        "4 full)")
    p.add_argument("--frames", type=int, default=None,
                   help="frames per client (default: 4 smoke / 8 full)")
    p.add_argument(
        "--fuzz-s", type=float, default=0.0, metavar="S",
        help="also run the seeded protocol fuzzer against the server "
             "for S seconds while the clean clients stream (gates on "
             "zero lost clean frames and zero worker restarts)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", dest="json_path", default=None,
                   help="write the summary JSON to this path")
    p.add_argument("--dead-letter-log", default=None, metavar="PATH",
                   help="export quarantined inputs as JSONL")


def _cmd_netfront_bench(args) -> int:
    import json

    from repro.perf import netfront_invariants_ok, run_netfront_bench

    summary = run_netfront_bench(
        smoke=args.smoke,
        seed=args.seed,
        workers=args.workers,
        clients=args.clients,
        frames_per_client=args.frames,
        fuzz_s=args.fuzz_s,
        dead_letter_path=args.dead_letter_log,
    )
    setup = summary["connection_setup"]
    rtt = summary["round_trip"]
    print(
        f"netfront-bench: {summary['clients']} clients, "
        f"{summary['frames_sent']} frames, "
        f"{summary['poses_received']} poses in "
        f"{summary['elapsed_s']:.2f}s"
    )
    print(
        f"  connection setup p50 {setup['p50_ms']:.2f} ms "
        f"p95 {setup['p95_ms']:.2f} ms | round trip "
        f"p50 {rtt['p50_ms']:.2f} ms p95 {rtt['p95_ms']:.2f} ms"
    )
    if "fuzz" in summary:
        fuzz = summary["fuzz"]
        print(
            f"  fuzz drill: {fuzz['fuzzer_connections']} poisoned "
            f"connections quarantined, {fuzz['protocol_errors']} "
            f"protocol errors dead-lettered in {fuzz['duration_s']:.0f}s"
        )
    inv = summary["invariants"]
    print(
        f"  invariants: lost_clean_frames={inv['lost_clean_frames']} "
        f"worker_restarts={inv['worker_restarts']} "
        f"poses_shed={inv['poses_shed']} "
        f"frames_rejected={inv['frames_rejected']}"
    )
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(summary, fh, indent=2, default=float)
        print(f"summary -> {args.json_path}")
    if args.dead_letter_log:
        print(f"dead letters -> {args.dead_letter_log}")
    if not netfront_invariants_ok(summary):
        print("netfront-bench: INVARIANTS FAILED", file=sys.stderr)
        return 1
    return 0


def _add_bench_compare(subparsers) -> None:
    p = subparsers.add_parser(
        "bench-compare",
        help="guard against benchmark regressions: compare a fresh "
             "BENCH_*.json against the committed baseline on portable "
             "ratio and invariant checks",
    )
    p.add_argument("fresh", help="freshly produced benchmark JSON")
    p.add_argument("committed", help="committed baseline JSON")
    p.add_argument(
        "--tolerance", type=float, default=None,
        help="relative slack on ratio checks (default: 0.5)",
    )


def _cmd_bench_compare(args) -> int:
    import json

    from repro.errors import ReproError
    from repro.perf import compare_bench, print_comparison
    from repro.perf.regression import DEFAULT_TOLERANCE

    summaries = []
    for path in (args.fresh, args.committed):
        try:
            with open(path) as fh:
                summaries.append(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"bench-compare: cannot read {path}: {exc}",
                  file=sys.stderr)
            return 1
    tolerance = (
        args.tolerance if args.tolerance is not None
        else DEFAULT_TOLERANCE
    )
    try:
        result = compare_bench(
            summaries[0], summaries[1], tolerance=tolerance
        )
    except ReproError as exc:
        print(f"bench-compare: {exc}", file=sys.stderr)
        return 1
    print_comparison(result)
    return 0 if result["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmhand",
        description="mmHand reproduction command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_generate(subparsers)
    _add_train(subparsers)
    _add_evaluate(subparsers)
    _add_demo(subparsers)
    _add_serve(subparsers)
    _add_gateway_bench(subparsers)
    _add_bench(subparsers)
    _add_export_mesh(subparsers)
    _add_plan(subparsers)
    _add_gateway_trace(subparsers)
    _add_campaign(subparsers)
    _add_bench_compare(subparsers)
    _add_netfront_bench(subparsers)
    return parser


_COMMANDS = {
    "generate-data": _cmd_generate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "demo": _cmd_demo,
    "serve": _cmd_serve,
    "gateway-bench": _cmd_gateway_bench,
    "gateway-trace": _cmd_gateway_trace,
    "bench": _cmd_bench,
    "bench-compare": _cmd_bench_compare,
    "netfront-bench": _cmd_netfront_bench,
    "export-mesh": _cmd_export_mesh,
    "plan": _cmd_plan,
    "campaign": _cmd_campaign,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    profiler = None
    if getattr(args, "profile_out", None):
        from repro.obs.profiler import DEFAULT_HZ, SamplingProfiler

        profiler = SamplingProfiler(
            hz=args.profile_hz or DEFAULT_HZ
        ).start()
        # Commands that merge multi-process samples (the gateway serve
        # path) read this handle and take over the export themselves.
        args.profiler = profiler
    try:
        return _COMMANDS[args.command](args)
    finally:
        if profiler is not None:
            profiler.stop()
            if getattr(args, "profile_out", None):
                print("--- profile ---")
                print(profiler.report(limit=10))
                _write_profile(
                    args.profile_out, profiler.to_dict(),
                    overhead=profiler.overhead_ratio(),
                )


if __name__ == "__main__":
    sys.exit(main())
