"""Exception hierarchy for the mmHand reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Subclasses partition failures by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class KinematicsError(ReproError):
    """Hand kinematics received inconsistent joint/angle data."""


class MeshError(ReproError):
    """The parametric hand mesh model received invalid parameters."""


class RadarError(ReproError):
    """The radar simulator was asked to synthesise an impossible scene."""


class SignalProcessingError(ReproError):
    """A DSP stage received data with an unexpected shape or content."""


class ModelError(ReproError):
    """A neural-network module was misused (shape mismatch, bad state)."""


class GradientError(ModelError):
    """Backpropagation encountered an invalid graph state."""


class InferenceCompileError(ModelError):
    """A module could not be compiled into an inference plan
    (:mod:`repro.nn.inference`). Callers fall back to the eager
    autograd forward under ``no_grad()``."""


class SerializationError(ModelError):
    """Weights could not be saved or restored."""


class DatasetError(ReproError):
    """Dataset construction or splitting failed."""


class EvaluationError(ReproError):
    """An experiment harness was configured inconsistently."""


class FrameShapeError(SignalProcessingError):
    """A streaming/serving entry point received a malformed radar frame.

    Raised instead of a bare :class:`ReproError` so online callers can
    distinguish "this one frame was garbage" (drop it, keep the session)
    from configuration-level failures.
    """


class ObservabilityError(ReproError):
    """The observability subsystem (:mod:`repro.obs`) was misused:
    invalid tracer/log configuration or a malformed exporter target."""


class ResilienceError(ReproError):
    """Base class for failures raised by the resilience layer
    (:mod:`repro.resilience`): retry policies, circuit breakers, fault
    injection and crash-safe checkpoints."""


class RetryExhaustedError(ResilienceError):
    """A :class:`~repro.resilience.RetryPolicy` gave up: every attempt
    failed, or the next backoff sleep would have crossed the deadline.
    The last underlying exception is chained as ``__cause__``."""


class CircuitOpenError(ResilienceError):
    """A call was refused because its
    :class:`~repro.resilience.CircuitBreaker` is open (the protected
    dependency failed repeatedly and has not yet proven recovery)."""


class InjectedFaultError(ResilienceError):
    """A deliberate failure raised by the
    :class:`~repro.resilience.FaultInjector` during chaos testing.
    Production code must treat it exactly like a real transient fault."""


class CheckpointError(ResilienceError):
    """A training checkpoint could not be written, read or validated."""


class ServingError(ReproError):
    """Base class for failures inside the inference service runtime
    (:mod:`repro.serving`): sessions, queueing, batching, caching."""


class QueueFullError(ServingError):
    """The bounded request queue stayed at capacity until a blocking
    ``put`` timed out, or a gateway request ring is full."""


class SessionClosedError(ServingError):
    """A frame was submitted to a session that has already been closed."""


class UnknownSessionError(ServingError):
    """A session id was used that the server never opened (or has
    evicted)."""


class GatewayError(ServingError):
    """Base class for failures inside the multi-process serving tier
    (:mod:`repro.gateway`): shared-memory rings, worker processes and
    the dispatcher."""


class RingLayoutError(GatewayError):
    """A shared-memory ring was created or attached with an impossible
    geometry (slot too small for the payload, session id too long,
    corrupt slot header)."""


class WorkerCrashedError(GatewayError):
    """A gateway worker process died (non-zero exit code or stale
    heartbeat) and could not be restarted."""


class NetFrontError(ServingError):
    """Base class for failures inside the network front end
    (:mod:`repro.netfront`): the wire protocol, admission control and
    the asyncio server/client."""


class ProtocolError(NetFrontError):
    """A byte stream violated the netfront wire protocol (bad magic,
    unknown version or message type, impossible length, CRC mismatch).
    The server dead-letters the offending bytes and closes only the
    connection that sent them."""


class AuthError(NetFrontError):
    """A connection failed token authentication, exceeded the
    auth-failure budget, or tried to use the data path before
    completing the handshake."""


class AdmissionRejectedError(NetFrontError):
    """The admission gate refused a connection or session (connection/
    session limit reached, or the overload ladder is shedding). Carries
    the typed wire error code the server sent."""

    def __init__(self, message: str, code: int = 0) -> None:
        super().__init__(message)
        self.code = code


class DeadlineExceededError(NetFrontError):
    """A per-connection read/write/submit deadline expired."""


class CampaignError(ReproError):
    """A failure inside the campaign-scale data engine
    (:mod:`repro.campaign`): sharded generation, the streaming sharded
    dataset, or data-parallel training (gradient bus / rank workers)."""
