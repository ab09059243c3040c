"""Networked fleet diagnosis: the paper's deployment model as a service.

``repro.runtime`` is one machine talking to itself; ``repro.fleet`` is
the Figure 2 fleet — endpoint agents reporting in-production failures
over TCP to a central server that deduplicates them, collects
successful traces from idle endpoints, runs Lazy Diagnosis on a bounded
worker pool, and fans each root cause back to every affected endpoint.

Layers::

    wire        length-prefixed, checksummed binary frames for the
                runtime protocol messages and TraceSample payloads
    chaos       deterministic, seed-driven fault injection over the
                wire transports (corruption, drops, delays, crashes)
    jobs        bounded diagnosis worker pool: dedup + backpressure
    anomaly     EWMA failure/hang scoring for always-on monitoring
    server      asyncio TCP server wrapping SnorlaxServer
    agent       synchronous endpoint agent owning a SnorlaxClient
                (+ MonitorLoop: heartbeats and sampled telemetry)
    shard       consistent-hash sharding: N servers, one shared store
    simulation  ≥50-agent localhost fleet (python -m repro.fleet)
"""

from repro.fleet.agent import FleetAgent, MonitorLoop
from repro.fleet.anomaly import AnomalyEvent, EwmaAnomalyDetector
from repro.fleet.chaos import (
    AgentCrashed,
    ChaosSocket,
    FaultEngine,
    FaultPlan,
    LinkCut,
)
from repro.fleet.jobs import DiagnosisJobQueue, JobRejected, QueueClosed
from repro.fleet.server import (
    FleetServer,
    failure_signature,
    render_digest,
    report_digest,
)
from repro.fleet.shard import (
    HashRing,
    ShardedFleet,
    signature_for_failure,
)
from repro.fleet.simulation import (
    DEFAULT_BUGS,
    AgentOutcome,
    FleetConfig,
    FleetRunResult,
    run_fleet,
)
from repro.fleet.wire import (
    DiagnosisResult,
    FailureEnvelope,
    Goodbye,
    Heartbeat,
    Hello,
    MonitorSample,
    MsgType,
    Reject,
    TraceBatchRequest,
    TraceBatchResponse,
    WireFault,
    decode_frame,
    encode_frame,
    sample_from_dict,
    sample_to_dict,
)

__all__ = [
    "FleetAgent",
    "MonitorLoop",
    "AnomalyEvent",
    "EwmaAnomalyDetector",
    "AgentCrashed",
    "ChaosSocket",
    "FaultEngine",
    "FaultPlan",
    "LinkCut",
    "DiagnosisJobQueue",
    "JobRejected",
    "QueueClosed",
    "FleetServer",
    "failure_signature",
    "render_digest",
    "report_digest",
    "HashRing",
    "ShardedFleet",
    "signature_for_failure",
    "DEFAULT_BUGS",
    "AgentOutcome",
    "FleetConfig",
    "FleetRunResult",
    "run_fleet",
    "DiagnosisResult",
    "FailureEnvelope",
    "Goodbye",
    "Heartbeat",
    "Hello",
    "MonitorSample",
    "MsgType",
    "Reject",
    "TraceBatchRequest",
    "TraceBatchResponse",
    "WireFault",
    "decode_frame",
    "encode_frame",
    "sample_from_dict",
    "sample_to_dict",
]
