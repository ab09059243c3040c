"""Client/server runtime: production tracing + collection policy."""

from repro.runtime.client import ClientRun, SnorlaxClient, Workload
from repro.runtime.errortracker import FailureCode, classify
from repro.runtime.protocol import FailureNotification, TraceRequest, TraceResponse
from repro.runtime.server import (
    CollectionPolicy,
    DiagnosisSession,
    ServerStats,
    SnorlaxServer,
    TraceTransport,
    run_trace_request,
    sample_from_run,
)

__all__ = [
    "ClientRun",
    "SnorlaxClient",
    "Workload",
    "FailureCode",
    "classify",
    "FailureNotification",
    "TraceRequest",
    "TraceResponse",
    "CollectionPolicy",
    "DiagnosisSession",
    "ServerStats",
    "SnorlaxServer",
    "TraceTransport",
    "run_trace_request",
    "sample_from_run",
]
