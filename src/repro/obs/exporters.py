"""Exporters: how observability leaves the process.

Three export paths, matching how a production diagnosis service is
actually watched:

* **JSONL span log** (:func:`write_trace_jsonl`) — one JSON object per
  finished span, the per-run artifact ``--trace-out`` writes and CI
  uploads.  Greppable, diffable, loadable into any trace viewer with a
  ten-line adapter.
* **Prometheus text format** (:func:`prometheus_text`,
  :class:`MetricsHTTPServer`) — the scrape surface.  Counters map to
  ``counter``, gauges to ``gauge``, histograms to ``summary`` with
  ``_count`` / ``_sum`` and p50/p95/p99 quantile samples.
  :func:`parse_prometheus_text` is the matching reader the round-trip
  tests (and the CI smoke check) use.
* **Flight recorder** (:func:`render_flight_recorder`) — the
  human-readable per-job summary embedded in a
  :class:`~repro.core.report.DiagnosisReport`: the job's span tree with
  durations, so "where did this diagnosis spend its 19 ms?" is answered
  by the report itself.
"""

from __future__ import annotations

import json
import math
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Span, Tracer

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>[^\s]+)$"
)

QUANTILES = (50.0, 95.0, 99.0)


def metric_name(name: str, prefix: str = "") -> str:
    """Sanitize an internal metric name into the Prometheus charset.

    Every char outside ``[a-zA-Z0-9_:]`` becomes ``_`` (shard ids carry
    ``#``, span names carry ``.``), and a result whose first char is
    not ``[a-zA-Z_:]`` — an empty prefix in front of ``0_errors``, or
    an empty name — gets a leading ``_`` so the sample line stays
    parseable under the 0.0.4 grammar."""
    full = prefix + _NAME_RE.sub("_", name)
    if not full or not (full[0].isalpha() or full[0] in "_:"):
        full = "_" + full
    return full


def format_value(value: float) -> str:
    """One sample value in exposition format: the 0.0.4 spellings
    ``NaN`` / ``+Inf`` / ``-Inf`` for non-finite floats (Python's
    ``repr`` gives ``nan``/``inf``, which strict scrapers reject),
    ``repr`` otherwise (round-trip exact)."""
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
    return repr(value)


# ---------------------------------------------------------------------------
# Prometheus text format (version 0.0.4)
# ---------------------------------------------------------------------------


def prometheus_text(registry: MetricsRegistry, prefix: str = "snorlax_") -> str:
    """Render a registry snapshot in the Prometheus text exposition
    format.  Counters keep their exact integer values (the round-trip
    tests assert ``parse(render(m)) == m``)."""
    snap = registry.as_dict()
    lines: list[str] = []
    for name, value in snap["counters"].items():
        full = metric_name(name, prefix)
        lines.append(f"# TYPE {full} counter")
        lines.append(f"{full} {value}")
    for name, value in snap["gauges"].items():
        full = metric_name(name, prefix)
        lines.append(f"# TYPE {full} gauge")
        lines.append(f"{full} {format_value(value)}")
    for name, summary in snap["timers"].items():
        full = metric_name(name, prefix) + "_seconds"
        lines.append(f"# TYPE {full} summary")
        for q in QUANTILES:
            lines.append(
                f'{full}{{quantile="{q / 100:g}"}} '
                f"{format_value(registry.percentile(name, q))}"
            )
        lines.append(f"{full}_sum {format_value(summary['total_s'])}")
        lines.append(f"{full}_count {summary['count']}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Parse text-format samples back into ``{name[{labels}]: value}``.

    Raises ``ValueError`` on a malformed sample line, which is what the
    CI smoke assertion relies on to prove the scrape is well-formed.
    """
    samples: dict[str, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed prometheus sample line: {raw!r}")
        key = match.group("name")
        if match.group("labels"):
            key += "{" + match.group("labels") + "}"
        samples[key] = float(match.group("value"))
    return samples


class _MetricsHandler(BaseHTTPRequestHandler):
    server_version = "snorlax-obs"

    def do_GET(self):  # noqa: N802 - http.server API
        if self.path.rstrip("/") not in ("", "/metrics"):
            self.send_error(404, "only /metrics is served here")
            return
        body = prometheus_text(
            self.server.registry, self.server.metric_prefix  # type: ignore[attr-defined]
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):  # silence per-scrape stderr noise
        pass


class MetricsHTTPServer:
    """A tiny scrape endpoint: ``GET /metrics`` serves the registry.

    The fleet simulation runner starts one over the shared registry of
    all its shards when given ``metrics_port`` (``--metrics-port``; 0
    picks a free port); ``port`` reports the bound port after
    :meth:`start`.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        prefix: str = "snorlax_",
    ):
        self.registry = registry
        self.host = host
        self.port = port
        self.prefix = prefix
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> tuple[str, int]:
        httpd = ThreadingHTTPServer((self.host, self.port), _MetricsHandler)
        httpd.registry = self.registry  # type: ignore[attr-defined]
        httpd.metric_prefix = self.prefix  # type: ignore[attr-defined]
        httpd.daemon_threads = True
        self._httpd = httpd
        self.port = httpd.server_address[1]
        self._thread = threading.Thread(
            target=httpd.serve_forever, name="obs-metrics-http", daemon=True
        )
        self._thread.start()
        return self.host, self.port

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"


# ---------------------------------------------------------------------------
# JSONL span log
# ---------------------------------------------------------------------------


def write_trace_jsonl(path: str | Path, tracer: Tracer) -> int:
    """Write every finished span as one JSON line; returns the count."""
    lines = tracer.to_jsonl()
    text = lines + "\n" if lines else ""
    Path(path).write_text(text)
    return len(tracer)


def read_trace_jsonl(path: str | Path) -> list[dict]:
    """Load a ``--trace-out`` artifact back (the CI smoke check)."""
    spans = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            spans.append(json.loads(line))
    return spans


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


def render_flight_recorder(tracer: Tracer, root: Span) -> str:
    """The per-job summary embedded in a DiagnosisReport: the job's span
    subtree, durations in ms, attributes inline."""
    lines = ["--- flight recorder ---"]
    lines.append(tracer.render_tree(root=root))
    return "\n".join(lines)
