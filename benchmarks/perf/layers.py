"""Per-layer measurement for the traced run.

Everything here wraps a public surface of the program from outside it:

* ``transport`` wraps ``SnorlaxServer.handle_trace_request`` (in-process
  step-8 executions: simulator + PT driver);
* ``wrap_client`` wraps a fleet agent's ``SnorlaxClient`` (the same
  executions, run by the agent for the server);
* ``wrap_store`` wraps a ``DiagnosisStore`` passed to ``FleetServer``;
* ``replay_pending`` re-does, right after each diagnosis and outside its
  spans, the simulator and decoder work it did, one layer at a time:
  every step-8 execution untraced, and every buffer the pipeline
  decoded decoded again and packet-counted;
* ``replay`` adds, at the end, every failure envelope framed and
  unframed (wire) and, for in-process workloads, every report digest
  written to and read back from a scratch store.

The replays are what split a traced execution into simulator and PT
driver time, and a pipeline run into decode and analysis time.
"""

from __future__ import annotations

import hashlib
import statistics
import tempfile
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

from repro.core.pipeline import PipelineConfig
from repro.fleet.server import report_digest
from repro.fleet.wire import FailureEnvelope, decode_frame, encode_frame
from repro.pt.decoder import decode_thread_trace
from repro.pt.packets import find_psb, parse_packets
from repro.runtime.protocol import FailureNotification
from repro.runtime.server import sample_from_run
from repro.store import DiagnosisStore

from spans import self_time_by_name

CORE_STAGES = (
    "trace_processing",
    "points_to",
    "type_ranking",
    "pattern_computation",
    "statistical_diagnosis",
)
PACKET_KINDS = ("mtc", "tnt", "tip", "tsc", "fup", "psb")
STORE_WRITES = ("put_report", "put_analysis", "put_trace", "put_evidence")
STORE_READS = ("get_report", "get_analysis", "get_trace", "evidence_for")


def failure_envelope(bug_id: str, run) -> FailureEnvelope:
    """The envelope a fleet agent sends for ``run`` (as
    ``FleetAgent.report_failure`` builds it)."""
    code = run.failure
    return FailureEnvelope(
        bug_id=bug_id,
        seed=run.seed,
        notification=FailureNotification(
            bug_hint=bug_id,
            failing_uid=code.failing_uid,
            failing_tid=code.failing_tid,
            time=code.time,
        ),
        sample=sample_from_run("failure", run),
    )


class _TimedClient:
    """Forwards to a ``SnorlaxClient``; times every ``run_once``."""

    def __init__(self, client, probe: "LayerProbe", diagnosis: str):
        self._client = client
        self._probe = probe
        self._diagnosis = diagnosis

    def run_once(self, seed, breakpoint_uids=(), **kwargs):
        probe = self._probe
        with probe.recorder.span("pt.trace_request", seed=seed):
            started = perf_counter()
            run = self._client.run_once(
                seed, breakpoint_uids=breakpoint_uids, **kwargs
            )
            probe.request_s += perf_counter() - started
        probe.note_execution(
            self._diagnosis,
            self._client,
            seed,
            len(breakpoint_uids),
            run.snapshot.buffers if run.snapshot is not None else None,
        )
        return run

    def __getattr__(self, name):
        return getattr(self._client, name)


class _TimedStore:
    """Forwards to a ``DiagnosisStore``; times its public reads and
    writes, which server threads call concurrently."""

    def __init__(self, store: DiagnosisStore, probe: "LayerProbe"):
        self._store = store
        self._probe = probe

    def __getattr__(self, name):
        attr = getattr(self._store, name)
        if name in STORE_WRITES:
            kind = "write"
        elif name in STORE_READS:
            kind = "read"
        else:
            return attr
        probe = self._probe

        def timed(*args, **kwargs):
            with probe.recorder.span(f"store.{name}"):
                started = perf_counter()
                try:
                    return attr(*args, **kwargs)
                finally:
                    probe.note_store(kind, perf_counter() - started)
                    if name == "put_trace":
                        # (module_fp, tid, buffer_hash, ...): the server
                        # writes every buffer it decoded through to disk
                        probe.note_decoded(args[1], args[2])

        return timed


class LayerProbe:
    """What the traced run records at each layer boundary."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.request_s = 0.0
        self.executions = 0
        self.widened: set[str] = set()
        # (module, buffers) of every snapshot an execution produced: the
        # PT encoder's output; packets are counted in the decoded ones
        self.shipped: list[tuple[object, dict[int, bytes]]] = []
        self.packets: Counter = Counter()
        self.envelopes: list[FailureEnvelope] = []
        self.digests: list[tuple[str, dict]] = []
        self.store = {"writes": 0, "reads": 0, "write_s": 0.0, "read_s": 0.0}
        self.replayed = {
            "instructions": 0, "sim_s": 0.0,
            "decode_calls": 0, "decoded_bytes": 0, "decode_s": 0.0,
        }
        # work noted since the last replay: (client, seed) executions,
        # (module, buffers) the pipeline decoded, and snapshots shipped
        self._executions: list[tuple[object, int]] = []
        self._evidence: list[tuple[object, dict[int, bytes]]] = []
        self._fresh: list[tuple[object, dict[int, bytes]]] = []
        # (tid, buffer sha256) the fleet server decoded, and those replayed
        self._decoded: set[tuple[int, str]] = set()
        self._replayed_buffers: set[tuple[int, str]] = set()
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def note_execution(self, diagnosis, client, seed, breakpoints, buffers):
        self.executions += 1
        self._executions.append((client, seed))
        if breakpoints > 1:
            self.widened.add(diagnosis)  # breakpoint fallback fired
        if buffers is not None:
            self._ship(client.module, buffers)

    def _ship(self, module, buffers) -> None:
        self.shipped.append((module, dict(buffers)))
        self._fresh.append((module, dict(buffers)))

    def note_evidence(self, module, samples) -> None:
        """Samples one in-process pipeline run decodes."""
        for sample in samples:
            self._evidence.append((module, dict(sample.buffers)))

    def note_decoded(self, tid: int, buffer_hash: str) -> None:
        with self._lock:
            self._decoded.add((tid, buffer_hash))

    def take_decoded(self) -> None:
        """Queue for replay the freshly shipped buffers the fleet server
        decoded (it writes each through to the store), once each."""
        with self._lock:
            decoded = set(self._decoded)
        for module, buffers in self._fresh:
            for tid, data in buffers.items():
                key = (tid, hashlib.sha256(data).hexdigest())
                if key in decoded and key not in self._replayed_buffers:
                    self._replayed_buffers.add(key)
                    self._evidence.append((module, {tid: data}))

    def note_store(self, kind: str, seconds: float) -> None:
        with self._lock:
            self.store[f"{kind}s"] += 1
            self.store[f"{kind}_s"] += seconds

    def note_failure(self, bug_id: str, module, run) -> None:
        """A diagnosed failure: its snapshot and wire envelope."""
        self._ship(module, run.snapshot.buffers)
        self.envelopes.append(failure_envelope(bug_id, run))

    def note_digest(self, bug_id: str, report) -> None:
        self.digests.append((bug_id, report_digest(report)))

    def transport(self, server, client, diagnosis: str):
        """``handle_trace_request`` as a timed step-8 transport."""

        def send(request):
            with self.recorder.span("pt.trace_request", seed=request.seed):
                started = perf_counter()
                response = server.handle_trace_request(client, request)
                self.request_s += perf_counter() - started
            buffers = response.sample.buffers if response.sample else None
            self.note_execution(
                diagnosis, client, request.seed,
                len(request.breakpoint_uids), buffers,
            )
            return response

        return send

    def wrap_client(self, client, diagnosis: str):
        return _TimedClient(client, self, diagnosis)

    def wrap_store(self, store: DiagnosisStore):
        return _TimedStore(store, self)

    # -- replays -----------------------------------------------------------

    def replay_pending(self) -> None:
        """Replay the simulator and decoder work noted since the last call.

        Called right after each diagnosis (outside its spans), so a replay
        runs at the machine speed its diagnosis saw and the splits below
        compare like with like on a machine whose speed drifts."""
        totals = self.replayed
        started = perf_counter()
        for client, seed in self._executions:
            totals["instructions"] += client.run_untraced(seed).instructions_executed
        totals["sim_s"] += perf_counter() - started
        period = PipelineConfig().mtc_period_ns
        for module, buffers in self._evidence:
            for tid, data in buffers.items():
                started = perf_counter()
                decode_thread_trace(module, data, tid, period)
                totals["decode_s"] += perf_counter() - started
                totals["decode_calls"] += 1
                totals["decoded_bytes"] += len(data)
                sync = find_psb(data)
                if sync >= 0:
                    self.packets.update(p.kind for p in parse_packets(data, sync))
        self._executions, self._evidence, self._fresh = [], [], []

    def replay(self, work_dir: Path) -> dict:
        """The replays' totals, with what is left to replay, the packet
        counts, and the wire and store layers re-measured alone."""
        self.replay_pending()
        out = dict(self.replayed)
        out["bytes"] = sum(
            len(data) for _module, buffers in self.shipped for data in buffers.values()
        )
        out["packets"] = {kind: self.packets.get(kind, 0) for kind in PACKET_KINDS}

        frame_bytes = 0
        encode_s = decode_frame_s = 0.0
        for envelope in self.envelopes:
            started = perf_counter()
            frame = encode_frame(envelope)
            encode_s += perf_counter() - started
            started = perf_counter()
            decode_frame(frame)
            decode_frame_s += perf_counter() - started
            frame_bytes += len(frame)
        out.update(
            frame_bytes=frame_bytes, encode_s=encode_s, wire_decode_s=decode_frame_s
        )

        if self.digests:
            # in-process workloads keep no store: write each report once
            # and read it back, so the store layer is measured everywhere
            with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
                store = self.wrap_store(DiagnosisStore(str(Path(tmp) / "replay.db")))
                try:
                    for bug_id, digest in self.digests:
                        store.put_report(bug_id, bug_id, digest)
                    for bug_id, _digest in self.digests:
                        store.get_report(bug_id)
                finally:
                    store.close()
        return out


def finish_layers(result, probe: LayerProbe, layers: dict, work_dir, decode_in_diagnose: bool):
    """Complete a workload's per-layer metrics with the layers every
    workload measures the same way (simulator, PT, wire, store, spans)
    and set ``result.layers`` and ``result.layer_split``."""
    replay = probe.replay(work_dir)
    executions = probe.executions
    layers.update(
        {
            "sim.executions": (executions, "count"),
            "sim.instructions": (replay["instructions"], "count"),
            "sim.exec_s": (replay["sim_s"], "s"),
            "sim.instr_per_s": (replay["instructions"] / replay["sim_s"], "1/s"),
            "pt.driver_s": (probe.request_s - replay["sim_s"], "s"),
            "pt.snapshot_bytes": (replay["bytes"], "bytes"),
            "pt.decode_calls": (replay["decode_calls"], "count"),
            "pt.decode_s": (replay["decode_s"], "s"),
            "pt.decode_bytes_per_s": (
                replay["decoded_bytes"] / replay["decode_s"], "bytes/s"
            ),
            "runtime.requests": (executions, "count"),
            "runtime.breakpoint_fallbacks": (len(probe.widened), "count"),
            "wire.frame_bytes": (replay["frame_bytes"], "bytes"),
            "wire.encode_s": (replay["encode_s"], "s"),
            "wire.decode_s": (replay["wire_decode_s"], "s"),
            "store.writes": (probe.store["writes"], "count"),
            "store.reads": (probe.store["reads"], "count"),
            "store.write_s": (probe.store["write_s"], "s"),
            "store.read_s": (probe.store["read_s"], "s"),
        }
    )
    for kind, count in replay["packets"].items():
        layers[f"pt.packets_{kind}"] = (count, "count")
    samples = layers["runtime.samples"][0]
    layers["runtime.useful_ratio"] = (samples / executions if executions else 0.0, "ratio")
    split = layer_split(probe, replay, decode_in_diagnose)
    rec = probe.recorder
    layers.update(
        {
            "trace.diagnose_s": (split["total_s"], "s"),
            "trace.unattributed_s": (split["layers"]["unattributed"], "s"),
            "trace.recorder_s": (rec.overhead_s, "s"),
            "trace.spans": (len(rec.spans), "count"),
            "trace.diagnosis_geomean_ms": (
                statistics.geometric_mean(result.timings["diagnosis"]) * 1000, "ms"
            ),
        }
    )
    result.layers = dict(sorted(layers.items()))
    result.layer_split = split


def layer_split(probe: LayerProbe, replay: dict, decode_in_diagnose: bool) -> dict:
    """Where the ``diagnose`` spans' time went, by layer.

    Self times come from the spans inside the diagnose trees.  The
    replays split two of them further: a traced execution into simulator
    and PT driver time, in the ratio of the untraced replay to the traced
    executions; and, in process, a pipeline run into PT decode and
    analysis time.  In the fleet, decode and analysis run on server
    threads the benchmark does not wrap, so they stay in the diagnose
    span's own time."""
    spans = probe.recorder.spans
    by_id = {s.span_id: s for s in spans}

    def root_of(span):
        while span.parent in by_id:
            span = by_id[span.parent]
        return span

    inside = [s for s in spans if root_of(s).name == "diagnose"]
    own = self_time_by_name(inside)
    total = sum(s.duration for s in inside if s.name == "diagnose")
    executing = own.get("pt.trace_request", 0.0)
    sim = replay["sim_s"] * executing / probe.request_s if probe.request_s else 0.0
    core = own.get("core.diagnose", 0.0)
    decode = min(replay["decode_s"], core) if decode_in_diagnose else 0.0
    layers = {
        "sim": sim,
        "pt.driver": executing - sim,
        "runtime": own.get("runtime.collect_traces", 0.0),
        "pt.decode": decode,
        "core": core - decode,
        "store": sum(v for k, v in own.items() if k.startswith("store.")),
        "unattributed": own.get("diagnose", 0.0),
    }
    return {
        "total_s": total,
        "layers": layers,
        "shares": {k: (v / total if total else 0.0) for k, v in layers.items()},
    }
