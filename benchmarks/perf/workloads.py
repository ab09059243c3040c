"""The three workloads.

Each is a closed loop with one client: the benchmark's main thread
issues one diagnosis at a time and waits for it.  The fleet server's
event-loop thread and its two diagnosis workers belong to the program.

The workload seed ``s`` selects only the inputs: each bug's failing run
is the first failing execution at or after seed ``1000*s``, and step-8
collection starts at seed ``10_000 + 1000*s`` (the fleet's second pass:
``+ 500``).  Seed 0 reproduces the repository's defaults.

A timed loop runs a fixed number of whole passes over the bug list
(``PASSES``), never a number that depends on how fast the machine is:
both sides of a comparison then measure the same samples, and every bug
is equally represented in the medians.  A traced run makes one pass.
Every timed operation goes through a :class:`~gauge.SpeedGauge`, which
records its raw wall time and its time rescaled to a fixed machine speed.
"""

from __future__ import annotations

import gc
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro import api
from repro.corpus.registry import BugSpec
from repro.fleet.agent import FleetAgent
from repro.fleet.server import FleetServer
from repro.runtime.client import ClientRun, SnorlaxClient
from repro.runtime.server import SnorlaxServer
from repro.store import DiagnosisStore

from gauge import SpeedGauge
from layers import CORE_STAGES, LayerProbe, finish_layers
from spans import self_times

SETUP_REPEATS = 3
FLEET_REPEATS = 5  # re-reports per bug in the recurring and restart phases
REPORT_TIMEOUT_S = 60.0


@dataclass
class BugInput:
    spec: BugSpec
    module: object
    client: SnorlaxClient
    failing: ClientRun
    truth: list[int]

    @property
    def bug_id(self) -> str:
        return self.spec.bug_id


@dataclass
class WorkloadResult:
    # seconds per operation, rescaled (``timings``) and raw (``wall``), by
    # phase: "setup" (one entry per set-up) and "diagnosis" for every
    # workload; the fleet adds "recurring" and "restart"
    timings: dict[str, list[float]]
    wall: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    outcomes: list[dict] = field(default_factory=list)
    # traced runs only: name -> (value, unit), and the diagnose-span split
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    layer_split: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def time(self, phase: str, wall: float, rescaled: float) -> None:
        self.timings.setdefault(phase, []).append(rescaled)
        self.wall.setdefault(phase, []).append(wall)

    def record(self, bug_id, index, phase, wall, rescaled, got, truth) -> None:
        self.attempted += 1
        self.time(phase, wall, rescaled)
        if phase != "diagnosis":
            return  # a consistent re-report repeats its diagnosis's outcome
        self.outcomes.append(
            {
                "bug": bug_id,
                "pass": index,
                "phase": phase,
                "ms": round(rescaled * 1000, 3),
                "wall_ms": round(wall * 1000, 3),
                "outcome": "exact" if list(got) == list(truth) else "inexact",
            }
        )

    def fail(self, bug_id: str, index: int, phase: str, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.outcomes.append(
            {"bug": bug_id, "pass": index, "phase": phase, "outcome": "failed",
             "reason": reason}
        )


def make_input(spec: BugSpec, seed: int) -> BugInput:
    """A fresh module and client, and the bug's failing run."""
    module = spec.fresh_module()
    client = SnorlaxClient(module, spec.workload, entry=spec.entry)
    runs = client.find_runs(True, 1, start_seed=1000 * seed)
    if not runs:
        raise RuntimeError(f"{spec.bug_id}: no failing run from seed {1000 * seed}")
    return BugInput(spec, module, client, runs[0], spec.ground_truth.resolve(module))


def set_up(result: WorkloadResult, gauge: SpeedGauge, prepare, bugs, repeats: int):
    """Run ``prepare(spec)`` for every bug, ``repeats`` times over; each
    repetition is one "setup" timing.  Returns the last repetition.

    The inputs are then frozen out of the cyclic garbage collector.  A
    server diagnosing one failure does not hold every bug's inputs, but
    the benchmark does, and each full collection during a timed
    diagnosis would rescan them: with them unfrozen, collections took 28%
    of an evidence-replay pass, up to 0.4 s in a single diagnosis, and
    doubled the pass-to-pass noise.  The program's own objects are still
    collected as usual."""
    prepared = []
    for _ in range(repeats):
        prepared, wall, rescaled = [], 0.0, 0.0
        for spec in bugs:
            value, w, r = gauge.measure(lambda: prepare(spec))
            prepared.append(value)
            wall += w
            rescaled += r
        result.time("setup", wall, rescaled)
    gc.collect()
    gc.freeze()
    return prepared


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _diagnose_all(result, gauge, inputs, index: int, diagnose, after=None) -> None:
    """One in-process pass: time ``diagnose(inp)`` for every bug.
    ``after(inp, diagnosis)`` runs outside the timed region and returns
    why the diagnosis counts as failed, or None."""
    for inp in inputs:
        try:
            diagnosis, wall, rescaled = gauge.measure(lambda: diagnose(inp))
        except Exception as exc:  # a failed diagnosis is a result, not a crash
            result.fail(inp.bug_id, index, "diagnosis", _error(exc))
            continue
        problem = after(inp, diagnosis) if after is not None else None
        if problem is not None:
            result.fail(inp.bug_id, index, "diagnosis", problem)
            continue
        result.record(
            inp.bug_id, index, "diagnosis", wall, rescaled,
            diagnosis.report.ordered_target_uids(), inp.truth,
        )


# -- corpus-cold -----------------------------------------------------------


def corpus_cold(bugs, seed, passes, probe: LayerProbe | None = None, work_dir=None):
    """Cold in-process diagnosis of every bug: a fresh ``SnorlaxServer``
    per failure, fixed stopping, ten successful traces, no caches."""
    gauge = SpeedGauge()
    result = WorkloadResult(timings={})
    inputs = set_up(result, gauge, lambda spec: make_input(spec, seed), bugs, SETUP_REPEATS)
    start_seed = 10_000 + 1000 * seed
    traced = _InProcessTrace(probe) if probe is not None else None
    if traced is None:

        def diagnose(inp):
            server = SnorlaxServer(inp.module)
            return server.diagnose(inp.failing, inp.client, start_seed=start_seed)

        after = None
    else:
        diagnose, after = (lambda inp: traced.cold(inp, start_seed)), traced.note
    for index in range(passes):
        _diagnose_all(result, gauge, inputs, index, diagnose, after)
    if traced is not None:
        traced.finish(result, work_dir)
    result.extra["reference_s"] = gauge.samples
    return result


# -- evidence-replay -------------------------------------------------------


def evidence_replay(bugs, seed, passes, probe: LayerProbe | None = None, work_dir=None):
    """Re-analysis of stored evidence: set-up collects each bug's failing
    sample and successful samples with the in-process policy; the timed
    loop runs ``repro.api.diagnose`` over every evidence set, no caches.

    Set-up runs once: collecting the evidence is ~20 s of simulator work,
    too long to repeat."""
    gauge = SpeedGauge()
    result = WorkloadResult(timings={})
    start_seed = 10_000 + 1000 * seed
    traced = _InProcessTrace(probe) if probe is not None else None

    def prepare(spec):
        inp = make_input(spec, seed)
        server = SnorlaxServer(inp.module)
        failing = server.sample_from_run("failure", inp.failing)
        if traced is None:
            successes = server.collect_successful_traces(
                inp.client, inp.failing.failure.failing_uid, start_seed,
                failing_sample=failing,
            )
        else:
            successes = traced.collect(inp, server, failing, start_seed)
            traced.probe.replay_pending()
        return inp, [failing, *successes]

    prepared = set_up(result, gauge, prepare, bugs, repeats=1)
    inputs = [inp for inp, _ in prepared]
    evidence = {inp.bug_id: traces for inp, traces in prepared}
    if traced is None:
        diagnose = lambda inp: api.diagnose(inp.module, traces=evidence[inp.bug_id])  # noqa: E731
        after = None
    else:
        diagnose = lambda inp: traced.replay(inp, evidence[inp.bug_id])  # noqa: E731
        after = traced.note
    for index in range(passes):
        _diagnose_all(result, gauge, inputs, index, diagnose, after)
    if traced is not None:
        traced.finish(result, work_dir)
    result.extra["reference_s"] = gauge.samples
    return result


class _InProcessTrace:
    """The traced form of the in-process diagnoses: the same public calls
    ``SnorlaxServer.diagnose`` makes, with a span around each layer."""

    def __init__(self, probe: LayerProbe):
        self.probe = probe
        self.rec = probe.recorder
        self.stage_s = dict.fromkeys(CORE_STAGES, 0.0)
        self.samples = 0
        self.patterns = 0
        self.candidates = 0

    def collect(self, inp: BugInput, server, failing, start_seed):
        with self.rec.span("runtime.collect_traces", diagnosis=inp.bug_id):
            successes = server.collect_traces_via(
                self.probe.transport(server, inp.client, inp.bug_id),
                inp.failing.failure.failing_uid,
                start_seed,
                failing_sample=failing,
            )
        self.samples += len(successes)
        return successes

    def cold(self, inp: BugInput, start_seed: int):
        with self.rec.span("diagnose", diagnosis=inp.bug_id):
            server = SnorlaxServer(inp.module)
            failing = server.sample_from_run("failure", inp.failing)
            successes = self.collect(inp, server, failing, start_seed)
            with self.rec.span("core.diagnose"):
                return server.diagnose_samples([failing], successes)

    def replay(self, inp: BugInput, traces):
        with self.rec.span("diagnose", diagnosis=inp.bug_id):
            with self.rec.span("core.diagnose"):
                return api.diagnose(inp.module, traces=traces)

    def note(self, inp: BugInput, diagnosis) -> None:
        """Book-keeping after the timed call; never fails a diagnosis."""
        report = diagnosis.report
        for stage in CORE_STAGES:
            self.stage_s[stage] += diagnosis.stage_seconds.get(stage, 0.0)
        self.patterns += report.stage_stats.patterns_generated
        self.candidates += report.stage_stats.candidates_explored
        self.probe.note_failure(inp.bug_id, inp.module, inp.failing)
        self.probe.note_digest(inp.bug_id, report)
        self.probe.note_evidence(inp.module, diagnosis.request.traces)
        self.probe.replay_pending()

    def finish(self, result: WorkloadResult, work_dir) -> None:
        collect = [s for s in self.rec.spans if s.name == "runtime.collect_traces"]
        own = self_times(self.rec.spans)
        layers = {
            "runtime.collect_s": (sum(s.duration for s in collect), "s"),
            "runtime.self_s": (sum(own[s.span_id] for s in collect), "s"),
            "runtime.samples": (self.samples, "count"),
            "core.patterns_generated": (self.patterns, "count"),
            "core.candidates_explored": (self.candidates, "count"),
        }
        for stage in CORE_STAGES:
            layers[f"core.{stage}_s"] = (self.stage_s[stage], "s")
        # in process there is no fleet and no cache
        for name in (
            "fleet.trace_requests", "fleet.batch_frames", "fleet.jobs_deduplicated",
            "cache.trace_hits", "cache.trace_misses",
            "cache.analysis_hits", "cache.analysis_misses",
        ):
            layers[name] = (0, "count")
        finish_layers(result, self.probe, layers, work_dir, decode_in_diagnose=True)


# -- fleet -----------------------------------------------------------------

SPAN_FOR_PHASE = {
    "diagnosis": "diagnose",
    "recurring": "fleet.recurring",
    "restart": "fleet.restart",
}


def fleet(bugs, seed, passes, probe: LayerProbe | None = None, work_dir=None):
    """One ``FleetServer`` in its persisted production configuration
    (batched collection, stable-top stopping, a ``DiagnosisStore`` with
    write-through caches), each pass on a new store file:

    (a) ``diagnosis`` — each failure reported once, cold;
    (b) ``recurring`` — the same envelope re-reported to the same server;
    (c) ``restart`` — a new server on the same store file, each failure
        re-reported.

    Pass ``k`` collects from seed ``10_000 + 1000*seed + 500*k``.  How
    many executions stable-top stopping needs depends on those seeds
    (seeds 0-9 need 2141 to 2432 trace requests), so a second pass over
    other collection seeds narrows the run-to-run spread where a second
    pass over the same ones would not.  Every (b) and (c) digest must
    equal that pass's (a) digest.  One agent connection is open at a
    time."""
    gauge = SpeedGauge()
    result = WorkloadResult(timings={})
    inputs = set_up(result, gauge, lambda spec: make_input(spec, seed), bugs, SETUP_REPEATS)
    modules = {inp.bug_id: inp.module for inp in inputs}
    registries: list[dict] = []
    caches = dict.fromkeys(
        ("trace_hits", "trace_misses", "analysis_hits", "analysis_misses"), 0
    )
    funnel = {"patterns_generated": 0, "candidates_explored": 0}
    digests: dict[str, dict] = {}  # bug -> this pass's cold digest
    rec = probe.recorder if probe is not None else None

    def start(store, index: int):
        server = FleetServer(
            module_resolver=modules.__getitem__,
            start_seed=10_000 + 1000 * seed + 500 * index,
            stopping="stable-top",
            store=probe.wrap_store(store) if probe is not None else store,
        )
        _host, port = server.start()
        return server, port

    def stop(server, store) -> None:
        server.stop()
        store.close()
        registries.append(server.metrics.as_dict())
        for tier, cache in (("trace", server.caches.traces), ("analysis", server.caches.analysis)):
            caches[f"{tier}_hits"] += cache.stats.hits
            caches[f"{tier}_misses"] += cache.stats.misses

    def send(agent, inp, phase):
        if rec is None:
            return agent.report_failure(inp.failing, max_wait=REPORT_TIMEOUT_S)
        with rec.span(SPAN_FOR_PHASE[phase], diagnosis=inp.bug_id) as root:
            rec.ambient = root  # server threads' store calls nest here
            try:
                return agent.report_failure(inp.failing, max_wait=REPORT_TIMEOUT_S)
            finally:
                rec.ambient = None

    def report(agent, inp, index: int, phase: str) -> None:
        agent.connect()
        try:
            for _ in range(1 if phase == "diagnosis" else FLEET_REPEATS):
                try:
                    reply, wall, rescaled = gauge.measure(lambda: send(agent, inp, phase))
                except Exception as exc:
                    result.fail(inp.bug_id, index, phase, _error(exc))
                    continue
                if phase == "diagnosis":
                    if probe is not None:
                        probe.note_failure(inp.bug_id, inp.module, inp.failing)
                        probe.take_decoded()
                        probe.replay_pending()
                    for key in funnel:
                        funnel[key] += reply.digest["stage_funnel"][key]
                if reply.digest != digests.setdefault(inp.bug_id, reply.digest):
                    result.fail(inp.bug_id, index, phase, "digest differs from phase (a)")
                    continue
                got = [event[0] for event in reply.digest["target_events"]]
                result.record(inp.bug_id, index, phase, wall, rescaled, got, inp.truth)
        finally:
            agent.close()

    def one_pass(index: int) -> None:
        digests.clear()
        with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
            path = str(Path(tmp) / "fleet.db")
            store = DiagnosisStore(path)
            server, port = start(store, index)
            agents = {}
            for inp in inputs:
                agent = FleetAgent(
                    f"bench-{inp.bug_id}", inp.bug_id, inp.module,
                    inp.spec.workload, "127.0.0.1", port, entry=inp.spec.entry,
                )
                if probe is not None:
                    agent.client = probe.wrap_client(agent.client, inp.bug_id)
                agents[inp.bug_id] = agent
            # (b) and (c) follow the first pass only: 335 re-reports each
            # give their p95, and the second pass is there for (a)
            phases = ("diagnosis", "recurring") if index == 0 else ("diagnosis",)
            try:
                for phase in phases:
                    for inp in inputs:
                        report(agents[inp.bug_id], inp, index, phase)
            finally:
                stop(server, store)
            if index > 0:
                return
            store = DiagnosisStore(path)
            server, port = start(store, index)
            try:
                for inp in inputs:
                    agents[inp.bug_id].port = port
                    report(agents[inp.bug_id], inp, index, "restart")
            finally:
                stop(server, store)

    for index in range(passes):
        one_pass(index)
    registry = _merge_registries(registries)
    result.extra["fleet_registry"] = registry
    result.extra["reference_s"] = gauge.samples
    if probe is None:
        return result
    counters, timers = registry["counters"], registry["timers"]
    collect_s = timers.get("stage_collect", 0.0)
    layers = {
        "runtime.collect_s": (collect_s, "s"),
        # server-side collection minus the agent's executions: wire
        # round-trips, the collection policy and its stop-rule checks
        "runtime.self_s": (collect_s - probe.request_s, "s"),
        "runtime.samples": (counters.get("traces_collected", 0), "count"),
        "core.patterns_generated": (funnel["patterns_generated"], "count"),
        "core.candidates_explored": (funnel["candidates_explored"], "count"),
        "fleet.trace_requests": (counters.get("trace_requests_sent", 0), "count"),
        "fleet.batch_frames": (counters.get("trace_batches_sent", 0), "count"),
        "fleet.jobs_deduplicated": (counters.get("jobs_deduplicated", 0), "count"),
    }
    for stage in CORE_STAGES:
        layers[f"core.{stage}_s"] = (timers.get(f"stage_{stage}", 0.0), "s")
    for name, value in caches.items():
        layers[f"cache.{name}"] = (value, "count")
    finish_layers(result, probe, layers, work_dir, decode_in_diagnose=False)
    return result


def _merge_registries(registries: list[dict]) -> dict:
    """Counters and timer totals summed over every server of the run."""
    counters: dict[str, int] = {}
    timers: dict[str, float] = {}
    for reg in registries:
        for name, value in reg["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, summary in reg["timers"].items():
            timers[name] = timers.get(name, 0.0) + summary["total_s"]
    return {"counters": dict(sorted(counters.items())), "timers": dict(sorted(timers.items()))}


WORKLOADS = {
    "corpus-cold": corpus_cold,
    "evidence-replay": evidence_replay,
    "fleet": fleet,
}

# Passes of an untraced run.  The fleet makes two, over two sets of
# collection seeds (n=134 cold diagnoses): its latency follows those
# seeds, and over ten workload seeds its geometric mean spread 6% in one
# pass, 7% in two over the same collection seeds, 5% in two over
# different ones.  The in-process workloads make one: they spread 2-5% in
# it, and a run already takes 30-50 s, most of it set-up for
# evidence-replay.
PASSES = {"corpus-cold": 1, "evidence-replay": 1, "fleet": 2}
