"""Always-on fleet soak: hours of simulated monitoring, flat memory.

Not a paper figure — this proves the repo's deployment layer can run
*continuously*.  A compressed clock (both the server's detector clock
and every monitor loop's timebase are injected) drives ≥1 hour of
simulated fleet time through a few real seconds:

* two healthy monitored endpoints stream heartbeats + sampled
  executions; the anomaly detector trips on the bug's first failing
  sample and the server diagnoses it unprompted;
* one endpoint goes silent mid-soak (a crashed process), is evicted by
  the heartbeat reaper, and is re-admitted when it comes back;
* one flaky endpoint sends heartbeats through a deterministic
  corruption plan — every mangled frame costs it the connection and it
  reconnects, over and over.

The acceptance gates: the anomaly-triggered digest is byte-identical
to the on-demand in-process diagnosis, the evidence graph is queryable
and self-consistent, exactly one stale eviction happened, nobody is
stale at the end, and traced memory is flat across the back half of
the soak (the timeline deque, detector state, and evidence index are
all bounded).

``SOAK_SIM_SECONDS`` scales the simulated duration (CI smoke uses 300;
the default is a full simulated hour).
"""

import gc
import os
import threading
import time
import tracemalloc

import pytest

from repro.fleet import (
    EwmaAnomalyDetector,
    FaultPlan,
    FleetAgent,
    FleetServer,
    MonitorLoop,
    report_digest,
)
from repro.fleet.shard import signature_for_failure
from repro.ir import parse_module
from repro.provenance import EvidenceGraph, report_key
from repro.runtime import CollectionPolicy, SnorlaxClient, SnorlaxServer

from tests.runtime.test_client_server import SRC, _workload

SIM_SECONDS = int(os.environ.get("SOAK_SIM_SECONDS", "3600"))
HEARTBEAT_S = 5.0  # simulated
SAMPLE_S = 10.0  # simulated
TIMEOUT_S = 30.0  # simulated: eviction threshold
SUCCESS_TRACES = 4
MEM_GROWTH_LIMIT = 512 * 1024  # bytes across the soak's back half


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _monitor(agent, clock, **kw):
    kw.setdefault("heartbeat_interval_s", HEARTBEAT_S)
    kw.setdefault("sample_interval_s", SAMPLE_S)
    kw.setdefault("drain_timeout_s", 0.001)
    return MonitorLoop(agent, clock=clock, **kw)


@pytest.fixture(scope="module")
def soak():
    module = parse_module(SRC)
    clock = _Clock()
    server = FleetServer(
        module_resolver=lambda bug_id: module,
        workers=2,
        success_traces_wanted=SUCCESS_TRACES,
        heartbeat_timeout_s=TIMEOUT_S,
        prune_interval_s=0.02,
        anomaly_detector=EwmaAnomalyDetector(
            alpha=0.5, failure_threshold=0.5, min_observations=1, window_s=1e9
        ),
        clock=clock,
        trace_reply_timeout=5.0,
    )
    host, port = server.start()
    stop = threading.Event()

    def _agent(agent_id, bug_id, **kw):
        agent = FleetAgent(agent_id, bug_id, module, _workload, host, port, **kw)
        agent.connect()
        return agent

    agents = {
        "clean-0": _agent("clean-0", "custom-readbeforeinit"),
        "clean-1": _agent("clean-1", "custom-readbeforeinit"),
        "silent-0": _agent("silent-0", "custom-readbeforeinit"),
        # heartbeat-only (its sample timer never fires inside the soak)
        # through a corruption plan: each mangled frame kills the conn
        "flaky-0": _agent(
            "flaky-0",
            "soak-flaky",
            fault_engine=FaultPlan(seed=7, corrupt_rate=0.05).engine("flaky-0"),
            backoff_base_s=0.001,
            backoff_cap_s=0.01,
        ),
    }
    loops = {
        "clean-0": _monitor(agents["clean-0"], clock),
        "clean-1": _monitor(agents["clean-1"], clock),
        "silent-0": _monitor(agents["silent-0"], clock),
        "flaky-0": _monitor(agents["flaky-0"], clock, sample_interval_s=1e12),
    }

    silent_at = SIM_SECONDS // 6
    check_evicted_at = silent_at + int(3 * TIMEOUT_S)
    return_at = SIM_SECONDS // 2
    mem_probe_at = SIM_SECONDS // 2 + SIM_SECONDS // 12

    events: dict[str, list[str]] = {name: [] for name in loops}
    ticking = dict(loops)
    started = time.time()
    tracemalloc.start()
    mem_mid = None
    try:
        for step in range(1, SIM_SECONDS + 1):
            clock.t += 1.0
            for name, loop in ticking.items():
                events[name].extend(loop.tick(clock.t, stop=stop))
            if step == silent_at:
                del ticking["silent-0"]  # the process "crashes"
            if step == check_evicted_at:
                deadline = time.time() + 10.0
                while (
                    server.metrics.counter("agents_evicted_stale") < 1
                    and time.time() < deadline
                ):
                    time.sleep(0.01)
            if step == return_at:
                ticking["silent-0"] = loops["silent-0"]  # it restarts
            if step == mem_probe_at:
                gc.collect()
                mem_mid = tracemalloc.get_traced_memory()[0]
        gc.collect()
        mem_end = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    wall_s = time.time() - started

    # settle: let in-flight frames (final heartbeats, trace replies) land
    deadline = time.time() + 5.0
    while time.time() < deadline:
        if server.anomaly_digests():
            break
        for name, loop in ticking.items():
            events[name].extend(loop.tick(clock.t, stop=stop))
        time.sleep(0.01)

    client = SnorlaxClient(module, _workload)
    failing = client.find_runs(True, 1)[0]
    state = {
        "server": server,
        "events": events,
        "mem_mid": mem_mid,
        "mem_end": mem_end,
        "wall_s": wall_s,
        "status": server.fleet_status(),
        "timeline": server.timeline(),
        "digests": server.anomaly_digests(),
        "signature": signature_for_failure("custom-readbeforeinit", failing),
        "module": module,
        "failing": failing,
    }
    yield state
    stop.set()
    for agent in agents.values():
        agent.close()
    server.stop()


def test_soak_covered_at_least_the_requested_simulated_time(soak):
    heartbeats = soak["server"].metrics.counter("heartbeats_received")
    # 4 endpoints beating every HEARTBEAT_S of simulated time, minus the
    # silent episode and flaky losses: half the ideal count is lenient
    ideal = 4 * SIM_SECONDS / HEARTBEAT_S
    assert heartbeats >= ideal / 2
    samples = soak["server"].metrics.counter("monitor_samples_received")
    assert samples >= 2 * (SIM_SECONDS / SAMPLE_S) / 2


def test_anomaly_digest_matches_on_demand(soak):
    digest = soak["digests"].get(soak["signature"])
    assert digest is not None, soak["digests"]
    in_process = SnorlaxServer(
        soak["module"],
        policy=CollectionPolicy(success_traces_wanted=SUCCESS_TRACES),
    ).diagnose(soak["failing"], SnorlaxClient(soak["module"], _workload)).report
    assert digest == report_digest(in_process)


def test_evidence_graph_is_queryable_and_consistent(soak):
    digest = soak["digests"][soak["signature"]]
    graph = soak["server"].evidence_graph(report_key(digest))
    assert graph is not None
    assert EvidenceGraph.from_dict(graph.to_dict()).digest() == graph.digest()
    assert graph.nodes_of_kind("report")
    assert graph.nodes_of_kind("pt_buffer")


def test_exactly_one_stale_eviction_and_no_stale_survivors(soak):
    assert soak["server"].metrics.counter("agents_evicted_stale") == 1
    rows = {r["agent_id"]: r for r in soak["status"]["agents"]}
    assert set(rows) == {"clean-0", "clean-1", "silent-0", "flaky-0"}
    for row in rows.values():
        assert row["alive"]
        assert row["last_seen_age_s"] <= TIMEOUT_S
    assert "reconnect" in soak["events"]["silent-0"]  # it came back


def test_flaky_endpoint_reconnected_through_corruption(soak):
    assert soak["events"]["flaky-0"].count("reconnect") >= 1
    assert soak["server"].metrics.counter("wire_errors") >= 1


def test_memory_is_flat_across_the_back_half(soak):
    assert soak["mem_mid"] is not None
    growth = soak["mem_end"] - soak["mem_mid"]
    assert growth < MEM_GROWTH_LIMIT, f"grew {growth} bytes"


def test_soak_report(soak, emit):
    server = soak["server"]
    m = server.metrics
    lines = [
        "fleet soak (always-on monitoring)",
        f"  simulated time        : {SIM_SECONDS} s "
        f"({SIM_SECONDS / 3600:.2f} h)",
        f"  wall time             : {soak['wall_s']:.1f} s",
        f"  heartbeats received   : {m.counter('heartbeats_received')}",
        f"  monitor samples       : {m.counter('monitor_samples_received')}",
        f"  failures seen         : {m.counter('monitor_failures_seen')}",
        f"  anomaly triggers      : {m.counter('anomaly_triggers')}",
        f"  diagnoses completed   : {m.counter('diagnoses_completed')}",
        f"  evidence graphs built : {m.counter('evidence_graphs_built')}",
        f"  stale evictions       : {m.counter('agents_evicted_stale')}",
        f"  wire errors (chaos)   : {m.counter('wire_errors')}",
        f"  flaky reconnects      : {soak['events']['flaky-0'].count('reconnect')}",
        f"  timeline events       : {len(soak['timeline'])}",
        f"  traced mem mid->end   : {soak['mem_mid']} -> {soak['mem_end']} bytes",
    ]
    emit("fleet_soak", "\n".join(lines))
