"""``run_fleet`` drives every fleet through one runner: a single server
is a one-shard :class:`ShardedFleet`.

These pin what the runner does with more than one shard: options only
a single shard supports are refused up front (never silently dropped),
and every endpoint connection's injected faults are accounted to its
agent, so per-agent fault counts add up to the fleet's ``chaos_*``
counters.
"""

import pytest

from repro.errors import FleetError
from repro.fleet import FaultPlan, FleetConfig, run_fleet
from repro.fleet.__main__ import main


@pytest.mark.parametrize(
    "unsupported", [{"monitoring": True}, {"dashboard_port": 0}]
)
def test_sharded_run_refuses_single_shard_options(unsupported):
    config = FleetConfig(agents=4, bug_ids=("aget-2",), shards=2, **unsupported)
    with pytest.raises(FleetError, match="single shard"):
        run_fleet(config)


@pytest.mark.parametrize(
    "flags", [["--monitor"], ["--dashboard-port", "0"]]
)
def test_cli_reports_single_shard_options_as_usage_errors(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--agents", "4", "--bugs", "aget-2", "--shards", "2", *flags])
    assert exc.value.code == 2
    assert "single shard" in capsys.readouterr().err


def test_sharded_population_faults_are_counted_per_agent():
    # every frame is delayed, so the population endpoints' HELLOs to
    # both shards land faults, not just the reporters' frames
    config = FleetConfig(
        agents=4,
        bug_ids=("aget-2",),
        reporters_per_bug=1,
        workers=1,
        shards=2,
        chaos=FaultPlan(seed=3, delay_rate=1.0, max_delay_s=0.001),
    )
    result = run_fleet(config)
    assert not [o for o in result.outcomes if o.error]
    population = [o for o in result.outcomes if not o.reporter]
    assert all(o.faults_injected.get("delayed") for o in population)
    per_agent = sum(sum(o.faults_injected.values()) for o in result.outcomes)
    assert per_agent == result.faults_injected > 0


def test_cli_rejects_unknown_bug_ids_as_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--agents", "4", "--bugs", "aget-2,nosuch-1"])
    assert exc.value.code == 2
    assert "nosuch-1" in capsys.readouterr().err


def test_digest_check_reruns_the_policy_the_fleet_ran():
    from repro.fleet.__main__ import _verify_digests
    from repro.obs import MetricsRegistry
    from repro.runtime import CollectionPolicy

    config = FleetConfig(
        agents=3,
        bug_ids=("aget-2",),
        reporters_per_bug=1,
        workers=1,
        success_traces_wanted=6,
        stopping="stable-top",
        collection_deadline_s=120.0,
    )
    result = run_fleet(config)
    assert result.policy == CollectionPolicy(
        success_traces_wanted=6, stopping="stable-top", deadline_s=120.0
    )
    assert len(result.digests) == 1
    metrics = MetricsRegistry()
    assert _verify_digests(result, metrics) == []
    assert metrics.counter("digest_mismatches") == 0
