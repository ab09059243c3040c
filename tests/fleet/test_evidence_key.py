"""The evidence memoization key, derived from the frozen CollectionPolicy.

Regression for the cache-key audit: evidence collected under one policy
must never be replayed under another — a different preemption
granularity interleaves the very same seeds differently, and a
different stopping rule keeps a different sample prefix.  The key is
derived from ``dataclasses.fields``, so every field moves it; a new
field without an entry in ``CHANGED`` fails here until it gets one.
"""

import dataclasses

import pytest

from repro.api import SchedulerPolicy
from repro.fleet.server import FleetServer
from repro.runtime import CollectionPolicy

CHANGED = {
    "success_traces_wanted": 11,
    "max_collection_attempts": 500,
    "stopping": "stable-top",
    "stability_window": 5,
    "adaptive_min_traces": 2,
    "min_success_traces": 3,
    "deadline_s": 1.5,
    "scheduler": SchedulerPolicy(mean_quantum=8),
}


@pytest.mark.parametrize(
    "field", dataclasses.fields(CollectionPolicy), ids=lambda f: f.name
)
def test_every_policy_field_moves_the_cache_key(field):
    base = CollectionPolicy()
    changed = dataclasses.replace(base, **{field.name: CHANGED[field.name]})
    assert changed.cache_key() != base.cache_key()


def test_default_policy_cache_key_is_wire_compatible():
    # the pre-SchedulerPolicy fleet keyed evidence on the literal tuple
    # ("random", 24); the default policy must reproduce it byte for
    # byte so an in-place upgrade keeps its warm cache
    assert SchedulerPolicy().cache_key() == ("random", 24)
    assert SchedulerPolicy(mean_quantum=48).cache_key() == ("random", 48)


def test_unknown_stopping_mode_is_rejected_at_construction():
    with pytest.raises(ValueError, match="stopping"):
        CollectionPolicy(stopping="sometimes")


def test_fleet_kwargs_map_onto_one_policy():
    server = FleetServer(
        module_resolver=lambda bug_id: None,
        workers=1,
        success_traces_wanted=7,
        stopping="stable-top",
        stability_window=4,
        adaptive_min_traces=2,
        collection_deadline_s=3.0,
        min_success_traces=2,
        collection_policy=SchedulerPolicy(kind="hierarchical"),
    )
    try:
        assert server.policy == CollectionPolicy(
            success_traces_wanted=7,
            stopping="stable-top",
            stability_window=4,
            adaptive_min_traces=2,
            deadline_s=3.0,
            min_success_traces=2,
            scheduler=SchedulerPolicy(kind="hierarchical"),
        )
    finally:
        server.jobs.shutdown(wait=True)
