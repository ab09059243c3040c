"""Consistent-hash ring: determinism, bounded movement, balance."""

import pytest

from repro.errors import FleetError
from repro.fleet.shard import DEFAULT_VNODES, HashRing


def _signatures(n: int) -> list[str]:
    # synthetic but signature-shaped: many bugs, many failing PCs
    return [f"bug-{i % 37}|crash|{i}" for i in range(n)]


def test_placement_is_deterministic_across_instances():
    names = [f"shard-{i}" for i in range(5)]
    a = HashRing(names)
    b = HashRing(reversed(names))  # construction order must not matter
    sigs = _signatures(1_000)
    assert [a.node_for(s) for s in sigs] == [b.node_for(s) for s in sigs]


def test_removal_moves_only_the_leavers_keys():
    n = 5
    ring = HashRing([f"shard-{i}" for i in range(n)])
    sigs = _signatures(10_000)
    before = {s: ring.node_for(s) for s in sigs}
    ring.remove("shard-2")
    moved = 0
    for s in sigs:
        after = ring.node_for(s)
        if after != before[s]:
            # consistent hashing: survivors' keys never move
            assert before[s] == "shard-2"
            moved += 1
    # the leaver owned ~1/N of the keys; movement stays under 2/N
    assert 0 < moved < 2 * len(sigs) / n


def test_add_back_restores_the_original_placement():
    ring = HashRing([f"shard-{i}" for i in range(4)])
    sigs = _signatures(2_000)
    before = {s: ring.node_for(s) for s in sigs}
    ring.remove("shard-1")
    ring.add("shard-1")
    assert {s: ring.node_for(s) for s in sigs} == before


def test_placement_is_balanced_within_2x_ideal():
    shards = 10
    sigs = _signatures(10_000)
    ring = HashRing([f"shard-{i}" for i in range(shards)])
    groups: dict[str, list[str]] = {name: [] for name in ring.nodes}
    for s in sigs:
        groups[ring.node_for(s)].append(s)
    ideal = len(sigs) / shards
    assert sum(len(g) for g in groups.values()) == len(sigs)
    for name, keys in groups.items():
        assert len(keys) <= 2 * ideal, (
            f"{name} owns {len(keys)} of {len(sigs)} keys "
            f"(ideal {ideal:.0f})"
        )
        assert len(keys) >= ideal / 2, f"{name} starved at {len(keys)} keys"


def test_ring_membership_errors():
    ring = HashRing(["a", "b"])
    with pytest.raises(FleetError):
        ring.add("a")
    with pytest.raises(FleetError):
        ring.remove("missing")
    ring.remove("a")
    ring.remove("b")
    with pytest.raises(FleetError):
        ring.node_for("key")
    with pytest.raises(FleetError):
        HashRing(vnodes=0)


def test_vnodes_default_smooths_the_ring():
    ring = HashRing(["a", "b", "c"])
    assert len(ring._ring) == 3 * DEFAULT_VNODES
    assert len(ring) == 3
    assert ring.nodes == frozenset({"a", "b", "c"})
