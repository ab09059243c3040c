"""``repro.fleet.shard`` — a consistent-hash sharded fleet.

One ``FleetServer`` owning every agent is the scalability ceiling the
ROADMAP names first: all diagnosis work and all cache state funnel
through a single process.  This module splits the fleet across N
server shards in one process group:

* :class:`HashRing` — consistent hashing with virtual nodes over the
  *failure signature*.  Placement is deterministic (SHA-256, no process
  entropy), balanced (virtual nodes smooth the ring), and stable under
  membership change: when one of N shards leaves, only the signatures
  it owned move (≈1/N of keys), the classic consistent-hashing bound.
* :class:`ShardedFleet` — the coordinator: starts N :class:`FleetServer`
  shards that share one metrics registry and one
  :class:`~repro.store.DiagnosisStore`, routes signatures to shard
  addresses, and handles membership (kill/restart a shard in place,
  or remove one and rebalance its signatures onto the survivors).

Cross-shard dedup is the store's job, not the router's: every shard
consults the shared store before dispatching a diagnosis, so a
signature diagnosed on shard A — or routed to shard B after A's
removal — is a store hit, never a second pipeline run.  Shard
placement therefore affects only *where* fresh work runs; it can never
change *what* a diagnosis concludes, which is why a shard-kill chaos
run must converge to digests byte-identical to the single-server run.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.errors import FleetError
from repro.fleet.server import FleetServer, format_signature
from repro.obs import MetricsRegistry

DEFAULT_VNODES = 128


def signature_for_failure(bug_id: str, failing_run) -> str:
    """The failure signature an agent can compute *before* connecting —
    byte-identical to the server's :func:`failure_signature` over the
    envelope this run would produce (``sample.failure`` is
    ``run.failure.report``, so the kinds agree).  This is what lets a
    reporter route itself: find the failure offline, hash the signature
    onto the ring, then connect to the owning shard."""
    code = failing_run.failure
    if code is None:
        raise FleetError("run did not fail; no signature to route")
    kind = code.report.kind if code.report is not None else "unknown"
    return format_signature(bug_id, kind, code.failing_uid)


class HashRing:
    """Consistent hashing with virtual nodes.

    Each node contributes ``vnodes`` points on a 64-bit ring (SHA-256
    of ``"{node}#{i}"`` — content-hashed, so placement is identical
    across processes and runs regardless of ``PYTHONHASHSEED``).  A key
    maps to the owner of the first ring point at or after its hash.
    """

    def __init__(self, nodes=(), vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise FleetError("hash ring needs vnodes >= 1")
        self.vnodes = vnodes
        self._nodes: set[str] = set()
        self._ring: list[tuple[int, str]] = []  # (point, node), sorted
        self._points: list[int] = []
        for node in nodes:
            self.add(node)

    @staticmethod
    def _point(label: str) -> int:
        return int.from_bytes(
            hashlib.sha256(label.encode()).digest()[:8], "big"
        )

    def _rebuild(self) -> None:
        self._ring.sort()
        self._points = [point for point, _ in self._ring]

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise FleetError(f"shard {node!r} is already on the ring")
        self._nodes.add(node)
        self._ring.extend(
            (self._point(f"{node}#{i}"), node) for i in range(self.vnodes)
        )
        self._rebuild()

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise FleetError(f"shard {node!r} is not on the ring")
        self._nodes.remove(node)
        self._ring = [(p, n) for p, n in self._ring if n != node]
        self._rebuild()

    def node_for(self, key: str) -> str:
        if not self._ring:
            raise FleetError("hash ring is empty")
        index = bisect.bisect_right(self._points, self._point(key))
        return self._ring[index % len(self._ring)][1]

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)


class ShardedFleet:
    """N fleet-server shards, one shared store, one metrics registry.

    All shards live in this process group (each ``FleetServer`` runs
    its own event-loop thread and worker pool), listen on their own
    ports, and write through to the same :class:`DiagnosisStore` — the
    multi-process deployment story with single-process testability.
    ``server_kwargs`` are forwarded to every shard's ``FleetServer``.
    One shard is Figure 2's single diagnosis server; ``run_fleet``
    drives every fleet, single-server or not, through this class.
    """

    def __init__(
        self,
        shards: int = 3,
        store=None,
        host: str = "127.0.0.1",
        metrics: MetricsRegistry | None = None,
        obs=None,
        **server_kwargs,
    ):
        if shards < 1:
            raise FleetError("a sharded fleet needs at least one shard")
        self.store = store
        self.metrics = metrics or MetricsRegistry()
        self.obs = obs
        names = [f"shard-{i}" for i in range(shards)]
        self.ring = HashRing(names)
        self.servers: dict[str, FleetServer] = {
            name: FleetServer(
                host=host,
                port=0,
                metrics=self.metrics,
                store=store,
                obs=obs,
                **server_kwargs,
            )
            for name in names
        }
        self._addresses: dict[str, tuple[str, int]] = {}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> dict[str, tuple[str, int]]:
        for name, server in self.servers.items():
            self._addresses[name] = server.start()
        return dict(self._addresses)

    def stop(self, drain: bool = True) -> None:
        for server in self.servers.values():
            server.stop(drain=drain)
        self._addresses.clear()
        if self.store is not None:
            self.store.absorb_into(self.metrics)

    # -- routing -----------------------------------------------------------

    def route(self, signature: str) -> str:
        """The owning shard's name (recorded as a ``shard_route`` span
        and counter, the placement side of the obs story)."""
        tracer = self.obs.tracer if self.obs is not None else None
        if tracer is None:
            from repro.obs.tracer import NULL_TRACER as tracer  # noqa: N813
        with tracer.span("shard_route", signature=signature) as span:
            name = self.ring.node_for(signature)
            span.set(shard=name)
        self.metrics.inc("shard_routes")
        self.metrics.inc(f"shard_routes_{name.replace('-', '_')}")
        return name

    def address_of(self, name: str) -> tuple[str, int]:
        try:
            return self._addresses[name]
        except KeyError:
            raise FleetError(f"shard {name!r} is not running") from None

    @property
    def shard_names(self) -> list[str]:
        return sorted(self.ring.nodes)

    # -- membership --------------------------------------------------------

    def restart_shard(self, name: str) -> None:
        """Kill a shard in place (drop its listener and every agent
        connection) and bring it back on the same port — the shard-kill
        chaos scenario.  Routing is unchanged; recovery is the agents'
        reconnect machinery plus the shared store's warm state."""
        if name not in self.servers:
            raise FleetError(f"unknown shard {name!r}")
        self.metrics.inc("shard_kills")
        self.servers[name].restart()

    def remove_shard(self, name: str, drain: bool = True) -> None:
        """Take a shard out of the fleet for good: stop its server and
        rebalance its ring segment onto the survivors.  Signatures it
        had already diagnosed are store hits wherever they land next."""
        if name not in self.servers:
            raise FleetError(f"unknown shard {name!r}")
        if len(self.servers) == 1:
            raise FleetError("cannot remove the last shard")
        server = self.servers.pop(name)
        self._addresses.pop(name, None)
        self.ring.remove(name)
        self.metrics.inc("shards_removed")
        server.stop(drain=drain)
