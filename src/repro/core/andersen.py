"""Inclusion-based (Andersen-style) points-to solvers.

Two solvers over the same constraint system, guaranteed to compute the
same least fixpoint:

* :func:`solve` — the optimized production solver: online cycle
  detection with SCC collapsing (strongly-connected subset-edge nodes
  are unioned into one representative, so a cycle propagates once
  instead of spinning) plus difference propagation (each node keeps the
  *delta* of objects not yet pushed to its successors, so an edge only
  ever moves new objects, never the whole set again).  This is the
  Nuutila/Pearce-style solver the diagnosis hot path runs on.
* :func:`solve_naive` — the classic textbook worklist: re-diffs full
  points-to sets on every propagation and never collapses cycles.
  Kept as ``algorithm="andersen-naive"`` for the randomized
  equivalence suite and the Figure 7 / Table 4 ablations.

Nodes are IR values plus one "contents" node per abstract object
(field-insensitive); copy constraints are subset edges; load/store
constraints add edges on the fly as points-to sets grow; indirect call
sites add parameter/return edges when a function object reaches the
callee expression (on-the-fly call graph).

Inclusion-based analysis is the more precise of the two classical
families (vs. unification/Steensgaard, implemented next door as a
comparator) and the one the paper's hybrid analysis is built on (§4.2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.constraints import (
    AbstractObject,
    ConstraintSystem,
    bind_indirect_call,
)
from repro.ir.values import Value


@dataclass(frozen=True)
class _ContentsNode:
    """The abstract contents of one object (what ``*obj`` may hold)."""

    obj: AbstractObject


@dataclass
class SolverStats:
    nodes: int = 0
    edges: int = 0
    propagations: int = 0
    indirect_resolutions: int = 0
    # optimized-solver extensions (zero for the naive solver)
    scc_collapses: int = 0  # nodes unioned into cycle representatives
    saved_propagations: int = 0  # objects delta propagation did not re-move
    seeded_objects: int = 0  # objects pre-loaded from a cached sub-scope

    def as_counters(self, prefix: str = "solver_") -> dict[str, int]:
        """The unified ``solver_*`` counter vocabulary a
        :class:`repro.obs.MetricsRegistry` absorbs after each solve."""
        return {
            f"{prefix}nodes": self.nodes,
            f"{prefix}edges": self.edges,
            f"{prefix}propagations": self.propagations,
            f"{prefix}indirect_resolutions": self.indirect_resolutions,
            f"{prefix}scc_collapses": self.scc_collapses,
            f"{prefix}saved_propagations": self.saved_propagations,
            f"{prefix}seeded_objects": self.seeded_objects,
        }


class AndersenResult:
    """Queryable points-to sets."""

    def __init__(self, pts: dict[object, set[AbstractObject]], stats: SolverStats):
        self._pts = pts
        self.stats = stats

    def points_to(self, value: Value) -> frozenset[AbstractObject]:
        return frozenset(self._pts.get(value, ()))

    def contents_of(self, obj: AbstractObject) -> frozenset[AbstractObject]:
        return frozenset(self._pts.get(_ContentsNode(obj), ()))

    def may_alias(self, a: Value, b: Value) -> bool:
        return bool(self.points_to(a) & self.points_to(b))

    def as_sets(self) -> dict[object, frozenset[AbstractObject]]:
        """Every node's points-to set, as independent frozensets (SCC
        members stop sharing storage).  This is the seeding surface:
        a cached sub-scope result replayed into a superset solve."""
        return {node: frozenset(objs) for node, objs in self._pts.items()}

def solve_naive(system: ConstraintSystem) -> AndersenResult:
    """The classic worklist solver (no SCC collapsing, full-set diffs)."""
    pts: dict[object, set[AbstractObject]] = {}
    succ: dict[object, set[object]] = {}
    # loads/stores indexed by the pointer node they dereference
    load_uses: dict[object, list[object]] = {}
    store_uses: dict[object, list[object]] = {}
    call_uses: dict[object, list] = {}
    stats = SolverStats()
    work: deque[object] = deque()

    def get_pts(node: object) -> set[AbstractObject]:
        return pts.setdefault(node, set())

    def add_edge(src: object, dst: object) -> None:
        edges = succ.setdefault(src, set())
        if dst in edges or src is dst:
            return
        edges.add(dst)
        stats.edges += 1
        if get_pts(src) - get_pts(dst):
            get_pts(dst).update(get_pts(src))
            work.append(dst)

    for node, objs in system.addr_of.items():
        get_pts(node).update(objs)
        work.append(node)
    for dst, src in system.copies:
        add_edge(src, dst)
    for dst, pointer in system.loads:
        load_uses.setdefault(pointer, []).append(dst)
        work.append(pointer)
    for pointer, src in system.stores:
        store_uses.setdefault(pointer, []).append(src)
        work.append(pointer)
    for instr, callee in system.indirect_calls:
        call_uses.setdefault(callee, []).append(instr)
        work.append(callee)

    resolved_calls: set[tuple[int, str]] = set()

    while work:
        node = work.popleft()
        node_pts = get_pts(node)
        if not node_pts:
            continue
        # load: dst >= *node  -> edge contents(o) -> dst for each o
        for dst in load_uses.get(node, ()):  # type: ignore[arg-type]
            for obj in list(node_pts):
                add_edge(_ContentsNode(obj), dst)
        # store through node: *node >= src -> edge src -> contents(o)
        for src in store_uses.get(node, ()):  # type: ignore[arg-type]
            for obj in list(node_pts):
                add_edge(src, _ContentsNode(obj))
        # indirect calls through node
        for instr in call_uses.get(node, ()):  # type: ignore[arg-type]
            for obj in list(node_pts):
                fn = system.functions_by_object.get(obj)
                if fn is None:
                    continue
                key = (instr.uid, fn.name)
                if key in resolved_calls:
                    continue
                resolved_calls.add(key)
                stats.indirect_resolutions += 1
                for dst, src in bind_indirect_call(system, instr, fn):
                    add_edge(src, dst)
        # propagate along subset edges
        for dst in succ.get(node, ()):  # type: ignore[arg-type]
            dst_pts = get_pts(dst)
            missing = node_pts - dst_pts
            if missing:
                dst_pts.update(missing)
                stats.propagations += 1
                work.append(dst)

    stats.nodes = len(pts)
    return AndersenResult(pts, stats)


class _OptimizedSolver:
    """SCC-collapsing, delta-propagating inclusion solver.

    Invariants:

    * every node has a representative under union-find; all per-node
      state (points-to set, delta, successor edges, load/store/call
      uses) lives on representatives only;
    * ``delta[rep]`` holds exactly the objects added to ``pts[rep]``
      that have not yet been pushed through ``rep``'s outgoing edges or
      shown to its load/store/call uses;
    * collapsing an SCC unions all per-node state and re-queues the
      merged points-to set, so anything some member's successors or
      moved uses have not seen yet is guaranteed to flow again.

    Merges are NOT confined to :meth:`_collapse_sccs`: online 2-cycle
    detection in :meth:`add_edge` can re-parent a node while its own
    popped delta is mid-flight in :meth:`_process`, which is why
    :meth:`_merge` re-queues the full set rather than trying to
    reconstruct what each side has already pushed.
    """

    def __init__(self, system: ConstraintSystem, seed: AndersenResult | None = None):
        self.system = system
        self.seed = seed
        self.stats = SolverStats()
        self.parent: dict[object, object] = {}  # child -> parent (roots absent)
        self.pts: dict[object, set[AbstractObject]] = {}
        self.delta: dict[object, set[AbstractObject]] = {}
        self.succ: dict[object, set[object]] = {}
        self.load_uses: dict[object, list[object]] = {}
        self.store_uses: dict[object, list[object]] = {}
        self.call_uses: dict[object, list] = {}
        self.all_nodes: set[object] = set()
        self.work: deque[object] = deque()
        self.resolved_calls: set[tuple[int, str]] = set()
        # Cycle detection is *lazy*: 2-cycles merge the moment the
        # closing edge appears (one reverse-edge lookup, always on);
        # longer cycles are swept by a full Tarjan pass only when
        # worklist churn — delta batches processed — exceeds the node
        # count, i.e. when cycles are demonstrably re-queuing nodes.
        # Acyclic or propagation-light programs (most whole-program
        # baselines) never pay for a single Tarjan pass.
        self.batches_since_collapse = 0
        self.collapse_threshold = 0  # set after init, when nodes are known

    # -- union-find --------------------------------------------------------

    def find(self, n: object) -> object:
        parent = self.parent
        root = n
        while root in parent:
            root = parent[root]
        while n in parent:  # path compression
            parent[n], n = root, parent[n]
        return root

    def _merge(self, a: object, b: object) -> object:
        """Union roots ``a`` and ``b`` (cycle collapse)."""
        pa = self.pts.get(a) or set()
        pb = self.pts.get(b) or set()
        if len(pb) > len(pa):  # keep the heavier set in place
            a, b = b, a
            pa, pb = pb, pa
        self.parent[b] = a
        self.stats.scc_collapses += 1
        if pb:
            pa |= pb
        self.pts[a] = pa
        self.pts.pop(b, None)
        da = self.delta.setdefault(a, set())
        db = self.delta.pop(b, None)
        if db:
            da |= db
        # Re-queue the merged node's FULL set, not just the symmetric
        # difference of the members: online 2-cycle detection fires
        # inside _process's use loops, so a merge can land while one
        # member's popped delta is still mid-flight — those objects sit
        # in both sets (invisible to the symmetric difference) yet may
        # not have crossed either side's successor edges or reached the
        # other member's moved uses.  Destinations re-diff on add_pts,
        # so the cost is one full-set diff per merge, not a re-flood.
        if pa:
            da |= pa
        succ_b = self.succ.pop(b, None)
        if succ_b:
            self.succ.setdefault(a, set()).update(succ_b)
        for uses in (self.load_uses, self.store_uses, self.call_uses):
            moved = uses.pop(b, None)
            if moved:
                uses.setdefault(a, []).extend(moved)
        if da:
            self.work.append(a)
        return a

    # -- graph mutation ----------------------------------------------------

    def _touch(self, n: object) -> None:
        self.all_nodes.add(n)

    def add_edge(self, src: object, dst: object) -> None:
        self._touch(src)
        self._touch(dst)
        rs, rd = self.find(src), self.find(dst)
        if rs is rd:
            return
        edges = self.succ.setdefault(rs, set())
        if rd in edges:
            return
        edges.add(rd)
        self.stats.edges += 1
        back = self.succ.get(rd)
        if back is not None and rs in back:
            # online 2-cycle detection: rs ⊆ rd and rd ⊆ rs hold, so
            # they are one node; merge now instead of propagating twice
            self._merge(rs, rd)
            return
        p = self.pts.get(rs)
        if p:
            self.add_pts(rd, p)

    def add_pts(self, rep: object, objs: set[AbstractObject]) -> bool:
        cur = self.pts.setdefault(rep, set())
        new = objs - cur
        if not new:
            return False
        cur |= new
        self.delta.setdefault(rep, set()).update(new)
        self.work.append(rep)
        return True

    # -- SCC collapsing ----------------------------------------------------

    def _collapse_sccs(self) -> None:
        """Tarjan over the current subset-edge graph; union every SCC.

        Also normalizes the successor map (edges re-pointed at current
        representatives, self-loops dropped), which bounds the stale
        aliases union-find leaves behind.
        """
        self.batches_since_collapse = 0
        graph: dict[object, set[object]] = {}
        for src, dsts in self.succ.items():
            rs = self.find(src)
            out = graph.setdefault(rs, set())
            for d in dsts:
                rd = self.find(d)
                if rd is not rs:
                    out.add(rd)
        # iterative Tarjan
        index: dict[object, int] = {}
        lowlink: dict[object, int] = {}
        on_stack: set[object] = set()
        stack: list[object] = []
        counter = 0
        sccs: list[list[object]] = []
        for start in list(graph):
            if start in index:
                continue
            dfs: list[tuple[object, list[object], int]] = [
                (start, list(graph.get(start, ())), 0)
            ]
            index[start] = lowlink[start] = counter
            counter += 1
            stack.append(start)
            on_stack.add(start)
            while dfs:
                node, edges, i = dfs.pop()
                advanced = False
                while i < len(edges):
                    nxt = edges[i]
                    i += 1
                    if nxt not in index:
                        index[nxt] = lowlink[nxt] = counter
                        counter += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        dfs.append((node, edges, i))
                        dfs.append((nxt, list(graph.get(nxt, ())), 0))
                        advanced = True
                        break
                    if nxt in on_stack:
                        lowlink[node] = min(lowlink[node], index[nxt])
                if advanced:
                    continue
                if lowlink[node] == index[node]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member is node:
                            break
                    if len(scc) > 1:
                        sccs.append(scc)
                if dfs:
                    parent_node = dfs[-1][0]
                    lowlink[parent_node] = min(
                        lowlink[parent_node], lowlink[node]
                    )
        for scc in sccs:
            rep = scc[0]
            for member in scc[1:]:
                rep = self._merge(self.find(rep), self.find(member))
        if sccs:
            rebuilt: dict[object, set[object]] = {}
            for src, dsts in graph.items():
                rs = self.find(src)
                out = rebuilt.setdefault(rs, set())
                for d in dsts:
                    rd = self.find(d)
                    if rd is not rs:
                        out.add(rd)
            self.succ = rebuilt

    # -- solving -----------------------------------------------------------

    def run(self) -> AndersenResult:
        system = self.system
        if self.seed is not None:
            # Incremental seeding: replay a cached sub-scope fixpoint
            # before loading this system's constraints.  Sound because a
            # sub-scope's constraints are a subset of this system's, so
            # its least fixpoint is contained in ours — starting the
            # monotone closure there converges to the identical lfp,
            # skipping the propagation work that derives those facts.
            for node, objs in self.seed.as_sets().items():
                if not objs:
                    continue
                self._touch(node)
                if self.add_pts(self.find(node), set(objs)):
                    self.stats.seeded_objects += len(objs)
        for node, objs in system.addr_of.items():
            self._touch(node)
            self.add_pts(self.find(node), set(objs))
        for dst, src in system.copies:
            self.add_edge(src, dst)
        for dst, pointer in system.loads:
            self._touch(pointer)
            self._touch(dst)
            self.load_uses.setdefault(self.find(pointer), []).append(dst)
        for pointer, src in system.stores:
            self._touch(pointer)
            self._touch(src)
            self.store_uses.setdefault(self.find(pointer), []).append(src)
        for instr, callee in system.indirect_calls:
            self._touch(callee)
            self.call_uses.setdefault(self.find(callee), []).append(instr)
        self.collapse_threshold = max(64, len(self.all_nodes))
        while self.work:
            if self.batches_since_collapse >= self.collapse_threshold:
                self._collapse_sccs()
            node = self.work.popleft()
            rep = self.find(node)
            d = self.delta.get(rep)
            if not d:
                continue
            self.delta[rep] = set()
            self.batches_since_collapse += 1
            self._process(rep, d)
        return self._result()

    def _process(self, rep: object, d: set[AbstractObject]) -> None:
        system = self.system
        for dst in self.load_uses.get(rep, ()):
            for obj in d:
                self.add_edge(_ContentsNode(obj), dst)
        for src in self.store_uses.get(rep, ()):
            for obj in d:
                self.add_edge(src, _ContentsNode(obj))
        for instr in self.call_uses.get(rep, ()):
            for obj in d:
                fn = system.functions_by_object.get(obj)
                if fn is None:
                    continue
                key = (instr.uid, fn.name)
                if key in self.resolved_calls:
                    continue
                self.resolved_calls.add(key)
                self.stats.indirect_resolutions += 1
                for dst, src in bind_indirect_call(system, instr, fn):
                    self.add_edge(src, dst)
        edges = self.succ.get(rep)
        if not edges:
            return
        # difference propagation: only the delta crosses each edge; the
        # naive solver would re-diff the full set every time.
        saved = len(self.pts.get(rep, ())) - len(d)
        for dst in list(edges):
            rd = self.find(dst)
            if rd is rep:
                continue
            if self.add_pts(rd, d):
                self.stats.propagations += 1
                if saved > 0:
                    self.stats.saved_propagations += saved

    def _result(self) -> AndersenResult:
        out: dict[object, set[AbstractObject]] = {}
        for n in self.all_nodes:
            objs = self.pts.get(self.find(n))
            if objs is not None:
                out[n] = objs  # SCC members intentionally share one set
        self.stats.nodes = len(self.all_nodes)
        return AndersenResult(out, self.stats)


def solve(
    system: ConstraintSystem, seed: AndersenResult | None = None
) -> AndersenResult:
    """Solve with the optimized (SCC-collapsing, delta) solver.

    ``seed`` is an optional cached result of a *sub-scope* of this
    system (same fingerprint, strictly fewer executed instructions);
    its points-to sets are pre-loaded so the worklist only derives the
    facts the wider scope adds.  The fixpoint is identical either way.
    """
    from repro.core.checkpoints import checkpoint

    result = _OptimizedSolver(system, seed=seed).run()
    checkpoint("andersen.solve", system=system, result=result)
    return result
