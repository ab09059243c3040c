"""Trace processing: steps 2 and 3 of Lazy Diagnosis (Figure 2).

Consumes a decoded trace snapshot and produces the two artifacts the
rest of the pipeline runs on:

* the **executed instruction set** — static uids that appear in any
  thread's decoded trace (step 2; an instruction executed many times
  counts once).  Hybrid points-to analysis restricts its scope to this
  set.
* the **partially-ordered dynamic instruction trace** (step 3) — every
  decoded dynamic instruction with its ``[t_lo, t_hi)`` interval, kept
  as the decoder's run records and expanded one uid at a time.  Two
  dynamic instructions from different threads are ordered iff their
  intervals are disjoint; same-thread instructions are totally ordered
  by program order.  The timing granularity of the trace (the MTC
  period) is far coarser than instruction execution, which is exactly
  why a partial — not total — order is all the hardware can give us,
  and, per the coarse interleaving hypothesis, all that diagnosis needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from repro.core.checkpoints import checkpoint
from repro.pt.decoder import DynamicInstruction, Run, ThreadTrace

# The order instances() returns: (t_lo, seq), fields 3 and 2 of the tuple.
_BUCKET_ORDER = itemgetter(3, 2)


@dataclass
class ProcessedTrace:
    """The per-execution artifact every later pipeline stage consumes.

    The dynamic trace stays in the decoder's compressed form, one run
    record per straight-line run; ``instances(uid)`` expands only the
    uid it is asked about (DESIGN.md §21).
    """

    label: str  # e.g. "failure" or "success-3"
    failing: bool
    executed_uids: set[int] = field(default_factory=set)
    threads: set[int] = field(default_factory=set)
    anchor: DynamicInstruction | None = None  # the failure / breakpoint hit
    anchors: list[DynamicInstruction] = field(default_factory=list)
    snapshot_time: int = 0
    max_timing_gap: int = 0
    # each decoded thread's (tid, run records), in merge order
    _runs: list[tuple[int, list[Run]]] = field(
        default_factory=list, init=False, repr=False
    )
    # synthesized instances (anchors, blocked attempts), in the order added
    _added: list[DynamicInstruction] = field(
        default_factory=list, init=False, repr=False
    )
    _next_seq: dict[int, int] = field(default_factory=dict, init=False, repr=False)
    # uid -> [(tid, offset, runs with the same uids)], built on demand
    _index: dict[int, list] | None = field(default=None, init=False, repr=False)
    _buckets: dict[int, list[DynamicInstruction]] = field(
        default_factory=dict, init=False, repr=False
    )

    def add_instance(self, inst: DynamicInstruction) -> None:
        """File an instance that is not in the decoded runs."""
        bucket = self.instances(inst.uid)
        bucket.append(inst)
        bucket.sort(key=_BUCKET_ORDER)
        self._added.append(inst)
        self.executed_uids.add(inst.uid)
        self.threads.add(inst.tid)
        if inst.seq >= self._next_seq.get(inst.tid, 0):
            self._next_seq[inst.tid] = inst.seq + 1

    def synthesize(self, uid: int, tid: int, time: int) -> DynamicInstruction:
        """Add a precise instance of ``uid`` on ``tid`` at ``time``,
        numbered after every instance the thread already has."""
        inst = DynamicInstruction(uid, tid, self._next_seq.get(tid, 0), time, time)
        self.add_instance(inst)
        return inst

    def instances(self, uid: int) -> list[DynamicInstruction]:
        """Every instance of ``uid``, sorted by ``(t_lo, seq)``.

        Expanded from the runs on the first call and memoized, so later
        calls return the same list of the same objects.
        """
        bucket = self._buckets.get(uid)
        if bucket is None:
            bucket = [
                DynamicInstruction(uid, tid, seq0 + k, t_lo, t_hi)
                for tid, k, group in self._run_index().get(uid, ())
                for _uids, t_lo, t_hi, seq0 in group
            ]
            bucket.sort(key=_BUCKET_ORDER)
            self._buckets[uid] = bucket
        return bucket

    def _run_index(self) -> dict[int, list]:
        """Where each uid occurs.  Each thread's runs are grouped by
        their uids (the walk table shares each tuple between runs), so
        building this costs one step per run and per distinct run, never
        one per executed instruction.  Entries keep the merge order of
        threads, which the stable bucket sort keeps for ties."""
        index = self._index
        if index is None:
            index = self._index = {}
            for tid, runs in self._runs:
                groups: dict[tuple[int, ...], list[Run]] = {}
                for run in runs:
                    groups.setdefault(run[0], []).append(run)
                for uids, group in groups.items():
                    for k, uid in enumerate(uids):
                        index.setdefault(uid, []).append((tid, k, group))
        return index

    # -- expanded views: goldens, the self-check and tests ------------------

    @property
    def by_uid(self) -> dict[int, list[DynamicInstruction]]:
        """Every non-empty ``instances()`` bucket, keyed by uid."""
        uids = [*self._run_index(), *(d.uid for d in self._added)]
        return {uid: b for uid in dict.fromkeys(uids) if (b := self.instances(uid))}

    @property
    def dynamic(self) -> list[DynamicInstruction]:
        """The whole dynamic trace: decoded threads in merge order, each
        in program order, then the synthesized instances in the order
        added.  Expanded from the runs independently of ``instances()``
        but made of its objects, so the two can be checked against each
        other by identity; an instance the buckets lack stays a fresh
        object."""
        filed = {d: d for bucket in self.by_uid.values() for d in bucket}
        out = []
        for tid, runs in self._runs:
            for uids, t_lo, t_hi, seq0 in runs:
                for k, uid in enumerate(uids):
                    d = DynamicInstruction(uid, tid, seq0 + k, t_lo, t_hi)
                    out.append(filed.get(d, d))
        out.extend(self._added)
        return out

    def last_instance_before(
        self, uid: int, bound: DynamicInstruction
    ) -> DynamicInstruction | None:
        """Latest dynamic instance of ``uid`` ordered before ``bound``."""
        best: DynamicInstruction | None = None
        for d in self.instances(uid):
            if d.before(bound) and (best is None or best.before(d)):
                best = d
        return best


def process_snapshot(
    label: str,
    thread_traces: dict[int, ThreadTrace],
    failing: bool,
    anchor_uid: int | None = None,
    anchor_tid: int | None = None,
    anchor_time: int | None = None,
) -> ProcessedTrace:
    """Build a :class:`ProcessedTrace` from decoded per-thread traces.

    Merges per-thread summaries and keeps the run records as they are:
    no per-instruction work.  ``anchor_uid`` is the failure PC (for
    failing executions) or the breakpoint PC (for successful executions
    collected at the previous failure location, step 8).  The anchor
    instruction itself usually is not in the decoded stream — it is the
    stop position — so a precise dynamic instance is synthesized for it
    at ``anchor_time`` (the failure/snapshot timestamp the error tracker
    reports).
    """
    pt = ProcessedTrace(label=label, failing=failing)
    next_seq = pt._next_seq
    for tid, trace in thread_traces.items():
        if trace.desync:
            continue
        pt.threads.add(tid)
        pt.executed_uids |= trace.executed_uids
        pt._runs.append((trace.tid, trace.runs))
        next_seq[trace.tid] = max(next_seq.get(trace.tid, 0), trace.next_seq)
        pt.max_timing_gap = max(pt.max_timing_gap, trace.max_timing_gap())
        pt.snapshot_time = max(pt.snapshot_time, trace.end_time)
    if anchor_uid is not None:
        t = anchor_time if anchor_time is not None else pt.snapshot_time
        tid = anchor_tid if anchor_tid is not None else _position_thread(
            thread_traces, anchor_uid
        )
        # synthesize registers the anchor's thread too — essential when
        # the anchoring thread's own trace was fully desynced and skipped
        # above, so the anchor is its only dynamic evidence — and files
        # it in (t_lo, seq) order: its timestamp can precede decoded
        # instances of the same uid, and instances() consumers
        # (attach_anchor's "last instance" pick) rely on that order.
        pt.anchor = pt.synthesize(anchor_uid, tid, t)
    checkpoint("trace_processing.process_snapshot", trace=pt)
    return pt


def _position_thread(thread_traces: dict[int, ThreadTrace], uid: int) -> int:
    for tid, trace in thread_traces.items():
        if trace.stop_uid == uid:
            return tid
    return min(thread_traces) if thread_traces else 0


def attach_anchor(
    trace: ProcessedTrace,
    uid: int,
    tid: int | None,
    time: int | None,
    prefer_decoded: bool = True,
) -> DynamicInstruction:
    """Resolve an anchor instruction to a dynamic instance.

    If the anchor was decoded in the anchoring thread (e.g. a backing
    load recovered by backward data-flow — it *did* execute before the
    failure), its last decoded instance is the anchor.  Otherwise a
    precise instance is synthesized at ``time`` (the failure / snapshot
    timestamp from the error tracker), which covers the failing
    instruction itself: the decoder stops right before it.
    """
    if tid is None:
        tid = min(trace.threads) if trace.threads else 0
    if prefer_decoded:
        decoded = [d for d in trace.instances(uid) if d.tid == tid]
        if decoded:
            anchor = decoded[-1]
            trace.anchors.append(anchor)
            if trace.anchor is None:
                trace.anchor = anchor
            return anchor
    t = time if time is not None else trace.snapshot_time
    anchor = trace.synthesize(uid, tid, t)
    trace.anchors.append(anchor)
    if trace.anchor is None:
        trace.anchor = anchor
    return anchor
