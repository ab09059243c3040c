"""Control-flow graph utilities.

Used by the verifier (definitions must dominate their uses), the runtime
server (predecessor-block fallback for breakpoint placement, paper
§4.1), and Gist's control-dependence computation.
"""

from __future__ import annotations

from collections import deque

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function


def predecessors_map(fn: Function) -> dict[BasicBlock, list[BasicBlock]]:
    """Map each block of ``fn`` to the blocks that branch to it."""
    preds: dict[BasicBlock, list[BasicBlock]] = {b: [] for b in fn.blocks}
    for block in fn.blocks:
        for succ in block.successors():
            if succ in preds:  # foreign targets are the verifier's to report
                preds[succ].append(block)
    return preds


def reachable_blocks(fn: Function) -> set[BasicBlock]:
    """Blocks reachable from the entry block."""
    seen: set[BasicBlock] = set()
    work: deque[BasicBlock] = deque([fn.entry])
    while work:
        block = work.popleft()
        if block in seen:
            continue
        seen.add(block)
        work.extend(block.successors())
    return seen


def predecessor_chain(block: BasicBlock, max_depth: int = 8) -> list[BasicBlock]:
    """Blocks that can precede ``block``, nearest first, BFS order.

    This implements the server's fallback search when a trace cannot be
    triggered at the failure block itself (paper §4.1: "iterate over
    predecessor blocks until they reach a block where a trace can be
    generated").
    """
    fn = block.function
    if fn is None:
        return []
    preds = predecessors_map(fn)
    out: list[BasicBlock] = []
    seen = {block}
    frontier = deque(preds[block])
    depth = 0
    while frontier and depth < max_depth:
        next_frontier: deque[BasicBlock] = deque()
        while frontier:
            b = frontier.popleft()
            if b in seen:
                continue
            seen.add(b)
            out.append(b)
            next_frontier.extend(preds[b])
        frontier = next_frontier
        depth += 1
    return out


class DominatorTree:
    """Immediate dominators of a function's blocks.

    Cooper, Harvey and Kennedy's "A Simple, Fast Dominance Algorithm":
    number the blocks in postorder, then, in reverse postorder, set each
    block's immediate dominator to the meeting point of its processed
    predecessors' dominator chains, until no immediate dominator
    changes.  Only the
    function's own blocks and edges count.  A virtual root (``None``)
    heads the tree.  Its children are the entry block and, when a
    reachable branch leaves the function, every block reached back
    through another function that has no reachable predecessor of its
    own.  A block reached that way only around a cycle of the
    function's blocks is dominated by every reachable block.  This is
    the relation of the iterative data-flow formulation (dominator sets
    start full and intersect over reachable predecessors, the entry's
    is itself), which is what the verifier enforces.

    ``reachable`` holds the function's blocks reachable from its entry,
    following branches into other functions and back.
    """

    __slots__ = ("reachable", "_idom", "_number")

    def __init__(self, fn: Function):
        entry = fn.entry
        own = set(fn.blocks)
        roots = [entry]
        reachable = _reachable_within(entry, own)
        if reachable is None:  # a reachable branch leaves the function
            closure = reachable_blocks(fn)
            reachable = {b for b in fn.blocks if b in closure}
            preds = predecessors_map(fn)
            roots += [
                b
                for b in fn.blocks
                if b in reachable
                and b is not entry
                and not any(p in reachable for p in preds[b])
            ]
        self.reachable = reachable
        # postorder over own edges from the roots; the virtual root
        # comes last, so it has the highest number
        number: dict[BasicBlock | None, int] = {}
        order: list[BasicBlock] = []
        preds_of: dict[BasicBlock, list[BasicBlock | None]] = {r: [None] for r in roots}
        # the roots after the entry have no reachable predecessor, so no
        # earlier walk has numbered them
        for root in roots:
            number[root] = -1  # on the stack
            stack = [(root, iter(root.successors()))]
            while stack:
                block, succs = stack[-1]
                for succ in succs:
                    if succ not in own:
                        continue
                    if succ in preds_of:
                        preds_of[succ].append(block)
                    else:
                        preds_of[succ] = [block]
                    if succ not in number:
                        number[succ] = -1
                        stack.append((succ, iter(succ.successors())))
                        break
                else:
                    stack.pop()
                    number[block] = len(order)
                    order.append(block)
        number[None] = len(order)
        idom: dict[BasicBlock | None, BasicBlock | None] = {None: None}
        changed = True
        while changed:
            changed = False
            for block in reversed(order):
                new: BasicBlock | None = None
                first = True
                for pred in preds_of[block]:
                    if pred not in idom:
                        continue  # not processed yet
                    if first:
                        new, first = pred, False
                        continue
                    while pred is not new:  # walk both chains to where they meet
                        while number[pred] < number[new]:
                            pred = idom[pred]
                        while number[new] < number[pred]:
                            new = idom[new]
                if block not in idom or idom[block] is not new:
                    idom[block] = new
                    changed = True
        self._idom = idom
        self._number = number

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Whether ``a`` dominates ``b`` (a block dominates itself);
        False when ``b`` is unreachable."""
        number = self._number
        if b not in number:
            return b in self.reachable and a in self.reachable
        if a not in number:
            return False
        target = number[a]
        idom = self._idom
        while number[b] < target:
            b = idom[b]
        return b is a

    def dominators(self, b: BasicBlock) -> set[BasicBlock]:
        """The blocks that dominate reachable ``b``, ``b`` included."""
        if b not in self._number:
            return set(self.reachable)
        out = set()
        idom = self._idom
        node: BasicBlock | None = b
        while node is not None:
            out.add(node)
            node = idom[node]
        return out


def _reachable_within(entry: BasicBlock, own: set[BasicBlock]) -> set[BasicBlock] | None:
    """The blocks reachable from ``entry``, or None if a reachable
    branch targets a block outside ``own``."""
    seen = {entry}
    work = [entry]
    while work:
        for succ in work.pop().successors():
            if succ not in seen:
                if succ not in own:
                    return None
                seen.add(succ)
                work.append(succ)
    return seen


def dominators(fn: Function) -> dict[BasicBlock, set[BasicBlock]]:
    """For each reachable block of ``fn``, the set of blocks that
    dominate it, itself included, read from its :class:`DominatorTree`.
    Unreachable blocks are absent."""
    tree = DominatorTree(fn)
    return {b: tree.dominators(b) for b in fn.blocks if b in tree.reachable}


def postdominators(fn: Function) -> dict[BasicBlock, set[BasicBlock]]:
    """Classic iterative postdominator analysis over a virtual exit.

    Returns, for each reachable block, the set of blocks that
    postdominate it (every path from the block to function exit passes
    through them), including itself.
    """
    reachable = reachable_blocks(fn)
    blocks_in_order = [b for b in fn.blocks if b in reachable]
    exits = [b for b in blocks_in_order if not b.successors()]
    pdom: dict[BasicBlock, set[BasicBlock]] = {
        b: set(blocks_in_order) for b in blocks_in_order
    }
    for e in exits:
        pdom[e] = {e}
    changed = True
    while changed:
        changed = False
        for b in reversed(blocks_in_order):
            if b in exits:
                continue
            succs = [s for s in b.successors() if s in reachable]
            if not succs:
                new = {b}
            else:
                new = set.intersection(*(pdom[s] for s in succs)) | {b}
            if new != pdom[b]:
                pdom[b] = new
                changed = True
    return pdom


def control_dependent_blocks(fn: Function) -> dict[BasicBlock, set[BasicBlock]]:
    """Control dependence via postdominators (Ferrante et al.).

    Block B is control dependent on branch A iff A has a successor S
    such that B postdominates S, while B does not postdominate A — i.e.
    A's decision determines whether B must execute.  Gist's backward
    slicing consumes this map.
    """
    pdom = postdominators(fn)
    result: dict[BasicBlock, set[BasicBlock]] = {b: set() for b in fn.blocks}
    for brancher in fn.blocks:
        if brancher not in pdom:
            continue
        succs = [s for s in brancher.successors() if s in pdom]
        if len(succs) < 2:
            continue
        for succ in succs:
            for b in pdom[succ]:
                if b not in pdom[brancher] or b is brancher:
                    result[b].add(brancher)
    return result
