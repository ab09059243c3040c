"""Control-flow graph utilities.

Used by the PT decoder (re-walking branch decisions), the runtime server
(predecessor-block fallback for breakpoint placement, paper §4.1), and
Gist's control-dependence computation.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.module import Module


def successors(block: BasicBlock) -> list[BasicBlock]:
    return block.successors()


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


def dominators(fn: Function) -> dict[BasicBlock, set[BasicBlock]]:
    """Classic iterative dominator analysis.

    Returns, for each reachable block, the set of blocks that dominate it
    (including itself).  Unreachable blocks are absent.  The verifier
    uses this to enforce SSA def-dominates-use for cross-block values.
    """
    reachable = reachable_blocks(fn)
    blocks_in_order = [b for b in fn.blocks if b in reachable]
    preds = predecessors_map(fn)
    dom: dict[BasicBlock, set[BasicBlock]] = {
        b: set(blocks_in_order) for b in blocks_in_order
    }
    dom[fn.entry] = {fn.entry}
    changed = True
    while changed:
        changed = False
        for b in blocks_in_order:
            if b is fn.entry:
                continue
            block_preds = [p for p in preds[b] if p in reachable]
            if not block_preds:
                new = {b}
            else:
                new = set.intersection(*(dom[p] for p in block_preds)) | {b}
            if new != dom[b]:
                dom[b] = new
                changed = True
    return dom


def postorder(fn: Function) -> list[BasicBlock]:
    """Blocks of ``fn`` in postorder (children before parents)."""
    out: list[BasicBlock] = []
    seen: set[BasicBlock] = set()

    def visit(block: BasicBlock) -> None:
        if block in seen:
            return
        seen.add(block)
        for succ in block.successors():
            visit(succ)
        out.append(block)

    visit(fn.entry)
    return out


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


def blocks(module: Module) -> Iterable[BasicBlock]:
    for fn in module.functions.values():
        yield from fn.blocks
