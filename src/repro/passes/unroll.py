"""Full unrolling of counted loops (paper, Example 4).

"Since QIR builds on the LLVM infrastructure, it is straight forward to
unroll any loops with statically known bounds [...] an optimization pass
does not have to handle the FOR-loop, but sees only the ten individual
Hadamard gates."

Recognised shape (what ``mem2reg`` produces from Example 4's IR):

* the loop header is the only exiting block, ending in a conditional
  branch with one in-loop and one out-of-loop successor;
* a single latch branches back to the header;
* an induction phi in the header steps by a constant from a constant
  start, and the header's branch condition compares that phi against a
  constant bound.

The loop is replaced by trip-count clones of its body chained in sequence
plus a final header clone that exits unconditionally; constant propagation
then folds each clone's induction value to a literal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.loops import Loop, find_natural_loops
from repro.llvmir import semantics
from repro.llvmir.block import BasicBlock
from repro.llvmir.function import Function
from repro.llvmir.instructions import (
    BinaryInst,
    BranchInst,
    CondBranchInst,
    ICmpInst,
    PhiInst,
)
from repro.llvmir.values import ConstantInt, Value
from repro.passes.cloning import clone_region
from repro.passes.manager import FunctionPass


class _CountedLoop:
    """Analysis result for an unrollable loop."""

    def __init__(
        self,
        loop: Loop,
        latch: BasicBlock,
        exit_block: BasicBlock,
        body_successor: BasicBlock,
        induction: PhiInst,
        trip_count: int,
        iteration_values: List[int],
    ):
        self.loop = loop
        self.latch = latch
        self.exit_block = exit_block
        self.body_successor = body_successor
        self.induction = induction
        self.trip_count = trip_count
        self.iteration_values = iteration_values


class LoopUnrollPass(FunctionPass):
    name = "loop-unroll"

    def __init__(self, max_trip_count: int = 4096, max_function_growth: int = 500_000):
        self.max_trip_count = max_trip_count
        self.max_function_growth = max_function_growth

    def run_on_function(self, fn: Function) -> bool:
        changed = False
        # Re-analyse after each unroll: block structure changes wholesale.
        while True:
            loops = find_natural_loops(fn)
            candidate: Optional[_CountedLoop] = None
            for loop in loops:
                if loop.children:  # innermost first
                    continue
                counted = self._analyse(fn, loop)
                if counted is not None:
                    candidate = counted
                    break
            if candidate is None:
                return changed
            loop_size = sum(len(b) for b in candidate.loop.blocks)
            if loop_size * candidate.trip_count > self.max_function_growth:
                return changed
            self._unroll(fn, candidate)
            changed = True

    # -- analysis ---------------------------------------------------------------
    def _analyse(self, fn: Function, loop: Loop) -> Optional[_CountedLoop]:
        header = loop.header
        if len(loop.latches) != 1:
            return None
        latch = loop.latches[0]

        term = header.terminator
        if not isinstance(term, CondBranchInst):
            return None
        in_loop = [s for s in term.successors() if s in loop.blocks]
        out_loop = [s for s in term.successors() if s not in loop.blocks]
        if len(in_loop) != 1 or len(out_loop) != 1:
            return None
        body_successor, exit_block = in_loop[0], out_loop[0]

        # The header must be the only exiting block.
        for block in loop.blocks:
            if block is header:
                continue
            if any(s not in loop.blocks for s in block.successors()):
                return None

        # Find the counted induction phi.
        condition = term.condition
        if not isinstance(condition, ICmpInst):
            return None

        for phi in header.phis():
            counted = self._match_induction(
                loop, phi, latch, condition, term, body_successor
            )
            if counted is not None:
                trip_count, values = counted
                if trip_count > self.max_trip_count:
                    return None
                return _CountedLoop(
                    loop, latch, exit_block, body_successor, phi, trip_count, values
                )
        return None

    def _match_induction(
        self,
        loop: Loop,
        phi: PhiInst,
        latch: BasicBlock,
        condition: ICmpInst,
        term: CondBranchInst,
        body_successor: BasicBlock,
    ) -> Optional[Tuple[int, List[int]]]:
        if len(phi.incoming) != 2:
            return None
        init: Optional[ConstantInt] = None
        step_value: Optional[Value] = None
        for value, pred in phi.incoming:
            if pred is latch:
                step_value = value
            elif isinstance(value, ConstantInt):
                init = value
        if init is None or step_value is None:
            return None
        if not isinstance(step_value, BinaryInst) or step_value.opcode not in (
            "add",
            "sub",
        ):
            return None
        if step_value.lhs is phi and isinstance(step_value.rhs, ConstantInt):
            step = step_value.rhs.value
        elif (
            step_value.rhs is phi
            and isinstance(step_value.lhs, ConstantInt)
            and step_value.opcode == "add"
        ):
            step = step_value.lhs.value
        else:
            return None
        if step_value.opcode == "sub":
            step = -step
        if step == 0:
            return None

        # Normalise the exit condition to pred(phi, bound).
        if condition.lhs is phi and isinstance(condition.rhs, ConstantInt):
            predicate, bound = condition.predicate, condition.rhs.value
        elif condition.rhs is phi and isinstance(condition.lhs, ConstantInt):
            predicate = _swap_predicate(condition.predicate)
            bound = condition.lhs.value
        else:
            return None
        # `condition true` may mean *continue* or *exit* depending on branch arms.
        continue_on_true = term.true_target is body_successor

        itype = phi.type
        values: List[int] = []
        current = init.value
        for _ in range(self.max_trip_count + 1):
            if semantics.icmp(predicate, itype, current, bound) != continue_on_true:
                return len(values), values
            values.append(current)
            current = itype.wrap(current + step)  # type: ignore[union-attr]
        return None

    # -- transformation ------------------------------------------------------------
    def _unroll(self, fn: Function, counted: _CountedLoop) -> None:
        loop = counted.loop
        header = loop.header
        latch = counted.latch
        exit_block = counted.exit_block
        blocks = _region_order(loop)
        n = counted.trip_count

        outside_preds = [p for p in header.predecessors() if p not in loop.blocks]

        # Exit-block phis currently have an arm for the original header;
        # gather them to rewire onto the final header clone.
        exit_phis = exit_block.phis()

        # Values defined in the header and used outside the loop must be
        # remapped to the final clone.  Uses of body-defined values outside
        # the loop would be unsound to remap; analysis guarantees the header
        # is the only exit, so such IR would already violate dominance.
        header_defs = [inst for inst in header.instructions if not inst.type.is_void]
        outside_users: Dict = {}
        for inst in header_defs:
            for user in inst.users:
                if user.parent is not None and user.parent not in loop.blocks:
                    outside_users.setdefault(inst, []).append(user)

        prev_latch: Optional[BasicBlock] = None
        prev_header: Optional[BasicBlock] = None
        prev_map: Dict[Value, Value] = {}
        first_header: Optional[BasicBlock] = None
        final_value_map: Dict[Value, Value] = {}
        cloned_headers: List[Tuple[BasicBlock, Dict[Value, Value]]] = []

        for k in range(n + 1):
            value_map: Dict[Value, Value] = {}
            # Seed the induction phi and any other header phis for this clone.
            for phi in header.phis():
                if k == 0:
                    # Arms from outside the loop: single value required.
                    outside_values = [
                        v for v, p in phi.incoming if p not in loop.blocks
                    ]
                    seed = outside_values[0]
                else:
                    back = phi.incoming_for(latch)
                    seed = prev_map.get(back, back)
                value_map[phi] = seed

            # The final clone only needs the header (it evaluates the exit
            # branch, which we replace with an unconditional exit anyway).
            region = blocks if k < n else [header]
            block_map = clone_region(region, fn, value_map, suffix=f"it{k}")
            new_header = block_map[header]

            # Drop the cloned phis (their uses were already seeded through
            # value_map at clone time; any stragglers get explicit rewrites).
            originals = header.phis()
            clones = new_header.phis()
            for original, clone in zip(originals, clones):
                clone.replace_all_uses_with(value_map[original])
            for clone in list(new_header.phis()):
                new_header.remove(clone)

            if k == n:
                # Final clone: exit unconditionally.
                term = new_header.terminator
                assert term is not None
                new_header.remove(term)
                new_header.append(BranchInst(exit_block))

            if prev_latch is not None:
                # The cloned back edge targets its own clone's header (the
                # block map pointed `header` there); chain it forward.
                prev_term = prev_latch.terminator
                assert prev_term is not None
                prev_term.replace_block_target(prev_header, new_header)
            if first_header is None:
                first_header = new_header
            if k < n:
                prev_latch = block_map[latch]
            prev_header = new_header
            prev_map = value_map
            cloned_headers.append((new_header, dict(value_map)))
            if k == n:
                final_value_map = value_map

        assert first_header is not None

        # Route original entry edges to iteration 0.
        for pred in outside_preds:
            term = pred.terminator
            assert term is not None
            term.replace_block_target(header, first_header)

        # Rewire exit phis: the arm from the original header becomes one arm
        # per cloned header that (still) branches to the exit block, each
        # carrying that clone's mapping of the original value.
        for phi in exit_phis:
            original_arm = phi.incoming_for(header)
            phi.remove_incoming(header)
            for cloned_header, clone_map in cloned_headers:
                if exit_block in cloned_header.successors():
                    phi.add_incoming(
                        clone_map.get(original_arm, original_arm), cloned_header
                    )

        # Remap outside uses of header-defined values to the final clone.
        for inst, users in outside_users.items():
            mapped = final_value_map.get(inst)
            if mapped is None:
                continue
            for user in users:
                user.replace_operand(inst, mapped)

        # Delete the original loop blocks.
        for block in blocks:
            for inst in list(block.instructions):
                block.remove(inst)
        for block in blocks:
            fn.remove_block(block)


def _swap_predicate(predicate: str) -> str:
    swaps = {
        "slt": "sgt", "sgt": "slt", "sle": "sge", "sge": "sle",
        "ult": "ugt", "ugt": "ult", "ule": "uge", "uge": "ule",
        "eq": "eq", "ne": "ne",
    }
    return swaps[predicate]


def _region_order(loop: Loop) -> List[BasicBlock]:
    """Loop blocks with the header first, rest in function order."""
    fn = loop.header.parent
    assert fn is not None
    ordered = [loop.header] + [
        b for b in fn.blocks if b in loop.blocks and b is not loop.header
    ]
    return ordered


