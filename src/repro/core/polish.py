"""Deterministic local polishing of a binding.

Systematic best-improvement sweeps over the cheap exhaustive neighborhoods
of the move set: alternative FU assignments (F2), operand reversals (F3),
read-source choices, whole-value register moves (R4), value-suffix hops
(R2b), and pass-through bind/unbind (F4/F5).  Each sweep tries every
candidate, keeps any strict improvement immediately, and the polish loop
repeats until a full pass makes no progress.

Every candidate runs inside a ``begin_move``/``commit_move``/``abort_move``
journal bracket: a rejected or illegal candidate is reverted by replaying
the binding's write journal (:meth:`~repro.core.binding.Binding.abort_move`),
the same cheap reject path the randomized engine uses.

The randomized engine (:mod:`repro.core.improve`) supplies the global
exploration; polishing collapses the search variance at the bottom of each
basin, which is what makes per-configuration comparisons between binding
models meaningful.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import BindingError
from repro.core.binding import Binding
from repro.core.moves import (MoveSet, _best_pt_choice, _direct_transfers,
                              _swap_segments, fixup_segment)
import random


def _tie_rng(rng: Optional[random.Random]) -> random.Random:
    """Tie-breaking RNG for ``_best_pt_choice`` in deterministic sweeps.

    Always a *fresh* seeded instance when none is threaded in: a module
    -level RNG would carry state across ``polish()`` calls, making a
    binding's polish result depend on how many polishes ran earlier in
    the process (and breaking the serial-vs-parallel bit-identity of
    :mod:`repro.core.parallel`).
    """
    return rng if rng is not None else random.Random(0)


def _try(binding: Binding, current: float) -> Optional[float]:
    """Commit the open journaled mutation if it strictly improves."""
    new = binding.total_cost()
    if new < current - 1e-9:
        binding.commit_move()
        return new
    binding.abort_move()
    return None


def sweep_fu_moves(binding: Binding, current: float) -> float:
    for op_name in sorted(binding.op_fu):
        kind = binding.graph.ops[op_name].kind
        busy = binding.busy_steps(op_name)
        for fu_name in sorted(binding.fus):
            if fu_name == binding.op_fu[op_name]:
                continue
            if not binding.fus[fu_name].fu_type.supports(kind):
                continue
            if not binding.fu_free_all(fu_name, busy):
                continue
            binding.begin_move()
            binding.set_op_fu(op_name, fu_name)
            improved = _try(binding, current)
            if improved is not None:
                current = improved
    return current


def sweep_operand_swaps(binding: Binding, current: float) -> float:
    for op_name, op in sorted(binding.graph.ops.items()):
        if op.arity != 2 or not op.commutative:
            continue
        flag = not binding.op_swap.get(op_name, False)
        binding.begin_move()
        binding.set_op_swap(op_name, flag)
        improved = _try(binding, current)
        if improved is not None:
            current = improved
    return current


def sweep_read_sources(binding: Binding, current: float) -> float:
    schedule = binding.schedule
    for vname, val in sorted(binding.graph.values.items()):
        for op_name, port in val.consumers:
            step = schedule.start[op_name]
            regs = binding.segment_regs(vname, step)
            if len(regs) < 2:
                continue
            for reg in regs:
                if reg == binding.read_src.get((op_name, port)):
                    continue
                binding.begin_move()
                binding.set_read_src(op_name, port, reg)
                improved = _try(binding, current)
                if improved is not None:
                    current = improved
    return current


def sweep_value_moves(binding: Binding, current: float) -> float:
    for value in sorted(binding.graph.values):
        if binding.port_captured(value):
            continue
        steps = binding.interval(value).steps
        for reg in sorted(binding.regs):
            if not all(binding.reg_occ.get((reg, s)) in (None, value)
                       for s in steps):
                continue
            if all(binding.segment_regs(value, s) == (reg,) for s in steps):
                continue
            binding.begin_move()
            try:
                for key in [k for k in binding.pt_impl if k[0] == value]:
                    binding.set_pt(key[0], key[1], key[2], None)
                for step in steps:
                    binding.set_placements(value, step, (reg,))
                    fixup_segment(binding, value, step)
            except BindingError:
                binding.abort_move()
                continue
            improved = _try(binding, current)
            if improved is not None:
                current = improved
    return current


def sweep_segment_hops(binding: Binding, current: float,
                       rng: Optional[random.Random] = None) -> float:
    """Try every (value, cut point, target register) suffix hop."""
    rng = _tie_rng(rng)
    for value in sorted(binding.graph.values):
        if binding.port_captured(value):
            continue
        steps = binding.interval(value).steps
        if len(steps) < 2:
            continue
        for cut in range(1, len(steps)):
            run = steps[cut:]
            if any(len(binding.segment_regs(value, s)) != 1 for s in run):
                continue
            src_step = steps[cut - 1]
            cur_reg = binding.segment_regs(value, run[0])[0]
            for reg in sorted(binding.regs):
                if reg == cur_reg:
                    continue
                if not all(binding.reg_free(reg, s) for s in run):
                    continue
                binding.begin_move()
                try:
                    for step in run:
                        binding.set_placements(value, step, (reg,))
                        fixup_segment(binding, value, step)
                    if reg not in binding.segment_regs(value, src_step):
                        hop_cost = binding.total_cost()
                        impl = _best_pt_choice(binding, rng, value,
                                               run[0], reg, src_step)
                        if impl is not None:
                            # inner trial inside the open move: a losing
                            # pass-through reverts to its own mark, the
                            # hop itself stays applied
                            mark = binding.mark()
                            binding.set_pt(value, run[0], reg, impl)
                            if binding.total_cost() >= hop_cost - 1e-9:
                                binding.revert_to(mark)
                except BindingError:
                    binding.abort_move()
                    continue
                improved = _try(binding, current)
                if improved is not None:
                    current = improved
    return current


def sweep_value_exchanges(binding: Binding, current: float) -> float:
    """Try swapping the placements of every pair of values stepwise at
    their shared live steps (exhaustive R1/R3 neighborhood)."""
    values = [v for v in sorted(binding.graph.values)
              if not binding.port_captured(v)]
    for i, v1 in enumerate(values):
        steps1 = set(binding.interval(v1).steps)
        for v2 in values[i + 1:]:
            shared = sorted(steps1 & set(binding.interval(v2).steps))
            if not shared:
                continue
            binding.begin_move()
            try:
                for step in shared:
                    _swap_segments(binding, v1, v2, step)
            except BindingError:
                binding.abort_move()
                continue
            improved = _try(binding, current)
            if improved is not None:
                current = improved
    return current


def sweep_passthroughs(binding: Binding, current: float,
                       rng: Optional[random.Random] = None) -> float:
    rng = _tie_rng(rng)
    # bind the best pass-through for every direct transfer
    for value, dst_step, dst_reg, src_step in _direct_transfers(binding):
        impl = _best_pt_choice(binding, rng, value, dst_step, dst_reg,
                               src_step)
        if impl is None:
            continue
        binding.begin_move()
        try:
            binding.set_pt(value, dst_step, dst_reg, impl)
        except BindingError:
            binding.abort_move()
            continue
        improved = _try(binding, current)
        if improved is not None:
            current = improved
    # and drop any pass-through that no longer pays for itself
    for key in sorted(binding.pt_impl):
        binding.begin_move()
        binding.set_pt(key[0], key[1], key[2], None)
        improved = _try(binding, current)
        if improved is not None:
            current = improved
    return current


def polish(binding: Binding, move_set: Optional[MoveSet] = None,
           max_rounds: int = 10) -> float:
    """Hill-climb to a local optimum; returns the final total cost.

    Fully deterministic: the tie-breaking RNG is created fresh per call,
    so polishing equal bindings gives equal results no matter how many
    polishes ran earlier in the process.
    """
    if move_set is None:
        move_set = MoveSet()
    rng = random.Random(0)
    current = binding.total_cost()
    for _ in range(max_rounds):
        before = current
        current = sweep_fu_moves(binding, current)
        if move_set.operand_swap:
            current = sweep_operand_swaps(binding, current)
        current = sweep_read_sources(binding, current)
        current = sweep_value_moves(binding, current)
        current = sweep_value_exchanges(binding, current)
        if move_set.segments:
            current = sweep_segment_hops(binding, current, rng=rng)
        if move_set.passthroughs:
            current = sweep_passthroughs(binding, current, rng=rng)
        if current >= before - 1e-9:
            break
    return current
