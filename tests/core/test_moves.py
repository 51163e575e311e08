"""Unit tests for the SALSA move set (paper Table 1).

Every move is exercised through a randomized harness that checks three
properties after each application: the binding stays legal, reverting
the move's journal restores the exact cost, and the ledger stays
consistent.  Moves run inside an open move of the binding
(``begin_move``), exactly as the search engines call them.
"""

import random

import pytest

from repro.errors import BindingError
from repro.core import moves as M
from repro.alloc.checker import check_binding


ALL_MOVES = dict(M.MoveSet._TABLE)


def apply_move(binding, fn, rng):
    """Run one move in its own journal bracket and keep the result."""
    binding.begin_move()
    applied = fn(binding, rng)
    binding.commit_move()
    return applied


def force_passthrough(binding) -> None:
    """Deterministically bind one pass-through, creating a transfer first
    if none exists — so pass-through tests never depend on what the
    randomized phase happened to produce."""
    def try_bind():
        for (value, step), regs in sorted(binding.placements.items()):
            prev = binding.interval(value).predecessor_step(step)
            if prev is None:
                continue
            prev_regs = binding.segment_regs(value, prev)
            if not prev_regs:
                continue
            for dst in regs:
                if dst in prev_regs:
                    continue
                for fu_name in sorted(binding.fus):
                    if not binding.fus[fu_name].fu_type.can_passthrough:
                        continue
                    if not binding.fu_free(fu_name, prev):
                        continue
                    try:
                        binding.set_pt(value, step, dst,
                                       (prev_regs[0], fu_name, 0))
                    except BindingError:
                        continue
                    binding.flush()
                    return True
        return False

    if try_bind():
        return
    # no transfer available: manufacture one by moving a mid-lifetime
    # segment into a free register, then bind the pass-through
    for (value, step), regs in sorted(binding.placements.items()):
        prev = binding.interval(value).predecessor_step(step)
        if prev is None or len(regs) != 1:
            continue
        prev_regs = binding.segment_regs(value, prev)
        if not prev_regs or regs[0] not in prev_regs:
            continue
        for free in sorted(binding.regs):
            if free in prev_regs or not binding.reg_free(free, step):
                continue
            binding.set_placements(value, step, (free,))
            M.fixup_segment(binding, value, step)
            binding.flush()
            if try_bind():
                return
    pytest.fail("could not construct a pass-through on this binding")


def run_move_many(binding, fn, seed=0, n=60, accept=lambda d: d <= 2.0):
    """Apply a move repeatedly, sometimes keeping it, checking legality."""
    rng = random.Random(seed)
    base = binding.cost().total
    applied = 0
    for _ in range(n):
        binding.begin_move()
        if not fn(binding, rng):
            binding.commit_move()
            continue
        applied += 1
        new = binding.cost().total
        problems = check_binding(binding)
        assert problems == [], (fn.__name__, problems[:3])
        if not accept(new - base):
            binding.abort_move()
            assert binding.cost().total == pytest.approx(base)
            assert check_binding(binding) == []
        else:
            binding.commit_move()
            base = new
    return applied


@pytest.mark.parametrize("name", sorted(ALL_MOVES))
def test_move_preserves_legality_and_undo(name, ewf19_binding):
    fn = ALL_MOVES[name]
    applied = run_move_many(ewf19_binding, fn, seed=11)
    # every move must actually fire on a real benchmark binding, except
    # F4/F5/R6 which need transfers/pass-throughs/copies to exist first
    if name not in ("F4", "F5", "R6"):
        assert applied > 0, f"move {name} never applied"


def test_f5_fires_after_f4(ewf19_binding):
    rng = random.Random(2)
    # create transfers (R2b hops), then pass-throughs, then unbind them
    for _ in range(40):
        apply_move(ewf19_binding, M.move_segment_hop, rng)
    for _ in range(40):
        apply_move(ewf19_binding, M.move_bind_passthrough, rng)
    if not ewf19_binding.pt_impl:
        # never skip: fall back to a deterministically constructed one
        force_passthrough(ewf19_binding)
    assert ewf19_binding.pt_impl
    assert apply_move(ewf19_binding, M.move_unbind_passthrough, rng)
    assert check_binding(ewf19_binding) == []


def test_r6_fires_after_r5(ewf19_binding):
    rng = random.Random(3)
    made = False
    for _ in range(60):
        made = apply_move(ewf19_binding, M.move_value_split, rng) or made
    assert made
    assert any(len(r) > 1 for r in ewf19_binding.placements.values())
    assert apply_move(ewf19_binding, M.move_value_merge, rng)
    assert check_binding(ewf19_binding) == []


def test_operand_reverse_toggles(diffeq_binding):
    rng = random.Random(0)
    before = dict(diffeq_binding.op_swap)
    diffeq_binding.begin_move()
    assert M.move_operand_reverse(diffeq_binding, rng)
    assert diffeq_binding.op_swap != before
    diffeq_binding.abort_move()
    assert {k: v for k, v in diffeq_binding.op_swap.items() if v} == \
        {k: v for k, v in before.items() if v}


def test_fu_exchange_swaps_assignments(ewf19_binding):
    rng = random.Random(5)
    before = dict(ewf19_binding.op_fu)
    for _ in range(30):
        if apply_move(ewf19_binding, M.move_fu_exchange, rng):
            break
    else:
        pytest.fail("F1 never applied")
    changed = {op for op in before
               if ewf19_binding.op_fu[op] != before[op]}
    assert len(changed) == 2
    a, b = sorted(changed)
    assert ewf19_binding.op_fu[a] == before[b] or \
        ewf19_binding.op_fu[b] == before[a]


def test_value_move_collapses_to_single_register(ewf19_binding):
    rng = random.Random(9)
    for _ in range(30):  # create some splits
        apply_move(ewf19_binding, M.move_segment_hop, rng)
    for _ in range(60):
        if apply_move(ewf19_binding, M.move_value_move, rng):
            break
    assert check_binding(ewf19_binding) == []


def test_move_set_gating():
    full = {name for name, _f, _w in M.MoveSet().enabled_moves()}
    assert full == set(ALL_MOVES)
    trad = {name for name, _f, _w in
            M.MoveSet.traditional().enabled_moves()}
    assert trad == {"F1", "F2", "F3", "R3", "R4"}
    no_pt = {name for name, _f, _w in
             M.MoveSet(passthroughs=False).enabled_moves()}
    assert "F4" not in no_pt and "F5" not in no_pt


def test_custom_weights_respected():
    ms = M.MoveSet(weights={"F1": 0.0, "F2": 5.0})
    enabled = {name: w for name, _f, w in ms.enabled_moves()}
    assert "F1" not in enabled
    assert enabled["F2"] == 5.0


def test_fixup_repairs_read_sources(ewf19_binding):
    binding = ewf19_binding
    # find a single-copy segment with a reader and move it manually
    for (value, step), regs in sorted(binding.placements.items()):
        readers = binding.reads_of(value, step)
        if len(regs) == 1 and readers:
            free = [r for r in sorted(binding.regs)
                    if binding.reg_free(r, step)]
            if not free:
                continue
            binding.set_placements(value, step, (free[0],))
            M.fixup_segment(binding, value, step)
            binding.flush()
            for op_name, port in readers:
                assert binding.read_src[(op_name, port)] == free[0]
            assert check_binding(binding) == []
            return
    pytest.fail("no movable read segment found")
