"""Unit tests for the extended binding state and its primitives."""

import random

import pytest

from repro.errors import BindingError
from repro.cdfg.builder import CDFGBuilder
from repro.datapath.units import ADDER, HardwareSpec, make_registers
from repro.sched.schedule import Schedule
from repro.core.binding import Binding
from repro.core.initial import initial_allocation, wire_reads
from repro.alloc.checker import check_binding

SPEC = HardwareSpec.non_pipelined()


def small_binding():
    """op1@0 -> V1 live (1,2,3); op2@3 consumes it; 2 adders, 4 regs."""
    b = CDFGBuilder("small")
    b.input("a").input("b")
    b.add("op1", "a", "b", "V1")
    b.add("op2", "V1", "V1", "V2")
    b.output("V2")
    graph = b.build()
    schedule = Schedule(graph, HardwareSpec([ADDER]), 4,
                        {"op1": 0, "op2": 3})
    fus = schedule.spec.make_fus({"adder": 2})
    return Binding(schedule, fus, make_registers(4))


class TestOpBinding:
    def test_bind_and_token_claims(self):
        b = small_binding()
        b.set_op_fu("op1", "adder0")
        assert b.op_fu["op1"] == "adder0"
        assert b.fu_tokens[("adder0", 0)] == ("op", "op1")

    def test_conflict_rejected(self):
        b = small_binding()
        b.set_op_fu("op1", "adder0")
        # another op at a different step on the same FU is fine
        b.set_op_fu("op2", "adder0")
        # two independent ops scheduled at the same step clash on one FU
        bb = CDFGBuilder("clash")
        bb.input("a").input("b")
        bb.add("op1", "a", "b", "V1")
        bb.add("op2", "a", "b", "V2")
        bb.output("V1")
        bb.output("V2")
        graph = bb.build()
        schedule = Schedule(graph, HardwareSpec([ADDER]), 2,
                            {"op1": 0, "op2": 0})
        binding = Binding(schedule, schedule.spec.make_fus({"adder": 2}),
                          make_registers(4))
        binding.set_op_fu("op1", "adder0")
        with pytest.raises(BindingError, match="busy"):
            binding.set_op_fu("op2", "adder0")

    def test_incapable_fu_rejected(self):
        b = small_binding()
        with pytest.raises(BindingError, match="unknown FU"):
            b.set_op_fu("op1", "mult0")

    def test_unbind_releases_tokens(self):
        b = small_binding()
        b.set_op_fu("op1", "adder0")
        b.set_op_fu("op1", None)
        assert ("adder0", 0) not in b.fu_tokens

    def test_undo_restores(self):
        b = small_binding()
        b.set_op_fu("op1", "adder0")
        b.begin_move()
        b.set_op_fu("op1", "adder1")
        b.abort_move()
        assert b.op_fu["op1"] == "adder0"
        assert b.fu_tokens == {("adder0", 0): ("op", "op1")}

    def test_swap_requires_commutative(self):
        b = CDFGBuilder("s")
        b.input("x").input("y")
        b.sub("d", "x", "y", "z")
        b.output("z")
        graph = b.build()
        schedule = Schedule(graph, SPEC, 2, {"d": 0})
        binding = Binding(schedule, SPEC.make_fus({"adder": 1, "mult": 0}),
                          make_registers(3))
        with pytest.raises(BindingError, match="illegal"):
            binding.set_op_swap("d", True)


class TestPlacements:
    def test_place_and_occupancy(self):
        b = small_binding()
        b.set_placements("V1", 1, ("R0",))
        assert b.reg_occ[("R0", 1)] == "V1"
        assert b.segment_regs("V1", 1) == ("R0",)

    def test_conflict_rejected(self):
        b = small_binding()
        b.set_placements("V1", 1, ("R0",))
        b.set_placements("a", 0, ("R0",))  # different step: fine
        with pytest.raises(BindingError, match="holds"):
            b.set_placements("b", 0, ("R0",))

    def test_non_live_step_rejected(self):
        b = small_binding()
        with pytest.raises(BindingError, match="not live"):
            b.set_placements("V1", 0, ("R0",))

    def test_duplicate_regs_rejected(self):
        b = small_binding()
        with pytest.raises(BindingError, match="duplicate"):
            b.set_placements("V1", 1, ("R0", "R0"))

    def test_copies_allowed(self):
        b = small_binding()
        b.set_placements("V1", 1, ("R0", "R1"))
        assert b.reg_occ[("R0", 1)] == "V1"
        assert b.reg_occ[("R1", 1)] == "V1"

    def test_port_captured_rejected(self):
        b = small_binding()
        with pytest.raises(BindingError, match="port-captured"):
            b.set_placements("V2", 4, ("R0",))

    def test_undo(self):
        b = small_binding()
        b.set_placements("V1", 1, ("R0",))
        b.begin_move()
        b.set_placements("V1", 1, ("R1",))
        b.abort_move()
        assert b.segment_regs("V1", 1) == ("R0",)
        assert ("R1", 1) not in b.reg_occ


class TestCostDerivation:
    def full(self):
        b = small_binding()
        b.set_op_fu("op1", "adder0")
        b.set_op_fu("op2", "adder0")
        b.set_placements("a", 0, ("R0",))
        b.set_placements("b", 0, ("R1",))
        for step in (1, 2, 3):
            b.set_placements("V1", step, ("R2",))
        wire_reads(b)
        return b

    def test_no_transfer_for_contiguous_value(self):
        b = self.full()
        cost = b.cost()
        # sinks: adder0.0 {R0, R2}, adder0.1 {R1, R2}, R0/R1 in_port,
        # R2 {adder0}, out_port V2 {adder0} -> 2 muxes
        assert cost.mux_count == 2
        assert check_binding(b) == []

    def test_transfer_adds_connection(self):
        b = self.full()
        base_wires = b.cost().wire_count
        b.set_placements("V1", 3, ("R3",))
        b.set_read_src("op2", 0, "R3")
        b.set_read_src("op2", 1, "R3")
        b.flush()
        assert b.cost().wire_count >= base_wires + 1
        assert check_binding(b) == []

    def test_passthrough_reroutes_events(self):
        b = self.full()
        b.set_placements("V1", 3, ("R3",))
        b.set_read_src("op2", 0, "R3")
        b.set_read_src("op2", 1, "R3")
        # adder1 idle at step 2: legal pass-through
        b.set_pt("V1", 3, "R3", ("R2", "adder1", 0))
        b.flush()
        assert check_binding(b) == []
        assert b.fu_tokens[("adder1", 2)][0] == "pt"

    def test_pt_on_busy_fu_rejected(self):
        b = self.full()
        # two copies at step 3 -> two transfers at the 2->3 boundary; both
        # cannot pass through the single idle adder1 at step 2
        b.set_placements("V1", 3, ("R3", "R1"))
        b.set_read_src("op2", 0, "R3")
        b.set_read_src("op2", 1, "R3")
        b.set_pt("V1", 3, "R3", ("R2", "adder1", 0))
        with pytest.raises(BindingError, match="busy"):
            b.set_pt("V1", 3, "R1", ("R2", "adder1", 0))

    def test_pt_without_transfer_rejected(self):
        b = self.full()
        with pytest.raises(BindingError, match="no transfer"):
            b.set_pt("V1", 2, "R2", ("R2", "adder1", 0))

    def test_pt_stale_source_rejected(self):
        b = self.full()
        b.set_placements("V1", 3, ("R3",))
        with pytest.raises(BindingError, match="does not hold"):
            b.set_pt("V1", 3, "R3", ("R1", "adder1", 0))

    def test_used_counts(self):
        b = self.full()
        assert b.fu_used_count() == 1
        assert b.reg_used_count() == 3


class TestSnapshots:
    def test_clone_restore_roundtrip(self, ewf19_binding):
        binding = ewf19_binding
        snap = binding.clone_state()
        cost = binding.cost().total
        # scramble: move an op and a value
        import random
        from repro.core.moves import MoveSet
        rng = random.Random(3)
        for name, fn, _w in MoveSet().enabled_moves():
            binding.begin_move()
            fn(binding, rng)
            binding.commit_move()
        binding.restore_state(snap)
        assert binding.cost().total == pytest.approx(cost)
        assert check_binding(binding) == []


def tick_order(binding):
    """Placements in insertion-tick order (the order snapshots list)."""
    return list(binding.clone_state()["placements"])


def exact_state(binding):
    """Everything a rollback must restore bit-for-bit."""
    return (binding.derived_snapshot(), binding.cost_from_scratch(),
            binding.clone_state(), tick_order(binding))


def swappable_step(binding):
    """A step with two placed values, the first not last in dict order."""
    keys = list(binding.placements)
    for index, (v1, step) in enumerate(keys[:-1]):
        for v2, other in keys[index + 1:]:
            if other == step and v2 != v1:
                return v1, v2, step
    raise AssertionError("no step holds two placed values")


class TestJournal:
    """The write journal is the binding's one rollback mechanism."""

    def test_mark_needs_an_open_move(self, ewf19_binding):
        with pytest.raises(BindingError, match="open move"):
            ewf19_binding.mark()

    def test_abort_restores_old_ticks_not_dict_order(self, ewf19_binding):
        from repro.core.moves import _swap_segments
        binding = ewf19_binding
        v1, v2, step = swappable_step(binding)
        before = exact_state(binding)
        order = list(binding.placements)
        binding.begin_move()
        _swap_segments(binding, v1, v2, step)  # pops and re-inserts v1
        binding.flush()
        binding.abort_move()
        assert exact_state(binding) == before
        assert before[3] == order
        # the popped key came back at the end of the dict, but with its
        # old tick, so snapshots still list the pre-move order
        assert list(binding.placements) != order
        assert list(binding.placements)[-1] == (v1, step)

    def test_revert_to_mark_after_flush(self, ewf19_binding):
        """The polish pass-through trial: hop, flush, bind a
        pass-through, flush, revert to the mark taken between them."""
        from repro.core.moves import _best_pt_choice, fixup_segment
        binding = ewf19_binding
        rng = random.Random(0)
        pre_move = exact_state(binding)
        for value in binding.movable_multi_step:
            steps = binding.interval(value).steps
            if any(len(binding.segment_regs(value, s)) != 1
                   for s in steps):
                continue
            for reg in binding.regs_sorted:
                if reg == binding.segment_regs(value, steps[-1])[0] or \
                        not binding.reg_free(reg, steps[-1]):
                    continue
                binding.begin_move()
                binding.set_placements(value, steps[-1], (reg,))
                fixup_segment(binding, value, steps[-1])
                binding.total_cost()
                impl = _best_pt_choice(binding, rng, value, steps[-1], reg,
                                       steps[-2])
                if impl is None:
                    binding.abort_move()
                    continue
                at_mark = exact_state(binding)
                mark = binding.mark()
                binding.set_pt(value, steps[-1], reg, impl)
                binding.total_cost()  # flush between apply and revert
                assert binding.pt_impl
                binding.revert_to(mark)
                assert exact_state(binding) == at_mark
                assert not binding.pt_impl
                binding.abort_move()
                assert exact_state(binding) == pre_move
                return
        pytest.fail("no hop with a pass-through choice found")

    def test_revert_to_mark_after_binding_error(self, ewf19_binding):
        """A move's retry: writes since the mark, then a BindingError
        mid-move, revert with nothing flushed in between."""
        from repro.core.moves import _swap_segments
        binding = ewf19_binding
        v1, v2, step = swappable_step(binding)
        pre_move = exact_state(binding)
        binding.begin_move()
        _swap_segments(binding, v1, v2, step)  # an earlier try, kept
        expected = binding.duplicate()
        ticks = tick_order(binding)
        mark = binding.mark()
        _swap_segments(binding, v1, v2, step)  # pops and re-inserts again
        occupied = binding.segment_regs(v2, step)[0]
        with pytest.raises(BindingError, match="holds"):
            binding.set_placements(v1, step, (occupied,))
        binding.revert_to(mark)
        assert tick_order(binding) == ticks
        assert binding.clone_state() == expected.clone_state()
        assert binding.derived_snapshot() == expected.derived_snapshot()
        assert binding.cost_from_scratch() == expected.cost_from_scratch()
        assert binding.cost() == expected.cost()
        binding.abort_move()
        assert exact_state(binding) == pre_move
