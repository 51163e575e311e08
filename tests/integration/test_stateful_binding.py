"""Stateful property test: the binding state machine under random moves.

A hypothesis ``RuleBasedStateMachine`` drives a real EWF binding through
arbitrary interleavings of moves, rollbacks, snapshots and restores, and
checks the system's core invariants after every rule:

* the binding always passes the full legality checker;
* the incrementally-maintained ledger always matches a from-scratch
  re-derivation (via the checker);
* rollback restores the exact cost;
* snapshot/restore round-trips exactly.
"""

import random

import pytest
from hypothesis import settings
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)
from hypothesis import strategies as st

from repro.bench import hal_diffeq
from repro.datapath.units import HardwareSpec, make_registers
from repro.sched.explore import schedule_graph
from repro.core.initial import initial_allocation
from repro.core.moves import MoveSet
from repro.alloc.checker import check_binding

SPEC = HardwareSpec.non_pipelined()
MOVES = {name: fn for name, fn, _w in MoveSet().enabled_moves()}


class BindingMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        graph = hal_diffeq()
        schedule = schedule_graph(graph, SPEC, 8)
        self.binding = initial_allocation(
            schedule, SPEC.make_fus(schedule.min_fus()),
            make_registers(schedule.min_registers() + 2))
        self.rng = random.Random(0)
        self.snapshot = None
        self.snapshot_cost = None
        self.pending = None  # cost before the open move

    @rule(name=st.sampled_from(sorted(MOVES)), seed=st.integers(0, 9999))
    def apply_move(self, name, seed):
        if self.pending is not None:
            return
        self.rng.seed(seed)
        before = self.binding.cost().total
        self.binding.begin_move()
        if MOVES[name](self.binding, self.rng):
            self.pending = before
        else:
            self.binding.commit_move()

    @precondition(lambda self: self.pending is not None)
    @rule(keep=st.booleans())
    def resolve_move(self, keep):
        before = self.pending
        self.pending = None
        if keep:
            self.binding.cost()
            self.binding.commit_move()
        else:
            self.binding.abort_move()
            assert self.binding.cost().total == pytest.approx(before)

    @precondition(lambda self: self.pending is None)
    @rule()
    def take_snapshot(self):
        self.snapshot = self.binding.clone_state()
        self.snapshot_cost = self.binding.cost().total

    @precondition(lambda self: self.snapshot is not None
                  and self.pending is None)
    @rule()
    def restore_snapshot(self):
        self.binding.restore_state(self.snapshot)
        assert self.binding.cost().total == pytest.approx(
            self.snapshot_cost)

    @invariant()
    def always_legal(self):
        if self.pending is not None:
            return  # mid-move: resolve first
        problems = check_binding(self.binding)
        assert problems == [], problems[:3]


BindingMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None)
TestBindingMachine = BindingMachine.TestCase
