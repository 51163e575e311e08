#!/usr/bin/env python
"""A guided tour of the SALSA move set (the paper's Table 1).

Builds an allocation for the HAL differential-equation benchmark and
applies one instance of every move F1–F5 / R1–R6, reporting the cost
impact and rolling each back — a live illustration of the degrees of
freedom the extended binding model adds.
"""

import random

from repro.bench import hal_diffeq
from repro.datapath.units import HardwareSpec, make_registers
from repro.sched import schedule_graph
from repro.core import initial_allocation
from repro.core.moves import MoveSet

DESCRIPTIONS = {
    "F1": "FU Exchange: exchange binding of 2 FUs",
    "F2": "FU Move: reassign operator to unused FU",
    "F3": "Operand Reverse: switch FU inputs",
    "F4": "Bind to Pass-Through: assign slack/data transfer to FU",
    "F5": "Unbind Pass-Through: eliminate pass-through binding",
    "R1": "Segment Exchange: exchange binding of 2 value segments",
    "R2": "Segment Move: reassign value segment to unused register",
    "R2b": "Segment Hop: move a lifetime suffix (one transfer)",
    "R3": "Value Exchange: exchange bindings of two selected values",
    "R4": "Value Move: assign all segments of a value to unused register",
    "R5": "Value Split: copy of a value segment",
    "R6": "Value Merge: eliminate copy of value segment",
}


def main() -> None:
    graph = hal_diffeq()
    spec = HardwareSpec.non_pipelined()
    schedule = schedule_graph(graph, spec, 8)
    binding = initial_allocation(
        schedule, spec.make_fus(schedule.min_fus()),
        make_registers(schedule.min_registers() + 2))
    base = binding.cost()
    print(f"initial allocation: {base}")
    print()

    rng = random.Random(4)
    moves = {name: fn for name, fn, _w in MoveSet().enabled_moves()}
    # some moves need prior structure: hops create transfers for F4/F5,
    # splits create copies for R6
    warmup = ["R2b", "R2b", "F4", "R5"]
    for name in warmup:
        binding.begin_move()
        moves[name](binding, rng)
        binding.commit_move()
    staged = binding.cost().total
    print(f"(after staging some transfers/copies: total {staged:.2f})\n")

    order = ["F1", "F2", "F3", "F4", "F5",
             "R1", "R2", "R2b", "R3", "R4", "R5", "R6"]
    for name in order:
        # every move runs in a journaled bracket; abort_move reverts it
        binding.begin_move()
        if not moves[name](binding, rng):
            binding.commit_move()
            print(f"  {name:3s} {DESCRIPTIONS[name]:58s} (not applicable)")
            continue
        delta = binding.cost().total - staged
        print(f"  {name:3s} {DESCRIPTIONS[name]:58s} dCost {delta:+6.2f}")
        binding.abort_move()

    print(f"\nevery move rolled back; cost restored to "
          f"{binding.cost().total:.2f}")


if __name__ == "__main__":
    main()
