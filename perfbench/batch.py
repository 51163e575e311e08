"""Batch workloads: allocations run in-process, one after another.

``zoo_batch`` runs the nine ``default_suite`` scenarios of the seed with the
fast sweep budget (polish does most of the work); ``paper_search`` runs
the paper's Sec. 4 search on the Table 2/3 design points with polish off
(the move engine does nearly all of it).

One allocation is the pipeline a user of the library runs: schedule,
allocate, check, netlist, mux merge, Verilog, static timing, JSON
encode.  Only that pipeline is timed; the RTL round trip and the JSON
decode check of every delivered binding run after the clock stops.
An untraced run times every allocation several times, in whole sweeps
over the workload.  A fixed pure-Python loop runs between allocations,
and each allocation's time is scaled by how long that loop took around
it, so a host that runs everything slower for a minute does not read as
a slower program.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.alloc import checker
from repro.bench import discrete_cosine_transform, elliptic_wave_filter
from repro.bench.runner import FAST_BUDGET
from repro.bench.zoo import default_suite
from repro.core import ImproveConfig, SalsaAllocator
from repro.datapath.muxmerge import merge_muxes
from repro.datapath.netlist import build_netlist
from repro.datapath.rtl import netlist_to_verilog
from repro.io.json_io import binding_from_json, binding_to_dict, \
    canonical_dumps
from repro.rng import SeedStream
from repro.sched import HardwareSpec
from repro.sched.asap import asap_length
from repro.sched.explore import schedule_graph
from repro.timing.rtlcheck import roundtrip_binding
from repro.timing.sta import analyze_netlist

from spans import Tracer

#: the paper's Table 2 (EWF) and Table 3 (DCT) schedule lengths
PAPER_POINTS = (("ewf", 17), ("ewf", 19), ("ewf", 21), ("dct", 10),
                ("dct", 12))

#: trials of every paper search, none cut short
PAPER_TRIALS = 6

#: what :func:`reference_loop` takes on the 2-core x86 VM the bounds
#: were set on (py3.11.7); scaled times read as if the host always ran it
#: this fast
REFERENCE_S = 0.008

#: the committed zoo sweep results that seed 0 must reproduce exactly
GOLDEN = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "results", "bench_zoo.json")


@dataclass
class Item:
    """One allocation problem, built during set-up."""

    name: str
    graph: Any
    spec: HardwareSpec
    length: int
    registers_extra: Optional[int]
    allocator: SalsaAllocator
    label: str = ""


@dataclass
class Delivered:
    """What one timed allocation handed back."""

    binding: Any
    encoded: str
    cost: float
    mux: int
    clock_ns: float
    violations: int
    seconds: float
    #: the reference loop's time around this allocation (mean of the loop
    #: before it and the loop after it)
    host_s: float = 0.0

    @property
    def scaled_seconds(self) -> float:
        """``seconds`` on a host that runs the reference loop in
        ``REFERENCE_S``."""
        return self.seconds * REFERENCE_S / self.host_s


def zoo_items(seed: int) -> List[Item]:
    items = []
    for scenario in default_suite(seed):
        graph = scenario.build()
        spec = scenario.spec()
        definition = scenario.definition
        # the seeding and budget of repro.bench.runner.run_scenario, so
        # seed 0 is the committed zoo sweep
        allocator = SalsaAllocator(
            seed=SeedStream(scenario.seed).child(definition.fid, 0xB),
            restarts=2, config=FAST_BUDGET)
        items.append(Item(
            name=scenario.name, graph=graph, spec=spec,
            length=asap_length(graph, spec) + definition.length_slack,
            registers_extra=definition.extra_registers,
            allocator=allocator, label=scenario.name))
    return items


def paper_items(seed: int) -> List[Item]:
    graphs = {"ewf": elliptic_wave_filter(),
              "dct": discrete_cosine_transform()}
    spec = HardwareSpec.non_pipelined()
    # every search runs all its trials: with the default stop after three
    # idle trials, a search's length swings up to 2:1 with the seed and
    # the run's rate with it.  Six trials of the default 1500 moves take
    # a little longer than a default search on these points (about 1.1 s
    # against 0.4 to 1.0 s).
    config = ImproveConfig(polish_trials=False, max_trials=PAPER_TRIALS,
                           idle_trials_stop=PAPER_TRIALS)
    return [Item(name=f"{bench}-L{length}-s{seed}", graph=graphs[bench],
                 spec=spec, length=length, registers_extra=None,
                 allocator=SalsaAllocator(seed=seed, restarts=1,
                                          config=config))
            for bench, length in PAPER_POINTS]


#: the allocations of each workload, built from the workload seed
WORKLOADS: Dict[str, Callable[[int], List[Item]]] = {
    "zoo_batch": zoo_items,
    "paper_search": paper_items,
}

#: an untraced run sweeps over its allocations until ``--seconds`` have
#: passed, and at least this many times; an allocation's time is the
#: median of its scaled sweeps
MIN_SWEEPS = 3


def reference_loop() -> float:
    """Seconds of a fixed pure-Python loop: the host's speed just now.

    The host's speed swings by a third or more, for seconds to minutes
    at a time, and the allocator slows with it.  The loop's time, taken
    between allocations, follows those swings and not the program.
    """
    started = time.perf_counter()
    total = 0
    for index in range(100_000):
        total += index * index
    return time.perf_counter() - started


def allocate(item: Item, tracer: Tracer) -> Delivered:
    """The timed pipeline for one item (spans only when tracing)."""
    call = tracer.call
    started = time.perf_counter()
    schedule = call("sched.schedule", schedule_graph, item.graph, item.spec,
                    length=item.length, method="list", label=item.label)
    registers = None
    if item.registers_extra is not None:
        registers = schedule.min_registers() + item.registers_extra
    result = item.allocator.allocate(item.graph, schedule=schedule,
                                     spec=item.spec, registers=registers)
    binding = result.binding
    violations = checker.check_binding(binding)
    netlist = call("datapath.netlist", build_netlist, binding)
    call("datapath.muxmerge", merge_muxes, netlist)
    call("datapath.rtl", netlist_to_verilog, netlist)
    timing = call("timing.sta", analyze_netlist, netlist)
    encoded = call("io.encode", _encode, binding)
    return Delivered(binding=binding, encoded=encoded,
                     cost=result.cost.total, mux=result.cost.mux_count,
                     clock_ns=timing.clock_period_ns,
                     violations=len(violations),
                     seconds=time.perf_counter() - started)


def _encode(binding: Any) -> str:
    return canonical_dumps(binding_to_dict(binding))


def run_items(items: List[Item], tracer: Tracer,
              tag: str) -> List[Delivered]:
    """Allocate every item once, with the reference loop before the
    first allocation and after each one."""
    delivered = []
    before = reference_loop()
    for index, item in enumerate(items):
        got = tracer.call("bench.alloc", allocate, item, tracer,
                          span_id=f"{tag}/{index}/{item.name}")
        after = reference_loop()
        got.host_s = (before + after) / 2
        before = after
        delivered.append(got)
    return delivered


def verify(delivered: Delivered) -> List[str]:
    """Every problem with one delivered binding (empty when correct)."""
    problems = []
    if delivered.violations:
        problems.append(f"{delivered.violations} checker violations")
    report = roundtrip_binding(delivered.binding)
    if not report.ok:
        problems.append(f"RTL round trip: {report}")
    decoded = binding_from_json(delivered.encoded)
    if decoded.cost().total != delivered.cost:
        problems.append("JSON round trip changed the cost")
    return problems


def golden_problems(items: List[Item],
                    delivered: List[Delivered]) -> Dict[str, List[str]]:
    """Seed-0 quality pin against the committed zoo sweep, per item."""
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        rows = json.load(handle)["rows"]
    ran = {item.name for item in items}
    problems: Dict[str, List[str]] = {name: ["golden row not run"]
                                      for name in rows if name not in ran}
    for item, got in zip(items, delivered):
        want = rows.get(item.name)
        if want is None:
            continue
        fields = (("cost_total", round(got.cost, 6)),
                  ("mux_count", got.mux),
                  ("clock_period_ns", round(got.clock_ns, 6)))
        for field, value in fields:
            if value != want[field]:
                problems.setdefault(item.name, []).append(
                    f"{field} {value!r} != golden {want[field]!r}")
    return problems
