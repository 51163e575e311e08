"""Trajectory golden for the binding's one snapshot and one rollback.

The binding state is the name-keyed decision dicts alone: ``clone_state``
returns them, ``restore_state`` replays them through the primitives, and
every rollback replays the binding's write journal.  The searches below
were digested when the state was still mirrored into array columns and
restored through a second, diff-replay path; each digest covers the
best/cost traces, the final decision dicts and the ``placements``
iteration order (dict order feeds the transfer-enumeration RNG, so an
ordering difference *is* a trajectory difference).  Any change to the
snapshot, restore or rollback mechanics that perturbs a search shows up
here as a digest mismatch.

Regenerate the golden (only when a trajectory change is intended) with::

    PYTHONPATH=src python tests/core/test_state_backend.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys

import pytest

from repro.bench import discrete_cosine_transform, elliptic_wave_filter
from repro.core import (AnnealConfig, ImproveConfig, SalsaAllocator, anneal,
                        improve, initial_allocation)
from repro.datapath.units import HardwareSpec, make_registers
from repro.sched.explore import schedule_graph
from repro.verify.sanitizer import decode_state, encode_state

SPEC = HardwareSpec.non_pipelined()

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "fixtures", "trajectory_digests.json")

SECTIONS = ("op_fu", "op_swap", "placements", "read_src", "out_src",
            "pt_impl")


def fresh_binding(bench="ewf"):
    if bench == "ewf":
        graph, length = elliptic_wave_filter(), 17
    else:
        graph, length = discrete_cosine_transform(), 10
    schedule = schedule_graph(graph, SPEC, length)
    return initial_allocation(
        schedule, SPEC.make_fus(schedule.min_fus()),
        make_registers(schedule.min_registers() + 1))


def decisions(binding):
    """The live decision dicts, order-free except ``placements`` order."""
    return {
        "op_fu": sorted(binding.op_fu.items()),
        "op_swap": sorted(op for op, flag in binding.op_swap.items()
                          if flag),
        "placements": sorted([value, step, list(regs)] for (value, step),
                             regs in binding.placements.items()),
        "placement_order": [[value, step]
                            for value, step in binding.placements],
        "read_src": sorted([op, port, reg] for (op, port), reg
                           in binding.read_src.items()),
        "out_src": sorted(binding.out_src.items()),
        "pt_impl": sorted([value, step, reg, list(impl)] for
                          (value, step, reg), impl
                          in binding.pt_impl.items()),
    }


def trajectory_digest(stats_list, binding):
    """sha256 over every pass's traces plus the final decisions."""
    doc = {
        "passes": [{
            "best_trace": [[index, repr(total)]
                           for index, total in stats.best_trace],
            "cost_trace": [repr(cost) for cost in stats.cost_trace],
            "final_cost": repr(stats.final_cost.total),
        } for stats in stats_list],
        "decisions": decisions(binding),
    }
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def run_improve(bench, seed):
    config = ImproveConfig(max_trials=3, moves_per_trial=200, seed=seed,
                           sanitize=True, sanitize_every=32)
    binding = fresh_binding(bench)
    return [improve(binding, config)], binding


def run_anneal():
    config = AnnealConfig(temperature_levels=4, moves_per_level=150,
                          seed=3, sanitize=True, sanitize_every=32)
    binding = fresh_binding("dct")
    return [anneal(binding, config)], binding


def run_paper_dct_l10_s2():
    """The ``paper_search`` benchmark item ``dct-L10-s2``: the paper's
    Sec. 4 search, polish off, six full trials, one restart."""
    graph = discrete_cosine_transform()
    schedule = schedule_graph(graph, SPEC, length=10, method="list")
    config = ImproveConfig(polish_trials=False, max_trials=6,
                           idle_trials_stop=6)
    result = SalsaAllocator(seed=2, restarts=1, config=config).allocate(
        graph, schedule=schedule, spec=SPEC)
    return result.stats, result.binding


CASES = {
    **{f"improve-{bench}-s{seed}": (lambda b=bench, s=seed:
                                    run_improve(b, s))
       for bench in ("ewf", "dct") for seed in (1, 9)},
    "anneal-dct-s3": run_anneal,
    "paper-dct-L10-s2": run_paper_dct_l10_s2,
}


def golden():
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestTrajectoryGolden:

    @pytest.mark.parametrize("bench", ["ewf", "dct"])
    @pytest.mark.parametrize("seed", [1, 9])
    def test_improve_matches_golden(self, bench, seed):
        name = f"improve-{bench}-s{seed}"
        assert trajectory_digest(*CASES[name]()) == golden()[name]

    def test_anneal_matches_golden(self):
        name = "anneal-dct-s3"
        assert trajectory_digest(*CASES[name]()) == golden()[name]

    def test_paper_search_dct_l10_s2_matches_golden(self):
        name = "paper-dct-L10-s2"
        assert trajectory_digest(*CASES[name]()) == golden()[name]


def content(state):
    """A snapshot's decisions as order-free comparable values."""
    return {section: dict(state[section]) for section in SECTIONS}


class TestSnapshotRoundTrips:

    def test_clone_equals_its_own_mapping(self):
        binding = fresh_binding("dct")
        improve(binding, ImproveConfig(max_trials=1, moves_per_trial=150,
                                       seed=7))
        state = binding.clone_state()
        # a snapshot is the plain name-keyed mapping the codecs speak
        assert tuple(state) == SECTIONS
        assert all(type(state[section]) is dict for section in SECTIONS)
        assert content(decode_state(encode_state(state))) == content(state)
        assert state == binding.clone_state()
        assert all(flag is True for flag in state["op_swap"].values())

    def test_restore_round_trip_is_identity(self):
        # restoring a drifted binding must reproduce the snapshot's
        # decisions, a from-scratch rebuild's derived state, and the same
        # placements order on every replay (unchanged keys keep their
        # live position, differing keys re-enter in snapshot order)
        def drift_and_restore():
            binding = fresh_binding("ewf")
            improve(binding, ImproveConfig(max_trials=1,
                                           moves_per_trial=150, seed=4))
            state = binding.clone_state()
            improve(binding, ImproveConfig(max_trials=1,
                                           moves_per_trial=150, seed=5,
                                           restart_from_best=False))
            binding.restore_state(state)
            return state, binding

        state, binding = drift_and_restore()
        _, again = drift_and_restore()
        assert content(binding.clone_state()) == content(state)
        assert list(binding.placements) == list(again.placements)
        shadow = binding.duplicate()
        assert shadow.derived_snapshot() == binding.derived_snapshot()
        assert shadow.cost() == binding.cost_from_scratch()

    def test_payload_round_trip(self):
        binding = fresh_binding("dct")
        improve(binding, ImproveConfig(max_trials=1, moves_per_trial=150,
                                       seed=7))
        state = binding.clone_state()
        decoded = decode_state(json.loads(json.dumps(encode_state(state))))
        assert content(decoded) == content(state)
        other = fresh_binding("dct")
        other.restore_state(decoded)
        assert other.total_cost() == binding.total_cost()
        # the codec carries no insertion order: placements decode sorted
        assert list(decoded["placements"]) == sorted(decoded["placements"])

    def test_pickle_drops_derived_but_keeps_decisions(self):
        binding = fresh_binding("dct")
        state = binding.clone_state()
        # a snapshot holds decisions only; derived state is re-derived
        assert set(state) == set(SECTIONS)
        clone = pickle.loads(pickle.dumps(state))
        assert clone == state
        assert list(clone["placements"]) == list(state["placements"])
        other = fresh_binding("dct")
        other.restore_state(clone)
        assert other.total_cost() == binding.total_cost()
        assert other.derived_snapshot() == binding.derived_snapshot()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    digests = {name: trajectory_digest(*case())
               for name, case in sorted(CASES.items())}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(digests, indent=2, sort_keys=True))
