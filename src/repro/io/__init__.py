"""Persistence and frontends: JSON round-trips, textual netlists, kernels."""

from repro.io.json_io import (SerializationError, binding_from_json,
                              binding_to_dict, binding_to_json,
                              canonical_dumps, cdfg_from_dict,
                              cdfg_from_json, cdfg_to_dict,
                              cdfg_to_json, delay_spec_from_json,
                              delay_spec_to_json, schedule_from_json,
                              schedule_to_dict, schedule_to_json,
                              spec_to_dict, stats_from_json, stats_to_json)
from repro.io.textual import format_cdfg, parse_cdfg
from repro.io.expr import cdfg_from_assignments

__all__ = [
    "SerializationError", "binding_from_json", "binding_to_dict",
    "binding_to_json", "canonical_dumps", "cdfg_from_assignments",
    "cdfg_from_dict", "cdfg_from_json", "cdfg_to_dict", "cdfg_to_json",
    "delay_spec_from_json", "delay_spec_to_json", "format_cdfg",
    "parse_cdfg", "schedule_from_json", "schedule_to_dict",
    "schedule_to_json", "spec_to_dict", "stats_from_json", "stats_to_json",
]
