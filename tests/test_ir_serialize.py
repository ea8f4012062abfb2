"""Unit tests for profile serialisation."""

import json

import numpy as np
import pytest

from repro.interp.profiler import profile_program
from repro.ir.serialize import profile_from_dict, profile_to_dict


class TestProfileRoundtrip:
    def test_weights_preserved(self, call_program):
        profile = profile_program(call_program, [[1, 2], [3]])
        restored = profile_from_dict(
            profile_to_dict(profile), call_program
        )
        assert np.array_equal(restored.block_weights, profile.block_weights)
        assert np.array_equal(restored.taken_weights, profile.taken_weights)
        assert restored.dynamic_calls == profile.dynamic_calls
        assert restored.num_runs == profile.num_runs

    def test_restored_profile_drives_placement(self, call_program):
        from repro.placement.inline import InlinePolicy, inline_expand

        profile = profile_program(call_program, [[1, 2, 3]])
        restored = profile_from_dict(
            profile_to_dict(profile), call_program
        )
        policy = InlinePolicy(
            min_call_fraction=0.0, min_call_count=1, max_code_growth=10.0
        )
        _, from_original = inline_expand(call_program, profile, policy)
        _, from_restored = inline_expand(call_program, restored, policy)
        assert from_restored.inlined_sites == from_original.inlined_sites

    def test_size_mismatch_rejected(self, call_program, loop_program):
        profile = profile_program(call_program, [[1]])
        with pytest.raises(ValueError, match="blocks"):
            profile_from_dict(profile_to_dict(profile), loop_program)

    def test_bad_format_rejected(self, call_program):
        with pytest.raises(ValueError, match="not a repro-profile"):
            profile_from_dict({"format": "nope"}, call_program)

    def test_json_serialisable(self, call_program):
        profile = profile_program(call_program, [[1]])
        text = json.dumps(profile_to_dict(profile))
        restored = profile_from_dict(json.loads(text), call_program)
        assert restored.dynamic_instructions == profile.dynamic_instructions


def _all_registered_workloads():
    from repro.workloads.registry import all_workloads

    return all_workloads("paper") + all_workloads("extended")


@pytest.fixture(scope="module")
def profiled():
    """(program, profile, JSON-restored profile) per workload, built once."""
    cache = {}

    def get(workload):
        if workload.name not in cache:
            program = workload.build()     # builds validate the program
            profile = profile_program(
                program, workload.profiling_inputs("small")[:1]
            )
            restored = profile_from_dict(
                json.loads(json.dumps(profile_to_dict(profile))), program
            )
            cache[workload.name] = program, profile, restored
        return cache[workload.name]

    return get


class TestRegisteredWorkloadRoundtrips:
    """Every bundled benchmark's profile survives a JSON round trip.

    Under ``--opt`` the experiment runner stores the original program's
    profile this way and re-binds it on every hydration, so a restored
    profile must place and print exactly like the one it came from.
    """

    @pytest.mark.parametrize(
        "workload", _all_registered_workloads(), ids=lambda w: w.name
    )
    def test_roundtrip_is_printer_identical(self, workload, profiled):
        from repro.ir.printer import format_image
        from repro.placement.image import MemoryImage
        from repro.placement.pettis_hansen import pettis_hansen_order

        program, profile, restored = profiled(workload)
        listings = [
            format_image(MemoryImage.build(
                program, pettis_hansen_order(program, each)
            ), each)
            for each in (profile, restored)
        ]
        assert listings[0] == listings[1]

    @pytest.mark.parametrize(
        "workload", _all_registered_workloads(), ids=lambda w: w.name
    )
    def test_roundtrip_preserves_counts(self, workload, profiled):
        _, profile, restored = profiled(workload)
        assert np.array_equal(restored.block_weights, profile.block_weights)
        assert np.array_equal(restored.taken_weights, profile.taken_weights)
        assert np.array_equal(restored.fall_weights, profile.fall_weights)
        assert restored.dynamic_instructions == profile.dynamic_instructions
        assert restored.dynamic_calls == profile.dynamic_calls
        assert restored.run_instructions == profile.run_instructions
