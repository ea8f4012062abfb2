"""JSON (de)serialisation of profiles.

A profile gathered on one run can drive placement on another — the
same separation the paper's profiler-to-compiler interface provides.
The experiment runner keeps the middle-end's pass profiles and the
original program's profile in each ``--opt`` store entry this way.

The format is a plain JSON-able dict with a ``format`` version tag; a
profile carries weights only and re-binds to its program on load.
"""

from __future__ import annotations

import numpy as np

from repro.ir.program import Program
from repro.placement.profile_data import ProfileData

__all__ = ["profile_to_dict", "profile_from_dict"]

PROFILE_FORMAT = "repro-profile-v1"


def profile_to_dict(profile: ProfileData) -> dict:
    """Serialise a profile (weights only; it re-binds to a program)."""
    return {
        "format": PROFILE_FORMAT,
        "num_runs": profile.num_runs,
        "block_weights": profile.block_weights.tolist(),
        "taken_weights": profile.taken_weights.tolist(),
        "fall_weights": profile.fall_weights.tolist(),
        "dynamic_instructions": profile.dynamic_instructions,
        "control_transfers": profile.control_transfers,
        "dynamic_calls": profile.dynamic_calls,
        "run_instructions": list(profile.run_instructions),
    }


def profile_from_dict(data: dict, program: Program) -> ProfileData:
    """Re-bind a serialised profile to (a structurally identical copy of)
    its program.  The block count must match exactly."""
    if data.get("format") != PROFILE_FORMAT:
        raise ValueError(
            f"not a {PROFILE_FORMAT} document: {data.get('format')!r}"
        )
    weights = np.asarray(data["block_weights"], dtype=np.int64)
    if len(weights) != program.num_blocks:
        raise ValueError(
            f"profile covers {len(weights)} blocks, program has "
            f"{program.num_blocks}"
        )
    return ProfileData(
        program=program,
        num_runs=data["num_runs"],
        block_weights=weights,
        taken_weights=np.asarray(data["taken_weights"], dtype=np.int64),
        fall_weights=np.asarray(data["fall_weights"], dtype=np.int64),
        dynamic_instructions=data["dynamic_instructions"],
        control_transfers=data["control_transfers"],
        dynamic_calls=data["dynamic_calls"],
        run_instructions=list(data["run_instructions"]),
    )
