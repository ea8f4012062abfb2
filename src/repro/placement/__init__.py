"""The paper's contribution: profile-guided instruction placement."""

from repro.placement.baselines import (
    natural_image,
    natural_order,
    random_image,
    random_order,
)
from repro.placement.conflict_aware import conflict_aware_order
from repro.placement.estimate import CacheEstimate, estimate_direct_mapped
from repro.placement.function_layout import FunctionLayout, layout_function
from repro.placement.global_layout import (
    GlobalLayout,
    assemble_block_order,
    layout_globally,
)
from repro.placement.image import MemoryImage
from repro.placement.inline import (
    InlinePolicy,
    InlineReport,
    InlinedSite,
    inline_expand,
)
from repro.placement.pipeline import (
    PlacementOptions,
    PlacementResult,
    optimize_program,
    place,
)
from repro.placement.pettis_hansen import (
    pettis_hansen_block_order,
    pettis_hansen_function_order,
    pettis_hansen_order,
)
from repro.placement.profile_data import CallArc, ControlArc, ProfileData
from repro.placement.scaling import SCALING_FACTORS, scaled_sizes
from repro.placement.stats import (
    InlineStats,
    TraceStats,
    inline_stats,
    trace_selection_stats,
)
from repro.placement.trace_selection import (
    MIN_PROB,
    Trace,
    TraceSelection,
    select_traces,
)

__all__ = [
    "CacheEstimate",
    "CallArc",
    "ControlArc",
    "FunctionLayout",
    "GlobalLayout",
    "InlinePolicy",
    "InlineReport",
    "InlineStats",
    "InlinedSite",
    "MIN_PROB",
    "MemoryImage",
    "PlacementOptions",
    "PlacementResult",
    "ProfileData",
    "SCALING_FACTORS",
    "Trace",
    "TraceSelection",
    "TraceStats",
    "assemble_block_order",
    "conflict_aware_order",
    "inline_expand",
    "inline_stats",
    "layout_function",
    "layout_globally",
    "estimate_direct_mapped",
    "natural_image",
    "natural_order",
    "pettis_hansen_block_order",
    "pettis_hansen_function_order",
    "pettis_hansen_order",
    "optimize_program",
    "place",
    "random_image",
    "random_order",
    "scaled_sizes",
    "select_traces",
    "trace_selection_stats",
]
