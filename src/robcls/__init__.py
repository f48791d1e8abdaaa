"""Numerical curvature classification for Lorentzian metrics.

Differentiates closed-form metrics by jet arithmetic, computes their
curvature tensors from the derivative arrays, and classifies them
invariantly under the stabiliser of a null line and under
the stabiliser of an almost Robinson structure, with dimension-table and
diagram verification and a worked-example catalog.
"""

__version__ = "0.1.0"

from .tensor import Tolerance
from .frames import (
    NullFrame,
    RobinsonStructure,
    build_robinson,
    complete_null_frame,
    robinson_forms,
    robinson_from_span,
    sample_robinson_over_null_line,
)
from .chart import MetricChart, check_cky, eigenstructure, frame_field_bracket
from .simclass import (
    GradedDecomposition,
    decompose,
    graded_reconstruct,
    weyl_type_at_frame,
    weyl_type_search,
)
from .robclass import (
    adapted_blocks,
    multi_robinson_equivalences,
    parallel_structure_relations,
    refined_flags,
)
from .catalog import ENTRIES, catalog_entries, run_expectations

__all__ = [
    "Tolerance",
    "NullFrame",
    "RobinsonStructure",
    "complete_null_frame",
    "build_robinson",
    "robinson_from_span",
    "robinson_forms",
    "sample_robinson_over_null_line",
    "MetricChart",
    "frame_field_bracket",
    "check_cky",
    "eigenstructure",
    "decompose",
    "GradedDecomposition",
    "graded_reconstruct",
    "weyl_type_at_frame",
    "weyl_type_search",
    "refined_flags",
    "adapted_blocks",
    "multi_robinson_equivalences",
    "parallel_structure_relations",
    "ENTRIES",
    "catalog_entries",
    "run_expectations",
    "__version__",
]
