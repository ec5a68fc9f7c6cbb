"""Level and sub-level persistence of PL maps on finite simplicial complexes.

Computes level barcodes (four kinds of interval ends) and sub-level
barcodes of a vertex-valued map, the five relevant level persistence
numbers, and the exact conversions between numbers and bars in both
directions, all over the two-element field.

Progress is reported at DEBUG level on the "levelpers" logger, which has
no handler of its own.
"""

from .complexes import (
    CriticalGrid,
    Filtration,
    SimplicialComplex,
    VertexValuedMap,
    build_complex,
    critical_values,
    lower_star_filtration,
    telescope,
)
from .gf2 import (
    BitMatrix,
    GradedBoundary,
    HomologyPresentation,
    Subspace,
    column_reduce,
    homology_presentation,
    image_basis,
    induced_map,
    intersection_dim,
    kernel_basis,
    rank,
)
from .level import (
    LevelBar,
    LevelBarcode,
    RelevantNumbers,
    barcode_from_kernels,
    barcode_from_overlaps,
    compute_relevant_numbers,
    level_barcode,
    numbers_from_barcode,
    sublevel_from_level,
)
from .slabs import (
    Cell,
    CellComplex,
    InclusionMap,
    SlabBuilder,
    betti_numbers,
    homology_of,
    include_level,
    validate,
)
from .sublevel import (
    INF,
    BettiTable,
    SublevelBarcode,
    bars_from_betti,
    betti_from_bars,
    sublevel_barcode,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "BitMatrix",
    "Cell",
    "CellComplex",
    "CriticalGrid",
    "Filtration",
    "GradedBoundary",
    "HomologyPresentation",
    "INF",
    "InclusionMap",
    "LevelBar",
    "LevelBarcode",
    "RelevantNumbers",
    "SimplicialComplex",
    "SlabBuilder",
    "Subspace",
    "SublevelBarcode",
    "VertexValuedMap",
    "bars_from_betti",
    "barcode_from_kernels",
    "barcode_from_overlaps",
    "betti_from_bars",
    "betti_numbers",
    "build_complex",
    "column_reduce",
    "compute_relevant_numbers",
    "critical_values",
    "homology_of",
    "homology_presentation",
    "image_basis",
    "include_level",
    "induced_map",
    "intersection_dim",
    "kernel_basis",
    "level_barcode",
    "lower_star_filtration",
    "numbers_from_barcode",
    "rank",
    "sublevel_barcode",
    "sublevel_from_level",
    "telescope",
    "validate",
]
