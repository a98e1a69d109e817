"""voxprop: random-walker label propagation for noisy 3D annotations.

Refines incomplete, conflicting multi-label voxel annotations by clearing
overlaps, fixing the remaining single-labeled voxels as seeds, and solving
the seeded Dirichlet problem on an intensity-weighted 6-connected lattice.
Ships with majority-vote label fusion, a Dice evaluation harness, a
bit-exact NIfTI-1 subset reader/writer, and a synthetic phantom generator.

Typical use::

    from voxprop import PropagationRequest, propagate

    req = PropagationRequest(guidance=img, roi=mask, annotation=ann)
    result = propagate(req)
    result.hard        # Volume3D[label]
    result.soft        # per-label Volume3D[probability]
"""

from .dirichlet import (
    DirichletSystem,
    LabelSolveStats,
    ProbabilityField,
    SolverConfig,
    assemble,
    dense_reference_solve,
    solve_all,
    solve_label,
)
from .errors import (
    BadMagic,
    BadSpec,
    ConstantVolume,
    ConvergenceFailure,
    DimMismatch,
    EmptyRoi,
    IoFailure,
    NoSeeds,
    NoSeedsInRoi,
    NonFiniteInput,
    OverlappingHemispheres,
    PathCountMismatch,
    SeedlessComponent,
    TargetTooLarge,
    TooFewMaps,
    TooLarge,
    TruncatedFile,
    UnsupportedDatatype,
    VoxpropError,
)
from .fusion import (
    ClassDice,
    DiceReport,
    build_eval_mask,
    dice,
    dice_report,
    majority_vote,
)
from .lattice import (
    W_FLOOR,
    LatticeGraph,
    build_lattice,
    connected_components,
    edge_weight,
)
from .nifti import (
    NiftiHeader,
    read_annotation,
    read_header,
    read_volume,
    write_volume,
)
from .phantom import Phantom, PhantomBlob, PhantomSpec, make_phantom
from .propagate import (
    PropagationRequest,
    PropagationResult,
    propagate,
    propagate_bilateral,
)
from .volume import (
    BACKGROUND_ID,
    LabelSet,
    MultiLabelAnnotation,
    Volume3D,
    argmax_labels,
    center_crop,
    min_max_normalize,
    read_labelset,
    strip_conflicts,
    write_labelset,
)

__version__ = "0.1.0"

__all__ = [
    "BACKGROUND_ID",
    "BadMagic",
    "BadSpec",
    "ClassDice",
    "ConstantVolume",
    "ConvergenceFailure",
    "DiceReport",
    "DimMismatch",
    "DirichletSystem",
    "EmptyRoi",
    "IoFailure",
    "LabelSet",
    "LabelSolveStats",
    "LatticeGraph",
    "MultiLabelAnnotation",
    "NiftiHeader",
    "NoSeeds",
    "NoSeedsInRoi",
    "NonFiniteInput",
    "OverlappingHemispheres",
    "PathCountMismatch",
    "Phantom",
    "PhantomBlob",
    "PhantomSpec",
    "ProbabilityField",
    "PropagationRequest",
    "PropagationResult",
    "SeedlessComponent",
    "SolverConfig",
    "TargetTooLarge",
    "TooFewMaps",
    "TooLarge",
    "TruncatedFile",
    "UnsupportedDatatype",
    "Volume3D",
    "VoxpropError",
    "W_FLOOR",
    "argmax_labels",
    "assemble",
    "build_eval_mask",
    "build_lattice",
    "center_crop",
    "connected_components",
    "dense_reference_solve",
    "dice",
    "dice_report",
    "edge_weight",
    "majority_vote",
    "make_phantom",
    "min_max_normalize",
    "propagate",
    "propagate_bilateral",
    "read_annotation",
    "read_header",
    "read_labelset",
    "read_volume",
    "solve_all",
    "solve_label",
    "strip_conflicts",
    "write_labelset",
    "write_volume",
]
