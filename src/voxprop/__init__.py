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

import importlib
import sys
import types

__version__ = "0.1.0"

#: Public names by submodule. A submodule is imported when one of its names
#: is first used, so commands that need no solver never load scipy.
_EXPORTS = {
    "dirichlet": (
        "DirichletSystem",
        "LabelSolveStats",
        "ProbabilityField",
        "assemble",
        "solve_all",
    ),
    "errors": (
        "BadMagic",
        "BadSpec",
        "ConstantVolume",
        "ConvergenceFailure",
        "DimMismatch",
        "EmptyRoi",
        "IoFailure",
        "NoSeeds",
        "NoSeedsInRoi",
        "NonFiniteInput",
        "OverlappingHemispheres",
        "PathCountMismatch",
        "SeedlessComponent",
        "TargetTooLarge",
        "TooFewMaps",
        "TruncatedFile",
        "UnsupportedDatatype",
        "VoxpropError",
    ),
    "fusion": (
        "ClassDice",
        "DiceReport",
        "build_eval_mask",
        "dice",
        "dice_report",
        "majority_vote",
    ),
    "lattice": (
        "W_FLOOR",
        "edge_weight",
    ),
    "nifti": (
        "NiftiHeader",
        "read_annotation",
        "read_header",
        "read_volume",
        "write_volume",
    ),
    "phantom": (
        "Phantom",
        "PhantomBlob",
        "PhantomSpec",
        "make_phantom",
    ),
    "propagate": (
        "PropagationRequest",
        "PropagationResult",
        "propagate",
        "propagate_bilateral",
    ),
    "volume": (
        "BACKGROUND_ID",
        "LabelSet",
        "MultiLabelAnnotation",
        "Volume3D",
        "center_crop",
        "min_max_normalize",
        "read_labelset",
        "strip_conflicts",
        "write_labelset",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # importing the submodule voxprop.propagate binds it here, whoever
        # imports it first; the package name stays the function
        if name == "propagate" and isinstance(value, types.ModuleType):
            value = value.propagate
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
