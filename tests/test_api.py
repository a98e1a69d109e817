import os
import subprocess
import sys
from pathlib import Path

#: The public surface, sorted; a name enters or leaves it only by editing this.
PUBLIC = (
    "BACKGROUND_ID", "BadMagic", "BadSpec", "ClassDice", "ConstantVolume",
    "ConvergenceFailure", "DiceReport", "DimMismatch", "DirichletSystem", "EmptyRoi",
    "IoFailure", "LabelSet", "LabelSolveStats", "MultiLabelAnnotation", "NiftiHeader",
    "NoSeeds", "NoSeedsInRoi", "NonFiniteInput", "OverlappingHemispheres",
    "PathCountMismatch", "Phantom", "PhantomBlob", "PhantomSpec", "ProbabilityField",
    "PropagationRequest", "PropagationResult", "SeedlessComponent", "TargetTooLarge",
    "TooFewMaps", "TruncatedFile", "UnsupportedDatatype", "Volume3D",
    "VoxpropError", "W_FLOOR", "assemble", "build_eval_mask",
    "center_crop", "dice", "dice_report", "edge_weight", "majority_vote", "make_phantom",
    "min_max_normalize", "propagate", "propagate_bilateral", "read_annotation",
    "read_header", "read_labelset", "read_volume", "solve_all", "strip_conflicts",
    "write_labelset", "write_volume",
)

REMOVED = (
    "LatticeGraph", "build_lattice", "connected_components", "solve_label",
    "dense_reference_solve", "TooLarge", "SolverConfig", "argmax_labels",
    "LabelSet.background_id", "ProbabilityField.n_labels",
)


def test_public_names_resolve_and_removed_names_are_gone():
    """`voxprop.__all__` is exactly `PUBLIC`, every name in it resolves
    through the lazy export table, and the names taken out of the public
    surface stay out."""
    code = f"""
import functools
import voxprop
assert voxprop.__all__ == {list(PUBLIC)!r}, sorted(set(voxprop.__all__) ^ set({PUBLIC!r}))
missing = [name for name in voxprop.__all__ if getattr(voxprop, name, None) is None]
assert not missing, missing
for name in {REMOVED!r}:
    try:
        functools.reduce(getattr, name.split("."), voxprop)
    except AttributeError:
        continue
    raise AssertionError(f"voxprop.{{name}} still resolves")
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
