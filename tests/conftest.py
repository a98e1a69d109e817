import numpy as np
import pytest

from voxprop import LabelSet, MultiLabelAnnotation, Volume3D, dirichlet


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


@pytest.fixture
def pcg_route(monkeypatch):
    """Send every `solve_all` to the PCG route, whatever its block sizes."""
    monkeypatch.setattr(dirichlet, "DIRECT_BLOCK_LIMIT", 0)


def make_intensity(data, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    return Volume3D(np.asarray(data, dtype=np.float64), "intensity", spacing, origin)


def make_mask(data, spacing=(1.0, 1.0, 1.0)):
    return Volume3D(np.asarray(data, dtype=bool), "mask", spacing)


def full_mask(dims, spacing=(1.0, 1.0, 1.0)):
    return Volume3D(np.ones(dims, dtype=bool), "mask", spacing)


def annotation_from_sets(labels: LabelSet, dims, voxel_sets: dict):
    """Annotation with explicit per-voxel label sets; everything else empty."""
    masks = np.zeros((len(labels),) + tuple(dims), dtype=bool)
    for voxel, ids in voxel_sets.items():
        for lab in ids:
            masks[labels.index(lab)][voxel] = True
    return MultiLabelAnnotation(labels, masks)


def backing(arr):
    """What `arr`'s chain of bases ends in, looking through a memoryview."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr
