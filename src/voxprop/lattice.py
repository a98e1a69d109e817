"""6-connected weighted voxel lattice over a region of interest.

Voxels are addressed by their x-fastest flat index. The neighbours of voxel
v are v +/- 1, v +/- nx and v +/- nx*ny, kept when they lie on the grid and
in the roi; `neighbor_voxels` does this arithmetic, and
`propagate._nearest_seed_cols` and `dirichlet._reduce` unravel flat indices
into coordinates.
An edge joins two neighbouring roi voxels, with Gaussian intensity affinity

    w_ij = exp(-beta * (g_i - g_j)**2)

clamped below at ``W_FLOOR`` so extreme contrast cannot disconnect the
graph numerically.

The whole roi's graph is never built: `assemble` visits only the unseeded
voxels' neighbourhoods and builds L_U over them.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteInput

#: Lower clamp for edge weights. Keeps every weight strictly positive
#: (beta = 1e4 with an intensity step of 0.2 already underflows exp to ~1e-174).
W_FLOOR = 1e-10

#: The six neighbour directions as (axis, step). A voxel's degree sums its
#: edge weights in this order, which keeps degrees bitwise reproducible.
DIRECTIONS = ((0, 1), (1, 1), (2, 1), (0, -1), (1, -1), (2, -1))


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not np.isfinite(beta):
        raise NonFiniteInput(f"beta is {beta}")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    return beta


def _weights(g_i, g_j, beta: float):
    return np.maximum(np.exp(-beta * (g_i - g_j) ** 2), W_FLOOR)


def edge_weight(g_i, g_j, beta: float):
    """Gaussian affinity exp(-beta * (g_i - g_j)**2), floored at W_FLOOR.

    Accepts scalars or arrays (broadcast); returns a float for scalar input.

    Raises
    ------
    NonFiniteInput
        If any intensity or beta is NaN/inf.
    """
    beta = _check_beta(beta)
    g_i = np.asarray(g_i, dtype=np.float64)
    g_j = np.asarray(g_j, dtype=np.float64)
    if not (np.isfinite(g_i).all() and np.isfinite(g_j).all()):
        raise NonFiniteInput("intensities must be finite")
    w = _weights(g_i, g_j, beta)
    if w.ndim == 0:
        return float(w)
    return w


def neighbor_voxels(voxels: np.ndarray, inside: np.ndarray, dims) -> np.ndarray:
    """Roi neighbours of each voxel, one row per entry of `DIRECTIONS`.

    `voxels` are x-fastest flat indices and `inside` is the roi as a flat
    x-fastest bool array. Returns an int64 array of shape (6, len(voxels))
    holding each neighbour's flat index, or -1 where the step leaves the
    grid or the roi.
    """
    strides = (1, dims[0], dims[0] * dims[1])
    out = np.full((len(DIRECTIONS), voxels.size), -1, dtype=np.int64)
    for k, (axis, step) in enumerate(DIRECTIONS):
        coord = voxels // strides[axis] % dims[axis]
        idx = np.flatnonzero(coord < dims[axis] - 1 if step > 0 else coord > 0)
        nb = voxels[idx] + step * strides[axis]
        keep = inside[nb]
        out[k, idx[keep]] = nb[keep]
    return out
