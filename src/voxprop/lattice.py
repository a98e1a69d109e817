"""6-connected weighted voxel lattice over a region of interest.

Nodes are the roi voxels, numbered densely in x-fastest scan order. Edges
join axis-aligned neighbor pairs whose endpoints both lie in the roi, with
Gaussian intensity affinity

    w_ij = exp(-beta * (g_i - g_j)**2)

clamped below at ``W_FLOOR`` so extreme contrast cannot disconnect the
graph numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _cc

from .errors import EmptyRoi, NonFiniteInput
from .volume import Volume3D, require_same_dims

#: Lower clamp for edge weights. Keeps every weight strictly positive
#: (beta = 1e4 with an intensity step of 0.2 already underflows exp to ~1e-174).
W_FLOOR = 1e-10


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not np.isfinite(beta):
        raise NonFiniteInput(f"beta is {beta}")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    return beta


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
    w = np.maximum(np.exp(-beta * (g_i - g_j) ** 2), W_FLOOR)
    if w.ndim == 0:
        return float(w)
    return w


@dataclass(frozen=True)
class LatticeGraph:
    """Undirected weighted 6-connectivity graph over roi voxels.

    Attributes
    ----------
    dims : (nx, ny, nz)
    node_ids : int64 array, shape dims
        Dense node id per voxel, -1 outside the roi. Ids follow x-fastest
        voxel order.
    node_voxels : int64 array, shape (n_nodes,)
        Inverse map: x-fastest flat voxel index of each node.
    edges_i, edges_j : int64 arrays, shape (n_edges,)
        Endpoint node ids with ``edges_i < edges_j`` (each pair stored once).
    weights : float64 array, shape (n_edges,)
        Edge weights in (0, 1].
    beta : float
    """

    dims: tuple[int, int, int]
    node_ids: np.ndarray
    node_voxels: np.ndarray
    edges_i: np.ndarray
    edges_j: np.ndarray
    weights: np.ndarray
    beta: float

    def __post_init__(self):
        for name in ("node_ids", "node_voxels", "edges_i", "edges_j", "weights"):
            getattr(self, name).setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return int(self.node_voxels.size)

    @property
    def n_edges(self) -> int:
        return int(self.weights.size)

    def degrees(self) -> np.ndarray:
        """Total incident edge weight per node."""
        d = np.zeros(self.n_nodes)
        np.add.at(d, self.edges_i, self.weights)
        np.add.at(d, self.edges_j, self.weights)
        return d


def build_lattice(g: Volume3D, roi: Volume3D, beta: float) -> LatticeGraph:
    """Build the 6-connected lattice over roi voxels of a guidance image.

    Intensities are taken as-is; normalize them to [0, 1] first if the
    usual beta scale (~1e4) is intended.

    Raises
    ------
    DimMismatch, EmptyRoi, NonFiniteInput
    """
    if g.kind != "intensity":
        raise ValueError(f"guidance must be an intensity volume, got {g.kind!r}")
    if roi.kind != "mask":
        raise ValueError(f"roi must be a mask volume, got {roi.kind!r}")
    dims = require_same_dims(g, roi)
    beta = _check_beta(beta)

    inside = roi.data
    n_vox = inside.size
    flat = inside.ravel(order="F")
    n_nodes = int(flat.sum())
    if n_nodes == 0:
        raise EmptyRoi("roi selects no voxels")
    if not np.isfinite(g.data[inside]).all():
        raise NonFiniteInput("guidance image has non-finite values inside the roi")

    ids_flat = np.full(n_vox, -1, dtype=np.int64)
    ids_flat[flat] = np.arange(n_nodes, dtype=np.int64)
    node_ids = ids_flat.reshape(dims, order="F")
    node_voxels = np.flatnonzero(flat)

    intensity = g.data
    ei_parts, ej_parts, w_parts = [], [], []
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        pair = inside[lo] & inside[hi]
        if not pair.any():
            continue
        gi = intensity[lo][pair]
        gj = intensity[hi][pair]
        # the +axis neighbor has the larger flat index, hence the larger id
        ei_parts.append(node_ids[lo][pair])
        ej_parts.append(node_ids[hi][pair])
        w_parts.append(edge_weight(gi, gj, beta))

    if ei_parts:
        edges_i = np.concatenate(ei_parts)
        edges_j = np.concatenate(ej_parts)
        weights = np.concatenate(w_parts)
    else:
        edges_i = np.empty(0, dtype=np.int64)
        edges_j = np.empty(0, dtype=np.int64)
        weights = np.empty(0, dtype=np.float64)

    return LatticeGraph(
        dims=dims,
        node_ids=node_ids,
        node_voxels=node_voxels,
        edges_i=edges_i,
        edges_j=edges_j,
        weights=np.asarray(weights, dtype=np.float64),
        beta=beta,
    )


def connected_components(graph: LatticeGraph) -> np.ndarray:
    """Component id per node, ids ordered by each component's minimal node.

    Component 0 contains node 0; the next component encountered while
    scanning node ids upward gets 1, and so on.
    """
    n = graph.n_nodes
    adj = sp.coo_matrix(
        (np.ones(graph.n_edges), (graph.edges_i, graph.edges_j)), shape=(n, n)
    )
    _, raw = _cc(adj.tocsr(), directed=False)
    _, first = np.unique(raw, return_index=True)
    order = np.empty(len(first), dtype=np.int64)
    order[np.argsort(first)] = np.arange(len(first))
    return order[raw]
