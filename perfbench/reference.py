"""Independent reference solve of the seeded random-walker problem.

Written from the problem statement (Grady, "Random Walks for Image
Segmentation", TPAMI 2006) with numpy and scipy only. It imports nothing
from voxprop, so it can judge voxprop's lattice and solver. Every label is
solved on its own, with no simplex closure.

Route: a sparse LU (SuperLU, symmetric ordering) when the largest connected
block of unseeded nodes has at most ``DIRECT_LIMIT`` nodes; otherwise
Jacobi-preconditioned CG on all labels at once (split over two threads),
with the true residual recomputed every ``CG_CHECK_EVERY`` iterations and
a stop once the error bound below is at most ``CG_TOL`` -- three orders of
magnitude below the errors voxprop's default ``rel_tol=1e-8`` leaves -- or
after ``CG_MAX_ITERS`` iterations.

Accuracy is stated a posteriori. L_U is an M-matrix, so its inverse is
entrywise nonnegative and, with d = diag(L_U),

    |x - x_ref|_inf  <=  |L_U^-1 d|_inf * max_i |r_i| / d_i .

``L_U^-1 d`` (the expected number of walk steps before absorption) is
solved alongside the labels as one more right-hand side.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

#: Lower clamp of edge weights; part of the model, not of voxprop's code.
W_FLOOR = 1e-10

#: Largest unseeded block factored directly. A 73k-node block factors in
#: under a second; a 150k-node block has exhausted 8 GB.
DIRECT_LIMIT = 100_000

CG_TOL = 1e-9
#: Caps the solve at about half a minute on the sparse-seeds workload. A
#: seed whose bound stalls above CG_TOL stops here; its bound is reported.
CG_MAX_ITERS = 1_000
CG_CHECK_EVERY = 25


@dataclass(frozen=True)
class Reference:
    """Probabilities on the unseeded nodes of the seeded components.

    Seeded nodes are one-hot by definition and not stored. ``voxels`` are
    x-fastest flat voxel indices, ascending; ``values`` has one row per
    voxel and one column per label. ``err_bound`` bounds the max-norm error
    of every value; ``rowsum_err`` is the largest deviation of a row sum
    from 1.
    """

    voxels: np.ndarray
    values: np.ndarray
    method: str
    iterations: int
    err_bound: float
    rowsum_err: float


def lattice(guidance: np.ndarray, mask: np.ndarray, beta: float):
    """6-neighbour edges over mask voxels, nodes in x-fastest voxel order.

    Weights are exp(-beta (g_i - g_j)^2), clamped below at ``W_FLOOR``.
    Returns (node_voxels, edges_i, edges_j, weights).
    """
    dims = mask.shape
    flat = mask.ravel(order="F")
    g = np.asarray(guidance, dtype=np.float64).ravel(order="F")
    node_voxels = np.flatnonzero(flat)
    node_of = np.full(flat.size, -1, dtype=np.int64)
    node_of[node_voxels] = np.arange(node_voxels.size)
    coords = np.unravel_index(node_voxels, dims, order="F")
    strides = (1, dims[0], dims[0] * dims[1])
    ei, ej = [], []
    for axis in range(3):
        v = node_voxels[coords[axis] < dims[axis] - 1]
        nb = v + strides[axis]
        both = flat[nb]
        ei.append(node_of[v[both]])
        ej.append(node_of[nb[both]])
    ei = np.concatenate(ei)
    ej = np.concatenate(ej)
    diff = g[node_voxels[ei]] - g[node_voxels[ej]]
    w = np.maximum(np.exp(-float(beta) * diff**2), W_FLOOR)
    return node_voxels, ei, ej, w


def laplacian(n: int, ei, ej, w) -> sp.csr_matrix:
    adj = sp.coo_matrix(
        (np.concatenate([w, w]), (np.concatenate([ei, ej]), np.concatenate([ej, ei]))),
        shape=(n, n),
    ).tocsr()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    return (sp.diags(deg) - adj).tocsr()


def _scaled_residual(A, X, B, d) -> float:
    return float((np.abs(B - A @ X) / d[:, None]).max())


def _batched_pcg(A, B, d):
    """Jacobi-PCG on every column of B at once; returns (X, iterations).

    The last column of B must be d: its solution scales the error bound,
    which is checked on the other columns.
    """
    minv = (1.0 / d)[:, None]
    X = np.zeros_like(B)
    R = B.copy()
    Z = R * minv
    P = Z.copy()
    rz = np.einsum("ij,ij->j", R, Z)
    T = np.empty_like(B)
    it = 0
    while it < CG_MAX_ITERS:
        AP = A @ P
        pap = np.einsum("ij,ij->j", P, AP)
        alpha = np.divide(rz, pap, out=np.zeros_like(rz), where=pap > 0)
        np.multiply(P, alpha, out=T)
        X += T
        np.multiply(AP, alpha, out=T)
        R -= T
        it += 1
        if it % CG_CHECK_EVERY == 0:
            R = B - A @ X
            if X[:, -1].max() * (np.abs(R[:, :-1]) * minv).max() <= CG_TOL:
                break
        np.multiply(R, minv, out=Z)
        rz_new = np.einsum("ij,ij->j", R, Z)
        P *= np.divide(rz_new, rz, out=np.zeros_like(rz), where=rz > 0)
        P += Z
        rz = rz_new
    return X, it


def solve(guidance, mask, seed_labels, label_ids, beta) -> Reference:
    """Reference probabilities for every label over the seeded components.

    ``seed_labels`` is a label-id grid over the same dims (0 = unseeded);
    values outside ``mask`` are ignored. ``label_ids`` must be ascending.
    """
    label_ids = np.asarray(label_ids)
    node_voxels, ei, ej, w = lattice(guidance, mask, beta)
    n = node_voxels.size
    L = laplacian(n, ei, ej, w)
    node_label = seed_labels.ravel(order="F")[node_voxels].astype(np.int64)
    seeded = node_label > 0

    _, comp = connected_components(L, directed=False)
    solved_comp = np.zeros(comp.max() + 1, dtype=bool)
    solved_comp[comp[seeded]] = True
    solved = solved_comp[comp]

    m = label_ids.size
    seed_idx = np.flatnonzero(seeded)
    onehot = np.zeros((seed_idx.size, m))
    onehot[np.arange(seed_idx.size), np.searchsorted(label_ids, node_label[seeded])] = 1.0

    unseeded = np.flatnonzero(solved & ~seeded)
    X = np.zeros((unseeded.size, m + 1))
    method, iterations, err_bound = "none", 0, 0.0
    if unseeded.size:
        rows = L[unseeded]
        L_U = rows[:, unseeded].tocsr()
        d = L_U.diagonal()
        # labels plus one column for L_U^-1 d, which bounds the error
        rhs = np.column_stack([-(rows[:, seed_idx] @ onehot), d])
        _, ucomp = connected_components(L_U, directed=False)
        if np.bincount(ucomp).max() <= DIRECT_LIMIT:
            lu = splu(
                L_U.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}
            )
            X = lu.solve(rhs)
            method = "splu"
        else:
            # two halves of the labels, each with the d column, on two threads
            half = (m + 1) // 2
            parts = [np.column_stack([rhs[:, :half], d]), rhs[:, half:]]
            with ThreadPoolExecutor(max_workers=2) as pool:
                (X0, it0), (X1, it1) = pool.map(lambda b: _batched_pcg(L_U, b, d), parts)
            X = np.column_stack([X0[:, :half], X1])
            iterations = max(it0, it1)
            method = "cg"
        steps = float(X[:, m].max())
        err_bound = steps * _scaled_residual(L_U, X[:, :m], rhs[:, :m], d)
    values = X[:, :m]
    rowsum_err = float(np.abs(values.sum(axis=1) - 1.0).max(initial=0.0))
    return Reference(node_voxels[unseeded], values, method, iterations, err_bound, rowsum_err)


def main(argv) -> int:
    """``reference.py INPUTS.npz STEM``: solve and write STEM.voxels.npy,
    STEM.values.npy and, last, STEM.json with the accuracy figures.

    The benchmark runs this as a child process, so the solve's memory
    never shows in the benchmark process's resident set.
    """
    src, stem = argv
    with np.load(src) as f:
        ref = solve(f["guidance"], f["mask"], f["seeds"], f["label_ids"], float(f["beta"]))
    for part in ("voxels", "values"):
        np.save(f"{stem}.{part}.tmp.npy", getattr(ref, part))
        os.replace(f"{stem}.{part}.tmp.npy", f"{stem}.{part}.npy")
    info = {k: getattr(ref, k) for k in ("method", "iterations", "err_bound", "rowsum_err")}
    with open(f"{stem}.json.tmp", "w") as fp:
        json.dump(info, fp)
    os.replace(f"{stem}.json.tmp", f"{stem}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
