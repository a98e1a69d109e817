"""Independent test oracles.

Nothing in this module may call into voxprop's lattice or solver code:
adjacency is enumerated by brute force over voxel neighborhoods and the
Dirichlet systems are assembled and solved densely from scratch, so these
functions can serve as ground truth for the library's fast paths.
`dense_reference_solve` and `sparse_reference_solve` are the ones that
take an assembled system: they check the library's solvers against a
dense, or for large lattices a sparse, factorization of the same L_U and
B. `argmax_labels` is the hard labeling of stacked soft volumes, against
which the driver's own argmax is checked, and `soft_from_fills` builds a
soft volume one fill at a time, against which the driver's builder is
checked. `loop_phantom_arrays` rebuilds a
phantom from a full distance stack and a per-voxel loop over the conflict
voxels.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from voxprop import BACKGROUND_ID, DimMismatch, LabelSet, Volume3D
from voxprop.volume import require_same_dims


def brute_force_edges(roi: np.ndarray, intensity: np.ndarray, beta: float):
    """Enumerate 6-neighbor edges by looping voxels; x-fastest node ids.

    Returns (n_nodes, node_id_of_voxel dict, edges list of (i, j, w)).
    """
    nx, ny, nz = roi.shape
    node_of = {}
    nid = 0
    # x-fastest scan: x varies quickest
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if roi[x, y, z]:
                    node_of[(x, y, z)] = nid
                    nid += 1
    pairs, diffs = [], []
    for (x, y, z), i in node_of.items():
        for dx, dy, dz in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            q = (x + dx, y + dy, z + dz)
            if q in node_of:
                pairs.append((i, node_of[q]))
                diffs.append(intensity[x, y, z] - intensity[q])
    # one array call: numpy's vectorized exp may differ from its scalar path
    # in the last bit, and the library evaluates weights over arrays
    w = np.maximum(np.exp(-beta * np.asarray(diffs, dtype=np.float64) ** 2), 1e-10)
    edges = [(i, j, float(wk)) for (i, j), wk in zip(pairs, w)]
    return nid, node_of, edges


def edge_components(n_nodes: int, edges) -> np.ndarray:
    """Component id per node of the graph with `edges`, by scipy's search.

    scipy labels components in order of their smallest node, so node 0 is in
    component 0.
    """
    ij = np.asarray([(i, j) for i, j, _ in edges], dtype=np.int64).reshape(-1, 2)
    adj = coo_matrix((np.ones(len(ij)), (ij[:, 0], ij[:, 1])), shape=(n_nodes, n_nodes))
    return connected_components(adj, directed=False)[1]


def brute_force_partition(roi: np.ndarray, intensity: np.ndarray, beta: float, seeds: dict):
    """Dense L_U and B of the seeded lattice over `roi`, pockets left out.

    `seeds` maps x-fastest flat voxel indices to labels. Blocks are the
    components of the unseeded voxels, found by depth-first search; a block
    with no edge to a seed is a pocket. A voxel's degree sums its edge
    weights in the order +x, +y, +z, -x, -y, -z. Returns (unseeded voxels,
    pocket voxels, n_blocks, largest seeded block, L_U, B) with voxel lists
    ascending and B columns over the seeds in ascending voxel order.
    """
    n, node_of, edges = brute_force_edges(roi, intensity, beta)
    nx, ny, _ = roi.shape
    voxel = {i: x + nx * (y + ny * z) for (x, y, z), i in node_of.items()}
    coord = {i: c for c, i in node_of.items()}
    nbr = {}  # (node, direction) -> (neighbour, weight)
    for i, j, w in edges:
        axis = next(a for a in range(3) if coord[i][a] != coord[j][a])
        nbr[i, axis] = (j, w)
        nbr[j, axis + 3] = (i, w)
    seeded = [i for i in range(n) if voxel[i] in seeds]
    free = [i for i in range(n) if voxel[i] not in seeds]
    block = {}
    for start in free:
        if start in block:
            continue
        block[start], stack = start, [start]
        while stack:
            a = stack.pop()
            for k in range(6):
                b = nbr.get((a, k), (None,))[0]
                if b is not None and voxel[b] not in seeds and b not in block:
                    block[b] = start
                    stack.append(b)
    reaches = {
        block[a] for a in free for k in range(6)
        if (a, k) in nbr and voxel[nbr[a, k][0]] in seeds
    }
    unseeded = [a for a in free if block[a] in reaches]
    pockets = [a for a in free if block[a] not in reaches]
    sizes = [sum(block[a] == r for a in unseeded) for r in reaches]
    row = {a: r for r, a in enumerate(unseeded)}
    col = {s: c for c, s in enumerate(seeded)}
    L_U = np.zeros((len(unseeded), len(unseeded)))
    B = np.zeros((len(unseeded), len(seeded)))
    for a in unseeded:
        deg = 0.0
        for k in range(6):
            if (a, k) in nbr:
                b, w = nbr[a, k]
                deg += w
                if b in row:
                    L_U[row[a], row[b]] = -w
                else:
                    B[row[a], col[b]] = -w
        L_U[row[a], row[a]] = deg
    return (
        [voxel[a] for a in unseeded],
        [voxel[a] for a in pockets],
        len(set(block.values())),
        max(sizes, default=0),
        L_U,
        B,
    )


def dense_laplacian(n_nodes: int, edges) -> np.ndarray:
    L = np.zeros((n_nodes, n_nodes))
    for i, j, w in edges:
        L[i, i] += w
        L[j, j] += w
        L[i, j] -= w
        L[j, i] -= w
    return L


def dense_dirichlet(n_nodes: int, edges, seeds: dict, label_ids) -> np.ndarray:
    """Full (n_nodes, m) probability field by dense partitioned solve."""
    label_ids = list(label_ids)
    L = dense_laplacian(n_nodes, edges)
    seeded = sorted(seeds)
    unseeded = [v for v in range(n_nodes) if v not in seeds]
    field = np.zeros((n_nodes, len(label_ids)))
    for v in seeded:
        field[v, label_ids.index(seeds[v])] = 1.0
    if unseeded:
        L_U = L[np.ix_(unseeded, unseeded)]
        B = L[np.ix_(unseeded, seeded)]
        M = np.zeros((len(seeded), len(label_ids)))
        for r, v in enumerate(seeded):
            M[r, label_ids.index(seeds[v])] = 1.0
        field[unseeded] = np.linalg.solve(L_U, -B @ M)
    return field


def dense_reference_solve(sys) -> np.ndarray:
    """Every label of a `DirichletSystem` by dense LAPACK factorization.

    Solves L_U x = -B e for each label's unit vector e (B summed per
    label), with no closure; returns (n_unseeded, m) values, rows ordered
    like `sys.unseeded` and columns like `sys.label_ids`.
    """
    return np.linalg.solve(sys.L_U.toarray(), (-sys.B).toarray())


def sparse_reference_solve(sys) -> np.ndarray:
    """Every label of a `DirichletSystem` by one sparse LU of its L_U.

    The oracle for lattices too large for `dense_reference_solve`; same
    equations, same output layout. On the 64x96x64 acceptance phantom (a
    73k-node block) the factor holds 3.6M nonzeros and takes about 1 s and
    90 MB.
    """
    lu = splu(sys.L_U.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    return lu.solve((-sys.B).toarray())


def argmax_labels(probs: Sequence[Volume3D] | np.ndarray, labels: LabelSet,
                  roi: Volume3D) -> Volume3D:
    """Hard labels from per-label probability volumes.

    Each roi voxel receives the label with the highest probability; exact
    ties go to the smallest label id. Voxels outside the roi are background.
    `probs` is a sequence of Volume3D[probability] or an array (m, nx, ny,
    nz), one volume per label, ordered like `labels`.
    """
    if roi.kind != "mask":
        raise ValueError(f"roi must be a mask volume, got {roi.kind!r}")
    if isinstance(probs, np.ndarray):
        stack = np.asarray(probs, dtype=np.float64)
    else:
        for p in probs:
            require_same_dims(p, roi)
        stack = np.stack([p.data for p in probs])
    if stack.ndim != 4 or stack.shape[0] != len(labels):
        raise ValueError(
            f"need one probability volume per label ({len(labels)}), "
            f"got shape {stack.shape}"
        )
    if stack.shape[1:] != roi.dims:
        raise DimMismatch(f"probability dims {stack.shape[1:]} vs roi {roi.dims}")
    ids = np.asarray(labels.ids, dtype=np.uint16)
    best = ids[np.argmax(stack, axis=0)]  # argmax takes the first (smallest id) on ties
    hard = np.where(roi.data, best, BACKGROUND_ID).astype(np.uint16)
    return Volume3D(hard, "label", roi.spacing, roi.origin)


def soft_from_fills(n_voxels: int, solved, fills, k: int) -> np.ndarray:
    """Label column k's flat x-fastest soft volume, one fill at a time.

    `solved` holds (voxels, values) pairs whose rows are scattered as they
    are; `fills` holds (voxels, cols) pairs, each voxel one-hot in its
    column. Every other voxel is 0.
    """
    flat = np.zeros(n_voxels)
    for voxels, values in solved:
        flat[voxels] = values[:, k]
    for voxels, cols in fills:
        flat[voxels[cols == k]] = 1.0
    return flat


def _walk_tables(n_nodes: int, edges):
    nbrs = [[] for _ in range(n_nodes)]
    ws = [[] for _ in range(n_nodes)]
    for i, j, w in edges:
        nbrs[i].append(j)
        ws[i].append(w)
        nbrs[j].append(i)
        ws[j].append(w)
    maxd = max(len(v) for v in nbrs)
    nbr = np.zeros((n_nodes, maxd), dtype=np.int64)
    cum = np.ones((n_nodes, maxd))
    for v in range(n_nodes):
        if ws[v]:
            nbr[v, : len(nbrs[v])] = nbrs[v]
            c = np.cumsum(ws[v]) / np.sum(ws[v])
            c[-1] = 1.0
            cum[v, : len(c)] = c
    return nbr, cum


def mc_absorption_frequencies(
    n_nodes: int,
    edges,
    seeds: dict,
    label_ids,
    start: int,
    n_walks: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Empirical per-label absorption frequencies of a discrete random walk.

    Walkers step to neighbor j with probability w_ij / sum_k w_ik and stop
    at the first seeded node; frequencies are counted over its label.
    """
    nbr, cum = _walk_tables(n_nodes, edges)
    is_seed = np.zeros(n_nodes, dtype=bool)
    label_of = np.zeros(n_nodes, dtype=np.int64)
    for v, lab in seeds.items():
        is_seed[v] = True
        label_of[v] = lab
    pos = np.full(n_walks, start, dtype=np.int64)
    absorbed_label = np.zeros(n_walks, dtype=np.int64)
    active = np.arange(n_walks)
    while active.size:
        r = rng.random(active.size)
        here = pos[active]
        choice = (cum[here] < r[:, None]).sum(axis=1)
        pos[active] = nbr[here, choice]
        hit = is_seed[pos[active]]
        if hit.any():
            done = active[hit]
            absorbed_label[done] = label_of[pos[done]]
            active = active[~hit]
    label_ids = list(label_ids)
    return np.array([(absorbed_label == lab).mean() for lab in label_ids])


def blobby_field(dims, n_blobs: int, rng: np.random.Generator, sigma: float = 0.005):
    """Piecewise-constant intensity field over Voronoi cells plus noise.

    Returns (intensity, blob_index) arrays; blob levels are spread over
    [0.1, 0.9] so neighboring cells contrast strongly.
    """
    centers = rng.uniform(0, np.asarray(dims, dtype=float) - 1, size=(n_blobs, 3))
    axes = [np.arange(d, dtype=float) for d in dims]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    d2 = np.stack(
        [(X - c[0]) ** 2 + (Y - c[1]) ** 2 + (Z - c[2]) ** 2 for c in centers]
    )
    blob = np.argmin(d2, axis=0)
    levels = rng.permutation(np.linspace(0.1, 0.9, n_blobs))
    intensity = levels[blob]
    if sigma > 0:
        intensity = intensity + rng.normal(0.0, sigma, dims)
    return intensity, blob


def loop_phantom_arrays(spec):
    """(guidance, roi, truth, masks) of `spec`, one blob and one voxel at a time.

    Follows `make_phantom`'s RNG calls in order: the noise, the choice of
    corrupted voxels, then one scalar draw per conflict voxel.
    """
    rng = np.random.default_rng(spec.seed)
    dims = spec.dims
    nx, ny, nz = dims
    X, Y, Z = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in dims), indexing="ij")
    d2 = np.stack([(X - cx) ** 2 + (Y - cy) ** 2 + (Z - cz) ** 2 for cx, cy, cz in
                   (b.center for b in spec.blobs)])
    nearest = np.argmin(d2, axis=0)
    semi = spec.roi_semiaxes or tuple(0.45 * d for d in dims)
    roi = (((X - (nx - 1) / 2) / semi[0]) ** 2 + ((Y - (ny - 1) / 2) / semi[1]) ** 2
           + ((Z - (nz - 1) / 2) / semi[2]) ** 2) <= 1.0
    guidance = np.array([b.intensity for b in spec.blobs])[nearest]
    if spec.noise_sigma > 0:
        guidance = guidance + rng.normal(0.0, spec.noise_sigma, dims)
    blob_label = [b.label_id for b in spec.blobs]
    truth = np.where(roi, np.array(blob_label)[nearest], 0).astype(np.uint16)

    flat_truth = truth.ravel(order="F")
    labeled = np.flatnonzero(flat_truth)
    protected = set()
    if spec.keep_blob_centers:
        for b in spec.blobs:
            x, y, z = (min(int(round(c)), d - 1) for c, d in zip(b.center, dims))
            if roi[x, y, z]:
                protected.add(x + nx * y + nx * ny * z)
    eligible = np.array([v for v in labeled if v not in protected], dtype=np.int64)
    n_unlab = min(int(round(spec.unlabeled_fraction * labeled.size)), eligible.size)
    n_conf = min(int(round(spec.conflict_fraction * labeled.size)), eligible.size - n_unlab)
    picked = rng.choice(eligible, size=n_unlab + n_conf, replace=False)

    ids = sorted(set(blob_label))
    masks = [flat_truth == i for i in ids]
    for mask in masks:
        mask[picked[:n_unlab]] = False
    d2_flat = d2.reshape(len(spec.blobs), -1, order="F")
    for v in picked[n_unlab:]:
        cands = []
        for blob in np.argsort(d2_flat[:, [v]], axis=0)[:, 0]:
            lab = blob_label[blob]
            if lab != flat_truth[v] and lab not in cands and len(cands) < 3:
                cands.append(lab)
        masks[ids.index(cands[int(rng.integers(len(cands)))])][v] = True
    masks = np.stack([m.reshape(dims, order="F") for m in masks])
    return guidance, roi, truth, masks
