"""Combinatorial Dirichlet solver for seeded label probabilities.

Minimizing the discrete Dirichlet energy  1/2 * sum_ij w_ij (x_i - x_j)^2
with seeded nodes held fixed splits the graph Laplacian L into blocks over
seeded (S) and unseeded (U) nodes; the unknown values per label solve

    L_U x = -B e_label

where L_U is the U-U block, B the U-S coupling block summed per label
(B[r, k] adds up row r's couplings to the seeds of label k), and e_label
the label's unit vector. Row sums of [L_U | B] are zero by construction.

The nodes are voxels. `assemble` visits only the unseeded roi voxels and
their six neighbours, since the U-U and U-S edges are all the system needs;
seed-seed edges are never built. The connected components of L_U's own
graph are its blocks, numbered by their first node: scipy's order, pinned
by a test. A block with no edge to a seed (a pocket) joins neither S nor
U, so L_U is always SPD: a walker there never reaches a seed.
The solvers return x_U only, one row per unseeded voxel in `unseeded`
order; seeds and pockets have no row, and their voxels are the caller's to
fill.

`solve_all` picks its route from the block sizes. When no block of L_U has
more than `DIRECT_BLOCK_LIMIT` nodes, one sparse LU factorization solves
every label directly, with no closure and no stopping rule. Otherwise each
label but the last is solved with Jacobi-preconditioned conjugate
gradients, and the last label is recovered by simplex closure (1 minus the
others), which keeps per-node sums at exactly 1.

The conjugate gradients run on half the unknowns. The 6-connected lattice
is bipartite: every edge joins a voxel with i + j + k odd to one with
i + j + k even. Ordered by colour, with e the larger colour and o the
other,

    L_U = [[D_e, -W], [-W^T, D_o]]

with D_e and D_o diagonal, so x_e = D_e^-1 (b_e + W x_o) eliminates e
exactly and leaves the red-black reduced system (Saad, Iterative Methods
for Sparse Linear Systems, sec. 4.3)

    S x_o = b_o + W^T D_e^-1 b_e,    S = D_o - W^T D_e^-1 W,

which is SPD and is solved by CG with S's own diagonal as the Jacobi
preconditioner; S is applied as two products with W and never formed.
The back-substitution leaves the e rows with no residual, so the full
system's Jacobi residual ||D^-1 (b - L_U x)|| is ||r_o / d_o||: CG stops
once that is at most `CG_ATOL`, and a label's reported iterations count
steps of CG on S.

The CG is deflated by island pieces (Saad, Yeung, Erhel & Guyomarc'h,
SIAM J. Sci. Comput. 2000). Edges of weight at most `ISLAND_TAU` cut L_U's
graph into islands, the components of the strong edges; where intensity
jumps, nearly all weight sits inside the islands, the solution is nearly
constant on each, and the near-null modes that slow plain CG (a strongly
coupled cluster anchored through floored edges alone) are island
indicators. A large island with few seeds also holds smooth modes that one
constant cannot represent, so a fixed grid of `ISLAND_BOX`-voxel boxes cuts
each island into pieces, one per box it meets: subdomain deflation
(Nicolaides, SIAM J. Numer. Anal. 1987; Frank & Vuik, SIAM J. Sci. Comput.
2001). Every island, a single voxel included, keeps at least one piece. Z
holds the piece indicators restricted to the o colour (one column per
piece that holds an o node), and E = Z^T S Z is factored once per system.
Each label starts from x_0 = Z E^-1 Z^T b, and CG runs with the A-DEF2
preconditioner of Tang, Nabben, Vuik & Erlangga (J. Sci. Comput. 2009),
(I - Z E^-1 (S Z)^T) M^-1 + Z E^-1 Z^T with M = diag(S): the first term
takes the coarse part out of the Jacobi step, the second adds the exact
coarse solve of the residual back. That coarse term keeps the round-off in
Z^T r from building up; left out, CG diverges on some systems. A step
costs one solve with E. The number of columns of Z, the island pieces, is
reported as `ProbabilityField.n_islands`.

The solvers return one column per label; `voxprop.propagate` scatters
them into soft volumes one label at a time, as each is needed, so the CLI
writer holds one volume at a time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import SuperLU, splu

from .errors import ConvergenceFailure, EmptyRoi, NonFiniteInput, NoSeeds
from .lattice import _check_beta, _weights, neighbor_voxels
from .volume import LabelSet, Volume3D, _id_index, _sparse_zeros, _whole_ids, require_same_dims

log = logging.getLogger(__name__)

#: Most CG steps one label may take; a smaller system stops at 10 steps per
#: unseeded node.
MAX_ITERS_CAP = 100_000

#: Tolerated probability drift outside [0, 1] before clamping.
PROB_EPS = 1e-6

#: Drift beyond this aborts: the solver is misconfigured, not just inexact.
PROB_HARD_LIMIT = 1e-4

#: Largest L_U block, in nodes, that `solve_all` factors directly; larger
#: blocks go to PCG. Sparse LU fill grows fast with block size: one factor
#: of a 73k-node lattice block added about 100 MB of resident memory, where
#: PCG needs a few vectors.
DIRECT_BLOCK_LIMIT = 4096

#: Edge weight at or below which an edge joins two islands of the deflated
#: PCG instead of lying inside one. Far above `lattice.W_FLOOR`, so floored
#: edges always cut; far below the weights inside a smooth region.
ISLAND_TAU = 1e-3

#: Edge, in voxels, of the boxes that cut each island into pieces, one
#: column of the deflation space each. On the sparse-seeds benchmark phantom
#: (seed 203), 8 cut CG from 196 to 112 steps; 6 was as fast with 2.7 times
#: the fill in E, and 4 was slower, its E filling to 1.2M entries.
ISLAND_BOX = 8

#: Absolute Jacobi residual ||D^-1 (b - L_U x)|| at which a label's CG stops:
#: an estimate of its max error to an exact solve, not a bound.
CG_ATOL = 5e-8

#: What a failed sparse LU raises: SuperLU reports a failed allocation as
#: MemoryError or as "SystemError: gstrf was called with invalid arguments".
_SPLU_FAILURES = (MemoryError, RuntimeError, SystemError)


@dataclass(frozen=True)
class LabelSolveStats:
    """Per-label iteration count and achieved residual.

    `iterations` counts CG steps on the reduced system; `residual` is the
    full system's absolute Jacobi residual, at most `CG_ATOL` on the PCG
    route: an estimate of the label's error, not a bound on it.
    """

    label_id: int
    iterations: int
    residual: float
    closure: bool = False  # recovered as 1 - sum(others), no solve ran


@dataclass(frozen=True)
class DirichletSystem:
    """Partitioned lattice Laplacian around fixed seed voxels.

    Voxels are x-fastest flat indices into a grid of `dims`. `unseeded`
    holds the roi voxels that are not seeds, of blocks that reach a seed,
    ascending. L_U rows/cols and B rows follow `unseeded` order, and B
    columns follow `label_ids`, which ascend. A row of B stores one entry
    per seed neighbour, so it may repeat a label's column; products with B,
    `toarray` and `sum` add the repeats.

    A block is a connected component of the unseeded roi voxels; blocks are
    numbered by their first voxel, which is scipy's order, pinned by a test.
    `n_blocks` counts them all, pockets included, and `largest_block` is the
    node count of the largest block of L_U (0 when there is none). The
    pockets, blocks with no edge to a seed, are listed by id in
    `seedless_components`; their voxels, in `pocket_voxels`, are not in
    `unseeded`.
    """

    unseeded: np.ndarray
    L_U: sp.csr_matrix
    B: sp.csr_matrix
    label_ids: tuple[int, ...]
    pocket_voxels: np.ndarray
    seedless_components: tuple[int, ...]
    n_blocks: int
    largest_block: int
    dims: tuple[int, int, int]

    def __post_init__(self):
        for name in ("unseeded", "pocket_voxels"):
            getattr(self, name).setflags(write=False)

    @property
    def n_unseeded(self) -> int:
        return int(self.unseeded.size)


@dataclass(frozen=True)
class ProbabilityField:
    """Label probabilities of the unseeded nodes, columns over labels.

    Rows follow `DirichletSystem.unseeded`; seeds and seedless pockets have
    no row. Rows sum to 1 and lie in [0, 1] up to solver tolerance
    (clamped). `route` names the solver that `solve_all` took: "direct" or
    "pcg". `direct_error` names the sparse LU failure that sent a direct
    solve to PCG, and is None otherwise. `n_islands` counts the columns of
    the space that deflated the PCG, one per island piece (an island cut by
    an `ISLAND_BOX` box), and is 0 on the direct route.
    """

    values: np.ndarray  # float64 (n_unseeded, m)
    label_ids: tuple[int, ...]
    stats: tuple[LabelSolveStats, ...] = field(default=())
    route: str | None = None
    direct_error: str | None = None
    n_islands: int = 0

    def __post_init__(self):
        self.values.setflags(write=False)

    def column(self, label_id: int) -> np.ndarray:
        """Values of label `label_id`, found as `LabelSet.index` finds it."""
        return self.values[:, _id_index(self.label_ids, label_id)]


def _coerce_seeds(seeds) -> tuple[np.ndarray, np.ndarray]:
    nodes, labels = (list(seeds), list(seeds.values())) if isinstance(seeds, Mapping) else seeds
    nodes, labels = _whole_ids(nodes, "seed voxels"), _whole_ids(labels, "seed labels")
    if nodes.shape != labels.shape:
        raise ValueError("seed nodes and labels must have equal length")
    return nodes, labels


def _csr(slots, n_cols: int) -> sp.csr_matrix:
    """CSR matrix from (present, cols, vals) slots over its rows.

    Row r holds vals[r] at column cols[r] for every slot whose present[r]
    is set, in slot order.
    """
    indptr = np.concatenate([[0], np.cumsum(sum(present for present, _, _ in slots))])
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1])
    at = indptr[:-1].copy()
    for present, cols, vals in slots:
        where = at[present]
        indices[where] = cols[present]
        data[where] = vals[present]
        at += present
    return sp.csr_matrix((data, indices, indptr), shape=(at.size, n_cols))


def assemble(
    guidance: Volume3D,
    roi: Volume3D,
    seeds,
    beta: float,
    labels: LabelSet | None = None,
) -> DirichletSystem:
    """Partition the lattice Laplacian over `roi` around fixed seed voxels.

    Only the unseeded roi voxels and their neighbours are visited. L_U is
    built once over all of them, and its graph is searched once for its
    components, the blocks; blocks that reach no seed are pockets, and their
    rows and columns are then dropped from L_U and B. A voxel's degree sums
    its edge weights in `lattice.DIRECTIONS` order.

    Parameters
    ----------
    guidance, roi : intensity and mask volumes on one grid
    seeds : mapping voxel -> label_id, or (voxels, label_ids) arrays
        Voxels are x-fastest flat indices inside the roi.
    beta : edge-weight contrast, >= 0
    labels : optional LabelSet
        Declares the full label universe (and validates seed labels).
        Without it the label set is the sorted unique seed labels.

    Raises
    ------
    DimMismatch
        If guidance and roi differ in dims.
    EmptyRoi
        If the roi selects no voxel.
    NonFiniteInput
        If beta, or the guidance inside the roi, is NaN or inf.
    NoSeeds
        If no seed is given.
    ValueError
        If guidance is not an intensity volume or roi not a mask, beta is
        negative, or a seed voxel or label is a boolean or not a whole
        number, or a seed is out of range, outside the roi, repeated or
        labelled outside `labels` or with an id <= 0.
    """
    if guidance.kind != "intensity":
        raise ValueError(f"guidance must be an intensity volume, got {guidance.kind!r}")
    if roi.kind != "mask":
        raise ValueError(f"roi must be a mask volume, got {roi.kind!r}")
    require_same_dims(guidance, roi)
    beta = _check_beta(beta)
    inside = roi.data.ravel(order="F")
    intensity = guidance.data.ravel(order="F")
    if not inside.any():
        raise EmptyRoi("roi selects no voxels")
    if not np.isfinite(intensity).all() and not np.isfinite(intensity[inside]).all():
        raise NonFiniteInput("guidance image has non-finite values inside the roi")
    seed_voxels, seed_labels = _coerce_seeds(seeds)
    if seed_voxels.size == 0:
        raise NoSeeds("at least one seeded voxel is required")
    if seed_voxels.min() < 0 or seed_voxels.max() >= inside.size:
        raise ValueError("seed voxel index out of range")
    if not inside[seed_voxels].all():
        raise ValueError("seed voxels must lie inside the roi")
    if labels is not None:
        known = np.isin(seed_labels, labels.ids)
        if not known.all():
            stray = np.unique(seed_labels[~known])
            raise ValueError(f"seed labels {stray.tolist()} not in label set")
        label_ids = labels.ids
    else:
        label_ids = tuple(int(v) for v in np.unique(seed_labels))
    if min(label_ids) <= 0:
        raise ValueError("seed labels must be strictly positive")

    seeded = np.zeros(inside.size, dtype=bool)
    seeded[seed_voxels] = True
    if np.count_nonzero(seeded) < seed_voxels.size:
        raise ValueError("duplicate seed voxels")
    free = np.flatnonzero(inside & ~seeded)
    nbrs = neighbor_voxels(free, inside, roi.dims)
    present = nbrs >= 0
    to_seed = present & seeded[nbrs]
    to_free = present & ~to_seed

    # index[v]: a free voxel's row and column of L_U, a seed's label column of B.
    # Written only at roi voxels, so a large grid keeps it off huge pages
    index = _sparse_zeros(inside.size, np.int64)
    index[free] = np.arange(free.size)
    index[seed_voxels] = np.searchsorted(label_ids, seed_labels)
    col = index[nbrs]
    g = intensity[free]
    w = np.zeros(nbrs.shape)
    for k, has in enumerate(present):
        w[k, has] = _weights(g[has], intensity[nbrs[k, has]], beta)
    del nbrs
    deg = w[0].copy()
    for row in w[1:]:  # DIRECTIONS order
        deg += row
    np.negative(w, out=w)  # the off-diagonal entries are -w

    # per row, columns ascend from -z, -y, -x through the diagonal to +x, +y, +z;
    # B keeps a row's repeated label columns: sum_duplicates' unstable sort could reorder sums
    ascending = (5, 4, 3, 0, 1, 2)
    couplings = [(to_free[k], col[k], w[k]) for k in ascending]
    diagonal = (np.ones(free.size, dtype=bool), np.arange(free.size), deg)
    L_U = _csr(couplings[:3] + [diagonal] + couplings[3:], free.size)
    B = _csr([(to_seed[k], col[k], w[k]) for k in ascending], len(label_ids))
    del couplings, col, w, index  # held while L_U is copied below, they add 3 MB of peak

    n_blocks, block = connected_components(L_U, directed=False)
    reaches_seed = np.zeros(n_blocks, dtype=bool)
    reaches_seed[block[to_seed.any(axis=0)]] = True
    solved = reaches_seed[block]
    if not solved.all():
        # a pocket has no edge out of itself, so dropping its rows and
        # columns leaves every other row whole
        L_U, B = L_U[solved][:, solved], B[solved]

    return DirichletSystem(
        unseeded=free[solved],
        L_U=L_U,
        B=B,
        label_ids=label_ids,
        pocket_voxels=free[~solved],
        seedless_components=tuple(int(c) for c in np.flatnonzero(~reaches_seed)),
        n_blocks=n_blocks,
        largest_block=int(np.bincount(block[solved], minlength=n_blocks).max(initial=0)),
        dims=roi.dims,
    )


class _Reduction(NamedTuple):
    """L_U = [[D_e, -W], [-W^T, D_o]] split by colour, for deflated CG on S.

    `e` (the larger colour) and `o` are rows of L_U, and W is -L_U[e, o].
    `e_inv` is 1 / diag(D_e), `d_o` is diag(D_o) and `s_inv` is 1 / diag(S).
    `piece[i]` is the column of Z holding o node i, so Z y is y[piece].
    `Zt` is Z^T and `SZt` is (S Z)^T, both stored as CSR for the products
    that every A-DEF2 step takes with them, and `E` the LU factors of
    Z^T S Z.
    """

    e: np.ndarray
    o: np.ndarray
    W: sp.csr_matrix
    e_inv: np.ndarray
    d_o: np.ndarray
    s_inv: np.ndarray
    piece: np.ndarray
    Zt: sp.csr_matrix
    SZt: sp.csr_matrix
    E: SuperLU

    @property
    def n_islands(self) -> int:
        return self.E.shape[0]


def _reduce(sys: DirichletSystem) -> _Reduction:
    """Colour split of L_U and its island-piece space; S is never formed.

    The grid coordinates of `sys.unseeded` give each node's colour, the
    parity of i + j + k, and each o node's box of the `ISLAND_BOX` grid.
    Every U-U edge joins e to o, so W holds each one once: its entries
    above `ISLAND_TAU` are the strong edges whose components are islands.
    """
    L = sys.L_U
    ijk = np.unravel_index(sys.unseeded, sys.dims, order="F")
    odd = sum(ijk) % 2 == 1
    in_e = odd if 2 * np.count_nonzero(odd) > odd.size else ~odd
    e, o = np.flatnonzero(in_e), np.flatnonzero(~in_e)
    grid = tuple(-(-d // ISLAND_BOX) for d in sys.dims)
    box = np.ravel_multi_index(tuple(c[o] // ISLAND_BOX for c in ijk), grid, order="F")
    del ijk, odd, in_e
    W = -L[e][:, o]
    diag = L.diagonal()
    e_inv, d_o = 1.0 / diag[e], diag[o]
    s_diag = d_o - np.bincount(W.indices, W.data**2 * np.repeat(e_inv, np.diff(W.indptr)),
                               minlength=o.size)
    piece = _pieces(W, box, np.prod(grid))
    n_pieces = piece.max(initial=-1) + 1
    Z = sp.csr_matrix((np.ones(o.size), piece, np.arange(o.size + 1)), shape=(o.size, n_pieces))
    Zt = Z.T.tocsr()
    # (S Z)^T = Z^T D_o - (W Z)^T D_e^-1 W, built without S Z itself
    WZt = (W @ Z).T.tocsr()
    WZt.data *= e_inv[WZt.indices]
    SZt = Zt @ sp.diags(d_o) - WZt @ W
    try:
        E = _splu(SZt @ Z)
    except _SPLU_FAILURES as exc:
        raise ConvergenceFailure(f"sparse LU of the {n_pieces}-island deflation space "
                                 f"failed ({type(exc).__name__}: {exc})") from exc
    log.info("deflated CG on %d of %d unknowns: %d coarse columns, E fill %d",
             o.size, L.shape[0], n_pieces, E.nnz)
    return _Reduction(e, o, W, e_inv, d_o, 1.0 / s_diag, piece, Zt, SZt, E)


def _pieces(W: sp.csr_matrix, box: np.ndarray, n_boxes: int) -> np.ndarray:
    """Piece number of each o node: its (island, box) pair, in that order.

    Islands are the components of W's strong edges, searched as a graph
    over e then o and numbered by their first node, scipy's order; `box[i]`
    is o node i's box, one of `n_boxes`.
    """
    n_e, n_o = W.shape
    strong = W > ISLAND_TAU
    indptr = np.concatenate([strong.indptr, np.full(n_o, strong.nnz)])  # o rows empty
    graph = sp.csr_matrix((strong.data, n_e + strong.indices, indptr), shape=(n_e + n_o,) * 2)
    island = connected_components(graph, directed=False)[1][n_e:]
    return np.unique(island * n_boxes + box, return_inverse=True)[1]


def _solve_one(sys: DirichletSystem, red: _Reduction, label: int, out):
    """One label's x over `sys.unseeded` by deflated CG on S, written into `out`.

    The right-hand side of S x_o = b is b_o + W^T D_e^-1 b_e. x_o starts as
    Z E^-1 Z^T b, and every step preconditions the residual r = b - S x_o
    with A-DEF2 (Tang, Nabben, Vuik & Erlangga, J. Sci. Comput. 2009):

        z = M^-1 r - Z E^-1 ((S Z)^T M^-1 r - Z^T r),

    M the diagonal of S. The back-substitution leaves the full system's
    residual in the o rows alone, so the loop runs until ||r / d_o|| <=
    `CG_ATOL`. The recursive r can drift from b - S x_o, so the label is
    accepted, and its residual reported, on b - S x_o computed once after
    the loop; a NaN residual ends the loop and is never accepted. Returns
    the label's stats. A label with no seeds has b = 0, so x_0 = 0 and r = 0,
    and it stops at step 0 with exact +0.0 values.
    Raises ConvergenceFailure, with the achieved residual, at the iteration
    cap or unless that true residual is at most CG_ATOL.
    """
    b = -(sys.B @ np.eye(len(sys.label_ids))[sys.label_ids.index(label)])
    W, Wt, Zt, SZt, piece = red.W, red.W.T, red.Zt, red.SZt, red.piece
    b_e = b[red.e]
    b = b[red.o] + Wt @ (b_e * red.e_inv)
    y = red.E.solve(Zt @ b)
    x = y[piece]
    r = b - SZt.T @ y
    z = np.empty_like(r)
    p = np.zeros_like(r)
    rz = np.inf  # the first step's p is its z
    iter_cap = min(10 * sys.n_unseeded, MAX_ITERS_CAP)
    iters = 0
    while (res := np.linalg.norm(r / red.d_o)) > CG_ATOL and iters < iter_cap:
        np.multiply(red.s_inv, r, out=z)
        z -= red.E.solve(SZt @ z - Zt @ r)[piece]
        rz_old, rz = rz, float(r @ z)
        p *= rz / rz_old
        p += z
        t = W @ p
        t *= red.e_inv
        Sp = red.d_o * p
        Sp -= Wt @ t
        pSp = float(p @ Sp)
        if not pSp > 0.0:
            raise ConvergenceFailure(
                f"CG breakdown (p'Sp = {pSp}); system is not positive definite",
                iterations=iters,
                residual=res,
            )
        alpha = rz / pSp
        x += alpha * p
        r -= alpha * Sp
        iters += 1
    Wx = W @ x  # accept on the true residual b - S x, not the recursive one
    r = b - red.d_o * x
    r += Wt @ (Wx * red.e_inv)
    res = np.linalg.norm(r / red.d_o)
    if not res <= CG_ATOL:  # NaN included
        raise ConvergenceFailure(
            f"label {label}: residual {res:.3e} > CG_ATOL {CG_ATOL:.3e} "
            f"after {iters} iterations",
            iterations=iters,
            residual=res,
        )
    out[red.e] = (b_e + Wx) * red.e_inv
    out[red.o] = x
    log.info("label %d: %d CG steps, residual %.3e", label, iters, res)
    return LabelSolveStats(label, iters, float(res))


def solve_all(sys: DirichletSystem) -> ProbabilityField:
    """Probabilities of every label over the unseeded nodes.

    Returns values of shape (n_unseeded, m), rows ordered like
    `sys.unseeded`. When no block of L_U exceeds `DIRECT_BLOCK_LIMIT` nodes,
    one sparse LU factorization of L_U solves all m labels (route
    "direct"); if the factorization fails, the PCG route runs instead and
    `direct_error` says why. The PCG route eliminates the larger colour of
    the lattice once and factors the island-piece space once, then solves
    m - 1 labels one after another by deflated CG on the reduced system S,
    whose steps are the labels' reported iterations, and closes the simplex
    by assigning the remaining mass to the largest label id. Tiny negative
    drift is clamped to [0, 1]; rows whose sum moved more than 1e-6 from 1
    are renormalized (logged). Drift beyond 1e-4, NaN or inf raises
    ConvergenceFailure: that indicates a failed solve, not roundoff.

    A label's CG stops once ``||D^-1 (b - L_U x)|| <= CG_ATOL``, D the
    diagonal of L_U. That absolute residual, reported per label, estimates
    the label's max error to an exact solve; it does not bound it. CG raises
    :class:`ConvergenceFailure` after ``min(10 * n_unseeded, MAX_ITERS_CAP)``
    steps. The direct route does not use CG_ATOL.

    On the direct route a label's column is exact +0.0 on every block of
    L_U that has no seed of that label: its right-hand side is zero there,
    and the LU solve keeps it zero. `voxprop.propagate` writes only the
    nonzero entries into the soft volumes and relies on this.
    """
    label_ids = sys.label_ids
    direct_error = None
    if 0 < sys.largest_block <= DIRECT_BLOCK_LIMIT:
        try:
            # -B is nonnegative, so an unseeded label's column is +0.0, not -0.0
            values = _splu(sys.L_U).solve((-sys.B).toarray())
        except _SPLU_FAILURES as exc:
            direct_error = f"{type(exc).__name__}: {exc}"
            log.warning("sparse LU failed (%s); solving by PCG", direct_error)
        else:
            _finalize_probabilities(values)
            stats = tuple(LabelSolveStats(lab, 0, 0.0) for lab in label_ids)
            return ProbabilityField(values, label_ids, stats, "direct")

    head = label_ids[:-1] if sys.n_unseeded else ()
    # made before the reduction: made after its freed temporaries, it landed
    # on fresh pages and raised sparse-seeds peak RSS by 3 MB
    values = np.empty((sys.n_unseeded, len(label_ids)))
    red = _reduce(sys) if head else None
    stats = [_solve_one(sys, red, lab, values[:, k]) for k, lab in enumerate(head)]
    values[:, -1] = 1.0 - values[:, :-1].sum(axis=1)
    stats += [LabelSolveStats(lab, 0, 0.0, closure=True) for lab in label_ids[len(head):]]
    _finalize_probabilities(values)
    n_islands = red.n_islands if red is not None else 0
    return ProbabilityField(values, label_ids, tuple(stats), "pcg", direct_error, n_islands)


def _splu(A: sp.spmatrix) -> SuperLU:
    """Sparse LU of the symmetric matrix A, ordered on the pattern of A + A^T."""
    return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})


def _finalize_probabilities(values: np.ndarray) -> None:
    """Clamp tiny out-of-range drift in-place and renormalize drifted rows.

    Raises ConvergenceFailure on a NaN or infinite value, or on drift beyond
    `PROB_HARD_LIMIT`.
    """
    lo, hi = float(values.min(initial=0.0)), float(values.max(initial=1.0))
    if np.isnan(lo + hi):  # min and max carry any NaN through
        raise ConvergenceFailure("probabilities hold NaN; solver output is unusable")
    worst = max(-lo, hi - 1.0)
    if worst > PROB_HARD_LIMIT:
        raise ConvergenceFailure(
            f"probabilities violate [0, 1] by {worst:.3e} (> {PROB_HARD_LIMIT:.0e}); "
            "solver output is unusable"
        )
    np.clip(values, 0.0, 1.0, out=values)
    sums = values.sum(axis=1)
    drifted = np.abs(sums - 1.0) > PROB_EPS
    if drifted.any():
        log.warning(
            "renormalizing %d node rows with probability drift > %g",
            int(drifted.sum()),
            PROB_EPS,
        )
        values[drifted] /= sums[drifted, None]
