"""End-to-end label propagation inside a region of interest.

Pipeline: multi-labeled voxels are cleared to unlabeled, the remaining
single-labeled voxels become fixed seeds, the seeded Dirichlet system of
the 6-connected intensity-weighted lattice over the roi is assembled from
the unseeded voxels and their neighbours (`assemble`), and it is solved for
every label (`solve_all`: one sparse LU when its blocks are small, PCG on
the red-black reduced system otherwise). Outputs are soft per-label
probability volumes plus the argmax hard labeling, with a run report for
auditing.

Connected roi pockets that end up with no seed at all are left out of the
solve: a random walker there never reaches a seed. The `seedless_policy`
decides whether they abort the run, stay background, or inherit the label
of the spatially nearest seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .dirichlet import SolverConfig, assemble, solve_all
from .errors import (
    DimMismatch,
    NoSeedsInRoi,
    OverlappingHemispheres,
    SeedlessComponent,
)
from .lattice import _check_beta
from .volume import (
    BACKGROUND_ID,
    LabelSet,
    MultiLabelAnnotation,
    Volume3D,
    require_same_dims,
    strip_conflicts,
)

log = logging.getLogger(__name__)

SEEDLESS_POLICIES = ("error", "nearest_seed", "background")


@dataclass(frozen=True)
class PropagationRequest:
    """Inputs for one propagation run.

    guidance supplies the edge-weight intensities (normalize to [0, 1]
    before building the request if beta is on its usual ~1e4 scale); roi
    bounds the solve; the annotation provides the label set, and the seeds
    after conflict stripping.
    """

    guidance: Volume3D
    roi: Volume3D
    annotation: MultiLabelAnnotation
    beta: float = 10_000.0
    solver: SolverConfig = field(default_factory=SolverConfig)
    seedless_policy: str = "nearest_seed"

    def __post_init__(self):
        if self.guidance.kind != "intensity":
            raise ValueError(f"guidance must be intensity, got {self.guidance.kind!r}")
        if self.roi.kind != "mask":
            raise ValueError(f"roi must be a mask, got {self.roi.kind!r}")
        if self.guidance.dims != self.roi.dims or self.guidance.dims != self.annotation.dims:
            raise DimMismatch(
                f"guidance {self.guidance.dims}, roi {self.roi.dims}, "
                f"annotation {self.annotation.dims} must share dims"
            )
        _check_beta(self.beta)
        if self.seedless_policy not in SEEDLESS_POLICIES:
            raise ValueError(
                f"seedless_policy {self.seedless_policy!r} not in {SEEDLESS_POLICIES}"
            )


@dataclass(frozen=True)
class PropagationResult:
    """Soft and hard propagation outputs.

    `soft` holds one probability volume per label (ordered like `labels`),
    zero outside the labeled region; `hard` is their argmax over the region
    that received labels (equal to the roi under the nearest_seed policy)
    and background elsewhere. `report` collects run counts and per-label
    solver statistics.
    """

    labels: LabelSet
    soft: tuple[Volume3D, ...]
    hard: Volume3D
    report: dict


def _nearest_seed_cols(fill_voxels, seed_voxels, seed_cols, dims, spacing):
    """Label column of the spacing-weighted nearest seed for each fill voxel.

    Voxels are x-fastest flat indices on a grid of shape `dims`; seed
    ``seed_voxels[i]`` carries label column ``seed_cols[i]``. Distances are
    Euclidean in physical units (index offsets times `spacing`). Ties go to
    the smaller label id, and a tie is any seed whose distance, computed
    from its index offset, is within ``r * (1 + 4 * eps)`` of the smallest
    such distance r (eps the float64 machine epsilon): seeds equidistant in
    exact arithmetic tie even when their offsets round differently, as
    ``3 * 0.1`` and ``0.3`` do.

    One KD-tree query over the seeds' physical coordinates gives each fill
    voxel's two nearest distances. Those coordinates carry rounding of a
    few ulps of the grid extent, so a row whose two distances lie within
    that slack of each other is settled on index offsets instead, over all
    seeds in the slack of its nearest. No fill voxel is a seed, so r > 0.
    """
    # loaded on first fill only: runs without pockets or a gap never need it
    from scipy.spatial import cKDTree

    eps = np.finfo(float).eps
    fill_ijk, seed_ijk = (
        np.column_stack(np.unravel_index(v, dims, order="F")) for v in (fill_voxels, seed_voxels)
    )
    fill_at = fill_ijk * spacing
    tree = cKDTree(seed_ijk * spacing)
    # with one seed the second neighbour is padding: distance inf, index n
    dist, nearest = tree.query(fill_at, k=2)
    cols = seed_cols[nearest[:, 0]]
    reach = dist[:, 0] + 16 * eps * (np.dot(dims, spacing) + dist[:, 0])
    tied = np.flatnonzero(dist[:, 1] <= reach)
    for i, near in zip(tied, tree.query_ball_point(fill_at[tied], reach[tied])):
        r = np.sqrt((((seed_ijk[near] - fill_ijk[i]) * spacing) ** 2).sum(axis=1))
        cols[i] = seed_cols[near][r <= r.min() * (1 + 4 * eps)].min()
    return cols


def _solve_region(req: PropagationRequest, roi: Volume3D, seeds, conflicts):
    """Seeded Dirichlet solve over `roi`, and the fill of its seeds and pockets.

    Only the voxels of the seed label volume `seeds` inside `roi` are
    seeds. Returns ``(voxels, values)`` over the unseeded nodes, with
    values (n_unseeded, m); the fills as ``(voxels, label columns)`` pairs,
    the seeds first and then, under nearest_seed, the seedless pockets; and
    the region's report.
    """
    labels = req.annotation.labels
    seeds_in = (seeds > 0) & roi.data
    if not seeds_in.any():
        raise NoSeedsInRoi("no single-labeled voxel inside the roi")
    seed_flat = np.flatnonzero(seeds_in.ravel(order="F"))
    seed_labels = seeds.ravel(order="F")[seed_flat]

    system = assemble(req.guidance, roi, (seed_flat, seed_labels), req.beta, labels)
    seedless, pocket_voxels = system.seedless_components, system.pocket_voxels
    if seedless and req.seedless_policy == "error":
        raise SeedlessComponent(
            f"unseeded blocks {list(seedless)} reach no seed "
            f"({pocket_voxels.size} voxels)",
            component_ids=seedless,
        )
    field_ = solve_all(system, req.solver)
    solved = (system.unseeded, field_.values)

    seed_cols = np.searchsorted(labels.ids, seed_labels)
    fills = [(seed_flat, seed_cols)]
    n_filled = 0
    if seedless and req.seedless_policy == "nearest_seed":
        cols = _nearest_seed_cols(pocket_voxels, seed_flat, seed_cols, roi.dims, roi.spacing)
        fills.append((pocket_voxels, cols))
        n_filled = pocket_voxels.size

    stats = [
        {
            "label_id": int(s.label_id),
            "name": labels.name(int(s.label_id)),
            "iterations": int(s.iterations),
            "residual": float(s.residual),
            "closure": bool(s.closure),
        }
        for s in field_.stats
    ]
    report = {
        "n_nodes": int(seed_flat.size + system.n_unseeded),
        "n_unseeded": int(system.n_unseeded),
        "n_seeds": int(seed_flat.size),
        "n_conflicts_cleared": int((conflicts & roi.data).sum()),
        "n_blocks": system.n_blocks,
        "largest_block": system.largest_block,
        "route": field_.route,
        "direct_error": field_.direct_error,
        "seedless_components": list(seedless),
        "n_seedless_voxels": int(pocket_voxels.size),
        "n_policy_filled": int(n_filled),
        "policy": req.seedless_policy,
        "beta": float(req.beta),
        "rel_tol": float(req.solver.rel_tol),
        "labels": stats,
        "total_iterations": int(sum(s["iterations"] for s in stats)),
    }
    return solved, fills, report


def _write_volumes(like: Volume3D, labels: LabelSet, solved, fills):
    """Scatter node-space results and fills into soft volumes and a hard map.

    `solved` holds ``(voxels, values)`` pairs and `fills` holds ``(voxels,
    label columns)`` pairs, seeds and policy fills alike, which get one-hot
    rows. A hard voxel takes its row's argmax, ties going to the smallest
    label id. Voxels in neither stay background with zero probabilities.
    """
    ids = np.asarray(labels.ids, dtype=np.uint16)
    hard = np.full(like.n_voxels, BACKGROUND_ID, dtype=np.uint16)
    for voxels, values in solved:
        hard[voxels] = ids[np.argmax(values, axis=1)]
    for voxels, cols in fills:
        hard[voxels] = ids[cols]
    soft = []
    for k in range(len(labels)):
        flat = np.zeros(like.n_voxels)
        for voxels, values in solved:
            flat[voxels] = values[:, k]
        for voxels, cols in fills:
            flat[voxels[cols == k]] = 1.0
        soft.append(_volume(flat, like, "probability"))
    return tuple(soft), _volume(hard, like, "label")


def _volume(flat: np.ndarray, like: Volume3D, kind) -> Volume3D:
    """Volume on `like`'s grid over the x-fastest array `flat`, not copied."""
    return Volume3D._adopt(flat.reshape(like.dims, order="F"), kind, like.spacing, like.origin)


def propagate(req: PropagationRequest, workers: int = 1) -> PropagationResult:
    """Run seeded random-walker propagation over the roi.

    `workers` is ignored, and is accepted so that calls passing it keep
    working: the labels are solved one after another.

    Raises
    ------
    NoSeedsInRoi
        If, after conflict stripping, no single-labeled voxel lies in the roi.
    SeedlessComponent
        Under ``seedless_policy="error"`` when an unseeded block has no edge
        to a seed.
    """
    seeds_vol, conflict_vol = strip_conflicts(req.annotation)
    n_outside = int(((seeds_vol.data > 0) & ~req.roi.data).sum())
    if n_outside:
        log.warning("dropping %d seeds outside the roi", n_outside)
    solved, fills, report = _solve_region(req, req.roi, seeds_vol.data, conflict_vol.data)
    labels = req.annotation.labels
    soft, hard = _write_volumes(req.roi, labels, [solved], fills)
    report = {"n_seeds_outside_roi": n_outside, **report}
    return PropagationResult(labels, soft, hard, report)


def propagate_bilateral(
    req: PropagationRequest,
    hemisphere_masks: tuple[Volume3D, Volume3D],
    workers: int = 1,
) -> PropagationResult:
    """Propagate each hemisphere independently and merge the results.

    The two masks must be disjoint and lie inside the request roi. A
    hemisphere's seedless pockets are filled from its own seeds; roi voxels
    outside both hemispheres follow the request's seedless policy, using
    the seeds of both. `workers` is ignored, as in `propagate`.

    Raises
    ------
    OverlappingHemispheres
    NoSeedsInRoi
        If either hemisphere contains no seed.
    SeedlessComponent
        Under ``seedless_policy="error"`` if roi voxels lie outside both
        hemispheres (checked before any solve) or a hemisphere has a
        seedless pocket.
    """
    left, right = hemisphere_masks
    for h in (left, right):
        if h.kind != "mask":
            raise ValueError(f"hemisphere masks must be masks, got {h.kind!r}")
    require_same_dims(req.roi, left, right)
    if (left.data & right.data).any():
        raise OverlappingHemispheres("hemisphere masks intersect")
    union = left.data | right.data
    if (union & ~req.roi.data).any():
        raise ValueError("hemisphere masks extend outside the roi")
    gap = req.roi.data & ~union
    n_gap = int(gap.sum())
    if n_gap and req.seedless_policy == "error":
        raise SeedlessComponent(f"{n_gap} roi voxels lie outside both hemisphere masks")

    labels = req.annotation.labels
    seeds_vol, conflict_vol = strip_conflicts(req.annotation)
    seeds = seeds_vol.data
    n_outside = int(((seeds > 0) & ~union).sum())
    if n_outside:
        log.warning("dropping %d seeds outside the hemisphere masks", n_outside)
    halves = [_solve_region(req, h, seeds, conflict_vol.data) for h in (left, right)]

    fills = [f for _, region_fills, _ in halves for f in region_fills]
    n_gap_filled = 0
    if n_gap and req.seedless_policy == "nearest_seed":
        gap_voxels = np.flatnonzero(gap.ravel(order="F"))
        # each half's first fill holds its seeds: together, the seeds in `union`
        seed_voxels, seed_cols = (
            np.concatenate(parts) for parts in zip(*(f[0] for _, f, _ in halves))
        )
        gap_cols = _nearest_seed_cols(
            gap_voxels, seed_voxels, seed_cols, req.roi.dims, req.roi.spacing
        )
        fills.append((gap_voxels, gap_cols))
        n_gap_filled = n_gap

    soft, hard = _write_volumes(req.roi, labels, [s for s, _, _ in halves], fills)
    report = {
        "mode": "bilateral",
        "hemispheres": [r for _, _, r in halves],
        "n_seeds_outside_roi": n_outside,
        "n_gap_voxels": n_gap,
        "n_gap_filled": n_gap_filled,
        "policy": req.seedless_policy,
        "beta": float(req.beta),
        "n_labeled_voxels": int(union.sum()) + n_gap_filled,
    }
    return PropagationResult(labels, soft, hard, report)
