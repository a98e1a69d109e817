"""End-to-end label propagation inside a region of interest.

Pipeline: multi-labeled voxels are cleared to unlabeled, the remaining
single-labeled voxels become fixed seeds, the seeded Dirichlet system of
the 6-connected intensity-weighted lattice over the roi is assembled from
the unseeded voxels and their neighbours (`assemble`), and it is solved for
every label (`solve_all`: one sparse LU when its blocks are small, PCG on
the red-black reduced system otherwise). Outputs are soft per-label
probability volumes plus the argmax hard labeling, with a run report for
auditing. `propagate` runs this over the roi, and `propagate_bilateral`
over each hemisphere, through one driver.

Connected roi pockets that end up with no seed at all are left out of the
solve: a random walker there never reaches a seed. The `seedless_policy`
decides whether they abort the run, stay background, or inherit the label
of the spatially nearest seed.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .dirichlet import assemble, solve_all
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
    _sparse_zeros,
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
    # every (tied row, seed in its ball) pair at once; each ball holds the
    # row's nearest seed, so no segment of the reductions is empty
    balls = tree.query_ball_point(fill_at[tied], reach[tied])
    sizes = np.fromiter(map(len, balls), dtype=np.intp, count=tied.size)
    near = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp, count=sizes.sum())
    row = np.repeat(tied, sizes)
    r = np.sqrt((((seed_ijk[near] - fill_ijk[row]) * spacing) ** 2).sum(axis=1))
    starts = np.cumsum(sizes) - sizes
    r_min = np.minimum.reduceat(r, starts)
    near_cols = seed_cols[near]
    near_cols[r > np.repeat(r_min * (1 + 4 * eps), sizes)] = np.iinfo(near_cols.dtype).max
    cols[tied] = np.minimum.reduceat(near_cols, starts)
    return cols


def _propagate(req: PropagationRequest, regions: tuple[Volume3D, ...], where: str):
    """Seeded random-walker propagation over each of the disjoint `regions`.

    Conflicts are stripped once; each region is solved on its own seeds,
    and every region must hold one. Seeds outside all regions are dropped,
    with a warning naming them as outside `where`; roi voxels outside all
    regions form the gap. Every region is assembled before the seedless
    policy is applied, once, to the gap and to every region's pockets, so
    "error" raises before any solve. Under "nearest_seed" a pocket voxel
    takes the label of its region's nearest seed and a gap voxel that of
    the nearest seed of any region, both measured with the roi's spacing.

    Returns a builder of the soft volumes, the hard map, one report per
    region, and the run's seed and gap counts. The builder makes label
    column k's probability volume each time it is called, so a caller that
    writes each volume before building the next holds one at a time.
    """
    labels, roi = req.annotation.labels, req.roi
    seeds_vol, conflict_vol = strip_conflicts(req.annotation)
    # every volume is x-fastest, so these ravels are views
    seeds = seeds_vol.data.ravel(order="F")
    conflicts = conflict_vol.data
    union = functools.reduce(np.logical_or, [r.data for r in regions]).ravel(order="F")
    seeded = np.flatnonzero(seeds)
    n_outside = int(seeded.size - np.count_nonzero(union[seeded]))
    if n_outside:
        log.warning("dropping %d seeds outside the %s", n_outside, where)
    gap = np.flatnonzero(roi.data.ravel(order="F") & ~union)

    region_seeds = []
    for region in regions:
        seed_flat = seeded[region.data.ravel(order="F")[seeded]]
        if not seed_flat.size:
            raise NoSeedsInRoi("no single-labeled voxel inside the roi")
        region_seeds.append((seed_flat, seeds[seed_flat]))
    del seeded
    systems = [
        assemble(req.guidance, region, s, req.beta, labels)
        for region, s in zip(regions, region_seeds)
    ]

    policy = req.seedless_policy
    if policy == "error":
        if gap.size:
            raise SeedlessComponent(f"{gap.size} roi voxels lie outside the {where}")
        for system in systems:
            if system.seedless_components:
                raise SeedlessComponent(
                    f"unseeded blocks {list(system.seedless_components)} reach no seed "
                    f"({system.pocket_voxels.size} voxels)",
                    component_ids=system.seedless_components,
                )
    fill = policy == "nearest_seed"

    solved, seed_fills, policy_fills, reports = [], [], [], []
    for region, (seed_flat, seed_labels) in zip(regions, region_seeds):
        system = systems.pop(0)  # freed after its solve, before the soft volumes exist
        field_ = solve_all(system)
        solved.append((system.unseeded, field_.values))
        seed_fills.append((seed_flat, np.searchsorted(labels.ids, seed_labels)))
        pockets = system.pocket_voxels
        if fill and pockets.size:
            cols = _nearest_seed_cols(pockets, *seed_fills[-1], roi.dims, roi.spacing)
            policy_fills.append((pockets, cols))
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
        reports.append({
            "n_nodes": int(seed_flat.size + system.n_unseeded),
            "n_unseeded": int(system.n_unseeded),
            "n_seeds": int(seed_flat.size),
            "n_conflicts_cleared": int((conflicts & region.data).sum()),
            "n_blocks": system.n_blocks,
            "largest_block": system.largest_block,
            "route": field_.route,
            "direct_error": field_.direct_error,
            "n_islands": field_.n_islands,
            "seedless_components": list(system.seedless_components),
            "n_seedless_voxels": int(pockets.size),
            "n_policy_filled": int(pockets.size) if fill else 0,
            "policy": policy,
            "beta": float(req.beta),
            "labels": stats,
            "total_iterations": int(sum(s["iterations"] for s in stats)),
        })
        del system
    if fill and gap.size:
        all_seeds = (np.concatenate(parts) for parts in zip(*seed_fills))
        policy_fills.append((gap, _nearest_seed_cols(gap, *all_seeds, roi.dims, roi.spacing)))
    fills = seed_fills + policy_fills
    run = {
        "n_seeds_outside_roi": n_outside,
        "n_gap_voxels": int(gap.size),
        "n_gap_filled": int(gap.size) if fill else 0,
    }

    # one-hot rows for the fills; a hard voxel takes its row's argmax, ties
    # going to the smallest label id; voxels in neither stay background
    ids = np.asarray(labels.ids, dtype=np.uint16)
    hard = np.full(roi.n_voxels, BACKGROUND_ID, dtype=np.uint16)
    for voxels, values in solved:
        hard[voxels] = ids[np.argmax(values, axis=1)]
    for voxels, cols in fills:
        hard[voxels] = ids[cols]

    # a filled voxel is one-hot in its hard label; solved rows then overwrite
    # the 1.0 written where their argmax is k, which is never a zero since
    # each row sums to 1. Only entries whose bits are nonzero are written:
    # the rest are +0.0, which np.zeros already holds (every direct-route
    # block without a seed of label k, see `solve_all`), and a -0.0 is
    # still written, so the volume equals a full scatter. A soft volume
    # thus costs the pages of its label's one-hot fill and of its nonzero
    # solved entries: 4 KB pages, since `_sparse_zeros` keeps a volume of
    # 4 MiB or more off the 2 MB huge pages numpy would ask for.
    def soft_volume(k: int) -> Volume3D:
        flat = _sparse_zeros(roi.n_voxels)
        np.copyto(flat, 1.0, where=hard == ids[k])
        for voxels, values in solved:
            col = values[:, k]
            held = col.view(np.uint64) != 0
            flat[voxels[held]] = col[held]
        return _volume(flat, roi, "probability")

    return soft_volume, _volume(hard, roi, "label"), reports, run


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
    soft_volume, hard, report = _propagate_roi(req)
    soft = tuple(soft_volume(k) for k in range(len(req.annotation.labels)))
    return PropagationResult(req.annotation.labels, soft, hard, report)


def _propagate_roi(req: PropagationRequest):
    """`propagate`'s soft-volume builder, hard map and report."""
    soft_volume, hard, (region,), run = _propagate(req, (req.roi,), "roi")
    return soft_volume, hard, {"n_seeds_outside_roi": run["n_seeds_outside_roi"], **region}


def propagate_bilateral(
    req: PropagationRequest,
    hemisphere_masks: tuple[Volume3D, Volume3D],
    workers: int = 1,
) -> PropagationResult:
    """Propagate each hemisphere independently and merge the results.

    The two masks must be disjoint and lie inside the request roi. A
    hemisphere's seedless pockets are filled from its own seeds; roi voxels
    outside both hemispheres follow the request's seedless policy, using
    the seeds of both. Fill distances use the roi's spacing, whatever the
    masks' spacing. `workers` is ignored, as in `propagate`.

    Raises
    ------
    OverlappingHemispheres
    NoSeedsInRoi
        If either hemisphere contains no seed.
    SeedlessComponent
        Under ``seedless_policy="error"`` if roi voxels lie outside both
        hemispheres or a hemisphere has a seedless pocket; both are checked
        before any solve.
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

    soft_volume, hard, halves, run = _propagate(req, (left, right), "hemisphere masks")
    soft = tuple(soft_volume(k) for k in range(len(req.annotation.labels)))
    report = {
        "mode": "bilateral",
        "hemispheres": halves,
        **run,
        "policy": req.seedless_policy,
        "beta": float(req.beta),
        "n_labeled_voxels": int(union.sum()) + run["n_gap_filled"],
    }
    return PropagationResult(req.annotation.labels, soft, hard, report)
