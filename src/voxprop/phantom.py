"""Synthetic multi-blob phantoms for exercising the propagation pipeline.

A phantom is a Voronoi partition of an ellipsoidal roi around k blob
centers. The guidance image is piecewise constant (one intensity per blob)
plus Gaussian noise; the truth labeling assigns every roi voxel to its
nearest center. The annotation is the truth degraded by clearing a fraction
of labeled voxels and double-labeling another fraction, which reproduces
the gap/overlap structure of hand-corrected per-structure delineations.

Everything is deterministic given the spec's RNG seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Real
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import BadSpec
from .volume import BACKGROUND_ID, LabelSet, MultiLabelAnnotation, Volume3D


@dataclass(frozen=True)
class PhantomBlob:
    center: tuple[float, float, float]  # voxel coordinates
    label_id: int
    intensity: float


@dataclass(frozen=True)
class PhantomSpec:
    """Declarative phantom description.

    roi_semiaxes defaults to 0.45 * dims (an ellipsoid inside the grid).
    Fractions are measured against the labeled (roi) voxel count; their sum
    must not exceed 1. With keep_blob_centers, the voxel nearest each blob
    center is never corrupted, so every blob retains at least one seed.
    """

    dims: tuple[int, int, int]
    blobs: tuple[PhantomBlob, ...]
    roi_semiaxes: tuple[float, float, float] | None = None
    noise_sigma: float = 0.0
    unlabeled_fraction: float = 0.0
    conflict_fraction: float = 0.0
    keep_blob_centers: bool = True
    seed: int = 0
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    label_names: dict[int, str] | None = None

    def label_set(self) -> LabelSet:
        ids = sorted({b.label_id for b in self.blobs})
        names = self.label_names or {}
        return LabelSet(tuple((i, names.get(i, f"blob{i}")) for i in ids))

    @classmethod
    def from_dict(cls, d: dict) -> "PhantomSpec":
        try:
            blobs = tuple(
                PhantomBlob(tuple(_real(c, "center") for c in b["center"]),
                            _whole(b["label_id"], "label_id"), _real(b["intensity"], "intensity"))
                for b in d["blobs"]
            )
            names = d.get("label_names")
            if names is not None and not isinstance(names, Mapping):
                raise TypeError(f"label_names must map ids to names, got {names!r}")
            return cls(
                dims=tuple(_whole(v, "dims") for v in d["dims"]),
                blobs=blobs,
                roi_semiaxes=(
                    tuple(_real(v, "roi_semiaxes") for v in d["roi_semiaxes"])
                    if d.get("roi_semiaxes") is not None
                    else None
                ),
                noise_sigma=_real(d.get("noise_sigma", 0.0), "noise_sigma"),
                unlabeled_fraction=_real(d.get("unlabeled_fraction", 0.0), "unlabeled_fraction"),
                conflict_fraction=_real(d.get("conflict_fraction", 0.0), "conflict_fraction"),
                keep_blob_centers=_flag(d.get("keep_blob_centers", True), "keep_blob_centers"),
                seed=_whole(d.get("seed", 0), "seed"),
                spacing=tuple(_real(v, "spacing") for v in d.get("spacing", (1.0, 1.0, 1.0))),
                label_names=(  # JSON keys are strings
                    {int(k) if isinstance(k, str) else _whole(k, "label_names key"): str(v)
                     for k, v in names.items()}
                    if names else None
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BadSpec(f"malformed phantom spec: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "PhantomSpec":
        try:
            d = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise BadSpec(f"cannot load phantom spec {path}: {exc}") from exc
        return cls.from_dict(d)


def _real(v, what: str) -> float:
    """A spec number such as 0.5 or 2, but not the string "0.5" or true."""
    if isinstance(v, bool) or not isinstance(v, Real):
        raise TypeError(f"{what} must be a number, got {v!r}")
    return float(v)


def _whole(v, what: str) -> int:
    """A spec number that must be an integer, such as 8 or 8.0 but not 8.7."""
    if not _real(v, what).is_integer():
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return int(v)


def _flag(v, what: str) -> bool:
    """A spec value that must be a JSON boolean: the string "false" is not one."""
    if not isinstance(v, bool):
        raise TypeError(f"{what} must be true or false, got {v!r}")
    return v


@dataclass(frozen=True)
class Phantom:
    """Generated phantom volumes; `labels` mirrors annotation.labels."""

    guidance: Volume3D
    roi: Volume3D
    annotation: MultiLabelAnnotation
    truth: Volume3D

    @property
    def labels(self) -> LabelSet:
        return self.annotation.labels


def _validate(spec: PhantomSpec) -> None:
    if len(spec.dims) != 3 or min(spec.dims) < 1:
        raise BadSpec(f"dims must be 3 positive ints, got {spec.dims}")
    if len(spec.spacing) != 3 or not all(0 < s < np.inf for s in spec.spacing):
        raise BadSpec(f"spacing must be 3 finite values > 0, got {spec.spacing}")
    if spec.seed < 0:
        raise BadSpec(f"seed must be >= 0, got {spec.seed}")
    if not spec.blobs:
        raise BadSpec("at least one blob is required")
    for b in spec.blobs:
        if len(b.center) != 3:
            raise BadSpec(f"blob center {b.center} is not 3D")
        if not all(0 <= c < d for c, d in zip(b.center, spec.dims)):
            raise BadSpec(f"blob center {b.center} outside dims {spec.dims}")
        if b.label_id <= BACKGROUND_ID:
            raise BadSpec(f"blob label id must be positive, got {b.label_id}")
    try:
        spec.label_set()
    except ValueError as exc:  # a repeated or malformed name, or an id beyond uint16
        raise BadSpec(f"bad labels: {exc}") from exc
    for name, frac in (
        ("unlabeled_fraction", spec.unlabeled_fraction),
        ("conflict_fraction", spec.conflict_fraction),
    ):
        if not 0.0 <= frac <= 1.0:
            raise BadSpec(f"{name} must be in [0, 1], got {frac}")
    if spec.unlabeled_fraction + spec.conflict_fraction > 1.0 + 1e-12:
        raise BadSpec("unlabeled_fraction + conflict_fraction exceeds 1")
    if not 0 <= spec.noise_sigma < np.inf:
        raise BadSpec(f"noise_sigma must be finite and >= 0, got {spec.noise_sigma}")
    if spec.conflict_fraction > 0 and len({b.label_id for b in spec.blobs}) < 2:
        raise BadSpec("conflicts need at least two distinct labels")
    if spec.roi_semiaxes is not None and min(spec.roi_semiaxes) <= 0:
        raise BadSpec(f"roi semiaxes must be positive, got {spec.roi_semiaxes}")


def make_phantom(spec: PhantomSpec) -> Phantom:
    """Generate guidance, roi, corrupted annotation, and truth volumes.

    Each voxel takes the blob of its nearest center, the first-listed blob
    on a tie. A conflict voxel gains a second label, drawn uniformly from
    the nearest min(3, k - 1) other labels (k blobs, fewer when labels
    repeat; a label is as near as its nearest blob). With keep_blob_centers
    each center's voxel, its rounded index clamped into the grid, is kept.

    Raises
    ------
    BadSpec
        On inconsistent parameters (fractions outside [0, 1], centers
        outside the grid, conflicts requested with a single label, ...).
    """
    _validate(spec)
    rng = np.random.default_rng(spec.seed)
    nx, ny, nz = spec.dims
    labels = spec.label_set()
    # open grids: each sum below broadcasts to the same floats as a meshgrid.
    # The grids run over (z, y, x), so every array is C-ordered over (z, y, x)
    # and its transpose, indexed [x, y, z], is x-fastest like a Volume3D.
    Z, Y, X = np.ogrid[0.0:nz, 0.0:ny, 0.0:nx]

    semi = spec.roi_semiaxes or tuple(0.45 * d for d in spec.dims)
    cx, cy, cz = ((nx - 1) / 2, (ny - 1) / 2, (nz - 1) / 2)
    roi_data = (
        ((X - cx) / semi[0]) ** 2
        + ((Y - cy) / semi[1]) ** 2
        + ((Z - cz) / semi[2]) ** 2
    ).T <= 1.0
    if not roi_data.any():
        raise BadSpec("roi semiaxes select no voxels")

    # nearest blob by a running minimum; the strict < keeps the first of a tie
    centers = [b.center for b in spec.blobs]
    nearest = np.zeros((nz, ny, nx), dtype=np.intp)
    best = np.full((nz, ny, nx), np.inf)
    for i, (cx, cy, cz) in enumerate(centers):
        d2 = (X - cx) ** 2 + (Y - cy) ** 2 + (Z - cz) ** 2
        nearest[d2 < best] = i
        np.minimum(best, d2, out=best)
    del best, d2
    nearest = nearest.T

    guidance_data = np.array([b.intensity for b in spec.blobs])[nearest]
    if spec.noise_sigma > 0:
        guidance_data += rng.normal(0.0, spec.noise_sigma, spec.dims)

    blob_label = np.array([b.label_id for b in spec.blobs], dtype=np.uint16)
    truth_data = np.where(roi_data, blob_label[nearest], BACKGROUND_ID).astype(np.uint16)
    del nearest

    # corrupt: pick disjoint unlabeled/conflict subsets of the labeled voxels,
    # as indices into the F-order ravel
    flat_truth = truth_data.ravel(order="F")
    eligible = np.flatnonzero(flat_truth)
    n_labeled = eligible.size
    if spec.keep_blob_centers:
        kept = [[min(int(round(c)), d - 1) for c, d in zip(ctr, spec.dims)] for ctr in centers]
        protected = [x + nx * y + nx * ny * z for x, y, z in kept if roi_data[x, y, z]]
        eligible = eligible[~np.isin(eligible, protected)]

    n_unlab = min(int(round(spec.unlabeled_fraction * n_labeled)), eligible.size)
    n_conf = min(int(round(spec.conflict_fraction * n_labeled)), eligible.size - n_unlab)
    picked = rng.choice(eligible, size=n_unlab + n_conf, replace=False)
    unlab_idx, conf_idx = picked[:n_unlab], picked[n_unlab:]

    ids = np.array(labels.ids, dtype=np.uint16)
    masks_flat = flat_truth == ids[:, None]  # (m, n_voxels), F order
    masks_flat[:, unlab_idx] = False

    if n_conf:
        # rank the labels by their nearest blob, own label last; draw a rank
        xyz = np.unravel_index(conf_idx, spec.dims, order="F")
        x, y, z = (v.astype(np.float64) for v in xyz)
        d2 = np.stack([(x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2 for cx, cy, cz in centers])
        blob_rank = np.argsort(np.argsort(d2, axis=0), axis=0)
        label_rank = np.full((len(ids), n_conf), len(centers))
        np.minimum.at(label_rank, np.searchsorted(ids, blob_label), blob_rank)
        label_rank[np.searchsorted(ids, flat_truth[conf_idx]), np.arange(n_conf)] = len(centers)
        draw = rng.integers(min(3, len(ids) - 1), size=n_conf)
        second = np.take_along_axis(np.argsort(label_rank, axis=0), draw[None], axis=0)[0]
        masks_flat[second, conf_idx] = True

    # a view, not a copy: each label's volume is F-ordered
    masks = masks_flat.reshape(len(ids), nz, ny, nx).transpose(0, 3, 2, 1)

    guidance = Volume3D(guidance_data, "intensity", spec.spacing)
    roi = Volume3D(roi_data, "mask", spec.spacing)
    truth = Volume3D(truth_data, "label", spec.spacing)
    annotation = MultiLabelAnnotation(labels, masks, spec.spacing)
    return Phantom(guidance, roi, annotation, truth)
