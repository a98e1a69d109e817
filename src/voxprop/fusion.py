"""Majority-vote label fusion and Dice evaluation.

Fusion combines several hard label maps (e.g. propagations driven by
different MR contrasts) into one by per-voxel plurality; background is a
legal vote. Evaluation follows the protocol of excluding ambiguously
annotated voxels and reporting per-class Dice plus a volume-weighted
overall score.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimMismatch, TooFewMaps
from .volume import (
    BACKGROUND_ID,
    LabelSet,
    MultiLabelAnnotation,
    Volume3D,
    _label_counts,
    require_same_dims,
)


def majority_vote(maps: Sequence[Volume3D], roi: Volume3D) -> Volume3D:
    """Per-voxel plurality label across two or more label maps.

    Background counts as a vote; ties go to the smallest label id (which
    means background wins any tie it is part of). Voxels outside the roi
    are background.

    Raises
    ------
    TooFewMaps, DimMismatch
    """
    maps = list(maps)
    if len(maps) < 2:
        raise TooFewMaps(f"majority voting needs >= 2 maps, got {len(maps)}")
    for v in maps:
        if v.kind != "label":
            raise ValueError(f"fusion inputs must be label volumes, got {v.kind!r}")
    if roi.kind != "mask":
        raise ValueError(f"roi must be a mask, got {roi.kind!r}")
    require_same_dims(*maps, roi)

    stack = np.stack([v.data for v in maps])
    best_count = np.zeros_like(roi.data, dtype=np.int32)  # x-fastest, like the maps
    best_label = np.zeros_like(roi.data, dtype=np.uint16)
    for lab in np.unique(stack):  # ascending: strict > keeps the smallest id on ties
        count = (stack == lab).sum(axis=0, dtype=np.int32)
        wins = count > best_count
        best_label[wins] = lab
        best_count[wins] = count[wins]
    fused = np.where(roi.data, best_label, BACKGROUND_ID).astype(np.uint16)
    return Volume3D(fused, "label", roi.spacing, roi.origin)


def dice(
    pred: Volume3D, target: Volume3D, label: int, eval_mask: Volume3D
) -> float:
    """Dice overlap 2|P&T| / (|P|+|T|) of one label inside the eval mask.

    Both-empty counts as perfect agreement (1.0).
    """
    require_same_dims(pred, target, eval_mask)
    inside = eval_mask.data
    p = (pred.data == label) & inside
    t = (target.data == label) & inside
    denom = int(p.sum()) + int(t.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((p & t).sum()) / denom


def build_eval_mask(annotation: MultiLabelAnnotation, roi: Volume3D) -> Volume3D:
    """Roi restricted to unambiguous voxels (annotation set size <= 1)."""
    if annotation.dims != roi.dims:
        raise DimMismatch(f"annotation {annotation.dims} vs roi {roi.dims}")
    mask = roi.data & (_label_counts(annotation) <= 1)
    return Volume3D(mask, "mask", roi.spacing, roi.origin)


@dataclass(frozen=True)
class ClassDice:
    name: str
    dice: float
    target_volume: int  # target voxels of this class inside the eval mask


@dataclass(frozen=True)
class DiceReport:
    """Per-class Dice plus the volume-weighted overall score.

    `overall` weights each class by its target volume inside the eval mask;
    classes absent from the target carry zero weight. `excluded_voxels`
    counts roi voxels removed from evaluation as ambiguous.
    """

    per_class: dict[int, ClassDice]
    overall: float
    excluded_voxels: int

    def to_dict(self) -> dict:
        return {
            "per_class": {
                c.name: {
                    "label_id": int(lab),
                    "dice": float(c.dice),
                    "target_volume": int(c.target_volume),
                }
                for lab, c in self.per_class.items()
            },
            "overall": float(self.overall),
            "excluded_voxels": int(self.excluded_voxels),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        width = max([len(c.name) for c in self.per_class.values()] + [7])
        lines = [f"{'class':<{width}}  {'dice':>8}  {'volume':>10}"]
        for c in self.per_class.values():
            lines.append(f"{c.name:<{width}}  {c.dice:>8.4f}  {c.target_volume:>10d}")
        lines.append(f"{'overall':<{width}}  {self.overall:>8.4f}")
        lines.append(f"excluded voxels: {self.excluded_voxels}")
        return "\n".join(lines)


def dice_report(
    pred: Volume3D,
    target: Volume3D,
    labels: LabelSet,
    eval_mask: Volume3D,
    roi: Volume3D | None = None,
) -> DiceReport:
    """Per-class Dice for every label plus the volume-weighted overall.

    Weights are the target class volumes inside the eval mask. If no class
    has positive volume the weighted mean is undefined; the unweighted mean
    of per-class Dice is reported instead. Passing `roi` records how many
    roi voxels the eval mask excluded.
    """
    require_same_dims(pred, target, eval_mask)
    per_class: dict[int, ClassDice] = {}
    weights = []
    scores = []
    for lab, name in labels.entries:
        d = dice(pred, target, lab, eval_mask)
        vol = int(((target.data == lab) & eval_mask.data).sum())
        per_class[lab] = ClassDice(name, d, vol)
        weights.append(vol)
        scores.append(d)
    total = sum(weights)
    if total > 0:
        overall = sum(w * s for w, s in zip(weights, scores)) / total
    else:
        overall = float(np.mean(scores))
    excluded = 0
    if roi is not None:
        require_same_dims(roi, eval_mask)
        excluded = int((roi.data & ~eval_mask.data).sum())
    return DiceReport(per_class, float(overall), excluded)
