"""Per-operation output checks and the benchmark's own Dice.

An operation passes when its outputs keep seed fixity, row sums within
``ROWSUM_TOL`` of 1 (values within the same tolerance of [0, 1]),
hard = argmax of soft, per-class Dice >= ``MIN_DICE`` against the phantom
truth over the roi (the acceptance suite's criterion), and a distance to
the reference of at most ``MAX_ABS_ERR_LIMIT``.

Checks run on the roi voxels in x-fastest order ("nodes"), the order of
the reference's voxels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ROWSUM_TOL = 1e-6
MIN_DICE = 0.95
#: Far above any tolerance voxprop's solver is run at; beyond it the
#: probabilities are wrong, not merely inexact.
MAX_ABS_ERR_LIMIT = 1e-3


@dataclass
class Result:
    problems: list[str] = field(default_factory=list)
    max_abs_err: float = 0.0
    dice_overall: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


class Grid:
    """Roi voxels of one grid, x-fastest; gathers volume values at them."""

    def __init__(self, roi: np.ndarray):
        self.roi = roi
        self.voxels = np.flatnonzero(roi.ravel(order="F"))
        coords = np.unravel_index(self.voxels, roi.shape, order="F")
        self._c_index = np.ravel_multi_index(coords, roi.shape)

    def nodes(self, vol: np.ndarray) -> np.ndarray:
        if vol.flags.f_contiguous and not vol.flags.c_contiguous:
            return vol.reshape(-1, order="F")[self.voxels]
        return np.ascontiguousarray(vol).reshape(-1)[self._c_index]


def seed_grid(masks: np.ndarray, ids, region: np.ndarray) -> np.ndarray:
    """Label of every single-labeled voxel inside `region`, 0 elsewhere."""
    single = (masks.sum(axis=0) == 1) & region
    lab = np.asarray(ids, dtype=np.uint16)[np.argmax(masks, axis=0)]
    return np.where(single, lab, 0).astype(np.uint16)


def dice_per_class(pred, truth, ids):
    """(dice, target volume) per label over two label arrays; both empty = 1."""
    size = max(int(pred.max(initial=0)), int(truth.max(initial=0)), max(ids)) + 1
    n_pred = np.bincount(pred, minlength=size)
    n_truth = np.bincount(truth, minlength=size)
    n_both = np.bincount(pred[pred == truth], minlength=size)
    return [
        (2.0 * n_both[k] / (n_pred[k] + n_truth[k]) if n_pred[k] + n_truth[k] else 1.0,
         int(n_truth[k]))
        for k in ids
    ]


def dice_overall(pred, truth, ids) -> float:
    """Volume-weighted Dice; pass only the voxels to evaluate."""
    scores = dice_per_class(pred, truth, ids)
    total = sum(v for _, v in scores)
    return sum(d * v for d, v in scores) / total


def check_dice(res: Result, what, pred, truth, ids) -> None:
    for lab, (d, _) in zip(ids, dice_per_class(pred, truth, ids)):
        if d < MIN_DICE:
            res.problems.append(f"{what}: label {lab} Dice {d:.4f} < {MIN_DICE}")


def check_propagation(
    res: Result, what, soft, hard, *, grid: Grid, ids, seeds, truth,
    ref_voxels, ref_values, argmax_tol=0.0,
) -> None:
    """Check one propagation output.

    `soft` is (m, n_roi) at the grid's nodes; `hard`, `seeds` and `truth`
    are volumes. `argmax_tol` > 0 accepts a hard label whose probability is
    within the tolerance of the largest (probabilities stored as float32).
    """
    ids = np.asarray(ids)
    p = res.problems
    hard_n = grid.nodes(hard)
    if np.count_nonzero(hard) != np.count_nonzero(hard_n):
        p.append(f"{what}: labels outside the roi")
    if not np.isfinite(soft).all():
        p.append(f"{what}: non-finite probabilities")
    lo, hi = float(soft.min()), float(soft.max())
    if lo < -ROWSUM_TOL or hi > 1.0 + ROWSUM_TOL:
        p.append(f"{what}: probabilities span [{lo:.3e}, {hi:.3e}]")
    rowsum = float(np.abs(soft.sum(axis=0) - 1.0).max())
    if rowsum > ROWSUM_TOL:
        p.append(f"{what}: row sums off by {rowsum:.3e}")

    col = np.searchsorted(ids, hard_n)
    if np.any(col >= ids.size) or np.any(ids[np.minimum(col, ids.size - 1)] != hard_n):
        p.append(f"{what}: hard labels outside the label set (or background in the roi)")
        return
    rows = np.arange(col.size)
    chosen = soft[col, rows]
    if argmax_tol:
        bad = int((chosen < soft.max(axis=0) - argmax_tol).sum())
    else:
        bad = int((col != np.argmax(soft, axis=0)).sum())
    if bad:
        p.append(f"{what}: hard differs from argmax of soft at {bad} voxels")

    seeds_n = grid.nodes(seeds)
    seeded = seeds_n > 0
    if np.any(hard_n[seeded] != seeds_n[seeded]):
        p.append(f"{what}: seed labels changed")
    if np.any(chosen[seeded] != 1.0):
        p.append(f"{what}: seed probabilities are not exactly 1")

    check_dice(res, what, hard_n, grid.nodes(truth), ids)

    # the reference holds the unseeded solved voxels; seeds are one-hot
    at_seeds = soft[:, seeded]
    at_seeds[np.searchsorted(ids, seeds_n[seeded]), np.arange(at_seeds.shape[1])] -= 1.0
    at = np.searchsorted(grid.voxels, ref_voxels)
    err = max(float(np.abs(at_seeds).max(initial=0.0)),
              float(np.abs(soft[:, at] - np.asarray(ref_values).T).max(initial=0.0)))
    res.max_abs_err = max(res.max_abs_err, err)
    if not err <= MAX_ABS_ERR_LIMIT:
        p.append(f"{what}: max |p - p_ref| = {err:.3e} > {MAX_ABS_ERR_LIMIT}")
