import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from voxprop import (
    BACKGROUND_ID,
    DimMismatch,
    LabelSet,
    MultiLabelAnnotation,
    NoSeedsInRoi,
    NonFiniteInput,
    OverlappingHemispheres,
    SeedlessComponent,
    Volume3D,
    propagate,
    propagate_bilateral,
    strip_conflicts,
)
from voxprop import dirichlet
from voxprop.phantom import PhantomBlob, PhantomSpec, make_phantom
from voxprop.propagate import PropagationRequest, _nearest_seed_cols

from conftest import annotation_from_sets, full_mask, make_intensity, make_mask
from helpers import argmax_labels, brute_force_edges, dense_dirichlet, soft_from_fills


LABELS = LabelSet(((2, "A"), (5, "B")))


def chain_request(length=4, beta=0.0, sets=None, guidance=None, **kw):
    dims = (1, 1, length)
    if sets is None:
        sets = {(0, 0, 0): {2}, (0, 0, length - 1): {5}}
    ann = annotation_from_sets(LABELS, dims, sets)
    g = make_intensity(guidance if guidance is not None else np.zeros(dims))
    return PropagationRequest(
        guidance=g, roi=full_mask(dims), annotation=ann, beta=beta, **kw
    )


class TestPropagate:
    def test_fully_seeded_roi_is_identity(self):
        dims = (2, 2, 1)
        sets = {v: {2} if v[0] == 0 else {5} for v in np.ndindex(dims)}
        req = chain_request()
        ann = annotation_from_sets(LABELS, dims, sets)
        req = PropagationRequest(
            guidance=make_intensity(np.zeros(dims)),
            roi=full_mask(dims),
            annotation=ann,
        )
        res = propagate(req)
        seeds = np.where(np.indices(dims)[0] == 0, 2, 5).astype(np.uint16)
        assert np.array_equal(res.hard.data, seeds)
        assert res.report["total_iterations"] == 0
        assert res.report["n_unseeded"] == 0
        for k, lab in enumerate(LABELS.ids):
            assert np.array_equal(res.soft[k].data == 1.0, seeds == lab)

    def test_single_seed_label_floods_connected_roi(self):
        dims = (3, 3, 3)
        ann = annotation_from_sets(LABELS, dims, {(1, 1, 1): {2}})
        req = PropagationRequest(
            guidance=make_intensity(np.zeros(dims)),
            roi=full_mask(dims),
            annotation=ann,
        )
        res = propagate(req)
        assert (res.hard.data == 2).all()
        assert np.allclose(res.soft[0].data, 1.0)
        assert np.allclose(res.soft[1].data, 0.0)

    def test_chain_example(self):
        res = propagate(chain_request(length=4))
        assert np.allclose(res.soft[0].data.ravel(), [1.0, 2 / 3, 1 / 3, 0.0], atol=1e-9)
        assert res.hard.data.ravel().tolist() == [2, 2, 5, 5]

    def test_seed_fixity_regardless_of_guidance(self, rng):
        dims = (4, 4, 4)
        sets = {}
        for v in np.ndindex(dims):
            r = rng.random()
            if r < 0.3:
                sets[v] = {int(rng.choice(LABELS.ids))}
            elif r < 0.4:
                sets[v] = {2, 5}
        sets[(0, 0, 0)] = {2}
        ann = annotation_from_sets(LABELS, dims, sets)
        req = PropagationRequest(
            guidance=make_intensity(rng.random(dims)),
            roi=full_mask(dims),
            annotation=ann,
            beta=500.0,
        )
        res = propagate(req)
        for v, ids in sets.items():
            if len(ids) == 1:
                assert res.hard.data[v] == next(iter(ids))

    def test_seeded_rows_one_hot(self, rng):
        # the solver has no seed rows; the volume writer puts them in one-hot
        dims = (4, 4, 4)
        labels = LabelSet.from_ids([1, 2, 3])
        voxels = rng.choice(64, size=10, replace=False)
        sets = {np.unravel_index(v, dims): {int(rng.integers(1, 4))} for v in voxels}
        req = PropagationRequest(
            guidance=make_intensity(rng.random(dims)),
            roi=full_mask(dims),
            annotation=annotation_from_sets(labels, dims, sets),
            beta=1.0,
        )
        soft = np.stack([v.data for v in propagate(req).soft], axis=-1)
        for v, (lab,) in sets.items():
            row = soft[v]
            assert row[labels.index(lab)] == 1.0
            assert row.sum() == 1.0

    def test_conflict_voxels_all_resolved(self, rng):
        dims = (3, 3, 3)
        sets = {(0, 0, 0): {2}, (2, 2, 2): {5}}
        for v in ((1, 1, 1), (0, 1, 0), (2, 0, 1)):
            sets[v] = {2, 5}
        ann = annotation_from_sets(LABELS, dims, sets)
        req = PropagationRequest(
            guidance=make_intensity(rng.random(dims)),
            roi=full_mask(dims),
            annotation=ann,
            beta=1.0,
        )
        res = propagate(req)
        assert res.report["n_conflicts_cleared"] == 3
        for v in sets:
            assert res.hard.data[v] in (2, 5)

    def test_hard_recomputable_from_soft(self, rng):
        dims = (4, 3, 3)
        sets = {(0, 0, 0): {2}, (3, 2, 2): {5}, (1, 2, 0): {2}}
        ann = annotation_from_sets(LABELS, dims, sets)
        req = PropagationRequest(
            guidance=make_intensity(rng.random(dims)),
            roi=full_mask(dims),
            annotation=ann,
            beta=10.0,
        )
        res = propagate(req)
        again = argmax_labels(res.soft, LABELS, full_mask(dims))
        assert np.array_equal(res.hard.data, again.data)

    def test_beta_zero_guidance_invariance(self, rng):
        res = []
        for _ in range(2):
            res.append(
                propagate(chain_request(length=6, beta=0.0, guidance=rng.random((1, 1, 6))))
            )
        assert np.array_equal(res[0].hard.data, res[1].hard.data)
        for a, b in zip(res[0].soft, res[1].soft):
            assert np.array_equal(a.data, b.data)

    def test_no_leak_outside_roi(self, rng):
        dims = (4, 4, 4)
        roi = np.zeros(dims, bool)
        roi[1:3, 1:3, 1:3] = True
        ann = annotation_from_sets(LABELS, dims, {(1, 1, 1): {2}, (2, 2, 2): {5}})
        req = PropagationRequest(
            guidance=make_intensity(rng.random(dims)),
            roi=make_mask(roi),
            annotation=ann,
            beta=1.0,
        )
        res = propagate(req)
        outside = ~roi
        assert (res.hard.data[outside] == BACKGROUND_ID).all()
        for vol in res.soft:
            assert (vol.data[outside] == 0.0).all()

    def test_seeds_outside_roi_dropped_and_counted(self):
        dims = (1, 1, 4)
        roi = np.zeros(dims, bool)
        roi[0, 0, :2] = True
        sets = {(0, 0, 0): {2}, (0, 0, 3): {5}}  # second seed is outside roi
        ann = annotation_from_sets(LABELS, dims, sets)
        req = PropagationRequest(
            guidance=make_intensity(np.zeros(dims)),
            roi=make_mask(roi),
            annotation=ann,
        )
        res = propagate(req)
        assert res.report["n_seeds"] == 1
        assert res.report["n_seeds_outside_roi"] == 1
        assert (res.hard.data[0, 0, :2] == 2).all()
        assert res.hard.data[0, 0, 3] == BACKGROUND_ID

    def test_no_seeds_in_roi(self):
        dims = (1, 1, 4)
        roi = np.zeros(dims, bool)
        roi[0, 0, :2] = True
        ann = annotation_from_sets(LABELS, dims, {(0, 0, 3): {5}})
        req = PropagationRequest(
            guidance=make_intensity(np.zeros(dims)),
            roi=make_mask(roi),
            annotation=ann,
        )
        with pytest.raises(NoSeedsInRoi):
            propagate(req)

    def test_all_conflicts_means_no_seeds(self):
        dims = (1, 1, 3)
        ann = annotation_from_sets(LABELS, dims, {v: {2, 5} for v in np.ndindex(dims)})
        req = PropagationRequest(
            guidance=make_intensity(np.zeros(dims)),
            roi=full_mask(dims),
            annotation=ann,
        )
        with pytest.raises(NoSeedsInRoi):
            propagate(req)

    def test_dim_mismatch(self):
        ann = annotation_from_sets(LABELS, (1, 1, 4), {(0, 0, 0): {2}})
        with pytest.raises(DimMismatch):
            PropagationRequest(
                guidance=make_intensity(np.zeros((1, 1, 5))),
                roi=full_mask((1, 1, 4)),
                annotation=ann,
            )

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
    def test_nonfinite_beta_rejected_by_the_request(self, beta):
        with pytest.raises(NonFiniteInput):
            chain_request(beta=beta)

    def test_negative_beta_rejected_by_the_request(self):
        with pytest.raises(ValueError, match="beta must be >= 0"):
            chain_request(beta=-1.0)


def island_request(policy):
    # roi has a main bar [x 0..2] and an isolated island voxel at x=4;
    # seeds only in the bar, so the island's component is seedless
    dims = (6, 1, 1)
    roi = np.zeros(dims, bool)
    roi[0:3] = True
    roi[4] = True
    sets = {(0, 0, 0): {2}, (2, 0, 0): {5}}
    ann = annotation_from_sets(LABELS, dims, sets)
    return PropagationRequest(
        guidance=make_intensity(np.zeros(dims)),
        roi=make_mask(roi),
        annotation=ann,
        seedless_policy=policy,
    )


class TestSeedlessPolicies:
    def test_error_policy_raises_with_component_ids(self):
        with pytest.raises(SeedlessComponent) as exc:
            propagate(island_request("error"))
        assert exc.value.component_ids == (1,)

    def test_background_policy_leaves_island_unlabeled(self):
        res = propagate(island_request("background"))
        assert res.hard.data[4, 0, 0] == BACKGROUND_ID
        for vol in res.soft:
            assert vol.data[4, 0, 0] == 0.0
        assert res.report["n_seedless_voxels"] == 1
        assert res.report["n_policy_filled"] == 0

    def test_nearest_seed_policy_fills_island(self):
        res = propagate(island_request("nearest_seed"))
        # island at x=4: nearest seed is label 5 at x=2 (distance 2 vs 4)
        assert res.hard.data[4, 0, 0] == 5
        assert res.soft[1].data[4, 0, 0] == 1.0
        assert res.report["n_policy_filled"] == 1

    def test_nearest_seed_tie_takes_smaller_label(self):
        # island equidistant from a label-2 seed and a label-5 seed
        dims = (7, 1, 1)
        roi = np.zeros(dims, bool)
        roi[0] = roi[6] = True
        roi[3] = True  # island, 3 voxels from each end
        sets = {(0, 0, 0): {5}, (6, 0, 0): {2}}
        ann = annotation_from_sets(LABELS, dims, sets)
        req = PropagationRequest(
            guidance=make_intensity(np.zeros(dims)),
            roi=make_mask(roi),
            annotation=ann,
            seedless_policy="nearest_seed",
        )
        res = propagate(req)
        assert res.hard.data[3, 0, 0] == 2

    def test_nearest_seed_respects_spacing(self):
        # anisotropic spacing: a voxel step along x costs 4 mm, along z 1 mm.
        # All three roi voxels are pairwise non-adjacent, so the island forms
        # a seedless component and must be filled by nearest-seed distance:
        # label 2 sits 2 x-steps (8 mm) away, label 5 sits 2 z-steps (2 mm).
        dims = (5, 1, 5)
        roi = np.zeros(dims, bool)
        roi[2, 0, 2] = True  # island
        roi[0, 0, 2] = True  # label 2 seed
        roi[2, 0, 0] = True  # label 5 seed
        sets = {(0, 0, 2): {2}, (2, 0, 0): {5}}
        ann = annotation_from_sets(LABELS, dims, sets)
        ann = MultiLabelAnnotation(LABELS, ann.masks, (4.0, 1.0, 1.0))
        req = PropagationRequest(
            guidance=make_intensity(np.zeros(dims), spacing=(4.0, 1.0, 1.0)),
            roi=Volume3D(roi, "mask", (4.0, 1.0, 1.0)),
            annotation=ann,
            seedless_policy="nearest_seed",
        )
        res = propagate(req)
        assert res.hard.data[2, 0, 2] == 5
        # in plain voxel-count distance both seeds are 2 steps away and the
        # tie would go to label 2; the mm weighting must override that
        assert res.report["n_policy_filled"] == 1

    def test_hard_matches_argmax_over_labeled_region(self):
        res = propagate(island_request("background"))
        labeled = res.hard.data != BACKGROUND_ID
        region = make_mask(labeled)
        again = argmax_labels(res.soft, LABELS, region)
        assert np.array_equal(res.hard.data, again.data)


def brute_force_nearest_cols(fill_voxels, seed_voxels, seed_cols, dims, spacing):
    """All-pairs nearest seed on exact integer squared distances (integer
    spacing), ties to the smallest column. Also returns how many fill voxels
    have nearest seeds of more than one column."""
    def ijk(v):
        return np.column_stack(np.unravel_index(v, dims, order="F"))

    offsets = (ijk(fill_voxels)[:, None, :] - ijk(seed_voxels)[None, :, :]) * spacing
    d2 = (offsets**2).sum(axis=-1)
    at_min = d2 == d2.min(axis=1, keepdims=True)
    lo = np.where(at_min, seed_cols, seed_cols.max()).min(axis=1)
    hi = np.where(at_min, seed_cols, seed_cols.min()).max(axis=1)
    return lo, int((lo != hi).sum())


class TestNearestSeedFill:
    def test_matches_brute_force_on_integer_spacings(self, rng):
        n_ties = 0
        for _ in range(200):
            dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
            spacing = tuple(int(s) for s in rng.choice([1, 2, 3], size=3))
            n = int(np.prod(dims))
            if n < 2:
                continue
            order = rng.permutation(n)
            n_seeds = int(rng.integers(1, n // 2 + 1))
            seed_voxels = np.sort(order[:n_seeds])
            seed_cols = rng.integers(0, int(rng.integers(1, 6)), size=n_seeds)
            fill_voxels = order[n_seeds:n_seeds + int(rng.integers(1, n - n_seeds + 1))]
            want, n_contested = brute_force_nearest_cols(
                fill_voxels, seed_voxels, seed_cols, dims, spacing
            )
            got = _nearest_seed_cols(fill_voxels, seed_voxels, seed_cols, dims, spacing)
            assert np.array_equal(got, want), (dims, spacing)
            n_ties += n_contested
        assert n_ties > 0  # the draws include ties between different labels

    @pytest.mark.parametrize("label5_offset", [(3, 0, 0), (0, 1, 0)])
    def test_tie_across_different_offsets_takes_smaller_label(self, label5_offset):
        # 3 x-steps of 0.1 and 1 y-step of 0.3 are the same distance, but
        # 3 * 0.1 and 0.3 differ in their last bit; whichever offset label 5
        # sits at, label 2 at the other one wins
        dims, spacing = (5, 3, 2), (0.1, 0.3, 1.0)
        label2_offset = (3, 0, 0) if label5_offset == (0, 1, 0) else (0, 1, 0)
        fill = np.array([0, 1, 1])
        seeds = np.array([fill + label5_offset, fill + label2_offset])
        flat = np.ravel_multi_index(tuple(seeds.T), dims, order="F")
        fill_flat = np.ravel_multi_index(tuple(fill), dims, order="F")
        cols = np.array([1, 0])  # label columns of (2, 5): label 5 is column 1
        got = _nearest_seed_cols(np.array([fill_flat]), flat, cols, dims, spacing)
        assert got.tolist() == [0]

    def test_tie_far_from_the_origin_takes_smaller_label(self):
        # fill at x = 5 on a 0.1 spacing, seeds at x = 4 and 6: as coordinate
        # differences the distances are 0.09999999999999998 and
        # 0.10000000000000009, 8 ulps apart, yet they tie
        dims, spacing = (8, 1, 1), (0.1, 1.0, 1.0)
        got = _nearest_seed_cols(np.array([5]), np.array([4, 6]), np.array([1, 0]),
                                 dims, spacing)
        assert got.tolist() == [0]

    def test_single_seed_fills_the_pocket(self):
        # the roi's only seed is voxel 0; voxel 3 is a pocket, so the tree
        # holds one seed and its second neighbour is padding
        dims = (4, 1, 1)
        roi = np.array([True, True, False, True]).reshape(dims)
        req = PropagationRequest(
            guidance=make_intensity(np.zeros(dims)),
            roi=make_mask(roi),
            annotation=annotation_from_sets(LABELS, dims, {(0, 0, 0): {5}}),
            seedless_policy="nearest_seed",
        )
        res = propagate(req)
        assert res.hard.data.ravel().tolist() == [5, 5, BACKGROUND_ID, 5]
        assert res.soft[1].data[3, 0, 0] == 1.0 and res.soft[0].data[3, 0, 0] == 0.0
        assert res.report["n_policy_filled"] == 1


def test_fill_modules_load_only_when_a_fill_runs(tmp_path):
    """scipy.ndimage never loads, and scipy.spatial (the KD-tree) not before a
    nearest-seed fill runs: a roi without pockets needs neither."""
    code = """
import importlib, sys
import numpy as np
vp = importlib.import_module("voxprop.propagate")
from voxprop import LabelSet, MultiLabelAnnotation, Volume3D
for name in ("scipy.ndimage", "scipy.spatial"):
    assert name not in sys.modules, name
masks = np.zeros((2, 4, 1, 1), bool)
masks[0, 0] = masks[1, 3] = True
req = vp.PropagationRequest(
    guidance=Volume3D(np.zeros((4, 1, 1)), "intensity"),
    roi=Volume3D(np.ones((4, 1, 1), bool), "mask"),
    annotation=MultiLabelAnnotation(LabelSet(((2, "A"), (5, "B"))), masks),
)
assert vp.propagate(req).report["n_seedless_voxels"] == 0
for name in ("scipy.ndimage", "scipy.spatial"):
    assert name not in sys.modules, name
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


class TestBilateral:
    def _mirrored_setup(self, rng):
        dims = (8, 3, 3)
        left = np.zeros(dims, bool)
        right = np.zeros(dims, bool)
        left[0:3] = True
        right[5:8] = True
        g = rng.random((3, 3, 3))
        guidance = np.zeros(dims)
        guidance[0:3] = g
        guidance[5:8] = g[::-1]
        sets = {
            (0, 1, 1): {2},
            (2, 1, 1): {5},
            (7, 1, 1): {2},
            (5, 1, 1): {5},
        }
        ann = annotation_from_sets(LABELS, dims, sets)
        roi = left | right
        req = PropagationRequest(
            guidance=make_intensity(guidance),
            roi=make_mask(roi),
            annotation=ann,
            beta=5.0,
        )
        return req, make_mask(left), make_mask(right)

    def test_mirrored_phantom_gives_mirrored_outputs(self, rng):
        req, left, right = self._mirrored_setup(rng)
        res = propagate_bilateral(req, (left, right))
        flipped = res.hard.data[::-1]
        assert np.array_equal(res.hard.data[0:3], flipped[0:3])

    def test_matches_two_separate_propagations(self, rng):
        req, left, right = self._mirrored_setup(rng)
        res = propagate_bilateral(req, (left, right))
        for hemi in (left, right):
            sub = propagate(dataclasses.replace(req, roi=hemi))
            inside = hemi.data
            assert np.array_equal(res.hard.data[inside], sub.hard.data[inside])
            for a, b in zip(res.soft, sub.soft):
                assert np.array_equal(a.data[inside], b.data[inside])

    def test_empty_hemisphere_raises(self, rng):
        req, left, right = self._mirrored_setup(rng)
        # strip all seeds from the right hemisphere
        masks = req.annotation.masks.copy()
        masks[:, 5:8] = False
        ann = MultiLabelAnnotation(LABELS, masks)
        req = dataclasses.replace(req, annotation=ann)
        with pytest.raises(NoSeedsInRoi):
            propagate_bilateral(req, (left, right))

    def test_overlap_rejected(self, rng):
        req, left, right = self._mirrored_setup(rng)
        bad = make_mask(left.data | right.data)  # claims both sides
        with pytest.raises(OverlappingHemispheres):
            propagate_bilateral(req, (bad, right))

    def test_gap_voxels_follow_policy(self, rng):
        req, left, right = self._mirrored_setup(rng)
        # widen the roi to include the unclaimed middle slab
        roi = make_mask(np.ones(req.roi.dims, bool))
        req = dataclasses.replace(req, roi=roi)
        res = propagate_bilateral(req, (left, right))
        gap = np.zeros(req.roi.dims, bool)
        gap[3:5] = True
        assert (res.hard.data[gap] != BACKGROUND_ID).all()
        assert res.report["n_gap_filled"] == int(gap.sum())

        req_bg = dataclasses.replace(req, seedless_policy="background")
        res_bg = propagate_bilateral(req_bg, (left, right))
        assert (res_bg.hard.data[gap] == BACKGROUND_ID).all()

    def test_gap_under_error_policy_raises_before_any_solve(self, rng, monkeypatch):
        req, left, right = self._mirrored_setup(rng)
        roi = make_mask(np.ones(req.roi.dims, bool))  # x = 3, 4 lie in no hemisphere
        req = dataclasses.replace(req, roi=roi, seedless_policy="error")

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_all called")

        monkeypatch.setattr(sys.modules["voxprop.propagate"], "solve_all", no_solve)
        with pytest.raises(SeedlessComponent, match="outside the hemisphere masks"):
            propagate_bilateral(req, (left, right))

    def _pocket_setup(self, policy):
        # a 9-voxel row: left = {0, 1, 3}, right = {4..8}, x=2 outside the
        # roi. Left voxel 3 is cut off from left's seed at x=0, so it is a
        # seedless pocket whose nearest seed overall is right's seed at x=4.
        dims = (9, 1, 1)
        left = np.zeros(dims, bool)
        left[[0, 1, 3]] = True
        right = np.zeros(dims, bool)
        right[4:] = True
        ann = annotation_from_sets(LABELS, dims, {(0, 0, 0): {2}, (4, 0, 0): {5}})
        req = PropagationRequest(
            guidance=make_intensity(np.zeros(dims)),
            roi=make_mask(left | right),
            annotation=ann,
            seedless_policy=policy,
        )
        return req, make_mask(left), make_mask(right)

    def test_pocket_filled_from_own_hemisphere(self):
        req, left, right = self._pocket_setup("nearest_seed")
        res = propagate_bilateral(req, (left, right))
        assert res.hard.data[3, 0, 0] == 2
        assert res.soft[0].data[3, 0, 0] == 1.0
        assert res.report["hemispheres"][0]["n_seedless_voxels"] == 1
        assert res.report["hemispheres"][0]["n_policy_filled"] == 1

    def test_pocket_stays_background_under_background_policy(self):
        req, left, right = self._pocket_setup("background")
        res = propagate_bilateral(req, (left, right))
        assert res.hard.data[3, 0, 0] == BACKGROUND_ID
        for vol in res.soft:
            assert vol.data[3, 0, 0] == 0.0
        assert res.report["hemispheres"][0]["n_policy_filled"] == 0
        assert (res.hard.data[[0, 1, 4, 5, 6, 7, 8], 0, 0] != BACKGROUND_ID).all()

    def test_pocket_in_second_hemisphere_raises_before_any_solve(self, monkeypatch):
        # _pocket_setup("error") mirrored: the pocket at x=5 lies in the right
        # hemisphere, cut off from right's seed at x=8
        dims = (9, 1, 1)
        left = np.zeros(dims, bool)
        left[:5] = True
        right = np.zeros(dims, bool)
        right[[5, 7, 8]] = True
        req = PropagationRequest(
            guidance=make_intensity(np.zeros(dims)),
            roi=make_mask(left | right),
            annotation=annotation_from_sets(LABELS, dims, {(4, 0, 0): {2}, (8, 0, 0): {5}}),
            seedless_policy="error",
        )

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_all called")

        monkeypatch.setattr(sys.modules["voxprop.propagate"], "solve_all", no_solve)
        with pytest.raises(SeedlessComponent) as exc:
            propagate_bilateral(req, (make_mask(left), make_mask(right)))
        assert exc.value.component_ids

    def test_fills_use_the_roi_spacing(self):
        # a z-step costs 10 in the roi's spacing; the masks carry the default
        # (1, 1, 1). Left pocket (0,0,0) is 2 z-steps (20) from seed a at
        # (0,0,2) and 3 y-steps (3) from seed b at (0,3,0): b is nearer.
        dims, spacing = (1, 4, 6), (1.0, 1.0, 10.0)
        left = np.zeros(dims, bool)
        left[0, [0, 0, 2, 3, 3, 3], [0, 2, 0, 0, 1, 2]] = True
        right = np.zeros(dims, bool)
        right[:, :, 4:] = True
        sets = {(0, 0, 2): {2}, (0, 3, 0): {5}, (0, 0, 5): {2}}
        req = PropagationRequest(
            guidance=make_intensity(np.zeros(dims), spacing=spacing),
            roi=Volume3D(left | right, "mask", spacing),
            annotation=annotation_from_sets(LABELS, dims, sets),
        )
        res = propagate_bilateral(req, (make_mask(left), make_mask(right)))
        assert res.report["hemispheres"][0]["n_policy_filled"] == 1
        assert res.hard.data[0, 0, 0] == 5
        alone = propagate(dataclasses.replace(req, roi=Volume3D(left, "mask", spacing)))
        assert alone.hard.data[0, 0, 0] == 5

    def test_seeds_of_the_other_hemisphere_are_not_dropped(self, rng, caplog):
        req, left, right = self._mirrored_setup(rng)
        with caplog.at_level("WARNING", logger="voxprop.propagate"):
            res = propagate_bilateral(req, (left, right))
        assert res.report["n_seeds_outside_roi"] == 0
        assert "dropping" not in caplog.text

        # a seed in the gap slab lies in the roi but outside both hemispheres
        masks = req.annotation.masks.copy()
        masks[0, 4, 1, 1] = True
        req = dataclasses.replace(
            req,
            roi=make_mask(np.ones(req.roi.dims, bool)),
            annotation=MultiLabelAnnotation(LABELS, masks),
        )
        caplog.clear()
        with caplog.at_level("WARNING", logger="voxprop.propagate"):
            res = propagate_bilateral(req, (left, right))
        assert res.report["n_seeds_outside_roi"] == 1
        assert caplog.text.count("dropping 1 seeds outside the hemisphere masks") == 1

    def test_report_keys_read_by_the_benchmark(self, rng):
        req, left, right = self._mirrored_setup(rng)
        report = propagate_bilateral(req, (left, right)).report
        assert {"n_gap_voxels", "n_gap_filled"} <= report.keys()
        report = propagate(req).report
        assert {"n_seedless_voxels", "n_policy_filled"} <= report.keys()


def test_patch_points_called_once_per_region(rng, monkeypatch):
    """The traced benchmark times `strip_conflicts`, `assemble` and `solve_all`
    by replacing them on this module: the pipeline must look them up there,
    stripping once per run and assembling and solving once per region."""
    module = sys.modules["voxprop.propagate"]
    calls = {}

    def counting(name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("strip_conflicts", "assemble", "solve_all"):
        monkeypatch.setattr(module, name, counting(name))
    req, left, right = TestBilateral()._mirrored_setup(rng)
    propagate(req)
    assert calls == {"strip_conflicts": 1, "assemble": 1, "solve_all": 1}
    calls.clear()
    propagate_bilateral(req, (left, right))
    assert calls == {"strip_conflicts": 1, "assemble": 2, "solve_all": 2}


def test_report_gives_blocks_and_route():
    # unseeded voxels: x = 1 (between the seeds) and the island at x = 4
    report = propagate(island_request("background")).report
    assert report["n_blocks"] == 2 and report["seedless_components"] == [1]
    assert report["largest_block"] == 1
    assert report["route"] == "direct" and report["direct_error"] is None


def test_failed_sparse_lu_falls_back_to_pcg(rng, monkeypatch, caplog):
    dims = (6, 5, 4)
    sets = {tuple(int(c) for c in v): {int(rng.choice(LABELS.ids))}
            for v in zip(*np.nonzero(rng.random(dims) < 0.1))}
    req = PropagationRequest(
        guidance=make_intensity(rng.random(dims)), roi=full_mask(dims),
        annotation=annotation_from_sets(LABELS, dims, sets), beta=5.0,
    )
    direct = propagate(req)

    splu, n_u = dirichlet.splu, direct.report["n_unseeded"]

    def out_of_memory(A, *args, **kwargs):
        if A.shape[0] == n_u:  # L_U's factor; the smaller island factor still runs
            raise MemoryError("no room for the factor")
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(dirichlet, "splu", out_of_memory)
    with caplog.at_level("WARNING", logger="voxprop.dirichlet"):
        res = propagate(req)
    assert direct.report["route"] == "direct" and direct.report["n_islands"] == 0
    assert res.report["route"] == "pcg" and res.report["n_islands"] > 0
    assert res.report["direct_error"] == "MemoryError: no room for the factor"
    assert "sparse LU failed" in caplog.text
    assert res.report["total_iterations"] > 0
    for a, b in zip(res.soft, direct.soft):
        assert np.abs(a.data - b.data).max() <= 1e-6


def test_pocket_carve_out_matches_smaller_roi(rng):
    # the roi splits at x=3 into two slabs whose node ids interleave; seeds
    # lie only in x < 3, so the slab x > 3 is one seedless pocket
    labels = LabelSet(((2, "A"), (5, "B"), (7, "C")))
    dims = (7, 4, 3)
    roi = np.ones(dims, bool)
    roi[3] = False
    solved = roi.copy()
    solved[4:] = False
    sets = {(0, 0, 0): {2}, (2, 3, 2): {5}, (1, 2, 1): {7}}
    for v in zip(*np.nonzero(solved)):
        if rng.random() < 0.15:
            sets.setdefault(tuple(int(c) for c in v), {int(rng.choice(labels.ids))})
    ann = annotation_from_sets(labels, dims, sets)
    guidance = make_intensity(rng.random(dims))

    def run(mask):
        return propagate(
            PropagationRequest(guidance=guidance, roi=make_mask(mask), annotation=ann, beta=20.0)
        )

    carved, smaller = run(roi), run(solved)
    assert carved.report["n_seedless_voxels"] == int((roi & ~solved).sum())
    assert carved.report["n_unseeded"] == smaller.report["n_unseeded"] > 0
    for a, b in zip(carved.soft, smaller.soft):
        assert a.data[solved].tobytes() == b.data[solved].tobytes()
    assert np.array_equal(carved.hard.data[solved], smaller.hard.data[solved])


@st.composite
def pocket_requests(draw):
    """A random small lattice cut by a non-roi wall plane; the side past the
    wall loses its annotation on half the draws, and isolated roi voxels
    without a seed form further pockets."""
    dims = (draw(st.integers(3, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wall = draw(st.integers(1, dims[0] - 2))
    labels = LabelSet.from_ids(draw(st.sampled_from([[2, 5], [2, 5, 7]])))
    roi = rng.random(dims) < draw(st.sampled_from([0.6, 0.85, 1.0]))
    roi[wall] = False
    roi[0, 0, 0] = True
    masks = np.zeros((len(labels),) + dims, bool)
    lab = rng.integers(0, len(labels), dims)
    voxels = tuple(np.indices(dims))
    masks[(lab,) + voxels] = rng.random(dims) < 0.3
    masks[((lab + 1) % len(labels),) + voxels] |= rng.random(dims) < 0.05  # conflicts
    if draw(st.booleans()):
        masks[:, wall + 1:] = False
    masks[:, 0, 0, 0] = False
    masks[0, 0, 0, 0] = True  # at least one seed in the roi
    return PropagationRequest(
        guidance=make_intensity(rng.random(dims)),
        roi=make_mask(roi),
        annotation=MultiLabelAnnotation(labels, masks),
        # white-noise guidance, so beta stays low as in the acceptance oracle:
        # at beta 50, clusters joined only by floored edges can stop CG early
        beta=draw(st.sampled_from([0.0, 1.0, 10.0])),
        seedless_policy=draw(st.sampled_from(["background", "nearest_seed"])),
    )


@settings(max_examples=60, deadline=None)
@given(req=pocket_requests())
def test_propagate_properties_with_pockets(req):
    res = propagate(req)
    labels, roi = req.annotation.labels, req.roi.data
    counts = req.annotation.label_counts()
    seeds = (counts == 1) & roi
    seed_label = np.asarray(labels.ids)[np.argmax(req.annotation.masks, axis=0)]
    comp, _ = ndimage.label(roi)  # 6-connected components, independent of voxprop
    seeded_comps = np.unique(comp[seeds])
    pocket = roi & ~np.isin(comp, seeded_comps)
    solved = roi & ~pocket
    soft = np.stack([v.data for v in res.soft], axis=-1)
    hard = res.hard.data
    assert res.report["n_seedless_voxels"] == int(pocket.sum())

    # seed fixity
    assert np.array_equal(hard[seeds], seed_label[seeds])
    one_hot = soft[seeds] == (seed_label[seeds, None] == np.asarray(labels.ids))
    assert one_hot.all()
    # simplex on the solved voxels
    assert np.abs(soft[solved].sum(axis=-1) - 1.0).max() <= 1e-6
    assert soft.min() >= 0.0 and soft.max() <= 1.0
    # pockets follow the policy
    if req.seedless_policy == "background":
        assert not soft[pocket].any()
        assert (hard[pocket] == BACKGROUND_ID).all()
    else:
        assert np.isin(soft[pocket], (0.0, 1.0)).all()
        assert (soft[pocket].sum(axis=-1) == 1.0).all()
        cols = np.argmax(soft[pocket], axis=-1)
        assert np.array_equal(hard[pocket], np.asarray(labels.ids)[cols])
    assert not soft[~roi].any() and (hard[~roi] == BACKGROUND_ID).all()

    # the solved part agrees with an exact dense solve on it alone
    n, node_of, edges = brute_force_edges(solved, req.guidance.data, req.beta)
    node_seeds = {i: int(seed_label[v]) for v, i in node_of.items() if seeds[v]}
    ref = dense_dirichlet(n, edges, node_seeds, labels.ids)
    got = np.array([soft[v] for v in node_of])
    assert np.abs(got - ref).max() <= 1e-6


GOLDEN_SPECS = {
    "anisotropic": PhantomSpec(
        dims=(12, 10, 9),
        blobs=(
            PhantomBlob((2.5, 3.2, 4.1), 1, 0.1),
            PhantomBlob((8.7, 2.9, 4.6), 2, 0.4),
            PhantomBlob((5.3, 7.8, 2.2), 3, 0.7),
            PhantomBlob((6.1, 5.4, 7.3), 4, 0.9),
        ),
        noise_sigma=0.05, unlabeled_fraction=0.3, conflict_fraction=0.2, seed=7,
        spacing=(0.5, 1.0, 2.0),
    ),
    "capped": PhantomSpec(
        dims=(16, 10, 8),
        blobs=(
            PhantomBlob((3.5, 4.2, 3.1), 1, 0.2),
            PhantomBlob((8.1, 6.3, 4.4), 2, 0.5),
            PhantomBlob((12.6, 3.8, 3.9), 3, 0.8),
        ),
        noise_sigma=0.02, unlabeled_fraction=0.2, conflict_fraction=0.2, seed=4,
        spacing=(1.0, 1.0, 1.5),
    ),
}


def golden_run(entry, spec_name, policy):
    """Run `entry` ("propagate" or "bilateral") on a golden phantom.

    On "capped", the roi's outermost two x-planes at each end are cut off by
    a one-plane gap and lose their annotation, so each end is a seedless
    pocket; the bilateral run also leaves a two-plane gap slab mid-roi.
    """
    ph = make_phantom(GOLDEN_SPECS[spec_name])
    spacing = ph.roi.spacing
    roi, masks = ph.roi.data, ph.annotation.masks
    hemispheres = None
    if spec_name == "capped":
        x = np.arange(roi.shape[0])[:, None, None]
        xs = np.flatnonzero(roi.any(axis=(1, 2)))
        lo, hi, mid = xs.min() + 2, xs.max() - 2, roi.shape[0] // 2
        cut = roi & (x != lo) & (x != hi)
        masks = masks & ~(roi & ((x < lo) | (x > hi)))
        halves = (cut & (x < mid - 1), cut & (x > mid))
        hemispheres = tuple(Volume3D(h, "mask", spacing) for h in halves)
        if entry == "propagate":
            roi = cut
    req = PropagationRequest(
        guidance=ph.guidance, roi=Volume3D(roi, "mask", spacing),
        annotation=MultiLabelAnnotation(ph.labels, masks, spacing),
        beta=1000.0, seedless_policy=policy,
    )
    return propagate(req) if entry == "propagate" else propagate_bilateral(req, hemispheres)


# sha256 of the soft volumes' bytes (in label order) and of the hard map
GOLDEN = {
    ("bilateral", "capped", "background", "direct"): (
        "12e8e71c24d7cc32375a852f2b3adef2ea2f9b7ab1f6400f128cd842029749c1",
        "9299dd628c46e878fb30a2965ecac8c525de9567334b945bbb4c9891976a2ade",
    ),
    ("bilateral", "capped", "nearest_seed", "direct"): (
        "f7da05d78b1ec23c4346100e2a9276d23b7ea4d2626ca861fa86239ede1eb556",
        "2414605a860bd8905992e271249a39854e623ed741499b1d2ea0599a94a677a2",
    ),
    ("propagate", "anisotropic", "nearest_seed", "direct"): (
        "d33199f1b6d0de694dd30b0604108a8d0162f035b6bc9497a217285e449d2497",
        "35d1c28eaf121366afa256f1e17ab214fe00fbf1baf15d133d96256ab1f00a20",
    ),
    ("propagate", "anisotropic", "nearest_seed", "pcg"): (
        "f5e2b0c3b73c16ef3f379ca6e0eb005069f15e331fde14809278ccf8bd78792e",
        "35d1c28eaf121366afa256f1e17ab214fe00fbf1baf15d133d96256ab1f00a20",
    ),
    ("propagate", "capped", "background", "direct"): (
        "faf466fdebbfea3ea66b6091d038305d85876839c654b6f410ac95d502117043",
        "323d1e2bfe2866456f6f0165e45aa35f46183534c45d9d7a5b1251be16a83b5d",
    ),
    ("propagate", "capped", "nearest_seed", "direct"): (
        "22d6050be92b8ca51c4dd3f842a52802b1b1fc7c23c1da0bece4b76e389d16d6",
        "1f2b295f3004e3fb685337c3926d72a3b3d7113ecf1732586fdfe8f53012bdb0",
    ),
}


@pytest.mark.parametrize("entry", ["propagate", "bilateral"])
def test_outputs_do_not_depend_on_the_input_layout(entry):
    ph = make_phantom(GOLDEN_SPECS["capped"])
    spacing = ph.roi.spacing
    roi = ph.roi.data
    x = np.arange(roi.shape[0])[:, None, None]
    halves = (roi & (x < 7), roi & (x > 8))

    def run(layout):
        req = PropagationRequest(
            guidance=Volume3D(layout(ph.guidance.data), "intensity", spacing),
            roi=Volume3D(layout(roi), "mask", spacing),
            annotation=MultiLabelAnnotation(ph.labels, layout(ph.annotation.masks), spacing),
            beta=1000.0,
        )
        if entry == "propagate":
            return propagate(req)
        return propagate_bilateral(req, tuple(Volume3D(layout(h), "mask", spacing) for h in halves))

    c_res, f_res = run(np.ascontiguousarray), run(np.asfortranarray)
    for a, b in zip(c_res.soft + (c_res.hard,), f_res.soft + (f_res.hard,)):
        assert a.data.tobytes(order="F") == b.data.tobytes(order="F")
    assert c_res.report == f_res.report


def test_soft_volumes_match_a_per_fill_oracle():
    # "capped" bilateral: each half has a seedless end cap, and a gap slab
    # lies between the halves
    res = golden_run("bilateral", "capped", "nearest_seed")
    assert res.report["n_gap_filled"] > 0
    assert all(h["n_policy_filled"] > 0 for h in res.report["hemispheres"])

    ph = make_phantom(GOLDEN_SPECS["capped"])
    roi = ph.roi.data
    x = np.arange(roi.shape[0])[:, None, None]
    xs = np.flatnonzero(roi.any(axis=(1, 2)))
    lo, hi, mid = xs.min() + 2, xs.max() - 2, roi.shape[0] // 2
    cut = roi & (x != lo) & (x != hi)
    masks = ph.annotation.masks & ~(roi & ((x < lo) | (x > hi)))
    ann = MultiLabelAnnotation(ph.labels, masks, ph.roi.spacing)
    seeds = strip_conflicts(ann)[0].data.ravel(order="F")
    ids, dims, spacing = ph.labels.ids, ph.roi.dims, ph.roi.spacing
    halves = (cut & (x < mid - 1), cut & (x > mid))
    solved, seed_fills, pocket_fills = [], [], []
    for half in halves:
        seed_flat = np.flatnonzero(seeds * half.ravel(order="F"))
        cols = np.searchsorted(ids, seeds[seed_flat])
        system = dirichlet.assemble(ph.guidance, make_mask(half, spacing),
                                    (seed_flat, seeds[seed_flat]), 1000.0, ph.labels)
        solved.append((system.unseeded, dirichlet.solve_all(system).values))
        pockets = system.pocket_voxels
        seed_fills.append((seed_flat, cols))
        pocket_fills.append((pockets, _nearest_seed_cols(pockets, seed_flat, cols, dims, spacing)))
    gap = np.flatnonzero((roi & ~(halves[0] | halves[1])).ravel(order="F"))
    assert gap.size == res.report["n_gap_voxels"]
    all_seeds = (np.concatenate(parts) for parts in zip(*seed_fills))
    fills = seed_fills + pocket_fills + [(gap, _nearest_seed_cols(gap, *all_seeds, dims, spacing))]

    for k, vol in enumerate(res.soft):
        want = soft_from_fills(roi.size, solved, fills, k)
        assert vol.data.ravel(order="F").tobytes() == want.tobytes()


@pytest.mark.parametrize("route", ["direct", "pcg"])
@pytest.mark.parametrize(
    "entry, spec_name, policy",
    [
        ("propagate", "anisotropic", "nearest_seed"),
        ("propagate", "capped", "background"),
        ("propagate", "capped", "nearest_seed"),
        ("bilateral", "capped", "background"),
        ("bilateral", "capped", "nearest_seed"),
    ],
)
def test_soft_volumes_match_a_full_scatter(entry, spec_name, policy, route, monkeypatch):
    # the writer skips solved entries that are +0.0; a reference that is
    # one-hot in the hard label and then writes every solved row must agree
    # bit for bit
    if route == "pcg":
        monkeypatch.setattr(dirichlet, "DIRECT_BLOCK_LIMIT", 0)
    module = sys.modules["voxprop.propagate"]
    solve_all, solved = module.solve_all, []

    def recording(system):
        field_ = solve_all(system)
        solved.append((system.unseeded, field_.values))
        return field_

    monkeypatch.setattr(module, "solve_all", recording)
    res = golden_run(entry, spec_name, policy)
    regions = res.report["hemispheres"] if entry == "bilateral" else [res.report]
    assert {r["route"] for r in regions} == {route}
    if spec_name == "capped":
        assert all(r["n_seedless_voxels"] > 0 for r in regions)
        assert entry == "propagate" or res.report["n_gap_voxels"] > 0
    if route == "direct":
        assert any((values == 0).any() for _, values in solved)

    hard = res.hard.data.ravel(order="F")
    for label_id, vol in zip(res.labels.ids, res.soft):
        want = np.zeros(hard.size)
        want[hard == label_id] = 1.0
        for voxels, values in solved:
            want[voxels] = values[:, res.labels.ids.index(label_id)]
        assert vol.data.ravel(order="F").tobytes() == want.tobytes()


def golden_digests(res):
    soft = b"".join(v.data.tobytes() for v in res.soft)
    return hashlib.sha256(soft).hexdigest(), hashlib.sha256(res.hard.data.tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_golden_outputs(case, monkeypatch):
    entry, spec_name, policy, route = case
    if route == "pcg":
        monkeypatch.setattr(dirichlet, "DIRECT_BLOCK_LIMIT", 0)
    res = golden_run(entry, spec_name, policy)
    assert golden_digests(res) == GOLDEN[case]
