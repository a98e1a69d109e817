import itertools
import json

import numpy as np
import pytest

from voxprop import (
    BACKGROUND_ID,
    DimMismatch,
    LabelSet,
    MultiLabelAnnotation,
    TooFewMaps,
    Volume3D,
    build_eval_mask,
    dice,
    dice_report,
    majority_vote,
)

from conftest import annotation_from_sets, full_mask, make_mask


def label_vol(values):
    arr = np.asarray(values, dtype=np.uint16)
    return Volume3D(arr.reshape(arr.shape + (1,) * (3 - arr.ndim)), "label")


LABELS = LabelSet(((2, "A"), (5, "B"), (9, "C")))


class TestMajorityVote:
    def test_unanimous(self):
        maps = [label_vol([2, 5])] * 4
        out = majority_vote(maps, full_mask((2, 1, 1)))
        assert out.data.ravel().tolist() == [2, 5]

    def test_strict_majority(self):
        maps = [label_vol([2]), label_vol([2]), label_vol([2]), label_vol([5])]
        out = majority_vote(maps, full_mask((1, 1, 1)))
        assert out.data[0, 0, 0] == 2

    def test_two_two_tie_takes_smaller_id(self):
        maps = [label_vol([2]), label_vol([2]), label_vol([5]), label_vol([5])]
        out = majority_vote(maps, full_mask((1, 1, 1)))
        assert out.data[0, 0, 0] == 2

    def test_background_is_a_legal_vote(self):
        maps = [label_vol([0]), label_vol([0]), label_vol([0]), label_vol([5])]
        out = majority_vote(maps, full_mask((1, 1, 1)))
        assert out.data[0, 0, 0] == BACKGROUND_ID

    def test_background_wins_ties_it_is_part_of(self):
        maps = [label_vol([0]), label_vol([5])]
        out = majority_vote(maps, full_mask((1, 1, 1)))
        assert out.data[0, 0, 0] == BACKGROUND_ID

    def test_permutation_invariant(self, rng):
        dims = (3, 3, 2)
        maps = [
            Volume3D(rng.integers(0, 4, size=dims).astype(np.uint16), "label")
            for _ in range(4)
        ]
        roi = full_mask(dims)
        base = majority_vote(maps, roi)
        for perm in itertools.permutations(range(4)):
            out = majority_vote([maps[i] for i in perm], roi)
            assert np.array_equal(out.data, base.data)

    def test_k_copies_identity_on_roi(self, rng):
        dims = (4, 4, 2)
        labels = Volume3D(rng.integers(0, 4, size=dims).astype(np.uint16), "label")
        roi_data = rng.random(dims) < 0.7
        out = majority_vote([labels] * 3, make_mask(roi_data))
        assert np.array_equal(out.data[roi_data], labels.data[roi_data])
        assert (out.data[~roi_data] == BACKGROUND_ID).all()

    def test_too_few_maps(self):
        with pytest.raises(TooFewMaps):
            majority_vote([label_vol([1])], full_mask((1, 1, 1)))

    def test_dim_mismatch(self):
        maps = [label_vol([1]), label_vol([1, 2])]
        with pytest.raises(DimMismatch):
            majority_vote(maps, full_mask((1, 1, 1)))


class TestDice:
    def test_identity(self, rng):
        dims = (4, 4, 4)
        vol = Volume3D(rng.integers(0, 3, size=dims).astype(np.uint16), "label")
        for lab in (1, 2):
            assert dice(vol, vol, lab, full_mask(dims)) == 1.0

    def test_disjoint_zero(self):
        pred = label_vol([3, 0])
        target = label_vol([0, 3])
        assert dice(pred, target, 3, full_mask((2, 1, 1))) == 0.0

    def test_half_overlap(self):
        # |P| = 2, |T| = 2, overlap 1 -> 2*1/(2+2) = 0.5
        pred = label_vol([7, 7, 0, 0])
        target = label_vol([7, 0, 7, 0])
        assert dice(pred, target, 7, full_mask((4, 1, 1))) == 0.5

    def test_both_empty_is_one(self):
        pred = label_vol([0, 0])
        target = label_vol([0, 0])
        assert dice(pred, target, 4, full_mask((2, 1, 1))) == 1.0

    def test_symmetric(self, rng):
        dims = (5, 5, 2)
        a = Volume3D(rng.integers(0, 3, size=dims).astype(np.uint16), "label")
        b = Volume3D(rng.integers(0, 3, size=dims).astype(np.uint16), "label")
        mask = full_mask(dims)
        assert dice(a, b, 1, mask) == dice(b, a, 1, mask)

    def test_mask_restricts_counts(self):
        pred = label_vol([3, 3])
        target = label_vol([3, 0])
        mask = make_mask(np.array([1, 0]).reshape(2, 1, 1))
        assert dice(pred, target, 3, mask) == 1.0

    def test_consistent_relabeling_invariance(self, rng):
        dims = (4, 4, 2)
        a = rng.integers(0, 3, size=dims).astype(np.uint16)
        b = rng.integers(0, 3, size=dims).astype(np.uint16)
        mask = full_mask(dims)
        swap = {0: 0, 1: 7, 2: 4}
        a2 = np.vectorize(swap.get)(a).astype(np.uint16)
        b2 = np.vectorize(swap.get)(b).astype(np.uint16)
        for lab in (1, 2):
            assert dice(
                Volume3D(a, "label"), Volume3D(b, "label"), lab, mask
            ) == dice(
                Volume3D(a2, "label"), Volume3D(b2, "label"), swap[lab], mask
            )


class TestBuildEvalMask:
    def test_conflict_free_equals_roi(self):
        ann = annotation_from_sets(LABELS, (2, 2, 2), {(0, 0, 0): {2}})
        roi = full_mask((2, 2, 2))
        out = build_eval_mask(ann, roi)
        assert np.array_equal(out.data, roi.data)

    def test_ambiguous_voxels_excluded(self):
        ann = annotation_from_sets(
            LABELS, (2, 2, 2), {(0, 0, 0): {2, 5}, (1, 0, 0): {9}}
        )
        out = build_eval_mask(ann, full_mask((2, 2, 2)))
        assert not out.data[0, 0, 0]
        assert out.data[1, 0, 0]

    def test_subset_of_roi(self, rng):
        dims = (3, 3, 3)
        sets = {}
        for v in np.ndindex(dims):
            if rng.random() < 0.3:
                sets[v] = {2, 5}
        ann = annotation_from_sets(LABELS, dims, sets)
        roi = make_mask(rng.random(dims) < 0.6)
        out = build_eval_mask(ann, roi)
        assert not (out.data & ~roi.data).any()

    def test_dim_mismatch(self):
        ann = annotation_from_sets(LABELS, (2, 2, 2), {})
        with pytest.raises(DimMismatch):
            build_eval_mask(ann, full_mask((3, 3, 3)))

    def test_voxel_carrying_256_labels_is_excluded(self):
        labels = LabelSet.from_ids(range(1, 257))
        masks = np.zeros((256, 2, 1, 1), bool)
        masks[:, 0] = True
        ann = MultiLabelAnnotation(labels, masks)
        out = build_eval_mask(ann, full_mask((2, 1, 1)))
        assert out.data.ravel().tolist() == [False, True]


class TestDiceReport:
    def test_identity_overall_one(self, rng):
        dims = (4, 4, 2)
        vol = Volume3D(
            rng.choice([0, 2, 5, 9], size=dims).astype(np.uint16), "label"
        )
        rep = dice_report(vol, vol, LABELS, full_mask(dims))
        assert all(c.dice == 1.0 for c in rep.per_class.values())
        assert rep.overall == 1.0

    def test_volume_weighted_hand_example(self):
        # two classes with dice (1.0, 0.0) and target volumes (3, 1):
        # overall = (1*3 + 0*1) / 4 = 0.75
        pred = label_vol([2, 2, 2, 9])
        target = label_vol([2, 2, 2, 5])
        labels = LabelSet(((2, "A"), (5, "B")))
        rep = dice_report(pred, target, labels, full_mask((4, 1, 1)))
        assert rep.per_class[2].dice == 1.0
        assert rep.per_class[5].dice == 0.0
        assert rep.per_class[2].target_volume == 3
        assert rep.per_class[5].target_volume == 1
        assert rep.overall == 0.75

    def test_absent_class_zero_weight(self):
        pred = label_vol([2, 2])
        target = label_vol([2, 2])
        rep = dice_report(pred, target, LABELS, full_mask((2, 1, 1)))
        assert rep.per_class[9].dice == 1.0  # both empty
        assert rep.per_class[9].target_volume == 0
        assert rep.overall == 1.0

    def test_overall_between_min_and_max(self, rng):
        dims = (5, 5, 3)
        pred = Volume3D(rng.choice([0, 2, 5, 9], size=dims).astype(np.uint16), "label")
        target = Volume3D(rng.choice([0, 2, 5, 9], size=dims).astype(np.uint16), "label")
        rep = dice_report(pred, target, LABELS, full_mask(dims))
        positive = [c.dice for c in rep.per_class.values() if c.target_volume > 0]
        assert min(positive) - 1e-12 <= rep.overall <= max(positive) + 1e-12

    def test_excluded_voxels_counted(self):
        ann = annotation_from_sets(LABELS, (2, 2, 2), {(0, 0, 0): {2, 5}})
        roi = full_mask((2, 2, 2))
        mask = build_eval_mask(ann, roi)
        pred = Volume3D(np.zeros((2, 2, 2), np.uint16), "label")
        rep = dice_report(pred, pred, LABELS, mask, roi=roi)
        assert rep.excluded_voxels == 1

    def test_serialization(self):
        pred = label_vol([2, 5])
        rep = dice_report(pred, pred, LabelSet(((2, "AN"), (5, "MD"))), full_mask((2, 1, 1)))
        d = rep.to_dict()
        assert d["per_class"]["AN"]["dice"] == 1.0
        assert d["per_class"]["MD"]["label_id"] == 5
        assert d["overall"] == 1.0
        parsed = json.loads(rep.to_json())
        assert parsed == d
        text = rep.to_text()
        assert "AN" in text and "overall" in text
