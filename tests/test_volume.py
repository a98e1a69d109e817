import mmap
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxprop import (
    BACKGROUND_ID,
    ConstantVolume,
    DimMismatch,
    LabelSet,
    MultiLabelAnnotation,
    NonFiniteInput,
    TargetTooLarge,
    Volume3D,
    center_crop,
    min_max_normalize,
    read_labelset,
    strip_conflicts,
    write_labelset,
)

from voxprop import volume
from voxprop.volume import _HUGE_PAGE_BYTES, _sparse_zeros

from conftest import annotation_from_sets, backing, full_mask, make_intensity, make_mask
from helpers import argmax_labels

NO_HUGE_PAGE_ADVICE = not hasattr(mmap, "MADV_NOHUGEPAGE")


class TestVolume3D:
    def test_dims_and_dtype_per_kind(self):
        v = Volume3D(np.zeros((2, 3, 4)), "intensity")
        assert v.dims == (2, 3, 4)
        assert v.data.dtype == np.float64
        assert Volume3D(np.zeros((1, 1, 1), dtype=int), "label").data.dtype == np.uint16
        assert Volume3D(np.zeros((1, 1, 1), dtype=int), "mask").data.dtype == np.bool_

    def test_immutable(self):
        v = Volume3D(np.zeros((2, 2, 2)), "intensity")
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 1.0

    def test_caller_array_is_copied(self):
        for kind, arr in (("intensity", np.zeros((2, 2, 2))),
                          ("probability", np.zeros((2, 2, 2))),
                          ("label", np.zeros((2, 2, 2), np.uint16)),
                          ("mask", np.zeros((2, 2, 2), bool))):
            v = Volume3D(arr, kind)
            arr[0, 0, 0] = 1  # a later write by the caller
            assert v.data[0, 0, 0] == 0, kind

    def test_mask_rejects_other_values(self):
        with pytest.raises(ValueError):
            Volume3D(np.full((2, 2, 2), 3), "mask")

    def test_label_rejects_negative_and_float(self):
        with pytest.raises(ValueError):
            Volume3D(np.full((1, 1, 1), -1), "label")
        with pytest.raises(ValueError):
            Volume3D(np.zeros((1, 1, 1)), "label")

    def test_bad_spacing(self):
        with pytest.raises(ValueError):
            Volume3D(np.zeros((2, 2, 2)), "intensity", spacing=(1.0, 0.0, 1.0))

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            Volume3D(np.zeros((2, 2)), "intensity")

    @pytest.mark.parametrize("field", ["spacing", "origin"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_geometry(self, field, bad):
        with pytest.raises(NonFiniteInput):
            Volume3D(np.zeros((2, 2, 2)), "intensity", **{field: (1.0, bad, 1.0)})
        with pytest.raises(NonFiniteInput):
            MultiLabelAnnotation(
                LabelSet.from_ids([1]), np.zeros((1, 2, 2, 2), bool), **{field: (bad, 1.0, 1.0)}
            )


def one_mask_of(shape, value, dtype):
    """Makers of a mask volume and a one-label annotation of `shape`, filled with `value`."""
    data = np.full(shape, value, dtype=dtype)
    return [lambda: Volume3D(data, "mask"),
            lambda: MultiLabelAnnotation(LabelSet.from_ids([1]), data[None])]


class TestMaskRule:
    """One rule for a mask volume and for an annotation's masks."""

    @pytest.mark.parametrize("value", [np.nan, 7.0, -1.0, 0.5])
    def test_values_other_than_0_and_1_rejected(self, value):
        for make in one_mask_of((3, 2, 2), value, np.float64):
            with pytest.raises(ValueError, match="only 0 and 1"):
                make()

    @pytest.mark.parametrize("shape", [(0, 3, 3), (3, 0, 3), (3, 3, 0)])
    def test_empty_axis_rejected(self, shape):
        for make in one_mask_of(shape, 1, bool):
            with pytest.raises(ValueError, match="all dims must be >= 1"):
                make()

    def test_zeros_and_ones_of_any_dtype_accepted(self):
        for dtype in (np.float64, np.int64, np.uint8, bool):
            data = (np.arange(12) % 2).reshape(3, 2, 2).astype(dtype)
            assert np.array_equal(Volume3D(data, "mask").data, data.astype(bool))
            ann = MultiLabelAnnotation(LabelSet.from_ids([1]), data[None])
            assert np.array_equal(ann.masks[0], data.astype(bool))


class TestLayout:
    @pytest.mark.parametrize("kind", ["intensity", "probability", "label", "mask"])
    def test_c_ordered_input_is_stored_x_fastest(self, kind):
        data = (np.arange(60) % 2).reshape(3, 4, 5)
        assert data.flags.c_contiguous and not data.flags.f_contiguous
        v = Volume3D(data, kind)
        assert v.data.flags.f_contiguous
        assert np.array_equal(v.data, data)

    def test_adopt_keeps_an_x_fastest_array(self):
        data = np.asfortranarray(np.arange(60.0).reshape(3, 4, 5))
        v = Volume3D._adopt(data, "intensity", (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        assert np.shares_memory(v.data, data)

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_annotation_masks_are_x_fastest_per_label(self, rng, layout):
        masks = layout(rng.random((3, 4, 5, 6)) < 0.5)
        ann = MultiLabelAnnotation(LabelSet.from_ids([1, 2, 3]), masks)
        assert all(m.flags.f_contiguous for m in ann.masks)
        assert np.array_equal(ann.masks, masks)
        assert not np.shares_memory(ann.masks, masks)


class TestLabelSet:
    def test_roundtrip_file(self, tmp_path):
        labels = LabelSet(((3, "MD"), (7, "CL")))
        path = tmp_path / "labels.tsv"
        write_labelset(labels, path)
        assert read_labelset(path) == labels

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("# header\n\n1\tAN\n2\tCL  # trailing comment\n")
        labels = read_labelset(path)
        assert labels.ids == (1, 2)
        assert labels.names == ("AN", "CL")

    def test_ordering_and_uniqueness(self):
        with pytest.raises(ValueError):
            LabelSet(((2, "b"), (1, "a")))
        with pytest.raises(ValueError):
            LabelSet(((1, "a"), (1, "b")))
        with pytest.raises(ValueError, match="duplicate label names"):
            LabelSet(((1, "A"), (2, "A")))
        with pytest.raises(ValueError):
            LabelSet(((0, "bg"),))
        with pytest.raises(ValueError):
            LabelSet(())

    @pytest.mark.parametrize(
        "name",
        ["", " AN", "AN ", "VL#2", "../escaped_AN", "a/b", "a\0b", "a\rb", "a\nb", "a\x0bb"],
    )
    def test_malformed_name_rejected(self, name):
        with pytest.raises(ValueError, match="label name"):
            LabelSet(((1, "ok"), (2, name)))

    @settings(max_examples=300, deadline=None)
    @given(names=st.lists(st.text(max_size=8), min_size=1, max_size=4, unique=True))
    def test_accepted_names_survive_the_file(self, names):
        try:
            labels = LabelSet(tuple(enumerate(names, start=1)))
        except ValueError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "labels.tsv"
            write_labelset(labels, path)
            assert read_labelset(path).names == labels.names

    @pytest.mark.parametrize("bad", [1.9, True, "2", np.float64(2.5), float("nan")])
    def test_ids_that_are_not_whole_numbers_rejected(self, bad):
        with pytest.raises(ValueError, match="whole numbers"):
            LabelSet(((bad, "A"),))

    @pytest.mark.parametrize("ids", [[1.5, 3], [True, 3], ["1", 3]])
    def test_from_ids_rejects_what_int_would_truncate(self, ids):
        with pytest.raises(ValueError, match="whole numbers"):
            LabelSet.from_ids(ids)

    def test_whole_floats_and_numpy_ints_load(self):
        labels = LabelSet(((3.0, "A"), (np.uint16(7), "B")))
        assert labels.ids == (3, 7) and all(type(i) is int for i in labels.ids)
        assert LabelSet.from_ids(np.array([4.0, 2.0])).entries == ((2, "label2"), (4, "label4"))

    def test_lookup(self):
        labels = LabelSet(((2, "MD"), (5, "CL")))
        assert labels.index(5) == 1
        assert labels.name(2) == "MD"
        assert 5 in labels and 4 not in labels
        with pytest.raises(KeyError):
            labels.index(9)

    @pytest.mark.parametrize("label_id", [5.0, np.int64(5), np.uint16(5), np.float64(5.0)])
    def test_whole_numbers_of_any_type_are_found(self, label_id):
        labels = LabelSet(((2, "MD"), (5, "CL")))
        assert label_id in labels
        assert labels.index(label_id) == 1 and labels.name(label_id) == "CL"

    @pytest.mark.parametrize(
        "label_id", [2.9, 5.5, 2.5, np.float64(1.5), True, np.True_, "2", "5"]
    )
    def test_lookups_do_not_truncate(self, label_id):
        labels = LabelSet(((1, "AN"), (2, "MD"), (5, "CL")))
        assert label_id not in labels
        with pytest.raises(KeyError):
            labels.index(label_id)
        with pytest.raises(KeyError):
            labels.name(label_id)


class TestSparseZeros:
    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint16])
    @pytest.mark.parametrize(
        "nbytes", [_HUGE_PAGE_BYTES - 8, _HUGE_PAGE_BYTES, 3 * _HUGE_PAGE_BYTES]
    )
    def test_zeroed_and_writable(self, nbytes, dtype):
        n = nbytes // np.dtype(dtype).itemsize
        a = _sparse_zeros(n, dtype)
        assert a.dtype == dtype and a.shape == (n,)
        assert not a.any() and a.flags.writeable
        a[[0, -1]] = 1
        assert a.sum() == 2

    @pytest.mark.skipif(NO_HUGE_PAGE_ADVICE, reason="no MADV_NOHUGEPAGE on this platform")
    def test_huge_page_sized_arrays_lie_on_their_own_mapping(self):
        n = _HUGE_PAGE_BYTES // 8
        a = _sparse_zeros(n)
        assert a.dtype == np.float64 and isinstance(backing(a), mmap.mmap)
        assert isinstance(backing(_sparse_zeros(_HUGE_PAGE_BYTES // 2, np.int16)), mmap.mmap)
        assert not isinstance(backing(_sparse_zeros(n - 1)), mmap.mmap)

    @pytest.mark.skipif(not hasattr(mmap, "MAP_PRIVATE"), reason="no private mappings")
    def test_refused_advice_still_gives_zeros(self, monkeypatch):
        class Refusing(mmap.mmap):
            def madvise(self, *args):
                raise OSError(22, "Invalid argument")

        fake = type(mmap)("mmap")
        fake.mmap, fake.MAP_PRIVATE = Refusing, mmap.MAP_PRIVATE
        fake.MADV_NOHUGEPAGE = getattr(mmap, "MADV_NOHUGEPAGE", 15)
        monkeypatch.setattr(volume, "mmap", fake)
        a = _sparse_zeros(_HUGE_PAGE_BYTES // 8)
        assert isinstance(backing(a), Refusing)
        assert a.dtype == np.float64 and not a.any() and a.flags.writeable
        a[-1] = 2.0
        assert a.sum() == 2.0

    @pytest.mark.skipif(
        NO_HUGE_PAGE_ADVICE or not os.path.exists("/proc/self/statm"),
        reason="needs MADV_NOHUGEPAGE and /proc/self/statm",
    )
    def test_sparse_writes_make_few_pages_resident(self):
        def rss():
            return int(Path("/proc/self/statm").read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        a = _sparse_zeros((64 << 20) // 8)
        before = rss()
        a[:: (2 << 20) // 8] = 1.0  # one write per 2 MiB: 32 writes
        assert rss() - before < 4 << 20


class TestMinMaxNormalize:
    def test_affine_endpoints(self):
        v = make_intensity(np.array([2.0, 4.0, 6.0]).reshape(3, 1, 1))
        out = min_max_normalize(v)
        assert np.allclose(out.data.ravel(), [0.0, 0.5, 1.0])

    def test_identity_when_already_unit_range(self):
        v = make_intensity(np.array([0.0, 0.25, 1.0]).reshape(3, 1, 1))
        out = min_max_normalize(v)
        assert np.array_equal(out.data, v.data)

    def test_hand_example(self):
        # (x - 10) / 20 for x in {10, 15, 30}
        v = make_intensity(np.array([10.0, 15.0, 30.0]).reshape(3, 1, 1))
        out = min_max_normalize(v)
        assert np.allclose(out.data.ravel(), [0.0, 0.25, 1.0])

    def test_constant_raises(self):
        v = make_intensity(np.full((2, 2, 2), 5.0))
        with pytest.raises(ConstantVolume):
            min_max_normalize(v)

    def test_roi_statistics_no_outside_clamp(self):
        data = np.array([0.0, 10.0, 20.0, 100.0]).reshape(4, 1, 1)
        roi = make_mask(np.array([1, 1, 1, 0]).reshape(4, 1, 1))
        out = min_max_normalize(make_intensity(data), roi)
        # min/max from the roi; the outside voxel follows the same affine map
        assert np.allclose(out.data.ravel(), [0.0, 0.5, 1.0, 5.0])

    def test_constant_inside_roi_raises(self):
        data = np.array([5.0, 5.0, 9.0]).reshape(3, 1, 1)
        roi = make_mask(np.array([1, 1, 0]).reshape(3, 1, 1))
        with pytest.raises(ConstantVolume):
            min_max_normalize(make_intensity(data), roi)

    def test_idempotent(self, rng):
        v = make_intensity(rng.normal(size=(4, 5, 6)))
        once = min_max_normalize(v)
        twice = min_max_normalize(once)
        assert np.array_equal(once.data, twice.data)

    def test_idempotent_with_roi(self, rng):
        v = make_intensity(rng.normal(size=(4, 5, 6)))
        roi = make_mask(rng.random((4, 5, 6)) < 0.5)
        once = min_max_normalize(v, roi)
        twice = min_max_normalize(once, roi)
        assert np.array_equal(once.data, twice.data)

    def test_roi_dim_mismatch(self):
        v = make_intensity(np.zeros((2, 2, 2)))
        with pytest.raises(DimMismatch):
            min_max_normalize(v, full_mask((3, 3, 3)))


class TestCenterCrop:
    def test_paper_scale_window(self):
        v = make_intensity(np.zeros((241, 286, 241)), spacing=(0.5, 0.5, 0.5))
        out = center_crop(v, (64, 96, 64))
        assert out.dims == (64, 96, 64)
        # floor((241-64)/2) = 88, floor((286-96)/2) = 95
        assert out.origin == (88 * 0.5, 95 * 0.5, 88 * 0.5)

    def test_window_content(self):
        data = np.arange(5 * 5 * 5, dtype=float).reshape(5, 5, 5)
        out = center_crop(make_intensity(data), (2, 2, 2))
        assert np.array_equal(out.data, data[1:3, 1:3, 1:3])

    def test_identity(self):
        v = make_intensity(np.arange(8, dtype=float).reshape(2, 2, 2))
        out = center_crop(v, (2, 2, 2))
        assert np.array_equal(out.data, v.data)
        assert out.origin == v.origin

    def test_odd_remainder_trims_high_side(self):
        data = np.arange(5, dtype=float).reshape(5, 1, 1)
        out = center_crop(make_intensity(data), (2, 1, 1))
        # start floor((5-2)/2) = 1: keeps {1, 2}, trimming 1 low and 2 high
        assert np.array_equal(out.data.ravel(), [1.0, 2.0])

    def test_target_too_large(self):
        with pytest.raises(TargetTooLarge):
            center_crop(make_intensity(np.zeros((2, 2, 2))), (3, 2, 2))

    @pytest.mark.parametrize("target", [(2.7, 2, 2), (2, True, 2), (2, 2, "2"), (2, 2, np.nan)])
    def test_target_that_is_not_whole_numbers_rejected(self, target):
        with pytest.raises(ValueError, match="whole numbers"):
            center_crop(make_intensity(np.zeros((3, 3, 3))), target)

    def test_whole_float_target_accepted(self):
        v = make_intensity(np.zeros((3, 3, 3)))
        assert center_crop(v, (2.0, np.int64(1), 3)).dims == (2, 1, 3)

    def test_composition_equals_single_crop(self, rng):
        v = make_intensity(rng.normal(size=(9, 8, 7)), spacing=(1.0, 2.0, 3.0))
        nested = center_crop(center_crop(v, (7, 6, 5)), (3, 2, 1))
        direct = center_crop(v, (3, 2, 1))
        assert np.array_equal(nested.data, direct.data)
        assert nested.origin == direct.origin

    def test_world_coordinates_preserved(self):
        v = make_intensity(np.zeros((6, 6, 6)), spacing=(2.0, 2.0, 2.0), origin=(10.0, 0.0, -4.0))
        out = center_crop(v, (2, 2, 2))
        assert out.origin == (10.0 + 2 * 2.0, 0.0 + 2 * 2.0, -4.0 + 2 * 2.0)


LABELS = LabelSet(((2, "MD"), (5, "CL"), (7, "AN"), (9, "LD")))


class TestStripConflicts:
    def test_singleton_passthrough(self):
        ann = annotation_from_sets(LABELS, (2, 2, 2), {(0, 0, 0): {2}})
        seeds, conflicts = strip_conflicts(ann)
        assert seeds.data[0, 0, 0] == 2
        assert not conflicts.data.any()

    def test_conflict_cleared_and_flagged(self):
        ann = annotation_from_sets(LABELS, (2, 2, 2), {(1, 1, 0): {2, 5}})
        seeds, conflicts = strip_conflicts(ann)
        assert seeds.data[1, 1, 0] == BACKGROUND_ID
        assert conflicts.data[1, 1, 0]
        assert conflicts.data.sum() == 1

    def test_empty_set_stays_background(self):
        ann = annotation_from_sets(LABELS, (2, 2, 2), {})
        seeds, conflicts = strip_conflicts(ann)
        assert not seeds.data.any()
        assert not conflicts.data.any()

    def test_voxel_carrying_256_labels_is_a_conflict(self):
        # a uint8 count of 256 labels would wrap to 0 and miss the conflict
        labels = LabelSet.from_ids(range(1, 257))
        masks = np.zeros((256, 3, 1, 1), bool)
        masks[:, 0] = True
        masks[7, 1] = True
        ann = MultiLabelAnnotation(labels, masks)
        seeds, conflicts = strip_conflicts(ann)
        assert seeds.data.ravel().tolist() == [BACKGROUND_ID, 8, BACKGROUND_ID]
        assert conflicts.data.ravel().tolist() == [True, False, False]
        counts = ann.label_counts()
        assert counts.dtype == np.int64 and counts.ravel().tolist() == [256, 1, 0]


class TestArgmaxLabels:
    def _field(self, rows, labels):
        # rows: per-voxel probability vectors for a (n,1,1) grid
        arr = np.asarray(rows, dtype=np.float64).T.reshape(len(labels), -1, 1, 1)
        return arr

    def test_strict_max(self):
        labels = LabelSet.from_ids([2, 5])
        probs = self._field([[0.7, 0.3]], labels)
        out = argmax_labels(probs, labels, full_mask((1, 1, 1)))
        assert out.data[0, 0, 0] == 2

    def test_tie_goes_to_smallest_id(self):
        labels = LabelSet.from_ids([2, 5])
        probs = self._field([[0.5, 0.5]], labels)
        out = argmax_labels(probs, labels, full_mask((1, 1, 1)))
        assert out.data[0, 0, 0] == 2

    def test_three_way(self):
        labels = LabelSet.from_ids([1, 2, 3])
        probs = self._field([[0.2, 0.3, 0.5]], labels)
        out = argmax_labels(probs, labels, full_mask((1, 1, 1)))
        assert out.data[0, 0, 0] == 3

    def test_outside_roi_background(self):
        labels = LabelSet.from_ids([1, 2])
        probs = self._field([[0.9, 0.1], [0.9, 0.1]], labels)
        roi = make_mask(np.array([1, 0]).reshape(2, 1, 1))
        out = argmax_labels(probs, labels, roi)
        assert out.data[0, 0, 0] == 1
        assert out.data[1, 0, 0] == BACKGROUND_ID

    def test_monotone_transform_invariance(self, rng):
        labels = LabelSet.from_ids([1, 2, 3])
        probs = rng.random((3, 4, 4, 4))
        roi = full_mask((4, 4, 4))
        base = argmax_labels(probs, labels, roi)
        squashed = argmax_labels(np.tanh(3.0 * probs), labels, roi)
        assert np.array_equal(base.data, squashed.data)

    def test_volume_input_form(self):
        labels = LabelSet.from_ids([1, 2])
        vols = [
            Volume3D(np.full((2, 2, 2), 0.4), "probability"),
            Volume3D(np.full((2, 2, 2), 0.6), "probability"),
        ]
        out = argmax_labels(vols, labels, full_mask((2, 2, 2)))
        assert (out.data == 2).all()


class TestMultiLabelAnnotation:
    def test_from_label_volume(self):
        labels = LabelSet.from_ids([1, 2])
        vol = Volume3D(np.array([0, 1, 2, 1]).reshape(4, 1, 1), "label")
        ann = MultiLabelAnnotation.from_label_volume(vol, labels)
        assert ann.label_counts().ravel().tolist() == [0, 1, 1, 1]

    def test_from_label_volume_rejects_stray_ids(self):
        labels = LabelSet.from_ids([1])
        vol = Volume3D(np.array([0, 3]).reshape(2, 1, 1), "label")
        with pytest.raises(ValueError):
            MultiLabelAnnotation.from_label_volume(vol, labels)

    def test_mask_count_must_match(self):
        with pytest.raises(ValueError):
            MultiLabelAnnotation(LabelSet.from_ids([1, 2]), np.zeros((3, 2, 2, 2), bool))
