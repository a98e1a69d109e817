import hashlib
import json

import numpy as np
import pytest

from voxprop import BadSpec, PropagationRequest, dice, propagate
from voxprop.phantom import PhantomBlob, PhantomSpec, make_phantom

from helpers import loop_phantom_arrays


def small_spec(**kw):
    defaults = dict(
        dims=(16, 16, 16),
        blobs=(
            PhantomBlob((4.0, 8.0, 8.0), 1, 0.2),
            PhantomBlob((12.0, 8.0, 8.0), 2, 0.8),
        ),
        noise_sigma=0.0,
        seed=11,
    )
    defaults.update(kw)
    return PhantomSpec(**defaults)


class TestGeneration:
    def test_no_corruption_matches_truth(self):
        ph = make_phantom(small_spec())
        counts = ph.annotation.label_counts()
        inside = ph.roi.data
        assert (counts[inside] == 1).all()
        assert (counts[~inside] == 0).all()
        for k, lab in enumerate(ph.labels.ids):
            assert np.array_equal(ph.annotation.masks[k], ph.truth.data == lab)

    def test_deterministic_given_seed(self):
        a = make_phantom(small_spec(unlabeled_fraction=0.3, conflict_fraction=0.2, noise_sigma=0.05))
        b = make_phantom(small_spec(unlabeled_fraction=0.3, conflict_fraction=0.2, noise_sigma=0.05))
        assert np.array_equal(a.guidance.data, b.guidance.data)
        assert np.array_equal(a.annotation.masks, b.annotation.masks)
        assert np.array_equal(a.truth.data, b.truth.data)

    def test_different_seed_differs(self):
        a = make_phantom(small_spec(noise_sigma=0.05))
        b = make_phantom(small_spec(noise_sigma=0.05, seed=12))
        assert not np.array_equal(a.guidance.data, b.guidance.data)

    def test_fractions_respected(self):
        spec = small_spec(
            dims=(32, 32, 32),
            blobs=(
                PhantomBlob((8.0, 16.0, 16.0), 1, 0.2),
                PhantomBlob((24.0, 16.0, 16.0), 2, 0.8),
            ),
            unlabeled_fraction=0.3,
            conflict_fraction=0.2,
        )
        ph = make_phantom(spec)
        counts = ph.annotation.label_counts()
        n_truth = int((ph.truth.data > 0).sum())
        unlabeled = int(((counts == 0) & ph.roi.data).sum())
        conflicted = int((counts >= 2).sum())
        assert unlabeled / n_truth == pytest.approx(0.3, abs=0.01)
        assert conflicted / n_truth == pytest.approx(0.2, abs=0.01)

    def test_conflict_second_label_differs_from_truth(self):
        spec = small_spec(conflict_fraction=0.2)
        ph = make_phantom(spec)
        counts = ph.annotation.label_counts()
        conflict = counts >= 2
        assert conflict.any()
        # conflicted voxels keep their true label plus one other
        for k, lab in enumerate(ph.labels.ids):
            own = (ph.truth.data == lab) & conflict
            assert ph.annotation.masks[k][own].all()

    def test_truth_is_nearest_center(self):
        ph = make_phantom(small_spec())
        # a voxel close to the first center carries its label
        assert ph.truth.data[4, 8, 8] == 1
        assert ph.truth.data[12, 8, 8] == 2

    def test_blob_centers_never_corrupted(self):
        spec = small_spec(unlabeled_fraction=1.0)
        ph = make_phantom(spec)
        counts = ph.annotation.label_counts()
        assert counts[4, 8, 8] == 1
        assert counts[12, 8, 8] == 1
        # everything else unlabeled
        assert int(counts.sum()) == 2

    def test_center_near_upper_edge_is_clamped(self):
        # 7.6 rounds to index 8, one past the grid: the kept voxel is x=7
        spec = small_spec(
            dims=(8, 5, 5),
            blobs=(PhantomBlob((7.6, 2.0, 2.0), 1, 0.2), PhantomBlob((0.4, 2.0, 2.0), 2, 0.8)),
            roi_semiaxes=(8.0, 3.0, 3.0),
            unlabeled_fraction=1.0,
        )
        counts = make_phantom(spec).annotation.label_counts()
        assert counts[7, 2, 2] == 1 and counts[0, 2, 2] == 1
        assert int(counts.sum()) == 2

    def test_full_unlabeled_recovery_high_contrast(self):
        spec = small_spec(unlabeled_fraction=1.0, noise_sigma=0.01)
        ph = make_phantom(spec)
        req = PropagationRequest(
            guidance=ph.guidance, roi=ph.roi, annotation=ph.annotation, beta=10_000.0
        )
        res = propagate(req)
        for lab in ph.labels.ids:
            assert dice(res.hard, ph.truth, lab, ph.roi) >= 0.95


class TestValidation:
    def test_bad_fractions(self):
        with pytest.raises(BadSpec):
            make_phantom(small_spec(unlabeled_fraction=1.2))
        with pytest.raises(BadSpec):
            make_phantom(small_spec(unlabeled_fraction=0.7, conflict_fraction=0.6))

    def test_center_outside_grid(self):
        with pytest.raises(BadSpec):
            make_phantom(small_spec(blobs=(PhantomBlob((99.0, 0.0, 0.0), 1, 0.5),)))

    def test_conflicts_need_two_labels(self):
        spec = small_spec(
            blobs=(PhantomBlob((8.0, 8.0, 8.0), 1, 0.5),), conflict_fraction=0.1
        )
        with pytest.raises(BadSpec):
            make_phantom(spec)

    def test_background_label_rejected(self):
        with pytest.raises(BadSpec):
            make_phantom(small_spec(blobs=(PhantomBlob((8.0, 8.0, 8.0), 0, 0.5),)))

    def test_negative_noise(self):
        with pytest.raises(BadSpec):
            make_phantom(small_spec(noise_sigma=-0.1))

    def test_no_blobs(self):
        with pytest.raises(BadSpec):
            make_phantom(small_spec(blobs=()))

    @pytest.mark.parametrize(
        "kw",
        [
            {"spacing": (1.0, 0.0, 1.0)},
            {"spacing": (1.0, -2.0, 1.0)},
            {"spacing": (1.0, float("nan"), 1.0)},
            {"spacing": (1.0, 1.0)},
            {"seed": -1},
            {"noise_sigma": float("nan")},
            {"label_names": {1: "A", 2: "A"}},
            {"label_names": {1: "blob2"}},
            {"label_names": {1: "VL#2"}},
            {"label_names": {1: " AN"}},
            {"label_names": {1: "../escaped_AN"}},
        ],
        ids=["zero-spacing", "negative-spacing", "nan-spacing", "two-spacings",
             "negative-seed", "nan-noise", "duplicate-names", "name-of-unnamed-label",
             "comment-in-name", "padded-name", "path-in-name"],
    )
    def test_malformed_spec_raises_bad_spec(self, kw):
        with pytest.raises(BadSpec):
            make_phantom(small_spec(**kw))

    def test_label_id_beyond_uint16(self):
        with pytest.raises(BadSpec):
            make_phantom(small_spec(blobs=(PhantomBlob((8.0, 8.0, 8.0), 70_000, 0.5),)))


class TestSpecSerialization:
    def test_from_json(self, tmp_path):
        payload = {
            "dims": [16, 16, 16],
            "blobs": [
                {"center": [4, 8, 8], "label_id": 1, "intensity": 0.2},
                {"center": [12, 8, 8], "label_id": 2, "intensity": 0.8},
            ],
            "noise_sigma": 0.01,
            "unlabeled_fraction": 0.5,
            "conflict_fraction": 0.1,
            "seed": 3,
            "label_names": {"1": "left", "2": "right"},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        spec = PhantomSpec.from_json(path)
        assert spec.dims == (16, 16, 16)
        assert spec.label_set().names == ("left", "right")
        ph = make_phantom(spec)
        assert ph.labels.names == ("left", "right")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(BadSpec):
            PhantomSpec.from_json(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dims": [4, 4, 4]}))
        with pytest.raises(BadSpec):
            PhantomSpec.from_json(path)

    SPEC = {"dims": [8, 8, 8], "blobs": [{"center": [2, 2, 2], "label_id": 1, "intensity": 0.5}],
            "seed": 1}

    @pytest.mark.parametrize(
        "kw",
        [
            {"dims": [8.7, 8, 8]},
            {"dims": ["8", 8, 8]},
            {"seed": 1.5},
            {"seed": True},
            {"blobs": [{"center": [2, 2, 2], "label_id": 1.9, "intensity": 0.5}]},
            {"keep_blob_centers": "false"},
            {"keep_blob_centers": 0},
            {"label_names": {1.9: "A"}},
            {"label_names": {True: "A"}},
        ],
        ids=["fractional-dims", "string-dims", "fractional-seed", "boolean-seed",
             "fractional-label", "string-flag", "integer-flag", "fractional-name-key",
             "boolean-name-key"],
    )
    def test_inexact_types_raise_bad_spec(self, kw):
        # int() and bool() would load these as a different phantom
        with pytest.raises(BadSpec):
            PhantomSpec.from_dict(dict(self.SPEC, **kw))

    def test_integral_floats_load(self):
        spec = PhantomSpec.from_dict(dict(self.SPEC, dims=[8.0, 8, 8], seed=3.0))
        assert spec.dims == (8, 8, 8) and spec.seed == 3
        assert all(type(v) is int for v in (*spec.dims, spec.seed))

    @pytest.mark.parametrize("key", ["1", 1, 1.0])
    def test_integral_name_keys_load(self, key):
        spec = PhantomSpec.from_dict(dict(self.SPEC, label_names={key: "A"}))
        assert spec.label_names == {1: "A"} and type(next(iter(spec.label_names))) is int
        assert spec.label_set().names == ("A",)


class TestMonotoneTrust:
    def test_dice_never_drops_as_beta_grows(self):
        # perfect contrast, interior (center) seeds only: trusting the
        # guidance more should never hurt on this fixed suite
        spec = PhantomSpec(
            dims=(20, 20, 20),
            blobs=(
                PhantomBlob((5.0, 10.0, 10.0), 1, 0.2),
                PhantomBlob((15.0, 10.0, 10.0), 2, 0.5),
                PhantomBlob((10.0, 15.0, 10.0), 3, 0.8),
            ),
            noise_sigma=0.0,
            unlabeled_fraction=1.0,
            seed=5,
        )
        ph = make_phantom(spec)
        prev = None
        for beta in (0.0, 1.0, 100.0, 10_000.0):
            req = PropagationRequest(
                guidance=ph.guidance, roi=ph.roi, annotation=ph.annotation, beta=beta
            )
            res = propagate(req)
            scores = [dice(res.hard, ph.truth, lab, ph.roi) for lab in ph.labels.ids]
            if prev is not None:
                for s, p in zip(scores, prev):
                    assert s >= p - 1e-12
            prev = scores
        assert min(prev) > 0.99  # high beta recovers the partition


GOLDEN_SPECS = {
    "conflicts_anisotropic": PhantomSpec(
        dims=(12, 10, 9),
        blobs=(
            PhantomBlob((2.5, 3.2, 4.1), 1, 0.1),
            PhantomBlob((8.7, 2.9, 4.6), 2, 0.4),
            PhantomBlob((5.3, 7.8, 2.2), 3, 0.7),
            PhantomBlob((6.1, 5.4, 7.3), 4, 0.9),
        ),
        noise_sigma=0.05, unlabeled_fraction=0.2, conflict_fraction=0.3, seed=7,
        spacing=(0.5, 1.0, 2.0),
    ),
    "duplicate_labels": PhantomSpec(
        dims=(10, 12, 8),
        blobs=(
            PhantomBlob((2.2, 3.1, 3.9), 1, 0.1),
            PhantomBlob((7.4, 2.8, 4.2), 2, 0.3),
            PhantomBlob((4.9, 9.3, 2.6), 1, 0.5),
            PhantomBlob((3.3, 7.7, 5.8), 3, 0.7),
            PhantomBlob((7.9, 8.6, 4.4), 2, 0.9),
        ),
        unlabeled_fraction=0.1, conflict_fraction=0.4, seed=3,
    ),
    "integer_ties_no_kept_centers": PhantomSpec(
        dims=(9, 9, 9),
        blobs=(
            PhantomBlob((2.0, 4.0, 4.0), 1, 0.2),
            PhantomBlob((6.0, 4.0, 4.0), 2, 0.4),
            PhantomBlob((4.0, 2.0, 4.0), 3, 0.6),
            PhantomBlob((4.0, 6.0, 4.0), 4, 0.8),
        ),
        noise_sigma=0.02, conflict_fraction=0.5, keep_blob_centers=False, seed=5,
    ),
    "two_labels_roi": PhantomSpec(
        dims=(8, 8, 8),
        blobs=(PhantomBlob((2.0, 3.5, 3.5), 1, 0.2), PhantomBlob((5.0, 3.5, 3.5), 2, 0.8)),
        roi_semiaxes=(3.0, 2.5, 3.5), unlabeled_fraction=0.3, conflict_fraction=0.3, seed=1,
        spacing=(1.0, 1.0, 1.5),
    ),
}

# sha256 of the raw bytes and the strides of each output; a change here means
# every phantom-based benchmark workload and test input changed too
GOLDEN = {
    "conflicts_anisotropic": {
        "guidance": ("fe04d470a55f3e9b880c6c2a04e3c733c88026d592c156923538e7750c6c2c23", (8, 96, 960)),
        "roi": ("4a8fa5415807fed42ed87b58ecd37192044cbfe547e273e11d2813b6045f047d", (1, 12, 120)),
        "truth": ("ef71e3eca84f9e12f0e9f1d5078d3022e0a912961ae2ea25b6806e55dcb0574e", (2, 24, 240)),
        "masks": ("c8c070ccf7bc5fb5a1a08b17795cc17c5b071fd0a7526eacd2c686a5e8d9b65d", (1080, 1, 12, 120)),
    },
    "duplicate_labels": {
        "guidance": ("149ac9a516eba43648667bc0d1ed7b7481a7d1d1bc75ba673252966de5c755b5", (8, 80, 960)),
        "roi": ("a7a78814ab6e806f65db5d04a50e0bd124c262349b6ac760359c431d2a2e5e98", (1, 10, 120)),
        "truth": ("28dce3d37f8b5176fa5ee0460369d8db356e00588360b22b0834a27d35d09a44", (2, 20, 240)),
        "masks": ("ae1ad48a59c022ac1bb38c264064b29797535c0074b99bbbf5fac83311183835", (960, 1, 10, 120)),
    },
    "integer_ties_no_kept_centers": {
        "guidance": ("fa49032ad7cc6a3e4a28babed0aa093155a74e7ad473af786cad6e5a8ef8e493", (8, 72, 648)),
        "roi": ("7a1215bd2ff21661f375847990dc28c78924d313d70251c0836295ee2a0cb9c0", (1, 9, 81)),
        "truth": ("c57ac57b2cdb83acd7d6d6193fc9ca4aee23ccc4d0ca16750b4c7ec7bd693a40", (2, 18, 162)),
        "masks": ("2b015a3bdb6d6310346e731ca8cc72bb9af768c7eeb71bde495a0a165474fcbb", (729, 1, 9, 81)),
    },
    "two_labels_roi": {
        "guidance": ("fa49825c1b9cac0eb27bbe32500cc5a58661824e683b0b0594e9d217dd5131b1", (8, 64, 512)),
        "roi": ("e14f0cdc3026888c779952530ad408d762c208c4766267fc77c00225daab9353", (1, 8, 64)),
        "truth": ("7fcca06ec622f616bb14ac530b24319c609a1cc36694864185215d151a8f9d2b", (2, 16, 128)),
        "masks": ("86655322d3dd7ec39884417e6dec45223614c85bb5025bb13f114bebc7d32eab", (512, 1, 8, 64)),
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_phantom_bytes_and_strides(name):
    ph = make_phantom(GOLDEN_SPECS[name])
    arrays = {
        "guidance": ph.guidance.data,
        "roi": ph.roi.data,
        "truth": ph.truth.data,
        "masks": ph.annotation.masks,
    }
    for key, (digest, strides) in GOLDEN[name].items():
        assert hashlib.sha256(arrays[key].tobytes()).hexdigest() == digest, key
        assert arrays[key].strides == strides, key


def random_spec(rng):
    """A small valid spec: integer centers (ties) and repeated labels are common."""
    dims = tuple(int(v) for v in rng.integers(1, 12, 3))
    k = int(rng.integers(1, 7))
    blobs = tuple(
        PhantomBlob(
            tuple(float(rng.integers(0, d)) if integer else float(rng.uniform(0, d))
                  for d in dims),
            int(rng.integers(1, k + 1)),
            float(rng.random()),
        )
        for integer in rng.random(k) < 0.4
    )
    unlabeled = float(rng.choice([0.0, rng.random()]))
    two_labels = len({b.label_id for b in blobs}) >= 2
    return PhantomSpec(
        dims=dims,
        blobs=blobs,
        noise_sigma=float(rng.choice([0.0, 0.05])),
        unlabeled_fraction=unlabeled,
        conflict_fraction=float(rng.random() * (1 - unlabeled)) if two_labels else 0.0,
        keep_blob_centers=bool(rng.random() < 0.7),
        seed=int(rng.integers(0, 1000)),
    )


def test_matches_per_voxel_loop_on_random_specs():
    rng = np.random.default_rng(2024)
    n_checked = 0
    while n_checked < 60:
        spec = random_spec(rng)
        try:
            ph = make_phantom(spec)
        except BadSpec:  # an roi with no voxel
            continue
        want = loop_phantom_arrays(spec)
        got = (ph.guidance.data, ph.roi.data, ph.truth.data, ph.annotation.masks)
        for name, g, w in zip(("guidance", "roi", "truth", "masks"), got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), (name, spec)
        n_checked += 1
