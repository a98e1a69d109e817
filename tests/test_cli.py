import importlib
import json
import os
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from voxprop import (
    LabelSet,
    PropagationRequest,
    Volume3D,
    dirichlet,
    nifti,
    propagate,
    read_annotation,
    read_labelset,
    read_volume,
    write_labelset,
    write_volume,
)
from voxprop.cli import main
from voxprop.nifti import DATA_OFFSET
from voxprop.phantom import PhantomSpec, make_phantom


LABELS = LabelSet(((1, "left"), (2, "right")))

SPEC_JSON = {
    "dims": [14, 14, 14],
    "blobs": [
        {"center": [4, 7, 7], "label_id": 1, "intensity": 0.2},
        {"center": [10, 7, 7], "label_id": 2, "intensity": 0.8},
    ],
    "noise_sigma": 0.01,
    "unlabeled_fraction": 0.4,
    "conflict_fraction": 0.2,
    "seed": 9,
    "label_names": {"1": "left", "2": "right"},
}


@pytest.fixture
def phantom_files(tmp_path):
    """Phantom inputs written as NIfTI + labelset, ready for the CLI."""
    spec = PhantomSpec.from_dict(SPEC_JSON)
    ph = make_phantom(spec)
    paths = {
        "guidance": tmp_path / "guidance.nii",
        "roi": tmp_path / "roi.nii",
        "truth": tmp_path / "truth.nii",
        "labels": tmp_path / "labels.tsv",
    }
    write_volume(ph.guidance, paths["guidance"])
    write_volume(ph.roi, paths["roi"])
    write_volume(ph.truth, paths["truth"])
    write_labelset(ph.labels, paths["labels"])
    ann_paths = []
    for k, name in enumerate(ph.labels.names):
        p = tmp_path / f"annot_{name}.nii"
        write_volume(ph.roi.with_data(ph.annotation.masks[k], "mask"), p)
        ann_paths.append(p)
    paths["annotation"] = ann_paths
    paths["phantom"] = ph
    return paths


def run(argv):
    return main([str(a) for a in argv])


class TestPropagateCommand:
    def test_happy_path(self, tmp_path, phantom_files, capsys):
        out = tmp_path / "out"
        code = run(
            [
                "propagate",
                "--guidance", phantom_files["guidance"],
                "--roi", phantom_files["roi"],
                "--labels", phantom_files["labels"],
                "--annotation", *phantom_files["annotation"],
                "--out", out,
            ]
        )
        assert code == 0
        assert (out / "hard.nii").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["n_seeds"] > 0
        assert not (out / "prob_left.nii").exists()  # --soft not passed
        hard = read_volume(out / "hard.nii", "label")
        ph = phantom_files["phantom"]
        inside = ph.roi.data
        agree = (hard.data[inside] == ph.truth.data[inside]).mean()
        assert agree > 0.95

    def test_failed_island_factor_exits_3(self, tmp_path, phantom_files, monkeypatch, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("no room for the factor")

        monkeypatch.setattr(dirichlet, "DIRECT_BLOCK_LIMIT", 0)
        monkeypatch.setattr(dirichlet, "splu", out_of_memory)
        code = run(
            [
                "propagate",
                "--guidance", phantom_files["guidance"],
                "--roi", phantom_files["roi"],
                "--labels", phantom_files["labels"],
                "--annotation", *phantom_files["annotation"],
                "--out", tmp_path / "out",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: sparse LU of the ") and "MemoryError" in err

    def test_soft_outputs(self, tmp_path, phantom_files):
        out = tmp_path / "out"
        code = run(
            [
                "propagate",
                "--guidance", phantom_files["guidance"],
                "--roi", phantom_files["roi"],
                "--labels", phantom_files["labels"],
                "--annotation", *phantom_files["annotation"],
                "--out", out,
                "--soft",
            ]
        )
        assert code == 0
        left = read_volume(out / "prob_left.nii", "probability")
        right = read_volume(out / "prob_right.nii", "probability")
        inside = phantom_files["phantom"].roi.data
        sums = left.data[inside] + right.data[inside]
        assert np.abs(sums - 1.0).max() < 1e-5  # float32 file round-off

    def _propagate_soft_argv(self, phantom_files, out):
        return [
            "propagate",
            "--guidance", phantom_files["guidance"],
            "--roi", phantom_files["roi"],
            "--labels", phantom_files["labels"],
            "--annotation", *phantom_files["annotation"],
            "--out", out,
            "--soft",
        ]

    def test_soft_files_hold_the_library_soft_volumes(self, tmp_path, phantom_files):
        out = tmp_path / "out"
        assert run(self._propagate_soft_argv(phantom_files, out)) == 0
        labels = read_labelset(phantom_files["labels"])
        res = propagate(PropagationRequest(
            guidance=read_volume(phantom_files["guidance"], "intensity"),
            roi=read_volume(phantom_files["roi"], "mask"),
            annotation=read_annotation(phantom_files["annotation"], labels),
        ))
        for name, vol in zip(labels.names, res.soft):
            payload = (out / f"prob_{name}.nii").read_bytes()[DATA_OFFSET:]
            assert payload == vol.data.astype("<f4").tobytes(order="F")  # float32 on disk
        assert read_volume(out / "hard.nii", "label").data.tobytes() == res.hard.data.tobytes()
        assert json.loads((out / "report.json").read_text()) == res.report

    def test_soft_volumes_are_written_one_at_a_time(self, tmp_path, phantom_files, monkeypatch):
        # each probability volume must be gone before the next is written
        write, written = nifti.write_volume, []

        def checked_write(vol, path):
            if vol.kind == "probability":
                assert all(ref() is None for ref in written), "two soft volumes alive at once"
                written.append(weakref.ref(vol))
            write(vol, path)

        monkeypatch.setattr(nifti, "write_volume", checked_write)
        assert run(self._propagate_soft_argv(phantom_files, tmp_path / "out")) == 0
        assert len(written) == len(LABELS)

    def test_missing_roi_flag_exits_2(self, tmp_path, phantom_files, capsys):
        code = run(
            [
                "propagate",
                "--guidance", phantom_files["guidance"],
                "--labels", phantom_files["labels"],
                "--annotation", *phantom_files["annotation"],
                "--out", tmp_path / "out",
            ]
        )
        assert code == 2

    def test_duplicate_label_names_exit_2_before_writing(self, tmp_path, phantom_files, capsys):
        labels = tmp_path / "dup.tsv"
        labels.write_text("1\tsame\n2\tsame\n")
        out = tmp_path / "out"
        code = run(
            [
                "propagate",
                "--guidance", phantom_files["guidance"],
                "--roi", phantom_files["roi"],
                "--labels", labels,
                "--annotation", *phantom_files["annotation"],
                "--out", out,
                "--soft",
            ]
        )
        assert code == 2
        assert "duplicate label names" in capsys.readouterr().err
        assert not out.exists()

    def test_path_in_label_name_exits_2_before_writing(self, tmp_path, phantom_files, capsys):
        labels = tmp_path / "bad.tsv"
        labels.write_text("1\t../escaped_left\n2\tright\n")
        out = tmp_path / "out"
        code = run(
            [
                "propagate",
                "--guidance", phantom_files["guidance"],
                "--roi", phantom_files["roi"],
                "--labels", labels,
                "--annotation", *phantom_files["annotation"],
                "--out", out,
                "--soft",
            ]
        )
        assert code == 2
        assert "label name" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_beta_exits_2(self, tmp_path, phantom_files, capsys):
        code = run(
            [
                "propagate",
                "--guidance", phantom_files["guidance"],
                "--roi", phantom_files["roi"],
                "--labels", phantom_files["labels"],
                "--annotation", *phantom_files["annotation"],
                "--out", tmp_path / "out",
                "--beta", "nan",
            ]
        )
        assert code == 2
        assert "beta is nan" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "tol, message",
        [("inf", "rel_tol is inf"), ("0", "rel_tol must be > 0"), ("-1e-8", "rel_tol must be > 0")],
        ids=["inf", "zero", "negative"],
    )
    def test_infinite_tol_exits_2_before_any_solve(
        self, tmp_path, phantom_files, capsys, monkeypatch, tol, message
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_all ran")

        monkeypatch.setattr(importlib.import_module("voxprop.propagate"), "solve_all", no_solve)
        code = run(
            [
                "propagate",
                "--guidance", phantom_files["guidance"],
                "--roi", phantom_files["roi"],
                "--labels", phantom_files["labels"],
                "--annotation", *phantom_files["annotation"],
                "--out", tmp_path / "out",
                f"--tol={tol}",  # "--tol -1e-8" would parse -1e-8 as a flag
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_policy_error_on_seedless_island_exits_3(self, tmp_path, capsys):
        # roi bar plus island; seeds only in the bar
        dims = (6, 1, 1)
        roi = np.zeros(dims, bool)
        roi[0:3] = roi[5] = True
        guidance = Volume3D(np.zeros(dims), "intensity")
        seeds1 = np.zeros(dims, bool)
        seeds1[0] = True
        seeds2 = np.zeros(dims, bool)
        seeds2[2] = True
        write_volume(guidance, tmp_path / "g.nii")
        write_volume(Volume3D(roi, "mask"), tmp_path / "r.nii")
        write_volume(Volume3D(seeds1, "mask"), tmp_path / "a1.nii")
        write_volume(Volume3D(seeds2, "mask"), tmp_path / "a2.nii")
        write_labelset(LABELS, tmp_path / "labels.tsv")
        code = run(
            [
                "propagate",
                "--guidance", tmp_path / "g.nii",
                "--roi", tmp_path / "r.nii",
                "--labels", tmp_path / "labels.tsv",
                "--annotation", tmp_path / "a1.nii", tmp_path / "a2.nii",
                "--out", tmp_path / "out",
                "--policy", "error",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "1" in err  # component id named in the message


class TestFuseCommand:
    def _write_maps(self, tmp_path, arrays):
        paths = []
        for k, arr in enumerate(arrays):
            p = tmp_path / f"map{k}.nii"
            write_volume(Volume3D(arr.astype(np.uint16), "label"), p)
            paths.append(p)
        return paths

    def test_fuse_majority(self, tmp_path):
        dims = (2, 2, 1)
        a = np.full(dims, 1)
        b = np.full(dims, 1)
        c = np.full(dims, 2)
        paths = self._write_maps(tmp_path, [a, b, c])
        write_volume(Volume3D(np.ones(dims, bool), "mask"), tmp_path / "roi.nii")
        out = tmp_path / "fused.nii"
        code = run(["fuse", "--in", *paths, "--roi", tmp_path / "roi.nii", "--out", out])
        assert code == 0
        assert (read_volume(out, "label").data == 1).all()

    def test_single_input_exits_2(self, tmp_path):
        paths = self._write_maps(tmp_path, [np.zeros((2, 2, 2))])
        write_volume(Volume3D(np.ones((2, 2, 2), bool), "mask"), tmp_path / "roi.nii")
        code = run(
            ["fuse", "--in", paths[0], "--roi", tmp_path / "roi.nii", "--out", tmp_path / "f.nii"]
        )
        assert code == 2

    def test_identical_inputs_identity(self, tmp_path, rng):
        dims = (3, 3, 2)
        arr = rng.integers(0, 3, size=dims)
        paths = self._write_maps(tmp_path, [arr, arr, arr])
        write_volume(Volume3D(np.ones(dims, bool), "mask"), tmp_path / "roi.nii")
        out = tmp_path / "fused.nii"
        code = run(["fuse", "--in", *paths, "--roi", tmp_path / "roi.nii", "--out", out])
        assert code == 0
        assert np.array_equal(read_volume(out, "label").data, arr.astype(np.uint16))

    def test_dim_mismatch_exits_2(self, tmp_path):
        paths = self._write_maps(tmp_path, [np.zeros((2, 2, 2)), np.zeros((3, 2, 2))])
        write_volume(Volume3D(np.ones((2, 2, 2), bool), "mask"), tmp_path / "roi.nii")
        code = run(
            ["fuse", "--in", *paths, "--roi", tmp_path / "roi.nii", "--out", tmp_path / "f.nii"]
        )
        assert code == 2


class TestEvaluateCommand:
    def test_identity_prints_one(self, tmp_path, phantom_files, capsys):
        out = tmp_path / "report.json"
        code = run(
            [
                "evaluate",
                "--pred", phantom_files["truth"],
                "--target", phantom_files["truth"],
                "--labels", phantom_files["labels"],
                "--roi", phantom_files["roi"],
                "--out", out,
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.000000"
        report = json.loads(out.read_text())
        assert report["overall"] == 1.0
        assert out.with_suffix(".txt").exists()

    def test_annotation_exclusion_counted(self, tmp_path, phantom_files):
        out = tmp_path / "report.json"
        code = run(
            [
                "evaluate",
                "--pred", phantom_files["truth"],
                "--target", phantom_files["truth"],
                "--labels", phantom_files["labels"],
                "--roi", phantom_files["roi"],
                "--annotation", *phantom_files["annotation"],
                "--out", out,
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["excluded_voxels"] > 0  # the phantom has conflicts

    def test_dim_mismatch_exits_2(self, tmp_path, phantom_files):
        other = tmp_path / "small.nii"
        write_volume(Volume3D(np.zeros((2, 2, 2), np.uint16), "label"), other)
        code = run(
            [
                "evaluate",
                "--pred", other,
                "--target", phantom_files["truth"],
                "--labels", phantom_files["labels"],
                "--roi", phantom_files["roi"],
                "--out", tmp_path / "r.json",
            ]
        )
        assert code == 2

    def test_txt_out_exits_2_before_writing(self, tmp_path, phantom_files, capsys):
        # the .txt twin of report.txt is report.txt: the JSON report would be lost
        out = tmp_path / "eval" / "report.txt"
        code = run(
            [
                "evaluate",
                "--pred", phantom_files["truth"],
                "--target", phantom_files["truth"],
                "--labels", phantom_files["labels"],
                "--roi", phantom_files["roi"],
                "--out", out,
            ]
        )
        assert code == 2
        assert ".txt" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_path_in_label_name_exits_2_before_writing(self, tmp_path, phantom_files, capsys):
        labels = tmp_path / "bad.tsv"
        labels.write_text("1\t../escaped_left\n2\tright\n")
        out = tmp_path / "eval" / "report.json"
        code = run(
            [
                "evaluate",
                "--pred", phantom_files["truth"],
                "--target", phantom_files["truth"],
                "--labels", labels,
                "--roi", phantom_files["roi"],
                "--out", out,
            ]
        )
        assert code == 2
        assert "label name" in capsys.readouterr().err
        assert not out.parent.exists()


class TestPhantomCommand:
    def test_deterministic_outputs(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_JSON))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run(["phantom", "--spec", spec_path, "--seed", "9", "--out", out])
            assert code == 0
            outs.append(out)
        for fname in ("guidance.nii", "roi.nii", "truth.nii", "annot_left.nii"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_blob_count_masks_emitted(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_JSON))
        out = tmp_path / "out"
        assert run(["phantom", "--spec", spec_path, "--out", out]) == 0
        masks = sorted(p.name for p in out.glob("annot_*.nii"))
        assert masks == ["annot_left.nii", "annot_right.nii"]
        assert (out / "labels.tsv").exists()

    def test_thirteen_blobs_emit_thirteen_masks(self, tmp_path):
        rng = np.random.default_rng(0)
        blobs = []
        taken = []
        while len(blobs) < 13:
            c = rng.uniform(8, 40, size=3)
            if all(np.linalg.norm(c - np.asarray(t)) >= 9 for t in taken):
                taken.append(tuple(c))
                blobs.append(
                    {
                        "center": [float(v) for v in c],
                        "label_id": len(blobs) + 1,
                        "intensity": float((len(blobs) + 0.5) / 13),
                    }
                )
        spec = {"dims": [48, 48, 48], "blobs": blobs, "seed": 1}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert run(["phantom", "--spec", spec_path, "--out", out]) == 0
        assert len(list(out.glob("annot_*.nii"))) == 13

    def test_conflict_fraction_approx(self, tmp_path):
        spec = dict(SPEC_JSON)
        spec["dims"] = [28, 28, 28]
        spec["blobs"] = [
            {"center": [8, 14, 14], "label_id": 1, "intensity": 0.2},
            {"center": [20, 14, 14], "label_id": 2, "intensity": 0.8},
        ]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert run(["phantom", "--spec", spec_path, "--out", out]) == 0
        left = read_volume(out / "annot_left.nii", "mask").data
        right = read_volume(out / "annot_right.nii", "mask").data
        truth = read_volume(out / "truth.nii", "label").data
        n_labeled = int((truth > 0).sum())
        n_conflict = int((left & right).sum())
        assert n_conflict / n_labeled == pytest.approx(0.2, abs=0.01)

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        # not JSON; a blob centre that is not numeric; label names as a list;
        # fractional dims, label id or seed; a flag given as a string; a
        # spacing that the header's float32 holds as inf or 0
        blob = SPEC_JSON["blobs"][0]
        bad_center = dict(SPEC_JSON, blobs=[dict(blob, center=["a", 2, 2])])
        bad_label = dict(SPEC_JSON, blobs=[dict(blob, label_id=1.9), SPEC_JSON["blobs"][1]])
        for text in ("{broken", json.dumps(bad_center),
                     json.dumps(dict(SPEC_JSON, label_names=["x"])),
                     json.dumps(dict(SPEC_JSON, dims=[14.7, 14, 14])),
                     json.dumps(bad_label),
                     json.dumps(dict(SPEC_JSON, seed=1.5)),
                     json.dumps(dict(SPEC_JSON, keep_blob_centers="false")),
                     json.dumps(dict(SPEC_JSON, spacing=[1e39, 1, 1])),
                     json.dumps(dict(SPEC_JSON, spacing=[1, 1e-50, 1]))):
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(text)
            assert run(["phantom", "--spec", spec_path, "--out", tmp_path / "o"]) == 2
            assert capsys.readouterr().err.startswith("error:")
            assert not list(tmp_path.glob("o/*.nii"))

    def test_center_near_upper_edge_exits_0(self, tmp_path):
        spec = {
            "dims": [8, 5, 5],
            "blobs": [
                {"center": [7.6, 2, 2], "label_id": 1, "intensity": 0.2},
                {"center": [1, 2, 2], "label_id": 2, "intensity": 0.8},
            ],
            "roi_semiaxes": [8, 3, 3],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert run(["phantom", "--spec", spec_path, "--out", out]) == 0
        assert read_volume(out / "annot_blob1.nii", "mask").data[7, 2, 2]

    def test_duplicate_label_names_exit_2(self, tmp_path, capsys):
        spec = dict(SPEC_JSON, label_names={"1": "same", "2": "same"})
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert run(["phantom", "--spec", spec_path, "--out", out]) == 2
        assert "duplicate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["VL#2", " AN", "../escaped_AN", ""])
    def test_malformed_label_name_exits_2(self, tmp_path, capsys, name):
        spec = dict(SPEC_JSON, label_names={"1": name, "2": "right"})
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert run(["phantom", "--spec", spec_path, "--out", out]) == 2
        assert "label name" in capsys.readouterr().err
        assert not out.exists()


class TestInfoCommand:
    def test_label_histogram(self, tmp_path, capsys):
        vol = Volume3D(np.array([0, 1, 1, 3]).reshape(4, 1, 1).astype(np.uint16), "label")
        path = tmp_path / "v.nii"
        write_volume(vol, path)
        assert run(["info", "--in", path]) == 0
        out = capsys.readouterr().out
        assert "4 x 1 x 1" in out
        assert "2 voxels" in out  # label 1 occurs twice

    def test_intensity_summary(self, tmp_path, capsys):
        vol = Volume3D(np.linspace(0, 1, 8).reshape(2, 2, 2), "intensity")
        path = tmp_path / "v.nii"
        write_volume(vol, path)
        assert run(["info", "--in", path]) == 0
        out = capsys.readouterr().out
        assert "datatype: 16" in out

    def test_bad_magic_exits_2(self, tmp_path, capsys):
        path = tmp_path / "v.nii"
        path.write_bytes(b"\x00" * 400)
        assert run(["info", "--in", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["info", "--in", tmp_path / "nope.nii"]) == 2

    # vox_offset inf / NaN / fractional, scl_slope NaN, pixdim[1] NaN / negative
    @pytest.mark.parametrize(
        "offset, value",
        [(108, float("inf")), (108, float("nan")), (108, 352.5), (112, float("nan")),
         (80, float("nan")), (80, -1.0)],
    )
    def test_corrupt_header_field_exits_2(self, tmp_path, capsys, offset, value):
        vol = Volume3D(np.linspace(0, 1, 8).reshape(2, 2, 2), "intensity")
        path = tmp_path / "v.nii"
        write_volume(vol, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, offset, value)
        path.write_bytes(bytes(raw))
        assert run(["info", "--in", path]) == 2
        assert "error" in capsys.readouterr().err


def test_commands_without_a_solve_do_not_import_scipy(tmp_path, phantom_files):
    """fuse, evaluate, info and phantom need numpy alone; `from voxprop import
    propagate` still gives the function once the submodule is loaded."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC_JSON))
    f = {k: str(v) for k, v in phantom_files.items() if k not in ("annotation", "phantom")}
    annotation = [str(p) for p in phantom_files["annotation"]]
    commands = [
        ["fuse", "--in", f["truth"], f["truth"], "--roi", f["roi"],
         "--out", str(tmp_path / "fused.nii")],
        ["evaluate", "--pred", f["truth"], "--target", f["truth"], "--labels", f["labels"],
         "--roi", f["roi"], "--annotation", *annotation, "--out", str(tmp_path / "e.json")],
        ["info", "--in", f["guidance"]],
        ["phantom", "--spec", str(spec), "--out", str(tmp_path / "ph")],
    ]
    code = f"""
import sys
from voxprop.cli import main
for argv in {commands!r}:
    assert main(argv) == 0, argv
assert "scipy" not in sys.modules, "scipy was imported"
import voxprop.propagate
from voxprop import propagate
assert callable(propagate), propagate
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
