"""The benchmark's four workloads.

Every workload uses the 13-blob layout of the acceptance suite
(``tests/test_acceptance.py``), beta 1e4, and takes the phantom RNG seed
from the benchmark's ``--seed``. Each runs as a closed loop: one client,
one operation at a time. WORKLOADS.md says why each was chosen.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import checks
import niftiio
from spans import now

HERE = Path(__file__).resolve().parent
ENTRY = HERE / "cli_entry.py"

BETA = 10_000.0

BLOB_CENTERS = (
    (45.1, 43.6, 49.2), (29.6, 38.7, 52.5), (38.9, 71.2, 29.3),
    (45.4, 26.0, 30.4), (25.8, 45.8, 17.1), (46.6, 39.9, 21.8),
    (29.0, 27.5, 27.6), (27.5, 70.6, 16.0), (15.3, 62.1, 29.4),
    (25.8, 71.7, 46.8), (46.6, 63.5, 43.5), (33.5, 55.6, 49.7),
    (10.8, 38.4, 33.9),
)
BLOB_INTENSITIES = (
    0.05, 0.275, 0.425, 0.65, 0.2, 0.575, 0.35,
    0.8, 0.125, 0.875, 0.725, 0.5, 0.95,
)
NUCLEI = ("AN", "CL", "CM", "LD", "LP", "MD", "PuA",
          "PuI", "VA", "VLA", "VLP", "VPL", "VPM")
LABEL_IDS = tuple(range(1, 14))


def phantom_spec(seed, *, scale=1, shift=0, unlabeled=0.3, conflict=0.2) -> dict:
    """Acceptance phantom spec (as JSON data), scaled by an integer factor."""
    intensities = np.roll(BLOB_INTENSITIES, shift)
    return {
        "dims": [64 * scale, 96 * scale, 64 * scale],
        "blobs": [
            {"center": [c * scale for c in center], "label_id": k + 1,
             "intensity": float(intensities[k])}
            for k, center in enumerate(BLOB_CENTERS)
        ],
        "noise_sigma": 0.01,
        "unlabeled_fraction": unlabeled,
        "conflict_fraction": conflict,
        "seed": int(seed),
        "label_names": {str(k + 1): NUCLEI[k] for k in range(13)},
    }


class PeakRss:
    """Peak resident set size of this process while active, in bytes.

    A second thread samples /proc/self/statm every ``INTERVAL`` seconds, so
    a spike shorter than that can be missed.
    """

    INTERVAL = 0.002

    def __enter__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self.peak = self._rss()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _rss(self) -> int:
        return int(os.pread(self._fd, 128, 0).split()[1]) * self._page

    def _sample(self):
        while not self._stop.wait(self.INTERVAL):
            self.peak = max(self.peak, self._rss())

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self._rss())
        os.close(self._fd)


class Workload:
    """Inputs, one operation, and its output check.

    ``setup_once`` builds the inputs and returns the timed pieces of that
    set-up; ``derive``, called once after the last set-up, prepares the
    operation and the check inputs; ``reference_inputs`` lists one (guidance, mask, seeds) triple per
    propagation the operation produces; ``operate`` runs one operation and
    returns (output, peak RSS bytes); ``check`` judges an output.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path, env: dict):
        self.seed = seed
        self.workdir = workdir
        self.env = env

    def import_seconds(self) -> float:
        """Interpreter start plus ``import voxprop`` in a fresh process."""
        t0 = now()
        subprocess.run([sys.executable, "-c", "import voxprop"], env=self.env, check=True,
                       stdout=subprocess.DEVNULL)
        return now() - t0

    def release(self, out) -> None:
        """Drop what one operation left behind."""


class LibraryWorkload(Workload):
    """``propagate(workers=1)`` on an in-memory phantom."""

    spec_kw: dict = {}

    def setup_once(self, rec):
        import voxprop.phantom as vphantom

        pieces = {"import_s": self.import_seconds()}
        spec = vphantom.PhantomSpec.from_dict(phantom_spec(self.seed, **self.spec_kw))
        self.ph = None  # free the previous phantom before making the next
        t0 = now()
        self.ph = vphantom.make_phantom(spec)
        t1 = now()
        if rec is not None:
            rec.add("phantom.make_phantom", t0, t1)
        pieces["generate_s"] = t1 - t0
        return pieces

    def prepare(self):
        from voxprop.propagate import PropagationRequest

        self.region = self.ph.roi.data
        self.req = PropagationRequest(
            guidance=self.ph.guidance, roi=self.ph.roi,
            annotation=self.ph.annotation, beta=BETA,
        )

    def derive(self):
        """Requests plus the check inputs: roi nodes, seeds, truth, evaluation mask."""
        self.prepare()
        masks = self.req.annotation.masks
        self.grid = checks.Grid(self.ph.roi.data)
        self.seeds = checks.seed_grid(masks, LABEL_IDS, self.region)
        self.truth_n = self.grid.nodes(self.ph.truth.data)
        self.eval_n = self.grid.nodes(masks.sum(axis=0) <= 1)

    def reference_inputs(self):
        return [(self.ph.guidance.data, self.region, self.seeds)]

    def call(self):
        return sys.modules["voxprop.propagate"].propagate(self.req, workers=1)

    def operate(self, k, rec):
        with PeakRss() as rss:
            out = self.call()
        return out, rss.peak

    def check(self, out, refs) -> checks.Result:
        res = checks.Result()
        soft = np.stack([self.grid.nodes(v.data) for v in out.soft])
        (voxels, values), = refs
        checks.check_propagation(
            res, self.name, soft, out.hard.data, grid=self.grid, ids=LABEL_IDS,
            seeds=self.seeds, truth=self.ph.truth.data, ref_voxels=voxels, ref_values=values,
        )
        hard_n = self.grid.nodes(out.hard.data)
        res.dice_overall = checks.dice_overall(
            hard_n[self.eval_n], self.truth_n[self.eval_n], LABEL_IDS
        )
        return res


class SparseSeeds(LibraryWorkload):
    name = "sparse-seeds"
    spec_kw = {"unlabeled": 0.99, "conflict": 0.0}


class LargeDense(LibraryWorkload):
    name = "large-dense"
    spec_kw = {"scale": 2, "unlabeled": 0.05, "conflict": 0.05}


class Bilateral(LibraryWorkload):
    """``propagate_bilateral`` with a gap slab and a seedless end cap per half.

    The roi is split at the x mid-plane by a two-voxel gap slab. In each
    half the outermost ``CAP`` x-planes of the roi are cut off by a
    one-voxel gap and their annotation is cleared, so each half has a
    seedless component.
    """

    name = "bilateral"
    CAP = 4

    def prepare(self):
        from voxprop.propagate import PropagationRequest
        from voxprop.volume import MultiLabelAnnotation, Volume3D

        ph = self.ph
        roi = ph.roi.data
        nx = roi.shape[0]
        x = np.arange(nx)[:, None, None]
        xs = np.flatnonzero(roi.any(axis=(1, 2)))
        lo, hi = int(xs.min()) + self.CAP, int(xs.max()) - self.CAP
        mid = nx // 2
        left = roi & (x < mid - 1) & (x != lo)
        right = roi & (x > mid) & (x != hi)
        caps = roi & ((x < lo) | (x > hi))
        masks = ph.annotation.masks & ~caps
        annotation = MultiLabelAnnotation(ph.labels, masks, ph.roi.spacing)
        self.region = left | right
        self.hemispheres = (
            Volume3D(left, "mask", ph.roi.spacing), Volume3D(right, "mask", ph.roi.spacing)
        )
        self.req = PropagationRequest(
            guidance=ph.guidance, roi=ph.roi, annotation=annotation, beta=BETA,
        )

    def call(self):
        return sys.modules["voxprop.propagate"].propagate_bilateral(
            self.req, self.hemispheres, workers=1
        )


class CliPipeline(Workload):
    """Two ``voxprop propagate --soft`` runs, then ``fuse`` and ``evaluate``.

    Each command is its own process with default threads. The two
    propagations differ in guidance contrast (blob intensities rolled by
    0 and 1); roi, annotation and truth are shared.
    """

    name = "cli-pipeline"
    SHIFTS = (0, 1)

    def _cli(self, rec, name, argv, where: Path):
        """Run one voxprop command; returns (peak RSS bytes, stdout)."""
        env = dict(self.env)
        spans_file = where / f"{name}.spans.json"
        if rec is not None:
            env["PERFBENCH_SPANS"] = str(spans_file)
        out_path, err_path = where / f"{name}.out", where / f"{name}.err"
        with open(out_path, "w") as fo, open(err_path, "w") as fe:
            t0 = now()
            env["PERFBENCH_SPAWN"] = repr(t0)
            proc = subprocess.Popen(
                [sys.executable, str(ENTRY), *argv], stdout=fo, stderr=fe, env=env
            )
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if rec is not None:
            sid = rec.add(f"cli.{name}", t0, t1)
            if spans_file.exists():
                with open(spans_file) as fp:
                    rec.adopt(json.load(fp), sid)
        if proc.returncode != 0:
            tail = err_path.read_text()[-500:]
            raise RuntimeError(f"voxprop {name} exited with {proc.returncode}: {tail}")
        return usage.ru_maxrss * 1024, out_path.read_text()

    def setup_once(self, rec):
        t0 = now()
        for shift in self.SHIFTS:
            d = self.workdir / f"in{shift}"
            d.mkdir(parents=True, exist_ok=True)
            spec = d / "spec.json"
            spec.write_text(json.dumps(phantom_spec(self.seed, shift=shift)))
            self._cli(rec, "phantom", ["phantom", "--spec", str(spec), "--seed",
                                       str(self.seed), "--out", str(d)], d)
        return {"generate_s": now() - t0}

    def derive(self):
        d = self.workdir / "in0"
        self.names = [line.split("\t")[1] for line in
                      (d / "labels.tsv").read_text().splitlines() if line and line[0] != "#"]
        self.annot_files = [str(d / f"annot_{n}.nii") for n in self.names]
        self.roi = niftiio.read(d / "roi.nii") != 0
        self.grid = checks.Grid(self.roi)
        self.truth = niftiio.read(d / "truth.nii")
        masks = np.stack([niftiio.read(p) != 0 for p in self.annot_files])
        self.seeds = checks.seed_grid(masks, LABEL_IDS, self.roi)
        self.eval_n = self.grid.nodes(masks.sum(axis=0) <= 1)
        self.guidance = [niftiio.read(self.workdir / f"in{s}" / "guidance.nii") for s in self.SHIFTS]

    def reference_inputs(self):
        return [(g, self.roi, self.seeds) for g in self.guidance]

    def operate(self, k, rec):
        d0 = self.workdir / "in0"
        op = self.workdir / f"op{k}"
        op.mkdir()
        common = ["--roi", str(d0 / "roi.nii"), "--labels", str(d0 / "labels.tsv")]
        peaks = []
        for shift in self.SHIFTS:
            peaks.append(self._cli(rec, "propagate", [
                "propagate", "--guidance", str(self.workdir / f"in{shift}" / "guidance.nii"),
                *common, "--annotation", *self.annot_files, "--beta", repr(BETA),
                "--out", str(op / f"run{shift}"), "--soft",
            ], op)[0])
        peaks.append(self._cli(rec, "fuse", [
            "fuse", "--in", *[str(op / f"run{s}" / "hard.nii") for s in self.SHIFTS],
            "--roi", str(d0 / "roi.nii"), "--out", str(op / "fused.nii"),
        ], op)[0])
        peak, stdout = self._cli(rec, "evaluate", [
            "evaluate", "--pred", str(op / "fused.nii"), "--target", str(d0 / "truth.nii"),
            *common, "--annotation", *self.annot_files, "--out", str(op / "eval" / "report.json"),
        ], op)
        peaks.append(peak)
        op.joinpath("evaluate.overall").write_text(stdout)
        return op, max(peaks)

    def check(self, op, refs) -> checks.Result:
        res = checks.Result()
        for shift, (voxels, values) in zip(self.SHIFTS, refs):
            run = op / f"run{shift}"
            soft = np.stack([self.grid.nodes(niftiio.read(run / f"prob_{n}.nii"))
                             for n in self.names])
            checks.check_propagation(
                res, f"propagate[{shift}]", soft, niftiio.read(run / "hard.nii"),
                grid=self.grid, ids=LABEL_IDS, seeds=self.seeds, truth=self.truth,
                ref_voxels=voxels, ref_values=values, argmax_tol=checks.ROWSUM_TOL,
            )
        fused = self.grid.nodes(niftiio.read(op / "fused.nii"))
        truth = self.grid.nodes(self.truth)
        checks.check_dice(res, "fuse", fused, truth, LABEL_IDS)
        res.dice_overall = checks.dice_overall(fused[self.eval_n], truth[self.eval_n], LABEL_IDS)
        reported = json.loads((op / "eval" / "report.json").read_text())["overall"]
        printed = float(op.joinpath("evaluate.overall").read_text().split()[-1])
        if abs(reported - res.dice_overall) > 1e-9 or abs(printed - res.dice_overall) > 1e-6:
            res.problems.append(
                f"evaluate: overall Dice {reported} (printed {printed}) != {res.dice_overall}"
            )
        return res

    def release(self, op):
        shutil.rmtree(op, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CliPipeline, SparseSeeds, LargeDense, Bilateral)}
