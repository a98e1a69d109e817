"""Tests of the benchmark itself (not of voxprop).

    python3 -m pytest perfbench/tests -q

The traced-run test runs the benchmark twice (about two minutes).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from helpers import blobby_field, brute_force_edges, dense_dirichlet  # noqa: E402


def _env():
    import os

    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


# --- generated inputs -----------------------------------------------------------

def _library_inputs(cls, seed, tmp_path):
    wl = cls(seed, tmp_path, _env())
    wl.setup_once(None)
    wl.derive()
    return [wl.req.guidance.data, wl.req.roi.data, wl.req.annotation.masks,
            wl.ph.truth.data, wl.region]


@pytest.mark.parametrize("cls", [workloads.SparseSeeds, workloads.Bilateral])
def test_library_inputs_repeat_per_seed_and_differ_across_seeds(cls, tmp_path):
    a = _library_inputs(cls, 5, tmp_path)
    b = _library_inputs(cls, 5, tmp_path)
    c = _library_inputs(cls, 6, tmp_path)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])  # guidance noise
    assert not np.array_equal(a[2], c[2])  # annotation corruption


def test_cli_inputs_repeat_per_seed_and_differ_across_seeds(tmp_path):
    def files(seed, where):
        wl = workloads.CliPipeline(seed, where, _env())
        wl.setup_once(None)
        return {p.relative_to(where): p.read_bytes()
                for p in sorted(where.rglob("*.nii"))}

    a = files(5, tmp_path / "a")
    b = files(5, tmp_path / "b")
    c = files(6, tmp_path / "c")
    assert a.keys() == b.keys() == c.keys() and len(a) == 2 * 16
    assert a == b
    assert a[Path("in0/guidance.nii")] != c[Path("in0/guidance.nii")]
    assert a[Path("in0/guidance.nii")] != a[Path("in1/guidance.nii")]
    assert a[Path("in0/annot_AN.nii")] == a[Path("in1/annot_AN.nii")]


def test_blob_layout_is_the_acceptance_suite_layout():
    import test_acceptance as acc

    assert workloads.BLOB_CENTERS == acc.BLOB_CENTERS
    assert workloads.BLOB_INTENSITIES == acc.BLOB_INTENSITIES
    assert workloads.NUCLEI == acc.NUCLEI


# --- reference solver -------------------------------------------------------------

def _random_case(rng):
    """A small lattice drawn like the acceptance suite's oracle cases.

    beta=1e4 gets a full roi over a piecewise-constant field with a seed in
    every blob: an unseeded blob joined to the rest only by floored weights
    is quasi-singular, and no double-precision solve is accurate there.
    """
    dims = tuple(int(d) for d in rng.integers(2, 8, size=3))
    beta = float(rng.choice([0.0, 1.0, 1e4]))
    if beta == 1e4:
        intensity, blob = blobby_field(dims, int(rng.integers(2, 4)), rng, sigma=0.005)
        mask = np.ones(dims, dtype=bool)
    else:
        intensity, blob = rng.random(dims), np.zeros(dims, dtype=int)
        mask = rng.random(dims) < 0.8
        mask.ravel()[0] = True
    n, node_of, edges = brute_force_edges(mask, intensity, beta)
    n_labels = int(rng.integers(2, 5))
    seeds = np.zeros(dims, dtype=np.uint16)
    voxels = list(node_of)
    for v in rng.choice(n, size=max(2, n // 8), replace=False):
        seeds[voxels[v]] = rng.integers(1, n_labels + 1)
    for b in np.unique(blob[mask]):
        if not (seeds[(blob == b) & mask]).any():
            inside = [v for v in voxels if blob[v] == b]
            seeds[inside[int(rng.integers(len(inside)))]] = rng.integers(1, n_labels + 1)
    return intensity, mask, seeds, tuple(range(1, n_labels + 1)), beta, n, node_of, edges


@pytest.mark.parametrize("route", ["splu", "cg"])
def test_reference_matches_dense_oracle(route, monkeypatch):
    if route == "cg":
        monkeypatch.setattr(reference, "DIRECT_LIMIT", 0)
    rng = np.random.default_rng(11)
    for _ in range(40):
        intensity, mask, seeds, ids, beta, n, node_of, edges = _random_case(rng)
        ref = reference.solve(intensity, mask, seeds, ids, beta)
        # the oracle needs a seed in every component: solve on the solved
        # nodes only, i.e. ref's unseeded voxels plus every seed
        flat = {np.ravel_multi_index(v, mask.shape, order="F"): v for v in node_of}
        solved = sorted({int(f) for f in ref.voxels} | {f for f, v in flat.items() if seeds[v]})
        keep = {node_of[flat[f]]: i for i, f in enumerate(solved)}
        sub_edges = [(keep[i], keep[j], w) for i, j, w in edges if i in keep]
        sub_seeds = {keep[node_of[flat[f]]]: int(seeds[flat[f]]) for f in solved
                     if seeds[flat[f]]}
        oracle = dense_dirichlet(len(keep), sub_edges, sub_seeds, ids)
        rows = [keep[node_of[flat[int(f)]]] for f in ref.voxels]
        err = float(np.abs(ref.values - oracle[rows]).max(initial=0.0))
        assert ref.method in (route, "none")
        assert err <= 1e-9, err
        assert err <= ref.err_bound + 1e-12


def test_reference_excludes_seedless_components():
    mask = np.ones((6, 1, 1), dtype=bool)
    mask[3] = False  # two chains: voxels 0-2 and 4-5
    seeds = np.zeros((6, 1, 1), dtype=np.uint16)
    seeds[0], seeds[2] = 1, 2
    ref = reference.solve(np.zeros((6, 1, 1)), mask, seeds, (1, 2), 0.0)
    assert ref.voxels.tolist() == [1]  # seeds are not stored
    assert np.allclose(ref.values, [[0.5, 0.5]])


# --- output checks -------------------------------------------------------------------

def test_check_flags_broken_outputs():
    rng = np.random.default_rng(3)
    dims = (4, 4, 4)
    roi = np.ones(dims, dtype=bool)
    roi[3, 3, 3] = False
    grid = checks.Grid(roi)
    truth = np.where(np.arange(4)[:, None, None] < 2, 1, 2) * roi.astype(np.uint16)
    seeds = np.where(rng.random(dims) < 0.3, truth, 0).astype(np.uint16)
    soft = np.stack([grid.nodes(truth == 1) * 1.0, grid.nodes(truth == 2) * 1.0])
    kw = dict(grid=grid, ids=(1, 2), seeds=seeds, truth=truth,
              ref_voxels=grid.voxels, ref_values=soft.T.copy())

    def problems(soft, hard):
        res = checks.Result()
        checks.check_propagation(res, "x", soft, hard, **kw)
        return res

    good = problems(soft, truth)
    assert good.ok and good.max_abs_err == 0.0
    assert checks.dice_overall(grid.nodes(truth), grid.nodes(truth), (1, 2)) == 1.0

    bad_sum = soft.copy()
    bad_sum[0, 0] += 1e-3
    assert any("row sums" in p for p in problems(bad_sum, truth).problems)

    flipped = truth.copy()
    flipped[0, 0, 0] = 2
    assert any("argmax" in p for p in problems(soft, flipped).problems)

    outside = truth.copy()
    outside[3, 3, 3] = 1
    assert any("outside the roi" in p for p in problems(soft, outside).problems)

    far = soft.copy()
    far[:, 5] = 0.5
    res = problems(far, truth)
    assert res.max_abs_err == 0.5 and any("p_ref" in p for p in res.problems)


# --- spans ----------------------------------------------------------------------

def test_self_times_partition_the_root():
    rec = spans.Recorder()
    rec.op = 0
    root = rec.add("bench.op", 0.0, 10.0)
    a = rec.add("propagate.propagate", 1.0, 9.0, parent=root)
    rec.add("lattice.build_lattice", 2.0, 3.0, parent=a, counts={"n_nodes": 5})
    rec.add("dirichlet.solve_all", 4.0, 8.0, parent=a, counts={"iterations": 7})
    m = spans.op_metrics(rec.spans)
    assert m["bench.self_s"] == 2.0
    assert m["propagate.self_s"] == 3.0
    assert m["propagate.total_s"] == 8.0
    assert m["lattice.build_s"] == 1.0 and m["lattice.n_nodes"] == 5
    assert m["dirichlet.solve_s"] == 4.0 and m["dirichlet.iterations"] == 7
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == m["trace.self_sum_s"] == 10.0


def test_patches_are_restored():
    import voxprop  # noqa: F401

    vp = sys.modules["voxprop.propagate"]  # the package attribute is the function
    before = vp.build_lattice
    with spans.installed(spans.Recorder()):
        assert vp.build_lattice is not before
    assert vp.build_lattice is before


# --- the benchmark contract ------------------------------------------------------------

def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    from run import END_TO_END

    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == spans.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bilateral", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


COUNTS = ("lattice.components_calls", "lattice.build_calls", "dirichlet.iterations",
          "dirichlet.n_unseeded", "lattice.n_nodes", "nifti.bytes_read",
          "nifti.bytes_written")


def test_traced_counts_repeat_across_runs():
    results = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "cli-pipeline",
             "--seed", "3", "--seconds", "0", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    a, b = (r["metrics"] for r in results)
    assert all(r["correct"] for r in results)
    for name in COUNTS:
        assert a[name]["value"] == b[name]["value"] > 0, name
    # two propagations per operation, two component passes each
    assert a["lattice.components_calls"]["value"] == 4
    for m in (a, b):
        self_sum = sum(m[f"{layer}.self_s"]["value"] for layer in spans.LAYERS)
        assert abs(self_sum - m["trace.wall_s"]["value"]) < 1e-3
