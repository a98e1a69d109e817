"""Acceptance suite: one test per exit criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Criteria with runtime budgets assert wall-clock time too.
"""

import itertools
import struct
import time

import numpy as np
import pytest

from voxprop import (
    BadMagic,
    LabelSet,
    UnsupportedDatatype,
    Volume3D,
    assemble,
    dice,
    dice_report,
    majority_vote,
    propagate,
    read_volume,
    solve_all,
    strip_conflicts,
    write_volume,
)
from voxprop import dirichlet
from voxprop.propagate import PropagationRequest
from voxprop.phantom import PhantomBlob, PhantomSpec, make_phantom

from conftest import full_mask, make_intensity, make_mask
from helpers import (
    blobby_field,
    brute_force_edges,
    dense_reference_solve,
    edge_components,
    mc_absorption_frequencies,
    sparse_reference_solve,
)


def _pass(name):
    print(f"\nACCEPTANCE PASS: {name}")


# --- fixed 13-blob phantom (64 x 96 x 64) -------------------------------------

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


def phantom13_spec(intensity_shift=0, noise_seed=7):
    intensities = np.roll(BLOB_INTENSITIES, intensity_shift)
    return PhantomSpec(
        dims=(64, 96, 64),
        blobs=tuple(
            PhantomBlob(c, k + 1, float(intensities[k]))
            for k, c in enumerate(BLOB_CENTERS)
        ),
        noise_sigma=0.01,
        unlabeled_fraction=0.3,
        conflict_fraction=0.2,
        seed=noise_seed,
        label_names={k + 1: NUCLEI[k] for k in range(13)},
    )


@pytest.fixture(scope="module")
def phantom13():
    return make_phantom(phantom13_spec())


@pytest.fixture(scope="module")
def phantom13_result(phantom13):
    req = PropagationRequest(
        guidance=phantom13.guidance,
        roi=phantom13.roi,
        annotation=phantom13.annotation,
        beta=10_000.0,
    )
    t0 = time.perf_counter()
    result = propagate(req)
    elapsed = time.perf_counter() - t0
    return result, elapsed


@pytest.fixture(scope="module")
def contrast_results(phantom13):
    """Four propagations of the same annotation under different contrasts."""
    results = []
    for shift in range(4):
        ph = make_phantom(phantom13_spec(intensity_shift=shift))
        req = PropagationRequest(
            guidance=ph.guidance,
            roi=ph.roi,
            annotation=ph.annotation,
            beta=10_000.0,
        )
        results.append(propagate(req))
    return results


# --- criterion: oracle equivalence --------------------------------------------

def _random_lattice_and_seeds(rng):
    """One randomized lattice draw with component- and blob-covering seeds.

    beta is drawn from {0, 1, 1e4}. For beta=1e4 the intensity field is
    piecewise constant (the regime the weight scale is designed for; white
    noise at beta=1e4 floors nearly all weights and leaves the system
    quasi-singular, where no double-precision solver pins probabilities to
    1e-6 -- see test_dirichlet.test_white_noise_beta1e4_conditioning_limit).
    """
    dims = tuple(int(d) for d in rng.integers(2, 11, size=3))
    beta = float(rng.choice([0.0, 1.0, 1e4]))
    n_labels = int(rng.integers(2, 5))
    labels = LabelSet.from_ids(range(1, n_labels + 1))

    if beta == 1e4:
        n_blobs = int(rng.integers(2, 5))
        intensity, blob = blobby_field(dims, n_blobs, rng, sigma=0.005)
        roi_data = np.ones(dims, dtype=bool)
    else:
        intensity = rng.random(dims)
        blob = None
        roi_data = rng.random(dims) < 0.85
        roi_data.ravel()[int(rng.integers(0, roi_data.size))] = True

    n_nodes, _, edges = brute_force_edges(roi_data, intensity, beta)
    comp = edge_components(n_nodes, edges)
    node_voxels = np.flatnonzero(roi_data.ravel(order="F"))  # node ids scan x-fastest

    seeds = {}
    k = max(2, int(0.05 * n_nodes))
    for n in rng.choice(n_nodes, size=min(k, n_nodes), replace=False):
        seeds[int(n)] = int(rng.integers(1, n_labels + 1))
    if blob is not None:
        blob_of_node = blob.ravel(order="F")[node_voxels]
        for b in range(blob_of_node.max() + 1):
            nodes = np.flatnonzero(blob_of_node == b)
            if nodes.size and not any(int(n) in seeds for n in nodes):
                seeds[int(rng.choice(nodes))] = int(rng.integers(1, n_labels + 1))
    for c in range(comp.max() + 1):
        nodes = np.flatnonzero(comp == c)
        if not any(int(n) in seeds for n in nodes):
            seeds[int(rng.choice(nodes))] = int(rng.integers(1, n_labels + 1))
    # guarantee at least two distinct labels among the seeds
    first = sorted(seeds)[0]
    if len({v for v in seeds.values()}) < 2:
        other = next(n for n in sorted(seeds) if n != first)
        seeds[other] = 1 if seeds[first] != 1 else 2
    seed_voxels = {int(node_voxels[n]): lab for n, lab in seeds.items()}
    return make_intensity(intensity), make_mask(roi_data), seed_voxels, labels, beta


def test_oracle_equivalence(monkeypatch):
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    n_lattices = 60
    worst = {"direct": 0.0, "pcg": 0.0}
    direct_limit = dirichlet.DIRECT_BLOCK_LIMIT
    for _ in range(n_lattices):
        guidance, roi, seeds, labels, beta = _random_lattice_and_seeds(rng)
        sys_ = assemble(guidance, roi, seeds, beta, labels)
        ref = dense_reference_solve(sys_)
        # every lattice here routes direct; a zero limit forces PCG
        for route, limit in (("direct", direct_limit), ("pcg", 0)):
            monkeypatch.setattr(dirichlet, "DIRECT_BLOCK_LIMIT", limit)
            fast = solve_all(sys_)
            assert fast.route == route
            diff = float(np.abs(fast.values - ref).max())
            worst[route] = max(worst[route], diff)
            assert diff <= 1e-6, f"{route} beta={beta} dims={roi.dims}: diff {diff:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    _pass(
        f"oracle equivalence ({n_lattices} lattices, worst diff direct "
        f"{worst['direct']:.2e}, pcg {worst['pcg']:.2e}, {elapsed:.1f}s)"
    )


def test_large_lattice_oracle(phantom13, pcg_route):
    """Oracle equivalence at the acceptance-phantom size: PCG on the 13-blob
    phantom's own system (75k unseeded voxels, 73k of them in one block)
    against a sparse LU of the same L_U, every label, closure included, to
    1e-7: CG_ATOL leaves about 2.5e-8 here."""
    seeds = strip_conflicts(phantom13.annotation)[0].data.ravel(order="F")
    voxels = np.flatnonzero((seeds > 0) & phantom13.roi.data.ravel(order="F"))
    sys_ = assemble(phantom13.guidance, phantom13.roi, (voxels, seeds[voxels]),
                    10_000.0, phantom13.labels)
    field = solve_all(sys_)
    assert field.route == "pcg"
    gap = float(np.abs(field.values - sparse_reference_solve(sys_)).max())
    assert gap <= 1e-7, f"PCG vs sparse LU: diff {gap:.3e}"
    _pass(
        f"large-lattice oracle ({sys_.n_unseeded} unseeded, {field.n_islands} islands, "
        f"diff {gap:.2e})"
    )


# --- criterion: closed-form chains ---------------------------------------------

def test_closed_form_chains():
    worst = 0.0
    for length in range(3, 51):
        g = make_intensity(np.zeros((1, 1, length)))
        sys_ = assemble(g, full_mask((1, 1, length)), {0: 1, length - 1: 2}, 0.0)
        field = solve_all(sys_)
        k = np.arange(1, length - 1)  # the interior is the unseeded chain
        expect = 1.0 - k / (length - 1)
        err = float(np.abs(field.column(1) - expect).max())
        worst = max(worst, err)
        assert err <= 1e-6, f"chain {length}: error {err:.3e}"
    _pass(f"closed-form chains 3..50 (worst error {worst:.2e})")


# --- criterion: Monte-Carlo absorption -----------------------------------------

def _mc_lattices():
    # full rois, so a voxel's x-fastest flat index is its node id
    # 1: uniform 12-chain, ends seeded
    g1 = np.zeros((1, 1, 12))
    roi1 = np.ones((1, 1, 12), dtype=bool)
    seeds1 = {0: 1, 11: 2}
    # 2: uniform 4x4x4 box, two opposite faces seeded
    g2 = np.zeros((4, 4, 4))
    roi2 = np.ones((4, 4, 4), dtype=bool)
    seeds2 = {}
    for y in range(4):
        for z in range(4):
            seeds2[int(np.ravel_multi_index((0, y, z), g2.shape, order="F"))] = 1
            seeds2[int(np.ravel_multi_index((3, y, z), g2.shape, order="F"))] = 2
    # 3: 5x5x7 nonuniform weights (blobby field, beta=5), two faces seeded
    rng = np.random.default_rng(99)
    g3, _ = blobby_field((5, 5, 7), 3, rng, sigma=0.02)
    roi3 = np.ones((5, 5, 7), dtype=bool)
    seeds3 = {}
    for x in range(5):
        for y in range(5):
            seeds3[int(np.ravel_multi_index((x, y, 0), g3.shape, order="F"))] = 1
            seeds3[int(np.ravel_multi_index((x, y, 6), g3.shape, order="F"))] = 2
    cases = [
        ("12-chain", np.zeros((1, 1, 12)), roi1, 0.0, seeds1),
        ("4x4x4 two faces", g2, roi2, 0.0, seeds2),
        ("5x5x7 weighted", g3, roi3, 5.0, seeds3),
    ]
    return cases


def test_monte_carlo_absorption():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31415)
    n_walks = 100_000
    worst = 0.0
    for name, g, roi_data, beta, seeds in _mc_lattices():
        n_nodes, node_of, edges = brute_force_edges(roi_data, g, beta)
        assert n_nodes <= 200
        # a walker takes its neighbours in edge order; list the edges axis by
        # axis (x, y, z), each axis in node order, so the walks stay as drawn
        coord = {i: c for c, i in node_of.items()}
        edges.sort(key=lambda e: (np.flatnonzero(np.subtract(coord[e[1]], coord[e[0]]))[0], e[0]))
        labels = LabelSet.from_ids(sorted(set(seeds.values())))
        sys_ = assemble(make_intensity(g), make_mask(roi_data), seeds, beta, labels)
        field = solve_all(sys_)
        for node in sys_.unseeded:
            freqs = mc_absorption_frequencies(
                n_nodes, edges, seeds, labels.ids, int(node), n_walks, rng
            )
            row = np.searchsorted(sys_.unseeded, node)
            gap = float(np.abs(freqs - field.values[row]).max())
            worst = max(worst, gap)
            assert gap <= 0.01, f"{name} node {node}: MC gap {gap:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"Monte-Carlo suite took {elapsed:.1f}s"
    _pass(f"Monte-Carlo absorption (worst gap {worst:.4f}, {elapsed:.1f}s)")


# --- criterion: simplex + seed fixity on phantom propagations -------------------

def test_simplex_and_seed_fixity(phantom13, phantom13_result, contrast_results):
    results = [phantom13_result[0]] + list(contrast_results)
    checked = 0
    for res in results:
        roi = phantom13.roi.data
        stack = np.stack([v.data for v in res.soft])
        sums = stack.sum(axis=0)[roi]
        assert float(np.abs(sums - 1.0).max()) <= 1e-6
        assert float(stack.min()) >= -1e-6
        assert float(stack.max()) <= 1.0 + 1e-6
        counts = phantom13.annotation.label_counts()
        single = (counts == 1) & roi
        ids = np.asarray(phantom13.labels.ids, dtype=np.int64)
        seed_label = (ids[:, None, None, None] * phantom13.annotation.masks).sum(axis=0)
        assert np.array_equal(res.hard.data[single], seed_label[single].astype(np.uint16))
        checked += 1
    _pass(f"simplex + seed fixity ({checked} phantom propagations, zero violations)")


# --- criterion: 13-blob phantom recovery ----------------------------------------

def test_phantom_recovery(phantom13, phantom13_result):
    result, elapsed = phantom13_result
    assert elapsed < 120.0, f"propagate took {elapsed:.1f}s single-threaded"
    scores = {}
    for lab in phantom13.labels.ids:
        scores[lab] = dice(result.hard, phantom13.truth, lab, phantom13.roi)
        assert scores[lab] >= 0.95, f"label {lab}: Dice {scores[lab]:.4f}"
    _pass(
        f"13-blob phantom recovery (min Dice {min(scores.values()):.4f}, "
        f"propagate {elapsed:.1f}s)"
    )


# --- criterion: beta=0 guidance invariance ---------------------------------------

def test_beta_zero_guidance_invariance():
    rng = np.random.default_rng(55)
    spec = PhantomSpec(
        dims=(24, 24, 24),
        blobs=(
            PhantomBlob((7.0, 12.0, 12.0), 1, 0.3),
            PhantomBlob((17.0, 12.0, 12.0), 2, 0.7),
        ),
        noise_sigma=0.0,
        unlabeled_fraction=0.5,
        conflict_fraction=0.1,
        seed=4,
    )
    ph = make_phantom(spec)
    outputs = []
    for _ in range(2):
        guidance = make_intensity(rng.random((24, 24, 24)))
        req = PropagationRequest(
            guidance=guidance, roi=ph.roi, annotation=ph.annotation, beta=0.0
        )
        outputs.append(propagate(req))
    a, b = outputs
    assert np.array_equal(a.hard.data, b.hard.data)  # bit-exact hard labels
    for va, vb in zip(a.soft, b.soft):
        assert np.array_equal(va.data, vb.data)
    _pass("beta=0 guidance invariance (bit-exact hard labels)")


# --- criterion: fusion determinism -----------------------------------------------

def test_fusion_determinism(phantom13, contrast_results):
    maps = [r.hard for r in contrast_results]
    roi = phantom13.roi
    base = majority_vote(maps, roi)
    for perm in itertools.permutations(range(4)):
        fused = majority_vote([maps[i] for i in perm], roi)
        assert np.array_equal(fused.data, base.data)
    # constructed 2-2 tie resolves to the smaller label id
    tie_maps = [
        Volume3D(np.full((2, 2, 2), v, dtype=np.uint16), "label")
        for v in (3, 3, 8, 8)
    ]
    fused = majority_vote(tie_maps, full_mask((2, 2, 2)))
    assert (fused.data == 3).all()
    _pass("fusion determinism (24 permutations + 2-2 tie-break)")


# --- criterion: metrics identities -----------------------------------------------

def test_metrics_identities(phantom13, phantom13_result):
    result, _ = phantom13_result
    mask = phantom13.roi
    for lab in phantom13.labels.ids:
        assert dice(result.hard, result.hard, lab, mask) == 1.0
    # hand-counted: |P| = 2, |T| = 2, overlap 1 -> 0.5
    pred = Volume3D(np.array([7, 7, 0, 0], dtype=np.uint16).reshape(4, 1, 1), "label")
    target = Volume3D(np.array([7, 0, 7, 0], dtype=np.uint16).reshape(4, 1, 1), "label")
    assert dice(pred, target, 7, full_mask((4, 1, 1))) == 0.5
    # volume-weighted overall: dice (1.0, 0.0) with target volumes (3, 1)
    pred = Volume3D(np.array([2, 2, 2, 9], dtype=np.uint16).reshape(4, 1, 1), "label")
    target = Volume3D(np.array([2, 2, 2, 5], dtype=np.uint16).reshape(4, 1, 1), "label")
    rep = dice_report(pred, target, LabelSet(((2, "A"), (5, "B"))), full_mask((4, 1, 1)))
    assert rep.overall == 0.75
    _pass("metrics identities (self-Dice, 0.5 hand count, 0.75 weighted overall)")


# --- criterion: NIfTI round-trip ---------------------------------------------------

def test_nifti_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    dims = (5, 4, 3)
    volumes = {
        "intensity": Volume3D(
            rng.random(dims).astype(np.float32).astype(np.float64),
            "intensity", (0.9, 1.0, 1.1), (-3.0, 0.5, 2.0),
        ),
        "probability": Volume3D(
            rng.random(dims).astype(np.float32).astype(np.float64), "probability"
        ),
        "label": Volume3D(rng.integers(0, 14, dims).astype(np.uint16), "label"),
        "mask": Volume3D(rng.random(dims) < 0.5, "mask"),
    }
    for kind, vol in volumes.items():
        p1 = tmp_path / f"{kind}_1.nii"
        p2 = tmp_path / f"{kind}_2.nii"
        write_volume(vol, p1)
        back = read_volume(p1, kind)
        assert np.array_equal(back.data, vol.data)
        write_volume(back, p2)
        assert p1.read_bytes() == p2.read_bytes(), f"{kind}: bytes differ"

    corrupt = tmp_path / "bad_magic.nii"
    write_volume(volumes["mask"], corrupt)
    raw = bytearray(corrupt.read_bytes())
    raw[344:348] = b"ni1\x00"
    corrupt.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        read_volume(corrupt, "mask")

    baddt = tmp_path / "bad_dtype.nii"
    write_volume(volumes["intensity"], baddt)
    raw = bytearray(baddt.read_bytes())
    struct.pack_into("<h", raw, 70, 64)  # float64: outside the subset
    baddt.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedDatatype):
        read_volume(baddt, "intensity")
    _pass("NIfTI round-trip (4 kinds byte-identical; bad magic/datatype rejected)")
