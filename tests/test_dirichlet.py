import dataclasses
import gc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from voxprop import (
    ConvergenceFailure,
    LabelSet,
    NoSeeds,
    W_FLOOR,
    assemble,
    edge_weight,
    solve_all,
    strip_conflicts,
)
from voxprop import dirichlet
from voxprop.dirichlet import _finalize_probabilities
from voxprop.phantom import PhantomBlob, PhantomSpec, make_phantom

from conftest import full_mask, make_intensity, make_mask
from helpers import (
    blobby_field,
    brute_force_edges,
    brute_force_partition,
    dense_dirichlet,
    dense_laplacian,
    dense_reference_solve,
    edge_components,
    sparse_reference_solve,
)
from test_acceptance import BLOB_CENTERS, BLOB_INTENSITIES


def uniform_chain(length):
    """Guidance and roi of a uniform chain of `length` voxels along z."""
    return make_intensity(np.zeros((1, 1, length))), full_mask((1, 1, length))


class TestAssemble:
    def test_three_node_path_blocks(self):
        sys_ = assemble(*uniform_chain(3), {0: 1, 2: 2}, 0.0)
        assert sys_.L_U.toarray().tolist() == [[2.0]]
        assert sys_.B.toarray().tolist() == [[-1.0, -1.0]]

    def test_four_node_path_blocks(self):
        sys_ = assemble(*uniform_chain(4), {0: 1, 3: 2}, 0.0)
        assert np.array_equal(sys_.L_U.toarray(), [[2.0, -1.0], [-1.0, 2.0]])

    def test_row_sums_of_full_blocks_zero(self, rng):
        intensity = rng.random((4, 4, 3))
        nodes = rng.choice(intensity.size, size=6, replace=False)
        seeds = {int(n): int(rng.integers(1, 3)) for n in nodes}
        sys_ = assemble(make_intensity(intensity), full_mask((4, 4, 3)), seeds, 5.0)
        rowsum = sys_.L_U.sum(axis=1).A1 + sys_.B.sum(axis=1).A1
        assert np.allclose(rowsum, 0.0, atol=1e-12)

    def test_all_seeded_empty_unseeded_block(self):
        sys_ = assemble(*uniform_chain(3), {0: 1, 1: 1, 2: 2}, 0.0)
        assert sys_.n_unseeded == 0
        assert sys_.L_U.shape == (0, 0)

    def test_no_seeds(self):
        with pytest.raises(NoSeeds):
            assemble(*uniform_chain(3), {}, 0.0)

    @pytest.mark.parametrize(
        "seeds",
        [{0.9: 1, 3: 2}, {0: 1, 3: 2.7}, (np.array([0.2, 3.9]), [1, 2]), ([True, 3], [1, 2]),
         ([0, 3], [1, np.True_]), (np.array([True, False]), [1, 2]), ([0, np.nan], [1, 2]),
         ([0, np.inf], [1, 2]), ([0, 3], ["1", "2"])],
    )
    def test_seeds_that_are_not_whole_numbers_rejected(self, seeds):
        # a cast to int64 would truncate or reinterpret each of these
        with pytest.raises(ValueError, match="must be whole numbers"):
            assemble(*uniform_chain(5), seeds, 0.0)

    @pytest.mark.parametrize("seeds", [([], []), (np.array([]), np.array([]))])
    def test_empty_seed_arrays_are_no_seeds(self, seeds):
        with pytest.raises(NoSeeds):
            assemble(*uniform_chain(3), seeds, 0.0)

    def test_whole_float_seeds_accepted(self):
        floats = assemble(*uniform_chain(4), {0.0: 1.0, 3: 2}, 0.0)
        ints = assemble(*uniform_chain(4), {0: 1, 3: 2}, 0.0)
        assert floats.B.toarray().tobytes() == ints.B.toarray().tobytes()
        assert floats.unseeded.tolist() == ints.unseeded.tolist()

    def test_seed_labels_validated_against_label_set(self):
        with pytest.raises(ValueError):
            assemble(*uniform_chain(3), {0: 9}, 0.0, LabelSet.from_ids([1, 2]))

    def test_stray_seed_labels_are_named_once_each(self):
        seeds = (np.array([0, 1, 2]), np.array([9, 1, 9]))
        with pytest.raises(ValueError, match=r"seed labels \[9\] not in label set"):
            assemble(*uniform_chain(3), seeds, 0.0, LabelSet.from_ids([1, 2]))

    def test_duplicate_seed_nodes_rejected(self):
        with pytest.raises(ValueError):
            assemble(*uniform_chain(3), (np.array([0, 0]), np.array([1, 2])), 0.0)

    def test_matches_brute_force_partition(self, rng):
        n_pockets = 0
        for intensity, roi, seeds, beta in _partition_cases(rng):
            sys_ = assemble(make_intensity(intensity), make_mask(roi), seeds, beta)
            unseeded, pockets, n_blocks, largest, L_U, B = brute_force_partition(
                roi, intensity, beta, seeds
            )
            assert sys_.unseeded.tolist() == unseeded
            assert sys_.pocket_voxels.tolist() == pockets
            assert (sys_.n_blocks, sys_.largest_block) == (n_blocks, largest)
            assert sys_.L_U.toarray().tobytes() == L_U.tobytes()
            # the brute-force B has a column per seed; the system's sums them per label
            label_ids = sorted(set(seeds.values()))
            M = np.zeros((len(seeds), len(label_ids)))
            for r, v in enumerate(sorted(seeds)):
                M[r, label_ids.index(seeds[v])] = 1.0
            assert sys_.label_ids == tuple(label_ids)
            assert sys_.B.shape == (len(unseeded), len(label_ids))
            np.testing.assert_array_max_ulp(sys_.B.toarray(), B @ M, maxulp=2)
            n_pockets += len(sys_.seedless_components)
        assert n_pockets > 0

    def test_seed_outside_roi_rejected(self):
        roi = np.ones((1, 1, 3), bool)
        roi[0, 0, 1] = False
        with pytest.raises(ValueError):
            assemble(make_intensity(np.zeros((1, 1, 3))), make_mask(roi), {1: 1}, 0.0)

    def test_array_seed_form(self):
        # unsorted arrays give the system that the mapping gives
        arrays = assemble(*uniform_chain(4), (np.array([3, 0]), np.array([2, 1])), 0.0)
        mapping = assemble(*uniform_chain(4), {0: 1, 3: 2}, 0.0)
        for f in dataclasses.fields(mapping):
            a, b = getattr(arrays, f.name), getattr(mapping, f.name)
            if sp.issparse(a):
                a, b = (a.data, a.indices, a.indptr), (b.data, b.indices, b.indptr)
            else:
                a, b = (a,), (b,)
            assert all(np.array_equal(x, y) for x, y in zip(a, b)), f.name
        assert mapping.B.toarray().tolist() == [[-1.0, 0.0], [0.0, -1.0]]

    def test_seeds_of_one_label_on_both_sides(self, monkeypatch):
        # voxel 1 lies between two label-1 seeds, so its row of B holds
        # label 1's column twice; voxel 3 lies between labels 1 and 2
        sys_ = assemble(*uniform_chain(5), {0: 1, 2: 1, 4: 2}, 0.0)
        assert sys_.B.indices[sys_.B.indptr[0]:sys_.B.indptr[1]].tolist() == [0, 0]
        assert sys_.B.toarray().tolist() == [[-2.0, 0.0], [-1.0, -1.0]]
        for limit, route in ((dirichlet.DIRECT_BLOCK_LIMIT, "direct"), (0, "pcg")):
            monkeypatch.setattr(dirichlet, "DIRECT_BLOCK_LIMIT", limit)
            field = solve_all(sys_)
            assert field.route == route
            assert field.values.tolist() == [[1.0, 0.0], [0.5, 0.5]]

    def test_parity_splits_every_coupling(self, rng):
        # nx and ny both odd, then both even; rois with holes, several blocks
        n_multi_block = 0
        for dims in [(5, 3, 4), (7, 5, 3), (4, 6, 3), (6, 2, 5)] * 5:
            roi = rng.random(dims) < 0.7
            voxels = np.flatnonzero(roi.ravel(order="F"))
            nodes = rng.choice(voxels, size=max(1, voxels.size // 8), replace=False)
            seeds = {int(v): int(rng.integers(1, 4)) for v in nodes}
            sys_ = assemble(make_intensity(rng.random(dims)), make_mask(roi), seeds, 2.0)
            odd = sum(np.unravel_index(sys_.unseeded, dims, order="F")) % 2 == 1
            red = dirichlet._reduce(sys_)
            assert np.array_equal(np.sort(np.r_[red.e, red.o]), np.arange(sys_.n_unseeded))
            e_odd = odd[red.e[0]]
            assert (odd[red.e] == e_odd).all() and (odd[red.o] != e_odd).all()
            assert red.e.size >= red.o.size
            coo = sys_.L_U.tocoo()
            off = coo.row != coo.col
            assert off.any()
            assert (odd[coo.row[off]] != odd[coo.col[off]]).all()  # each joins e to o
            n_multi_block += sys_.n_blocks - len(sys_.seedless_components) > 1
        assert n_multi_block > 0


def graph(n, rows, cols):
    """The n-node sparse graph with one entry per edge (rows[i], cols[i])."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))


def components(adj):
    return connected_components(adj, directed=False)[1]


class TestConnectedComponents:
    """scipy's undirected component labels, taken as they come: `assemble`
    numbers the blocks of L_U and `_pieces` the islands by them. This pins
    the order both rely on, each component numbered by its first node."""

    def test_path_single_component(self):
        assert components(graph(4, [0, 1, 2], [1, 2, 3])).tolist() == [0, 0, 0, 0]

    def test_two_isolated(self):
        assert components(graph(2, [], [])).tolist() == [0, 1]

    def test_pair_plus_singleton_sizes(self):
        comp = components(graph(3, [0], [1]))
        assert np.bincount(comp).tolist() == [2, 1]

    def test_ids_ordered_by_minimal_node(self):
        # a 5-path and a 2-path, edges listed from the larger node
        comp = components(graph(7, [1, 2, 3, 4, 6], [0, 1, 2, 3, 5]))
        assert comp.tolist() == [0] * 5 + [1] * 2
        # node 0 alone, then nodes 1 and 3 joined, then node 2
        assert components(graph(4, [3], [1])).tolist() == [0, 1, 2, 1]


def _partition_cases(rng):
    """(intensity, roi, seeds, beta) draws: random rois with pockets, seeds on
    the grid border, one-voxel rois and dims of 1."""
    yield np.zeros((1, 1, 1)), np.ones((1, 1, 1), bool), {0: 1}, 1.0
    one = np.zeros((3, 3, 3), bool)
    one[2, 1, 0] = True
    yield rng.random((3, 3, 3)), one, {5: 2}, 1.0
    for _ in range(150):
        dims = tuple(int(d) for d in rng.integers(1, 6, size=3))
        roi = rng.random(dims) < rng.choice([0.5, 0.8, 1.0])
        roi.ravel()[int(rng.integers(roi.size))] = True
        voxels = np.flatnonzero(roi.ravel(order="F"))
        k = min(int(rng.integers(1, voxels.size // 3 + 2)), voxels.size)
        seeds = {int(v): int(rng.integers(1, 4)) for v in rng.choice(voxels, k, replace=False)}
        seeds[int(voxels[-1])] = 1  # the last roi voxel lies on the grid border
        yield rng.random(dims), roi, seeds, float(rng.choice([0.0, 1.0, 37.0, 1e4]))


class TestSolveLabel:
    """One label's column, solved by conjugate gradients on the PCG route."""

    def test_symmetric_midpoint(self, pcg_route):
        sys_ = assemble(*uniform_chain(3), {0: 1, 2: 2}, 0.0)
        x = solve_all(sys_).column(1)
        assert x[0] == pytest.approx(0.5, abs=1e-9)

    def test_four_node_thirds(self, pcg_route):
        sys_ = assemble(*uniform_chain(4), {0: 1, 3: 2}, 0.0)
        ref = dense_dirichlet(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], {0: 1, 3: 2}, [1, 2])
        x = solve_all(sys_).column(1)
        assert np.allclose(x, ref[1:3, 0], atol=1e-9)
        assert np.allclose(x, [2.0 / 3.0, 1.0 / 3.0], atol=1e-9)

    def test_weighted_path_two_thirds(self, pcg_route):
        # weights 1 and 1/2: middle node L_U = [3/2], rhs = 1 -> x = 2/3
        g = make_intensity(np.array([0.0, 0.0, 1.0]).reshape(1, 1, 3))
        beta = np.log(2.0)
        sys_ = assemble(g, full_mask((1, 1, 3)), {0: 1, 2: 2}, beta)
        x = solve_all(sys_).column(1)
        assert x[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
        edges = [(0, 1, 1.0), (1, 2, edge_weight(0.0, 1.0, beta))]
        ref = dense_dirichlet(3, edges, {0: 1, 2: 2}, [1, 2])
        assert x[0] == pytest.approx(ref[1, 0], abs=1e-9)

    def test_label_with_no_seeds_returns_zero_without_iterating(self, pcg_route):
        # label 2 is a head label (the last one, 3, is closure) with no seeds;
        # with two o nodes the island space misses the linear solution, so
        # label 1 has to iterate
        labels = LabelSet.from_ids([1, 2, 3])
        sys_ = assemble(*uniform_chain(6), {0: 1, 5: 3}, 0.0, labels)
        field = solve_all(sys_)
        assert np.array_equal(field.column(2), np.zeros(4))
        # soft volumes write every entry whose bits are nonzero: -0.0 would show
        assert not np.signbit(field.column(2)).any()
        assert field.stats[1] == dirichlet.LabelSolveStats(2, 0, 0.0)
        assert field.stats[0].iterations > 0

    @pytest.mark.parametrize("label_id", [2, 2.0, np.int64(2), np.uint16(2)])
    def test_column_found_by_whole_value(self, label_id):
        field = dirichlet.ProbabilityField(np.array([[0.25, 0.75]]), (1, 2))
        assert np.array_equal(field.column(label_id), [0.75])

    @pytest.mark.parametrize("label_id", [1.5, 2.5, True, "1", 3])
    def test_column_lookup_does_not_truncate(self, label_id):
        field = dirichlet.ProbabilityField(np.array([[0.25, 0.75]]), (1, 2))
        with pytest.raises(KeyError):
            field.column(label_id)

    def test_seedless_chain_left_out_of_the_system(self, rng, monkeypatch):
        # x = 0..2 is a chain with no seed (a pocket); x = 4..8 a seeded chain
        dims = (9, 1, 1)
        guidance = make_intensity(rng.random(dims))
        roi = np.ones(dims, bool)
        roi[3] = False
        seeded_only = roi.copy()
        seeded_only[:3] = False
        labels = LabelSet.from_ids([1, 2, 3])
        seeds = {4: 1, 6: 3, 8: 2}
        both = assemble(guidance, make_mask(roi), seeds, 5.0, labels)
        alone = assemble(guidance, make_mask(seeded_only), seeds, 5.0, labels)
        # blocks of unseeded voxels: {0, 1, 2} (the pocket), {5}, {7}
        assert both.seedless_components == (0,)
        assert both.n_blocks == 3 and both.largest_block == 1
        assert np.array_equal(both.pocket_voxels, [0, 1, 2])
        assert np.array_equal(both.unseeded, [5, 7])
        assert (both.L_U != alone.L_U).nnz == 0 and (both.B != alone.B).nnz == 0

        # every solver returns the two unseeded rows only: no pocket rows
        for solve in (lambda s: solve_all(s).values, dense_reference_solve):
            got, ref = solve(both), solve(alone)
            assert got.shape == (2, 3)
            assert got.tobytes() == ref.tobytes()
        monkeypatch.setattr(dirichlet, "DIRECT_BLOCK_LIMIT", 0)
        got, ref = solve_all(both), solve_all(alone)
        assert got.route == "pcg"
        for lab in labels.ids:
            assert got.column(lab).shape == (2,)
            assert got.column(lab).tobytes() == ref.column(lab).tobytes()

    def test_convergence_failure_reports_residual(self, pcg_route, monkeypatch):
        monkeypatch.setattr(dirichlet, "MAX_ITERS_CAP", 2)
        sys_ = assemble(*uniform_chain(40), {0: 1, 39: 2}, 0.0)
        with pytest.raises(ConvergenceFailure) as exc:
            solve_all(sys_)
        assert exc.value.iterations == 2
        assert exc.value.residual is not None and exc.value.residual > 0


class TestSolveAll:
    def test_single_label_all_ones(self, pcg_route):
        sys_ = assemble(*uniform_chain(5), {0: 7, 4: 7}, 0.0)
        field = solve_all(sys_)
        assert np.array_equal(field.values, np.ones((3, 1)))

    def test_three_node_field(self):
        sys_ = assemble(*uniform_chain(3), {0: 1, 2: 2}, 0.0)
        field = solve_all(sys_)
        assert np.allclose(field.values, [[0.5, 0.5]], atol=1e-9)

    def test_grid_center_half_half(self):
        # 3x3x1 uniform grid, two adjacent corners seeded A, the other two B
        g, roi = make_intensity(np.zeros((3, 3, 1))), full_mask((3, 3, 1))
        _, node_of, _ = brute_force_edges(roi.data, g.data, 0.0)  # full roi: node = voxel
        seeds = {
            node_of[0, 0, 0]: 1,
            node_of[2, 0, 0]: 1,
            node_of[0, 2, 0]: 2,
            node_of[2, 2, 0]: 2,
        }
        sys_ = assemble(g, roi, seeds, 0.0)
        field = solve_all(sys_)
        assert np.allclose(field.values, dense_reference_solve(sys_), atol=1e-8)
        center = np.searchsorted(sys_.unseeded, node_of[1, 1, 0])
        assert field.values[center] == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_rows_sum_to_one_and_in_range(self, rng):
        intensity, _ = blobby_field((6, 6, 6), 3, rng)
        nodes = rng.choice(intensity.size, size=20, replace=False)
        seeds = {int(n): int(rng.integers(1, 4)) for n in nodes}
        g, roi = make_intensity(intensity), full_mask((6, 6, 6))
        field = solve_all(assemble(g, roi, seeds, 100.0, LabelSet.from_ids([1, 2, 3])))
        sums = field.values.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-6)
        assert field.values.min() >= 0.0
        assert field.values.max() <= 1.0

    def test_mean_value_property(self, rng):
        # unseeded solution is the weight-normalized neighbor average
        intensity = rng.random((5, 5, 2))
        g, roi = make_intensity(intensity), full_mask((5, 5, 2))
        n_nodes, _, edges = brute_force_edges(roi.data, intensity, 2.0)
        nodes = rng.choice(n_nodes, size=8, replace=False)
        seeds = {int(n): int(rng.integers(1, 3)) for n in nodes}
        sys_ = assemble(g, roi, seeds, 2.0)  # full roi: voxel = node
        field = solve_all(sys_)
        ei, ej, w = (np.array(col) for col in zip(*edges))
        deg = np.bincount(ei, w, n_nodes) + np.bincount(ej, w, n_nodes)
        unseeded = sys_.unseeded
        for col, lab in enumerate(sys_.label_ids):
            x = np.zeros(n_nodes)  # seeds one-hot, then the solved rows
            x[list(seeds)] = np.array(list(seeds.values())) == lab
            x[unseeded] = field.values[:, col]
            weighted = np.bincount(ei, w * x[ej], n_nodes)
            weighted += np.bincount(ej, w * x[ei], n_nodes)
            avg = weighted / deg
            tol = 1e-7 * max(np.abs(x).max(), 1.0)
            assert np.abs(x[unseeded] - avg[unseeded]).max() <= tol

    def test_label_permutation_equivariance(self, rng):
        intensity = rng.random((4, 4, 2))
        g, roi = make_intensity(intensity), full_mask((4, 4, 2))
        nodes = rng.choice(intensity.size, size=6, replace=False)
        labs = [1, 2, 3, 1, 2, 3]
        seeds_a = {int(n): l for n, l in zip(nodes, labs)}
        # permutation 1->3, 2->1, 3->2
        perm = {1: 3, 2: 1, 3: 2}
        seeds_b = {n: perm[l] for n, l in seeds_a.items()}
        fa = solve_all(assemble(g, roi, seeds_a, 1.0, LabelSet.from_ids([1, 2, 3])))
        fb = solve_all(assemble(g, roi, seeds_b, 1.0, LabelSet.from_ids([1, 2, 3])))
        for lab in (1, 2, 3):
            assert np.allclose(fa.column(lab), fb.column(perm[lab]), atol=1e-7)

    def test_beta_zero_ignores_intensities(self, rng):
        roi = full_mask((4, 3, 3))
        seeds = {0: 1, 35: 2, 17: 1}
        fields = []
        for _ in range(2):
            g = make_intensity(rng.random((4, 3, 3)))
            fields.append(solve_all(assemble(g, roi, seeds, 0.0)))
        assert np.array_equal(fields[0].values, fields[1].values)

    def test_uniform_chain_closed_form(self):
        L = 20
        sys_ = assemble(*uniform_chain(L), {0: 1, L - 1: 2}, 0.0)
        field = solve_all(sys_)
        k = np.arange(1, L - 1)  # the interior is the unseeded chain
        expect = 1.0 - k / (L - 1)
        assert np.abs(field.column(1) - expect).max() < 1e-8

    def test_matches_independent_dense_oracle(self, rng):
        dims = (4, 4, 3)
        intensity = rng.random(dims)
        roi = rng.random(dims) < 0.8
        roi[0, 0, 0] = True
        g, mask = make_intensity(intensity), make_mask(roi)
        n_nodes, _, edges = brute_force_edges(roi, intensity, 3.0)
        comp = edge_components(n_nodes, edges)
        node_voxels = np.flatnonzero(roi.ravel(order="F"))  # node ids scan x-fastest
        seeds = {}
        for c in range(comp.max() + 1):
            for n in rng.choice(np.flatnonzero(comp == c), size=1):
                seeds[int(n)] = int(rng.integers(1, 4))
        seeds[int(np.flatnonzero(comp == 0)[0])] = 2
        seed_voxels = {int(node_voxels[n]): lab for n, lab in seeds.items()}
        sys_ = assemble(g, mask, seed_voxels, 3.0, LabelSet.from_ids([1, 2, 3]))
        field = solve_all(sys_)
        rows = np.searchsorted(node_voxels, sys_.unseeded)
        ref = dense_dirichlet(n_nodes, edges, seeds, [1, 2, 3])[rows]
        assert np.abs(field.values - ref).max() < 1e-7

    def test_stats_per_label(self, pcg_route):
        sys_ = assemble(*uniform_chain(6), {0: 1, 5: 2}, 0.0)
        field = solve_all(sys_)
        assert [s.label_id for s in field.stats] == [1, 2]
        assert field.stats[0].iterations > 0
        assert field.stats[1].closure  # last label recovered by closure

    def test_declared_label_without_seeds_gets_zero_mass(self, pcg_route):
        # label 9 is in the set but nothing is seeded with it, including the
        # closure slot: its column must come out (numerically) zero
        sys_ = assemble(*uniform_chain(5), {0: 1, 4: 2}, 0.0, LabelSet.from_ids([1, 2, 9]))
        field = solve_all(sys_)
        assert np.abs(field.column(9)).max() <= 1e-7

    def test_closure_label_holding_all_seeds(self, pcg_route):
        # every seed carries the largest label: zero solves, closure gives 1
        sys_ = assemble(*uniform_chain(4), {0: 2, 3: 2}, 0.0, LabelSet.from_ids([1, 2]))
        field = solve_all(sys_)
        assert np.array_equal(field.column(2), np.ones(2))
        assert np.array_equal(field.column(1), np.zeros(2))
        assert field.stats[0].iterations == 0  # zero rhs shortcut

    def test_pcg_route_matches_dense(self, rng, pcg_route):
        intensity = rng.random((5, 5, 3))
        nodes = rng.choice(intensity.size, size=9, replace=False)
        seeds = {int(n): int(1 + (k % 3)) for k, n in enumerate(nodes)}
        g, roi = make_intensity(intensity), full_mask((5, 5, 3))
        sys_ = assemble(g, roi, seeds, 2.0, LabelSet.from_ids([1, 2, 3]))
        field = solve_all(sys_)
        assert field.route == "pcg"
        assert np.abs(field.values - dense_reference_solve(sys_)).max() <= 1e-6

    def test_direct_route_matches_dense(self, rng):
        for beta in (0.0, 1.0, 10.0):
            intensity = rng.random((6, 5, 4))
            roi = rng.random(intensity.shape) < 0.85
            voxels = np.flatnonzero(roi.ravel(order="F"))
            nodes = rng.choice(voxels, size=12, replace=False)
            seeds = {int(n): int(rng.integers(1, 4)) for n in nodes}
            labels = LabelSet.from_ids([1, 2, 3])
            sys_ = assemble(make_intensity(intensity), make_mask(roi), seeds, beta, labels)
            field = solve_all(sys_)
            assert field.route == "direct" and field.direct_error is None
            assert field.n_islands == 0
            assert all(s.iterations == 0 and not s.closure for s in field.stats)
            assert np.abs(field.values - dense_reference_solve(sys_)).max() <= 1e-12
            assert np.abs(field.values.sum(axis=1) - 1.0).max() <= 1e-12

    def test_direct_route_is_positive_zero_off_a_labels_blocks(self, rng):
        # the soft-volume writer skips entries whose bits are all zero, so a
        # block with no seed of label k must hold exact +0.0 in column k
        intensity = rng.random((10, 9, 8))
        roi = rng.random(intensity.shape) < 0.6
        voxels = np.flatnonzero(roi.ravel(order="F"))
        nodes = rng.choice(voxels, size=voxels.size // 5, replace=False)
        seeds = {int(n): int(rng.integers(1, 5)) for n in nodes}
        labels = LabelSet.from_ids([1, 2, 3, 4])
        sys_ = assemble(make_intensity(intensity), make_mask(roi), seeds, 10.0, labels)
        field = solve_all(sys_)
        assert field.route == "direct"
        _, block = connected_components(sys_.L_U, directed=False)
        couplings = sys_.B.tocoo()
        seeded = np.zeros((block.max() + 1, len(labels)), dtype=bool)
        seeded[block[couplings.row], couplings.col] = True  # block c touches a seed of label k
        off = ~seeded[block]
        assert off.any() and not off.all()
        assert not field.values[off].any()
        assert not np.signbit(field.values[off]).any()
        assert (field.values[~off] > 0).all()

    def test_route_follows_the_largest_block(self, monkeypatch):
        sys_ = assemble(*uniform_chain(12), {0: 1, 11: 2}, 0.0)
        assert sys_.largest_block == 10
        monkeypatch.setattr(dirichlet, "DIRECT_BLOCK_LIMIT", 10)
        assert solve_all(sys_).route == "direct"
        monkeypatch.setattr(dirichlet, "DIRECT_BLOCK_LIMIT", 9)
        field = solve_all(sys_)
        assert field.route == "pcg"
        assert field.stats[0].iterations > 0 and field.stats[1].closure

    def test_block_over_the_budget_takes_pcg(self):
        dims = (17, 17, 17)  # one block of 4911 unseeded nodes
        sys_ = assemble(make_intensity(np.zeros(dims)), full_mask(dims), {0: 1, 4912: 2}, 0.0)
        assert sys_.largest_block == 4911 > dirichlet.DIRECT_BLOCK_LIMIT
        field = solve_all(sys_)
        assert field.route == "pcg" and field.direct_error is None
        assert np.abs(field.values.sum(axis=1) - 1.0).max() <= 1e-12


class TestReducedRoute:
    """CG on the reduced system S against the dense oracle."""

    @staticmethod
    def check_against_dense(sys_, **kw):
        field = solve_all(sys_, **kw)
        assert field.route == "pcg"
        assert np.abs(field.values - dense_reference_solve(sys_)).max() <= 1e-6
        return field

    def test_single_unseeded_voxel(self, pcg_route):
        sys_ = assemble(*uniform_chain(3), {0: 1, 2: 2}, 0.0)
        field = self.check_against_dense(sys_)
        assert field.stats[0].iterations == 0

    def test_unseeded_voxels_touching_only_seeds(self, rng, pcg_route):
        # the even voxels of a 5x4x3 box are seeds, so no odd voxel has an
        # unseeded neighbour: the odd colour is all of L_U, the other empty
        dims = (5, 4, 3)
        ijk = np.indices(dims).reshape(3, -1, order="F")
        even = np.flatnonzero(ijk.sum(axis=0) % 2 == 0)
        seeds = {int(v): int(rng.integers(1, 4)) for v in even}
        g = make_intensity(rng.random(dims))
        sys_ = assemble(g, full_mask(dims), seeds, 3.0, LabelSet.from_ids([1, 2, 3]))
        assert sys_.L_U.nnz == sys_.n_unseeded
        assert (sum(np.unravel_index(sys_.unseeded, dims, order="F")) % 2 == 1).all()
        assert dirichlet._reduce(sys_).o.size == 0
        field = self.check_against_dense(sys_)
        assert all(s.iterations == 0 for s in field.stats)

    @pytest.mark.parametrize("dims", [(7, 3, 5), (9, 5, 1), (3, 11, 7)])
    def test_anisotropic_odd_dims(self, rng, pcg_route, dims):
        g = make_intensity(blobby_field(dims, 4, rng)[0], spacing=(0.5, 1.0, 2.5))
        roi = rng.random(dims) < 0.9
        voxels = np.flatnonzero(roi.ravel(order="F"))
        nodes = rng.choice(voxels, size=8, replace=False)
        seeds = {int(n): int(1 + k % 4) for k, n in enumerate(nodes)}
        labels = LabelSet.from_ids([1, 2, 3, 4])
        sys_ = assemble(g, make_mask(roi, spacing=(0.5, 1.0, 2.5)), seeds, 20.0, labels)
        field = self.check_against_dense(sys_)
        assert all(s.iterations > 0 for s in field.stats[:-1])

    def test_declared_label_without_seeds(self, rng, pcg_route):
        # label 2 is solved (not the closure label) and has no seed
        dims = (6, 5, 3)
        nodes = rng.choice(int(np.prod(dims)), size=6, replace=False)
        seeds = {int(n): [1, 3][k % 2] for k, n in enumerate(nodes)}
        g = make_intensity(rng.random(dims))
        sys_ = assemble(g, full_mask(dims), seeds, 1.0, LabelSet.from_ids([1, 2, 3]))
        field = self.check_against_dense(sys_)
        assert np.array_equal(field.column(2), np.zeros(sys_.n_unseeded))
        assert field.stats[1].iterations == 0

    @pytest.mark.parametrize("atol", [1e-8, 1e-4])
    def test_residual_is_the_full_systems(self, rng, pcg_route, atol, monkeypatch):
        # CG_ATOL bounds ||D^-1 (b - L_U x)|| of the full system, and the
        # reported residual is that quantity
        monkeypatch.setattr(dirichlet, "CG_ATOL", atol)
        dims = (9, 8, 7)
        intensity, _ = blobby_field(dims, 5, rng)
        nodes = rng.choice(intensity.size, size=25, replace=False)
        seeds = {int(n): int(1 + k % 4) for k, n in enumerate(nodes)}
        labels = LabelSet.from_ids([1, 2, 3, 4])
        sys_ = assemble(make_intensity(intensity), full_mask(dims), seeds, 5.0, labels)
        field = solve_all(sys_)
        d = sys_.L_U.diagonal()
        # the full Laplacian's U rows: times a seed indicator, they give -b
        n_nodes, _, edges = brute_force_edges(full_mask(dims).data, intensity, 5.0)
        L_rows = dense_laplacian(n_nodes, edges)[sys_.unseeded]
        for k, stats in enumerate(field.stats[:-1]):
            m = np.zeros(n_nodes)
            m[[v for v, lab in seeds.items() if lab == stats.label_id]] = 1.0
            b = -(L_rows @ m)
            x = field.values[:, k]
            residual = np.linalg.norm((b - sys_.L_U @ x) / d)
            assert stats.iterations > 0
            assert residual <= atol
            assert residual == pytest.approx(stats.residual, rel=1e-6)

    def test_leaves_no_garbage(self, rng, pcg_route):
        # a solve that leaves its work in a reference cycle keeps it alive
        # until the next collection, which raised peak RSS in the writer
        intensity = rng.random((6, 6, 5))
        nodes = rng.choice(intensity.size, size=10, replace=False)
        seeds = {int(n): int(1 + k % 3) for k, n in enumerate(nodes)}
        sys_ = assemble(make_intensity(intensity), full_mask((6, 6, 5)), seeds, 2.0)
        gc.collect()
        gc.disable()
        try:
            solve_all(sys_)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDenseReferenceSolve:
    """The dense oracle of `helpers`, on systems solved by hand."""

    def test_three_node_midpoint(self):
        sys_ = assemble(*uniform_chain(3), {0: 1, 2: 2}, 0.0)
        ref = dense_reference_solve(sys_)
        assert ref[0] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_four_node_gamblers_ruin(self):
        sys_ = assemble(*uniform_chain(4), {0: 1, 3: 2}, 0.0)
        ref = dense_reference_solve(sys_)
        assert ref[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert ref[1, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_agrees_with_iterative(self, rng, pcg_route):
        intensity, _ = blobby_field((5, 6, 4), 3, rng)
        nodes = rng.choice(intensity.size, size=30, replace=False)
        seeds = {int(n): int(rng.integers(1, 4)) for n in nodes}
        g, roi = make_intensity(intensity), full_mask((5, 6, 4))
        sys_ = assemble(g, roi, seeds, 1e4, LabelSet.from_ids([1, 2, 3]))
        it = solve_all(sys_)
        assert np.abs(it.values - dense_reference_solve(sys_)).max() < 1e-6


class TestFinalizeProbabilities:
    def test_tiny_negative_clamped_and_renormalized(self):
        values = np.array([[1.0000004, -4e-7], [0.5, 0.5]])
        _finalize_probabilities(values)
        assert values.min() >= 0.0
        assert values.max() <= 1.0
        assert np.allclose(values.sum(axis=1), 1.0, atol=1e-6)

    def test_large_violation_is_hard_error(self):
        values = np.array([[1.2, -0.2]])
        with pytest.raises(ConvergenceFailure):
            _finalize_probabilities(values)


def test_white_noise_beta1e4_conditioning_limit(rng, pcg_route):
    """At beta=1e4 on white-noise intensities most weights hit the 1e-10
    floor; strong-coupled voxel clusters anchored only through floored edges
    make the system quasi-singular (condition ~1e10), and no double-precision
    solver determines those probabilities to 1e-6. This documents the regime
    boundary: the iterative and dense routes still agree to ~1e-3."""
    dims = (6, 6, 6)
    g = make_intensity(rng.random(dims))
    seeds = {0: 1, g.n_voxels - 1: 2}
    sys_ = assemble(g, full_mask(dims), seeds, 1e4)
    it = solve_all(sys_)
    gap = np.abs(it.values - dense_reference_solve(sys_)).max()
    assert gap < 1e-2  # loose by necessity; see docstring


def _floored_cluster_system(seed=1821):
    # a 4x2x2 roi with white-noise guidance at beta 50; at seed 1821 three
    # nodes reach their only seed (label 2) through floored edges alone
    rng = np.random.default_rng(seed)
    dims = (4, 2, 2)
    g = make_intensity(rng.random(dims))
    k = rng.integers(2, 5)
    nodes = rng.choice(g.n_voxels, k, replace=False)
    seeds = (nodes, rng.choice([2, 5], k))
    return assemble(g, full_mask(dims), seeds, 50.0, LabelSet.from_ids([2, 5]))


def test_floored_cluster_stops_early_white_noise_beta50():
    sys_ = _floored_cluster_system()
    field = solve_all(sys_)
    assert field.route == "direct"
    gap = np.abs(field.values - dense_reference_solve(sys_)).max()
    assert gap <= 1e-6  # the oracle tolerance of test_oracle_equivalence


def test_floored_cluster_stops_early_white_noise_beta50_pcg(pcg_route):
    sys_ = _floored_cluster_system()
    gap = np.abs(solve_all(sys_).values - dense_reference_solve(sys_)).max()
    assert gap <= 1e-6  # the oracle tolerance of test_oracle_equivalence


def test_island_tau_cuts_the_floored_edges(pcg_route, monkeypatch):
    """ISLAND_TAU stays 1e-3. On this system the U-U weights below it run
    from the 1e-10 floor to 3.9e-4, those above it from 1.8e-3, and the cut
    leaves 2 islands. A tau below W_FLOOR cuts no edge, so the one block is
    one island; its constant cannot hold the modes of the clusters behind
    the weak edges, and CG meets CG_ATOL while still about 1e-2 off."""
    assert dirichlet.ISLAND_TAU == 1e-3
    sys_ = _floored_cluster_system(546)
    ref = dense_reference_solve(sys_)
    field = solve_all(sys_)
    assert field.n_islands == 2
    assert np.abs(field.values - ref).max() <= 1e-6
    monkeypatch.setattr(dirichlet, "ISLAND_TAU", W_FLOOR / 2)
    field = solve_all(sys_)
    assert field.n_islands == sys_.n_blocks == 1
    assert all(s.residual <= dirichlet.CG_ATOL for s in field.stats)
    assert np.abs(field.values - ref).max() > 1e-3


def test_failed_island_factor_is_a_convergence_failure(pcg_route, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("no room for the factor")

    sys_ = _floored_cluster_system(546)  # 2 islands
    monkeypatch.setattr(dirichlet, "splu", out_of_memory)
    with pytest.raises(ConvergenceFailure, match=r"2-island .*\(MemoryError: no room"):
        solve_all(sys_)


class _NanFactor:
    """Stands in for a sparse LU whose solves come back NaN."""

    def __init__(self, A):
        self.shape, self.nnz = A.shape, A.nnz

    def solve(self, rhs):
        return np.full(rhs.shape, np.nan)


def test_nan_from_the_island_factor_is_a_convergence_failure(pcg_route, monkeypatch):
    """NaN > CG_ATOL is False: a NaN residual ends the CG at once, and the
    label must then fail its acceptance instead of passing it."""
    monkeypatch.setattr(dirichlet, "_splu", _NanFactor)
    with pytest.raises(ConvergenceFailure, match="residual nan") as exc:
        solve_all(_floored_cluster_system(546))
    assert exc.value.iterations == 0 and np.isnan(exc.value.residual)


def test_nan_from_the_direct_factor_is_a_convergence_failure(monkeypatch):
    monkeypatch.setattr(dirichlet, "_splu", _NanFactor)
    sys_ = _floored_cluster_system(546)
    assert sys_.largest_block <= dirichlet.DIRECT_BLOCK_LIMIT
    with pytest.raises(ConvergenceFailure, match="NaN"):
        solve_all(sys_)


def test_deflation_space_is_islands_cut_by_boxes(rng, pcg_route):
    """Z has one column per (island, box) pair that holds an o node: every
    column lies in one island and one box, every o node is in exactly one
    column, and every island with an o node, a single voxel included, has
    a column."""
    dims = (19, 10, 13)  # more than one ISLAND_BOX box along every axis
    g = make_intensity(rng.random(dims))
    voxels = rng.choice(g.n_voxels, 120, replace=False)
    sys_ = assemble(g, full_mask(dims), (voxels, rng.integers(1, 4, voxels.size)), 50.0)
    red = dirichlet._reduce(sys_)
    n_cols = red.Zt.shape[0]

    L = sys_.L_U.tocoo()
    strong = (L.row != L.col) & (-L.data > dirichlet.ISLAND_TAU)
    _, island = connected_components(
        sp.coo_matrix((L.data[strong], (L.row[strong], L.col[strong])), shape=L.shape),
        directed=False)
    box = np.column_stack(np.unravel_index(sys_.unseeded, dims, order="F")) // dirichlet.ISLAND_BOX
    pair = np.column_stack([island, box])[red.o]  # (island, box) of each o node

    Z = red.Zt.T.tocsr()
    assert np.array_equal(np.diff(Z.indptr), np.ones(red.o.size)) and (Z.data == 1).all()
    col_pairs = np.unique(np.column_stack([Z.indices, pair]), axis=0)
    assert np.array_equal(col_pairs[:, 0], np.arange(n_cols))  # one pair per column
    assert n_cols == len(np.unique(pair, axis=0))
    sizes = np.bincount(island)
    o_islands = np.unique(island[red.o])
    assert np.array_equal(np.unique(col_pairs[:, 1]), o_islands)
    # the case is not trivial: some islands are single voxels, some span boxes
    assert (sizes[o_islands] == 1).any()
    assert n_cols > len(o_islands) and len(np.unique(box, axis=0)) > 1
    assert solve_all(sys_).n_islands == n_cols


def _half_sparse_system(seed):
    """The 13-blob acceptance layout at half size (32x48x32, centres
    halved) with 99% of the labeled voxels cleared, no conflicts and beta
    1e4: a small copy of the sparse-seeds benchmark workload."""
    spec = PhantomSpec(
        dims=(32, 48, 32),
        blobs=tuple(PhantomBlob(tuple(v / 2 for v in c), k + 1, BLOB_INTENSITIES[k])
                    for k, c in enumerate(BLOB_CENTERS)),
        noise_sigma=0.01, unlabeled_fraction=0.99, seed=seed,
    )
    ph = make_phantom(spec)
    seeds = strip_conflicts(ph.annotation)[0].data.ravel(order="F")
    voxels = np.flatnonzero(seeds)
    return assemble(ph.guidance, ph.roi, (voxels, seeds[voxels]), 1e4, ph.labels)


# total CG steps per seed, about 10% above the 87, 83, 60 and 292 taken
# with island pieces; islands alone took 123, 113, 85 and 445, above every
# bound. One label of seed 35 levels off near 1e-8, so round-off in E moves
# its total from 87 to as few as 78.
SPARSE_SEEDS_MAX_STEPS = {35: 96, 51: 91, 112: 66, 7: 321}


@pytest.mark.parametrize("seed, atol", [(35, 1e-8), (51, 1e-8), (112, 1e-8), (7, 5e-12)])
def test_deflated_cg_converges_on_sparse_seeds(seed, atol, monkeypatch):
    """A deflated CG that projects z off the island space but drops the
    coarse term Z E^-1 Z^T r lets round-off build up in Z^T r until the
    iterate diverges: on each of these systems it hit a 2,000-step cap
    with a residual of 3e9 or more (4.4e6 for seed 7 at a relative 1e-12,
    about an absolute 5e-12). The A-DEF2 step keeps the coarse term, and
    they converge."""
    monkeypatch.setattr(dirichlet, "MAX_ITERS_CAP", 2000)
    monkeypatch.setattr(dirichlet, "CG_ATOL", atol)
    sys_ = _half_sparse_system(seed)
    field = solve_all(sys_)
    assert field.route == "pcg"
    assert sum(s.iterations for s in field.stats) <= SPARSE_SEEDS_MAX_STEPS[seed]
    assert np.abs(field.values - sparse_reference_solve(sys_)).max() <= 1e-6


def test_true_residual_decides_convergence(monkeypatch):
    """At 2e-15 the recursive residual of this system meets CG_ATOL well
    before the step cap while the true one, b - S x, is about 2.6 times
    CG_ATOL: round-off in the recursion. The label is judged on the true
    residual and fails."""
    monkeypatch.setattr(dirichlet, "MAX_ITERS_CAP", 2000)
    monkeypatch.setattr(dirichlet, "CG_ATOL", 2e-15)
    with pytest.raises(ConvergenceFailure) as exc:
        solve_all(_half_sparse_system(7))
    assert exc.value.iterations < 2000
    assert exc.value.residual > 2e-15
