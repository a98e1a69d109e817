import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from voxprop import (
    DimMismatch,
    EmptyRoi,
    NonFiniteInput,
    W_FLOOR,
    assemble,
    edge_weight,
)
from voxprop.lattice import block_ids

from conftest import full_mask, make_intensity, make_mask


class TestEdgeWeight:
    def test_equal_intensities(self):
        assert edge_weight(0.3, 0.3, 12345.0) == 1.0

    def test_beta_zero(self):
        assert edge_weight(0.0, 123.0, 0.0) == 1.0

    def test_exp_minus_one(self):
        # beta 1e4 with a 0.01 intensity step
        w = edge_weight(0.51, 0.50, 10_000.0)
        assert w == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_floor(self):
        # exp(-1e4 * 0.04) = exp(-400) underflows well below the floor
        assert edge_weight(0.7, 0.5, 10_000.0) == W_FLOOR

    def test_symmetry(self, rng):
        for _ in range(50):
            a, b = rng.random(2)
            beta = float(rng.random() * 100)
            assert edge_weight(a, b, beta) == edge_weight(b, a, beta)

    def test_monotone_in_gap(self):
        beta = 50.0
        gaps = np.linspace(0.0, 0.5, 20)
        ws = [edge_weight(0.5, 0.5 + g, beta) for g in gaps]
        assert all(w1 > w2 for w1, w2 in zip(ws, ws[1:]))

    def test_beta_intensity_scaling_equivalence(self, rng):
        # scaling intensities by s and beta by 1/s^2 leaves weights unchanged
        g = rng.random(10)
        h = rng.random(10)
        s = 3.7
        w1 = edge_weight(g, h, 200.0)
        w2 = edge_weight(g * s, h * s, 200.0 / s**2)
        assert np.allclose(w1, w2, rtol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            edge_weight(np.nan, 0.0, 1.0)
        with pytest.raises(NonFiniteInput):
            edge_weight(0.0, np.inf, 1.0)
        with pytest.raises(NonFiniteInput):
            edge_weight(0.0, 0.0, np.nan)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            edge_weight(0.0, 0.0, -1.0)

    def test_array_input(self):
        w = edge_weight(np.zeros(3), np.array([0.0, 0.1, 0.2]), 10.0)
        assert w.shape == (3,)
        assert w[0] == 1.0


def one_seed_system(guidance, roi, beta):
    """The Dirichlet system over `roi` with one seed, at its first voxel."""
    first = int(np.flatnonzero(roi.data.ravel(order="F"))[0])
    return assemble(guidance, roi, {first: 1}, beta)


def n_edges(sys_):
    """U-U edges (stored twice off the diagonal of L_U) plus U-S edges."""
    return (sys_.L_U.nnz - sys_.n_unseeded) // 2 + sys_.B.nnz


def edge_weights(sys_):
    """One weight per edge: minus the entries above the diagonal of L_U, and of B."""
    coo = sys_.L_U.tocoo()
    return -np.concatenate([coo.data[coo.row < coo.col], sys_.B.data])


class TestBuildLattice:
    """The lattice `assemble` builds over the roi: input checks, voxel
    addressing, edges and weights. One seed leaves every other voxel of a
    connected roi unseeded, so all of its edges are in L_U or B."""

    def test_path_graph(self):
        sys_ = one_seed_system(make_intensity(np.zeros((1, 1, 3))), full_mask((1, 1, 3)), 1.0)
        assert sys_.n_unseeded + 1 == 3
        assert n_edges(sys_) == 2

    def test_full_box_counts(self):
        sys_ = one_seed_system(make_intensity(np.zeros((3, 3, 3))), full_mask((3, 3, 3)), 1.0)
        assert sys_.n_unseeded + 1 == 27
        assert n_edges(sys_) == 54  # 3 * (2*3*3) axis-aligned pairs

    def test_box_edge_count_formula(self, rng):
        for _ in range(5):
            a, b, c = (int(v) for v in rng.integers(1, 7, size=3))
            g = make_intensity(np.zeros((a, b, c)))
            sys_ = one_seed_system(g, full_mask((a, b, c)), 0.0)
            expect = (a - 1) * b * c + a * (b - 1) * c + a * b * (c - 1)
            assert n_edges(sys_) == expect

    def test_disconnected_voxels(self):
        roi = np.zeros((3, 3, 3), bool)
        roi[0, 0, 0] = roi[2, 2, 2] = True
        sys_ = one_seed_system(make_intensity(np.zeros((3, 3, 3))), make_mask(roi), 1.0)
        assert sys_.n_unseeded == 0 and n_edges(sys_) == 0
        assert sys_.pocket_voxels.tolist() == [26]

    def test_node_order_x_fastest(self):
        # flat indices scan x first: (0,0,0)=0, (1,0,0)=1, (0,1,0)=2, (1,1,0)=3
        sys_ = one_seed_system(make_intensity(np.zeros((2, 2, 1))), full_mask((2, 2, 1)), 0.0)
        assert sys_.unseeded.tolist() == [1, 2, 3]
        # 1 and 2 are diagonal, so not neighbours; both neighbour 0 and 3
        assert sys_.L_U.toarray().tolist() == [[2, 0, -1], [0, 2, -1], [-1, -1, 2]]
        assert sys_.B.toarray().tolist() == [[-1], [-1], [0]]

    def test_empty_roi(self):
        with pytest.raises(EmptyRoi):
            assemble(
                make_intensity(np.zeros((2, 2, 2))),
                make_mask(np.zeros((2, 2, 2), bool)),
                {0: 1},
                1.0,
            )

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            assemble(make_intensity(np.zeros((2, 2, 2))), full_mask((3, 3, 3)), {0: 1}, 1.0)

    def test_nonfinite_guidance(self):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            assemble(make_intensity(data), full_mask((2, 2, 2)), {1: 1}, 1.0)

    def test_nonfinite_outside_roi_allowed(self):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = np.nan
        roi = np.ones((2, 2, 2), bool)
        roi[0, 0, 0] = False
        sys_ = one_seed_system(make_intensity(data), make_mask(roi), 1.0)
        assert sys_.n_unseeded + 1 == 7
        assert np.isfinite(sys_.L_U.data).all() and np.isfinite(sys_.B.data).all()

    def test_all_weights_in_unit_interval(self, rng):
        g = make_intensity(rng.random((4, 4, 4)))
        w = edge_weights(one_seed_system(g, full_mask((4, 4, 4)), 1e4))
        assert w.size == 144
        assert (w >= W_FLOOR).all()
        assert (w <= 1.0).all()

    def test_beta_intensity_scaling_leaves_weights_unchanged(self, rng):
        data = rng.random((4, 4, 4))
        roi = full_mask((4, 4, 4))
        s = 2.5
        s1 = one_seed_system(make_intensity(data), roi, 80.0)
        s2 = one_seed_system(make_intensity(data * s), roi, 80.0 / s**2)
        assert np.allclose(edge_weights(s1), edge_weights(s2), rtol=1e-12)


def graph(n, rows, cols):
    """The n-node sparse graph with one entry per edge (rows[i], cols[i])."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    return csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))


class TestConnectedComponents:
    """`block_ids`, the components pass that numbers the blocks of L_U."""

    def test_path_single_component(self):
        assert block_ids(graph(4, [0, 1, 2], [1, 2, 3])).tolist() == [0, 0, 0, 0]

    def test_two_isolated(self):
        assert block_ids(graph(2, [], [])).tolist() == [0, 1]

    def test_pair_plus_singleton_sizes(self):
        comp = block_ids(graph(3, [0], [1]))
        assert np.bincount(comp).tolist() == [2, 1]

    def test_ids_ordered_by_minimal_node(self):
        # a 5-path and a 2-path, edges listed from the larger node
        comp = block_ids(graph(7, [1, 2, 3, 4, 6], [0, 1, 2, 3, 5]))
        assert comp.tolist() == [0] * 5 + [1] * 2
        # node 0 alone, then nodes 1 and 3 joined, then node 2
        assert block_ids(graph(4, [3], [1])).tolist() == [0, 1, 2, 1]
