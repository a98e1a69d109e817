"""Combinatorial Dirichlet solver for seeded label probabilities.

Minimizing the discrete Dirichlet energy  1/2 * sum_ij w_ij (x_i - x_j)^2
with seeded nodes held fixed splits the graph Laplacian L into blocks over
seeded (S) and unseeded (U) nodes; the unknown values per label solve

    L_U x = -B m_label

where L_U is the U-U block, B the U-S coupling block, and m_label the
one-hot indicator of the label over the seeds. Row sums of [L_U | B] are
zero by construction.

Nodes of a component with no seed (a pocket) join neither S nor U, so L_U
is always SPD: a walker there never reaches a seed. The solvers return x_U
only, one row per unseeded node in `unseeded` order; seeds and pockets have
no row, and their voxels are the caller's to fill.

Per label the system is solved with Jacobi-preconditioned conjugate
gradients; the last label is recovered by simplex closure (1 minus the
others), which keeps per-node sums at exactly 1. A dense LAPACK-based
reference solver is provided for testing.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceFailure, NoSeeds, TooLarge
from .lattice import LatticeGraph, connected_components
from .volume import LabelSet

log = logging.getLogger(__name__)

#: Iteration cap regardless of system size.
MAX_ITERS_CAP = 100_000

#: Tolerated probability drift outside [0, 1] before clamping.
PROB_EPS = 1e-6

#: Drift beyond this aborts: the solver is misconfigured, not just inexact.
PROB_HARD_LIMIT = 1e-4


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances for the Jacobi-preconditioned conjugate-gradient solver.

    rel_tol applies to the preconditioned residual norm relative to the
    preconditioned right-hand side. max_iters defaults to
    ``min(10 * n_unseeded, 100_000)`` when left unset.
    """

    rel_tol: float = 1e-8
    max_iters: int | None = None

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")

    def resolve_max_iters(self, n_unseeded: int) -> int:
        if self.max_iters is not None:
            return self.max_iters
        return max(1, min(10 * n_unseeded, MAX_ITERS_CAP))


@dataclass(frozen=True)
class LabelSolveStats:
    """Per-label iteration count and achieved relative residual."""

    label_id: int
    iterations: int
    residual: float
    closure: bool = False  # recovered as 1 - sum(others), no solve ran


@dataclass(frozen=True)
class DirichletSystem:
    """Partitioned Laplacian system over a lattice graph.

    seed_nodes/seed_labels are sorted by node id; `unseeded` holds the other
    nodes of seeded components ascending, so pocket nodes are in neither.
    L_U rows/cols follow `unseeded` order, B columns follow `seed_nodes`
    order. `label_ids` ascend.
    """

    graph: LatticeGraph
    seed_nodes: np.ndarray
    seed_labels: np.ndarray
    unseeded: np.ndarray
    L_U: sp.csr_matrix
    B: sp.csr_matrix
    label_ids: tuple[int, ...]
    component_of_node: np.ndarray
    seedless_components: tuple[int, ...]

    def __post_init__(self):
        for name in ("seed_nodes", "seed_labels", "unseeded", "component_of_node"):
            getattr(self, name).setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes

    @property
    def n_unseeded(self) -> int:
        return int(self.unseeded.size)

    @property
    def n_components(self) -> int:
        return int(self.component_of_node.max()) + 1 if self.n_nodes else 0


@dataclass(frozen=True)
class ProbabilityField:
    """Label probabilities of the unseeded nodes, columns over labels.

    Rows follow `DirichletSystem.unseeded`; seeds and seedless pockets have
    no row. Rows sum to 1 and lie in [0, 1] up to solver tolerance
    (clamped).
    """

    values: np.ndarray  # float64 (n_unseeded, m)
    label_ids: tuple[int, ...]
    stats: tuple[LabelSolveStats, ...] = field(default=())

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def n_labels(self) -> int:
        return len(self.label_ids)

    def column(self, label_id: int) -> np.ndarray:
        return self.values[:, self.label_ids.index(int(label_id))]


def _coerce_seeds(seeds) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(seeds, Mapping):
        if not seeds:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        nodes = np.fromiter(seeds.keys(), dtype=np.int64, count=len(seeds))
        labels = np.fromiter(seeds.values(), dtype=np.int64, count=len(seeds))
    else:
        nodes, labels = seeds
        nodes = np.asarray(nodes, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
    if nodes.shape != labels.shape:
        raise ValueError("seed nodes and labels must have equal length")
    return nodes, labels


def assemble(
    graph: LatticeGraph,
    seeds,
    labels: LabelSet | None = None,
) -> DirichletSystem:
    """Partition the graph Laplacian around fixed seed nodes.

    Parameters
    ----------
    seeds : mapping node_id -> label_id, or (node_ids, label_ids) arrays
    labels : optional LabelSet
        Declares the full label universe (and validates seed labels).
        Without it the label set is the sorted unique seed labels.

    Raises
    ------
    NoSeeds
        If no seed is given.
    """
    seed_nodes, seed_labels = _coerce_seeds(seeds)
    if seed_nodes.size == 0:
        raise NoSeeds("at least one seeded node is required")
    n = graph.n_nodes
    if seed_nodes.min() < 0 or seed_nodes.max() >= n:
        raise ValueError("seed node id out of range")
    if labels is not None:
        stray = np.setdiff1d(seed_labels, np.asarray(labels.ids))
        if stray.size:
            raise ValueError(f"seed labels {stray.tolist()} not in label set")
        label_ids = labels.ids
    else:
        label_ids = tuple(int(v) for v in np.unique(seed_labels))
    if min(label_ids) <= 0:
        raise ValueError("seed labels must be strictly positive")

    order = np.argsort(seed_nodes)
    seed_nodes = seed_nodes[order]
    seed_labels = seed_labels[order]
    if (seed_nodes[1:] == seed_nodes[:-1]).any():
        raise ValueError("duplicate seed nodes")

    comp = connected_components(graph)
    has_seed = np.zeros(int(comp.max()) + 1, dtype=bool)
    has_seed[comp[seed_nodes]] = True
    seedless = tuple(int(c) for c in np.flatnonzero(~has_seed))

    # no edge leaves a pocket, so its nodes stay out of L_U and B alike
    solved_mask = has_seed[comp]
    solved_mask[seed_nodes] = False
    unseeded = np.flatnonzero(solved_mask)
    n_u, n_s = unseeded.size, seed_nodes.size

    u_of = np.full(n, -1, dtype=np.int64)
    u_of[unseeded] = np.arange(n_u)
    s_of = np.full(n, -1, dtype=np.int64)
    s_of[seed_nodes] = np.arange(n_s)

    ei, ej, w = graph.edges_i, graph.edges_j, graph.weights
    deg = graph.degrees()

    i_un = solved_mask[ei]
    j_un = solved_mask[ej]

    both = i_un & j_un
    rows_uu = u_of[ei[both]]
    cols_uu = u_of[ej[both]]
    w_uu = w[both]

    diag = deg[unseeded]
    L_U = sp.coo_matrix(
        (
            np.concatenate([diag, -w_uu, -w_uu]),
            (
                np.concatenate([np.arange(n_u), rows_uu, cols_uu]),
                np.concatenate([np.arange(n_u), cols_uu, rows_uu]),
            ),
        ),
        shape=(n_u, n_u),
    ).tocsr()

    us = i_un & ~j_un  # unseeded i, seeded j
    su = ~i_un & j_un  # seeded i, unseeded j
    rows_b = np.concatenate([u_of[ei[us]], u_of[ej[su]]])
    cols_b = np.concatenate([s_of[ej[us]], s_of[ei[su]]])
    w_b = np.concatenate([w[us], w[su]])
    B = sp.coo_matrix((-w_b, (rows_b, cols_b)), shape=(n_u, n_s)).tocsr()

    return DirichletSystem(
        graph=graph,
        seed_nodes=seed_nodes,
        seed_labels=seed_labels,
        unseeded=unseeded,
        L_U=L_U,
        B=B,
        label_ids=label_ids,
        component_of_node=comp,
        seedless_components=seedless,
    )


def _pcg(A, b, minv, rel_tol, max_iters):
    """Jacobi-preconditioned CG; returns (x, iterations, relative residual).

    Stops when ||M^-1 r|| <= rel_tol * ||M^-1 b||.
    """
    scale = np.linalg.norm(minv * b)
    stop = rel_tol * scale
    x = np.zeros_like(b)
    r = b.copy()
    z = minv * r
    p = z.copy()
    rz = float(r @ z)
    res = np.linalg.norm(z)
    iters = 0
    while res > stop and iters < max_iters:
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise ConvergenceFailure(
                f"CG breakdown (p'Ap = {pAp}); system is not positive definite",
                iterations=iters,
                residual=res / scale,
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = minv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        res = np.linalg.norm(z)
        iters += 1
    return x, iters, res / scale


def _solve_one(sys: DirichletSystem, label: int, cfg: SolverConfig):
    m_vec = (sys.seed_labels == int(label)).astype(np.float64)
    n_u = sys.n_unseeded
    if n_u == 0:
        return np.empty(0), LabelSolveStats(int(label), 0, 0.0)
    rhs = -(sys.B @ m_vec)
    if not rhs.any():
        return np.zeros(n_u), LabelSolveStats(int(label), 0, 0.0)
    minv = 1.0 / sys.L_U.diagonal()
    max_iters = cfg.resolve_max_iters(n_u)
    x, iters, res = _pcg(sys.L_U, rhs, minv, cfg.rel_tol, max_iters)
    if res > cfg.rel_tol:
        raise ConvergenceFailure(
            f"label {label}: residual {res:.3e} > rel_tol {cfg.rel_tol:.3e} "
            f"after {iters} iterations",
            iterations=iters,
            residual=res,
        )
    return x, LabelSolveStats(int(label), iters, float(res))


def solve_label(
    sys: DirichletSystem, label: int, cfg: SolverConfig = SolverConfig()
) -> np.ndarray:
    """Probabilities of one label over the unseeded nodes.

    Returns the solution of ``L_U x = -B m_label``, ordered like
    `sys.unseeded`; a label with no seeds anywhere yields the zero vector
    without iterating. Seeds and nodes of seedless components are not in
    `sys.unseeded` and have no entry.

    Raises
    ------
    ConvergenceFailure
        If the iteration cap is hit (the achieved residual is attached).
    """
    x, _ = _solve_one(sys, label, cfg)
    return x


def solve_all(
    sys: DirichletSystem,
    cfg: SolverConfig = SolverConfig(),
    workers: int = 1,
) -> ProbabilityField:
    """Probabilities of every label over the unseeded nodes.

    Returns values of shape (n_unseeded, m), rows ordered like
    `sys.unseeded`. Solves m - 1 labels independently (optionally in
    `workers` threads) and closes the simplex by assigning the remaining
    mass to the largest label id. Tiny negative drift is clamped to [0, 1];
    rows whose sum moved more than 1e-6 from 1 are renormalized (logged).
    Drift beyond 1e-4 raises: that indicates a misconfigured solve, not
    roundoff.
    """
    label_ids = sys.label_ids
    head = label_ids[:-1] if sys.n_unseeded else ()
    if workers > 1 and len(head) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda lab: _solve_one(sys, lab, cfg), head))
    else:
        results = [_solve_one(sys, lab, cfg) for lab in head]
    values = np.empty((sys.n_unseeded, len(label_ids)))
    for k, (x, _) in enumerate(results):
        values[:, k] = x
    values[:, -1] = 1.0 - values[:, :-1].sum(axis=1)
    stats = [st for _, st in results]
    stats += [LabelSolveStats(lab, 0, 0.0, closure=True) for lab in label_ids[len(head):]]
    _finalize_probabilities(values)
    return ProbabilityField(values, label_ids, tuple(stats))


def _finalize_probabilities(values: np.ndarray) -> None:
    """Clamp tiny out-of-range drift in-place and renormalize drifted rows."""
    worst = max(float(-values.min(initial=0.0)), float(values.max(initial=1.0) - 1.0))
    if worst > PROB_HARD_LIMIT:
        raise ConvergenceFailure(
            f"probabilities violate [0, 1] by {worst:.3e} (> {PROB_HARD_LIMIT:.0e}); "
            "solver output is unusable"
        )
    np.clip(values, 0.0, 1.0, out=values)
    sums = values.sum(axis=1)
    drifted = np.abs(sums - 1.0) > PROB_EPS
    if drifted.any():
        log.warning(
            "renormalizing %d node rows with probability drift > %g",
            int(drifted.sum()),
            PROB_EPS,
        )
        values[drifted] /= sums[drifted, None]


def dense_reference_solve(sys: DirichletSystem) -> ProbabilityField:
    """Ground-truth field via dense LAPACK factorization; test oracle only.

    Solves every label directly (no closure) on the densified L_U; values
    have shape (n_unseeded, m), rows ordered like `sys.unseeded`.

    Raises
    ------
    TooLarge
        If the system has more than 4096 unseeded nodes.
    """
    n_u = sys.n_unseeded
    if n_u > 4096:
        raise TooLarge(f"{n_u} unseeded nodes exceeds the dense limit of 4096")
    label_ids = sys.label_ids
    n_s = sys.seed_nodes.size
    M = np.zeros((n_s, len(label_ids)))
    M[np.arange(n_s), np.searchsorted(label_ids, sys.seed_labels)] = 1.0
    values = np.linalg.solve(sys.L_U.toarray(), -(sys.B @ M))
    stats = tuple(LabelSolveStats(lab, 0, 0.0) for lab in label_ids)
    return ProbabilityField(values, label_ids, stats)
