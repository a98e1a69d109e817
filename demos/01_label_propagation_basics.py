"""Walk through the seeded Dirichlet solve on graphs small enough to check
by hand.

A random walker released at an unlabeled voxel wanders to neighbors with
probability proportional to edge weight; the chance it reaches a label-A
seed before any other seed is exactly the harmonic solution of the seeded
Laplacian system. On a uniform chain that probability is the classic
gambler's-ruin line, which makes a nice first sanity check.
"""

import numpy as np

from voxprop import (
    LabelSet,
    Volume3D,
    assemble,
    build_lattice,
    dense_reference_solve,
    edge_weight,
    solve_all,
)

# --- edge weights -------------------------------------------------------------

print("Edge weight w = exp(-beta (g_i - g_j)^2):")
for beta, gi, gj in [(0.0, 0.2, 0.9), (10_000.0, 0.51, 0.50), (10_000.0, 0.7, 0.5)]:
    print(f"  beta={beta:>7g}  |dg|={abs(gi-gj):.2f}  ->  w = {edge_weight(gi, gj, beta):.3e}")
print("(the last one hit the 1e-10 floor: contrast edges become near-walls)\n")

# --- uniform chain: gambler's ruin ----------------------------------------------

L = 9
guidance = Volume3D(np.zeros((1, 1, L)), "intensity")
roi = Volume3D(np.ones((1, 1, L), dtype=bool), "mask")
graph = build_lattice(guidance, roi, beta=0.0)
system = assemble(graph, {0: 1, L - 1: 2}, LabelSet.from_ids([1, 2]))
field = solve_all(system)

# the solver returns the unseeded nodes only, in `system.unseeded` order
print(f"Uniform chain of {L} nodes, ends seeded with labels 1 and 2.")
print("node:  " + " ".join(f"{k:>5d}" for k in system.unseeded))
print("P(1):  " + " ".join(f"{v:.3f}" for v in field.column(1)))
expected = 1.0 - system.unseeded / (L - 1)
print(f"max |solved - (1 - k/(L-1))| = {np.abs(field.column(1) - expected).max():.2e}\n")

# --- weights steer the walker ----------------------------------------------------

print("Same chain, but an intensity step in the middle (beta = 100), nodes 1..7:")
g = np.zeros((1, 1, L))
g[0, 0, L // 2 :] = 0.3  # wall between node 3 and 4
graph = build_lattice(Volume3D(g, "intensity"), roi, beta=100.0)
field = solve_all(assemble(graph, {0: 1, L - 1: 2}, LabelSet.from_ids([1, 2])))
print("P(1):  " + " ".join(f"{v:.3f}" for v in field.column(1)))
print("the probability now jumps at the intensity step instead of sloping.\n")

# --- iterative solve vs dense factorization --------------------------------------

rng = np.random.default_rng(0)
dims = (6, 6, 6)
guidance = Volume3D(rng.random(dims), "intensity")
roi = Volume3D(np.ones(dims, dtype=bool), "mask")
graph = build_lattice(guidance, roi, beta=2.0)
seeds = {int(n): int(rng.integers(1, 4)) for n in rng.choice(graph.n_nodes, 12, replace=False)}
system = assemble(graph, seeds, LabelSet.from_ids([1, 2, 3]))

fast = solve_all(system)
ref = dense_reference_solve(system)
print(f"6x6x6 lattice, 12 random seeds, 3 labels:")
print(f"  conjugate-gradient vs dense-factorization gap: "
      f"{np.abs(fast.values - ref.values).max():.2e}")
for s in fast.stats:
    how = "closure" if s.closure else f"{s.iterations} iterations"
    print(f"  label {s.label_id}: {how}")
