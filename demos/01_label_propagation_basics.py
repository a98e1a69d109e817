"""Walk through the seeded Dirichlet solve on graphs small enough to check
by hand.

A random walker released at an unlabeled voxel wanders to neighbors with
probability proportional to edge weight; the chance it reaches a label-A
seed before any other seed is exactly the harmonic solution of the seeded
Laplacian system. On a uniform chain that probability is the classic
gambler's-ruin line, which makes a nice first sanity check.
"""

import numpy as np

from voxprop import LabelSet, Volume3D, assemble, edge_weight, solve_all
from voxprop.dirichlet import DIRECT_BLOCK_LIMIT

# --- edge weights -------------------------------------------------------------

print("Edge weight w = exp(-beta (g_i - g_j)^2):")
for beta, gi, gj in [(0.0, 0.2, 0.9), (10_000.0, 0.51, 0.50), (10_000.0, 0.7, 0.5)]:
    print(f"  beta={beta:>7g}  |dg|={abs(gi-gj):.2f}  ->  w = {edge_weight(gi, gj, beta):.3e}")
print("(the last one hit the 1e-10 floor: contrast edges become near-walls)\n")

# --- uniform chain: gambler's ruin ----------------------------------------------

L = 9
guidance = Volume3D(np.zeros((1, 1, L)), "intensity")
roi = Volume3D(np.ones((1, 1, L), dtype=bool), "mask")
# seeds are keyed by x-fastest flat voxel index; along this chain that is z
system = assemble(guidance, roi, {0: 1, L - 1: 2}, 0.0, LabelSet.from_ids([1, 2]))
field = solve_all(system)

# the solver returns the unseeded voxels only, in `system.unseeded` order
print(f"Uniform chain of {L} voxels, ends seeded with labels 1 and 2.")
print("voxel: " + " ".join(f"{k:>5d}" for k in system.unseeded))
print("P(1):  " + " ".join(f"{v:.3f}" for v in field.column(1)))
expected = 1.0 - system.unseeded / (L - 1)
print(f"max |solved - (1 - k/(L-1))| = {np.abs(field.column(1) - expected).max():.2e}\n")

# --- weights steer the walker ----------------------------------------------------

print("Same chain, but an intensity step in the middle (beta = 100), voxels 1..7:")
g = np.zeros((1, 1, L))
g[0, 0, L // 2 :] = 0.3  # wall between voxel 3 and 4
field = solve_all(
    assemble(Volume3D(g, "intensity"), roi, {0: 1, L - 1: 2}, 100.0, LabelSet.from_ids([1, 2]))
)
print("P(1):  " + " ".join(f"{v:.3f}" for v in field.column(1)))
print("the probability now jumps at the intensity step instead of sloping.\n")

# --- sparse LU and conjugate gradients vs dense factorization ---------------------

rng = np.random.default_rng(0)
dims = (6, 6, 6)
guidance = Volume3D(rng.random(dims), "intensity")
roi = Volume3D(np.ones(dims, dtype=bool), "mask")
seeds = {int(n): int(rng.integers(1, 4)) for n in rng.choice(guidance.n_voxels, 12, replace=False)}
system = assemble(guidance, roi, seeds, 2.0, LabelSet.from_ids([1, 2, 3]))

fast = solve_all(system)
# the same system solved densely: L_U X = -B, one column per label, since
# B sums each voxel's couplings to the seeds of every label
ref = np.linalg.solve(system.L_U.toarray(), (-system.B).toarray())
print("6x6x6 lattice, 12 random seeds, 3 labels:")
print(f"  {system.n_unseeded} unknowns in blocks of at most {system.largest_block} nodes, "
      f"so solve_all takes the {fast.route!r} route (sparse LU up to "
      f"{DIRECT_BLOCK_LIMIT} nodes per block, conjugate gradients above)")
print(f"  solve_all vs dense-factorization gap: {np.abs(fast.values - ref).max():.2e}")
