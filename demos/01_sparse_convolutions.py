#!/usr/bin/env python3
"""Sparse convolutions on a cylindrical voxel grid.

Builds a small sparse tensor, runs a standard kernel and the equivalent
depthwise-separable pair over it, and compares the parameter and
multiply-add budgets of a standard and a separable layer, with the
multiply-adds counted from the tensor's rulebook.
"""

import numpy as np

from lim3d import (CylGridSpec, LayerSpec, PointCloud, build_rulebook, glorot_kernel,
                   separable_conv, submanifold_conv, topology_cost, voxelize)

rng = np.random.default_rng(0)

# A ring of points around the sensor, voxelized into an 8 x 16 x 6 grid.
n = 400
rho = rng.uniform(3.0, 9.0, n)
phi = rng.uniform(-np.pi, np.pi, n)
pc = PointCloud(
    xyz=np.column_stack([rho * np.cos(phi), rho * np.sin(phi), rng.uniform(0, 3, n)]),
    intensity=rng.uniform(size=n),
)
grid = CylGridSpec(n_rho=8, n_phi=16, n_z=6, rho_max=10.0, z_range=(-0.5, 3.5))
tensor = voxelize(pc, grid)
print(f"voxelized {n} points -> {tensor.n_active} active sites, {tensor.channels} channels")

# Submanifold property: the active set never dilates.
standard = glorot_kernel("standard", 4, 16, 3, rng)
out = submanifold_conv(tensor, standard)
print(f"standard conv: {out.n_active} active sites (unchanged: "
      f"{out.coord_set() == tensor.coord_set()}), {out.channels} channels")

# The separable pair computes a spatial pass per channel, then mixes channels.
dw = glorot_kernel("depthwise", 4, 4, 3, rng)
pw = glorot_kernel("pointwise", 4, 16, 1, rng, bias=True)
sep = separable_conv(tensor, dw, pw)
print(f"separable conv: {sep.n_active} active sites, {sep.channels} channels")

# Cost accounting at a realistic layer width. A separable layer runs a
# bias-free depthwise kernel, then a pointwise mix (`lim3d.layer_kernels`).
sites, pairs = tensor.n_active, build_rulebook(tensor.coords, grid, 3).n_pairs
print(f"\n64 -> 64 channel layer over {sites} sites, {pairs} neighbour pairs:")
for kind in ("standard", "separable"):
    (row,), c = topology_cost((LayerSpec(kind, 64, 64, 3, bias=False),), sites, pairs)
    print(f"  {kind + ':':10s} {c.trainable_params:7d} params, {c.mult_adds:11,d} mult-adds")
print(f"  parameter reduction: {row['params_ratio_vs_standard']:.1f}x")
