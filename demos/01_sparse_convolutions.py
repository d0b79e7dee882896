#!/usr/bin/env python3
"""Sparse convolutions on a cylindrical voxel grid.

Builds a small sparse tensor, runs a standard kernel and the equivalent
depthwise-separable pair over it, and compares the parameter and
multiply-add budgets of a standard and a separable layer, with the
multiply-adds counted from the tensor's rulebook.
"""

from dataclasses import replace

import numpy as np

from lim3d import (ConvSpec, CylGridSpec, LayerSpec, PointCloud, apply_pointwise,
                   apply_spatial, build_rulebook, glorot_weights, topology_cost, voxelize)

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

# A convolution is its shape, a `ConvSpec`, and its weights. Each spatial
# convolution reads the tensor's rulebook: per active site, its active
# neighbours. Submanifold property: the active set never dilates.
rulebook = build_rulebook(tensor.coords, grid, 3)
standard = ConvSpec("standard", 4, 16, 3, False)
out = replace(tensor, features=apply_spatial(tensor.features, rulebook, standard,
                                             glorot_weights(standard, rng)).data)
print(f"standard conv: {out.n_active} active sites (unchanged: "
      f"{np.array_equal(out.coords, tensor.coords)}), {out.channels} channels")

# The separable pair computes a spatial pass per channel, then mixes channels.
dw, pw = ConvSpec("depthwise", 4, 4, 3, False), ConvSpec("pointwise", 4, 16, 1, True)
mid = apply_spatial(tensor.features, rulebook, dw, glorot_weights(dw, rng))
sep = apply_pointwise(mid, pw, glorot_weights(pw, rng), np.zeros(16))
print(f"separable conv: {sep.shape[0]} active sites, {sep.shape[1]} channels")

# Cost accounting at a realistic layer width. A separable layer runs a
# bias-free depthwise kernel, then a pointwise mix (`lim3d.layer_kernels`).
sites, pairs = tensor.n_active, rulebook.n_pairs
print(f"\n64 -> 64 channel layer over {sites} sites, {pairs} neighbour pairs:")
for kind in ("standard", "separable"):
    (row,), c = topology_cost((LayerSpec(kind, 64, 64, 3, bias=False),), sites, pairs)
    print(f"  {kind + ':':10s} {c.trainable_params:7d} params, {c.mult_adds:11,d} mult-adds")
print(f"  parameter reduction: {row['params_ratio_vs_standard']:.1f}x")
