"""The cylinder's exact symmetries as metamorphic properties.

A quarter turn, ``(x, y) -> (-y, x)``, and the mirror ``y -> -y`` are exact
in float32 and keep every point's rho and z. With an azimuth bin count `n`
divisible by 4, they carry bin ``i`` to ``i + n/4 (mod n)`` and to
``n - 1 - i``. `voxelize`, `coarse_histograms` and `project_range_image`
each bin the azimuth with their own copy of one rule, so each must commute
with both transforms. A turn cannot see a constant offset in a binning;
the mirror can.

Points are drawn off every azimuth bin edge: bins are half-open, so a point
on an edge may change bin under the mirror.

At the voxel level the azimuth wraps, so shifting every site's bin by k is
exact for any bin count: `build_rulebook` gives the same table with its
rows renumbered, and `predict` the same embeddings. Mirroring the bins
reverses each site's `d_phi` taps, so `predict` with its depthwise kernels
flipped along `d_phi` gives the mirrored output; the taps are then summed in
another order, so only to float32 tolerance.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lim3d import (CylGridSpec, MiniSegNet, PointCloud, ReflecConfig, SparseVoxelTensor,
                   build_rulebook, coarse_histograms, normalize_reflectivity,
                   project_range_image, reflectivity, voxelize)

# Every azimuth bin count and image width below divides SECTORS, so a point
# inside a sector is inside one bin of each.
SECTORS = 48
PHI_COUNTS = [4, 8, 12, 16, 24, 48]


class QuarterTurn:
    @staticmethod
    def points(xyz):
        return np.column_stack([-xyz[:, 1], xyz[:, 0], xyz[:, 2]])

    @staticmethod
    def phi_bins(i, n):
        return (i + n // 4) % n

    @staticmethod
    def offsets(dx, dy):
        return -dy, dx

    @staticmethod
    def image(img):
        return np.roll(img, img.shape[1] // 4, axis=1)


class Mirror:
    @staticmethod
    def points(xyz):
        return np.column_stack([xyz[:, 0], -xyz[:, 1], xyz[:, 2]])

    @staticmethod
    def phi_bins(i, n):
        return n - 1 - i

    @staticmethod
    def offsets(dx, dy):
        return dx, -dy

    @staticmethod
    def image(img):
        return img[:, ::-1]


TRANSFORMS = pytest.mark.parametrize("transform", [QuarterTurn, Mirror])

# (rho, sector, place in the sector, z, intensity, label); rho and z reach
# past the voxel grid, so some points are dropped.
POINTS = st.lists(st.tuples(st.floats(0.05, 7.0), st.integers(0, SECTORS - 1),
                            st.floats(0.05, 0.95), st.floats(-3.0, 4.0), st.floats(0.0, 1.0),
                            st.integers(0, 4)), min_size=1, max_size=60)


def cloud(points):
    rho, sector, place, z, intensity, labels = map(np.array, zip(*points))
    phi = -np.pi + (sector + place) * (2.0 * np.pi / SECTORS)
    xyz = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    extra = np.column_stack([z * intensity, np.sin(3.0 * phi)])
    return PointCloud(xyz=xyz, intensity=intensity, labels=labels, extra_features=extra)


def transformed(pc, transform):
    return PointCloud(xyz=transform.points(pc.xyz), intensity=pc.intensity, labels=pc.labels,
                      extra_features=pc.extra_features)


@TRANSFORMS
@settings(max_examples=60, deadline=None)
@given(points=POINTS, n_rho=st.integers(1, 5), n_phi=st.sampled_from(PHI_COUNTS),
       n_z=st.integers(1, 4))
def test_voxelize_commutes(transform, points, n_rho, n_phi, n_z):
    grid = CylGridSpec(n_rho, n_phi, n_z, rho_max=6.0, z_range=(-2.0, 3.0))
    pc = cloud(points)
    t, u = voxelize(pc, grid), voxelize(transformed(pc, transform), grid)

    coords = t.coords.copy()
    coords[:, 1] = transform.phi_bins(coords[:, 1], n_phi)
    order = np.argsort(grid.cell_key(*coords.T))
    np.testing.assert_array_equal(u.coords, coords[order])
    np.testing.assert_array_equal(u.labels, t.labels[order])
    # Row r of `t` is row inverse[r] of `u`; a point outside stays outside.
    inverse = np.append(np.argsort(order), t.n_active)
    np.testing.assert_array_equal(u.point_rows, inverse[t.point_rows])

    # The means of x and y map exactly, and dz, intensity and the extra
    # columns are the same numbers. The two voxel centers are computed from
    # different angles, each within an ulp of the exact turn or mirror, so
    # the offsets dx and dy may differ by that much before the float32 cast.
    want = t.features[order]
    np.testing.assert_array_equal(u.features[:, 2:], want[:, 2:])
    dx, dy = transform.offsets(want[:, 0], want[:, 1])
    np.testing.assert_allclose(u.features[:, :2], np.column_stack([dx, dy]), rtol=0, atol=1e-6)


@TRANSFORMS
@settings(max_examples=60, deadline=None)
@given(points=POINTS, n_bins=st.integers(1, 6),
       bin_grids=st.lists(st.tuples(st.integers(1, 5), st.sampled_from(PHI_COUNTS)),
                          min_size=1, max_size=3))
def test_coarse_histograms_commute(transform, points, n_bins, bin_grids):
    # A point keeps its rho and its cell's company, so its histograms are
    # the same bytes; the same reflectivity goes with both clouds.
    cfg = ReflecConfig(n_bins=n_bins, bin_grids=tuple(bin_grids))
    pc = cloud(points)
    r = normalize_reflectivity(reflectivity(pc))
    got = coarse_histograms(transformed(pc, transform), r, cfg)
    np.testing.assert_array_equal(got, coarse_histograms(pc, r, cfg))


@TRANSFORMS
@settings(max_examples=60, deadline=None)
@given(points=POINTS, width=st.sampled_from(PHI_COUNTS), height=st.integers(1, 8))
def test_range_image_commutes(transform, points, width, height):
    # Range and elevation are unchanged, so each image row moves as the
    # azimuth bins do: rolled a quarter of the width, or reversed.
    pc = cloud(points)
    got = project_range_image(transformed(pc, transform), width, height)
    np.testing.assert_array_equal(got, transform.image(project_range_image(pc, width, height)))


# ---------------------------------------------------------------------------
# Voxel level: the rulebook and the network on moved sites
# ---------------------------------------------------------------------------

SITES = dict(seed=st.integers(0, 2 ** 32 - 1), density=st.floats(0.05, 0.9),
             n_rho=st.integers(1, 4), n_phi=st.integers(1, 20), n_z=st.integers(1, 4),
             kernel_size=st.sampled_from([1, 3, 5]))


def moved_sites(seed, density, n_rho, n_phi, n_z, kernel_size, phi_bins):
    """A random tensor and the tensor with each site's azimuth bin mapped by
    `phi_bins`, each with its rulebook, and `renumber`: old row -> new row,
    the sentinel kept."""
    grid = CylGridSpec(n_rho, n_phi, n_z, rho_max=6.0, z_range=(-2.0, 3.0))
    rng = np.random.default_rng(seed)
    coords = np.argwhere(rng.random(grid.shape) < density)
    assume(len(coords))
    t = SparseVoxelTensor(grid, coords, rng.standard_normal((len(coords), 3)).astype(np.float32))
    moved = t.coords.copy()
    moved[:, 1] = phi_bins(moved[:, 1], n_phi)
    order = np.argsort(grid.cell_key(*moved.T), kind="stable")
    u = SparseVoxelTensor(grid, moved[order], t.features[order])
    renumber = np.full(len(coords) + 1, len(coords))
    renumber[order] = np.arange(len(coords))
    return ((t, build_rulebook(t.coords, grid, kernel_size)),
            (u, build_rulebook(u.coords, grid, kernel_size)), renumber)


def renumbered(rows, renumber):
    """`rows`, indexed by old row, in the order of the new rows."""
    out = np.empty_like(rows)
    out[renumber[:-1]] = rows
    return out


@pytest.mark.parametrize("k", [1, 5, 15])
@settings(max_examples=40, deadline=None)
@given(**SITES)
def test_azimuth_shift_renumbers_the_rulebook_and_predictions(k, seed, density, n_rho, n_phi,
                                                             n_z, kernel_size):
    (t, rb), (u, rb_u), renumber = moved_sites(seed, density, n_rho, n_phi, n_z, kernel_size,
                                               lambda i, n: (i + k) % n)
    np.testing.assert_array_equal(rb_u.neighbors, renumbered(renumber[rb.neighbors], renumber))

    net = MiniSegNet(3, 4, widths=(5, 6), kernel_size=kernel_size, seed=seed % 97)
    (probs, emb), (probs_u, emb_u) = net.predict(t, rb), net.predict(u, rb_u)
    np.testing.assert_array_equal(emb_u, renumbered(emb, renumber))
    # The head's matrix product may round a row differently by its position.
    np.testing.assert_allclose(probs_u, renumbered(probs, renumber), rtol=0, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(**SITES)
def test_azimuth_mirror_reverses_the_phi_taps(seed, density, n_rho, n_phi, n_z, kernel_size):
    (t, rb), (u, rb_u), renumber = moved_sites(seed, density, n_rho, n_phi, n_z, kernel_size,
                                               Mirror.phi_bins)
    d = kernel_size
    taps = rb.neighbors.reshape(-1, d, d, d)[:, :, ::-1].reshape(-1, d ** 3)
    np.testing.assert_array_equal(rb_u.neighbors, renumbered(renumber[taps], renumber))

    net = MiniSegNet(3, 4, widths=(5, 6), kernel_size=kernel_size, seed=seed % 97)
    mirrored = net.clone()  # depthwise weights are (d_rho, d_phi, d_z, channels)
    mirrored.params = [p[:, ::-1].copy() if p.ndim == 4 else p for p in net.params]
    (probs, emb), (probs_u, emb_u) = net.predict(t, rb), mirrored.predict(u, rb_u)
    np.testing.assert_allclose(emb_u, renumbered(emb, renumber), rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(probs_u, renumbered(probs, renumber), rtol=0, atol=1e-6)
