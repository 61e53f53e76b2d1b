import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcheck.geometry import (
    CubeCover,
    DomainSpec,
    GeometryError,
    GridMask,
    cube_cover,
    distance_to_complement,
    inner_domain,
    load_domain,
    load_mask,
    membership,
    rasterize,
)

from conftest import random_mask


def brute_force_distance(mask):
    """Nearest non-interior lattice node, by exhaustive search on a padded
    lattice (padding beyond one ring cannot get closer)."""
    nx, ny = mask.dims
    pad = max(nx, ny) + 1
    big = np.zeros((nx + 2 * pad, ny + 2 * pad), dtype=bool)
    big[pad:-pad, pad:-pad] = mask.interior
    outside = np.argwhere(~big) - pad
    out = np.zeros(mask.dims)
    for i, j in np.argwhere(mask.interior):
        out[i, j] = np.sqrt(((outside - [i, j]) ** 2).sum(axis=1).min()) * mask.h
    return out


class TestMembership:
    def test_rectangle_interior_point(self):
        assert membership(DomainSpec.rectangle(1, 1), (0.5, 0.5))

    def test_disk_boundary_point_excluded(self):
        assert not membership(DomainSpec.disk(1), (1.0, 0.0))

    def test_cusp_above_curve(self):
        # x^-2 = 0.25 < 0.3
        assert not membership(DomainSpec.cusp(2, 10), (2.0, 0.3))
        assert membership(DomainSpec.cusp(2, 10), (2.0, 0.2))

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            membership(DomainSpec.interval(1.0), (0.5, 0.5))

    def test_union_with_offsets(self):
        u = DomainSpec.union(
            [DomainSpec.rectangle(1, 1), DomainSpec.disk(0.5)],
            [(0, 0), (3, 0)],
        )
        assert membership(u, (0.5, 0.5))
        assert membership(u, (3.1, 0.1))
        assert not membership(u, (2.0, 0.0))


class TestVolume:
    def test_rectangle(self):
        assert DomainSpec.rectangle(1, 1).volume == 1.0

    def test_disk(self):
        assert DomainSpec.disk(1).volume == pytest.approx(math.pi)

    def test_cusp_truncated_and_deficit(self):
        c = DomainSpec.cusp(2.0, 10.0)
        # untruncated area 1/(p-1) = 1, tail deficit 1/10
        assert c.volume + c.volume_deficit() == pytest.approx(1.0)
        assert c.volume_deficit() == pytest.approx(0.1)

    def test_union_additive(self):
        u = DomainSpec.union(
            [DomainSpec.rectangle(1, 2), DomainSpec.rectangle(3, 1)],
            [(0, 0), (5, 0)],
        )
        assert u.volume == 2.0 + 3.0

    def test_union_overlap_rejected(self):
        with pytest.raises(GeometryError):
            DomainSpec.union(
                [DomainSpec.rectangle(1, 1), DomainSpec.rectangle(1, 1)],
                [(0, 0), (0.5, 0)],
            )

    def test_union_without_parts_rejected(self):
        with pytest.raises(GeometryError):
            DomainSpec.union([], [])

    def test_invalid_cusp(self):
        with pytest.raises(GeometryError):
            DomainSpec.cusp(1.0, 10.0)


class TestRasterize:
    def test_unit_square_coarse(self):
        mask = rasterize(DomainSpec.rectangle(1, 1), 0.25)
        assert mask.n_nodes == 9

    def test_unit_square_fine(self):
        mask = rasterize(DomainSpec.rectangle(1, 1), 1 / 64)
        assert mask.n_nodes == 63 * 63

    def test_disk_volume_convergence(self):
        mask = rasterize(DomainSpec.disk(1), 1 / 64)
        assert abs(mask.volume() - math.pi) / math.pi < 0.03

    def test_square_volume_band(self):
        for h in (1 / 16, 1 / 32, 1 / 64):
            mask = rasterize(DomainSpec.rectangle(1, 1), h)
            assert abs(mask.volume() - 1.0) <= 4 * h

    def test_empty_mask_is_error(self):
        with pytest.raises(GeometryError):
            rasterize(DomainSpec.rectangle(0.1, 0.1), 1.0)

    def test_all_nodes_pass_membership(self):
        spec = DomainSpec.disk(1)
        mask = rasterize(spec, 1 / 16)
        for x, y in mask.node_coords():
            assert membership(spec, (x, y))

    def test_cusp_node_on_graph_is_outside(self):
        mask = rasterize(DomainSpec.cusp(2, 4), 0.25)
        assert not mask.interior[4, 1]  # node (2, 0.25) lies on y = x^-2
        assert mask.interior[1, 1]  # node (1.25, 0.25) lies below it

    def test_union_shared_edge_nodes_outside(self):
        spec = DomainSpec.union([DomainSpec.rectangle(1, 1)] * 2, [(0, 0), (1, 0)])
        mask = rasterize(spec, 0.25)
        assert mask.dims == (9, 5)
        assert not mask.interior[4].any()  # the column x = 1
        assert mask.n_nodes == 2 * 9

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), h=st.sampled_from([1.0, 0.1, 0.01, 1 / 64]))
    def test_raster_round_trip(self, seed, h):
        mask = random_mask(seed, dims=(13, 8), h=h)
        again = rasterize(DomainSpec.raster(mask), h)
        assert (again.h, again.origin, again.dims) == (mask.h, mask.origin, mask.dims)
        assert np.array_equal(again.interior, mask.interior)


class TestDistanceTransform:
    def test_single_node(self):
        mask = GridMask(1.0, (0, 0), (1, 1), np.array([[True]]))
        assert distance_to_complement(mask)[0, 0] == pytest.approx(1.0)

    def test_square_center(self):
        mask = rasterize(DomainSpec.rectangle(1, 1), 1 / 64)
        d = distance_to_complement(mask)
        center = d[31, 31]
        assert abs(center - 0.5) <= 1 / 64

    def test_strip_middle_row(self):
        interior = np.zeros((7, 3), dtype=bool)
        interior[:, :] = True
        mask = GridMask(1.0, (0, 0), (7, 3), interior)
        d = distance_to_complement(mask)
        assert d[3, 1] == pytest.approx(2.0)
        assert np.allclose(d[3, (0, 2)], 1.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_brute_force(self, seed):
        mask = random_mask(seed, dims=(12, 9), fill=0.6, h=0.5)
        d = distance_to_complement(mask)
        bf = brute_force_distance(mask)
        assert np.allclose(d[mask.interior], bf[mask.interior])


class TestInnerDomain:
    def test_eta_zero_identity(self):
        mask = rasterize(DomainSpec.rectangle(1, 1), 1 / 64)
        assert inner_domain(mask, 0.0) is mask

    def test_quarter_inset(self):
        mask = rasterize(DomainSpec.rectangle(1, 1), 1 / 64)
        inner = inner_domain(mask, 0.25)
        assert abs(inner.volume() - 0.25) < 0.05
        coords = inner.node_coords()
        assert coords[:, 0].min() > 0.25 and coords[:, 0].max() < 0.75

    def test_eta_beyond_inradius_empty(self):
        mask = rasterize(DomainSpec.rectangle(1, 1), 1 / 64)
        assert inner_domain(mask, 0.6).n_nodes == 0

    def test_monotone_and_exceeds_eta(self):
        mask = random_mask(3, dims=(16, 16), h=0.25)
        d = distance_to_complement(mask)
        prev = None
        for eta in (0.1, 0.3, 0.6):
            inner = inner_domain(mask, eta)
            assert inner.is_submask_of(mask)
            assert np.all(d[inner.interior] > eta)
            if prev is not None:
                assert inner.is_submask_of(prev)
            prev = inner

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), eta=st.floats(0.01, 3.0))
    def test_retained_nodes_beat_brute_force_distance(self, seed, eta):
        mask = random_mask(seed, dims=(10, 10), fill=0.7, h=1.0)
        inner = inner_domain(mask, eta)
        bf = brute_force_distance(mask)
        assert np.all(bf[inner.interior] > eta)


class TestCubeCover:
    def test_exact_tiling_of_unit_square(self):
        cover = cube_cover(DomainSpec.rectangle(1, 1), math.sqrt(2) / 4)
        assert len(cover.corners) == 16
        assert cover.covered_volume == pytest.approx(1.0)

    def test_disk_covers_most_area(self):
        cover = cube_cover(DomainSpec.disk(1), 0.05 * math.sqrt(2))
        assert cover.covered_volume >= 0.9 * math.pi

    def test_eta_beyond_diameter(self):
        cover = cube_cover(DomainSpec.rectangle(1, 1), 5.0)
        assert len(cover.corners) == 0

    def test_cubes_inside_domain(self):
        spec = DomainSpec.disk(1)
        cover = cube_cover(spec, 0.2 * math.sqrt(2))
        offs = (np.arange(10) + 0.5) / 10 * cover.side
        for x0, y0 in cover.corners:
            for dx in offs:
                for dy in offs:
                    assert membership(spec, (x0 + dx, y0 + dy))

    def test_cube_over_raster_hole_dropped(self):
        square = rasterize(DomainSpec.rectangle(1, 1), 0.01)
        keep = np.ones(square.dims, dtype=bool)
        keep[36, 36] = False  # one-node hole at (0.36, 0.36)
        cover = cube_cover(DomainSpec.raster(square.restrict(keep)), 0.2 * math.sqrt(2))
        # the 3 x 3 cubes of side 0.2 in [0.2, 0.8]^2, less the one over the hole
        assert len(cover.corners) == 8
        assert not np.any(np.all(np.abs(cover.corners - 0.2) < 1e-9, axis=1))

    def test_union_cube_across_shared_edge_dropped(self):
        spec = DomainSpec.union([DomainSpec.rectangle(1, 1)] * 2, [(0, 0), (1, 0)])
        cover = cube_cover(spec, 0.3 * math.sqrt(2))
        # the column of cubes over (0.9, 1.2) contains the edge x = 1,
        # which belongs to neither part
        x0 = cover.corners[:, 0]
        assert np.all((x0 + cover.side <= 1) | (x0 >= 1))
        assert len(cover.corners) == 9 + 6

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_raster_box_test_matches_brute_force(self, seed):
        mask = random_mask(seed, dims=(6, 5), fill=0.8)
        spec = DomainSpec.raster(mask)
        nx, ny = mask.dims
        # A box lies inside iff every node cell it meets is interior. The
        # point of the box nearest a node's center lies in that node's cell
        # whenever the cell meets the box, so the nearest-node lookup at
        # these points decides both ways. Corners and sides are multiples
        # of 1/16, so every comparison is exact and eps is below any gap.
        ci, cj = np.meshgrid(np.arange(-1, nx + 1), np.arange(-1, ny + 1))
        ci, cj = ci.ravel(), cj.ravel()
        x0 = np.arange(-2.0, nx + 0.5, 1 / 16)[:, None]
        y0 = np.arange(-2.0, ny + 0.5, 1 / 16)[None, :]
        eps = 1e-3
        for side in (1 / 16, 5 / 16, 0.5, 9 / 16, 1.0, 23 / 16, 2.5):
            x1, y1 = x0 + side, y0 + side
            px = np.clip(ci, x0[..., None] + eps, x1[..., None] - eps)
            py = np.clip(cj, y0[..., None] + eps, y1[..., None] - eps)
            brute = spec.contains(px, py).all(axis=-1)
            assert np.array_equal(spec.contains_box(x0, y0, x1, y1), brute)

    def test_real_cubes_do_not_overhang(self):
        # side fl(0.05) is slightly above 1/20, so the 20th real cube
        # [19 * side, 20 * side] ends past x = 1 in each row and column:
        # 39 of the 400 float-rounded cubes overhang, 19 x 19 remain
        cover = cube_cover(DomainSpec.rectangle(1, 1), 0.05 * math.sqrt(2))
        assert len(cover.corners) == 361

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0), (0.7, 1.3)])
    @pytest.mark.parametrize("eta", [0.05 * math.sqrt(2), 0.1 * math.sqrt(2),
                                     0.1, 0.07, math.sqrt(2) / 4,
                                     0.3 * math.sqrt(2)])
    def test_real_cubes_inside_rectangle(self, a, b, eta):
        # every kept cube [i s, (i+1) s] x [j s, (j+1) s] lies in the closed
        # rectangle in exact rational arithmetic
        cover = cube_cover(DomainSpec.rectangle(a, b), eta)
        side = Fraction(cover.side)
        assert len(cover.corners)
        for x0, y0 in cover.corners:
            i, j = round(x0 / cover.side), round(y0 / cover.side)
            assert (x0, y0) == (i * cover.side, j * cover.side)
            assert 0 <= i * side and (i + 1) * side <= Fraction(a)
            assert 0 <= j * side and (j + 1) * side <= Fraction(b)

    def test_disk_box_decided_exactly(self):
        # fl(0.6)^2 + fl(0.8)^2 exceeds 1 by 4.4e-17, which the rounded sum
        # loses; a corner exactly on the closed circle stays inside
        assert not DomainSpec.disk(1.0).contains_box(0.5, 0.7, 0.6, 0.8)
        assert DomainSpec.disk(5.0).contains_box(0.0, 0.0, 3.0, 4.0)

    @pytest.mark.parametrize("eta, cubes", [(0.018856180831641266, 17356),
                                            (0.07, 1200)])
    def test_real_cubes_inside_disk(self, eta, cubes):
        # every kept cube lies in the closed unit disk in exact rational
        # arithmetic; at the finer eta, 8 more cubes pass in floating point
        cover = cube_cover(DomainSpec.disk(1.0), eta)
        assert len(cover.corners) == cubes
        side = Fraction(cover.side)
        for x0, y0 in cover.corners:
            i, j = round(x0 / cover.side), round(y0 / cover.side)
            far_x = max(abs(i * side), abs((i + 1) * side))
            far_y = max(abs(j * side), abs((j + 1) * side))
            assert far_x * far_x + far_y * far_y <= 1

    def test_cubes_disjoint_lattice(self):
        cover = cube_cover(DomainSpec.disk(1), 0.3 * math.sqrt(2))
        scaled = cover.corners / cover.side
        assert np.allclose(scaled, np.round(scaled))
        assert len(np.unique(np.round(scaled), axis=0)) == len(cover.corners)


class TestDomainFiles:
    def test_round_trip_rectangle(self, tmp_path):
        f = tmp_path / "dom.json"
        f.write_text('{"kind": "rectangle", "a": 1.0, "b": 2.0}')
        spec = load_domain(f)
        assert spec.kind == "rectangle" and spec.volume == 2.0

    def test_union_file(self, tmp_path):
        f = tmp_path / "dom.json"
        f.write_text(
            '{"kind": "union", "parts": ['
            '{"kind": "rectangle", "a": 1, "b": 1, "offset": [0, 0]},'
            '{"kind": "disk", "r": 0.5, "offset": [3, 0]}]}'
        )
        spec = load_domain(f)
        assert spec.volume == pytest.approx(1 + math.pi / 4)

    def test_malformed_json(self, tmp_path):
        f = tmp_path / "dom.json"
        f.write_text("{nope")
        with pytest.raises(GeometryError):
            load_domain(f)

    def test_missing_field(self, tmp_path):
        f = tmp_path / "dom.json"
        f.write_text('{"kind": "rectangle", "a": 1.0}')
        with pytest.raises(GeometryError):
            load_domain(f)

    def test_ascii_mask(self, tmp_path):
        f = tmp_path / "mask.txt"
        f.write_text("..#\n###\n")
        mask = load_mask(f, 0.5)
        # text top row is the high-j row
        assert mask.n_nodes == 4
        assert bool(mask.interior[2, 1])  # '#' at text row 0, col 2
        assert not bool(mask.interior[0, 1])

    def test_pgm_mask(self, tmp_path):
        f = tmp_path / "mask.pgm"
        # '#' comments may sit between any two header tokens
        for header in (b"P5\n3 2\n255\n", b"P5# a\n3#b\n\t# c\n2 #\n255 "):
            f.write_bytes(header + bytes([0, 0, 255, 255, 255, 255]))
            mask = load_mask(f, 1.0)
            assert mask.dims == (3, 2)
            assert mask.n_nodes == 4
            assert not bool(mask.interior[0, 1]) and bool(mask.interior[0, 0])

    def test_raster_domain_file(self, tmp_path):
        (tmp_path / "mask.txt").write_text("###\n###\n")
        f = tmp_path / "dom.json"
        f.write_text('{"kind": "raster", "path": "mask.txt", "h": 0.015625}')
        spec = load_domain(f)
        assert spec.volume == pytest.approx(6 * 0.015625**2)
