"""Planar domains of finite volume: membership, rasterization, distance
fields, inner domains and cube covers.

Domains are open sets. Membership is always strict (boundary points are
outside), which matches the extension-by-zero discretization downstream.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class GridMask:
    """Rasterization of a domain at spacing h.

    ``interior`` is a boolean array of shape ``dims`` (x index first);
    node (i, j) sits at ``origin + h * (i, j)``.
    """

    h: float
    origin: tuple[float, float]
    dims: tuple[int, int]
    interior: np.ndarray

    def __post_init__(self):
        if not 0 < self.h < math.inf:
            raise GeometryError("grid spacing must be positive and finite")
        interior = np.asarray(self.interior, dtype=bool)
        if interior.shape != tuple(self.dims):
            raise GeometryError("interior array shape does not match dims")
        object.__setattr__(self, "interior", interior)
        interior.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return int(self.interior.sum())

    def node_index(self) -> np.ndarray:
        """Dense index over interior nodes: index[i, j] in 0..N-1, -1 outside."""
        idx = -np.ones(self.dims, dtype=np.int64)
        idx[self.interior] = np.arange(self.n_nodes)
        return idx

    def node_coords(self) -> np.ndarray:
        """(N, 2) physical coordinates of the interior nodes, index order."""
        ii, jj = np.nonzero(self.interior)
        return np.stack(
            [self.origin[0] + self.h * ii, self.origin[1] + self.h * jj], axis=1
        )

    def volume(self) -> float:
        return self.n_nodes * self.h**2

    def is_submask_of(self, other: "GridMask") -> bool:
        return (
            self.h == other.h
            and self.origin == other.origin
            and self.dims == other.dims
            and bool(np.all(~self.interior | other.interior))
        )

    def restrict(self, keep: np.ndarray) -> "GridMask":
        """Submask keeping only the flagged nodes (boolean over dims)."""
        return GridMask(self.h, self.origin, self.dims, self.interior & keep)


class DomainSpec:
    """Analytic or raster description of an open set of finite volume.

    Each kind below is a frozen dataclass built by these constructors, with
    its own ``kind``, ``dimension``, ``volume``, ``volume_deficit()``,
    ``bounding_box()`` and strict membership ``contains(x, y)`` on broadcast
    arrays. 2-D kinds also decide exactly whether the open box
    (x0, x1) x (y0, y1) lies inside: ``contains_box(x0, y0, x1, y1)``.
    """

    dimension = 2

    @staticmethod
    def interval(a: float) -> "Interval":
        return Interval(float(a))

    @staticmethod
    def rectangle(a: float, b: float) -> "Rectangle":
        return Rectangle(float(a), float(b))

    @staticmethod
    def disk(r: float) -> "Disk":
        return Disk(float(r))

    @staticmethod
    def cusp(p: float, x_max: float) -> "Cusp":
        return Cusp(float(p), float(x_max))

    @staticmethod
    def union(parts, offsets) -> "Union":
        return Union(tuple(parts), tuple(tuple(map(float, o)) for o in offsets))

    @staticmethod
    def raster(mask: GridMask) -> "Raster":
        return Raster(mask)

    def volume_deficit(self) -> float:
        """Volume excluded by truncation (cusp tail beyond x_max)."""
        return 0.0


@dataclass(frozen=True)
class Interval(DomainSpec):
    """(0, a)."""

    a: float
    kind = "interval"
    dimension = 1

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise GeometryError("interval length must be positive and finite")

    @property
    def volume(self) -> float:
        return self.a

    def bounding_box(self):
        return (0.0,), (self.a,)

    def contains(self, x):
        return (0.0 < x) & (x < self.a)


@dataclass(frozen=True)
class Rectangle(DomainSpec):
    """(0, a) x (0, b)."""

    a: float
    b: float
    kind = "rectangle"

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise GeometryError("rectangle sides must be positive and finite")

    @property
    def volume(self) -> float:
        return self.a * self.b

    def bounding_box(self):
        return (0.0, 0.0), (self.a, self.b)

    def contains(self, x, y):
        return (0.0 < x) & (x < self.a) & (0.0 < y) & (y < self.b)

    def contains_box(self, x0, y0, x1, y1):
        return (0.0 <= x0) & (x1 <= self.a) & (0.0 <= y0) & (y1 <= self.b)


@dataclass(frozen=True)
class Disk(DomainSpec):
    """Disk of radius r centered at the origin."""

    r: float
    kind = "disk"

    def __post_init__(self):
        if not 0 < self.r < math.inf:
            raise GeometryError("disk radius must be positive and finite")

    @property
    def volume(self) -> float:
        return math.pi * self.r**2

    def bounding_box(self):
        return (-self.r, -self.r), (self.r, self.r)

    def contains(self, x, y):
        return x * x + y * y < self.r**2

    def contains_box(self, x0, y0, x1, y1):
        # convex and centered: the corner farthest from the origin decides
        far_x, far_y = np.broadcast_arrays(np.maximum(np.abs(x0), np.abs(x1)),
                                           np.maximum(np.abs(y0), np.abs(y1)))
        s, r2 = far_x * far_x + far_y * far_y, self.r * self.r
        inside = np.array(s <= r2)
        # s is within about eps*s of the exact sum and r2 within eps*r^2/2 of
        # r^2, plus a subnormal ulp each on underflow: outside twice that margin
        # the float comparison decides; within it, or on overflow (NaN),
        # exact rational arithmetic does
        eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
        near = ~(np.abs(s - r2) > 2 * (eps * (s + r2) + tiny))
        for i in np.flatnonzero(near):
            fx, fy = Fraction(far_x.flat[i]), Fraction(far_y.flat[i])
            inside.flat[i] = fx * fx + fy * fy <= Fraction(self.r) ** 2
        return inside


@dataclass(frozen=True)
class Cusp(DomainSpec):
    """0 < y < x^(-p), 1 < x < x_max; finite area for p > 1.

    Abscissas below 1 are clamped before the power, which keeps it finite
    and real; such points are outside anyway.
    """

    p: float
    x_max: float
    kind = "cusp"

    def __post_init__(self):
        if not (1 < self.p < math.inf and 1 < self.x_max < math.inf):
            raise GeometryError("cusp exponent and truncation must be finite "
                                "and exceed 1")

    @property
    def volume(self) -> float:
        # truncated area; the untruncated value is 1/(p-1)
        return (1.0 - self.x_max ** (1.0 - self.p)) / (self.p - 1.0)

    def volume_deficit(self) -> float:
        return self.x_max ** (1.0 - self.p) / (self.p - 1.0)

    def bounding_box(self):
        return (1.0, 0.0), (self.x_max, 1.0)

    def contains(self, x, y):
        return ((1.0 < x) & (x < self.x_max) & (0.0 < y)
                & (y < np.maximum(x, 1.0) ** -self.p))

    def contains_box(self, x0, y0, x1, y1):
        # the region lies under a decreasing graph: the top-right corner decides
        return ((1.0 <= x0) & (x1 <= self.x_max) & (0.0 <= y0)
                & (y1 <= np.maximum(x1, 1.0) ** -self.p))


@dataclass(frozen=True)
class Union(DomainSpec):
    """Parts with pairwise disjoint bounding boxes, part k translated by
    offsets[k]."""

    parts: tuple
    offsets: tuple
    kind = "union"

    def __post_init__(self):
        if not self.parts:
            raise GeometryError("union needs at least one part")
        if len(self.parts) != len(self.offsets):
            raise GeometryError("union needs one offset per part")
        if any(len(off) != 2 or not all(map(math.isfinite, off))
               for off in self.offsets):
            raise GeometryError("each union offset must be a finite pair")
        if any(part.dimension != self.dimension for part in self.parts):
            raise GeometryError("union parts must share dimension")
        for (i, (lo1, hi1)), (j, (lo2, hi2)) in combinations(
            enumerate(self._part_boxes()), 2
        ):
            if all(a < d and c < b for a, b, c, d in zip(lo1, hi1, lo2, hi2)):
                raise GeometryError(
                    f"union parts {i} and {j} have overlapping bounding boxes"
                )

    @property
    def dimension(self) -> int:
        return self.parts[0].dimension

    @property
    def volume(self) -> float:
        return sum(part.volume for part in self.parts)

    def volume_deficit(self) -> float:
        return sum(part.volume_deficit() for part in self.parts)

    def _part_boxes(self):
        return [
            tuple(tuple(c + o for c, o in zip(corner, off))
                  for corner in part.bounding_box())
            for part, off in zip(self.parts, self.offsets)
        ]

    def bounding_box(self):
        los, his = zip(*self._part_boxes())
        return tuple(map(min, zip(*los))), tuple(map(max, zip(*his)))

    def contains(self, *point):
        return np.any([part.contains(*(c - o for c, o in zip(point, off)))
                       for part, off in zip(self.parts, self.offsets)], axis=0)

    def contains_box(self, x0, y0, x1, y1):
        # an open box is connected, so it lies in the union of disjoint open
        # parts only if it lies in one of them
        return np.any([part.contains_box(x0 - ox, y0 - oy, x1 - ox, y1 - oy)
                       for part, (ox, oy) in zip(self.parts, self.offsets)], axis=0)


@dataclass(frozen=True)
class Raster(DomainSpec):
    """Union of the cells of the interior nodes of a GridMask: a point
    belongs to the cell of its nearest node."""

    mask: GridMask
    kind = "raster"

    def __post_init__(self):
        if self.mask.n_nodes == 0:
            raise GeometryError("raster domain is empty")

    @property
    def volume(self) -> float:
        return self.mask.volume()

    def bounding_box(self):
        (x0, y0), (nx, ny), h = self.mask.origin, self.mask.dims, self.mask.h
        return (x0, y0), (x0 + h * (nx - 1), y0 + h * (ny - 1))

    def _node_units(self, x, y):
        m = self.mask
        return (np.asarray(x) - m.origin[0]) / m.h, (np.asarray(y) - m.origin[1]) / m.h

    def contains(self, x, y):
        u, v = self._node_units(x, y)
        i, j = np.rint(u), np.rint(v)
        nx, ny = self.mask.dims
        on_grid = (0 <= i) & (i < nx) & (0 <= j) & (j < ny)
        return on_grid & self.mask.interior[
            np.where(on_grid, i, 0).astype(np.int64),
            np.where(on_grid, j, 0).astype(np.int64),
        ]

    def contains_box(self, x0, y0, x1, y1):
        # In node units the open box (u0, u1) x (v0, v1) meets the cells of
        # the nodes u0 - 1/2 < i < u1 + 1/2, v0 - 1/2 < j < v1 + 1/2. It lies
        # inside iff all of them are on the grid and interior, which a range
        # sum over a summed-area table of exterior nodes decides.
        nx, ny = self.mask.dims
        sat = np.zeros((nx + 1, ny + 1), dtype=np.int64)
        sat[1:, 1:] = (~self.mask.interior).cumsum(0).cumsum(1)
        u0, v0 = self._node_units(x0, y0)
        u1, v1 = self._node_units(x1, y1)
        i0 = np.floor(u0 - 0.5).astype(np.int64) + 1
        j0 = np.floor(v0 - 0.5).astype(np.int64) + 1
        i1 = np.ceil(u1 + 0.5).astype(np.int64)  # one past the last node
        j1 = np.ceil(v1 + 0.5).astype(np.int64)
        on_grid = (0 <= i0) & (i1 <= nx) & (0 <= j0) & (j1 <= ny)
        i0, i1 = np.clip(i0, 0, nx), np.clip(i1, 0, nx)
        j0, j1 = np.clip(j0, 0, ny), np.clip(j1, 0, ny)
        exterior = sat[i1, j1] - sat[i0, j1] - sat[i1, j0] + sat[i0, j0]
        return on_grid & (exterior == 0)


def membership(spec: DomainSpec, point) -> bool:
    """Strict membership in the open set."""
    point = tuple(float(c) for c in np.atleast_1d(point))
    if len(point) != spec.dimension:
        raise GeometryError(
            f"point dimension {len(point)} != domain dimension {spec.dimension}"
        )
    return bool(spec.contains(*point))


def rasterize(spec: DomainSpec, h: float) -> GridMask:
    """Node-membership rasterization: a node is interior iff its coordinate
    passes strict membership."""
    if h <= 0:
        raise GeometryError("grid spacing must be positive")
    if spec.dimension != 2:
        raise GeometryError("rasterization is 2-D only; 1-D domains are analytic")
    (xmin, ymin), (xmax, ymax) = spec.bounding_box()
    nx = int(math.floor((xmax - xmin) / h + 1e-9)) + 1
    ny = int(math.floor((ymax - ymin) / h + 1e-9)) + 1
    xs = xmin + h * np.arange(nx)
    ys = ymin + h * np.arange(ny)
    interior = spec.contains(xs[:, None], ys[None, :])
    if not interior.any():
        raise GeometryError(f"rasterization at h={h} produced an empty mask")
    return GridMask(h, (xmin, ymin), (nx, ny), interior)


def distance_to_complement(mask: GridMask) -> np.ndarray:
    """Exact Euclidean distance from each node to the nearest non-interior
    node position, in physical units; +inf-free, 0 on non-interior nodes.

    The lattice outside the bounding box is non-interior; padding by one
    ring is enough because any outer node is farther than the ring.
    """
    # imported here: scipy.ndimage adds about 0.1 s to importing the package
    from scipy.ndimage import distance_transform_edt

    if mask.n_nodes == 0:
        raise GeometryError("distance transform of an empty mask")
    return distance_transform_edt(np.pad(mask.interior, 1))[1:-1, 1:-1] * mask.h


def inner_domain(mask: GridMask, eta: float) -> GridMask:
    """Nodes at distance strictly greater than eta from the complement.

    May be empty; the caller checks ``n_nodes`` before discretizing.
    """
    if eta < 0:
        raise GeometryError("eta must be nonnegative")
    if eta == 0:
        return mask
    dist = distance_to_complement(mask)
    return GridMask(mask.h, mask.origin, mask.dims, dist > eta)


# -- cube cover ------------------------------------------------------------


@dataclass(frozen=True)
class CubeCover:
    """Disjoint lattice cubes of side eta/sqrt(n) lying inside the domain."""

    eta: float
    side: float
    corners: np.ndarray  # (m, 2) lower-left corners
    covered_volume: float


def _cube_edges(lo: float, hi: float, side: float):
    """For the lattice cubes [k*side, (k+1)*side] spanning [lo, hi] along one
    axis: the nominal corners fl(k*side), and float edges that enclose each
    real cube. An edge is fl(k*side), moved one ulp outward only where the
    product is inexact; the sign of the exact error term of Dekker's
    TwoProduct says which way it was rounded."""
    k = np.arange(math.floor(lo / side), math.ceil(hi / side) + 2, dtype=float)
    p = k * side
    # Veltkamp split of side into 26-bit halves; k has fewer bits than that
    c = 134217729.0 * side
    side_hi = c - (c - side)
    err = (k * side_hi - p) + k * (side - side_hi)  # exactly k*side - p
    below = np.where(err < 0, np.nextafter(p, -np.inf), p)
    above = np.where(err > 0, np.nextafter(p, np.inf), p)
    return p[:-1], below[:-1], above[1:]


def cube_cover(spec: DomainSpec, eta: float) -> CubeCover:
    """Cubes [i*side, (i+1)*side] x [j*side, (j+1)*side] of the single
    lattice of side eta/sqrt(2) anchored at the origin whose open interiors
    lie inside the domain, each tested exactly by ``spec.contains_box`` on
    float edges that enclose the real cube."""
    if eta <= 0:
        raise GeometryError("eta must be positive")
    if spec.dimension != 2:
        raise GeometryError("cube covers are 2-D only")
    side = eta / math.sqrt(2.0)
    (x, x0, x1), (y, y0, y1) = (_cube_edges(lo, hi, side)
                                for lo, hi in zip(*spec.bounding_box()))
    grid = partial(np.meshgrid, indexing="ij")
    inside = spec.contains_box(*grid(x0, y0), *grid(x1, y1))
    x, y = grid(x, y)
    corners = np.stack([x[inside], y[inside]], axis=1)
    return CubeCover(eta, side, corners, len(corners) * side * side)


# -- domain files ----------------------------------------------------------


# kind -> constructor from a domain-file entry
_LOADERS = {
    "interval": lambda d, base: DomainSpec.interval(d["a"]),
    "rectangle": lambda d, base: DomainSpec.rectangle(d["a"], d["b"]),
    "disk": lambda d, base: DomainSpec.disk(d["r"]),
    "cusp": lambda d, base: DomainSpec.cusp(d["p"], d["x_max"]),
    "union": lambda d, base: DomainSpec.union(
        [_domain_from_dict(p, base) for p in d["parts"]],
        [p.get("offset", (0.0, 0.0)) for p in d["parts"]],
    ),
    "raster": lambda d, base: DomainSpec.raster(
        load_mask(base / d["path"], d["h"])
    ),
}


def load_domain(path) -> DomainSpec:
    """Read a domain description from a JSON file; a raster names a PGM (P5)
    or ASCII-art file next to it. Any malformed input raises GeometryError."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, RecursionError, ValueError) as exc:  # bad JSON or UTF-8
        raise GeometryError(f"cannot read domain file {path}: {exc}") from exc
    return _domain_from_dict(data, path.parent)


def _domain_from_dict(data, base: Path) -> DomainSpec:
    kind = data.get("kind") if isinstance(data, dict) else None
    if not isinstance(kind, str) or kind not in _LOADERS:
        raise GeometryError(f"domain entry needs a 'kind' in {sorted(_LOADERS)}")
    try:
        return _LOADERS[kind](data, base)
    except GeometryError:
        raise
    except KeyError as exc:
        raise GeometryError(f"domain kind {kind!r}: missing field {exc}") from exc
    except (OSError, RecursionError, TypeError, ValueError) as exc:
        raise GeometryError(f"domain kind {kind!r}: {exc}") from exc


# "P5", width, height and maxval, each token after whitespace or '#' comments
# that run to the end of a line; one whitespace byte ends the header
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def load_mask(path, h: float) -> GridMask:
    """Binary PGM (P5) or ASCII art ('#' interior, '.' exterior)."""
    path = Path(path)
    raw = path.read_bytes()
    if raw.startswith(b"P5"):
        header = _PGM_HEADER.match(raw)
        if header is None:
            raise GeometryError(f"{path}: malformed PGM header")
        width, height, maxval = map(int, header.groups())
        if maxval > 255:
            raise GeometryError(f"{path}: 16-bit PGM not supported")
        if len(raw) - header.end() < width * height:
            raise GeometryError(f"{path}: fewer than {width}x{height} pixel bytes")
        pixels = np.frombuffer(raw, np.uint8, width * height, header.end())
        rows = pixels.reshape(height, width) > 0  # nonzero = interior
    else:
        lines = [ln for ln in raw.decode().splitlines() if ln.strip()]
        if any(set(ln) - {"#", "."} for ln in lines):
            raise GeometryError(f"{path}: ASCII mask may contain only '#' and '.'")
        if len(set(map(len, lines))) != 1:
            raise GeometryError(f"{path}: ragged ASCII mask")
        rows = np.array([[c == "#" for c in ln] for ln in lines], dtype=bool)
    # image and text rows run top-down; grid j runs bottom-up
    interior = rows[::-1].T
    return GridMask(h, (0.0, 0.0), interior.shape, interior)
