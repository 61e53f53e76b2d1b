"""Counting functions, the Weyl constant, and the exact structural checks:
the counting inequality chain, superadditivity over separated submasks,
and the cube-cover lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .discretization import (
    assemble_clamped_bilaplacian,
    assemble_dirichlet_laplacian,
)
from .eigensolve import (
    OperatorPencil,
    ShiftOnEigenvalueError,
    Spectrum,
    dense_spectrum,
    generalized_spectrum,
    inertia_count,
    lowest_k,
)
from .geometry import CubeCover, GeometryError, GridMask
from .oracles import rectangle_count


class InvariantViolation(AssertionError):
    """An exact discrete identity failed; this signals a bug, not noise."""


def weyl_constant(n: int, volume: float) -> float:
    """Leading coefficient (4 pi)^{-n/2} |Omega| / Gamma(n/2 + 1)."""
    if n < 1 or volume <= 0:
        raise ValueError("need n >= 1 and positive volume")
    return (4.0 * math.pi) ** (-n / 2.0) / math.gamma(n / 2.0 + 1.0) * volume


def counting(spectrum: Spectrum, lam: float) -> int:
    """Strict count #{j : value_j < lam}; refuses NaN and lam above the
    cutoff."""
    if math.isnan(lam):
        raise ValueError("lambda is NaN")
    if lam > spectrum.cutoff:
        raise ValueError(
            f"lambda={lam} exceeds spectrum cutoff {spectrum.cutoff}"
        )
    return int(np.searchsorted(spectrum.values, lam, side="left"))


def robust_count(target, lam: float) -> int:
    """Inertia count strictly below lam. A shift landing on an eigenvalue
    is retried at lam(1 - 1e-9) and lam(1 + 1e-9): the two counts agree
    only when no eigenvalue lies between them, lam included, and then give
    the strict count. Otherwise the ShiftOnEigenvalueError stands."""
    try:
        return inertia_count(target, lam)
    except ShiftOnEigenvalueError:
        below = inertia_count(target, lam * (1 - 1e-9))
        if below != inertia_count(target, lam * (1 + 1e-9)):
            raise
        return below


# -- counting sources: the three problems on one mask ---------------------

# problem -> (its form on a MaskForms, whether the form's eigenvalues are the
# squares of the problem's values), in the chain's order N_D, N_bl, N_b
FORMS = {"dirichlet": (lambda f: f.a, False),
         "bilaplacian_root": (lambda f: f.b, True),
         "buckling": (lambda f: OperatorPencil(f.b, f.a), False)}


@dataclass(frozen=True)
class MaskSpectra:
    """Dense spectra of the three problems on one mask; counts in them."""

    mask: GridMask
    spectra: dict[str, Spectrum]

    def count(self, problem: str, lam: float) -> int:
        return counting(self.spectra[problem], lam)

    def merged_values(self) -> np.ndarray:
        return np.sort(np.concatenate([s.values for s in self.spectra.values()]))


def solve_all_problems(mask: GridMask) -> MaskSpectra:
    forms = MaskForms(mask)
    return MaskSpectra(mask, {p: forms.spectrum(p) for p in FORMS})


class MaskForms:
    """The forms of the three problems on one mask, at any size: A, B and
    the pencil (B, A), each assembled the first time it is needed."""

    def __init__(self, mask: GridMask):
        self.mask = mask

    @cached_property
    def a(self):
        return assemble_dirichlet_laplacian(self.mask)

    @cached_property
    def b(self):
        return assemble_clamped_bilaplacian(self.mask)

    def count(self, problem: str, lam: float) -> int:
        form, squared = FORMS[problem]
        if squared:
            # the roots are positive: lam^2 would lose the sign of lam. Each
            # root^2 <= |B| < inf, so all lie below a lam whose square
            # overflows (to inf, and without a warning in Python floats)
            if lam <= 0:
                return 0
            lam = float(lam) * float(lam)
            if math.isinf(lam):
                return self.mask.n_nodes
        return robust_count(form(self), lam)

    def spectrum(self, problem: str, k: int | None = None,
                 tol: float = 1e-8) -> Spectrum:
        """All values of the problem (dense), or its lowest k: ``lowest_k``
        for A and B, ``generalized_spectrum`` for the pencil."""
        form, squared = FORMS[problem]
        target = form(self)
        if isinstance(target, OperatorPencil):
            s = generalized_spectrum(target, k)
        else:
            s = dense_spectrum(target) if k is None else lowest_k(target, k, tol=tol)
        if squared:
            return replace(s, problem=problem, values=np.sqrt(s.values),
                           cutoff=math.sqrt(s.cutoff))
        return replace(s, problem=problem)


def eigenvalue_avoiding_grid(values: np.ndarray, count: int) -> np.ndarray:
    """Midpoints between consecutive distinct values: shifts that can never
    collide with the strict-counting convention."""
    distinct = np.unique(values)
    if distinct.size < 2:
        raise ValueError("need at least two distinct values for midpoints")
    # skip numerically split multiplets: a midpoint there sits within
    # factorization tolerance of the spectrum
    wide = np.diff(distinct) > 1e-8 * np.abs(distinct[1:])
    mids = (0.5 * (distinct[:-1] + distinct[1:]))[wide]
    mids = mids[mids > distinct[0]]  # guard against rounding into the floor
    if count >= mids.size:
        return mids
    pick = np.linspace(0, mids.size - 1, count).round().astype(int)
    return mids[np.unique(pick)]


@dataclass(frozen=True)
class ChainReport:
    """Per-lambda triples (N_b, N_bl, N_D); all rows must be ordered."""

    lams: np.ndarray
    n_b: np.ndarray
    n_bl: np.ndarray
    n_d: np.ndarray

    @property
    def ok(self) -> bool:
        return bool(np.all(self.n_b <= self.n_bl) and np.all(self.n_bl <= self.n_d))

    def rows(self):
        return list(zip(self.lams, self.n_b, self.n_bl, self.n_d))


def verify_chain(source, lam_grid) -> ChainReport:
    """Check N_b <= N_bl <= N_D at every lambda, with the exact integer
    counts of one source (``MaskSpectra`` or ``MaskForms``). A violation
    raises: the chain is a theorem of the discretization.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    n_d, n_bl, n_b = (np.array([source.count(p, l) for l in lam_grid])
                      for p in ("dirichlet", "bilaplacian_root", "buckling"))
    report = ChainReport(lam_grid, n_b, n_bl, n_d)
    if not report.ok:
        bad = [(l, int(b_), int(bl), int(d))
               for l, b_, bl, d in report.rows() if not b_ <= bl <= d]
        raise InvariantViolation(f"counting chain violated at {bad}")
    return report


# -- superadditivity -------------------------------------------------------


def _dilate(interior: np.ndarray) -> np.ndarray:
    """One step of 4-neighbor dilation (the reach of the Laplacian factor)."""
    p = np.pad(interior, 1)
    return p[1:-1, 1:-1] | p[:-2, 1:-1] | p[2:, 1:-1] | p[1:-1, :-2] | p[1:-1, 2:]


def check_separated(parts: list[GridMask]) -> None:
    """The quadratic forms of two submasks decouple exactly iff their
    one-step dilations are disjoint (the bilaplacian factor reaches one
    node past the support). Superadditivity is only a discrete theorem
    under that separation."""
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if np.any(_dilate(parts[i].interior) & _dilate(parts[j].interior)):
                raise GeometryError(
                    f"parts {i} and {j} are closer than the stencil width; "
                    "their discrete forms do not decouple"
                )


@dataclass(frozen=True)
class SuperadditivityReport:
    lam: float
    whole: dict[str, int]
    parts: list[dict[str, int]]

    @property
    def ok(self) -> bool:
        return all(
            self.whole[p] >= sum(part[p] for part in self.parts)
            for p in self.whole
        )


def superadditivity_check(whole, parts: list, lam: float) -> SuperadditivityReport:
    """Assert N(lam, whole) >= sum of N(lam, part) for all three problems;
    ``whole`` and each part are counting sources (``MaskSpectra`` or
    ``MaskForms``) of their masks. Empty parts count nothing."""
    masks = [part.mask for part in parts]
    for k, part in enumerate(masks):
        if not part.is_submask_of(whole.mask):
            raise GeometryError(f"part {k} is not a submask of the whole")
    check_separated(masks)  # overlapping parts fail it too
    report = SuperadditivityReport(
        lam,
        {p: whole.count(p, lam) for p in FORMS},
        [{p: part.count(p, lam) for p in FORMS}
         for part in parts if part.mask.n_nodes],
    )
    if not report.ok:
        raise InvariantViolation(
            f"superadditivity violated at lambda={lam}: {report}"
        )
    return report


def split_separated(mask: GridMask, seed: int = 0) -> list[GridMask]:
    """Split a mask into two submasks separated by a two-column (or
    two-row) gap, so all three forms decouple. Either part may be empty."""
    rng = np.random.default_rng(seed)
    nx, ny = mask.dims
    axis = int(rng.integers(2))
    size = mask.dims[axis]
    c = int(rng.integers(1, max(size - 2, 2)))
    coord = np.arange(nx)[:, None] if axis == 0 else np.arange(ny)[None, :]
    left = mask.restrict(np.broadcast_to(coord <= c - 1, mask.dims))
    right = mask.restrict(np.broadcast_to(coord >= c + 2, mask.dims))
    return [left, right]


# -- cube-cover lower bound ------------------------------------------------


def cube_lower_bound(cover: CubeCover, lam: float) -> int:
    """Certified lower bound for N_D(lam, Omega): the analytic count for
    one cube of side eta/sqrt(2), times the number of disjoint cubes."""
    if len(cover.corners) == 0:
        return 0
    return rectangle_count(cover.side, cover.side, lam) * len(cover.corners)


# -- Weyl ratio ------------------------------------------------------------

GRID_TRUST = 0.25  # lambda * h^2 at most this for trusted grid eigenvalues


@dataclass(frozen=True)
class WeylRatioRow:
    lam: float
    count: int
    ratio: float
    trusted: bool


def weyl_ratio_curve(spectrum: Spectrum, n: int, volume: float, lam_grid,
                     h: float | None = None) -> list[WeylRatioRow]:
    """Rows (lambda, N(lambda), N / (C_W lambda^{n/2})); grid rows outside
    the dispersion trust region are flagged, not dropped."""
    c_w = weyl_constant(n, volume)
    rows = []
    for lam in np.asarray(lam_grid, dtype=float):
        cnt = counting(spectrum, lam)
        trusted = True
        if spectrum.source == "grid":
            if h is None:
                raise ValueError("grid spectra need h for the trust region")
            trusted = lam * h * h <= GRID_TRUST
        rows.append(
            WeylRatioRow(float(lam), cnt, cnt / (c_w * lam ** (n / 2.0)), trusted)
        )
    return rows
