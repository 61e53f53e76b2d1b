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
    SymmetricOperator,
    assemble_clamped_bilaplacian,
    assemble_dirichlet_laplacian,
)
from .eigensolve import (
    SOLVE_TOL,
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
        # every value of the three problems is positive (lam^2 would also
        # lose the sign of lam)
        if lam <= 0:
            return 0
        form, squared = FORMS[problem]
        target = form(self)
        if squared:
            # each root^2 <= |B| < inf, so all lie below a lam whose square
            # overflows (to inf, and without a warning in Python floats)
            lam = float(lam) * float(lam)
            if math.isinf(lam):
                return self.mask.n_nodes
        elif isinstance(target, OperatorPencil) and lam > 1:
            # B - lam A = lam (B/lam - A): the same inertia, from a form
            # whose shift and scale cannot overflow
            b = SymmetricOperator(target.b.matrix / lam, target.b.grid)
            target, lam = OperatorPencil(b, target.a), 1.0
        return robust_count(target, lam)

    def spectrum(self, problem: str, k: int | None = None,
                 tol: float = SOLVE_TOL) -> Spectrum:
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


def verify_chain(source, lam_grid) -> list[tuple[float, int, int, int]]:
    """Rows (lambda, N_b, N_bl, N_D) with the exact integer counts of one
    source (``MaskSpectra`` or ``MaskForms``), each problem counted at every
    lambda in turn. The chain N_b <= N_bl <= N_D is a theorem of the
    discretization: one InvariantViolation names every row that breaks it.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    n_d, n_bl, n_b = ([source.count(p, l) for l in lam_grid] for p in FORMS)
    rows = list(zip(map(float, lam_grid), n_b, n_bl, n_d))
    bad = [row for row in rows if not row[1] <= row[2] <= row[3]]
    if bad:
        raise InvariantViolation(f"counting chain violated at {bad}")
    return rows


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


def superadditivity_check(whole, parts: list,
                          lam: float) -> dict[str, tuple[int, int]]:
    """{problem: (N(lam, whole), sum of N(lam, part))} for all three
    problems; ``whole`` and each part are counting sources (``MaskSpectra``
    or ``MaskForms``) of their masks. Empty parts count nothing. A whole
    count below its parts' sum raises."""
    masks = [part.mask for part in parts]
    for k, part in enumerate(masks):
        if not part.is_submask_of(whole.mask):
            raise GeometryError(f"part {k} is not a submask of the whole")
    check_separated(masks)  # overlapping parts fail it too
    whole_counts = {p: whole.count(p, lam) for p in FORMS}
    part_counts = [{p: part.count(p, lam) for p in FORMS}
                   for part in parts if part.mask.n_nodes]
    counts = {p: (n, sum(q[p] for q in part_counts))
              for p, n in whole_counts.items()}
    if any(n < parts_sum for n, parts_sum in counts.values()):
        raise InvariantViolation(
            f"superadditivity violated at lambda={lam}: {counts}")
    return counts


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

GRID_TRUST = 0.25  # trusted grid eigenvalues: lambda <= GRID_TRUST / h^2


def weyl_ratios(rows, mask: GridMask) -> list[tuple[float, float, float, bool]]:
    """For each row (lambda, N_b, N_bl, N_D) of ``verify_chain`` on the
    mask: each count over its 2-D Weyl term C_W |Omega_h| lambda, with
    |Omega_h| = n h^2 the mask's volume (NaN at lambda <= 0, where every
    count is 0), and whether lambda lies in the grid trust region
    lambda <= GRID_TRUST / h^2."""
    c_w = weyl_constant(2, mask.volume())
    limit = GRID_TRUST / mask.h**2
    return [(*(n / (c_w * lam) if lam > 0 else math.nan for n in counts),
             lam <= limit)
            for lam, *counts in rows]
