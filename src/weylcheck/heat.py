"""Heat trace of a spectrum, its free-space upper bound, the Laplace
integration-by-parts identity, and the tauberian coefficient fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolve import Spectrum
from .spectral import counting

TRUST_TAIL_RATIO = 0.01
HEAT_BOUND_TOL = 1e-9  # relative slack of the free-kernel bound


class HeatTraceError(RuntimeError):
    pass


def upper_incomplete_gamma_half(two_s: int, x: float) -> float:
    """Gamma(s, x) for 2s = two_s >= 1, by the recursion
    Gamma(s+1, x) = s Gamma(s, x) + x^s e^{-x}."""
    if two_s == 1:
        return math.sqrt(math.pi) * math.erfc(math.sqrt(x))
    if two_s == 2:
        return math.exp(-x)
    s = two_s / 2.0 - 1.0
    return s * upper_incomplete_gamma_half(two_s - 2, x) + x**s * math.exp(-x)


def weyl_tail_bound(t: float, cutoff: float, n: int, volume: float) -> float:
    """Upper estimate of sum_{lambda_j >= cutoff} e^{-t lambda_j} under the
    Weyl density: (4 pi)^{-n/2} |Omega| (n/2) t^{-n/2} Gamma(n/2, t cutoff)."""
    if not math.isfinite(cutoff):
        return 0.0
    return (
        (4.0 * math.pi) ** (-n / 2.0)
        * volume
        * (n / 2.0)
        * t ** (-n / 2.0)
        * upper_incomplete_gamma_half(n, t * cutoff)
    )


@dataclass(frozen=True)
class HeatTraceSamples:
    """(t, h(t)) pairs with per-sample truncation-error estimates."""

    times: np.ndarray
    values: np.ndarray
    tail_bounds: np.ndarray
    n: int
    volume: float
    source: str = "analytic"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        tb = np.asarray(self.tail_bounds, dtype=float)
        if not (t.shape == v.shape == tb.shape):
            raise ValueError("mismatched sample arrays")
        if np.any(t <= 0):
            raise ValueError("times must be positive")
        order = np.argsort(t)
        for name, arr in (("times", t[order]), ("values", v[order]),
                          ("tail_bounds", tb[order])):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def trusted(self) -> np.ndarray:
        return self.tail_bounds <= TRUST_TAIL_RATIO * self.values


def heat_trace(spectrum: Spectrum, times, n: int, volume: float) -> HeatTraceSamples:
    """Partial sums h(t) = sum e^{-t lambda_j} with Weyl-density tail bounds."""
    t = np.asarray(times, dtype=float)
    if np.any(t <= 0):
        raise ValueError("times must be positive")
    # one time at a time: no len(t) x len(spectrum) transient
    values = np.array([np.exp(-ti * spectrum.values).sum() for ti in t])
    tails = np.array(
        [weyl_tail_bound(ti, spectrum.cutoff, n, volume) for ti in t]
    )
    return HeatTraceSamples(t, values, tails, n, volume, source=spectrum.source)


def laplace_identity_check(spectrum: Spectrum, t: float) -> float:
    """Relative residual between sum_j e^{-t lambda_j} - e^{-t L} N(L) and
    the piecewise closed form of t * integral of e^{-t lambda} N(lambda),
    both over the truncated range [0, L]. Exact for step functions."""
    if t <= 0:
        raise ValueError("t must be positive")
    v = spectrum.values
    if v.size == 0:
        return 0.0
    cutoff = spectrum.cutoff
    distinct, first_idx = np.unique(v, return_index=True)
    # cumulative count right after each jump
    counts = np.append(first_idx[1:], v.size)
    lhs = float(np.exp(-t * v).sum())
    edges = np.exp(-t * distinct)
    if math.isfinite(cutoff):
        lhs -= v.size * math.exp(-t * cutoff)
        end = math.exp(-t * cutoff)
    else:
        end = 0.0
    uppers = np.append(edges[1:], end)
    rhs = float((counts * (edges - uppers)).sum())
    scale = abs(lhs) if lhs != 0.0 else 1.0
    return abs(lhs - rhs) / scale


@dataclass(frozen=True)
class HeatBoundRow:
    t: float
    scaled_value: float
    bound: float
    trusted: bool
    ok: bool


def heat_upper_bound_check(samples: HeatTraceSamples) -> list[HeatBoundRow]:
    """Assert t^{n/2} (h(t) + tail) <= (4 pi)^{-n/2} |Omega| (1 + tol) on
    trusted samples, tol = HEAT_BOUND_TOL. Hard failure for analytic
    spectra; grid spectra get the report only (discretization moves
    eigenvalues both ways)."""
    n = samples.n
    bound = (4.0 * math.pi) ** (-n / 2.0) * samples.volume
    rows = []
    for t, v, tb, trusted in zip(samples.times, samples.values,
                                 samples.tail_bounds, samples.trusted):
        scaled = t ** (n / 2.0) * (v + tb)
        ok = scaled <= bound * (1.0 + HEAT_BOUND_TOL)
        rows.append(HeatBoundRow(float(t), float(scaled), bound, bool(trusted),
                                 bool(ok)))
        if trusted and not ok and samples.source == "analytic":
            raise HeatTraceError(
                f"free heat kernel bound violated at t={t}: "
                f"{scaled!r} > {bound!r}"
            )
    return rows


@dataclass(frozen=True)
class WeylEstimate:
    """Leading heat coefficient a with h(t) ~ a t^{-n/2} + b t^{-(n-1)/2} + c."""

    coefficient: float
    eq_constant: float  # a / Gamma(n/2 + 1): the counting-function constant
    boundary_term: float
    constant_term: float
    fit_window: tuple[float, float]
    residual: float

    def __post_init__(self):
        if self.coefficient <= 0:
            raise ValueError("fitted leading coefficient must be positive")


def karamata_estimate(samples: HeatTraceSamples) -> WeylEstimate:
    """Two-term tauberian fit on the trusted samples; the boundary term
    t^{-(n-1)/2} is modeled so it cannot pollute the leading coefficient.
    In one dimension that term is the constant, and constant_term is 0."""
    n = samples.n
    t = samples.times[samples.trusted]
    h = samples.values[samples.trusted]
    if t.size < 8:
        raise HeatTraceError(
            f"need at least 8 trusted samples in the window, have {t.size}"
        )
    if t.max() / t.min() < 10.0 * (1 - 1e-9):
        raise HeatTraceError("trusted window must span at least a decade in t")
    # for n = 1 the boundary column t^0 is the constant column itself
    columns = [t ** (-n / 2.0), t ** (-(n - 1) / 2.0)]
    if n > 1:
        columns.append(np.ones_like(t))
    g = np.stack(columns, axis=1)
    normal = g.T @ g
    if np.linalg.cond(normal) > 1e12:
        raise HeatTraceError(
            "normal system ill-conditioned; widen the fit window"
        )
    coef = np.linalg.solve(normal, g.T @ h)
    resid = float(np.linalg.norm(g @ coef - h) / np.linalg.norm(h))
    return WeylEstimate(
        coefficient=float(coef[0]),
        eq_constant=float(coef[0]) / math.gamma(n / 2.0 + 1.0),
        boundary_term=float(coef[1]),
        constant_term=float(coef[2]) if n > 1 else 0.0,
        fit_window=(float(t.min()), float(t.max())),
        residual=resid,
    )
