"""Closed-form spectra used as grid-independent oracles.

Rectangle and interval spectra come from the classical separated
eigenvalues. Disk eigenvalues are squared Bessel zeros from scipy's
``jn_zeros``; each zero is certified by a sign change of the ascending
power series of J_k evaluated in 50-digit decimal arithmetic, so the disk
oracle shares no code with the grid solvers.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np

from .eigensolve import SolverError, Spectrum

BESSEL_ARG_LIMIT = 60.0  # series validated up to here at 50 digits
_BESSEL_DPS = 50


def _terms(side: float, lam_max: float) -> int:
    """Largest index a side needs below lam_max; nothing lies below
    lam_max <= 0, and the side then gives one term."""
    return int(side * math.sqrt(max(lam_max, 0.0)) / math.pi) + 1


def _rectangle_values(m, n, a: float, b: float):
    return math.pi**2 * ((m / a) ** 2 + (n / b) ** 2)


def rectangle_spectrum(a: float, b: float, lam_max: float) -> Spectrum:
    """All values pi^2 (m^2/a^2 + n^2/b^2) strictly below lam_max."""
    if a <= 0 or b <= 0:
        raise ValueError("rectangle sides must be positive")
    m = np.arange(1, _terms(a, lam_max) + 1)
    n = np.arange(1, _terms(b, lam_max) + 1)
    vals = _rectangle_values(m[:, None], n[None, :], a, b).ravel()
    return Spectrum("dirichlet", vals[vals < lam_max], cutoff=lam_max,
                    source="analytic")


def rectangle_count(a: float, b: float, lam_max: float) -> int:
    """``len(rectangle_spectrum(a, b, lam_max))`` in O(a sqrt(lam_max))
    memory. The computed value is nondecreasing in n, so each row m counts
    its n by a bisection that builds the largest n below lam_max bit by bit,
    all rows at once."""
    if a <= 0 or b <= 0:
        raise ValueError("rectangle sides must be positive")
    m = np.arange(1, _terms(a, lam_max) + 1)
    n_max = _terms(b, lam_max)
    count = np.zeros_like(m)
    for bit in reversed(range(n_max.bit_length())):
        trial = count + (1 << bit)
        below = (trial <= n_max) & (_rectangle_values(m, trial, a, b) < lam_max)
        count = np.where(below, trial, count)
    return int(count.sum())


def interval_spectrum(a: float, lam_max: float) -> Spectrum:
    """All values k^2 pi^2 / a^2 strictly below lam_max (simple)."""
    if a <= 0:
        raise ValueError("interval length must be positive")
    k = np.arange(1, _terms(a, lam_max) + 1)
    vals = (k * math.pi / a) ** 2
    return Spectrum("dirichlet", vals[vals < lam_max], cutoff=lam_max,
                    source="analytic")


def bessel_j_series(order: int, x: float):
    """J_order(x) by the ascending power series at extended precision.

    Alternating series with huge intermediate terms; 50-digit decimal
    arithmetic absorbs the cancellation. Valid for 0 <= x <= BESSEL_ARG_LIMIT.
    """
    if x < 0 or x > BESSEL_ARG_LIMIT:
        raise ValueError(f"series argument {x} outside [0, {BESSEL_ARG_LIMIT}]")
    with localcontext() as ctx:
        ctx.prec = _BESSEL_DPS
        xh = Decimal(x) / 2
        # Decimal(0) ** 0 is an invalid operation
        term = (xh**order if order else Decimal(1)) / math.factorial(order)
        total = term
        x2, eps = xh * xh, Decimal(10) ** (-_BESSEL_DPS + 5)
        m = 0
        while True:
            m += 1
            term *= -x2 / (m * (m + order))
            total += term
            if abs(term) < eps * (abs(total) + 1):
                break
            if m > 400:
                raise RuntimeError("Bessel series failed to terminate")
        return float(total)


def disk_spectrum(r: float, lam_max: float) -> Spectrum:
    """Dirichlet disk eigenvalues j_{k,l}^2 / r^2 below lam_max;
    multiplicity 2 for angular order k >= 1.

    j_{k,s} >= j_{0,s} > (s - 1/4) pi, so floor(x_max/pi) + 2 zeros per
    order reach past x_max; the last one must, which makes the count a
    check. J_k > 0 on (0, j_{k,1}), so the series taking the sign (-1)^s
    just below the s-th zero (0-based) and the opposite sign just above it
    certifies each zero and rules out an odd number missing before it.
    """
    from scipy.special import jn_zeros

    if r <= 0:
        raise ValueError("disk radius must be positive")
    x_max = math.sqrt(lam_max) * r
    if x_max > BESSEL_ARG_LIMIT:
        raise ValueError(
            f"lam_max={lam_max} needs Bessel arguments up to {x_max:.6g} > "
            f"{BESSEL_ARG_LIMIT}; restrict lam_max"
        )
    vals = []
    k = 0
    while True:
        zeros = jn_zeros(k, int(x_max / math.pi) + 2)
        if not zeros[-1] > x_max:
            raise SolverError(f"zeros of J_{k} end at {zeros[-1]} <= {x_max}")
        zeros = zeros[zeros < x_max]
        if not zeros.size:
            break
        for s, z in enumerate(zeros):
            below = bessel_j_series(k, z * (1 - 1e-10))
            above = bessel_j_series(k, min(z * (1 + 1e-10), BESSEL_ARG_LIMIT))
            if not (-1) ** s * below > 0 > (-1) ** s * above:
                raise SolverError(f"J_{k} has no sign change at zero {s}, {z!r}")
        vals.extend(np.repeat((zeros / r) ** 2, 1 if k == 0 else 2))
        k += 1
    return Spectrum("dirichlet", np.array(vals), cutoff=lam_max,
                    source="analytic")
