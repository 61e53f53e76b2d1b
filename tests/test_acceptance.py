"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its measured figure and runtime."""

import math
import time

import numpy as np
import pytest

from weylcheck.discretization import assemble_dirichlet_laplacian
from weylcheck.eigensolve import Spectrum, dense_spectrum, lowest_k
from weylcheck.geometry import DomainSpec, cube_cover, rasterize
from weylcheck.heat import heat_trace, heat_upper_bound_check, karamata_estimate, laplace_identity_check
from weylcheck.oracles import disk_spectrum, rectangle_spectrum
from weylcheck.spectral import (
    InvariantViolation,
    counting,
    cube_lower_bound,
    eigenvalue_avoiding_grid,
    solve_all_problems,
    split_separated,
    superadditivity_check,
    verify_chain,
    weyl_constant,
)

from conftest import random_mask


def report(name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({time.time() - t0:.1f}s)")
    assert ok, f"{name}: {detail}"


def test_criterion_1_rectangle_oracle_convergence():
    t0 = time.time()
    mask = rasterize(DomainSpec.rectangle(1, 1), 1 / 64)
    w = dense_spectrum(assemble_dirichlet_laplacian(mask)).values[:20]
    exact = sorted(
        math.pi**2 * (m**2 + n**2) for m in range(1, 10) for n in range(1, 10)
    )[:20]
    rel = float(np.max(np.abs(w - exact) / exact))
    elapsed = time.time() - t0
    report(
        "1 rectangle oracle convergence",
        rel < 0.01 and elapsed <= 60.0,
        f"max rel err {rel:.2e}, runtime {elapsed:.1f}s",
        t0,
    )


def test_criterion_2_exact_chain():
    t0 = time.time()
    violations = 0
    for seed in range(100):
        mask = random_mask(seed)
        spectra = solve_all_problems(mask)
        grid = eigenvalue_avoiding_grid(spectra.merged_values(), 50)
        try:
            verify_chain(spectra, grid)
        except InvariantViolation:
            violations += 1
    report(
        "2 exact counting chain",
        violations == 0,
        f"{violations} violations over 100 masks x 50 lambdas",
        t0,
    )


def test_criterion_3_exact_superadditivity():
    t0 = time.time()
    violations = 0
    for seed in range(50):
        mask = random_mask(seed + 1000)
        parts = split_separated(mask, seed)
        spectra = solve_all_problems(mask)
        grid = eigenvalue_avoiding_grid(spectra.merged_values(), 99)
        lam = float(grid[len(grid) // 2])
        try:
            superadditivity_check(
                spectra, [solve_all_problems(p) for p in parts if p.n_nodes], lam)
        except InvariantViolation:
            violations += 1
    report(
        "3 exact superadditivity",
        violations == 0,
        f"{violations} violations over 50 decompositions, all three problems",
        t0,
    )


def test_criterion_4_weyl_ratio_unit_square():
    t0 = time.time()
    spec = rectangle_spectrum(1, 1, 1.001e5)
    ratio = counting(spec, 1e5) * 4 * math.pi / 1e5
    elapsed = time.time() - t0
    report(
        "4 Weyl ratio at lambda=1e5",
        0.975 <= ratio <= 1.0 and elapsed <= 5.0,
        f"ratio {ratio:.4f}, runtime {elapsed:.1f}s",
        t0,
    )


def test_criterion_5_cube_cover_lower_bound():
    t0 = time.time()
    cover = cube_cover(DomainSpec.disk(1), 0.05 * math.sqrt(2))
    lam = 1e7
    bound = cube_lower_bound(cover, lam)
    target = 0.9 * weyl_constant(2, cover.covered_volume) * lam
    volume_ok = cover.covered_volume >= 0.9 * math.pi
    elapsed = time.time() - t0
    report(
        "5 cube-cover lower bound",
        bound >= target and volume_ok and elapsed <= 10.0,
        f"bound {bound} >= {target:.0f}, covered {cover.covered_volume:.3f} "
        f">= {0.9 * math.pi:.3f}, runtime {elapsed:.1f}s",
        t0,
    )


def test_criterion_6_heat_bound_and_karamata():
    t0 = time.time()
    spec = rectangle_spectrum(1, 1, 1e6)
    samples = heat_trace(spec, np.logspace(-3, 0, 24), 2, 1.0)
    rows = heat_upper_bound_check(samples)
    bound_ok = all(r.ok for r in rows if r.trusted)
    fit_samples = heat_trace(spec, np.logspace(-3, -2, 12), 2, 1.0)
    fit = karamata_estimate(fit_samples)
    rel = abs(fit.coefficient - 1 / (4 * math.pi)) * 4 * math.pi
    elapsed = time.time() - t0
    report(
        "6 heat-trace bound and tauberian fit",
        bound_ok and rel < 0.02 and elapsed <= 30.0,
        f"bound_ok {bound_ok}, coefficient rel err {rel:.2e}, "
        f"runtime {elapsed:.1f}s",
        t0,
    )


def test_criterion_7_tauberian_synthetic_oracle():
    t0 = time.time()
    spec = Spectrum("synthetic", np.arange(1.0, 200_001.0),
                    cutoff=200_001.0, source="analytic")
    samples = heat_trace(spec, np.logspace(-3, -2, 12), 2, 4 * math.pi)
    # closed-form cross-check of the sampled trace
    closed = 1.0 / (np.exp(samples.times) - 1.0)
    assert np.allclose(samples.values, closed, rtol=1e-10)
    fit = karamata_estimate(samples)
    rel = abs(fit.coefficient - 1.0)
    report(
        "7 tauberian synthetic oracle",
        rel < 0.005,
        f"coefficient {fit.coefficient:.5f}, rel err {rel:.2e}",
        t0,
    )


def test_criterion_8_disk_cross_validation():
    t0 = time.time()
    oracle = disk_spectrum(1.0, 10.0).values[0]
    mask = rasterize(DomainSpec.disk(1), 1 / 128)
    grid_val = lowest_k(assemble_dirichlet_laplacian(mask), 1, tol=1e-8).values[0]
    rel = abs(grid_val - oracle) / oracle
    report(
        "8 disk cross-validation",
        rel < 0.015,
        f"grid {grid_val:.5f} vs Bessel oracle {oracle:.5f}, rel err {rel:.2e}",
        t0,
    )


def test_criterion_9_laplace_identity():
    t0 = time.time()
    spec = rectangle_spectrum(1, 1, 1e6)
    worst = max(
        laplace_identity_check(spec, t) for t in np.logspace(-3, 1, 20)
    )
    report(
        "9 Laplace integration-by-parts identity",
        worst <= 1e-12,
        f"max residual {worst:.2e} over 20 log-spaced t",
        t0,
    )
