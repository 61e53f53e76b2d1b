import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcheck.discretization import SymmetricOperator, assemble_dirichlet_laplacian
from weylcheck.eigensolve import ShiftOnEigenvalueError, Spectrum, dense_spectrum
from weylcheck.geometry import (
    DomainSpec,
    GeometryError,
    GridMask,
    cube_cover,
    rasterize,
)
from weylcheck.oracles import rectangle_spectrum
from weylcheck.spectral import (
    InvariantViolation,
    MaskForms,
    counting,
    cube_lower_bound,
    eigenvalue_avoiding_grid,
    robust_count,
    solve_all_problems,
    split_separated,
    superadditivity_check,
    verify_chain,
    weyl_constant,
    weyl_ratio_curve,
)

from conftest import random_mask

PI2 = math.pi**2
SINGLE = GridMask(1.0, (0, 0), (1, 1), np.array([[True]]))


class TestWeylConstant:
    def test_dimension_two(self):
        assert weyl_constant(2, 1.0) == pytest.approx(1 / (4 * math.pi))

    def test_dimension_one(self):
        assert weyl_constant(1, 1.0) == pytest.approx(1 / math.pi)

    def test_dimension_three(self):
        assert weyl_constant(3, 1.0) == pytest.approx(1 / (6 * math.pi**2))

    def test_volume_linear(self):
        assert weyl_constant(2, 3.0) == pytest.approx(3 / (4 * math.pi))


class TestCounting:
    def test_strictness_at_double_eigenvalue(self):
        s = rectangle_spectrum(1, 1, 200)
        assert counting(s, 5 * PI2) == 1

    def test_count_at_100(self):
        assert counting(rectangle_spectrum(1, 1, 200), 100.0) == 6

    def test_empty_spectrum(self):
        assert counting(Spectrum("dirichlet", []), 10.0) == 0

    def test_above_cutoff_rejected(self):
        s = rectangle_spectrum(1, 1, 100)
        with pytest.raises(ValueError):
            counting(s, 150.0)

    def test_nan_rejected(self):
        # NaN compares false with every value, so it would count as past
        # the whole spectrum
        with pytest.raises(ValueError):
            counting(rectangle_spectrum(1, 1, 100), math.nan)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=30))
    def test_strict_at_every_eigenvalue(self, values):
        s = Spectrum("dirichlet", values)
        for v in np.unique(s.values):
            assert counting(s, v) == int((s.values < v).sum())


class TestRobustCount:
    def test_retry_does_not_count_eigenvalue_at_threshold(self):
        # the strict count below 2 is 2; the shift and the downward retry
        # both land on eigenvalues, and the upward retry alone counts 3
        op = SymmetricOperator(
            sp.csr_matrix(np.diag([1.0, 2 * (1 - 1e-9), 2.0, 3.0])))
        with pytest.raises(ShiftOnEigenvalueError):
            robust_count(op, 2.0)

    def test_retries_disagree(self):
        op = SymmetricOperator(sp.csr_matrix(np.diag([1.0, 2.0, 3.0])))
        with pytest.raises(ShiftOnEigenvalueError):
            robust_count(op, 2.0)


class TestLambdaGrid:
    def test_midpoints_avoid_values(self):
        values = np.array([1.0, 1.0, 2.0, 4.0])
        grid = eigenvalue_avoiding_grid(values, 10)
        assert np.allclose(grid, [1.5, 3.0])
        assert not np.isin(grid, values).any()

    def test_subsampling(self):
        values = np.arange(1.0, 101.0)
        grid = eigenvalue_avoiding_grid(values, 10)
        assert len(grid) <= 10
        assert np.all(np.isin(np.floor(grid), values))


class TestChain:
    def test_single_node_explicit(self):
        # lambda_D = 4, omega = sqrt(20), mu = 5
        report = verify_chain(solve_all_problems(SINGLE), [4.6])
        assert report.rows() == [(4.6, 0, 1, 1)]

    def test_below_all_spectra(self):
        report = verify_chain(solve_all_problems(SINGLE), [1.0])
        assert report.rows() == [(1.0, 0, 0, 0)]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_inertia_matches_dense(self, seed):
        mask = random_mask(seed, dims=(8, 8))
        spectra = solve_all_problems(mask)
        grid = eigenvalue_avoiding_grid(spectra.merged_values(), 12)
        dense = verify_chain(spectra, grid)
        fact = verify_chain(MaskForms(mask), grid)
        assert dense.rows() == fact.rows()
        # superadditivity on a separated split, by both sources; the dense
        # side solves only the non-empty parts, the inertia side takes all
        parts = split_separated(mask, 1)
        lam = float(grid[len(grid) // 2])
        by_dense = superadditivity_check(
            spectra, [solve_all_problems(p) for p in parts if p.n_nodes], lam)
        by_inertia = superadditivity_check(
            MaskForms(mask), [MaskForms(p) for p in parts], lam)
        assert by_dense == by_inertia

    def test_inertia_matches_dense_at_nonpositive_thresholds(self):
        # every value of the three problems is positive: nothing lies below
        # lambda <= 0, and the bilaplacian root count must not square the
        # sign away
        spectra = solve_all_problems(random_mask(17, dims=(8, 8)))
        forms = MaskForms(spectra.mask)
        for lam in (-40.0, 0.0):
            for problem in ("dirichlet", "bilaplacian_root", "buckling"):
                assert forms.count(problem, lam) == spectra.count(problem, lam) == 0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_masks_never_violate(self, seed):
        mask = random_mask(seed, dims=(10, 10))
        spectra = solve_all_problems(mask)
        grid = eigenvalue_avoiding_grid(spectra.merged_values(), 25)
        report = verify_chain(spectra, grid)
        assert report.ok


class TestSuperadditivity:
    def test_parts_equal_whole(self):
        mask = random_mask(3, dims=(8, 8))
        report = superadditivity_check(
            solve_all_problems(mask),
            [solve_all_problems(mask.restrict(mask.interior))], 50.0)
        assert report.ok
        assert report.whole == report.parts[0]

    def test_decoupled_strips_equality(self):
        interior = np.zeros((7, 1), dtype=bool)
        interior[0:3] = True  # two 3-node strips, 1 node... needs 2-gap
        interior = np.zeros((8, 1), dtype=bool)
        interior[0:3, 0] = True
        interior[5:8, 0] = True
        whole = GridMask(1.0, (0, 0), (8, 1), interior)
        left = whole.restrict(np.arange(8)[:, None] < 3)
        right = whole.restrict(np.arange(8)[:, None] >= 5)
        report = superadditivity_check(
            solve_all_problems(whole),
            [solve_all_problems(left), solve_all_problems(right)], 6.5)
        for p in report.whole:
            assert report.whole[p] == sum(q[p] for q in report.parts)

    def test_split_generator_valid(self):
        for seed in range(10):
            mask = random_mask(seed, dims=(14, 14))
            parts = split_separated(mask, seed)
            report = superadditivity_check(
                solve_all_problems(mask),
                [solve_all_problems(p) for p in parts if p.n_nodes], 40.0)
            assert report.ok

    def test_nonsubmask_rejected(self):
        mask = random_mask(1, dims=(6, 6), fill=0.5)
        other = random_mask(2, dims=(6, 6), fill=0.5)
        if other.is_submask_of(mask):
            pytest.skip("accidentally a submask")
        with pytest.raises(GeometryError):
            superadditivity_check(MaskForms(mask), [MaskForms(other)], 10.0)

    def test_adjacent_parts_rejected(self):
        interior = np.ones((4, 1), dtype=bool)
        whole = GridMask(1.0, (0, 0), (4, 1), interior)
        left = whole.restrict(np.arange(4)[:, None] < 2)
        right = whole.restrict(np.arange(4)[:, None] >= 2)
        with pytest.raises(GeometryError):
            superadditivity_check(MaskForms(whole),
                                  [MaskForms(left), MaskForms(right)], 10.0)


class TestCubeLowerBound:
    def test_tiling_square_below_first_cube_eigenvalue(self):
        cover = cube_cover(DomainSpec.rectangle(1, 1), math.sqrt(2) / 4)
        # smallest eigenvalue of a side-1/4 square is 32 pi^2 > 50
        assert cube_lower_bound(cover, 50.0) == 0

    def test_tiling_square_large_lambda(self):
        cover = cube_cover(DomainSpec.rectangle(1, 1), math.sqrt(2) / 4)
        per_cube = len(rectangle_spectrum(0.25, 0.25, 1e5))
        assert cube_lower_bound(cover, 1e5) == 16 * per_cube

    def test_empty_cover(self):
        cover = cube_cover(DomainSpec.rectangle(1, 1), 10.0)
        assert cube_lower_bound(cover, 1e6) == 0

    def test_bounded_by_fine_grid_inertia(self):
        # the certified bound must sit below the discrete count of the
        # same domain on a fine grid, inside the mutual trust region
        spec = DomainSpec.rectangle(1, 1)
        cover = cube_cover(spec, math.sqrt(2) / 4)
        mask = rasterize(spec, 1 / 64)
        a = assemble_dirichlet_laplacian(mask)
        for lam in (330.0, 700.0, 1000.0):
            assert cube_lower_bound(cover, lam) <= robust_count(a, lam)


class TestWeylRatio:
    def test_square_at_1e5(self):
        s = rectangle_spectrum(1, 1, 1.1e5)
        rows = weyl_ratio_curve(s, 2, 1.0, [1e5])
        assert rows[0].ratio == pytest.approx(1 - 4 / math.sqrt(1e5), abs=0.01)

    def test_below_ground_state(self):
        s = rectangle_spectrum(1, 1, 100)
        rows = weyl_ratio_curve(s, 2, 1.0, [PI2])
        assert rows[0].count == 0 and rows[0].ratio == 0.0

    def test_synthetic_exact_weyl(self):
        c_w = weyl_constant(2, 1.0)
        vals = np.arange(1, 2001) / c_w
        s = Spectrum("synthetic", vals, cutoff=vals[-1] + 1, source="analytic")
        lam = vals[-1]
        rows = weyl_ratio_curve(s, 2, 1.0, [lam * 0.999])
        assert rows[0].ratio == pytest.approx(1.0, abs=1.5 / rows[0].count)

    def test_grid_trust_flag(self):
        mask = random_mask(2, dims=(6, 6), h=0.1)
        w = dense_spectrum(assemble_dirichlet_laplacian(mask))
        rows = weyl_ratio_curve(w, 2, mask.volume(), [10.0, 1e4], h=0.1)
        assert rows[0].trusted and not rows[1].trusted


class TestDomainMonotonicity:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_nested_masks(self, seed):
        mask = random_mask(seed, dims=(9, 9), fill=0.7)
        rng = np.random.default_rng(seed + 1)
        sub = mask.restrict(rng.random(mask.dims) < 0.7)
        if sub.n_nodes == 0:
            return
        w_big = dense_spectrum(assemble_dirichlet_laplacian(mask)).values
        w_sub = dense_spectrum(assemble_dirichlet_laplacian(sub)).values
        k = len(w_sub)
        assert np.all(w_sub >= w_big[:k] * (1 - 1e-9))
