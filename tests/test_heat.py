import math

import numpy as np
import pytest

from weylcheck.eigensolve import Spectrum
from weylcheck.heat import (
    HeatTraceError,
    HeatTraceSamples,
    heat_trace,
    heat_upper_bound_check,
    karamata_estimate,
    laplace_identity_check,
    upper_incomplete_gamma_half,
    weyl_tail_bound,
)
from weylcheck.oracles import interval_spectrum, rectangle_spectrum


def synthetic_integers(count, volume=4 * math.pi):
    """lambda_j = j, whose heat trace is 1/(e^t - 1) in closed form; the
    density N(lambda) ~ lambda matches n = 2 with |Omega| = 4 pi."""
    return Spectrum("synthetic", np.arange(1.0, count + 1.0),
                    cutoff=count + 1.0, source="analytic"), volume


class TestIncompleteGamma:
    def test_integer_orders(self):
        # Gamma(1, x) = e^-x, Gamma(2, x) = (x + 1) e^-x
        for x in (0.1, 1.0, 5.0):
            assert upper_incomplete_gamma_half(2, x) == pytest.approx(math.exp(-x))
            assert upper_incomplete_gamma_half(4, x) == pytest.approx(
                (x + 1) * math.exp(-x)
            )

    def test_half_order(self):
        # Gamma(1/2, 0) = sqrt(pi)
        assert upper_incomplete_gamma_half(1, 0.0) == pytest.approx(
            math.sqrt(math.pi)
        )

    def test_tail_matches_quadrature(self):
        # independent oracle: numeric quadrature of the tail integral
        from scipy.integrate import quad

        for n, cutoff, t in ((1, 50.0, 0.02), (2, 80.0, 0.01)):
            expected = (4 * math.pi) ** (-n / 2) * (n / 2) * quad(
                lambda lam: lam ** (n / 2 - 1) * math.exp(-t * lam),
                cutoff, np.inf,
            )[0]
            assert weyl_tail_bound(t, cutoff, n, 1.0) == pytest.approx(
                expected, rel=1e-9
            )


class TestHeatTrace:
    def test_single_eigenvalue(self):
        s = Spectrum("synthetic", [1.0])
        samples = heat_trace(s, [1.0], 2, 1.0)
        assert samples.values[0] == pytest.approx(math.exp(-1))

    def test_large_t_single_term_limit(self):
        s = rectangle_spectrum(1, 1, 1e4)
        samples = heat_trace(s, [10.0], 2, 1.0)
        assert samples.values[0] == pytest.approx(
            math.exp(-2 * math.pi**2 * 10), rel=1e-6
        )

    def test_square_short_time_bracket(self):
        # 4 pi t h(t) ~ 1 - 2 sqrt(pi t) at t = 1e-3
        s = rectangle_spectrum(1, 1, 1e6)
        samples = heat_trace(s, [1e-3], 2, 1.0)
        scaled = 4 * math.pi * 1e-3 * samples.values[0]
        assert 0.85 < scaled < 0.95

    def test_values_decreasing(self):
        s = rectangle_spectrum(1, 1, 1e4)
        samples = heat_trace(s, np.logspace(-2, 0, 10), 2, 1.0)
        assert np.all(np.diff(samples.values) < 0)

    def test_bitwise_equal_to_outer_product(self):
        # one time at a time sums the same terms in the same order as the
        # rows of the t x lambda matrix
        for lam_max in (1e4, 1e5, 1e6):
            s = rectangle_spectrum(1, 1, lam_max)
            for times in (np.logspace(-3, -2, 12), np.logspace(-2, 0, 7)):
                outer = np.exp(-np.outer(times, s.values)).sum(axis=1)
                assert np.array_equal(heat_trace(s, times, 2, 1.0).values,
                                      outer)

    def test_untrusted_flag(self):
        s = rectangle_spectrum(1, 1, 100.0)
        samples = heat_trace(s, [1e-4], 2, 1.0)
        assert not samples.trusted[0]


class TestLaplaceIdentity:
    def test_two_steps(self):
        s = Spectrum("synthetic", [1.0, 2.0])
        assert laplace_identity_check(s, 1.0) <= 1e-14

    def test_square_random_t(self):
        s = rectangle_spectrum(1, 1, 1e5)
        rng = np.random.default_rng(0)
        for t in rng.uniform(1e-3, 1.0, 20):
            assert laplace_identity_check(s, t) <= 1e-12

    def test_empty_spectrum(self):
        assert laplace_identity_check(Spectrum("synthetic", []), 1.0) == 0.0

    def test_with_finite_cutoff(self):
        s = Spectrum("synthetic", [1.0, 2.0, 2.0], cutoff=5.0)
        assert laplace_identity_check(s, 0.7) <= 1e-14


class TestHeatUpperBound:
    def test_square_bound_holds(self):
        s = rectangle_spectrum(1, 1, 1e6)
        samples = heat_trace(s, np.logspace(-3, 0, 12), 2, 1.0)
        rows = heat_upper_bound_check(samples)
        assert all(r.ok for r in rows if r.trusted)

    def test_interval_bound_holds(self):
        s = interval_spectrum(1, 1e7)
        samples = heat_trace(s, np.logspace(-4, 0, 12), 1, 1.0)
        rows = heat_upper_bound_check(samples)
        assert all(r.ok for r in rows if r.trusted)

    def test_single_eigenvalue_huge_t(self):
        s = Spectrum("synthetic", [1.0], source="analytic")
        samples = heat_trace(s, [100.0], 2, 1.0)
        assert heat_upper_bound_check(samples)[0].ok

    def test_violation_raises_for_analytic(self):
        # a fake over-dense spectrum must trip the bound
        s = Spectrum("synthetic", np.linspace(0.01, 1.0, 500),
                     source="analytic")
        samples = heat_trace(s, [1e-3], 2, 1.0)
        with pytest.raises(HeatTraceError):
            heat_upper_bound_check(samples)


class TestKaramata:
    def test_synthetic_integers(self):
        spec, vol = synthetic_integers(200_000)
        samples = heat_trace(spec, np.logspace(-3, -2, 12), 2, vol)
        est = karamata_estimate(samples)
        assert est.coefficient == pytest.approx(1.0, rel=5e-3)

    def test_square_recovers_weyl_coefficient(self):
        s = rectangle_spectrum(1, 1, 1e6)
        samples = heat_trace(s, np.logspace(-3, -2, 12), 2, 1.0)
        est = karamata_estimate(samples)
        assert est.coefficient == pytest.approx(1 / (4 * math.pi), rel=0.02)

    def test_scaling_covariance(self):
        # doubling every eigenvalue halves the fitted coefficient
        s = rectangle_spectrum(1, 1, 1e6)
        doubled = Spectrum("synthetic", 2 * s.values, cutoff=2e6,
                           source="analytic")
        t = np.logspace(-3, -2, 12)
        est1 = karamata_estimate(heat_trace(s, t, 2, 1.0))
        est2 = karamata_estimate(heat_trace(doubled, t / 2, 2, 1.0))
        assert est2.coefficient == pytest.approx(est1.coefficient / 2, rel=1e-6)

    def test_volume_covariance(self):
        # doubling the rectangle area doubles the coefficient
        t = np.logspace(-3, -2, 12)
        est1 = karamata_estimate(heat_trace(rectangle_spectrum(1, 1, 4e5),
                                            t, 2, 1.0))
        est2 = karamata_estimate(heat_trace(rectangle_spectrum(2, 1, 4e5),
                                            t, 2, 2.0))
        assert est2.coefficient == pytest.approx(2 * est1.coefficient, rel=0.02)

    def test_too_few_samples(self):
        spec, vol = synthetic_integers(1000)
        samples = heat_trace(spec, np.logspace(-2, -1, 4), 2, vol)
        with pytest.raises(HeatTraceError):
            karamata_estimate(samples)

    def test_narrow_window(self):
        spec, vol = synthetic_integers(1000)
        samples = heat_trace(spec, np.linspace(0.01, 0.02, 10), 2, vol)
        with pytest.raises(HeatTraceError):
            karamata_estimate(samples)
