import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special

from weylcheck.eigensolve import SolverError, Spectrum
from weylcheck.oracles import (
    bessel_j_series,
    disk_spectrum,
    interval_spectrum,
    rectangle_count,
    rectangle_spectrum,
)

PI2 = math.pi**2

# first zeros of J_0 and J_1 (standard tabulated constants)
J01 = 2.404825557695773
J02 = 5.520078110286311
J03 = 8.653727912911013
J11 = 3.831705970207512


class TestRectangleSpectrum:
    def test_small_cutoff(self):
        s = rectangle_spectrum(1, 1, 50)
        assert np.allclose(s.values, [2 * PI2, 5 * PI2, 5 * PI2])

    def test_count_below_100(self):
        # m^2 + n^2 in {2, 5, 5, 8, 10, 10}
        assert len(rectangle_spectrum(1, 1, 100)) == 6

    def test_empty_when_ground_state_above_cutoff(self):
        assert len(rectangle_spectrum(2, 1, 12)) == 0

    def test_strict_cutoff(self):
        s = rectangle_spectrum(1, 1, 2 * PI2)
        assert len(s) == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_count_equals_length(self, seed):
        # thresholds at computed values test the strict inequality
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0.05, 3.0, size=2)
        values = rectangle_spectrum(a, b, 1e4).values
        for lam in [*rng.choice(values, 5), *rng.uniform(-1.0, 1e4, 5)]:
            assert rectangle_count(a, b, lam) == len(rectangle_spectrum(a, b, lam))


class TestIntervalSpectrum:
    def test_basic(self):
        assert np.allclose(interval_spectrum(1, 50).values, [PI2, 4 * PI2])

    def test_strict_at_cutoff(self):
        assert len(interval_spectrum(1, PI2)) == 0

    def test_length_two(self):
        expected = [PI2 / 4, PI2, 9 * PI2 / 4, 4 * PI2, 25 * PI2 / 4]
        assert np.allclose(interval_spectrum(2, 70).values, expected)
        # 4 pi^2 > 30, so a threshold of 30 keeps only the first three
        assert np.allclose(interval_spectrum(2, 30).values, expected[:3])


@pytest.mark.parametrize("spectrum", [
    lambda lam: rectangle_spectrum(1, 1, lam),
    lambda lam: interval_spectrum(1, lam),
    lambda lam: disk_spectrum(1, lam),
], ids=["rectangle", "interval", "disk"])
@pytest.mark.parametrize("lam", [-5.0, -1e-300, 0.0])
def test_empty_below_nonpositive_cutoff(spectrum, lam):
    # no Dirichlet value lies below lam_max <= 0
    s = spectrum(lam)
    assert len(s) == 0
    assert s.cutoff == lam


class TestBesselSeries:
    def test_j0_at_zero(self):
        assert bessel_j_series(0, 0.0) == 1.0

    def test_j0_small_argument(self):
        # J0(1) from the alternating series summed by hand at high precision
        assert bessel_j_series(0, 1.0) == pytest.approx(0.7651976865579666, abs=1e-12)

    def test_vanishes_at_known_zeros(self):
        for z in (J01, J02, J03):
            assert abs(bessel_j_series(0, z)) < 1e-12
        assert abs(bessel_j_series(1, J11)) < 1e-12

    def test_large_argument_cancellation_controlled(self):
        # near the validity edge the series must still be accurate
        # J0(58) ~ 0.0811... (monotone tail between zeros); check via the
        # Bessel differential-equation residual on a 3-point stencil
        h = 1e-3
        x = 58.0
        f = [bessel_j_series(0, x + d) for d in (-h, 0.0, h)]
        resid = (f[0] - 2 * f[1] + f[2]) / h**2 + f[1] + (f[2] - f[0]) / (2 * h * x)
        assert abs(resid) < 1e-4

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bessel_j_series(0, 61.0)

    @pytest.mark.parametrize("order", [0, 1, 3, 20, 59])
    @pytest.mark.parametrize("x", [0.0, 1e-3, 1.0, 14.93, 30.0, 58.0, 60.0])
    def test_matches_mpmath_besselj(self, order, x):
        # an independent reference over the whole range; J_k(0) = 0 for k > 0
        assert bessel_j_series(order, x) == pytest.approx(
            float(mpmath.besselj(order, x)), rel=0, abs=1e-15)


def simple_roots(spectrum):
    """sqrt of the values of multiplicity 1: the zeros of J_0."""
    values, counts = np.unique(spectrum.values, return_counts=True)
    return np.sqrt(values[counts == 1])


@pytest.fixture(scope="module")
def disk_59():
    return disk_spectrum(1, 59.0**2)


class TestDiskSpectrum:
    def test_first_zeros_of_j0(self, disk_59):
        assert np.allclose(simple_roots(disk_59)[:3], [J01, J02, J03],
                           atol=1e-9)

    def test_first_zero_of_j1(self, disk_59):
        values, counts = np.unique(disk_59.values, return_counts=True)
        assert math.sqrt(values[counts == 2][0]) == pytest.approx(J11, abs=1e-9)

    def test_count_matches_mcmahon_density(self, disk_59):
        # McMahon: j_{0,k} ~ (k - 1/4) pi, so 59/pi + 1/4 ~ 19.03 zeros
        assert simple_roots(disk_59).size == 19

    def test_matches_mpmath_besseljzero(self):
        # an independent reference: mpmath's own zero finder
        want = []
        for k in range(30):
            s = 1
            while (z := float(mpmath.besseljzero(k, s))) < 30.0:
                want.extend([z * z] * (1 if k == 0 else 2))
                s += 1
        got = disk_spectrum(1, 900).values
        assert got.size == len(want) == 209
        assert np.allclose(got, np.sort(want), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mutate, message", [
        (lambda z: z * np.where(np.arange(z.size) == 2, 1 + 1e-8, 1),
         "no sign change"),
        (lambda z: np.delete(z, 0), "no sign change"),
        (lambda z: z[:-3], "end at"),
    ], ids=["moved", "dropped", "short"])
    def test_wrong_zeros_raise(self, monkeypatch, mutate, message):
        # J_3 has 5 zeros below x = 20, and 8 are requested
        jn_zeros = scipy.special.jn_zeros
        monkeypatch.setattr(
            scipy.special, "jn_zeros",
            lambda k, n: mutate(jn_zeros(k, n)) if k == 3 else jn_zeros(k, n))
        with pytest.raises(SolverError, match=message):
            disk_spectrum(1, 400)

    def test_ground_state(self):
        s = disk_spectrum(1, 30)
        assert s.values[0] == pytest.approx(J01**2, abs=1e-8)

    def test_double_multiplicity(self):
        s = disk_spectrum(1, 30)
        assert s.values[1] == pytest.approx(J11**2, abs=1e-8)
        assert s.values[1] == s.values[2]

    def test_radius_scaling(self):
        assert disk_spectrum(2, 10).values[0] == pytest.approx(J01**2 / 4, abs=1e-8)

    def test_cutoff_restriction(self):
        with pytest.raises(ValueError):
            disk_spectrum(1, 1e5)

    def test_weyl_density_sanity(self):
        # N(lam) should approach lam * area / (4 pi) from below
        lam = 3000.0
        s = disk_spectrum(1, lam + 1)
        n = int((s.values < lam).sum())
        weyl = lam * math.pi / (4 * math.pi)
        assert 0.8 * weyl < n < weyl


def loaded_modules(code):
    """Names of the modules loaded after running code in a fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c",
         code + "; import json, sys; print(json.dumps(sorted(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_import_loads_neither_scipy_special_nor_mpmath():
    # scipy.special loads on first use, so the set-up cost of a run does not
    # pay it; mpmath is a test dependency only, and the disk oracle's
    # certificate runs without it
    assert not [m for m in loaded_modules("import weylcheck")
                if m.split(".")[0] == "mpmath" or m.startswith("scipy.special")]
    assert not [m for m in loaded_modules(
        "from weylcheck.oracles import disk_spectrum; disk_spectrum(1, 900)")
        if m.split(".")[0] == "mpmath"]
