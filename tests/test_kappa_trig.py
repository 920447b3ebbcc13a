import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from curvint import DomainError, PoleError, cos_k, cot_k, r_domain, sin_k, tan_k

finite_kappa = st.floats(min_value=-5.0, max_value=5.0)
finite_x = st.floats(min_value=-10.0, max_value=10.0)


class TestPointValues:
    def test_cos_k_flat(self):
        assert cos_k(0.0, 7.3) == 1.0

    def test_cos_k_sphere(self):
        assert cos_k(1.0, math.pi) == pytest.approx(-1.0, abs=1e-15)

    def test_cos_k_hyperbolic_origin(self):
        assert cos_k(-1.0, 0.0) == 1.0

    def test_sin_k_flat(self):
        assert sin_k(0.0, 2.5) == 2.5

    def test_sin_k_sphere(self):
        assert sin_k(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_sin_k_scaled_sphere(self):
        assert sin_k(4.0, math.pi / 4) == pytest.approx(0.5, abs=1e-15)

    def test_tan_k_flat(self):
        assert tan_k(0.0, 3.0) == 3.0

    def test_tan_k_sphere(self):
        assert tan_k(1.0, math.pi / 4) == pytest.approx(1.0, rel=1e-14)

    def test_tan_k_hyperbolic_saturates(self):
        assert tan_k(-1.0, 40.0) == pytest.approx(1.0, rel=1e-14)

    def test_tan_k_pole(self):
        with pytest.raises(PoleError):
            tan_k(1.0, math.pi / 2)

    def test_cot_k_pole_at_origin(self):
        with pytest.raises(PoleError):
            cot_k(1.0, 0.0)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                cos_k(1.0, bad)
            with pytest.raises(DomainError):
                sin_k(bad, 1.0)


class TestDomain:
    def test_sphere(self):
        assert r_domain(1.0) == (0.0, pytest.approx(math.pi))

    def test_flat(self):
        assert r_domain(0.0) == (0.0, math.inf)

    def test_scaled_sphere(self):
        assert r_domain(4.0) == (0.0, pytest.approx(math.pi / 2))


class TestIdentities:
    @given(finite_kappa, finite_x)
    def test_pythagorean(self, kappa, x):
        c = cos_k(kappa, x)
        s = sin_k(kappa, x)
        # relative to the term magnitudes (cosh^2 grows fast for kappa < 0)
        scale = 1.0 + c * c + abs(kappa) * s * s
        assert abs(c * c + kappa * s * s - 1.0) <= 1e-12 * scale

    @given(finite_kappa, finite_x)
    def test_parity(self, kappa, x):
        assert cos_k(kappa, -x) == cos_k(kappa, x)
        assert sin_k(kappa, -x) == -sin_k(kappa, x)

    @pytest.mark.parametrize("kappa", [-2.0, -1.0, 0.0, 1.0, 2.0])
    @pytest.mark.parametrize("x", [0.1, 0.7, 1.3])
    def test_derivatives_by_central_difference(self, kappa, x):
        h = 1e-5
        dsin = (sin_k(kappa, x + h) - sin_k(kappa, x - h)) / (2 * h)
        dcos = (cos_k(kappa, x + h) - cos_k(kappa, x - h)) / (2 * h)
        assert dsin == pytest.approx(cos_k(kappa, x), abs=1e-6)
        assert dcos == pytest.approx(-kappa * sin_k(kappa, x), abs=1e-6)

    @pytest.mark.parametrize("f", [sin_k, cos_k, tan_k])
    @pytest.mark.parametrize("eps", [1e-10, -1e-10])
    def test_kappa_continuity_at_zero(self, f, eps):
        for x in [0.0, 0.5, 2.0, 5.0, 10.0]:
            flat = f(0.0, x)
            assert abs(f(eps, x) - flat) <= 1e-8 * (1.0 + abs(flat))

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 3.7])
    def test_scaling_law(self, kappa):
        rt = math.sqrt(kappa)
        for x in [0.2, 1.0, 2.3]:
            expected = sin_k(1.0, rt * x) / rt
            assert sin_k(kappa, x) == pytest.approx(expected, rel=1e-12)


class TestArrayPath:
    @pytest.mark.parametrize("kappa", [-1.0, -1e-9, 0.0, 1e-9, 1.0])
    @pytest.mark.parametrize("f", [sin_k, cos_k, tan_k, cot_k])
    def test_matches_float_path(self, f, kappa):
        # |kappa| x^2 crosses the series cutoff inside [-5, 5] at 1e-9;
        # 0, pi/2 and pi are the poles at kappa = 1
        xs = np.concatenate([np.linspace(-5.0, 5.0, 101),
                             [1e-13, math.pi / 2, math.pi]])
        got = f(kappa, xs)
        assert got.shape == xs.shape
        for x, value in zip(xs, got):
            try:
                expected = f(kappa, float(x))
            except PoleError:
                assert math.isnan(value), x
            else:
                assert abs(value - expected) <= 1e-14 * abs(expected), x
