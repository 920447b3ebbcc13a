import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from curvint import DomainError, PoleError, cos_k, cot_k, r_domain, sin_k, tan_k
from curvint.kappa_trig import _SERIES_CUTOFF, sin_cos_k_for
from conftest import (REFERENCE_SERIES_CUTOFF, assert_same_bits,
                      reference_cos_k, reference_sin_k)

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
        assert tan_k(1.0, math.pi / 4) == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_tan_k_hyperbolic_saturates(self):
        assert tan_k(-1.0, 40.0) == pytest.approx(1.0, rel=1e-14, abs=0)

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
            assert sin_k(kappa, x) == pytest.approx(expected, rel=1e-12, abs=0)


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


# --- the one factory against the frozen float/array bodies ---

FACTORY_KAPPAS = [-1e3, -1.0, -1e-9, -0.0, 0.0, 1e-9, 1.0, 1e3]
POLE_EPS = 1e-12


def bits(values):
    """The IEEE bytes of floats or arrays (so -0.0 differs from 0.0)."""
    return np.asarray(values, dtype=float).tobytes()


def factory_xs(kappa):
    """x across [-3, 3] / sqrt(max(1, |kappa|)), signed zeros, a subnormal,
    and x one ulp and a few ulps either side of the series cutoff."""
    xs = [0.0, -0.0, 5e-324, -1e-300, 1e-5, -0.3, 0.3, 1.7, -1.7]
    xs += list(np.random.default_rng(7).uniform(-3.0, 3.0, 40))
    xs = [x / math.sqrt(max(1.0, abs(kappa))) for x in xs]
    if kappa != 0.0:
        for r_cut in (math.sqrt(_SERIES_CUTOFF / abs(kappa)),
                      -math.sqrt(_SERIES_CUTOFF / abs(kappa))):
            xs += [r_cut * (1 + k * 1e-15) for k in range(-4, 5)]
            xs += [math.nextafter(r_cut, 0.0),
                   math.nextafter(r_cut, math.copysign(math.inf, r_cut))]
    return [float(x) for x in xs]


def reference_or_pole(num, den):
    """num / den of the frozen bodies; None where den is a pole."""
    return None if abs(den) < POLE_EPS else num / den


class TestFactoryMatchesFrozenBodies:
    def test_cutoff_is_frozen(self):
        assert _SERIES_CUTOFF == REFERENCE_SERIES_CUTOFF

    @pytest.mark.parametrize("kappa", FACTORY_KAPPAS)
    def test_float_bit_for_bit(self, kappa):
        sin_cos = sin_cos_k_for(kappa)
        for x in factory_xs(kappa):
            S, C = reference_sin_k(kappa, x), reference_cos_k(kappa, x)
            assert bits(sin_cos(x)) == bits((S, C)), x
            assert bits(sin_k(kappa, x)) == bits(S), x
            assert bits(cos_k(kappa, x)) == bits(C), x
            for f, expected in ((tan_k, reference_or_pole(S, C)),
                                (cot_k, reference_or_pole(C, S))):
                if expected is None:
                    with pytest.raises(PoleError):
                        f(kappa, x)
                else:
                    assert bits(f(kappa, x)) == bits(expected), (f, x)

    @pytest.mark.parametrize("kappa", FACTORY_KAPPAS)
    def test_array_bit_for_bit(self, kappa):
        xs = np.array(factory_xs(kappa))
        S, C = reference_sin_k(kappa, xs), reference_cos_k(kappa, xs)
        assert bits(sin_cos_k_for(kappa, True)(xs)) == bits((S, C))
        assert bits(sin_k(kappa, xs)) == bits(S)
        assert bits(cos_k(kappa, xs)) == bits(C)
        assert bits(tan_k(kappa, xs)) == bits(
            S / np.where(abs(C) < POLE_EPS, np.nan, C))
        assert bits(cot_k(kappa, xs)) == bits(
            C / np.where(abs(S) < POLE_EPS, np.nan, S))

    @pytest.mark.parametrize("kappa", FACTORY_KAPPAS)
    def test_non_finite_x_parity(self, kappa):
        bad = [math.nan, math.inf, -math.inf]
        sin_cos = sin_cos_k_for(kappa)
        for x in bad:
            for f in (reference_sin_k, reference_cos_k, sin_k, cos_k):
                with pytest.raises(DomainError):
                    f(kappa, x)
            with pytest.raises(DomainError):
                sin_cos(x)
        xs = np.array(bad + [0.5])
        with np.errstate(invalid="ignore"):
            expected = (reference_sin_k(kappa, xs), reference_cos_k(kappa, xs))
            assert bits(sin_cos_k_for(kappa, True)(xs)) == bits(expected)

    @pytest.mark.parametrize("array", [False, True])
    def test_non_finite_kappa_raises(self, array):
        for kappa in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                sin_cos_k_for(kappa, array)

    @pytest.mark.parametrize("kappa, x", [(-1.0, 800.0), (-1e300, 1.0),
                                          (1e300, 1e300), (-4.0, -400.0)])
    def test_overflow_raises_domain_error(self, kappa, x):
        # math.sinh/cosh overflow, or sqrt(kappa) x is infinite
        with pytest.raises(DomainError, match="overflow"):
            sin_k(kappa, x)
        with pytest.raises(DomainError, match="overflow"):
            cot_k(kappa, x)


def frozen_array_sin_cos(kappa, off_pole=False):
    """sin_cos_k_for(kappa, True, off_pole) as it was before its masks were
    applied only where set: np.where at every call.  Keep it frozen."""
    if kappa > 0.0:
        s, trig_sin, trig_cos = math.sqrt(kappa), np.sin, np.cos
    else:
        s, trig_sin, trig_cos = math.sqrt(-kappa), np.sinh, np.cosh

    def sin_cos(x):
        u = kappa * x * x
        sin_x, cos_x = x * (1.0 - u / 6.0), 1.0 - 0.5 * u
        if kappa != 0.0:
            series, sx = abs(u) < _SERIES_CUTOFF, s * x
            sin_x = np.where(series, sin_x, trig_sin(sx) / s)
            cos_x = np.where(series, cos_x, trig_cos(sx))
        return sin_x, cos_x
    if not off_pole:
        return sin_cos

    def sin_cos_off_pole(x):
        S, C = sin_cos(x)
        return np.where(abs(S) < POLE_EPS, np.nan, S), C
    return sin_cos_off_pole


def mask_cases(kappa):
    """name -> x: arrays whose series and pole masks are set at some, all
    or no elements, 0-d and empty arrays, and a 2-d mix."""
    r_cut = (math.sqrt(_SERIES_CUTOFF / abs(kappa)) if kappa != 0.0
             else 1e-4)
    mixed = np.array(factory_xs(kappa))
    return {
        "mixed": mixed,
        "mixed-2d": mixed[:48].reshape(6, 8),
        # series everywhere, and a pole (|sin_k| < 1e-12) everywhere
        "all-series": r_cut * np.array([0.0, -0.0, 0.1, -0.5, 0.99]),
        "all-poles": np.array([0.0, -0.0, 5e-324, 1e-13, -1e-300]),
        # neither the series nor a pole anywhere
        "none": r_cut * np.array([1.01, 2.0, -3.0, 10.0]),
        "0-d-series": np.array(0.5 * r_cut),
        "0-d-pole": np.array(0.0),
        "0-d-closed": np.array(2.0 * r_cut),
        "empty": np.array([]),
        "empty-2d": np.empty((0, 3)),
    }


class TestMasksOnlyWhereSet:
    """The array closures against their always-np.where bodies."""

    @pytest.mark.parametrize("off_pole", [False, True])
    @pytest.mark.parametrize("kappa", FACTORY_KAPPAS)
    def test_sin_cos_bit_for_bit(self, kappa, off_pole):
        sin_cos = sin_cos_k_for(kappa, True, off_pole)
        frozen = frozen_array_sin_cos(kappa, off_pole)
        for name, x in mask_cases(kappa).items():
            assert_same_bits(sin_cos(x), frozen(x), name)

    def test_cases_cover_every_mask_state(self):
        # the series mask and the pole mask each set at some, all and no
        # elements of the cases
        kappa = 1.0
        cases = mask_cases(kappa)
        series = {name: abs(kappa * x * x) < _SERIES_CUTOFF
                  for name, x in cases.items()}
        poles = {name: abs(frozen_array_sin_cos(kappa)(x)[0]) < POLE_EPS
                 for name, x in cases.items()}
        for masks in (series, poles):
            assert masks["mixed"].any() and not masks["mixed"].all()
            assert not masks["none"].any()
        assert series["all-series"].all() and poles["all-poles"].all()


# --- an independent oracle: 50-digit mpmath ---

def mp_sin_cos(kappa, x):
    k, X = mpmath.mpf(kappa), mpmath.mpf(x)
    if kappa > 0.0:
        s = mpmath.sqrt(k)
        return mpmath.sin(s * X) / s, mpmath.cos(s * X)
    if kappa < 0.0:
        s = mpmath.sqrt(-k)
        return mpmath.sinh(s * X) / s, mpmath.cosh(s * X)
    return X, mpmath.mpf(1)


def condition(kappa, x):
    """The relative condition numbers of x -> sin_k(kappa, x), cos_k."""
    th = math.sqrt(abs(kappa)) * x
    if kappa == 0.0 or th == 0.0:
        return 1.0, 0.0
    if kappa > 0.0:
        return abs(th / math.tan(th)), abs(th * math.tan(th))
    return abs(th / math.tanh(th)), abs(th * math.tanh(th))


class TestMpmathOracle:
    @pytest.mark.parametrize("kappa", [-1e3, -4.0, -1.0, -1e-9, 0.0, 1e-9,
                                       1.0, 4.0, 1e3])
    def test_within_1e_14_relative_away_from_zeros(self, kappa):
        # away from the zeros: a condition number <= 12 turns the rounding
        # of sqrt(kappa) x into less than 1e-14 relative
        if abs(kappa) >= 1.0:
            xs = list(np.linspace(-3.5, 3.5, 141) / math.sqrt(abs(kappa)))
        else:
            xs = list(np.linspace(-4.0, 4.0, 161))
        if kappa != 0.0:
            r_cut = math.sqrt(_SERIES_CUTOFF / abs(kappa))
            xs += [math.nextafter(r_cut, 0.0), math.nextafter(r_cut, 10.0)]
        checked = 0
        with mpmath.workdps(50):
            for x in map(float, xs):
                S, C = mp_sin_cos(kappa, x)
                c_sin, c_cos = condition(kappa, x)
                for f, value, c in ((sin_k, S, c_sin), (cos_k, C, c_cos),
                                    (cot_k, C / S if S else None,
                                     c_sin + c_cos)):
                    if c > 12.0 or value is None:
                        continue
                    got = f(kappa, x)
                    assert abs(got - value) <= 1e-14 * abs(value), (f, x)
                    checked += 1
        assert checked > 300
