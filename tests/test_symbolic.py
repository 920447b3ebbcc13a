"""Exact oracles: the PW system's brackets, and those of the Kepler and VC
quadratic integrals, proved with sympy.

For F = (k_a + k_b cos(m phi)) / sin^2(m phi) and

    H     = (p_r^2 + p_phi^2 / S^2) / 2 - g C / S + F / S^2
    J2    = p_phi^2 + 2 F
    M_r   = p_r sqrt(J2) + i (g - J2 C / S)
    N_phi = k_b + J2 cos(m phi) + i p_phi sqrt(J2) sin(m phi)
    lambda = sqrt(J2) / S^2

with kappa a symbol, S(r) and C(r) functions with S' = C and C' = -kappa S
(Sin_k and Cos_k for every curvature), and the Poisson bracket {A, B} =
A_r B_pr - A_pr B_r + A_phi B_pphi - A_pphi B_phi, under which dA/dt =
{A, H}, the tests reduce {H, J2}, {M_r, H} - i lambda M_r,
{N_phi, H} - i m lambda N_phi, {K, H} for K = M_r^p conj(N_phi)^q
(m = p/q) and the moduli identities |M_r|^2 = (2 H - kappa J2) J2 + g^2
and |N_phi|^2 = J2^2 - 2 k_a J2 + k_b^2 to 0, and so {I3, H} and {I4, H}
of the curved Runge-Lenz pair (F = 0) and {I3, H} of VC (m = 1).  None of
them reads curvint's arithmetic; `test_formulas_are_curvints` and
`test_quadratic_integrals_are_curvints` check that the formulas proved are
the ones curvint evaluates.

A reduced expression is a polynomial in sqrt(J2), C and sin(m phi) of
degree at most 1 in each, by sqrt(J2)^2 = J2, C^2 = 1 - kappa S^2 and
sin^2 + cos^2 = 1, whose coefficients are polynomials in the remaining
symbols: that form is unique, so it is 0 exactly when the identity holds.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from curvint import (SystemKind, SystemSpec, hamiltonian, j2, lambda_k, m_r,
                     n_phi, runge_lenz, vc_integrals)
from conftest import kepler_spec, pw_spec, random_interior_states

M_VALUES = (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(1, 2))

r, phi, p_r, p_phi = sp.symbols("r phi p_r p_phi", real=True)
kappa, g, k_a, k_b = sp.symbols("kappa g k_a k_b", real=True)
S_, C_, W_ = sp.Function("S"), sp.Function("C"), sp.Function("W")
# the reduced forms' symbols: Sin_k(r), Cos_k(r), sin(m phi), cos(m phi)
# and sqrt(J2)
S, C, s, c, w = sp.symbols("S C s c w")


def system(m):
    """H, J2, M_r, N_phi and lambda of PW at m = p/q, sqrt(J2) as
    W(phi, p_phi)."""
    m = sp.Rational(m.numerator, m.denominator)
    F = (k_a + k_b * sp.cos(m * phi)) / sp.sin(m * phi) ** 2
    Sr, Cr, W = S_(r), C_(r), W_(phi, p_phi)
    H = (p_r ** 2 + p_phi ** 2 / Sr ** 2) / 2 - g * Cr / Sr + F / Sr ** 2
    J2 = p_phi ** 2 + 2 * F
    M = p_r * W + sp.I * (g - J2 * Cr / Sr)
    N = k_b + J2 * sp.cos(m * phi) + sp.I * p_phi * W * sp.sin(m * phi)
    return m, H, J2, M, N, W / Sr ** 2


def bracket(A, B):
    return (sp.diff(A, r) * sp.diff(B, p_r) - sp.diff(A, p_r) * sp.diff(B, r)
            + sp.diff(A, phi) * sp.diff(B, p_phi)
            - sp.diff(A, p_phi) * sp.diff(B, phi))


def _reduce_powers(expr, x, square):
    """expr, a polynomial in x, with x^2 replaced by square."""
    poly = sp.Poly(sp.expand(expr), x)
    return sp.expand(sum(coeff * square ** (k // 2) * x ** (k % 2)
                         for (k,), coeff in poly.terms()))


def reduced(expr, m, J2):
    """The unique form of expr (see the module docstring)."""
    W = W_(phi, p_phi)
    expr = expr.subs({sp.Derivative(W, phi): sp.diff(J2, phi) / (2 * W),
                      sp.Derivative(W, p_phi): sp.diff(J2, p_phi) / (2 * W),
                      sp.Derivative(S_(r), r): C_(r),
                      sp.Derivative(C_(r), r): -kappa * S_(r)})
    symbols = {W: w, S_(r): S, C_(r): C, sp.sin(m * phi): s,
               sp.cos(m * phi): c}
    expr, J2 = expr.subs(symbols), J2.subs(symbols)
    assert not expr.has(r, phi, sp.Derivative), expr
    # the numerator, over a denominator that does not vanish; w^2 = J2
    # brings back a denominator s^2, so the numerator is cleared again
    num = _reduce_powers(sp.numer(sp.together(expr)), w, J2)
    num = _reduce_powers(sp.numer(sp.together(num)), C, 1 - kappa * S ** 2)
    return _reduce_powers(num, s, 1 - c ** 2)


@pytest.mark.parametrize("m", M_VALUES, ids=str)
class TestPwBrackets:
    def test_h_and_j2_commute(self, m):
        m, H, J2, M, N, lam = system(m)
        assert reduced(bracket(H, J2), m, J2) == 0

    def test_m_r_rotates_at_lambda(self, m):
        m, H, J2, M, N, lam = system(m)
        assert reduced(bracket(M, H) - sp.I * lam * M, m, J2) == 0

    def test_n_phi_rotates_at_m_lambda(self, m):
        m, H, J2, M, N, lam = system(m)
        assert reduced(bracket(N, H) - sp.I * m * lam * N, m, J2) == 0

    def test_a_wrong_rate_does_not_reduce(self, m):
        # the negative control: the form is 0 only where the law holds
        m, H, J2, M, N, lam = system(m)
        assert reduced(bracket(M, H) + sp.I * lam * M, m, J2) != 0
        assert reduced(bracket(N, H) + sp.I * m * lam * N, m, J2) != 0

    def test_moduli_closed_forms(self, m):
        m, H, J2, M, N, lam = system(m)
        assert reduced(modulus_squared(M)
                       - ((2 * H - kappa * J2) * J2 + g ** 2), m, J2) == 0
        assert reduced(modulus_squared(N)
                       - (J2 ** 2 - 2 * k_a * J2 + k_b ** 2), m, J2) == 0
        # the negative control: a wrong sign of the k_a term
        assert reduced(modulus_squared(N)
                       - (J2 ** 2 + 2 * k_a * J2 + k_b ** 2), m, J2) != 0


def conjugate(Z):
    """Z's complex conjugate: every symbol and W = sqrt(J2) is real."""
    return Z.subs(sp.I, -sp.I)


def modulus_squared(Z):
    """|Z|^2 as Re(Z)^2 + Im(Z)^2."""
    re, im = (Z + conjugate(Z)) / 2, (Z - conjugate(Z)) / (2 * sp.I)
    return re ** 2 + im ** 2


# m = 3/2 is left out: its K = M_r^3 conj(N_phi)^2 took 15.5 s to reduce.
# {K, H} = 0 follows at every m = p/q from the rotation laws above, by the
# Leibniz rule: {K, H} = i (p - q m) lambda K.
@pytest.mark.parametrize("m", [Fraction(1), Fraction(2), Fraction(1, 2)],
                         ids=str)
def test_k_commutes_with_h(m):
    """{K, H} = 0 for K = M_r^p conj(N_phi)^q, m = p/q, by direct
    expansion."""
    p, q = m.numerator, m.denominator
    m, H, J2, M, N, lam = system(m)
    K = M ** p * conjugate(N) ** q
    assert reduced(bracket(K, H), m, J2) == 0


def test_k_of_the_wrong_power_does_not_commute():
    # the negative control: at m = 1, M_r^2 conj(N_phi) turns at lambda
    m, H, J2, M, N, lam = system(Fraction(1))
    K = M ** 2 * conjugate(N)
    assert reduced(bracket(K, H), m, J2) != 0


def float_functions(spec, exprs):
    """exprs as one float function of (r, phi, p_r, p_phi) at spec's
    constants, S and C from sin/cos (sinh/cosh, or r and 1)."""
    sqrt_k = math.sqrt(abs(spec.kappa))
    if spec.kappa > 0:
        S_of, C_of = (lambda x: sp.sin(sqrt_k * x) / sqrt_k,
                      lambda x: sp.cos(sqrt_k * x))
    elif spec.kappa < 0:
        S_of, C_of = (lambda x: sp.sinh(sqrt_k * x) / sqrt_k,
                      lambda x: sp.cosh(sqrt_k * x))
    else:
        S_of, C_of = (lambda x: x), (lambda x: sp.Integer(1))
    values = {kappa: spec.kappa, g: spec.g, k_a: spec.k_a, k_b: spec.k_b}
    return sp.lambdify((r, phi, p_r, p_phi),
                       [e.replace(S_, S_of).replace(C_, C_of).subs(values)
                        for e in exprs], "math")


@pytest.mark.parametrize("kappa_value", [-1.0, 0.0, 1.0])
def test_formulas_are_curvints(kappa_value):
    """The proved formulas, evaluated in floats with S and C from sin/cos
    (sinh/cosh, or r and 1), equal curvint's at interior states."""
    for m in M_VALUES:
        spec = pw_spec(kappa=kappa_value, m=m)
        _, H, J2, M, N, lam = system(m)
        fns = float_functions(spec, [e.subs(W_(phi, p_phi), sp.sqrt(J2))
                                     for e in (H, J2, M, N, lam)])
        for state in random_interior_states(spec, 5, seed=13):
            got = fns(*state.as_tuple())
            want = [hamiltonian(state, spec), j2(state, spec),
                    m_r(state, spec), n_phi(state, spec),
                    lambda_k(state, spec)]
            assert np.allclose(np.array(got, dtype=complex),
                               np.array(want, dtype=complex),
                               rtol=1e-12, atol=1e-12), (m, state)


def quadratic_integrals():
    """H and the Runge-Lenz pair (I3, I4) of Kepler (F = 0, J2 = p_phi^2),
    and H, J2 and I3 of VC (PW at m = 1), I3 with its k_a and k_b terms
    scaled by a and b (1 for curvint's)."""
    m, H, J2, M, N, lam = system(Fraction(1))
    Sr, Cr = S_(r), C_(r)
    p1 = sp.cos(phi) * p_r - Cr / Sr * sp.sin(phi) * p_phi
    p2 = sp.sin(phi) * p_r + Cr / Sr * sp.cos(phi) * p_phi
    kepler = (H.subs({k_a: 0, k_b: 0}), p2 * p_phi - g * sp.cos(phi),
              p1 * p_phi + g * sp.sin(phi))

    def vc_i3(a=1, b=1):
        return (p2 * p_phi - g * sp.cos(phi)
                + a * 2 * k_a * Cr / Sr * sp.cos(phi) / sp.sin(phi) ** 2
                + b * k_b * Cr / Sr * (1 + sp.cos(phi) ** 2)
                / sp.sin(phi) ** 2)
    return m, kepler, (H, J2, vc_i3)


class TestQuadraticIntegrals:
    """{I3, H} = {I4, H} = 0 for Kepler and {I3, H} = 0 for VC, kappa a
    symbol; reduced as the PW brackets are, at m = 1."""

    def test_runge_lenz_commutes_with_h(self):
        m, (H, I3, I4), _ = quadratic_integrals()
        assert reduced(bracket(I3, H), m, p_phi ** 2) == 0
        assert reduced(bracket(I4, H), m, p_phi ** 2) == 0

    def test_runge_lenz_with_a_wrong_sign_does_not_commute(self):
        # the negative control: the g terms' signs flipped
        m, (H, I3, I4), _ = quadratic_integrals()
        I3 += 2 * g * sp.cos(phi)
        I4 -= 2 * g * sp.sin(phi)
        assert reduced(bracket(I3, H), m, p_phi ** 2) != 0
        assert reduced(bracket(I4, H), m, p_phi ** 2) != 0

    def test_vc_i3_commutes_with_h(self):
        m, _, (H, J2, vc_i3) = quadratic_integrals()
        assert reduced(bracket(vc_i3(), H), m, J2) == 0

    @pytest.mark.parametrize("a, b", [(-1, 1), (1, -1), (1, 0)])
    def test_vc_i3_with_a_wrong_term_does_not_commute(self, a, b):
        # the negative control: a k_a or k_b term of the wrong sign, or
        # left out
        m, _, (H, J2, vc_i3) = quadratic_integrals()
        assert reduced(bracket(vc_i3(a, b), H), m, J2) != 0


@pytest.mark.parametrize("kappa_value", [-1.0, 0.0, 1.0])
def test_quadratic_integrals_are_curvints(kappa_value):
    """The proved I3, I4 of Kepler and I3 of VC, evaluated in floats, equal
    runge_lenz's and vc_integrals' at interior states."""
    _, (H, I3, I4), (vc_H, vc_J2, vc_i3) = quadratic_integrals()
    for spec, exprs, curvints in (
            (kepler_spec(kappa=kappa_value), [H, I3, I4],
             lambda s, spec: (hamiltonian(s, spec), *runge_lenz(s, spec))),
            (SystemSpec(kind=SystemKind.VC, kappa=kappa_value, g=1.0,
                        k_a=0.8, k_b=0.3), [vc_H, vc_J2, vc_i3()],
             lambda s, spec: (hamiltonian(s, spec), *vc_integrals(s, spec)))):
        fns = float_functions(spec, exprs)
        for state in random_interior_states(spec, 5, seed=13):
            assert np.allclose(fns(*state.as_tuple()), curvints(state, spec),
                               rtol=1e-12, atol=1e-12), (spec, state)
