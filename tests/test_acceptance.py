"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from curvint import (PhaseState, SystemKind, SystemSpec, closure_detect,
                     cot_k, euclidean_limit_scan, hamiltonian, integrate,
                     j2, k_constant, random_bounded_state, rotation_check)
from curvint.cli import main
from curvint.verify import bracket_with_scale, drift
from conftest import kepler_spec, pw_spec, random_interior_states

M_GRID = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
          Fraction(3, 2))
KAPPAS = (-1.0, 0.0, 1.0)


def verdict(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_superintegrability_grid():
    """H, J2, J3, J4 drift < 1e-7 over t = 100 across the kappa x m grid."""
    worst = 0.0
    for i, kappa in enumerate(KAPPAS):
        for k, m in enumerate(M_GRID):
            spec = pw_spec(kappa=kappa, m=m)
            rng = np.random.default_rng(2026 + 10 * i + k)
            for _ in range(5):
                s0 = random_bounded_state(spec, rng)
                traj = integrate(s0, spec, 100.0)
                fns = {"H": lambda s, t: hamiltonian(s, spec),
                       "J2": lambda s, t: j2(s, spec),
                       "J3": lambda s, t: k_constant(s, spec).real,
                       "J4": lambda s, t: k_constant(s, spec).imag}
                for name, fn in fns.items():
                    rep = drift(traj, name, fn, 1e-7)
                    worst = max(worst, rep.rel_drift)
                    assert rep.passed, (kappa, m, name, rep)
    verdict(1, worst < 1e-7,
            f"superintegrability drift grid, worst {worst:.2e} < 1e-7")


def test_criterion_2_moduli_identities():
    """Both complex-factor moduli identities at 1e4 random interior states."""
    worst = 0.0
    per_cell = 10000 // (len(KAPPAS) * 2)
    for kappa in KAPPAS:
        for seed, m in ((21, Fraction(2)), (22, Fraction(3, 2))):
            spec = pw_spec(kappa=kappa, m=m)
            for s in random_interior_states(spec, per_cell, seed=seed):
                J2 = j2(s, spec)
                H = hamiltonian(s, spec)
                from curvint import m_r, n_phi
                rhs_m = (2 * H - kappa * J2) * J2 + spec.g ** 2
                rhs_n = J2 ** 2 - 2 * spec.k_a * J2 + spec.k_b ** 2
                err_m = abs(abs(m_r(s, spec)) ** 2 - rhs_m) \
                    / (1.0 + abs(rhs_m))
                err_n = abs(abs(n_phi(s, spec)) ** 2 - rhs_n) \
                    / (1.0 + abs(rhs_n))
                worst = max(worst, err_m, err_n)
    verdict(2, worst <= 1e-10, f"moduli identities, worst {worst:.2e}")


def test_criterion_3_rotation_laws():
    """Finite-difference dM/dt, dN/dt match the phase-rotation couplings."""
    worst = 0.0
    for kappa in KAPPAS:
        for m in (Fraction(1), Fraction(2), Fraction(1, 2)):
            spec = pw_spec(kappa=kappa, m=m)
            rng = np.random.default_rng(33)
            traj = integrate(random_bounded_state(spec, rng), spec, 20.0)
            rep = rotation_check(traj, spec)
            worst = max(worst, rep.max_rel_err_m, rep.max_rel_err_n)
            assert rep.passed, (kappa, m, rep)
    verdict(3, worst < 1e-5, f"rotation laws, worst {worst:.2e} < 1e-5")


def test_criterion_4_bracket_vanishing():
    """FD Poisson brackets of J2, J3, J4 with H vanish; control does not."""
    worst = 0.0
    for kappa in KAPPAS:
        for m in (Fraction(1), Fraction(2), Fraction(1, 2)):
            spec = pw_spec(kappa=kappa, m=m)
            H = lambda s: hamiltonian(s, spec)
            for s in random_interior_states(spec, 100, seed=44):
                for fn in (lambda x: j2(x, spec),
                           lambda x: k_constant(x, spec).real,
                           lambda x: k_constant(x, spec).imag):
                    value, scale = bracket_with_scale(fn, H, s)
                    rel = abs(value) / (1.0 + scale)
                    worst = max(worst, rel)
                    assert rel <= 1e-6, (kappa, m, rel)
    # negative control
    spec = pw_spec(kappa=1.0, m=Fraction(1))
    H = lambda s: hamiltonian(s, spec)
    s = random_interior_states(spec, 1, seed=45)[0]
    value, scale = bracket_with_scale(lambda x: j2(x, spec) + x.r, H, s)
    control = abs(value) / (1.0 + scale)
    ok = worst <= 1e-6 and control > 1e-6
    verdict(4, ok, f"bracket vanishing, worst {worst:.2e}, "
                   f"control {control:.2e} > 1e-6")


def test_criterion_5_curved_kepler():
    """Runge-Lenz drift on curved Kepler orbits; circular orbit period."""
    from curvint import runge_lenz
    worst = 0.0
    states = {1.0: PhaseState(0.9, 0.3, 0.1, 0.7),
              -1.0: PhaseState(0.8, 0.3, 0.05, 0.5)}
    for kappa, s0 in states.items():
        spec = kepler_spec(kappa=kappa)
        traj = integrate(s0, spec, 100.0)
        for i in (0, 1):
            rep = drift(traj, f"I{i + 3}",
                        lambda s, t: runge_lenz(s, spec)[i], 1e-8)
            worst = max(worst, rep.rel_drift)
            assert rep.passed, (kappa, rep)
    traj = integrate(PhaseState(1.0, 0.0, 0.0, 1.0), kepler_spec(),
                     2 * math.pi)
    final = traj.states[-1]
    ret = max(abs(final[0] - 1.0), abs(final[1] - 2 * math.pi),
              abs(final[2]), abs(final[3] - 1.0))
    ok = worst < 1e-8 and ret < 1e-8
    verdict(5, ok, f"curved Kepler: drift {worst:.2e} < 1e-8, "
                   f"circular return {ret:.2e} < 1e-8")


def test_criterion_6_vc_integrals():
    """I2, I3 drift < 1e-8 for the m = 1 deformation, all curvature signs."""
    from curvint import vc_integrals
    worst = 0.0
    for kappa in KAPPAS:
        spec = SystemSpec(kind=SystemKind.VC, kappa=kappa, g=1.0,
                          k_a=0.5, k_b=0.2)
        traj = integrate(PhaseState(1.1, 1.0, 0.05, 0.5), spec, 100.0)
        for i in (0, 1):
            rep = drift(traj, f"I{i + 2}",
                        lambda s, t: vc_integrals(s, spec)[i], 1e-8)
            worst = max(worst, rep.rel_drift)
            assert rep.passed, (kappa, rep)
    verdict(6, worst < 1e-8, f"Vc integrals drift, worst {worst:.2e}")


def test_criterion_7_potential_curve(tmp_path):
    """Three-branch Kepler curve: pointwise ordering plus asymptotics."""
    out = str(tmp_path / "curve.csv")
    code = main(["potential-curve", "--g", "1.0", "--r-min", "0.05",
                 "--r-max", str(math.pi / 2 - 0.05), "--samples", "400",
                 "--out", out])
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    ordered = bool(np.all(data[:, 1] > data[:, 2])
                   and np.all(data[:, 2] > data[:, 3]))
    g = 1.0
    u0_far = -g / 50.0
    um_far = -g * cot_k(-1.0, 50.0)
    ok = (code == 0 and ordered and abs(u0_far) < 0.025 * g
          and abs(um_far + g) < 1e-20 * g)
    verdict(7, ok, f"potential curve ordered={ordered}, "
                   f"|U0(50)|={abs(u0_far):.3f}, "
                   f"|U-1(50)+g|={abs(um_far + g):.1e}")


def test_criterion_8_closure_on_sphere():
    """A bounded spherical m = 2 orbit recurs in phase space within t = 200."""
    spec = pw_spec(kappa=1.0, m=Fraction(2))
    rng = np.random.default_rng(11)
    s0 = random_bounded_state(spec, rng)
    traj = integrate(s0, spec, 200.0)
    T = closure_detect(traj, tol=1e-6)
    mismatch = math.inf
    if T is not None:
        y0 = traj.states[0]
        y = traj.dense(traj.times[0] + T)
        dphi = (y[1] - y0[1] + math.pi) % (2 * math.pi) - math.pi
        mismatch = math.sqrt((y[0] - y0[0]) ** 2 + dphi ** 2
                             + (y[2] - y0[2]) ** 2 + (y[3] - y0[3]) ** 2)
    ok = T is not None and mismatch < 1e-6
    verdict(8, ok, f"closure at T={T}, phase mismatch {mismatch:.2e} < 1e-6")


def test_criterion_9_euclidean_limit():
    """O(kappa) convergence of H, M_r, N_phi, lambda to the flat values."""
    state = PhaseState(1.1, 0.6, 0.2, 0.9)
    reports = euclidean_limit_scan(pw_spec(m=Fraction(2)), state)
    worst = 0.0
    for rep in reports:
        assert rep.passed, rep
        dev8 = max(d for k, d in rep.deviations if abs(k) < 5e-8)
        scale = 1.0 + abs(rep.flat_value)
        worst = max(worst, dev8 / scale)
        assert dev8 <= 1e-7 * scale, rep.name
    verdict(9, worst <= 1e-7,
            f"Euclidean limit, worst dev(1e-8)/scale {worst:.2e} <= 1e-7")
