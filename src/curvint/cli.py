"""Command-line front end.

Subcommands:

    simulate         integrate a configured system, write trajectory CSV
                     with invariant columns
    verify           run the verification suite for the configured system,
                     write a report CSV, exit 0 iff all checks pass
    potential-curve  emit the three Kepler potential branches as CSV
    dump-config      print the fully-resolved run configuration

Config files are flat `key = value` lines with `#` comments; unknown keys
are rejected with the offending line number.  CLI flags override file
values.  The env var CURVINT_SEED seeds the random-state grids used by
`verify`.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .errors import ConfigError, CurvintError, DomainError
from .kappa_trig import cot_k
from .systems import PhaseState, SystemKind, SystemSpec, hamiltonian
from .dynamics import IntegratorConfig, Termination, integrate
from .invariants import evaluators_for, j2, k_constant, m_r, n_phi
from .verify import (bracket_with_scale, drift, euclidean_limit_scan,
                     random_bounded_state, rotation_check)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_SINGULAR_START = 3
_EXIT_BY_TERMINATION = {
    Termination.COMPLETED: 0,
    Termination.HIT_RADIAL_POLE: 4,
    Termination.HIT_ANGULAR_SINGULARITY: 5,
    Termination.STEP_UNDERFLOW: 6,
}

_KINDS = {k.value: k for k in SystemKind}


@dataclass
class RunConfig:
    kind: str = "kepler"
    kappa: float = 0.0
    g: float = 1.0
    k_a: float = 0.0
    k_b: float = 0.0
    m_num: int = 1
    m_den: int = 1
    r0: float = 1.0
    phi0: float = 1.5707963267948966
    p_r0: float = 0.0
    p_phi0: float = 1.0
    t_end: float = 10.0
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    singularity_margin: float = 1e-6

    def system_spec(self) -> SystemSpec:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown system kind {self.kind!r}")
        if self.m_den == 0:
            raise ConfigError("m_den must be nonzero")
        try:
            return SystemSpec(kind=_KINDS[self.kind], kappa=self.kappa,
                              g=self.g, k_a=self.k_a, k_b=self.k_b,
                              m=Fraction(self.m_num, self.m_den))
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

    def initial_state(self) -> PhaseState:
        return PhaseState(self.r0, self.phi0, self.p_r0, self.p_phi0)

    def integrator_config(self) -> IntegratorConfig:
        try:
            return IntegratorConfig(
                rel_tol=self.rel_tol, abs_tol=self.abs_tol,
                max_step=self.max_step,
                singularity_margin=self.singularity_margin)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _convert(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    if ftype in (int, "int"):
        return int(raw)
    if ftype in (float, "float"):
        return float(raw)
    return raw.strip()


def parse_config(text: str) -> RunConfig:
    """Parse flat key = value config text; diagnostics carry line numbers."""
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected `key = value`, got {stripped!r}",
                              line=lineno)
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        try:
            setattr(cfg, key, _convert(key, raw))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}", line=lineno)
    return cfg


def dump_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = RunConfig()
    overrides = {
        "kappa": "kappa", "g": "g", "ka": "k_a", "kb": "k_b",
        "t_end": "t_end", "rel_tol": "rel_tol", "abs_tol": "abs_tol",
    }
    for argname, key in overrides.items():
        value = getattr(args, argname, None)
        if value is not None:
            setattr(cfg, key, value)
    if getattr(args, "m", None) is not None:
        try:
            frac = Fraction(args.m)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad value for --m: {exc}") from exc
        cfg.m_num, cfg.m_den = frac.numerator, frac.denominator
    if getattr(args, "kind", None) is not None:
        cfg.kind = args.kind
    return cfg


# --- subcommands ---

def cmd_simulate(args) -> int:
    try:
        cfg = _load_config(args)
        spec = cfg.system_spec()
        state0 = cfg.initial_state()
        hamiltonian(state0, spec)
        traj = integrate(state0, spec, cfg.t_end, cfg.integrator_config())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CurvintError as exc:
        print(f"singular initial state: {exc}", file=sys.stderr)
        return EXIT_SINGULAR_START

    out = args.out or "trajectory.csv"
    traj.write_csv(out, evaluators_for(spec))
    print(f"{traj.termination.value}: {len(traj)} samples -> {out}")
    return _EXIT_BY_TERMINATION[traj.termination]


def _verify_rows(cfg: RunConfig, negative_control: bool):
    """(check, name, value, threshold, pass) rows for the configured kind."""
    spec = cfg.system_spec()
    seed = int(os.environ.get("CURVINT_SEED", "0"))
    rng = np.random.default_rng(seed)
    rows = []

    traj = integrate(cfg.initial_state(), spec, cfg.t_end,
                     cfg.integrator_config())

    for name, fn in evaluators_for(spec).items():
        rep = drift(traj, name, lambda s, t, fn=fn: fn(s), 1e-8)
        rows.append(("drift", name, rep.rel_drift, rep.tolerance,
                     rep.passed))
    if negative_control:
        rep = drift(traj, "J2_plus_t", lambda s, t: j2(s, spec) + t, 1e-8)
        rows.append(("drift", "J2_plus_t", rep.rel_drift, rep.tolerance,
                     rep.passed))

    states = [random_bounded_state(spec, rng) for _ in range(20)]

    H = lambda s: hamiltonian(s, spec)
    named = {"J2~H": lambda s: j2(s, spec)}
    if spec.has_angular_term and spec.kind is not SystemKind.GENERIC_F:
        named["J3~H"] = lambda s: k_constant(s, spec).real
        named["J4~H"] = lambda s: k_constant(s, spec).imag
    else:
        named["p_phi~H"] = lambda s: s.p_phi
    if negative_control:
        named["J2+r~H"] = lambda s: j2(s, spec) + s.r
    for name, fn in named.items():
        worst = 0.0
        for s in states:
            value, scale = bracket_with_scale(fn, H, s)
            worst = max(worst, abs(value) / (1.0 + scale))
        rows.append(("bracket", name, worst, 1e-6, worst <= 1e-6))

    if spec.kind in (SystemKind.PW, SystemKind.VC):
        rep = rotation_check(traj, spec)
        rows.append(("rotation", "M_r", rep.max_rel_err_m, rep.tolerance,
                     rep.max_rel_err_m < rep.tolerance))
        rows.append(("rotation", "N_phi", rep.max_rel_err_n, rep.tolerance,
                     rep.max_rel_err_n < rep.tolerance))
        worst_m = worst_n = 0.0
        for s in states:
            J2 = j2(s, spec)
            H0 = hamiltonian(s, spec)
            lhs_m = abs(m_r(s, spec)) ** 2
            rhs_m = (2.0 * H0 - spec.kappa * J2) * J2 + spec.g ** 2
            lhs_n = abs(n_phi(s, spec)) ** 2
            rhs_n = J2 * J2 - 2.0 * spec.k_a * J2 + spec.k_b ** 2
            worst_m = max(worst_m, abs(lhs_m - rhs_m) / (1.0 + abs(rhs_m)))
            worst_n = max(worst_n, abs(lhs_n - rhs_n) / (1.0 + abs(rhs_n)))
        rows.append(("moduli", "|M_r|^2", worst_m, 1e-10, worst_m <= 1e-10))
        rows.append(("moduli", "|N_phi|^2", worst_n, 1e-10,
                     worst_n <= 1e-10))

        def make_spec(kap):
            return SystemSpec(kind=spec.kind, kappa=kap, g=spec.g,
                              k_a=spec.k_a, k_b=spec.k_b, m=spec.m)
        for rep in euclidean_limit_scan(make_spec, cfg.initial_state()):
            dev8 = max((d for kap, d in rep.deviations
                        if abs(kap) < 5e-8), default=0.0)
            rows.append(("limit", rep.name, dev8,
                         1e-7 * (1.0 + abs(rep.flat_value)), rep.passed))
    return rows


def cmd_verify(args) -> int:
    try:
        cfg = _load_config(args)
        rows = _verify_rows(cfg, args.negative_control)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CurvintError as exc:
        print(f"singular initial state: {exc}", file=sys.stderr)
        return EXIT_SINGULAR_START

    lines = ["check,name,value,threshold,pass"]
    for check, name, value, threshold, ok in rows:
        lines.append("%s,%s,%.17g,%.17g,%s"
                     % (check, name, value, threshold,
                        "true" if ok else "false"))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    n_fail = sum(1 for row in rows if not row[4])
    for check, name, value, threshold, ok in rows:
        status = "ok  " if ok else "FAIL"
        print(f"  {status} {check:10s} {name:12s} {value:.3e} "
              f"(threshold {threshold:.1e})", file=sys.stderr)
    print(f"{len(rows) - n_fail}/{len(rows)} checks passed", file=sys.stderr)
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY_FAILED


def cmd_potential_curve(args) -> int:
    if not (0.0 < args.r_min < args.r_max < math.pi):
        print("require 0 < r-min < r-max < pi", file=sys.stderr)
        return EXIT_CONFIG
    out = args.out or "potential_curve.csv"
    r = np.linspace(args.r_min, args.r_max, args.samples)
    np.savetxt(out, np.column_stack((r, -args.g * cot_k(1.0, r), -args.g / r,
                                     -args.g * cot_k(-1.0, r))),
               fmt="%.17g", delimiter=",", header="r,U_plus,U_flat,U_minus",
               comments="")
    print(f"{args.samples} samples -> {out}")
    return EXIT_OK


def cmd_dump_config(args) -> int:
    try:
        cfg = _load_config(args)
        cfg.system_spec()
        cfg.integrator_config()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    sys.stdout.write(dump_config(cfg))
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to key = value config file")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--kind", choices=sorted(_KINDS))
    p.add_argument("--kappa", type=float)
    p.add_argument("--m", help="rational index p/q, e.g. 3/2")
    p.add_argument("--g", type=float)
    p.add_argument("--ka", type=float)
    p.add_argument("--kb", type=float)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--rel-tol", dest="rel_tol", type=float)
    p.add_argument("--abs-tol", dest="abs_tol", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvint",
        description="Curved Kepler-type systems: simulation and "
                    "verification of their constants of motion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate and write trajectory CSV")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the verification suite")
    _add_common(p)
    p.add_argument("--negative-control", action="store_true",
                   help="include deliberately corrupted invariants")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("potential-curve",
                       help="Kepler potential branches for kappa = +1/0/-1")
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--r-min", dest="r_min", type=float, default=0.05)
    p.add_argument("--r-max", dest="r_max", type=float, default=3.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=cmd_potential_curve)

    p = sub.add_parser("dump-config", help="print the resolved configuration")
    _add_common(p)
    p.set_defaults(func=cmd_dump_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
