"""Command-line front end.

Subcommands:

    simulate         integrate a configured system, write trajectory CSV
                     with invariant columns
    verify           integrate the configured system, run
                     curvint.verify.run_suite on the trajectory, write a
                     report CSV, exit 0 iff all checks pass
    potential-curve  emit the three Kepler potential branches as CSV
    dump-config      print the fully-resolved run configuration

Config files are flat `key = value` lines with `#` comments; unknown keys
are rejected with the offending line number.  CLI flags override file
values.  The env var CURVINT_SEED seeds the random-state grids of `verify`.

This module only parses, formats and maps exceptions to exit codes, all in
`main`: 0 success, 1 a verification check failed, 2 config error (also an
--out file or stdout that cannot be written, a start whose values overflow
the float range, a system that leaves no verification-grid state, a span
too short for the rotation check, or a singular state met by the checks of
a completed run), 3 singular initial state, 4/5/6/7 the trajectory ended
early at the radial pole / angular singularity / step underflow / step
limit (`verify` then runs no checks).  One writer takes every CSV, and
`_diag` every stderr line, dropped where stderr cannot be written.
"""

import argparse
import contextlib
import functools
import math
import os
import re
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .errors import (ConfigError, CurvintError, DomainError, SamplingError,
                     SpanError)
from .kappa_trig import r_domain
from .systems import (PhaseState, SystemKind, SystemSpec, hamiltonian,
                      potential)
from .dynamics import IntegratorConfig, Termination, integrate
from .invariants import evaluators_for
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_SINGULAR_START = 3
_EXIT_BY_TERMINATION = {
    Termination.COMPLETED: 0,
    Termination.HIT_RADIAL_POLE: 4,
    Termination.HIT_ANGULAR_SINGULARITY: 5,
    Termination.STEP_UNDERFLOW: 6,
    Termination.STEP_LIMIT: 7,
}

# GENERIC_F is left out: a config cannot supply its profile callables
_KINDS = {k.value: k for k in SystemKind if k is not SystemKind.GENERIC_F}
_NEG_NUMBER = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


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
    rel_tol: float = IntegratorConfig.rel_tol
    abs_tol: float = IntegratorConfig.abs_tol

    def system_spec(self) -> SystemSpec:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown system kind {self.kind!r}")
        if self.m_den == 0:
            raise ConfigError("m_den must be nonzero")
        return SystemSpec(kind=_KINDS[self.kind], kappa=self.kappa,
                          g=self.g, k_a=self.k_a, k_b=self.k_b,
                          m=Fraction(self.m_num, self.m_den))

    def initial_state(self) -> PhaseState:
        return PhaseState(self.r0, self.phi0, self.p_r0, self.p_phi0)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


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
            setattr(cfg, key, _FIELD_TYPES[key](raw))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}", line=lineno)
    return cfg


def dump_config(cfg: RunConfig) -> str:
    # str of a float is its repr: a dumped value parses back to itself
    return "".join(f"{f.name} = {getattr(cfg, f.name)}\n" for f in fields(cfg))


def _load_config(args) -> RunConfig:
    text = ""
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read the config file: {exc}") from exc
    cfg = parse_config(text)
    # each flag's dest is the key it overrides, except --m's two
    for key in _FIELD_TYPES:
        if getattr(args, key, None) is not None:
            setattr(cfg, key, getattr(args, key))
    if getattr(args, "m", None) is not None:
        try:
            frac = Fraction(args.m)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad value for --m: {exc}") from exc
        cfg.m_num, cfg.m_den = frac.numerator, frac.denominator
    for key in ("kappa", "r0", "phi0", "p_r0", "p_phi0", "t_end"):
        if not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"{key} must be finite, got {getattr(cfg, key)}")
    r_min, r_max = r_domain(cfg.kappa)
    if not r_min <= cfg.r0 < r_max:
        raise ConfigError(f"r0 = {cfg.r0!r} lies outside the radial domain "
                          f"[{r_min!r}, {r_max!r}) of kappa = {cfg.kappa!r}")
    return cfg


_FLOAT = "%.17g"


@contextlib.contextmanager
def _output(path):
    """path, or stdout when path is None, open for writing and flushed at
    the end; ConfigError where an open, a write or the close fails."""
    try:
        with (open(path, "w") if path is not None
              else contextlib.nullcontext(sys.stdout)) as fh:
            yield fh
            fh.flush()
    except OSError as exc:
        if path is None:
            _to_devnull(sys.stdout)
        raise ConfigError(f"cannot write {path or 'stdout'}: {exc}") from exc


def _to_devnull(stream) -> None:
    """Point stream's descriptor at os.devnull: a buffered stream would flush
    the bytes it could not write at exit, fail again, and exit 120."""
    with contextlib.suppress(OSError, ValueError):
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _diag(*lines) -> None:
    """Print lines to stderr, dropped if it fails: the exit code stays."""
    try:
        print(*lines, sep="\n", file=sys.stderr)
    except OSError:
        _to_devnull(sys.stderr)


def _write_csv(path, columns: dict, rows) -> None:
    """Write columns' names (name -> %-format) and one line per row, its
    fields in columns' formats, as CSV to path or stdout (see `_output`)."""
    line = ",".join(columns.values()) + "\n"
    with _output(path) as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(line % row for row in rows)


# --- subcommands ---

def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    spec = cfg.system_spec()
    state0 = cfg.initial_state()
    hamiltonian(state0, spec)
    traj = integrate(state0, spec, cfg.t_end,
                     IntegratorConfig(cfg.rel_tol, cfg.abs_tol))

    out = args.out or "trajectory.csv"
    evals = evaluators_for(spec)
    batch = PhaseState(*traj.states.T)
    _write_csv(out, dict.fromkeys(["t", "r", "phi", "p_r", "p_phi", *evals],
                                  _FLOAT),
               zip(traj.times, *traj.states.T,
                   *(fn(batch) for fn in evals.values())))
    with _output(None) as fh:
        fh.write(f"{traj.termination.value}: {len(traj)} samples -> {out}\n")
    return _EXIT_BY_TERMINATION[traj.termination]


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    raw_seed = os.environ.get("CURVINT_SEED", "0")
    try:
        seed = int(raw_seed)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ConfigError(f"CURVINT_SEED must be a non-negative integer, "
                          f"got {raw_seed!r}")
    spec = cfg.system_spec()
    state0 = cfg.initial_state()
    for fn in evaluators_for(spec).values():
        fn(state0)
    traj = integrate(state0, spec, cfg.t_end,
                     IntegratorConfig(cfg.rel_tol, cfg.abs_tol))
    if traj.termination is not Termination.COMPLETED:
        _diag(f"{traj.termination.value} at t = {traj.times[-1]:.6g} of "
              f"{cfg.t_end:g}: no checks run")
        return _EXIT_BY_TERMINATION[traj.termination]
    rng = np.random.default_rng(seed)
    try:
        rows = run_suite(traj, rng, args.negative_control)
    except (SamplingError, SpanError):
        raise
    except CurvintError as exc:
        # the start is regular and its run completed: a grid, stencil or
        # sample state of the checks is singular
        raise ConfigError(f"verification checks: {exc}") from exc

    _write_csv(args.out or None,
               {"check": "%s", "name": "%s", "value": _FLOAT,
                "threshold": _FLOAT, "pass": "%s"},
               [(*row[:4], "true" if row.passed else "false")
                for row in rows])
    n_fail = sum(1 for row in rows if not row.passed)
    _diag(*(f"  {'ok  ' if ok else 'FAIL'} {check:10s} {name:12s} "
            f"{value:.3e} (threshold {threshold:.1e})"
            for check, name, value, threshold, ok in rows),
          f"{len(rows) - n_fail}/{len(rows)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY_FAILED


def cmd_potential_curve(args) -> int:
    if not (0.0 < args.r_min < args.r_max < r_domain(1.0)[1]):
        raise ConfigError("require 0 < r-min < r-max < pi")
    # DomainError at a non-finite g
    specs = [SystemSpec(SystemKind.KEPLER, kappa, args.g)
             for kappa in (1.0, 0.0, -1.0)]
    if args.samples < 0:
        raise ConfigError("require samples >= 0")
    out = args.out or "potential_curve.csv"
    try:
        r = np.linspace(args.r_min, args.r_max, args.samples)
    except (ValueError, MemoryError) as exc:    # more than numpy can hold
        raise ConfigError(f"cannot make {args.samples} samples: {exc}") \
            from None
    _write_csv(out, dict.fromkeys(["r", "U_plus", "U_flat", "U_minus"],
                                  _FLOAT),
               zip(r, *(potential(PhaseState(r, 0.0, 0.0, 0.0), spec)
                        for spec in specs)))
    with _output(None) as fh:
        fh.write(f"{args.samples} samples -> {out}\n")
    return EXIT_OK


def cmd_dump_config(args) -> int:
    cfg = _load_config(args)
    cfg.system_spec()
    IntegratorConfig(cfg.rel_tol, cfg.abs_tol)
    with _output(None) as fh:
        fh.write(dump_config(cfg))
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to key = value config file")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--kind", choices=sorted(_KINDS))
    p.add_argument("--kappa", type=float)
    p.add_argument("--m", help="rational index p/q, e.g. 3/2")
    p.add_argument("--g", type=float)
    p.add_argument("--ka", dest="k_a", type=float)
    p.add_argument("--kb", dest="k_b", type=float)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--rel-tol", dest="rel_tol", type=float)
    p.add_argument("--abs-tol", dest="abs_tol", type=float)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (a build costs about 30
    parses); a subcommand's func default names the cmd_* that runs it."""
    parser = argparse.ArgumentParser(
        prog="curvint",
        description="Curved Kepler-type systems: simulation and "
                    "verification of their constants of motion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate and write trajectory CSV")
    _add_common(p)
    p.set_defaults(func="cmd_simulate")

    p = sub.add_parser("verify", help="run the verification suite")
    _add_common(p)
    p.add_argument("--negative-control", action="store_true",
                   help="include deliberately corrupted invariants")
    p.set_defaults(func="cmd_verify")

    p = sub.add_parser("potential-curve",
                       help="Kepler potential branches for kappa = +1/0/-1")
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--r-min", dest="r_min", type=float, default=0.05)
    p.add_argument("--r-max", dest="r_max", type=float, default=3.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func="cmd_potential_curve")

    p = sub.add_parser("dump-config", help="print the resolved configuration")
    _add_common(p)
    p.set_defaults(func="cmd_dump_config")

    parser.value_flags = {f for p in sub.choices.values() for a in p._actions
                          if a.nargs is None for f in a.option_strings}
    return parser


def main(argv=None) -> int:
    parser, argv = build_parser(), list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):  # argparse takes -1e-3 for a flag
        if argv[i - 1] in parser.value_flags and _NEG_NUMBER.match(argv[i]):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = parser.parse_args(argv)
    # the command is looked up at call time, so a cmd_* function replaced
    # on this module after the parser was built is the one that runs
    command = globals()[args.func]
    try:
        with np.errstate(all="ignore"):     # inf and nan are output values
            return command(args)
    except (ConfigError, DomainError, SamplingError, SpanError) as exc:
        _diag(f"config error: {exc}")
        return EXIT_CONFIG
    except CurvintError as exc:
        _diag(f"singular initial state: {exc}")
        return EXIT_SINGULAR_START


if __name__ == "__main__":
    sys.exit(main())
