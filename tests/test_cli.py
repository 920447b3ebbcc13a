import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

from curvint import (PhaseState, SystemKind, SystemSpec, cli, cot_k,
                     dynamics, evaluators_for, hamiltonian)
from curvint.cli import RunConfig, dump_config, main, parse_config
from curvint.errors import ConfigError
from curvint.verify import random_bounded_state

PW_SPHERE = """
# deformed Kepler on the unit sphere
kind = pw
kappa = 1.0
g = 1.0
k_a = 0.8
k_b = 0.3
m_num = 2
m_den = 1
r0 = 1.1
phi0 = 0.45
p_r0 = 0.1
p_phi0 = 0.55
t_end = 20.0
"""

PW_HYPERBOLIC_BOUNDED = """
# deformed Kepler on the hyperboloid, below the escape energy -g
kind = pw
kappa = -1.0
g = 1.0
k_a = 0.3
k_b = 0.1
m_num = 2
m_den = 1
r0 = 0.8057123244307194
phi0 = 0.7849444309868451
p_r0 = 0.07104885033635022
p_phi0 = -0.16577895460456948
t_end = 20.0
"""

VC_HYPERBOLIC_BOUNDED = """
# the m = 1 deformation on the hyperboloid, below the escape energy -g
kind = vc
kappa = -1.0
g = 1.0
k_a = 0.3
k_b = 0.1
m_num = 1
m_den = 1
r0 = 1.5115108391580927
phi0 = 1.4153350367253208
p_r0 = -0.06233130249000912
p_phi0 = 0.28171906697501464
t_end = 20.0
"""

CIRCULAR_KEPLER = """
kind = kepler
kappa = 0.0
g = 1.0
r0 = 1.0
phi0 = 0.0
p_r0 = 0.0
p_phi0 = 1.0
t_end = 6.283185307179586
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_valid(self):
        cfg = parse_config(PW_SPHERE)
        assert cfg.kind == "pw"
        assert cfg.m_num == 2
        assert cfg.t_end == 20.0

    def test_unknown_key_line_number(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("kappa = 1.0\nbogus = 3\n")
        assert exc.value.line == 2

    def test_bad_value(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("g = one")
        assert exc.value.line == 1

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("just a line")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# comment\n\n g = 2.0  # inline\n")
        assert cfg.g == 2.0

    def test_dump_round_trip(self):
        cfg = parse_config(PW_SPHERE)
        assert parse_config(dump_config(cfg)) == cfg

    def test_dump_defaults_round_trip(self):
        assert parse_config(dump_config(RunConfig())) == RunConfig()

    def test_dump_lists_the_fourteen_keys(self, capsys):
        assert main(["dump-config"]) == 0
        keys = [line.split(" = ")[0]
                for line in capsys.readouterr().out.splitlines()]
        assert keys == ["kind", "kappa", "g", "k_a", "k_b", "m_num", "m_den",
                        "r0", "phi0", "p_r0", "p_phi0", "t_end", "rel_tol",
                        "abs_tol"]

    def test_sampled_state_round_trip(self):
        cfg = RunConfig(kind="pw", kappa=-1.0, k_a=0.8, k_b=0.3)
        s = random_bounded_state(cfg.system_spec(),
                                 np.random.default_rng(5))
        cfg.r0, cfg.phi0, cfg.p_r0, cfg.p_phi0 = s.as_tuple()
        assert parse_config(dump_config(cfg)) == cfg


class TestSimulate:
    def test_circular_orbit(self, tmp_path):
        cfg = write(tmp_path, CIRCULAR_KEPLER)
        out = str(tmp_path / "t.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0].startswith("t,r,phi,p_r,p_phi,H,J2,I3,I4")
        last = [float(v) for v in lines[-1].split(",")]
        assert last[1] == pytest.approx(1.0, abs=1e-8)

    def test_pw_k_columns_constant(self, tmp_path):
        cfg = write(tmp_path, PW_SPHERE)
        out = str(tmp_path / "t.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        header = Path(out).read_text().splitlines()[0].split(",")
        for col in ("K_re", "K_im"):
            vals = data[:, header.index(col)]
            assert np.max(np.abs(vals - vals[0])) \
                <= 1e-7 * (1.0 + abs(vals[0]))

    @pytest.mark.parametrize("text", [
        PW_SPHERE, PW_SPHERE + "kappa = -1.0\nm_num = 3\nm_den = 2\n",
        CIRCULAR_KEPLER + "kappa = 1.0\np_r0 = 0.1\np_phi0 = 0.7\n",
        PW_SPHERE + "kind = vc\nm_num = 1\nkappa = 0.0\nphi0 = 1.3\n",
        CIRCULAR_KEPLER + "kind = free\nkappa = -1.0\np_r0 = 0.3\n",
    ], ids=["pw-sphere", "pw-hyperbolic", "kepler-sphere", "vc-flat",
            "free-hyperbolic"])
    def test_invariant_columns_match_float_evaluators(self, tmp_path, text):
        out = str(tmp_path / "t.csv")
        assert main(["simulate", "--config", write(tmp_path, text),
                     "--out", out]) == 0
        evals = evaluators_for(parse_config(text).system_spec())
        header = Path(out).read_text().splitlines()[0].split(",")
        assert header == ["t", "r", "phi", "p_r", "p_phi", *evals]
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert len(data) > 10
        for row in data:
            state = PhaseState.from_tuple(row[1:5])
            for value, fn in zip(row[5:], evals.values()):
                expected = fn(state)
                assert abs(value - expected) <= 1e-14 * (1.0 + abs(expected))

    def test_singular_start_exit_3(self, tmp_path):
        cfg = write(tmp_path, PW_SPHERE + "phi0 = 0.0\n")
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "t.csv")]) == 3

    @pytest.mark.parametrize("r0", ["0.0", "1e-9", "3.1415926", "-0.0"])
    def test_r0_in_domain_within_margin_exit_3(self, tmp_path, capsys, r0):
        # in [0, pi) of kappa = 1 but within the margin of a pole
        cfg = write(tmp_path, PW_SPHERE + f"r0 = {r0}\n")
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "t.csv")]) == 3
        assert "singular initial state:" in capsys.readouterr().err

    def test_r0_domain_error_names_the_domain(self, tmp_path, capsys):
        cfg = write(tmp_path, PW_SPHERE + "r0 = 3.2\n")
        assert main(["dump-config", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "[0.0, 3.141592653589793)" in err and "r0 = 3.2" in err

    @pytest.mark.parametrize("kappa", ["inf", "-inf", "nan"])
    def test_non_finite_kappa_exit_2(self, capsys, kappa):
        # checked before the radial domain, which kappa = inf makes [0, 0)
        assert main(["dump-config", f"--kappa={kappa}"]) == 2
        assert capsys.readouterr().err == \
            f"config error: kappa must be finite, got {kappa}\n"

    def test_negative_casimir_start_verify_exit_3(self, tmp_path):
        # J2 = 0.25 - 4 < 0: the higher-order columns are undefined
        cfg = write(tmp_path, PW_SPHERE + "k_a = -2.0\nk_b = 0.0\n"
                    "m_num = 1\nphi0 = 1.5707963267948966\np_phi0 = 0.5\n"
                    "t_end = 1.0\n")
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "r.csv")]) == 3

    @pytest.mark.parametrize("key", ["verify_drift", "verify_brackets",
                                     "verify_rotation", "verify_moduli",
                                     "verify_limit"])
    def test_removed_verify_switch_exit_2(self, tmp_path, capsys, key):
        # every check always runs; the old switches are unknown keys
        cfg = write(tmp_path, PW_SPHERE + f"{key} = false\n")
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "r.csv")]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "verify",
                                         "dump-config"])
    @pytest.mark.parametrize("text, flags", [
        ("bogus = 1\n", []),
        ("m_den = 0\n", []),
        ("", ["--m", "1/0"]),
        ("", ["--m", "abc"]),
        ("", ["--kappa", "nan"]),
        ("", ["--rel-tol", "0"]),
        ("", ["--rel-tol", "-1"]),
        ("", ["--rel-tol", "nan"]),
        ("", ["--rel-tol", "1e-20"]),
        ("", ["--rel-tol", "1"]),
        ("", ["--rel-tol", "0.01"]),
        ("max_step = 0\n", []),
        ("max_step = -1\n", []),
        ("singularity_margin = 1e-6\n", []),
        ("", ["--g", "nan"]),
        ("", ["--ka", "inf"]),
        ("", ["--kb", "nan"]),
        ("", ["--t-end", "nan"]),
        ("", ["--t-end", "inf"]),
        ("r0 = nan\n", []),
        ("p_phi0 = inf\n", []),
        ("kind = generic\n", []),
        ("r0 = -1\n", []),
        ("kappa = 1\nr0 = 4\n", []),
        ("r0 = 3.2\n", ["--kappa", "1"]),
    ], ids=["unknown-key", "m_den-0", "m-1/0", "m-abc", "kappa-nan",
            "rel-tol-0", "rel-tol-negative", "rel-tol-nan", "rel-tol-1e-20",
            "rel-tol-1", "rel-tol-0.01",
            "unknown-key-max_step-0", "unknown-key-max_step-negative",
            "unknown-key-singularity_margin", "g-nan", "ka-inf", "kb-nan",
            "t_end-nan", "t_end-inf", "r0-nan", "p_phi0-inf", "kind-generic",
            "r0-negative", "r0-beyond-antipode", "r0-beyond-antipode-flag"])
    def test_parse_error_exit_2(self, tmp_path, capsys, command, text,
                                flags):
        cfg = write(tmp_path, text)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "out.csv"), *flags]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["rel_tol", "abs_tol"])
    def test_infinite_tolerance_exit_2(self, tmp_path, key):
        # in a subprocess with a timeout: rel_tol = inf once hung simulate
        cfg = write(tmp_path, CIRCULAR_KEPLER + f"{key} = inf\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "curvint.cli", "simulate", "--config",
             cfg, "--out", str(tmp_path / "out.csv")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 2, run.stderr
        assert "config error:" in run.stderr
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "verify",
                                         "dump-config"])
    def test_rel_tol_below_100_eps_exit_2_without_a_warning(self, tmp_path,
                                                           command):
        # below SciPy's floor, 100 EPS, the integrator once raised rel_tol
        # with a UserWarning: dump-config printed 1e-20 and exited 0, the
        # runs printed the warning, and PYTHONWARNINGS=error made it a
        # traceback with exit 1
        cfg = write(tmp_path, CIRCULAR_KEPLER)
        src = str(Path(cli.__file__).resolve().parents[1])
        for rel_tol, code in (("1e-20", 2), ("2.220446049250313e-14", 0)):
            run = subprocess.run(
                [sys.executable, "-m", "curvint.cli", command, "--config",
                 cfg, "--t-end", "0.5", "--rel-tol", rel_tol, "--out",
                 str(tmp_path / "out.csv")],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": src,
                     "PYTHONWARNINGS": "error"})
            assert run.returncode == code, run.stderr
            assert ("config error:" in run.stderr) == (code == 2)
            assert "Warning" not in run.stderr
            if command == "dump-config" and code == 0:
                assert f"rel_tol = {rel_tol}\n" in run.stdout

    @pytest.mark.parametrize("command", ["simulate", "verify",
                                         "dump-config"])
    def test_rel_tol_at_scipys_default_accepted(self, tmp_path, capsys,
                                                command):
        # the ceiling: at 1e-3 every run completes; above it, see
        # test_parse_error_exit_2
        cfg = write(tmp_path, CIRCULAR_KEPLER)
        assert main([command, "--config", cfg, "--rel-tol", "1e-3",
                     "--out", str(tmp_path / "out.csv")]) == 0
        if command == "dump-config":
            assert "rel_tol = 0.001\n" in capsys.readouterr().out

    def test_generic_is_no_kind_choice(self, capsys):
        # a config cannot supply the profile callables of GENERIC_F
        with pytest.raises(SystemExit) as exc:
            main(["dump-config", "--kind", "generic"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "verify",
                                         "dump-config"])
    @pytest.mark.parametrize("name", ["missing.cfg", "."])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, command, name):
        assert main([command, "--config", str(tmp_path / name),
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--t-end", "0.1"],
        ["verify", "--t-end", "1.0"],
        ["potential-curve", "--samples", "3"],
    ], ids=["simulate", "verify", "potential-curve"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, argv):
        out = str(tmp_path / "missing-dir" / "x.csv")
        assert main(argv + ["--out", out]) == 2
        assert f"config error: cannot write {out}: " \
            in capsys.readouterr().err

    # a full device opens but fails on a write, the flush or the close:
    # a traceback and exit 1 while only the open sat in the try; a
    # buffered stdout that still holds the failed bytes exits 120 when the
    # interpreter flushes it again at exit
    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv, stdout_full, target", [
        (["simulate", "--t-end", "1", "--out", "/dev/full"], False,
         "/dev/full"),
        (["verify", "--kind", "pw", "--kappa", "1", "--t-end", "1",
          "--out", "/dev/full"], False, "/dev/full"),
        (["verify", "--kind", "pw", "--kappa", "1", "--t-end", "1"], True,
         "stdout"),
        (["dump-config"], True, "stdout"),
        # the CSV goes to a file, the one-line summary to a full stdout
        (["simulate", "--t-end", "1", "--out", "x.csv"], True, "stdout"),
        (["potential-curve", "--out", "x.csv"], True, "stdout"),
    ], ids=["simulate-out", "verify-out", "verify-stdout", "dump-config",
            "simulate-summary", "potential-curve-summary"])
    def test_full_device_exit_2(self, tmp_path, argv, stdout_full, target,
                                unbuffered):
        src = str(Path(cli.__file__).resolve().parents[1])
        with open(os.devnull if not stdout_full else "/dev/full",
                  "w") as stdout:
            run = subprocess.run(
                [sys.executable, "-m", "curvint.cli", *argv], stdout=stdout,
                stderr=subprocess.PIPE, text=True, timeout=60, cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": src,
                     "PYTHONUNBUFFERED": unbuffered})
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith(f"config error: cannot write {target}: "
                                     f"[Errno 28]"), run.stderr
        assert "Traceback" not in run.stderr

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("text, named", [
        ("kappa = -1\nr0 = 800\n", "kappa=-1.0, x=800.0"),
        ("kappa = -1e300\n", "kappa=-1e+300"),
        ("p_r0 = 1e200\n", "p_r = 1e+200"),
        ("p_phi0 = 1e200\n", "p_phi = 1e+200"),
        ("kind = pw\nk_a = 0.5\nm_num = 1" + "0" * 400 + "\n",
         "float range"),
        # no angular term: integration never evaluates m phi
        ("kind = pw\nm_num = 1" + "0" * 400 + "\n", "float range"),
        ("kind = pw\nm_den = 1" + "0" * 400 + "\n", "float range"),
    ], ids=["kappa-1-r0-800", "kappa-1e300", "p_r0-1e200", "p_phi0-1e200",
            "pw-m-1e400", "pw-free-m-1e400", "pw-free-m-1e-400"])
    def test_overflowing_start_exit_2(self, tmp_path, capsys, monkeypatch,
                                      command, text, named):
        # Kepler by default: sinh/cosh or the kinetic energy overflow
        def integrate(*args, **kwargs):
            raise AssertionError("integrated an overflowing start")
        monkeypatch.setattr(cli, "integrate", integrate)
        out = tmp_path / "out.csv"
        assert main([command, "--config", write(tmp_path, text),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, code", [("simulate", 0),
                                               ("verify", 1)])
    def test_huge_m_finishes(self, tmp_path, capsys, command, code):
        # K = M_r^p conj(N_phi)^q with p = 10^12 takes ~80 products
        cfg = write(tmp_path, "kind = pw\nm_num = 1000000000000\n"
                              "t_end = 1.0\n")
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "out.csv")]) == code

    def test_pole_capture_exit_4(self, tmp_path):
        cfg = write(tmp_path, CIRCULAR_KEPLER
                    + "p_phi0 = 0.0\np_r0 = -0.5\n")
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "t.csv")]) == 4

    def test_sinh_overflow_wall_exit_6(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 2000)
        cfg = write(tmp_path, "kind = kepler\nkappa = -1.0\ng = 1.0\n"
                    "r0 = 709.0\nphi0 = 1.0\np_r0 = 5.0\np_phi0 = 1.0\n"
                    "t_end = 10.0\n")
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "t.csv")]) == 6

    def test_flag_overrides(self, tmp_path, capsys):
        cfg = write(tmp_path, PW_SPHERE)
        assert main(["dump-config", "--config", cfg, "--kappa", "-1.0",
                     "--m", "3/2", "--ka", "0.5"]) == 0
        text = capsys.readouterr().out
        parsed = parse_config(text)
        assert parsed.kappa == -1.0
        assert (parsed.m_num, parsed.m_den) == (3, 2)
        assert parsed.k_a == 0.5

    def test_every_flag_overrides_its_key(self, capsys):
        assert main(["dump-config", "--kind", "vc", "--kappa=-1e-3",
                     "--g", "2", "--ka", "0.25", "--kb", "0.5",
                     "--t-end", "3", "--rel-tol", "1e-9",
                     "--abs-tol", "1e-11"]) == 0
        parsed = parse_config(capsys.readouterr().out)
        assert (parsed.kind, parsed.kappa, parsed.g, parsed.k_a, parsed.k_b,
                parsed.t_end, parsed.rel_tol, parsed.abs_tol) \
            == ("vc", -1e-3, 2.0, 0.25, 0.5, 3.0, 1e-9, 1e-11)

    @pytest.mark.parametrize("flags, key, value", [
        (["--kind", "kepler", "--kappa", "-1e-3"], "kappa", -1e-3),
        (["--ka", "-2e-1"], "k_a", -0.2),
        (["--g", "-1E2"], "g", -100.0),
        (["--kb", "-.5", "--kappa", "-1"], "k_b", -0.5),
        (["--t-end", "-1_0e0"], "t_end", -10.0),
    ])
    def test_negative_number_after_a_flag_is_its_value(self, capsys, flags,
                                                       key, value):
        # argparse alone takes -1e-3 for a flag: "expected one argument"
        assert main(["dump-config", *flags]) == 0
        assert getattr(parse_config(capsys.readouterr().out), key) == value
        assert main(["dump-config", *(f"{flag}={v}" for flag, v in
                                      zip(flags[::2], flags[1::2]))]) == 0
        assert getattr(parse_config(capsys.readouterr().out), key) == value

    def test_negative_number_after_a_flag_reaches_the_checks(self, capsys,
                                                             tmp_path):
        assert main(["dump-config", "--kappa", "-inf"]) == 2
        assert "kappa must be finite, got -inf" in capsys.readouterr().err
        out = tmp_path / "curve.csv"
        assert main(["potential-curve", "--g", "-1e0", "--samples", "2",
                     "--out", str(out)]) == 0
        # U_flat = -g / r at r = 0.05: -20 at the default g = 1
        assert out.read_text().splitlines()[1].split(",")[2] == "20"

    @pytest.mark.parametrize("argv, message", [
        (["dump-config", "--kappa", "-1e-3x"], "invalid float value"),
        (["verify", "--negative-control", "-1e-3"], "unrecognized"),
        (["dump-config", "--kappa=1", "-1e-3"], "unrecognized"),
    ])
    def test_a_number_after_no_value_flag_stays_an_error(self, capsys, argv,
                                                         message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        cfg = write(tmp_path, PW_SPHERE)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            main(["simulate", "--config", cfg, "--out", out])
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]


class TestVerifyCommand:
    def test_pw_suite_passes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CURVINT_SEED", "1")
        cfg = write(tmp_path, PW_SPHERE)
        out = str(tmp_path / "report.csv")
        assert main(["verify", "--config", cfg, "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "check,name,value,threshold,pass"
        assert all(line.endswith("true") for line in lines[1:])
        checks = {line.split(",")[0] for line in lines[1:]}
        assert {"drift", "bracket", "rotation", "moduli",
                "limit"} <= checks

    def test_bounded_hyperbolic_pw_suite_passes(self, tmp_path,
                                                monkeypatch):
        # a PW orbit at kappa = -1 below the escape energy -g
        monkeypatch.setenv("CURVINT_SEED", "1")
        cfg = write(tmp_path, PW_HYPERBOLIC_BOUNDED)
        run = parse_config(PW_HYPERBOLIC_BOUNDED)
        assert hamiltonian(run.initial_state(), run.system_spec()) < -1.0
        out = str(tmp_path / "report.csv")
        assert main(["verify", "--config", cfg, "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 16
        assert all(line.endswith(",true") for line in lines[1:])

    def test_bounded_hyperbolic_vc_suite_passes(self, tmp_path,
                                                monkeypatch):
        # a VC orbit at kappa = -1 below the escape energy -g
        monkeypatch.setenv("CURVINT_SEED", "1")
        cfg = write(tmp_path, VC_HYPERBOLIC_BOUNDED)
        run = parse_config(VC_HYPERBOLIC_BOUNDED)
        assert hamiltonian(run.initial_state(), run.system_spec()) < -1.0
        out = str(tmp_path / "report.csv")
        assert main(["verify", "--config", cfg, "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 18
        assert all(line.endswith(",true") for line in lines[1:])

    def test_kepler_suite_has_runge_lenz_rows(self, tmp_path):
        text = CIRCULAR_KEPLER + "t_end = 50.0\nkappa = 1.0\nr0 = 0.9\n" \
            + "p_phi0 = 0.7\np_r0 = 0.1\nphi0 = 0.3\n"
        cfg = write(tmp_path, text)
        out = str(tmp_path / "report.csv")
        assert main(["verify", "--config", cfg, "--out", out]) == 0
        names = [line.split(",")[1] for line in
                 Path(out).read_text().splitlines()[1:]]
        assert "I3" in names and "I4" in names

    def test_negative_control_fails(self, tmp_path):
        cfg = write(tmp_path, PW_SPHERE)
        out = str(tmp_path / "report.csv")
        assert main(["verify", "--config", cfg, "--out", out,
                     "--negative-control"]) == 1
        rows = [line.split(",") for line in
                Path(out).read_text().splitlines()[1:]]
        failed = {r[1] for r in rows if r[4] == "false"}
        assert failed == {"J2_plus_t", "J2+r~H"}

    @pytest.mark.parametrize("seed", ["abc", "-1", ""])
    def test_bad_seed_exit_2_before_integrating(self, tmp_path, capsys,
                                                monkeypatch, seed):
        monkeypatch.setenv("CURVINT_SEED", seed)
        monkeypatch.setattr(cli, "integrate", None)    # never reached
        assert main(["verify", "--config", write(tmp_path, PW_SPHERE),
                     "--out", str(tmp_path / "report.csv")]) == 2
        assert "config error: CURVINT_SEED" in capsys.readouterr().err

    def test_replaced_command_runs_on_a_later_call(self, tmp_path,
                                                   monkeypatch):
        # the parser is built once per process; a cmd_verify replaced
        # after a first main() call is still the function that runs
        cfg = write(tmp_path, PW_SPHERE)
        assert main(["dump-config", "--config", cfg]) == 0
        seen = []

        def fake_verify(args):
            seen.append(args.config)
            return 42
        monkeypatch.setattr(cli, "cmd_verify", fake_verify)
        assert main(["verify", "--config", cfg]) == 42
        assert main(["verify", "--config", cfg]) == 42
        assert seen == [cfg, cfg]
        monkeypatch.undo()
        assert cli.cmd_verify is not fake_verify
        assert main(["verify", "--config", cfg, "--out",
                     str(tmp_path / "report.csv")]) == 0

    @pytest.mark.parametrize("text, code, termination", [
        # regular start; the orbit falls into the attractive angular
        # singularity, where J2 loses every digit to cancellation
        (PW_SPHERE + "k_a = -0.3\nk_b = 0.1\nphi0 = 0.7\np_phi0 = 1.5\n"
         "t_end = 5.0\n", 5, "hit_angular_singularity"),
        (CIRCULAR_KEPLER + "p_r0 = -1.0\np_phi0 = 0.001\nt_end = 20.0\n",
         4, "hit_radial_pole"),
    ], ids=["pw-angular", "kepler-radial"])
    def test_early_termination_runs_no_checks(self, tmp_path, capsys, text,
                                              code, termination):
        out = tmp_path / "report.csv"
        assert main(["verify", "--config", write(tmp_path, text),
                     "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert f"{termination} at t = " in err
        assert "no checks run" in err
        assert not out.exists()

    @pytest.mark.parametrize("text, extra, code", [
        (PW_SPHERE, [], 0),
        (PW_SPHERE, ["--negative-control"], 1),
        (CIRCULAR_KEPLER + "p_r0 = -1.0\np_phi0 = 0.001\n", [], 4),
    ], ids=["passing", "failing", "early-termination"])
    def test_failing_stderr_keeps_the_verify_exit_code(self, tmp_path,
                                                       monkeypatch, text,
                                                       extra, code):
        # in process, on a stderr whose every write fails: the checks or the
        # run decide the exit code
        class Full:
            def write(self, text):
                raise OSError(28, "No space left on device")

            def flush(self):
                pass

            def fileno(self):
                raise io.UnsupportedOperation("fileno")
        monkeypatch.setenv("CURVINT_SEED", "1")
        monkeypatch.setattr(sys, "stderr", Full())
        out = tmp_path / "report.csv"
        assert main(["verify", "--config", write(tmp_path, text),
                     "--t-end", "1", "--out", str(out), *extra]) == code
        assert out.exists() == (code in (0, 1))

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command, text, extra, code", [
        ("verify", PW_SPHERE, [], 0),
        ("verify", PW_SPHERE, ["--negative-control"], 1),
        ("verify", CIRCULAR_KEPLER + "p_r0 = -1.0\np_phi0 = 0.001\n", [],
         4),
        ("simulate", None, [], 2),
        ("simulate", "kind = kepler\nr0 = 0.0\n", [], 3),
    ], ids=["passing", "failing", "early-termination", "missing-config",
            "singular-start"])
    def test_unwritable_stderr_keeps_the_exit_code(self, tmp_path, command,
                                                   text, extra, code,
                                                   unbuffered):
        # the diagnostics on a full stderr are dropped, also the bytes a
        # buffered stderr kept for its flush at exit; no traceback, and the
        # checks, the run or the error map decide the exit code
        cfg = (write(tmp_path, text) if text is not None
               else str(tmp_path / "missing.cfg"))
        out = tmp_path / "out.csv"
        src = str(Path(cli.__file__).resolve().parents[1])
        with open("/dev/full", "w") as stderr:
            run = subprocess.run(
                [sys.executable, "-m", "curvint.cli", command, "--config",
                 cfg, "--t-end", "1", "--out", str(out), *extra],
                stdout=subprocess.DEVNULL, stderr=stderr, timeout=60,
                env={**os.environ, "PYTHONPATH": src, "CURVINT_SEED": "1",
                     "PYTHONUNBUFFERED": unbuffered})
        assert run.returncode == code
        assert out.exists() == (code in (0, 1))

    def test_stdout_report_equals_out_file(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setenv("CURVINT_SEED", "2")
        cfg = write(tmp_path, PW_SPHERE + "t_end = 2.0\n")
        out = tmp_path / "report.csv"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["verify", "--config", cfg]) == 0
        assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize("text", [
        PW_SPHERE + "k_a = 100.0\nphi0 = 0.7\n",     # no grid state
        PW_SPHERE + "phi0 = 0.7\nt_end = 1e-5\n",     # rotation span
        PW_SPHERE + "phi0 = 0.7\nt_end = 0.0\n",
    ], ids=["sampler-exhausted", "span-1e-5", "span-0"])
    def test_unverifiable_config_exit_2(self, tmp_path, capsys, text):
        assert main(["verify", "--config", write(tmp_path, text),
                     "--out", str(tmp_path / "report.csv")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_singular_check_state_after_a_run_exit_2(self, capsys,
                                                      monkeypatch):
        # the start is regular and the run completes; a stencil point of a
        # grid state has J2 <= 0, which is no singular initial state
        monkeypatch.setenv("CURVINT_SEED", "0")
        assert main(["verify", "--kind", "vc", "--kappa", "-1", "--ka",
                     "-0.3", "--kb", "0.1", "--t-end", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: verification checks: pole "
                              "inside stencil: J2 = ")
        assert "singular initial state" not in err

    def test_lambda_underflow_runs_every_check(self, tmp_path, capsys):
        # Sin_k(400)^2 overflows at kappa = -1, so lambda is 0 along the
        # whole orbit: the rotation step stays 2e-4 instead of dividing by
        # zero, and only the two limit rows fail, on their merits
        cfg = write(tmp_path, "kind = pw\nkappa = -1.0\ng = 1.0\n"
                              "k_a = 0.1\nr0 = 400\nphi0 = 1\np_r0 = 0.1\n"
                              "p_phi0 = 0.5\nt_end = 1\n")
        out = tmp_path / "report.csv"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        assert "13/15 checks passed" in capsys.readouterr().err
        failed = [line.split(",")[:2]
                  for line in out.read_text().splitlines()[1:]
                  if line.endswith(",false")]
        assert failed == [["limit", "H"], ["limit", "M_r"]]

    def test_backward_run_verifies(self, tmp_path, capsys):
        # the rotation check samples the span in the direction of time
        for t_end in ("20.0", "-20.0"):
            cfg = write(tmp_path, PW_SPHERE + f"t_end = {t_end}\n")
            out = tmp_path / "report.csv"
            assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
            assert "15/15 checks passed" in capsys.readouterr().err
            rows = [line.split(",") for line in out.read_text().splitlines()]
            assert [row[1] for row in rows if row[0] == "rotation"] == [
                "M_r", "N_phi"]


class TestStepLimit:
    def test_simulate_writes_the_csv_and_exits_7(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", write(tmp_path, PW_SPHERE),
                     "--out", str(out)]) == 7
        assert len(out.read_text().splitlines()) == 1 + 11
        assert capsys.readouterr().out.startswith("step_limit: 11 samples")

    def test_verify_runs_no_checks_and_exits_7(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
        out = tmp_path / "report.csv"
        assert main(["verify", "--config", write(tmp_path, PW_SPHERE),
                     "--out", str(out)]) == 7
        err = capsys.readouterr().err
        assert "step_limit at t = " in err and "no checks run" in err
        assert not out.exists()


class TestPotentialCurve:
    def test_ordering_and_values(self, tmp_path):
        out = str(tmp_path / "curve.csv")
        assert main(["potential-curve", "--g", "1.0", "--r-min", "0.05",
                     "--r-max", "1.5207", "--samples", "100",
                     "--out", out]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.all(data[:, 1] > data[:, 2])
        assert np.all(data[:, 2] > data[:, 3])
        # spot value at r = pi/4
        r = math.pi / 4
        row = min(data, key=lambda q: abs(q[0] - r))
        assert row[2] == pytest.approx(-4 / math.pi, abs=0.05)

    @pytest.mark.parametrize("flags, g, r", [
        ([], 1.0, np.linspace(0.05, 3.0, 200)),
        (["--samples", "0"], 1.0, np.linspace(0.05, 3.0, 0)),
        (["--samples", "1", "--g", "-2.5"], -2.5, np.array([0.05])),
    ], ids=["defaults", "samples-0", "samples-1"])
    def test_bytes_match_savetxt(self, tmp_path, flags, g, r):
        out, oracle = tmp_path / "curve.csv", tmp_path / "oracle.csv"
        assert main(["potential-curve", "--out", str(out), *flags]) == 0
        # np.savetxt, independent of curvint, is the oracle of the format
        np.savetxt(oracle, np.column_stack((r, -g * cot_k(1.0, r), -g / r,
                                            -g * cot_k(-1.0, r))),
                   fmt="%.17g", delimiter=",",
                   header="r,U_plus,U_flat,U_minus", comments="")
        assert out.read_bytes() == oracle.read_bytes()

    @pytest.mark.parametrize("g", [1.0, 2.5, -0.3])
    def test_columns_are_the_kepler_potential(self, tmp_path, g):
        # each column is U of the Kepler system at kappa = 1, 0, -1: the
        # energy at rest, bit for bit (at g != 1 the flat column is
        # -g * (1/r), which can differ from -g/r by one ulp)
        out = tmp_path / "curve.csv"
        assert main(["potential-curve", f"--g={g}", "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        rest = PhaseState(data[:, 0], 0.0, 0.0, 0.0)
        for column, kappa in zip(data[:, 1:].T, (1.0, 0.0, -1.0)):
            spec = SystemSpec(kind=SystemKind.KEPLER, kappa=kappa, g=g)
            assert column.tobytes() == hamiltonian(rest, spec).tobytes()

    @pytest.mark.parametrize("flags", [["--r-min", "2.0", "--r-max", "1.0"],
                                       ["--r-max", "4.0"],
                                       ["--r-min", "nan"],
                                       ["--samples", "-1"]])
    def test_bad_range_rejected(self, tmp_path, capsys, flags):
        assert main(["potential-curve", "--out",
                     str(tmp_path / "curve.csv"), *flags]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("g", ["nan", "inf", "-inf"])
    def test_non_finite_g_rejected(self, tmp_path, capsys, g):
        # simulate and verify reject it through SystemSpec; the curve
        # wrote nan or inf in every potential column
        out = tmp_path / "curve.csv"
        assert main(["potential-curve", f"--g={g}", "--samples", "3",
                     "--out", str(out)]) == 2
        assert f"config error: non-finite g = {float(g)}" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_unallocatable_samples_rejected(self, tmp_path, capsys):
        # numpy refuses this size before it allocates anything
        out = tmp_path / "curve.csv"
        assert main(["potential-curve", "--samples",
                     "100000000000000000000", "--out", str(out)]) == 2
        assert "config error: cannot make 100000000000000000000 samples" \
            in capsys.readouterr().err
        assert not out.exists()


# lines of config text: arbitrary, or a known key with a value that is
# arbitrary, numeric or a system kind
CONFIG_LINES = st.one_of(
    st.text(max_size=30),
    st.builds("{} = {}".format,
              st.sampled_from(sorted(RunConfig.__dataclass_fields__)),
              st.one_of(st.text(max_size=12),
                        st.floats().map(repr),
                        st.integers(-10 ** 6, 10 ** 6).map(str),
                        st.sampled_from(["free", "kepler", "vc", "pw",
                                         "generic"]))))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(CONFIG_LINES, max_size=8))
def test_any_config_text_exits_0_or_2(tmp_path, capsys, lines):
    # no exception may escape main: any config either resolves or is
    # rejected as a config error
    path = tmp_path / "fuzz.cfg"
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass"))
    code = main(["dump-config", "--config", str(path)])
    assert code in (0, 2)
    assert ("config error:" in capsys.readouterr().err) == (code == 2)


# A run of simulate or verify reads a config whose lines all parse, each a
# key with a value of its type: numbers 0 or of magnitude 1e-3 to 10, and
# |t_end| <= 0.5, as a large momentum or curvature or a tight tolerance can
# ask for millions of steps.  dump-config above covers parse errors and
# the whole float range.
RUN_NUMBERS = st.one_of(st.just(0.0), st.floats(1e-3, 10.0),
                        st.floats(-10.0, -1e-3))


def run_line(key):
    if key == "kind":
        values = st.sampled_from(["free", "kepler", "vc", "pw", "generic"])
    elif key in ("m_num", "m_den"):
        values = st.integers(-10, 10)
    else:
        values = RUN_NUMBERS
    return values.map(f"{key} = {{}}".format)


RUN_LINES = st.sampled_from(sorted(RunConfig.__dataclass_fields__)).flatmap(
    run_line)
RUN_T_END = st.floats(-0.5, 0.5)


@pytest.mark.parametrize("command", ["simulate", "verify"])
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(RUN_LINES, max_size=8), t_end=RUN_T_END)
def test_any_config_run_exits_0_to_6(tmp_path, capsys, command, lines,
                                     t_end):
    # no exception may escape main; the last line fixes the span
    path = tmp_path / "fuzz.cfg"
    path.write_text("\n".join([*lines, f"t_end = {t_end!r}"]))
    code = main([command, "--config", str(path),
                 "--out", str(tmp_path / "out.csv")])
    assert code in range(7)
    assert ("config error:" in capsys.readouterr().err) == (code == 2)
