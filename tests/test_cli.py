import math
from pathlib import Path

import numpy as np
import pytest

from curvint import PhaseState, evaluators_for
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
        ("max_step = 0\n", []),
        ("max_step = -1\n", []),
        ("", ["--g", "nan"]),
        ("", ["--ka", "inf"]),
        ("", ["--kb", "nan"]),
        ("", ["--t-end", "nan"]),
        ("", ["--t-end", "inf"]),
    ], ids=["unknown-key", "m_den-0", "m-1/0", "m-abc", "kappa-nan",
            "rel-tol-0", "rel-tol-negative", "rel-tol-nan", "max_step-0",
            "max_step-negative", "g-nan", "ka-inf", "kb-nan", "t_end-nan",
            "t_end-inf"])
    def test_parse_error_exit_2(self, tmp_path, capsys, command, text,
                                flags):
        cfg = write(tmp_path, text)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "out.csv"), *flags]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_pole_capture_exit_4(self, tmp_path):
        cfg = write(tmp_path, CIRCULAR_KEPLER
                    + "p_phi0 = 0.0\np_r0 = -0.5\n")
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "t.csv")]) == 4

    def test_flag_overrides(self, tmp_path, capsys):
        cfg = write(tmp_path, PW_SPHERE)
        assert main(["dump-config", "--config", cfg, "--kappa", "-1.0",
                     "--m", "3/2", "--ka", "0.5"]) == 0
        text = capsys.readouterr().out
        parsed = parse_config(text)
        assert parsed.kappa == -1.0
        assert (parsed.m_num, parsed.m_den) == (3, 2)
        assert parsed.k_a == 0.5

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

    @pytest.mark.parametrize("text", [
        PW_SPHERE + "k_a = 100.0\nphi0 = 0.7\n",     # no grid state
        PW_SPHERE + "phi0 = 0.7\nt_end = 1e-5\n",     # rotation span
        PW_SPHERE + "phi0 = 0.7\nt_end = 0.0\n",
    ], ids=["sampler-exhausted", "span-1e-5", "span-0"])
    def test_unverifiable_config_exit_2(self, tmp_path, capsys, text):
        assert main(["verify", "--config", write(tmp_path, text),
                     "--out", str(tmp_path / "report.csv")]) == 2
        assert "config error:" in capsys.readouterr().err


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

    @pytest.mark.parametrize("flags", [["--r-min", "2.0", "--r-max", "1.0"],
                                       ["--r-max", "4.0"],
                                       ["--r-min", "nan"],
                                       ["--samples", "-1"]])
    def test_bad_range_rejected(self, tmp_path, capsys, flags):
        assert main(["potential-curve", "--out",
                     str(tmp_path / "curve.csv"), *flags]) == 2
        assert "config error:" in capsys.readouterr().err
