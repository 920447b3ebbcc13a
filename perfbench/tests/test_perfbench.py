"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import pytest

import curvint.cli
import curvint.dynamics
import reference
import run
import tracing
import workloads
from curvint.systems import PhaseState


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    workload = workloads.WORKLOADS[name]
    first = workloads.input_bytes(workload.generate(7))
    assert first == workloads.input_bytes(workload.generate(7))
    assert first != workloads.input_bytes(workload.generate(8))


def test_inputs_that_can_hit_a_known_defect_do_not_depend_on_the_seed():
    ensemble = workloads.WORKLOADS["ensemble_drift"]
    assert (sorted(map(repr, ensemble.generate(7)))
            == sorted(map(repr, ensemble.generate(8))))
    orbits = workloads.WORKLOADS["orbit_export"]
    fixed = [sorted(repr(item) for item in orbits.generate(seed)
                    if item.kappa <= 0) for seed in (7, 8)]
    assert fixed[0] == fixed[1] and len(fixed[0]) == 2


def test_config_text_parses_back():
    spec = workloads.make_spec("pw", 1.0, workloads.VERIFY_PW_M)
    state = PhaseState(1.1, 0.45, 0.1, workloads.np.float64(0.55))
    cfg = curvint.cli.parse_config(workloads.config_text(spec, state, 20.0))
    assert (cfg.kind, cfg.m_num, cfg.m_den, cfg.p_phi0) == ("pw", 3, 2, 0.55)


def test_self_times_on_hand_built_tree():
    spans = [
        ["root", 0, 100, None, 0],
        ["a", 10, 30, 0, 0],
        ["b", 20, 50, 0, 0],       # overlaps a: the union counts once
        ["c", 90, 120, 0, 0],      # sticks out of root: clipped
        ["a.1", 15, 20, 1, 0],
        ["d", 200, 260, None, 1],
    ]
    assert tracing.self_times(spans) == [50, 15, 30, 30, 5, 60]


def _report(rows):
    lines = [workloads.REPORT_HEADER]
    lines += [f"{c},{n},{v!r},{t!r},{'true' if ok else 'false'}"
              for c, n, v, t, ok in rows]
    return "\n".join(lines) + "\n"


def _good_rows(kind, negative_control):
    rows = []
    for check, name in workloads.expected_report_rows(kind, negative_control):
        control = (check, name) in workloads.CONTROL_ROWS
        rows.append((check, name, 1.0 if control else 1e-9, 1e-8,
                     not control))
    return rows


@pytest.mark.parametrize("kind", workloads.VERIFY_KINDS)
def test_complete_verify_report_passes(kind):
    assert workloads.check_verify_report(
        _report(_good_rows(kind, False)), kind, False, 0) == ([], 0.1)
    failures, _ = workloads.check_verify_report(
        _report(_good_rows(kind, True)), kind, True, 1)
    assert failures == []


def test_verify_report_with_missing_row_fails():
    rows = [r for r in _good_rows("pw", False) if r[:2] != ("drift", "K_im")]
    failures, _ = workloads.check_verify_report(_report(rows), "pw", False, 0)
    assert failures == [("report row missing: drift K_im", None)]


def test_passing_negative_control_fails():
    rows = [(c, n, v, t, True) for c, n, v, t, _ in _good_rows("kepler", True)]
    failures, _ = workloads.check_verify_report(_report(rows), "kepler",
                                                True, 0)
    assert sorted(reason for reason, _ in failures) == [
        "negative control passed: J2+r~H",
        "negative control passed: J2_plus_t"]


def test_wrong_exit_code_and_known_defect_a():
    rows = [(c, n, 5.19e-8 if (c, n) == ("drift", "K_re") else v, t,
             ok and (c, n) != ("drift", "K_re"))
            for c, n, v, t, ok in _good_rows("pw", False)]
    failures, ratio = workloads.check_verify_report(_report(rows), "pw",
                                                    False, 0)
    assert [d for _, d in failures] == ["a", None]
    assert ratio == pytest.approx(5.19)


def test_malformed_verify_report_fails():
    text = _report(_good_rows("free", False)).replace("true", "yes", 1)
    failures, _ = workloads.check_verify_report(text, "free", False, 0)
    assert failures and failures[0][1] is None


def test_truncated_trajectory_csv_fails(tmp_path):
    path = tmp_path / "traj.csv"
    header = "t,r,phi,p_r,p_phi,H"
    rows = [",".join(repr(float(i + j)) for j in range(6)) for i in range(5)]
    path.write_text("\n".join([header] + rows) + "\n")
    assert workloads.check_trajectory_csv(str(path), header, 5)[0] == []
    path.write_text("\n".join([header] + rows[:-1]) + "\n")
    failures, counts = workloads.check_trajectory_csv(str(path), header, 5)
    assert failures and counts["csv_rows"] == 4
    path.write_text("\n".join([header] + rows[:-1] + ["1.0,2.0"]) + "\n")
    assert workloads.check_trajectory_csv(str(path), header, 5)[0]
    path.write_text("\n".join(["t,r,phi,p_r,p_phi"] + rows) + "\n")
    assert workloads.check_trajectory_csv(str(path), header, 5)[0]


def test_drift_checks():
    ok = workloads.check_drifts("completed", {"H": 1e-9, "J2": 2e-9})
    assert ok == ([], pytest.approx(0.02))
    failures, _ = workloads.check_drifts("hit_radial_pole",
                                         {"H": 1e-9, "J2": 2e-7, "K_im": 2e-7})
    assert [defect for _, defect in failures] == [None, None, "c"]


def test_orbit_checks_on_a_circular_kepler_orbit():
    spec = workloads.make_spec("kepler", 0.0)
    traj = curvint.dynamics.integrate(PhaseState(1.0, 0.0, 0.0, 1.0), spec,
                                      3 * math.pi)
    failures, ratio = workloads.check_orbit(traj, 2 * math.pi, None)
    assert failures == [] and ratio < 1.0
    failures, _ = workloads.check_orbit(traj, 2 * math.pi - 0.1, None)
    assert failures and failures[0][1] is None
    failures, _ = workloads.check_orbit(traj, None, None)
    assert failures and failures[0][0].startswith("no closure")


def test_tracer_counts_and_restores():
    original = curvint.cli.integrate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert curvint.cli.integrate is not original
        assert curvint.cli.integrate is curvint.dynamics.integrate
        spec = workloads.make_spec("kepler", 1.0)
        curvint.cli.integrate(PhaseState(1.0, 0.0, 0.0, 1.0), spec, 1.0)
    finally:
        tracer.uninstall()
    assert curvint.cli.integrate is original
    names = [span[0] for span in tracer.spans]
    assert names == ["dynamics.integrate", "dynamics.solve_ivp"]
    assert tracer.spans[1][3] == 0
    metrics = tracer.layer_metrics(1, {})
    assert metrics["dynamics.steps"][0] > 0
    assert metrics["kappa_trig.calls"][0] > metrics["dynamics.steps"][0]
    assert metrics["dynamics.nfev"][0] > metrics["dynamics.steps"][0]


def test_latencies_scale_with_the_reference_kernel():
    results = [workloads.ItemResult(0.1, []), workloads.ItemResult(0.3, [])]
    at_nominal = [run.Pass(0.4, results, [reference.NOMINAL_S] * 3)]
    assert run.scaled_latencies(at_nominal) == pytest.approx([0.1, 0.3])
    slowing = [run.Pass(0.4, results, [reference.NOMINAL_S] * 2
                        + [3 * reference.NOMINAL_S])]
    assert run.scaled_latencies(slowing) == pytest.approx([0.1, 0.15])


def test_summary_counts_failures_by_kind():
    ok = workloads.ItemResult(0.1, [], 0.5)
    known = workloads.ItemResult(0.1, [("no closure", "b")], 0.2)
    other = workloads.ItemResult(0.1, [("negative control passed", None)])
    passes = [run.Pass(0.3, [ok, known, other], [reference.NOMINAL_S] * 4)] * 2
    summary = run.summarize(passes)
    assert (summary["attempted"], summary["failed"]) == (3, 2)
    assert summary["item_runs"] == 6
    once = [run.Pass(0.3, [ok, ok, ok], [reference.NOMINAL_S] * 4),
            run.Pass(0.3, [ok, other, ok], [reference.NOMINAL_S] * 4)]
    assert (run.summarize(once)["attempted"],
            run.summarize(once)["failed"]) == (3, 1)
    assert summary["unexpected_failures"] == 1
    assert summary["accuracy_ratio"] == 0.5
    assert summary["items_per_s"] == pytest.approx(10.0)
