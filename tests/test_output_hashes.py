"""tools/output_hashes.py on the fastest workload."""

import importlib.util
import os
from pathlib import Path

import curvint.cli as cli
import curvint.verify as verify

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_hashes.py"
_spec = importlib.util.spec_from_file_location("output_hashes", TOOL)
output_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_hashes)


def test_verify_suite_outputs_are_named_once_and_repeat():
    workload = output_hashes.workloads.WORKLOADS["verify_suite"]
    patched = (cli.main, verify.random_bounded_state, verify.drift,
               verify.closure_detect, verify.rotation_check)
    cwd = os.getcwd()
    first = list(output_hashes.outputs(workload, 1))
    assert first == list(output_hashes.outputs(workload, 1))
    assert (cli.main, verify.random_bounded_state, verify.drift,
            verify.closure_detect, verify.rotation_check) == patched
    assert os.getcwd() == cwd
    names = [name for name, _ in first]
    assert len(set(names)) == len(names)
    assert names[0] == "verify_suite/input_bytes"
    # each of the 26 runs: its exit code, report, stdout and stderr
    for kind in ("exit", "csv", "stdout", "stderr"):
        assert sum(name.endswith(":" + kind) for name in names) == 26
    report = next(value for name, value in first
                  if name.startswith("verify_suite/pw+1-fixed/")
                  and name.endswith(":csv"))
    assert report.startswith(b"check,name,value,threshold,pass\n")
    assert all(isinstance(value, bytes) for _, value in first)
