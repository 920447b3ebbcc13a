#!/usr/bin/env python3
"""The sha256 of every output of the benchmark's three workloads at a seed.

    python3 tools/output_hashes.py --seed 1 > hashes_1.txt

Run from anywhere; the library is imported from the checkout's ./src and
the workloads from its ./perfbench, which this script only reads.  Each
workload generates its items from --seed and runs every item once, as the
benchmark does, in a fresh directory; wrappers on the library's module
attributes record what the program returned.  One `sha256  name` line is
printed per output:

- each workload's generated inputs (`workloads.input_bytes`);
- every `curvint` CLI run's exit code, output file, stdout and stderr:
  verify_suite's reports, orbit_export's simulate CSVs;
- every return of `verify.random_bounded_state` (with the state its rng
  is left in), `drift`, `closure_detect` and `rotation_check` in an item:
  ensemble_drift's starts and drift reports, orbit_export's closure
  periods and rotation reports, and the drift rows inside each verify.

Values are hashed by repr, which gives every float's bits.  A change that
should compute the same values prints the same lines: run this on both
checkouts at seeds 1 and 2 and diff the outputs.
"""

import os

# As in perfbench/run.py: one thread, pinned before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import curvint.cli as cli                   # noqa: E402
import curvint.verify as verify             # noqa: E402
import workloads                            # noqa: E402


def then(fn, record):
    """fn, then record(args, result) after each call."""
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        record(args, result)
        return result
    return wrapper


def item_label(item) -> str:
    if isinstance(item, workloads.EnsembleItem):
        return (f"kappa={item.kappa:+g},m={item.m},"
                f"words={'.'.join(map(str, item.seed_words))}")
    if isinstance(item, workloads.VerifyItem):
        return item.key + ("+negative-control" * item.negative_control)
    return item.key


def outputs(workload, seed: int):
    """(name, bytes) of every output of workload's items at seed."""
    items = workload.generate(seed)
    yield f"{workload.name}/input_bytes", workloads.input_bytes(items)
    found = []              # (name, str or bytes) of the item under way

    def cli_main(main):
        def wrapper(argv=None):
            # stdout and stderr apart, and the file --out names, if written
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            found.append(("exit", str(code)))
            path = Path(argv[argv.index("--out") + 1])
            if path.exists():
                found.append((path.suffix[1:], path.read_bytes()))
            found.extend((("stdout", out.getvalue()),
                          ("stderr", err.getvalue())))
            return code
        return wrapper

    def start(args, result):
        found.extend((("start", repr(result)),
                      ("rng", str(args[1].bit_generator.state))))

    def keep(name):
        return lambda args, result: found.append((name, repr(result)))

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(cli, "main",
                                              cli_main(cli.main)))
        stack.enter_context(mock.patch.object(
            verify, "random_bounded_state",
            then(verify.random_bounded_state, start)))
        for name in ("drift", "closure_detect", "rotation_check"):
            stack.enter_context(mock.patch.object(
                verify, name, then(getattr(verify, name), keep(name))))
        workdir = stack.enter_context(tempfile.TemporaryDirectory())
        # relative paths, so that no output names the directory
        stack.callback(os.chdir, os.getcwd())
        os.chdir(workdir)
        workload.prepare(items, ".")
        for item in items:
            found.clear()
            workload.run(item, ".")
            for i, (name, value) in enumerate(found):
                if isinstance(value, str):
                    value = value.encode()
                yield f"{workload.name}/{item_label(item)}/{i}:{name}", value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for workload in workloads.WORKLOADS.values():
        for name, value in outputs(workload, args.seed):
            print(f"{hashlib.sha256(value).hexdigest()}  {name}", flush=True)


if __name__ == "__main__":
    main()
