"""Per-layer timing of curvint, installed from outside the library.

A Tracer replaces module attributes of curvint (for example
`curvint.cli.integrate`, `curvint.verify.hamiltonian` and
`curvint.dynamics.solve_ivp`) with wrappers and restores them afterwards;
nothing under src/ is edited.  Calls at layer boundaries become spans kept
in memory: (name, start_ns, end_ns, parent index, item id).  Calls too
frequent for a span each (kappa_trig, hamiltonian, drift evaluators) only
add to counters.
"""

import importlib
import inspect
from collections import defaultdict
from time import perf_counter_ns

MODULES = ("curvint", "curvint.kappa_trig", "curvint.systems",
           "curvint.dynamics", "curvint.invariants", "curvint.verify",
           "curvint.cli")

# (defining module, attribute) -> span name
SPANS = {
    ("curvint.cli", "main"): "cli.main",
    ("curvint.cli", "cmd_simulate"): "cli.cmd_simulate",
    ("curvint.cli", "cmd_verify"): "cli.cmd_verify",
    ("curvint.dynamics", "integrate"): "dynamics.integrate",
    ("curvint.dynamics", "solve_ivp"): "dynamics.solve_ivp",
    ("curvint.verify", "drift"): "verify.drift",
    ("curvint.verify", "random_bounded_state"): "verify.random_bounded_state",
    ("curvint.verify", "bracket_with_scale"): "verify.bracket_with_scale",
    ("curvint.verify", "rotation_check"): "verify.rotation_check",
    ("curvint.verify", "closure_detect"): "verify.closure_detect",
    ("curvint.verify", "euclidean_limit_scan"): "verify.euclidean_limit_scan",
}
KAPPA_TRIG = ("sin_k", "cos_k", "tan_k", "cot_k")


def self_times(spans) -> list:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2])
                                     for c in children[i]):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
            cursor = max(cursor, hi)
        out.append(end - start - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None
        self._open = []
        self.counters = defaultdict(int)
        self._inside_kappa = False
        self._patched = []

    # --- spans ---

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter_ns(), None, parent, self.item])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._open.pop()

    # --- wrappers ---

    def _span(self, name, fn, after=None, before=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def _kappa(self, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            if self._inside_kappa:
                return fn(*args, **kwargs)
            self._inside_kappa = True
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                counters["kappa_trig.ns"] += perf_counter_ns() - t0
                counters["kappa_trig.calls"] += 1
                self._inside_kappa = False
        return wrapper

    def _hamiltonian(self, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                counters["systems.hamiltonian_ns"] += perf_counter_ns() - t0
                counters["systems.hamiltonian_calls"] += 1
        return wrapper

    def _timed_evaluator(self, fn):
        counters = self.counters

        def evaluator(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                counters["invariants.ns"] += perf_counter_ns() - t0
                counters["invariants.evals"] += 1
        return evaluator

    def _hooks(self, name, fn):
        """(before, after) callbacks that record counts for one span."""
        counters = self.counters
        if name == "dynamics.solve_ivp":
            def after(sol, args, kwargs):
                counters["dynamics.nfev"] += sol.nfev
                counters["dynamics.steps"] += len(sol.t) - 1
            return None, after
        if name == "dynamics.integrate":
            def after(traj, args, kwargs):
                if traj.termination.value != "completed":
                    counters["dynamics.early_terminations"] += 1
            return None, after
        if name == "verify.drift":
            signature = inspect.signature(fn)

            def before(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.arguments["fn"] = self._timed_evaluator(
                    bound.arguments["fn"])
                return bound.args, bound.kwargs
            return before, None
        if name == "verify.random_bounded_state":
            signature = inspect.signature(fn)
            marks = []

            def before(args, kwargs):
                marks.append(counters["systems.hamiltonian_calls"])
                return args, kwargs

            def after(state, args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tries = counters["systems.hamiltonian_calls"] - marks.pop()
                counters["verify.sample_tries"] += tries
                counters["verify.sample_returned"] += 1
                if tries >= bound.arguments.get("max_tries", tries + 1):
                    counters["verify.sample_exhausted"] += 1
            return before, after
        return None, None

    def install(self) -> None:
        """Wrap every curvint attribute that refers to a traced function."""
        modules = [importlib.import_module(name) for name in MODULES]
        targets = {}
        for (module, attr), name in SPANS.items():
            fn = getattr(importlib.import_module(module), attr)
            before, after = self._hooks(name, fn)
            targets[id(fn)] = self._span(name, fn, after, before)
        kappa_trig = importlib.import_module("curvint.kappa_trig")
        for attr in KAPPA_TRIG:
            fn = getattr(kappa_trig, attr)
            targets[id(fn)] = self._kappa(fn)
        hamiltonian = importlib.import_module("curvint.systems").hamiltonian
        targets[id(hamiltonian)] = self._hamiltonian(hamiltonian)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in targets:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, targets[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # --- per-layer metrics ---

    def layer_metrics(self, passes: int, item_counts: dict) -> dict:
        """Per-layer metrics per pass: {name: (value, unit)}."""
        total = defaultdict(int)
        calls = defaultdict(int)
        own = defaultdict(int)
        for span, self_ns in zip(self.spans, self_times(self.spans)):
            total[span[0]] += span[2] - span[1]
            calls[span[0]] += 1
            own[span[0]] += self_ns
        c = self.counters

        def per_pass_s(ns):
            return ns / 1e9 / passes

        def ratio(num, den):
            return num / den if den else 0.0
        integrate_ns = total["dynamics.integrate"]
        return {
            "dynamics.integrate_s": (per_pass_s(integrate_ns), "s"),
            "dynamics.steps": (c["dynamics.steps"] / passes, "count"),
            "dynamics.nfev": (c["dynamics.nfev"] / passes, "count"),
            "dynamics.us_per_step": (
                ratio(integrate_ns / 1e3, c["dynamics.steps"]), "us"),
            "dynamics.early_terminations": (
                c["dynamics.early_terminations"] / passes, "count"),
            "verify.sample_s": (
                per_pass_s(total["verify.random_bounded_state"]), "s"),
            "verify.sample_tries": (c["verify.sample_tries"] / passes,
                                    "count"),
            "verify.sample_accept_ratio": (
                ratio(c["verify.sample_returned"], c["verify.sample_tries"]),
                "ratio"),
            "verify.sample_exhausted": (c["verify.sample_exhausted"] / passes,
                                        "count"),
            "verify.drift_s": (per_pass_s(total["verify.drift"]), "s"),
            "verify.drift_self_s": (
                per_pass_s(total["verify.drift"] - c["invariants.ns"]), "s"),
            "invariants.evals": (c["invariants.evals"] / passes, "count"),
            "invariants.us_per_state": (
                ratio(c["invariants.ns"] / 1e3, c["invariants.evals"]), "us"),
            "verify.bracket_s": (
                per_pass_s(total["verify.bracket_with_scale"]), "s"),
            "verify.bracket_calls": (
                calls["verify.bracket_with_scale"] / passes, "count"),
            "verify.limit_s": (
                per_pass_s(total["verify.euclidean_limit_scan"]), "s"),
            "cli.verify_self_s": (per_pass_s(own["cli.cmd_verify"]), "s"),
            "verify.closure_s": (
                per_pass_s(total["verify.closure_detect"]), "s"),
            "verify.rotation_s": (
                per_pass_s(total["verify.rotation_check"]), "s"),
            "cli.simulate_write_s": (per_pass_s(own["cli.cmd_simulate"]),
                                     "s"),
            "cli.csv_rows": (item_counts.get("csv_rows", 0) / passes,
                             "count"),
            "cli.csv_bytes": (item_counts.get("csv_bytes", 0) / passes, "B"),
            "kappa_trig.calls": (c["kappa_trig.calls"] / passes, "count"),
            "kappa_trig.ns_per_call": (
                ratio(c["kappa_trig.ns"], c["kappa_trig.calls"]), "ns"),
            "systems.hamiltonian_calls": (
                c["systems.hamiltonian_calls"] / passes, "count"),
            "systems.hamiltonian_us": (
                ratio(c["systems.hamiltonian_ns"] / 1e3,
                      c["systems.hamiltonian_calls"]), "us"),
        }

    def dump(self) -> dict:
        return {"span_fields": ["name", "start_ns", "end_ns", "parent",
                                "item"],
                "spans": self.spans, "counters": dict(self.counters)}
