"""Per-layer spans recorded from outside the library.

Each traced name is a public function looked up as a module attribute by its
caller (``zmcounts.estimation.forward_pass`` is what the fitting loop calls),
so replacing that attribute with a timing wrapper sees every call without a
change under ``src/``.  Spans are aggregated in memory per name: calls, busy
seconds and a work count (values, steps, bytes or objective evaluations).  A
layer's self time is its spans' time minus the time of their direct child
spans, so time spent in another layer is charged to that layer only.
"""

from __future__ import annotations

import inspect
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class TraceError(RuntimeError):
    """A traced name is missing, or a workload that must call it never did."""


def _length(args, result):
    return len(result)


def _file_size(args, result):
    return os.path.getsize(args[0])


def _nfev(args, result):
    return int(result.nfev)


def targets(zm):
    """(owner, attribute, layer, span, units) for every traced call site.

    ``zm`` is the imported ``zmcounts`` package.  Each owner is the object the
    caller looks the name up on; the same function reached from two callers is
    wrapped at both.  ``units(args, result)`` counts the call's work.
    """
    exp, est, fil, diag, cli, io = (
        zm.experiments, zm.estimation, zm.filtering, zm.diagnostics, zm.cli, zm.io,
    )
    out = [
        (exp, "run_replicate", "experiments", "experiments.replicate", None),
        (exp, "simulate_intensity", "intensity", "intensity.simulate", _length),
        (cli, "simulate_intensity", "intensity", "intensity.simulate", _length),
        (exp, "zm_sample", "observation", "observation.sample", _length),
        (cli, "zm_sample", "observation", "observation.sample", _length),
        (est, "marginal_zero_prob", "observation", "observation.zero_mass", None),
        (est, "forward_pass", "filtering", "filtering.forward_pass", None),
        (fil, "variance_path", "filtering", "filtering.variance_path", None),
        (est, "variance_path", "filtering", "filtering.variance_path", None),
        (est, "gkf_filter", "filtering", "filtering.gkf_filter", _length),
        (cli, "gkf_filter", "filtering", "filtering.gkf_filter", _length),
        (exp, "fit", "estimation", "estimation.fit", None),
        (est, "default_init", "estimation", "estimation.init", None),
        (est, "minimize", "estimation", "estimation.optimizer", _nfev),
        (est, "brentq", "estimation", "estimation.root_find", None),
        (diag.ProbTable, "build", "diagnostics", "diagnostics.probtable", None),
        # the fit imports pearson_residuals from the module at call time
        (diag, "pearson_residuals", "diagnostics", "diagnostics.residuals", None),
        (cli, "pearson_residuals", "diagnostics", "diagnostics.residuals", None),
        (cli, "ljung_box", "diagnostics", "diagnostics.ljung_box", None),
        (cli, "sample_acf_pacf", "diagnostics", "diagnostics.acf", None),
        (io, "read_counts_csv", "io", "io.read", None),
        (io, "read_fit_json", "io", "io.read", None),
        (cli, "main", "cli", "cli.main", None),
    ]
    for name in ("write_counts_csv", "write_filtered_csv", "write_residuals_csv",
                 "write_acf_pacf_csv", "write_probtable_csv", "write_metadata"):
        out.append((io, name, "io", "io.write", _file_size))
    # main dispatches through this table, not through the cmd_* attributes
    for command in ("simulate", "filter", "diagnose"):
        out.append((cli._DISPATCH, command, "cli", f"cli.{command}", None))
    return out


def _owner_name(owner):
    return getattr(owner, "__name__", type(owner).__name__)


def _get(owner, attr):
    if isinstance(owner, dict):
        if attr not in owner:
            raise TraceError(f"traced name {attr!r} is missing from the dispatch table")
        return owner[attr]
    try:
        return inspect.getattr_static(owner, attr)
    except AttributeError:
        raise TraceError(f"traced name {_owner_name(owner)}.{attr} is missing") from None


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Aggregated spans: ``stats[span] = [calls, seconds, units]``."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0])
        self.layer_self = defaultdict(float)
        self._stack = []

    def _wrap(self, fn, layer, span, units):
        stat = self.stats[span]
        stack = self._stack
        layer_self = self.layer_self

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                layer_self[layer] += dt - children[0]
            if units is not None:
                stat[2] += units(args, result)
            return result

        return traced

    @contextmanager
    def active(self, sites):
        """Install the wrappers for the duration of the block."""
        patched = []
        try:
            for owner, attr, layer, span, units in sites:
                orig = _get(owner, attr)
                if isinstance(orig, classmethod):
                    wrapped = classmethod(self._wrap(orig.__func__, layer, span, units))
                else:
                    wrapped = self._wrap(orig, layer, span, units)
                _set(owner, attr, wrapped)
                patched.append((owner, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(patched):
                _set(owner, attr, orig)

    def require(self, spans, workload):
        """Fail if a span the workload must reach recorded no call."""
        silent = [s for s in spans if self.stats[s][0] == 0]
        if silent:
            raise TraceError(f"{workload}: no calls recorded for {', '.join(silent)}")

    def per_op(self, ops):
        """Per-layer metrics per traced op, as ``name -> (value, unit)``."""
        ops = max(ops, 1)

        def calls(span):
            return self.stats[span][0]

        def secs(span):
            return self.stats[span][1] / ops

        def ns_per_unit(span):
            _, seconds, units = self.stats[span]
            return seconds / units * 1e9 if units else 0.0

        fp_calls = calls("filtering.forward_pass")
        return {
            "intensity.simulate_s": (secs("intensity.simulate"), "s"),
            "intensity.ns_per_value": (ns_per_unit("intensity.simulate"), "ns"),
            "observation.sample_s": (secs("observation.sample"), "s"),
            "observation.sample_ns_per_value": (ns_per_unit("observation.sample"), "ns"),
            "observation.zero_mass_calls": (calls("observation.zero_mass") / ops, "count"),
            "observation.zero_mass_s": (secs("observation.zero_mass"), "s"),
            "observation.zero_mass_calls_per_eval": (
                calls("observation.zero_mass") / fp_calls if fp_calls else 0.0, "ratio"),
            "filtering.forward_pass_calls": (fp_calls / ops, "count"),
            "filtering.forward_pass_s": (secs("filtering.forward_pass"), "s"),
            "filtering.variance_path_s": (secs("filtering.variance_path"), "s"),
            "filtering.gkf_filter_ns_per_step": (ns_per_unit("filtering.gkf_filter"), "ns"),
            "estimation.fit_s": (secs("estimation.fit"), "s"),
            "estimation.self_s": (self.layer_self["estimation"] / ops, "s"),
            "estimation.init_s": (secs("estimation.init"), "s"),
            "estimation.optimizer_runs": (calls("estimation.optimizer") / ops, "count"),
            "estimation.optimizer_nfev": (self.stats["estimation.optimizer"][2] / ops, "count"),
            "estimation.root_finds": (calls("estimation.root_find") / ops, "count"),
            "diagnostics.probtable_s": (secs("diagnostics.probtable"), "s"),
            "diagnostics.residuals_s": (secs("diagnostics.residuals"), "s"),
            "diagnostics.ljung_box_s": (secs("diagnostics.ljung_box"), "s"),
            "experiments.replicate_s": (secs("experiments.replicate"), "s"),
            "io.read_s": (secs("io.read"), "s"),
            "io.write_s": (secs("io.write"), "s"),
            "io.bytes_written": (self.stats["io.write"][2] / ops, "bytes"),
            "cli.simulate_s": (secs("cli.simulate"), "s"),
            "cli.filter_s": (secs("cli.filter"), "s"),
            "cli.diagnose_s": (secs("cli.diagnose"), "s"),
            "cli.self_s": (self.layer_self["cli"] / ops, "s"),
        }
