"""Every name the benchmark's tracer wraps must exist in the library, and
the fit must still reach the spans the ``mc_zmp`` workload requires.

``perfbench/tracing.py`` replaces library attributes with timing wrappers by
name, so deleting or renaming one breaks every traced benchmark run.  This
resolves the whole map the way the tracer does, and runs one short replicate
of each ``mc_zmp`` row under the tracer.
"""

import importlib.util
import inspect
from pathlib import Path

import zmcounts
import zmcounts.cli  # noqa: F401  (the map reaches zmcounts.cli and zmcounts.io)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load("tracing")


def test_every_traced_name_resolves():
    missing = []
    for owner, attr, *_ in load_tracing().targets(zmcounts):
        if isinstance(owner, dict):  # the CLI's dispatch table
            found = attr in owner
        else:
            try:
                inspect.getattr_static(owner, attr)
                found = True
            except AttributeError:
                found = False
        if not found:
            missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
    assert not missing, f"traced names missing from the library: {missing}"


def test_mc_zmp_reaches_every_required_span():
    # a refactor that stops calling brentq, marginal_zero_prob or
    # pearson_residuals through their module attributes fails here, not
    # only in the benchmark's own self-test
    tracing, workloads = load_tracing(), load("workloads")
    rows = workloads.paper_rows(zmcounts, n=200)
    with tracing.Tracer().active(tracing.targets(zmcounts)) as tracer:
        for i, row in enumerate((rows["crit1"], rows["crit2"])):
            zmcounts.experiments.run_replicate(row, workloads.op_seed(1, i))
    tracer.require(workloads.MC_REQUIRED, "mc_zmp")
