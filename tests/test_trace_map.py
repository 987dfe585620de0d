"""Every name the benchmark's tracer wraps must exist in the library.

``perfbench/tracing.py`` replaces library attributes with timing wrappers by
name, so deleting or renaming one breaks every traced benchmark run.  This
resolves the whole map the way the tracer does, without running a workload.
"""

import importlib.util
import inspect
from pathlib import Path

import zmcounts
import zmcounts.cli  # noqa: F401  (the map reaches zmcounts.cli and zmcounts.io)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
