import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zmcounts import experiments
from zmcounts.experiments import ExperimentRow, run_experiment

SRC = Path(__file__).resolve().parent.parent / "src"

# run as a script, so that pool workers can import its functions under any
# start method
SCRIPT = '''
import ctypes
import json
from concurrent.futures import ProcessPoolExecutor

from zmcounts import experiments
from zmcounts.experiments import ExperimentRow, run_experiment


def blas_threads():
    """Thread count of each bundled OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = {line.split(None, 5)[-1].strip() for line in fh if "openblas" in line}
    counts = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                counts[name] = getter()
    return counts


if __name__ == "__main__":
    row = ExperimentRow("zmp", "gar1", omega=0.2, rho=0.8, beta=0.5, p=4.0,
                        n=300, replicates=6)
    before = blas_threads()
    one = run_experiment(row, 7, jobs=1)
    two = run_experiment(row, 7, jobs=2)
    with ProcessPoolExecutor(1, initializer=experiments._one_blas_thread) as ex:
        worker = ex.submit(blas_threads).result()
    print(json.dumps({
        "same": repr((one.estimates, one.discard_reasons))
        == repr((two.estimates, two.discard_reasons)),
        "before": before, "after": blas_threads(), "worker": worker,
    }))
'''


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_pool_workers_run_one_blas_thread(tmp_path):
    # without thread variables OpenBLAS starts a thread per core in every
    # worker; the pool's initializer caps each worker at one, leaves the
    # calling process as it was, and the estimates do not depend on jobs
    script = tmp_path / "pool.py"
    script.write_text(SCRIPT)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["same"]
    assert report["after"] == report["before"]
    assert set(report["worker"]) == set(report["before"])
    assert all(count == 1 for count in report["worker"].values())


@pytest.fixture
def recording_pool(monkeypatch):
    """A stand-in for ProcessPoolExecutor that starts no process: it records
    each pool's worker count and maps in this process, in order."""
    import concurrent.futures

    sizes = []

    class Pool:
        def __init__(self, max_workers, initializer=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return sizes


@pytest.mark.parametrize("replicates, cpus, workers", [
    (2, 8, [2]),   # no more workers than replicates
    (5, 3, [3]),   # no more workers than CPUs
    (5, 1, []),    # one CPU: no pool at all
])
def test_pool_size_is_capped(monkeypatch, recording_pool, replicates, cpus, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    row = ExperimentRow("zmp", "gar1", omega=0.2, rho=0.8, beta=0.5, p=4.0,
                        n=200, replicates=replicates)
    many = run_experiment(row, 3, jobs=500)
    assert recording_pool == workers
    one = run_experiment(row, 3, jobs=1)
    assert repr((many.estimates, many.discard_reasons)) == repr((one.estimates,
                                                                 one.discard_reasons))


def test_cpus_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert experiments._cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert experiments._cpus() == 1
