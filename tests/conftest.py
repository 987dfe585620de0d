import os

# one BLAS and OpenMP thread per process, set before anything imports numpy.
# The replicate pool caps its own workers' bundled OpenBLAS, but these caps
# also cover the test process itself, whose serial fits and pool of workers
# share the cores, and BLAS builds the pool's cap does not know (MKL,
# OpenMP); test_experiments.py runs the pool without them
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import pytest  # noqa: E402


def pytest_addoption(parser):
    parser.addoption(
        "--reproduction-replicates",
        type=int,
        default=int(os.environ.get("ZMCOUNTS_REPLICATES", "200")),
        help="replicates per reproduction experiment (default 200; the full "
        "benchmark count is 1000)",
    )
    parser.addoption(
        "--jobs",
        type=int,
        default=min(4, os.cpu_count() or 1),
        help="worker processes for replicate-level parallelism",
    )


@pytest.fixture(scope="session")
def replicates(request):
    return request.config.getoption("--reproduction-replicates")


@pytest.fixture(scope="session")
def jobs(request):
    return request.config.getoption("--jobs")


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process unreaped, whether it is still
    running or has exited and was never waited for."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process unreaped"
                + (f" (pid {pid}, now reaped)" if pid else " (still running)"))


@pytest.fixture
def forced_split(monkeypatch):
    """Every CSV table, whatever its length and the CPU count, has its back
    half formatted in a forked child; returns the list of the children's
    pids, which grows with each fork."""
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    from zmcounts import io

    monkeypatch.setattr(io, "_SPLIT_ROWS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


@pytest.fixture(params=["serial", "split"])
def writer_mode(request):
    """Run a writer test as it is, and again with :func:`forced_split`, which
    must then have split at least one table."""
    if request.param == "serial":
        yield request.param
        return
    forks = request.getfixturevalue("forced_split")
    yield request.param
    assert forks, "no table was split"
