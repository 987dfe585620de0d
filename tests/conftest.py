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
