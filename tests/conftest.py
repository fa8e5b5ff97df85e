"""Fixtures shared by the test modules."""

import os
import threading

import pytest

# The suite's matrices are small, so a second BLAS thread only adds
# synchronization: pin one before anything imports numpy.  An explicit
# setting in the environment still wins.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(var, "1")

from msp import problems, saddle


@pytest.fixture
def schur_stages(monkeypatch):
    """The dense Schur stages factored by `saddle.factor_stage`, in call order.

    A preconditioner keeps only the factors, and the factor overwrites its
    stage, so tests that check the stages themselves read them here: each is
    a copy of the array taken just before it was factored.
    """
    stages = []
    factor_stage = saddle.factor_stage

    def recording(i, s):
        stages.append(s.copy())
        return factor_stage(i, s)

    for mod in (saddle, problems):
        monkeypatch.setattr(mod, "factor_stage", recording)
    return stages


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a non-daemon thread running: `run_table` joins its solver threads before it returns."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before and not t.daemon and t.is_alive()]
    if left:
        pytest.fail(f"threads left running: {left}")
