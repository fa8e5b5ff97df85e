"""The benchmark's span tracer still finds every msp function it rebinds, and runs only on the main thread.

`perfbench/tracing.py` rebinds msp's public functions by name; a deleted or
renamed one fails `installed` on entry.  Its span stack is one list for all
threads, so a traced function called on `run_table`'s solver threads would
close spans out of order.  The tier-1 suite does not collect `perfbench`,
so the tracer is loaded here by path, as it is.
"""

import contextlib
import importlib.util
import io
import sys
import threading
from pathlib import Path

import pytest

import msp.assembly
from msp import cli, run
from msp import splines as sp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


def test_installed_tracer_enters_and_exits():
    tracing = _load_tracing()
    original = msp.assembly.assemble_mass
    with tracing.installed(tracing.Tracer()) as tracer:
        assert msp.assembly.assemble_mass is not original
        msp.assembly.assemble_mass(sp.tensor_space(1, 2, 2), sp.identity_geometry(1))
    assert msp.assembly.assemble_mass is original
    assert tracer.calls("assembly.mass") == 1
    assert tracer.counts["assembly.elements"] == 4


def _main_thread_tracer(tracing):
    """A tracer that records, and refuses, every span opened off the main thread."""

    class MainThreadTracer(tracing.Tracer):
        def __init__(self):
            super().__init__()
            self.off_main = []

        def open(self, name):
            if threading.current_thread() is not threading.main_thread():
                self.off_main.append((name, threading.current_thread().name))
                raise AssertionError(f"span {name} opened on {threading.current_thread().name}")
            return super().open(name)

    return MainThreadTracer()


@pytest.mark.parametrize("variant", ["practical", "exact_schur"])
def test_traced_table_keeps_every_span_on_the_main_thread(variant):
    tracing = _load_tracing()
    args = ("boundary_observation", 2, 2, [2, 3], [1.0, 1e-3, 1e-5], variant, None)
    want = run.run_table(*args)
    with tracing.installed(_main_thread_tracer(tracing)) as tracer:
        got = run.run_table(*args)
    assert tracer.off_main == []
    assert got == want
    assert (tracer.calls("run.table"), tracer.calls("problems.build")) == (1, 6)


def test_traced_cli_table_keeps_every_span_on_the_main_thread():
    tracing = _load_tracing()
    argv = ["table", "--problem", "distributed_strong", "--dim", "2", "--degree", "2", "--levels", "2", "3"]

    def table():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        return out.getvalue()

    want = table()
    with tracing.installed(_main_thread_tracer(tracing)) as tracer:
        got = table()
    assert tracer.off_main == []
    assert got == want
    assert tracer.calls("cli.main") == 1
