"""The benchmark's span tracer still finds every msp function it rebinds.

`perfbench/tracing.py` rebinds msp's public functions by name; a deleted or
renamed one fails `installed` on entry.  The tier-1 suite does not collect
`perfbench`, so the tracer is loaded here by path, as it is.
"""

import importlib.util
import sys
from pathlib import Path

import msp.assembly
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
