"""What msp prints and counts, held in tests/data/records.txt.

The file is the clear text (`same_results.clear`: each line without its
hash) of `tools/same_results.py`'s `records` and verdict table: the 312
`run_table` records (`it=`, `conv=`) and their factor census, then the 432
CLI spectra (`exit=` and the `kappa` line: each of the 312 cells', the 24
of acceptance gate 7 at L4 (its 24 at L3 are cells') and the 96 1D L5-L8
exact ones) with their factor
census and spectrum-path census, then the 1D verdict table.  Left out, for
time (about 1.4 s together): the CLI's three tables, its two --lanczos
spectra and its two `verify` runs, and the 400 verify systems.  The hashes
stay out: solution bits depend on the BLAS build, and `same_results.py
--against` keeps checking them.  A change that moves one of these lines on
purpose rewrites the file in the same commit, with one BLAS thread:

    PYTHONPATH=src python3 tests/test_records.py > tests/data/records.txt

The 17 1D cells that exit 1 (BOUND VIOLATED) are false alarms: the theorem
holds there, and which cells cross the bound is decided by the rounding of
the dense last Schur stage, a coin flip (ROADMAP item 1).  On another BLAS
build they may read otherwise.
"""

import difflib
import importlib.util
import os
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_RECORDS = _ROOT / "tests" / "data" / "records.txt"
_SPEC = importlib.util.spec_from_file_location("same_results", _ROOT / "tools" / "same_results.py")
same_results = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_results)


def test_records_are_unchanged():
    want = _RECORDS.read_text().splitlines()
    got = same_results.clear_records()
    assert got == want, "\n".join(difflib.unified_diff(want, got, str(_RECORDS), "this checkout", lineterm=""))


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before numpy is first imported
    print("\n".join(same_results.clear_records()))
