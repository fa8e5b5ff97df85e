#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised per workload and metric.

    python3 tools/bench_pairs.py --against HEAD --pairs 10 --out BENCH_<n>.json

`--against REF` unpacks REF's `src` and `perfbench` (`git archive`) into a
temporary directory and copies this checkout's `src` and `perfbench`
(uncommitted edits included) next to them.  It then runs
`perfbench/run.py --trace 0` from each copy, one run at a time, for the
benchmark's run length (BENCHMARK.json's `run_seconds`).  Pair k runs
the parent first when k is even and the change first when k is odd.  Within
a pair the workloads run in the order of `--workloads` (default: those of
BENCHMARK.json), the two sides of one workload back to back.

The output file holds, per workload, every run's end-to-end metrics (the
ones BENCHMARK.json names) with its attempted and failed operation counts.
Per metric it also holds:

* the quartiles of each side (`statistics.quantiles`, inclusive method);
* the median ratio, change over parent;
* the number of pairs the change wins, strictly better in the metric's
  direction;
* the median gap over the parent's interquartile range: the parent's median
  minus the change's, signed so that a better change reads positive; null
  when that range is 0.

Each run also keeps perfbench's raw median wall and CPU seconds
(`raw_wall_s`, `raw_cpu_s`), summarised the same way under `raw_summary`.

The file is rewritten after every pair, so an interrupted series keeps its
finished pairs.  A summary table goes to standard output at the end.  Exit
status: 0, 1 when a run fails, 2 when git cannot archive REF.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "perfbench")
SIDES = ("parent", "change")
RAW = ("wall_s", "cpu_s")  # perfbench's raw medians, summarised beside the end-to-end metrics

_SPEC = importlib.util.spec_from_file_location("same_results", ROOT / "tools" / "same_results.py")
same_results = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_results)


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], stdout=subprocess.PIPE, text=True)


def _copy_checkout(dest: Path) -> None:
    for tree in TREES:
        shutil.copytree(ROOT / tree, dest / tree, ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))


def _src_lines(side: Path) -> int:
    return sum(len(f.read_text().splitlines()) for f in (side / "src" / "msp").glob("*.py"))


def _run(side: Path, workload: str, seed: int, seconds: float, metrics: list[str]) -> dict | None:
    """One untraced `perfbench/run.py` run from the copy `side`: its end-to-end metrics, or None if it fails."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=side, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    return parse_run(proc.stdout, metrics)


def parse_run(stdout: str, metrics: list[str]) -> dict:
    """A run's end-to-end metrics and operation counts, from `perfbench/run.py`'s last line, and its raw medians.

    The raw medians (`RAW`, from the "raw medians:" line) are the unit's
    seconds before normalisation, kept as `raw_wall_s` and `raw_cpu_s`: the
    reference kernel runs on the main thread, so a change that keeps a
    second core busy during the unit may move the reference too.
    """
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    run = {m: result["metrics"][m]["value"] for m in metrics}
    run.update(attempted=result["attempted"], failed=result["failed"])
    raw = next((json.loads(line.partition(": ")[2]) for line in lines if line.startswith("raw medians: ")), {})
    run.update({f"raw_{k}": raw[k] for k in RAW if k in raw})
    return run


def _quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else list(xs) * 3


def summarise(parent: list[float], change: list[float], better: str) -> dict:
    """The pair statistics of one metric; runs are listed by pair."""
    sign = 1.0 if better == "lower" else -1.0
    qp, qc = _quartiles(parent), _quartiles(change)
    iqr = qp[2] - qp[0]
    gap = sign * (qp[1] - qc[1])
    return {
        "parent_quartiles": [round(v, 4) for v in qp],
        "change_quartiles": [round(v, 4) for v in qc],
        "change_over_parent": round(qc[1] / qp[1], 4) if qp[1] else None,
        "change_better_pairs": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "median_gap_over_parent_iqr": round(gap / iqr, 2) if iqr > 0 else None,
    }


def _environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "blas_threads": 1,  # perfbench/run.py pins BLAS to one thread
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def _record(args, command: str, bench: dict, commits: dict, lines: dict, runs: dict, done: int) -> dict:
    workloads = {}
    for w, sides in runs.items():
        workloads[w] = {
            "runs": sides,
            "summary": {
                m["name"]: summarise([r[m["name"]] for r in sides["parent"]],
                                     [r[m["name"]] for r in sides["change"]], m["better"])
                for m in bench["end_to_end"]
            },
            "raw_summary": {
                f"raw_{k}": summarise([r[f"raw_{k}"] for r in sides["parent"]],
                                      [r[f"raw_{k}"] for r in sides["change"]], "lower")
                for k in RAW if all(f"raw_{k}" in r for side in SIDES for r in sides[side])
            },
            "failed_operations": {s: sum(r["failed"] for r in sides[s]) for s in SIDES},
        }
    return {
        "command": command,
        "run_command": f"python3 perfbench/run.py --workload <name> --seed {args.seed} "
                       f"--seconds {bench['run_seconds']:g} --trace 0",
        "parent": commits["parent"],
        "change": commits["change"],
        "pairs": {"requested": args.pairs, "done": done},
        "order": "even pairs run the parent first, odd pairs the change first; each side runs from its own "
                 "directory (parent: git archive of src and perfbench; change: a copy of the checkout's), "
                 f"one run at a time, workloads in the order {', '.join(args.workloads)} within each pair",
        "environment": _environment(),
        "src_msp_lines": lines,
        "workloads": workloads,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="REF", required=True, help="git commit to run as the parent")
    ap.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload (default 10)")
    ap.add_argument("--out", metavar="FILE.json", required=True, help="where to write the runs and summaries")
    ap.add_argument("--workloads", nargs="+", choices=names, default=names, help="default: all of BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1, help="perfbench --seed; pick one the change was not tuned on")
    args = ap.parse_args(argv)
    command = "python3 tools/bench_pairs.py " + " ".join(sys.argv[1:] if argv is None else argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    out = Path(args.out).resolve()

    head = _git("rev-parse", "HEAD").stdout.strip()
    dirty = bool(_git("status", "--porcelain", "--", *TREES).stdout.strip())
    commits = {
        "parent": {"ref": args.against, "commit": _git("rev-parse", args.against).stdout.strip()},
        "change": {"commit": head, "uncommitted_edits": dirty,
                   "perfbench_differs": _git("diff", "--quiet", args.against, "--", "perfbench").returncode != 0},
    }
    metrics = [m["name"] for m in bench["end_to_end"]]
    runs = {w: {s: [] for s in SIDES} for w in args.workloads}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs = {s: Path(tmp) / s for s in SIDES}
        if same_results._unpack_src(args.against, str(dirs["parent"]), TREES) != 0:
            print(f"git cannot archive {args.against}", file=sys.stderr)
            return 2
        _copy_checkout(dirs["change"])
        lines = {s: _src_lines(d) for s, d in dirs.items()}
        for k in range(args.pairs):
            for w in args.workloads:
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    run = _run(dirs[side], w, args.seed, bench["run_seconds"], metrics)
                    if run is None:
                        print(f"pair {k}: {w} ({side}) failed", file=sys.stderr)
                        return 1
                    runs[w][side].append(dict(run, pair=k))
                    print(f"pair {k} {w} {side}: wall_norm {run['wall_norm']:.3f}", file=sys.stderr, flush=True)
            out.write_text(json.dumps(_record(args, command, bench, commits, lines, runs, k + 1), indent=1) + "\n")

    record = json.loads(out.read_text())
    print(f"{'workload':10} {'metric':14} {'change/parent':>13} {'wins':>6} {'gap/IQR':>8}")
    for w, data in record["workloads"].items():
        for m, s in {**data["summary"], **data["raw_summary"]}.items():
            gap = "null" if s["median_gap_over_parent_iqr"] is None else f"{s['median_gap_over_parent_iqr']:.2f}"
            print(f"{w:10} {m:14} {s['change_over_parent']:>13} {s['change_better_pairs']:>3}/{s['pairs']:<2} {gap:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
