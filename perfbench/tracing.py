"""Outside-in span tracing of msp's public functions.

A `Tracer` keeps spans (name, start, end, parent id) and a few counters in
memory.  `installed(tracer)` rebinds each traced function in every msp
module that holds it (so `from .sparselin import cholesky` in `saddle` is
traced too), wraps the lazily assembled `DiscreteOperators` properties, and
restores every original on exit.  Nothing inside msp is edited: spans sit at
the boundaries where one layer calls another.

The layer of a span is the part of its name before the first dot.  A span's
self time is its duration minus the durations of its direct children, so the
self times of all layers add up exactly to the root span.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

_MODULES = (
    "msp",
    "msp.chebyshev",
    "msp.sparselin",
    "msp.saddle",
    "msp.krylov",
    "msp.splines",
    "msp.assembly",
    "msp.problems",
    "msp.run",
    "msp.cli",
)

# (home module, function name, span name)
_FUNCTIONS = (
    ("msp.assembly", "assemble_mass", "assembly.mass"),
    ("msp.assembly", "assemble_laplacian_strong", "assembly.laplacian"),
    ("msp.assembly", "assemble_biharmonic", "assembly.biharmonic"),
    ("msp.assembly", "assemble_normal_gram", "assembly.normal_gram"),
    ("msp.assembly", "assemble_trace_mass", "assembly.trace"),
    ("msp.assembly", "assemble_normal_coupling", "assembly.trace"),
    ("msp.assembly", "assemble_rhs_normal_data", "assembly.rhs"),
    ("msp.assembly", "assemble_rhs_l2", "assembly.rhs"),
    ("msp.problems", "build_problem", "problems.build"),
    ("msp.problems", "exact_schur_precond", "problems.exact_schur"),
    ("msp.sparselin", "cholesky", "sparselin.factor"),
    ("msp.sparselin", "solve_chol", "sparselin.solve"),
    ("msp.sparselin", "gen_sym_eig", "sparselin.eig"),
    ("msp.krylov", "minres_solve", "krylov.minres"),
    ("msp.saddle", "assemble_full", "saddle.assemble_full"),
    ("msp.saddle", "spectrum", "saddle.spectrum"),
    ("msp.saddle", "verify_sharpness", "saddle.verify"),
    ("msp.chebyshev", "bounds", "chebyshev.bounds"),
    ("msp.chebyshev", "smallest_abs_root", "chebyshev.bounds"),
    ("msp.chebyshev", "pbar_roots", "chebyshev.bounds"),
    ("msp.chebyshev", "epsilon_sequence", "chebyshev.bounds"),
    ("msp.chebyshev", "q_matrix_norm", "chebyshev.bounds"),
    ("msp.run", "run_table", "run.table"),
    ("msp.run", "solve_problem", "run.solve"),
    ("msp.cli", "main", "cli.main"),
)

# (home module, class name, method name, span name)
_METHODS = (
    ("msp.splines", "GeometryMap", "jacobian", "splines.geometry"),
    ("msp.splines", "GeometryMap", "hessians", "splines.geometry"),
    ("msp.splines", "SplineSpace1D", "tabulate", "splines.tabulate"),
)


@dataclass
class Span:
    id: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float = math.nan

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def count_max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), int(value))

    def wrap(self, fn, name: str, after=None):
        """`fn` inside a span; `after(tracer, args, kwargs, result)` records counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(s)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    # -- reductions -----------------------------------------------------

    def total(self, name: str) -> float:
        return sum((s.seconds for s in self.spans if s.name == name), 0.0)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span durations minus their children's."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        out: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s.layer] = out.get(s.layer, 0.0) + t
        return out

    def self_time(self, name: str) -> float:
        """Self time of the spans called `name`."""
        children = Counter()
        for s in self.spans:
            if s.parent >= 0 and self.spans[s.parent].name == name:
                children[s.parent] += s.seconds
        return sum((s.seconds - children[s.id] for s in self.spans if s.name == name), 0.0)

    def dump(self) -> list[list]:
        return [[s.id, s.parent, s.name, s.start, s.end] for s in self.spans]


# -- counters recorded at the layer boundaries ------------------------------


def _space_of(args):
    first = args[0]
    return getattr(first, "volume_space", first)


def _quad_order(space, kwargs) -> int:
    q = kwargs.get("q")
    return q if q is not None else max(f.degree for f in space.factors) + 1


def _count_volume(tracer: Tracer, args, kwargs, _result) -> None:
    space = _space_of(args)
    elements = math.prod(f.num_elements for f in space.factors)
    tracer.counts["assembly.elements"] += elements
    tracer.counts["assembly.quad_points"] += elements * _quad_order(space, kwargs) ** space.d


def _count_boundary(tracer: Tracer, args, kwargs, _result) -> None:
    """Face elements of (0,1)^d: each axis has two faces spanned by the other axes."""
    space = _space_of(args)
    n_el = [f.num_elements for f in space.factors]
    elements = sum(2 * math.prod(n_el[:a] + n_el[a + 1 :]) for a in range(space.d))
    tracer.counts["assembly.elements"] += elements
    tracer.counts["assembly.quad_points"] += elements * _quad_order(space, kwargs) ** (space.d - 1)


def _count_factor(tracer: Tracer, _args, _kwargs, f) -> None:
    """Factor mode and the size of the stored factor array (computed from its shape)."""
    if f.mode == "banded":
        tracer.counts["sparselin.factor_banded"] += 1
        tracer.count_max("sparselin.bandwidth_max", f.data.shape[0] - 1)
        tracer.counts["sparselin.factor_entries"] += f.data.size
    else:
        tracer.counts["sparselin.factor_dense"] += 1
        tracer.counts["sparselin.factor_entries"] += f.data[0].size


def _count_trials(tracer: Tracer, args, kwargs, _result) -> None:
    trials = kwargs["trials"] if "trials" in kwargs else args[1]
    tracer.counts["saddle.trials"] += int(trials)


_AFTER = {
    "assemble_mass": _count_volume,
    "assemble_laplacian_strong": _count_volume,
    "assemble_biharmonic": _count_volume,
    "assemble_rhs_l2": _count_volume,
    "assemble_normal_gram": _count_boundary,
    "assemble_trace_mass": _count_boundary,
    "assemble_normal_coupling": _count_boundary,
    "assemble_rhs_normal_data": _count_boundary,
    "cholesky": _count_factor,
    "verify_sharpness": _count_trials,
}


def _traced_minres(tracer: Tracer, minres, name: str):
    """MINRES span whose operator and preconditioner callables are spans too."""

    @functools.wraps(minres)
    def traced(apply_a, apply_prec_inv, *args, **kwargs):
        s = tracer.open(name)
        try:
            result = minres(
                tracer.wrap(apply_a, "krylov.matvec"),
                tracer.wrap(apply_prec_inv, "krylov.precond"),
                *args,
                **kwargs,
            )
        finally:
            tracer.close(s)
        tracer.counts["krylov.iterations"] += result.iterations
        return result

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Route msp's public functions through `tracer` until the block exits."""
    modules = [importlib.import_module(m) for m in _MODULES]
    undo: list[tuple[object, str, object]] = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for home, fname, span in _FUNCTIONS:
            orig = getattr(importlib.import_module(home), fname)
            if fname == "minres_solve":
                new = _traced_minres(tracer, orig, span)
            else:
                new = tracer.wrap(orig, span, _AFTER.get(fname))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        rebind(mod, attr, new)
        for home, cname, mname, span in _METHODS:
            cls = getattr(importlib.import_module(home), cname)
            rebind(cls, mname, tracer.wrap(vars(cls)[mname], span))
        ops_cls = importlib.import_module("msp.problems").DiscreteOperators
        for attr, prop in list(vars(ops_cls).items()):
            if isinstance(prop, functools.cached_property):
                new = functools.cached_property(tracer.wrap(prop.func, f"problems.ops.{attr}"))
                new.__set_name__(ops_cls, attr)
                rebind(ops_cls, attr, new)
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
