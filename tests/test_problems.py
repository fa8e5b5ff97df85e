"""Optimal-control optimality systems: dimensions, spectra, preconditioners."""

import gc
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from msp import assembly
from msp import problems as pb
from msp import run
from msp.chebyshev import bounds
from msp import saddle, sparselin
from msp.saddle import assemble_full, exact_schur, spectrum
from msp.sparselin import NotPositiveDefinite, SparseSymMatrix, cholesky


def build(problem, **kw):
    if kw.get("d") == 3:
        kw.setdefault("geometry", "twisted_3d")
    return pb.build_problem(pb.ProblemConfig(problem=problem, **kw))


class TestConfig:
    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError):
            pb.ProblemConfig(problem="tracking")

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            pb.ProblemConfig(problem="distributed_strong", d=4)

    def test_nonpositive_alpha_rejected(self):
        for alpha in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha must be positive and finite"):
                pb.ProblemConfig(problem="distributed_strong", alpha=alpha)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            pb.ProblemConfig(problem="distributed_strong", level=-1)

    def test_degree_below_one_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            pb.ProblemConfig(problem="distributed_strong", p=0)

    def test_boundary_control_is_2d_only(self):
        with pytest.raises(ValueError):
            pb.ProblemConfig(problem="boundary_control", d=3)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_default_geometry_matches_dimension(self, d):
        cfg = pb.ProblemConfig("boundary_observation", d=d, level=1)
        assert cfg.geometry == pb.DEFAULT_GEOMETRY[d]
        prob = pb.build_problem(cfg)
        assert prob.ops.geo.d == d

    def test_all_ids_build(self):
        for pid in pb.PROBLEM_IDS:
            prob = build(pid, d=2, p=2, level=2)
            assert prob.total_dim > 0


class TestDimensions:
    # state space dim N = (p + 1 + (2^l - 1)(p - k))^d with k = p - 1; the
    # full very-weak optimality system couples two copies of it [TRIVIAL]
    @pytest.mark.parametrize(
        "d,p,level,total",
        [(2, 2, 3, 264), (2, 2, 4, 904), (2, 2, 5, 3336), (3, 3, 2, 811)],
    )
    def test_very_weak_totals(self, d, p, level, total):
        prob = build("distributed_very_weak", d=d, p=p, level=level)
        assert prob.total_dim == total

    def test_boundary_control_total(self):
        # state copy + boundary control copy (trace space) at l = 3
        prob = build("boundary_control", d=2, p=2, level=3)
        assert prob.total_dim == 204

    def test_three_block_problems_have_interior_last_block(self):
        for pid in ("distributed_strong", "boundary_observation"):
            prob = build(pid, d=2, p=2, level=3)
            assert prob.system.n == 3
            n_int = len(prob.ops.interior)
            assert prob.system.A[2].dim == n_int

    @staticmethod
    def _check_block_dims(d, levels):
        pb.get_operators.cache_clear()
        try:
            for p in (1, 2, 3, 4):
                for level in levels:
                    for pid in pb.PROBLEM_IDS:
                        if pid == "boundary_control" and d != 2:
                            continue
                        cfg = pb.ProblemConfig(pid, d=d, p=p, level=level)
                        assert pb.block_dims(cfg) == pb.build_problem(cfg).system.block_dims, cfg
        finally:
            pb.get_operators.cache_clear()

    @pytest.mark.parametrize("d, levels", [(1, range(5)), (2, range(4)), (3, range(3))], ids=["1d", "2d", "3d"])
    def test_block_dims_are_the_built_orders(self, d, levels):
        # assembled for real where that is cheap: p 1-4 at 1D L0-4, 2D L0-3, 3D L0-2
        self._check_block_dims(d, levels)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_dims_are_the_built_orders_on_the_full_grid(self, monkeypatch, d):
        # p 1-4, L 0-4 (3D p=4 L4 alone assembles for 8 s and 815 MB): every
        # form is stubbed by a matrix of its spaces' orders, which the
        # assembly tests pin, so the builders lay out their blocks without
        # quadrature
        def eye(n):
            return SparseSymMatrix._trusted(scipy.sparse.identity(n, format="csr"))

        def volume_forms(space, geo):
            return eye(space.dim), scipy.sparse.identity(space.dim, format="csr"), eye(space.dim)

        def face_forms(space, geo, names, data_gradient):
            trace = assembly.TraceSpace(space).dim
            made = {
                "normal_gram": eye(space.dim),
                "trace_mass": eye(trace),
                "normal_coupling": scipy.sparse.csr_matrix((trace, space.dim)),
                "rhs_normal_data": np.zeros(space.dim),
            }
            return {name: made[name] for name in names}

        stubs = {
            "assemble_volume_forms": volume_forms,
            "assemble_face_forms": face_forms,
            "assemble_rhs_l2": lambda space, geo, fn: np.zeros(space.dim),
        }
        for name, stub in stubs.items():
            monkeypatch.setattr(assembly, name, stub)
        self._check_block_dims(d, range(5))


class TestSymmetricStorage:
    # the band width and the banded factor read the stored CSR structure, so
    # every symmetric operator is kept canonical, zero-free and exactly symmetric
    @pytest.mark.parametrize("pid", pb.PROBLEM_IDS)
    def test_blocks_are_canonical_and_symmetric(self, pid):
        prob = build(pid, d=2, p=2, level=2, alpha=1e-3)
        mats = [*prob.system.A, *prob.practical.blocks, assemble_full(prob.system)]
        for m in mats:
            c = m.to_csr()
            assert c.has_canonical_format
            assert np.all(c.data != 0)
            assert (c != c.T).nnz == 0

    @pytest.mark.parametrize(
        "pid, alpha",
        [
            ("distributed_very_weak", 1.0),
            ("distributed_very_weak", 1e-300),
            ("boundary_control", 1.0),
            # at 1e-300 B_n / alpha swamps B in its practical last block
            ("boundary_control", 1e-7),
        ],
    )
    def test_two_block_first_block_as_validated(self, pid, alpha):
        # diag(M, alpha X) is wrapped without re-validation; it must equal
        # what the validating constructor stores
        prob = build(pid, d=2, p=2, level=2, alpha=alpha)
        ops = prob.ops
        x = ops.mass if pid == "distributed_very_weak" else ops.trace_mass
        got = prob.system.A[0].to_csr()
        assert got.has_canonical_format
        assert np.all(got.data != 0)
        assert (got != got.T).nnz == 0
        want = SparseSymMatrix(scipy.sparse.block_diag([ops.mass.to_csr(), alpha * x.to_csr()])).to_csr()
        for g, w in zip((got.data, got.indices, got.indptr), (want.data, want.indices, want.indptr)):
            assert g.dtype == w.dtype and np.array_equal(g, w)


class TestOperatorReuse:
    @pytest.mark.parametrize("pid", pb.PROBLEM_IDS)
    def test_apply_matches_assembled_operator(self, pid):
        prob = build(pid, d=2, p=2, level=3, alpha=1e-3)
        x = np.random.default_rng(7).standard_normal(prob.total_dim)
        want = assemble_full(prob.system).to_csr() @ x
        assert np.linalg.norm(prob.system.apply(x) - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("pid", pb.PROBLEM_IDS)
    def test_couplings_shared_between_alphas(self, pid):
        # the couplings do not depend on alpha: built once per operator set
        first = build(pid, d=2, p=2, level=2, alpha=1.0)
        second = build(pid, d=2, p=2, level=2, alpha=1e-3)
        assert first.ops is second.ops
        for b1, b2 in zip(first.system.B, second.system.B, strict=True):
            assert np.shares_memory(b1.data, b2.data)

    @pytest.mark.parametrize("pid", pb.PROBLEM_IDS)
    def test_transposes_shared_between_alphas(self, pid):
        # the builders pass the couplings' transposes cached with them
        first = build(pid, d=2, p=2, level=2, alpha=1.0)
        second = build(pid, d=2, p=2, level=2, alpha=1e-3)
        for b, t1, t2 in zip(first.system.B, first.system._bt, second.system._bt, strict=True):
            assert np.shares_memory(t1.data, t2.data)
            want = b.T.tocsr()
            for g, w in zip((t1.data, t1.indices, t1.indptr), (want.data, want.indices, want.indptr)):
                assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_cache_keeps_only_the_builders_inputs(self, monkeypatch):
        # the full-space K, B, normal Gram and normal coupling are restricted
        # and then freed; M and the trace mass are builder inputs and stay
        volume_forms, face_forms = assembly.assemble_volume_forms, assembly.assemble_face_forms
        refs = {}

        def keep_volume_forms(*args, **kwargs):
            forms = volume_forms(*args, **kwargs)
            refs.update(zip(("M", "K", "B"), map(weakref.ref, forms)))
            return forms

        def keep_face_forms(*args, **kwargs):
            forms = face_forms(*args, **kwargs)
            refs.update((name, weakref.ref(form)) for name, form in forms.items() if name != "rhs_normal_data")
            return forms

        monkeypatch.setattr(assembly, "assemble_volume_forms", keep_volume_forms)
        monkeypatch.setattr(assembly, "assemble_face_forms", keep_face_forms)
        pb.get_operators.cache_clear()
        probs = [build(pid, d=2, p=2, level=3, alpha=1e-3) for pid in pb.PROBLEM_IDS]
        gc.collect()
        assert sorted(refs) == ["B", "K", "M", "normal_coupling", "normal_gram", "trace_mass"]
        assert refs["M"]() is probs[0].ops.mass
        assert refs["trace_mass"]() is probs[0].ops.trace_mass
        for name in ("K", "B", "normal_gram", "normal_coupling"):
            assert refs[name]() is None, f"full {name} still referenced"

    @pytest.mark.parametrize("level", [3, 4])
    def test_normal_coupling_keeps_no_zeros(self, level):
        # the restricted N is the face pass's N on zero-trace columns, bit for
        # bit, less the zeros of the functions whose normal derivative vanishes
        ops = pb.DiscreteOperators(2, 2, level, "annulus_2d")
        kept = ops._face_forms("normal_coupling")[0]
        full = assembly.assemble_normal_coupling(assembly.TraceSpace(ops.space), ops.space, ops.geo)[:, ops.interior]
        assert kept.nnz < full.nnz and np.all(kept.data != 0)
        full.eliminate_zeros()
        for part in ("indptr", "indices", "data"):
            assert getattr(kept, part).tobytes() == getattr(full, part).tobytes()
        assert np.all(ops.trace_coupling.data != 0)

    @pytest.mark.parametrize("pid, d", [("boundary_observation", 2), ("boundary_observation", 3), ("boundary_control", 2)])
    def test_each_face_tabulated_once(self, monkeypatch, pid, d):
        # one face pass makes every face form the builder reads
        face_of = assembly._Tabulation.face_of.__func__
        faces = []

        def counting_face_of(cls, space, axis, side, *args):
            faces.append((axis, side))
            return face_of(cls, space, axis, side, *args)

        monkeypatch.setattr(assembly._Tabulation, "face_of", classmethod(counting_face_of))
        pb.get_operators.cache_clear()
        try:
            build(pid, d=d, p=2, level=2, alpha=1e-3)
        finally:
            pb.get_operators.cache_clear()
        assert sorted(faces) == [(axis, side) for axis in range(d) for side in (0, 1)]

    @pytest.mark.parametrize("pid", pb.PROBLEM_IDS)
    def test_mass_blocks_share_one_factor(self, pid):
        # every practical block built from M holds M's own factor array
        prob = build(pid, d=2, p=2, level=3, alpha=1e-3)
        base = prob.ops.mass_factor.data
        shared = [f for f in prob.practical.factors if f.data is base]
        assert len(shared) == (1 if pid == "boundary_control" else 2)
        for f, blk in zip(prob.practical.factors, prob.practical.blocks):
            if f.data is base:
                assert blk.base is prob.ops.mass.base and f.scale == blk.scale

    @pytest.mark.parametrize("pid", pb.PROBLEM_IDS)
    @pytest.mark.parametrize("alpha", [1.0, 1e-3, 1e-7])
    def test_apply_reuses_the_mass_product(self, pid, alpha):
        # alpha M and the coupling M share one CSR, and the apply agrees
        # with the assembled operator
        prob = build(pid, d=2, p=2, level=3, alpha=alpha)
        if prob.system.n == 3:
            assert prob.system.A[0].base is prob.system.B[0] is prob.ops.mass.base
        x = np.random.default_rng(11).standard_normal(prob.total_dim)
        want = assemble_full(prob.system).matvec(x)
        assert np.linalg.norm(prob.system.apply(x) - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("pid", pb.PROBLEM_IDS)
    @pytest.mark.parametrize("alpha", [1.0, 1e-7])
    def test_scaled_mass_factor_matches_fresh_factors(self, pid, alpha):
        # the M, alpha M and M / alpha blocks reuse one factor of M
        prob = build(pid, d=2, p=2, level=3, alpha=alpha)
        fresh = pb.SchurPreconditioner(prob.practical.blocks)
        r = np.random.default_rng(8).standard_normal(prob.total_dim)
        edges = np.cumsum(fresh.block_dims)[:-1]
        got = np.split(prob.practical.apply_inverse(r), edges)
        want = np.split(fresh.apply_inverse(r), edges)
        for g, w in zip(got, want):
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)


class TestLeadPattern:
    @pytest.mark.parametrize("pid, want", [
        ("distributed_very_weak", [[1.0]]),
        ("boundary_control", [[1.0]]),
        ("distributed_strong", [[1.0, 1.0], [1.0, 0.0]]),
        ("boundary_observation", [[1.0, 1.0], [1.0, 0.0]]),
    ])
    def test_declared_by_the_builder(self, pid, want):
        prob = build(pid, d=2, p=2, level=2, alpha=1e-3)
        assert prob.lead_pattern.tolist() == want

    @pytest.mark.parametrize("variant", ["exact", "practical"])
    @pytest.mark.parametrize("pid", pb.PROBLEM_IDS)
    def test_is_the_lead_of_the_preconditioned_operator(self, pid, variant):
        # entry for entry, against the dense L^-1 A L^-T of the preconditioner's factors
        prob = build(pid, d=2, p=2, level=2, alpha=1e-5)
        pre = pb.make_preconditioner(prob, variant)
        lead = prob.total_dim - prob.system.block_dims[-1]
        w = prob.system.block_dims[0]
        c = saddle._reduced_operator(prob.system, pre)[:lead, :lead]
        assert np.max(np.abs(c - np.kron(prob.lead_pattern, np.eye(w)))) <= 1e-13


class TestExactSchurSpectrum:
    @pytest.mark.parametrize("pid", pb.PROBLEM_IDS)
    @pytest.mark.parametrize("alpha", [1.0, 0.01])
    def test_condition_within_bound(self, pid, alpha):
        prob = build(pid, d=2, p=2, level=3, alpha=alpha)
        precond = pb.exact_schur_precond(prob)
        rep = spectrum(prob.system, precond)
        n = prob.system.n
        assert rep.within_bounds
        assert rep.cond <= bounds(n).cond_bound * (1 + 1e-8)

    def test_two_block_condition_is_sharp_at_golden_bound(self):
        # the very-weak formulation attains the two-block bound (3+sqrt 5)/2
        prob = build("distributed_very_weak", d=2, p=2, level=3)
        rep = spectrum(prob.system, pb.exact_schur_precond(prob))
        assert rep.cond == pytest.approx(bounds(2).cond_bound, rel=1e-6)

    @pytest.mark.parametrize("pid", pb.PROBLEM_IDS)
    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize("alpha", [1.0, 1e-2, 1e-5])
    def test_matches_recursion_from_scratch(self, pid, level, alpha, schur_stages):
        # the practical leading blocks are the exact Schur complements, so
        # reusing their factors changes nothing against the dense recursion from S_1
        prob = build(pid, d=2, p=2, level=level, alpha=alpha)
        merged = pb.exact_schur_precond(prob)
        got = scipy.linalg.block_diag(*[b.to_dense() for b in prob.practical_blocks[:-1]], *schur_stages)
        schur_stages.clear()
        exact_schur(prob.system)
        want = scipy.linalg.block_diag(*schur_stages)
        for s in prob.system.block_slices():
            ref = np.max(np.abs(want[s, s]))
            assert np.max(np.abs(got[s, s] - want[s, s])) <= 1e-12 * ref
        assert merged.blocks is None
        n_lead = len(prob.practical.blocks) - 1
        for i in range(n_lead):
            assert merged.factors[i] is prob.practical.factors[i]

    def test_level_cap_enforced(self):
        prob = build("distributed_very_weak", d=2, p=2, level=6)
        with pytest.raises(ValueError):
            pb.exact_schur_precond(prob)


# (d, p, level) of the meshes the Gram form is checked on; 3D p=3 L2 has a dense mass factor
GRAM_MESHES = [(1, 2, 3), (2, 2, 2), (2, 2, 3), (3, 3, 2)]
GRAM_CACHES = ("laplacian_gram", "normal_trace_gram")


def _gram_cases():
    for d, p, level in GRAM_MESHES:
        for pid in pb.PROBLEM_IDS:
            if pid != "boundary_control" or d == 2:
                yield pid, d, p, level


class TestExactSchurGramForm:
    @pytest.mark.parametrize("alpha", [1.0, 1e-2, 1e-5])
    @pytest.mark.parametrize("pid, d, p, level", list(_gram_cases()))
    def test_last_stage_matches_the_recursion(self, pid, d, p, level, alpha, schur_stages):
        # S_n from the cached alpha-free pieces against the dense recursion from S_1
        prob = build(pid, d=d, p=p, level=level, alpha=alpha)
        pb.exact_schur_precond(prob)
        exact_schur(prob.system)
        got, want = schur_stages[0], schur_stages[-1]
        assert len(schur_stages) == 1 + prob.system.n
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_dense_mass_factor_mesh_is_covered(self):
        assert pb.get_operators(3, 3, 2, "twisted_3d").mass_factor.mode == "dense"
        assert pb.get_operators(2, 2, 3, "annulus_2d").mass_factor.mode == "banded"

    @pytest.mark.parametrize("pid", pb.PROBLEM_IDS)
    def test_practical_table_builds_no_gram_cache(self, pid):
        pb.get_operators.cache_clear()
        run.run_table(pid, 2, 2, [2], list(pb.DEFAULT_ALPHAS), "practical", None)
        ops = pb.get_operators(2, 2, 2, "annulus_2d")
        assert not set(GRAM_CACHES) & set(vars(ops))

    def test_each_cache_built_once_per_mesh(self, monkeypatch):
        calls = []
        inverse_gram = pb.inverse_gram

        def counted(f, b):
            calls.append(b.shape)
            return inverse_gram(f, b)

        monkeypatch.setattr(pb, "inverse_gram", counted)
        pb.get_operators.cache_clear()
        for pid in pb.PROBLEM_IDS:
            for alpha in pb.DEFAULT_ALPHAS:
                pb.exact_schur_precond(build(pid, d=2, p=2, level=2, alpha=alpha))
        ops = pb.get_operators(2, 2, 2, "annulus_2d")
        assert calls == [ops.laplacian_int.shape, (ops.trace_mass.dim, len(ops.interior))]
        assert set(GRAM_CACHES) <= set(vars(ops))

    @pytest.mark.parametrize("variant", ["exact_schur", "practical"])
    def test_one_factor_per_cell_on_warm_operators(self, monkeypatch, variant):
        # an exact cell factors only its dense S_n, a practical one only its
        # last block: no unused practical factor, no per-alpha factor of M_d
        for pid in pb.PROBLEM_IDS:
            warm = build(pid, d=2, p=2, level=2, alpha=0.5)
            pb.exact_schur_precond(warm)
        calls = []

        def counted(m):
            f = cholesky(m)
            calls.append(f.dim)
            return f

        for mod in (pb, saddle, sparselin):
            monkeypatch.setattr(mod, "cholesky", counted)
        for pid in pb.PROBLEM_IDS:
            calls.clear()
            run._table_cell(pb.ProblemConfig(pid, d=2, p=2, level=2, alpha=1e-3), variant, 1e-8, 500)
            assert calls == [warm.ops.laplacian_gram.shape[0]], pid

    def test_trace_mass_factored_once_per_mesh(self):
        first = build("boundary_control", d=2, p=2, level=2, alpha=1.0)
        second = build("boundary_control", d=2, p=2, level=2, alpha=1e-3)
        f1, f2 = first.practical.factors[1], second.practical.factors[1]
        assert f1.data is f2.data is first.ops.trace_mass_factor.data
        assert (f1.scale, f2.scale) == (1.0, 1e-3)

    @pytest.mark.parametrize("pid", pb.PROBLEM_IDS)
    @pytest.mark.parametrize("level", [4, 5])
    def test_peak_memory_is_one_stage(self, pid, level):
        # on warm caches: the stage, which dpotrf factors in place, and small
        # temporaries (M_int / alpha is scattered from its stored CSR, with no
        # scaled or COO copy); a copy of the stage anywhere would pass 2 x 8 m^2
        prob = build(pid, d=2, p=2, level=level, alpha=1e-2)
        pb.exact_schur_precond(prob)
        m = prob.system.block_dims[-1]
        tracemalloc.start()
        try:
            pb.exact_schur_precond(prob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 8 * m * m

    def test_warm_preconditioner_keeps_only_factors(self, monkeypatch):
        # the dense S_n is factored in its own buffer: the preconditioner
        # holds that factor, one stage-sized array, and no block matrix
        prob = build("boundary_observation", d=2, p=2, level=4, alpha=1e-2)
        pb.exact_schur_precond(prob)
        m = prob.system.block_dims[-1]
        stages = []
        factor_stage = saddle.factor_stage

        def tracked(i, s):
            stages.append(weakref.ref(s))
            return factor_stage(i, s)

        monkeypatch.setattr(pb, "factor_stage", tracked)
        tracemalloc.start()
        try:
            pre = pb.exact_schur_precond(prob)
            grown, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grown < 1.5 * 8 * m * m
        assert len(stages) == 1 and np.shares_memory(stages[0](), pre.factors[-1].data[0])
        assert pre.blocks is None
        assert pre.block_dims == [f.dim for f in pre.factors] == [b.dim for b in prob.practical_blocks]
        again = saddle.SchurPreconditioner(factors=pre.factors)
        assert again.blocks is None and again.block_dims == pre.block_dims

    def test_refused_before_any_cache_is_built(self):
        prob = build("distributed_very_weak", d=2, p=2, level=6)
        with pytest.raises(ValueError, match=r"S_2 has order 4096.*practical"):
            pb.exact_schur_precond(prob)
        assert not set(GRAM_CACHES) & set(vars(prob.ops))

    def test_indefinite_stage_named(self, monkeypatch):
        prob = build("boundary_observation", d=2, p=2, level=2, alpha=1.0)
        monkeypatch.setitem(vars(prob.ops), "laplacian_gram", -2.0 * prob.ops.laplacian_gram)
        with pytest.raises(NotPositiveDefinite, match="Schur complement S_3 is not SPD"):
            pb.exact_schur_precond(prob)


class TestPracticalPreconditioner:
    @pytest.mark.parametrize("pid", pb.PROBLEM_IDS)
    @pytest.mark.parametrize("alpha", [1.0, 1e-5])
    def test_blocks_are_spd(self, pid, alpha):
        prob = build(pid, d=2, p=2, level=3, alpha=alpha)
        for blk in prob.practical.blocks:
            cholesky(blk)  # raises NotPositiveDefinite on failure

    def test_block_dims_cover_system(self):
        # preconditioner blocks may subdivide a merged system block, but the
        # total dimension and ordering must line up
        for pid in pb.PROBLEM_IDS:
            prob = build(pid, d=2, p=2, level=3)
            assert sum(b.dim for b in prob.practical.blocks) == prob.total_dim
            assert prob.practical.blocks[-1].dim == prob.system.A[-1].dim

    def test_practical_spectrum_bounded(self):
        # inexact Schur blocks lose sharpness but stay within a modest factor
        prob = build("distributed_strong", d=2, p=2, level=3, alpha=0.01)
        rep = spectrum(prob.system, prob.practical)
        assert rep.cond < 2.0 * bounds(3).cond_bound


class TestRightHandSide:
    def test_deterministic(self):
        a = build("boundary_observation", d=2, p=2, level=3)
        b = build("boundary_observation", d=2, p=2, level=3)
        assert np.array_equal(a.rhs, b.rhs)

    def test_nonzero_and_finite(self):
        for pid in pb.PROBLEM_IDS:
            prob = build(pid, d=2, p=2, level=3)
            assert np.all(np.isfinite(prob.rhs))
            assert np.linalg.norm(prob.rhs) > 0

    def test_rhs_length_matches_system(self):
        for pid in pb.PROBLEM_IDS:
            prob = build(pid, d=2, p=2, level=3)
            assert prob.rhs.shape == (prob.total_dim,)


class TestSolve:
    def test_exact_and_practical_agree_on_solution(self):
        prob = build("distributed_very_weak", d=2, p=2, level=3, alpha=0.1)
        x1 = run.solve_problem(prob, pb.exact_schur_precond(prob)).solution
        x2 = run.solve_problem(prob, prob.practical).solution
        scale = np.linalg.norm(x1)
        assert np.linalg.norm(x1 - x2) / scale < 1e-6

    def test_solution_satisfies_system(self):
        from msp.saddle import assemble_full

        prob = build("distributed_strong", d=2, p=2, level=3, alpha=0.01)
        res = run.solve_problem(prob, prob.practical)
        assert res.converged
        full = assemble_full(prob.system).to_csr()
        rel = np.linalg.norm(prob.rhs - full @ res.solution) / np.linalg.norm(prob.rhs)
        assert rel < 1e-7


class TestIterationPins:
    # Exact MINRES counts over DEFAULT_ALPHAS.  The acceptance gates allow a
    # few iterations of slack; these pins catch a drift of one, such as a
    # rounding-level change in the assembly can cause.
    @pytest.mark.parametrize(
        "problem,d,p,level,variant,geometry,counts",
        [
            ("boundary_observation", 2, 2, 3, "practical", None, [24, 38, 43, 36, 23, 20]),
            ("boundary_observation", 3, 3, 2, "practical", "twisted_3d", [26, 36, 40, 30, 20, 17]),
            ("boundary_observation", 2, 2, 3, "exact_schur", None, [21, 37, 36, 25, 9, 5]),
            ("distributed_very_weak", 2, 2, 3, "practical", None, [19, 19, 19, 19, 17, 11]),
            ("boundary_control", 2, 2, 3, "practical", None, [19, 19, 19, 19, 21, 21]),
        ],
    )
    def test_run_table_counts(self, problem, d, p, level, variant, geometry, counts):
        cells = run.run_table(problem, d, p, [level], list(pb.DEFAULT_ALPHAS), variant, geometry)
        assert [c.iterations for c in cells] == counts
        assert all(c.converged for c in cells)


class TestPlan:
    def test_unknown_variant_refused_before_any_build(self, monkeypatch):
        def fail(cfg):
            raise AssertionError(f"built {cfg}")

        monkeypatch.setattr(run, "build_problem", fail)
        with pytest.raises(ValueError, match="^unknown preconditioner variant 'exact-schur'$"):
            run.run_table("boundary_observation", 2, 2, [2], [1.0], "exact-schur", None)

    def test_make_preconditioner_refuses_an_unknown_variant(self):
        prob = pb.build_problem(pb.ProblemConfig("distributed_strong", d=1, level=2))
        with pytest.raises(ValueError, match="^unknown preconditioner variant 'exact-schur'$"):
            pb.make_preconditioner(prob, "exact-schur")


class TestTableMemory:
    @pytest.mark.parametrize("variant", ["practical", "exact_schur"])
    def test_run_table_holds_one_cell_and_the_next(self, monkeypatch, variant):
        # each cell's problem, preconditioner and solution are dropped before
        # the next cell's preconditioner is made.  The next cell of the same
        # level is built (and its last block factored) while this one solves,
        # so its build finds this cell alive, but none before it; the first
        # cell of a level is built after the last one's is dropped (no
        # gc.collect, so a reference cycle would fail this too)
        refs, alive_at_build = [], []
        build, make = run.build_problem, run.make_preconditioner

        def checked_build(cfg):
            alive = [r() is not None for r in refs]
            assert not any(alive[:-1]), "a cell before the current one is still alive"
            alive_at_build.append(any(alive))
            return build(cfg)

        def recorded_make(prob, name, last=None):
            assert all(r() is None for r in refs), "an earlier cell is still alive"
            precond = make(prob, name, last)
            refs.append(weakref.ref(precond))
            return precond

        monkeypatch.setattr(run, "build_problem", checked_build)
        monkeypatch.setattr(run, "make_preconditioner", recorded_make)
        cells = run.run_table("boundary_observation", 2, 2, [2, 3], [1.0, 1e-3, 1e-5], variant, None)
        assert len(cells) == len(refs) == 6
        assert alive_at_build == [False, True, True] * 2
        assert all(r() is None for r in refs)


class InjectedFault(Exception):
    """The failure of a build that `fault_at` injects."""


def _spoil(prob, fault):
    """Spoil the last block of both preconditioners of a three-block problem, A_3 + alpha B and S_3 = A_3 + alpha G:
    negate it ("indefinite": LAPACK fails) or make it infinite ("non-finite": refused before LAPACK is called)."""
    practical_scale, exact_scale = (-1.0, -1e6) if fault == "indefinite" else (np.inf, np.inf)
    prob.practical_blocks[-1] = prob.practical_blocks[-1].scaled(practical_scale)
    prob.system.A[-1] = prob.system.A[-1].scaled(exact_scale)
    return prob


def fault_at(monkeypatch, level, alpha, fault):
    """Make `run`'s build of the cell (level, alpha) fail or spoil its last block (`_spoil`); the cells solved."""
    build, solve = run.build_problem, run.solve_problem
    solved = []

    def hooked_build(cfg):
        if (cfg.level, cfg.alpha) != (level, alpha):
            return build(cfg)
        if fault == "build":
            raise InjectedFault(f"build of level {level}, alpha {alpha:g}")
        return _spoil(build(cfg), fault)

    def counted_solve(prob, *args, **kwargs):
        solved.append((prob.config.level, prob.config.alpha))
        return solve(prob, *args, **kwargs)

    monkeypatch.setattr(run, "build_problem", hooked_build)
    monkeypatch.setattr(run, "solve_problem", counted_solve)
    return solved


def sequential_cells(problem, d, p, levels, alphas, variant, geometry):
    """A table's cells and solutions, one cell after another through the public steps: the pipeline's oracle."""
    out = []
    for level in levels:
        for alpha in alphas:
            prob = pb.build_problem(pb.ProblemConfig(problem, d, p, level, alpha, geometry))
            res = run.solve_problem(prob, pb.make_preconditioner(prob, variant))
            out.append(
                (level, alpha, prob.total_dim, res.iterations, res.converged, res.residual_history, res.solution)
            )
    return out


class TestPipelinedTable:
    # while a cell solves, the next cell of its level has its last block
    # factored on a worker thread; nothing computed may move
    @pytest.mark.parametrize(
        "problem, d, p, levels, alphas, variant, geometry",
        [
            ("boundary_observation", 2, 2, [3], list(pb.DEFAULT_ALPHAS), "practical", None),
            ("boundary_observation", 2, 2, [3], list(pb.DEFAULT_ALPHAS), "exact_schur", None),
            ("distributed_very_weak", 2, 2, [2, 3], [1.0, 1e-3, 1e-7], "practical", None),
            ("boundary_control", 2, 2, [2, 3], [1.0, 1e-3, 1e-7], "exact_schur", None),
            ("distributed_strong", 3, 3, [2], [1e-2, 1e-5], "practical", "twisted_3d"),
            ("boundary_observation", 2, 2, [3], [1e-3], "practical", None),
        ],
        ids=["practical", "exact", "practical-two-levels", "exact-two-levels", "3d", "one-cell"],
    )
    def test_cells_are_bitwise_the_sequential_ones(self, monkeypatch, problem, d, p, levels, alphas, variant, geometry):
        want = sequential_cells(problem, d, p, levels, alphas, variant, geometry)
        solutions, started = [], []
        solve, ahead = run.solve_problem, run.cholesky_ahead

        def capturing_solve(*args, **kwargs):
            res = solve(*args, **kwargs)
            solutions.append(res.solution)
            return res

        def counted_ahead(m, pool):
            started.append(type(m).__name__)
            return ahead(m, pool)

        monkeypatch.setattr(run, "solve_problem", capturing_solve)
        monkeypatch.setattr(run, "cholesky_ahead", counted_ahead)
        cells = run.run_table(problem, d, p, levels, alphas, variant, geometry)
        got = [
            (c.level, c.alpha, c.dof, c.iterations, c.converged, c.residual_history, x)
            for c, x in zip(cells, solutions, strict=True)
        ]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[:6] == w[:6]
            assert g[6].tobytes() == w[6].tobytes()
        # every cell but the first of each level had its last block started ahead
        kind = "SparseSymMatrix" if variant == "practical" else "ndarray"
        assert started == [kind] * (len(levels) * (len(alphas) - 1))

    @pytest.mark.parametrize("variant", ["practical", "exact_schur"])
    @pytest.mark.parametrize("fault", ["indefinite", "non-finite", "build"])
    @pytest.mark.parametrize("level, alpha", [(2, 1e-3), (2, 1.0), (3, 1.0), (3, 1e-5)])
    def test_a_failing_cell_raises_in_its_own_turn(self, monkeypatch, variant, fault, level, alpha):
        # a cell started ahead (alpha 1e-3 and 1e-5) fails as one built in
        # turn (the first of its level): after the cells before it are solved,
        # with the exception of the sequential run
        cfg = pb.ProblemConfig("boundary_observation", d=2, p=2, level=level, alpha=alpha)
        want = {
            "indefinite": (NotPositiveDefinite, "block 3" if variant == "practical" else "Schur complement S_3"),
            "non-finite": (ValueError, "array must not contain infs or NaNs"),
            "build": (InjectedFault, f"build of level {level}, alpha {alpha:g}"),
        }[fault]
        if fault != "build":
            with pytest.raises(want[0]) as sequential:
                pb.make_preconditioner(_spoil(pb.build_problem(cfg), fault), variant)
            assert str(sequential.value).startswith(want[1])
            want = (want[0], str(sequential.value))
        solved = fault_at(monkeypatch, level, alpha, fault)
        threads = threading.active_count()
        with pytest.raises(want[0]) as pipelined:
            run.run_table("boundary_observation", 2, 2, [2, 3], [1.0, 1e-3, 1e-5], variant, None)
        assert str(pipelined.value) == want[1]
        cells = [(lv, a) for lv in (2, 3) for a in (1.0, 1e-3, 1e-5)]
        assert solved == cells[: cells.index((level, alpha))]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("alphas", [[1.0], [1.0, 1e-3, 1e-5]])
    def test_no_thread_outlives_the_table(self, alphas):
        threads = threading.active_count()
        run.run_table("distributed_strong", 2, 2, [2, 3], alphas, "practical", None)
        assert threading.active_count() == threads
