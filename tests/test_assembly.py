"""Galerkin assembly: analytic oracles, integration identities, boundary forms."""

import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse

from msp import assembly as asm
from msp import splines as sp
from msp.problems import DEFAULT_GEOMETRY, DiscreteOperators
from msp.sparselin import SparseSymMatrix


def face_chunks(space, geo, q, max_deriv):
    """The chunks of all faces of `space`, face by face."""
    for axis, side in asm.TraceSpace(space).faces:
        yield from asm._Tabulation.face_of(space, axis, side, q, max_deriv).chunks(geo)


def assemble_boundary_mass(space, geo, q=None):
    """Boundary mass M_d[i, j] = surface integral of phi_i phi_j over the boundary."""
    q = q or asm._default_q(space)
    faces = [
        asm._assemble(
            asm._Tabulation.face_of(space, axis, side, q, 0), geo, 0, 0,
            lambda ch: (ch.integrate(v, v) for v in [ch.basis(0)]),
        )[0]
        for axis, side in asm.TraceSpace(space).faces
    ]
    return asm._symmetric(sum(faces[1:], faces[0]))


def boundary_measure(space, geo, q=8):
    """Total surface measure of the mapped boundary."""
    return float(sum(np.sum(ch.dx) for ch in face_chunks(space, geo, q, 0)))


def domain_measure(space, geo, q=8):
    """Volume of the mapped domain."""
    return float(sum(np.sum(ch.dx) for ch in asm._Tabulation.volume([space], q, 0).chunks(geo)))


def space_1d(p, level, smoothness=None):
    return sp.TensorSpace([sp.SplineSpace1D(p, level, smoothness=smoothness)])


def reference_laplacian(ch, s):
    """Reference: the physical Laplacian with one full tensor-product table per derivative order."""
    g = ch.jinv @ np.swapaxes(ch.jinv, -1, -2)
    v = np.einsum("nqjk,nqk->nqj", ch.jinv, np.einsum("nqkrs,nqrs->nqk", ch.hess, g))
    lap = np.zeros(ch.dx.shape + (ch.active(s).shape[1],))
    for i in range(ch.d):
        for j in range(i, ch.d):
            c = g[..., i, j] if i == j else 2.0 * g[..., i, j]
            lap += c[..., None] * ch.basis(s, ch._orders(i, j))
        lap -= v[..., i, None] * ch.basis(s, ch._orders(i))
    return lap


def reference_normal_derivative(ch, s):
    """Reference: the outward normal derivative with one full table per axis."""
    v = np.einsum("nqji,nqi->nqj", ch.jinv, ch.normal)
    return sum(v[..., j, None] * ch.basis(s, ch._orders(j)) for j in range(ch.d))


def _close(got, want, bitwise):
    if bitwise:
        return np.array_equal(got, want)
    return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestMass:
    def test_hat_mass_analytic(self):
        # p = 1, 4 elements on the unit interval: the classic FEM mass matrix
        ts = space_1d(1, 2)
        m = asm.assemble_mass(ts, sp.identity_geometry(1)).to_dense()
        h = 0.25
        ref = np.zeros((5, 5))
        for i in range(5):
            ref[i, i] = 2 * h / 3 if 0 < i < 4 else h / 3
            if i < 4:
                ref[i, i + 1] = ref[i + 1, i] = h / 6
        assert np.allclose(m, ref, atol=1e-14)

    def test_row_sums_give_measure(self):
        # sum_ij M_ij = integral of 1 = |Omega| by partition of unity
        for d, geo in ((2, sp.identity_geometry(2)), (2, sp.annulus_2d())):
            ts = sp.tensor_space(d, 2, 2)
            m = asm.assemble_mass(ts, geo).to_dense()
            assert m.sum() == pytest.approx(domain_measure(ts, geo), abs=1e-10)

    def test_spd(self):
        ts = sp.tensor_space(2, 2, 2)
        m = asm.assemble_mass(ts, sp.annulus_2d()).to_dense()
        ev = np.linalg.eigvalsh(m)
        assert ev[0] > 0


class TestQuadratureOrder:
    def test_default_rule_matches_refined_rule(self):
        # the default q = p+1 rule integrates the identity-geometry mass exactly;
        # compare against an over-resolved oracle rule
        for p in (2, 3):
            ts = sp.tensor_space(2, p, 1)
            geo = sp.identity_geometry(2)
            m1 = asm.assemble_mass(ts, geo).to_dense()
            m2 = asm.assemble_mass(ts, geo, q=p + 4).to_dense()
            rel = np.max(np.abs(m1 - m2)) / np.max(np.abs(m2))
            assert rel < 1e-11


class TestIntegrationByParts:
    @pytest.mark.parametrize(
        "d,geo_name",
        [(1, "identity"), (2, "identity"), (2, "annulus_2d"), (3, "twisted_3d")],
    )
    def test_strong_laplacian_vs_stiffness(self, d, geo_name):
        # <K u, w> = (grad u, grad w) when the test side has zero trace
        level = 1 if d == 3 else 2
        p = 3 if d == 3 else 2
        ts = sp.tensor_space(d, p, level)
        geo = sp.GEOMETRIES[geo_name](d)
        # rational mapped-geometry integrands converge with the quadrature
        # order; q = 8 (2D) / 14 (3D) brings the mismatch under the tolerance
        q = p + 1 if geo_name == "identity" else (8 if d == 2 else 14)
        k = np.asarray(asm.assemble_laplacian_strong(ts, ts, geo, q=q).todense())
        s = asm.assemble_stiffness(ts, geo, q=q).to_dense()
        idx = ts.interior_indices()
        lhs = k[np.ix_(idx, idx)]
        rhs = s[np.ix_(idx, idx)]
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-9

    def test_divergence_theorem(self):
        # integral of Lap u over Omega equals the boundary integral of dn(u)
        ts = sp.tensor_space(2, 2, 2)
        geo = sp.annulus_2d()
        u = np.random.default_rng(0).standard_normal(ts.dim)
        ones = np.ones(ts.dim)  # the constant function, by partition of unity
        k = np.asarray(asm.assemble_laplacian_strong(ts, ts, geo, q=8).todense())
        vol = -(ones @ k @ u)
        tr = asm.TraceSpace(ts)
        n = np.asarray(asm.assemble_normal_coupling(tr, ts, geo, q=8).todense())
        surf = np.ones(tr.dim) @ n @ u
        assert vol == pytest.approx(surf, abs=1e-7)


class TestDiscreteSchurIdentity:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("level", [2, 3])
    def test_1d_reduced_smoothness_test_space(self, p, level):
        # K' M^{-1} K = B when the Laplacian image space is contained in the
        # test space: 1D, identity geometry, test smoothness lowered by two
        u_space = space_1d(p, level)
        w_space = space_1d(p, level, smoothness=p - 3)
        geo = sp.identity_geometry(1)
        q = p + 2
        k = np.asarray(asm.assemble_laplacian_strong(u_space, w_space, geo, q=q).todense())
        m = asm.assemble_mass(w_space, geo, q=q).to_dense()
        b = asm.assemble_biharmonic(u_space, geo, q=q).to_dense()
        lhs = k.T @ np.linalg.solve(m, k)
        assert np.linalg.norm(lhs - b) / np.linalg.norm(b) < 1e-10


class TestBoundaryForms:
    def test_boundary_measures(self):
        sq = sp.tensor_space(2, 2, 2)
        assert boundary_measure(sq, sp.identity_geometry(2)) == pytest.approx(4.0, abs=1e-12)
        cube = sp.tensor_space(3, 2, 1)
        assert boundary_measure(cube, sp.identity_geometry(3)) == pytest.approx(6.0, abs=1e-12)
        line = sp.tensor_space(1, 2, 2)
        assert boundary_measure(line, sp.identity_geometry(1)) == pytest.approx(2.0, abs=1e-12)

    def test_domain_measures(self):
        sq = sp.tensor_space(2, 2, 2)
        assert domain_measure(sq, sp.identity_geometry(2)) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_mass_total(self):
        # all-ones vector reproduces the perimeter through the partition of unity
        ts = sp.tensor_space(2, 2, 2)
        geo = sp.annulus_2d()
        mb = assemble_boundary_mass(ts, geo, q=6).to_dense()
        ones = np.ones(ts.dim)
        assert ones @ mb @ ones == pytest.approx(boundary_measure(ts, geo), abs=1e-8)

    def test_boundary_mass_interior_rows_vanish(self):
        ts = sp.tensor_space(2, 2, 2)
        mb = assemble_boundary_mass(ts, sp.identity_geometry(2)).to_dense()
        idx = ts.interior_indices()
        assert np.max(np.abs(mb[idx, :])) < 1e-14

    def test_trace_mass_total(self):
        ts = sp.tensor_space(2, 2, 2)
        geo = sp.annulus_2d()
        tr = asm.TraceSpace(ts)
        mt = asm.assemble_trace_mass(tr, geo, q=6).to_dense()
        ones = np.ones(tr.dim)
        assert ones @ mt @ ones == pytest.approx(boundary_measure(ts, geo), abs=1e-8)

    def test_normal_gram_linear_function(self):
        # u(x, y) = x has dn(u) = n_1; the Gram form gives the integral of n_1^2
        ts = sp.tensor_space(2, 1, 2)
        geo = sp.identity_geometry(2)
        kd = asm.assemble_normal_gram(ts, geo).to_dense()
        # coefficients of u = x in the hat basis are the Greville points
        xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        u = np.kron(xs, np.ones(5))
        # on the unit square n_1^2 = 1 on the two vertical faces (length 2)
        assert u @ kd @ u == pytest.approx(2.0, abs=1e-12)

    def test_normal_coupling_constant_field(self):
        # dn of a constant vanishes, so N annihilates the all-ones coefficient vector
        ts = sp.tensor_space(2, 2, 2)
        tr = asm.TraceSpace(ts)
        n = np.asarray(asm.assemble_normal_coupling(tr, ts, sp.annulus_2d()).todense())
        assert np.max(np.abs(n @ np.ones(ts.dim))) < 1e-12

    def test_rhs_normal_data_linear(self):
        # data field g = x1 with gradient e1: rhs[i] = surface integral dn(phi_i) n_1
        ts = sp.tensor_space(2, 1, 2)
        geo = sp.identity_geometry(2)
        rhs = asm.assemble_rhs_normal_data(ts, geo, lambda x: np.tile([1.0, 0.0], (len(x), 1)))
        xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        u = np.kron(xs, np.ones(5))
        assert u @ rhs == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_geometry_detected(self):
        # a map that folds (negative Jacobian determinant) must be rejected
        comp_x = np.array([[0.0, 0.0], [-1.0, 0.0]])  # x = -xi1
        comp_y = np.array([[0.0, 1.0], [0.0, 0.0]])  # y = xi2
        geo = sp.GeometryMap([comp_x, comp_y])
        ts = sp.tensor_space(2, 1, 1)
        with pytest.raises(asm.DegenerateGeometry):
            asm.assemble_mass(ts, geo)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("level", range(6))
    def test_1d_boundary_forms(self, p, level):
        # on (0,1) the boundary is two points with outward normals -1 and +1;
        # the end basis functions have slopes -+s there, s = p / h
        ts = space_1d(p, level)
        geo = sp.identity_geometry(1)
        s = p * 2.0**level
        v_l, v_r, e_0, e_n = (np.zeros(ts.dim) for _ in range(4))
        v_l[:2] = s, -s
        v_r[-2:] = -s, s
        e_0[0] = e_n[-1] = 1.0
        kd = asm.assemble_normal_gram(ts, geo).to_dense()
        assert np.max(np.abs(kd - np.outer(v_l, v_l) - np.outer(v_r, v_r))) <= 1e-13 * s**2
        mb = assemble_boundary_mass(ts, geo).to_dense()
        assert np.max(np.abs(mb - np.outer(e_0, e_0) - np.outer(e_n, e_n))) <= 1e-13
        # g = 3x: the normal data is -3 at x = 0 and +3 at x = 1
        rhs = asm.assemble_rhs_normal_data(ts, geo, lambda x: np.full_like(x, 3.0))
        assert np.max(np.abs(rhs - (3 * v_r - 3 * v_l))) <= 1e-13 * s

    @pytest.mark.parametrize("chunk_bytes", [1, 2**62])
    @pytest.mark.parametrize("form", ["mass", "normal_gram", "trace_mass"])
    def test_partial_fold_detected(self, monkeypatch, chunk_bytes, form):
        # x = xi1 - 2 xi1^2 folds only for xi1 > 1/4: with one element per
        # chunk the first chunks are regular and the fold comes later
        monkeypatch.setattr(asm, "_CHUNK_BYTES", chunk_bytes)
        comp_x = np.array([[0.0], [1.0], [-2.0]])
        comp_y = np.array([[0.0, 1.0]])
        geo = sp.GeometryMap([comp_x, comp_y])
        ts = sp.tensor_space(2, 2, 2)
        assemble = {
            "mass": lambda: asm.assemble_mass(ts, geo),
            "normal_gram": lambda: asm.assemble_normal_gram(ts, geo),
            "trace_mass": lambda: asm.assemble_trace_mass(asm.TraceSpace(ts), geo),
        }[form]
        with pytest.raises(asm.DegenerateGeometry):
            assemble()


def _dense(m):
    if isinstance(m, np.ndarray):
        return m
    return m.to_dense() if hasattr(m, "to_dense") else m.toarray()


def _data_gradient(x):
    return np.cos(x) + x[:, ::-1] ** 2


# every public assembler on one space, with tr its trace space, and each
# form of the shared face pass that makes all face forms at once
_FORMS = {
    "mass": lambda ts, tr, geo: asm.assemble_mass(ts, geo),
    "laplacian": lambda ts, tr, geo: asm.assemble_laplacian_strong(ts, ts, geo),
    "biharmonic": lambda ts, tr, geo: asm.assemble_biharmonic(ts, geo),
    "stiffness": lambda ts, tr, geo: asm.assemble_stiffness(ts, geo),
    "boundary_mass": lambda ts, tr, geo: assemble_boundary_mass(ts, geo),
    "normal_gram": lambda ts, tr, geo: asm.assemble_normal_gram(ts, geo),
    "trace_mass": lambda ts, tr, geo: asm.assemble_trace_mass(tr, geo),
    "normal_coupling": lambda ts, tr, geo: asm.assemble_normal_coupling(tr, ts, geo),
    "rhs_normal_data": lambda ts, tr, geo: asm.assemble_rhs_normal_data(ts, geo, _data_gradient),
    "rhs_l2": lambda ts, tr, geo: asm.assemble_rhs_l2(ts, geo, lambda x: np.sin(3 * x[:, 0]) + x[:, -1]),
    **{
        f"face_pass.{name}": lambda ts, tr, geo, name=name: asm.assemble_face_forms(
            ts, geo, asm.FACE_FORMS, _data_gradient
        )[name]
        for name in asm.FACE_FORMS
    },
}


def _all_forms(ts, geo):
    """Every public assembler on one space, as dense arrays."""
    tr = asm.TraceSpace(ts)
    return {name: _dense(build(ts, tr, geo)) for name, build in _FORMS.items()}


class TestFacePass:
    @pytest.mark.parametrize(
        "d,p,level,geo_name", [(1, 2, 3, "identity"), (2, 2, 3, "annulus_2d"), (3, 3, 2, "twisted_3d")]
    )
    def test_shared_pass_is_bitwise_the_standalone_assemblers(self, d, p, level, geo_name):
        # the forms that share one pass share its tables, and each still has
        # the element blocks and sums of its own assembler
        ts = sp.tensor_space(d, p, level)
        geo = sp.GEOMETRIES[geo_name](d)
        tr = asm.TraceSpace(ts)
        for name in asm.FACE_FORMS:
            got, want = _FORMS[f"face_pass.{name}"](ts, tr, geo), _FORMS[name](ts, tr, geo)
            if isinstance(want, np.ndarray):
                assert got.tobytes() == want.tobytes(), name
            else:
                _assert_same_csr(_csr(got), _csr(want))

    @pytest.mark.parametrize(
        "d,p,level,smoothness,geo_name",
        [
            (1, 2, 3, None, "identity"),
            (1, 3, 2, 0, "identity"),
            (2, 1, 2, None, "annulus_2d"),
            (2, 2, 3, None, "annulus_2d"),
            (2, 3, 2, 1, "annulus_2d"),
            (2, 4, 2, -1, "annulus_2d"),
            (3, 2, 2, None, "twisted_3d"),
            (3, 3, 2, None, "twisted_3d"),
        ],
    )
    def test_trimmed_gram_drops_only_zeros(self, d, p, level, smoothness, geo_name):
        # the Gram integrates over the functions whose normal derivative need
        # not vanish on each face; over all of them the face blocks only add
        # explicit zeros, which the symmetric wrap drops
        ts = sp.TensorSpace([sp.SplineSpace1D(p, level, smoothness) for _ in range(d)])
        geo = sp.GEOMETRIES[geo_name](d)
        faces = [
            asm._assemble(
                asm._Tabulation.face_of(ts, axis, side, p + 1, 1), geo, 0, 0,
                lambda ch: (ch.integrate(v, v) for v in [ch.normal_derivative(0)]),
            )[0]
            for axis, side in asm.TraceSpace(ts).faces
        ]
        want = asm._symmetric(sum(faces[1:], faces[0])).to_csr()
        _assert_same_csr(asm.assemble_normal_gram(ts, geo).to_csr(), want)

    def test_unknown_form_refused(self):
        with pytest.raises(ValueError, match="unknown face forms"):
            asm.assemble_face_forms(sp.tensor_space(2, 2, 1), sp.annulus_2d(), ["boundary_mass"])


def _csr(m):
    return m.to_csr() if hasattr(m, "to_csr") else m


class TestGeometryPerChunk:
    @pytest.mark.parametrize("form", [*_FORMS, "volume_forms"])
    @pytest.mark.parametrize("d,geo_name", [(2, "annulus_2d"), (3, "twisted_3d")])
    def test_one_monomial_table_per_chunk(self, monkeypatch, form, d, geo_name):
        # each chunk evaluates the map's monomial table once, and its
        # geometry (J^{-1}, det J and the Hessians) is bitwise what the
        # per-call `GeometryMap.jacobian` and `hessians` give, so every form
        # it assembles is bitwise the same too
        ts = sp.tensor_space(d, 2, 2 if d == 2 else 1)
        geo = sp.GEOMETRIES[geo_name](d)
        monomials, init = sp.GeometryMap._monomials, asm._Chunk.__init__
        calls, chunks = [], []

        def counting_monomials(self, pts):
            calls.append(len(pts))
            return monomials(self, pts)

        def keeping_init(ch, *args):
            init(ch, *args)
            chunks.append(ch)

        monkeypatch.setattr(sp.GeometryMap, "_monomials", counting_monomials)
        monkeypatch.setattr(asm._Chunk, "__init__", keeping_init)
        monkeypatch.setattr(asm, "_CHUNK_BYTES", 3 * 8 * 3 ** (2 * d))  # several chunks a form
        if form == "volume_forms":
            asm.assemble_volume_forms(ts, geo)
        else:
            _FORMS[form](ts, asm.TraceSpace(ts), geo)
        # the right-hand sides map each chunk's points to sample their data off the same table
        assert len(calls) == len(chunks) > 2
        uses_hessians = form in ("laplacian", "biharmonic", "volume_forms")
        for ch in chunks:
            n = len(ch.dx)
            det, adj = asm._det_adjugate(geo.jacobian(ch.points).reshape(n, -1, d, d))
            assert ch.jinv.tobytes() == (adj / det[..., None, None]).tobytes()
            assert ("hess" in vars(ch)) == uses_hessians
            if uses_hessians:
                assert ch.hess.tobytes() == geo.hessians(ch.points).reshape(ch.hess.shape).tobytes()


class TestChunking:
    @pytest.mark.parametrize(
        "d,p,level,geo_name",
        [(1, 3, 3, "identity"), (2, 2, 2, "annulus_2d"), (3, 3, 1, "twisted_3d")],
    )
    def test_chunk_invariance(self, monkeypatch, d, p, level, geo_name):
        # one element per chunk, three volume elements per chunk (a partial
        # last chunk) and the whole mesh as one chunk all agree
        ts = sp.tensor_space(d, p, level)
        geo = sp.GEOMETRIES[geo_name](d)
        monkeypatch.setattr(asm, "_CHUNK_BYTES", 2**62)
        whole = _all_forms(ts, geo)
        for budget in (1, 3 * 8 * (p + 1) ** (2 * d)):
            monkeypatch.setattr(asm, "_CHUNK_BYTES", budget)
            chunked = _all_forms(ts, geo)
            for name, ref in whole.items():
                rel = np.max(np.abs(chunked[name] - ref)) / np.max(np.abs(ref))
                assert rel < 1e-13, (budget, name)


    @pytest.mark.parametrize("budget", ["one element", "partial last chunk"])
    @pytest.mark.parametrize(
        "d,p,level,geo_name",
        [(1, 3, 3, "identity"), (2, 2, 2, "annulus_2d"), (3, 3, 1, "twisted_3d")],
    )
    def test_multi_form_call(self, monkeypatch, budget, d, p, level, geo_name):
        # the one-pass M, K, B call agrees with one call per form on the
        # whole mesh as one chunk, whatever the chunking of the pass
        ts = sp.tensor_space(d, p, level)
        geo = sp.GEOMETRIES[geo_name](d)
        monkeypatch.setattr(asm, "_CHUNK_BYTES", 2**62)
        single = [
            _dense(asm.assemble_mass(ts, geo)),
            _dense(asm.assemble_laplacian_strong(ts, ts, geo)),
            _dense(asm.assemble_biharmonic(ts, geo)),
        ]
        block = 8 * (p + 1) ** (2 * d)  # bytes of one element's table
        monkeypatch.setattr(asm, "_CHUNK_BYTES", 1 if budget == "one element" else 3 * block)
        m, k, b = asm.assemble_volume_forms(ts, geo)
        for got, want in zip((m, k, b), single):
            assert np.max(np.abs(_dense(got) - want)) <= 1e-13 * np.max(np.abs(want))
        # at equal chunking the one-pass forms equal the single-form calls bitwise
        assert np.array_equal(m.to_dense(), asm.assemble_mass(ts, geo).to_dense())
        assert np.array_equal(k.toarray(), asm.assemble_laplacian_strong(ts, ts, geo).toarray())
        assert np.array_equal(b.to_dense(), asm.assemble_biharmonic(ts, geo).to_dense())

    def test_block_freed_before_the_next_is_made(self):
        # the kernel keeps no block of a multi-form generator alive while
        # the generator makes the next one
        ts = sp.tensor_space(2, 2, 2)
        geo = sp.annulus_2d()
        tab = asm._Tabulation.volume([ts], 3, 0)
        made = []

        def block(ch):
            blk = ch.integrate(ch.basis(0), ch.basis(0))
            made.append(weakref.ref(blk))
            return blk

        def blocks(ch):
            for _ in range(3):
                assert not made or made[-1]() is None
                yield block(ch)

        m1, _, m3 = asm._assemble(tab, geo, 0, 0, blocks, 3)
        assert len(made) == 3 * len(list(tab.chunks(geo)))
        assert np.array_equal(m1.toarray(), m3.toarray())

    def test_peak_allocation_is_pattern_plus_one_chunk(self, monkeypatch):
        # 3D p=3 L2: 64 elements with 64 x 64 block entries, 262144 triples
        # per form.  A COO scatter holds the rows, columns and values of all
        # of them (24 bytes a triple).  With one element per chunk the
        # working memory of the whole call on top of the returned matrices
        # is the int32 pattern, the transpose map and one nnz-sized value
        # array, plus one chunk.  Averaging M and B by copies, (m + m') / 2,
        # takes about three times that.
        ts = sp.tensor_space(3, 3, 2)
        geo = sp.twisted_3d()
        monkeypatch.setattr(asm, "_CHUNK_BYTES", 1)
        asm.assemble_volume_forms(ts, geo)  # warm lazily built caches
        tracemalloc.start()
        try:
            forms = asm.assemble_volume_forms(ts, geo)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        triples = 64 * 64 * 64
        nnz = forms[1].nnz  # K keeps the whole pattern
        chunk = 8 * 64 * 64  # bytes of one element's table
        assert peak - kept <= 2 * 8 * nnz + 16 * chunk
        assert peak - kept < 8 * triples


def _first_active(f: sp.SplineSpace1D, e: int) -> int:
    """First function active on element e, by pointwise evaluation at its midpoint."""
    return f.eval_basis(0.5 * (f.breakpoints[e] + f.breakpoints[e + 1]))[0]


def _axis_actives(f: sp.SplineSpace1D, elements) -> list[range]:
    return [range(_first_active(f, e), _first_active(f, e) + f.degree + 1) for e in elements]


def _union_pattern(row_axes, row_dims, col_axes, col_dims) -> set:
    """COO union: the (row, col) pairs active on a common element of the tensor grid.

    `row_axes[k][e]` are the row functions of axis k active on element e.
    """
    pairs = set()
    for el in itertools.product(*(range(len(a)) for a in row_axes)):
        rows = [np.ravel_multi_index(i, row_dims) for i in itertools.product(*(a[e] for a, e in zip(row_axes, el)))]
        cols = [np.ravel_multi_index(j, col_dims) for j in itertools.product(*(a[e] for a, e in zip(col_axes, el)))]
        pairs.update(itertools.product(rows, cols))
    return pairs


def _csr_pairs(m) -> set:
    m = scipy.sparse.csr_matrix(m)
    for r in range(m.shape[0]):
        row = m.indices[m.indptr[r] : m.indptr[r + 1]]
        assert np.all(np.diff(row) > 0), "indices of a row are sorted and unique"
    return set(zip(np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)).tolist(), m.indices.tolist()))


def _face_axes(space, axis, side, trace: bool):
    """Per-axis active functions on the elements of face (axis, side) of `space`."""
    out = []
    for j, f in enumerate(space.factors):
        if j != axis:
            out.append(_axis_actives(f, range(f.num_elements)))
        else:
            out.append([range(1)] if trace else _axis_actives(f, [side * (f.num_elements - 1)]))
    return out


class TestPattern:
    """Pattern-first assembly against a COO union built here from pointwise evaluation."""

    @staticmethod
    def _check(tab, geo, r, c, row_axes, row_dims, col_axes, col_dims):
        pattern = asm._Pattern(tab, r, c)
        got = pattern.csr(np.ones(pattern.nnz))
        assert got.shape == (int(np.prod(row_dims)), int(np.prod(col_dims)))
        assert _csr_pairs(got) == _union_pattern(row_axes, row_dims, col_axes, col_dims)
        # values: the element blocks land where a COO scatter puts them
        def blocks(ch):
            yield ch.integrate(ch.basis(r), ch.basis(c))

        coo = sum(
            scipy.sparse.coo_matrix(
                (
                    next(blocks(ch)).ravel(),
                    (
                        np.repeat(ch.active(r), ch.active(c).shape[1], axis=1).ravel(),
                        np.tile(ch.active(c), ch.active(r).shape[1]).ravel(),
                    ),
                ),
                shape=got.shape,
            ).toarray()
            for ch in tab.chunks(geo)
        )
        val = asm._assemble(tab, geo, r, c, blocks)[0].toarray()
        assert np.max(np.abs(val - coo)) <= 1e-14 * np.max(np.abs(coo))

    @pytest.mark.parametrize("chunk_bytes", [1, 2**62])
    @pytest.mark.parametrize("d,level", [(1, 3), (2, 2), (3, 1)])
    def test_volume_same_space(self, monkeypatch, chunk_bytes, d, level):
        monkeypatch.setattr(asm, "_CHUNK_BYTES", chunk_bytes)
        ts = sp.tensor_space(d, 2, level)
        axes = [_axis_actives(f, range(f.num_elements)) for f in ts.factors]
        tab = asm._Tabulation.volume([ts], 3, 0)
        self._check(tab, sp.GEOMETRIES[{1: "identity", 2: "annulus_2d", 3: "twisted_3d"}[d]](d), 0, 0, axes, ts.dims, axes, ts.dims)

    @pytest.mark.parametrize("d", [1, 2])
    def test_volume_different_spaces(self, d):
        # rows: degree 3, C^0; columns: degree 2, C^1 on the same elements
        w = sp.TensorSpace([sp.SplineSpace1D(3, 2, smoothness=0) for _ in range(d)])
        u = sp.tensor_space(d, 2, 2)
        tab = asm._Tabulation.volume([w, u], 4, 0)
        row_axes = [_axis_actives(f, range(f.num_elements)) for f in w.factors]
        col_axes = [_axis_actives(f, range(f.num_elements)) for f in u.factors]
        geo = sp.identity_geometry(d)
        self._check(tab, geo, 0, 1, row_axes, w.dims, col_axes, u.dims)
        k = asm.assemble_laplacian_strong(u, w, geo)
        assert _csr_pairs(k) == _union_pattern(row_axes, w.dims, col_axes, u.dims)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_face_and_trace(self, d):
        ts = sp.tensor_space(d, 2, 2 if d < 3 else 1)
        geo = sp.GEOMETRIES[{1: "identity", 2: "annulus_2d", 3: "twisted_3d"}[d]](d)
        tr = asm.TraceSpace(ts)
        coupling = set()
        for fi, (axis, side) in enumerate(tr.faces):
            tab = asm._Tabulation.face_of(ts, axis, side, 3, 1)
            vol = _face_axes(ts, axis, side, trace=False)
            trace = _face_axes(ts, axis, side, trace=True)
            trace_dims = tuple(1 if j == axis else m for j, m in enumerate(ts.dims))
            self._check(tab, geo, 0, 0, vol, ts.dims, vol, ts.dims)
            self._check(tab, geo, 1, 1, trace, trace_dims, trace, trace_dims)
            self._check(tab, geo, 1, 0, trace, trace_dims, vol, ts.dims)
            off = tr.offsets[fi]
            coupling |= {(off + i, j) for i, j in _union_pattern(trace, trace_dims, vol, ts.dims)}
        assert _csr_pairs(asm.assemble_normal_coupling(tr, ts, geo)) == coupling


def _assert_same_csr(got, want):
    assert got.has_canonical_format
    for part in ("indptr", "indices", "data"):
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


class TestSymmetricForms:
    @pytest.mark.parametrize("d,level", [(2, 3), (3, 2)])
    def test_trusted_average_equals_the_validated_one(self, monkeypatch, d, level):
        # M, B, the normal Gram, the boundary mass and the trace mass are
        # averaged in place and wrapped without re-validation; the stored
        # CSR is the one the validating constructor builds from the copying
        # average of the same assembled m, canonical and bitwise
        seen = []
        symmetric = asm._symmetric

        def recording(m, t=None):
            before = m.copy()  # the call averages m in place
            out = symmetric(m, t)
            seen.append((before, out))
            return out

        monkeypatch.setattr(asm, "_symmetric", recording)
        ts = sp.tensor_space(d, 2, level)
        geo = sp.GEOMETRIES[{2: "annulus_2d", 3: "twisted_3d"}[d]](d)
        asm.assemble_volume_forms(ts, geo)
        asm.assemble_normal_gram(ts, geo)
        assemble_boundary_mass(ts, geo)
        asm.assemble_trace_mass(asm.TraceSpace(ts), geo)
        assert len(seen) == 5
        for m, out in seen:
            _assert_same_csr(out.to_csr(), SparseSymMatrix((m + m.T) * 0.5).to_csr())

    @pytest.mark.parametrize("case", ["symmetric pattern", "asymmetric pattern"])
    def test_exact_cancellation_is_dropped(self, case):
        # m_01 + m_10 = 0 exactly, and m_12 = m_21 = 0 are stored: both pairs
        # leave the pattern, as the sum m + m' drops them.  Without m_20 the
        # pattern is not symmetric, and the routine takes the sum itself.
        rows = [[(0, 2.0), (1, 0.375), (2, 1.0)], [(0, -0.375), (1, 3.0), (2, 0.0)], [(0, 1.0), (1, 0.0), (2, 4.0)]]
        if case == "asymmetric pattern":
            rows[2] = rows[2][1:]
        m = scipy.sparse.csr_matrix(
            ([v for r in rows for _, v in r], [j for r in rows for j, _ in r], np.cumsum([0] + [len(r) for r in rows])),
            shape=(3, 3),
        )
        assert (asm._transpose_map(m) is None) == (case == "asymmetric pattern")
        want = SparseSymMatrix((m + m.T) * 0.5).to_csr()
        got = asm._symmetric(m.copy()).to_csr()
        _assert_same_csr(got, want)
        assert got.nnz == 5
        assert got[0, 1] == got[1, 2] == 0.0

    @pytest.mark.parametrize("d,p,level", [(2, 2, 3), (2, 2, 4), (3, 3, 2)])
    def test_restricted_blocks_equal_the_validated_ones(self, d, p, level):
        # the zero-trace blocks of M, B and the normal Gram are wrapped
        # unchecked; each equals the validating constructor's restriction
        # of the full form, bitwise
        ops = DiscreteOperators(d, p, level, DEFAULT_GEOMETRY[d])
        m, _, b = asm.assemble_volume_forms(ops.space, ops.geo)
        full = {"mass_int": m, "biharmonic_int": b, "normal_gram_int": asm.assemble_normal_gram(ops.space, ops.geo)}
        for name, form in full.items():
            want = SparseSymMatrix(form.to_csr()[ops.interior][:, ops.interior]).to_csr()
            _assert_same_csr(getattr(ops, name).to_csr(), want)


class TestSpaceCompatibility:
    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            asm.assemble_laplacian_strong(sp.tensor_space(2, 2, 2), space_1d(2, 2), sp.identity_geometry(2))

    def test_mismatched_partitions_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            asm.assemble_laplacian_strong(sp.tensor_space(2, 2, 2), sp.tensor_space(2, 2, 3), sp.identity_geometry(2))


# the oracle cases: every dimension, degrees 1..4, straight and curved maps
_ORACLE_CASES = [
    (d, p, geo_name)
    for d, geos in ((1, ("identity",)), (2, ("identity", "annulus_2d")), (3, ("identity", "twisted_3d")))
    for geo_name in geos
    for p in (1, 2, 3, 4)
]


class TestAxisWiseKernels:
    # the axis-wise sums against one full table per derivative order; bitwise in 1D
    @pytest.mark.parametrize("d,p,geo_name", _ORACLE_CASES)
    def test_laplacian(self, monkeypatch, d, p, geo_name):
        monkeypatch.setattr(asm, "_CHUNK_BYTES", 3 * 8 * (p + 1) ** (2 * d))
        ts = sp.tensor_space(d, p, 2 if d < 3 else 1)
        geo = sp.GEOMETRIES[geo_name](d)
        for ch in asm._Tabulation.volume([ts], p + 1, 2).chunks(geo):
            got = ch.laplacian(0)
            assert got.shape == ch.basis(0).shape
            assert _close(got, reference_laplacian(ch, 0), bitwise=d == 1)

    @pytest.mark.parametrize("d,p,geo_name", _ORACLE_CASES)
    def test_normal_derivative(self, d, p, geo_name):
        ts = sp.tensor_space(d, p, 2 if d < 3 else 1)
        geo = sp.GEOMETRIES[geo_name](d)
        for ch in face_chunks(ts, geo, p + 1, 1):
            assert _close(ch.normal_derivative(0), reference_normal_derivative(ch, 0), bitwise=d == 1)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_closed_form_determinant_and_inverse(self, d):
        # random stacks with singular values in [0.5, 2]: well conditioned, either orientation
        rng = np.random.default_rng(d)
        u, _ = np.linalg.qr(rng.standard_normal((500, d, d)))
        v, _ = np.linalg.qr(rng.standard_normal((500, d, d)))
        jac = (u * rng.uniform(0.5, 2.0, (500, 1, d))) @ v
        det, adj = asm._det_adjugate(jac)
        assert np.max(np.abs(det - np.linalg.det(jac)) / np.abs(np.linalg.det(jac))) <= 1e-14
        inv = np.linalg.inv(jac)
        assert np.max(np.abs(adj / det[:, None, None] - inv)) <= 1e-14 * np.max(np.abs(inv))

    def test_adjugate_is_bitwise_np_cross(self):
        # the 3D adjugate's columns are the cross products of the rows of J,
        # written out in np.cross's own products and order
        rng = np.random.default_rng(3)
        for shape in [(7, 5, 3, 3), (64, 16, 3, 3), (1, 1, 3, 3)]:
            jac = rng.standard_normal(shape) * rng.uniform(1e-3, 1e3, shape)
            r0, r1, r2 = (jac[..., i, :] for i in range(3))
            want = np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=-1)
            _, adj = asm._det_adjugate(jac)
            assert adj.tobytes() == want.tobytes()

    def test_four_dimensional_mass(self):
        # past d = 3 the Jacobian goes through LAPACK; partition of unity gives the unit volume
        m = asm.assemble_mass(sp.tensor_space(4, 1, 1), sp.identity_geometry(4))
        assert m.to_dense().sum() == pytest.approx(1.0, abs=1e-13)
