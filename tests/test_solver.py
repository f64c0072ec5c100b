"""Series, finite-difference, barrier, and energy solver tests."""
import functools
import gc
import itertools
import logging
import math
import re
import types
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from slitkit import solver
from slitkit.errors import NonConvergence, TruncationWarning
from slitkit.geometry import SlitGeometry, flat_geometry, parabola_geometry
from slitkit.solver import (
    GridSolution,
    check_barrier,
    compute_energy,
    cutoff,
    make_axes,
    solve_fd,
    solve_series_2d,
)


def phi_flat_1(x, z):
    return np.sqrt((x + np.hypot(x, z)) / 2.0)


GRADED = {"type": "power", "p": 2.0}


class TestSeries:
    def test_cos_half_is_exact_u0(self):
        s = solve_series_2d(lambda t: np.cos(t / 2.0))
        assert abs(s.coefficients[0] - 1.0) < 1e-12
        assert np.abs(s.coefficients[1:]).max() < 1e-12
        assert s.resolved

    def test_identity_three_half_profile(self):
        # r^{3/2} cos(3 theta/2) has boundary trace cos(3t/2): only the
        # q = 3/2 coefficient survives
        s = solve_series_2d(lambda t: np.cos(1.5 * t))
        assert abs(s.coefficients[1] - 1.0) < 1e-12
        assert abs(s.coefficients[0]) < 1e-12

    def test_gauss_rule_matches_exact_coefficients(self):
        # cos^3(t/2) = 3/4 cos(t/2) + 1/4 cos(3t/2)
        s = solve_series_2d(lambda t: np.cos(t / 2.0) ** 3)
        assert np.abs(s.coefficients[:2] - [0.75, 0.25]).max() < 1e-11
        assert np.abs(s.coefficients[2:]).max() < 1e-11

    def test_truncation_warning_fires(self):
        # data with slow cosine decay: a genuine jump at the slit ends
        with pytest.warns(TruncationWarning):
            s = solve_series_2d(lambda t: np.abs(np.cos(t / 2.0)) ** 0.25)
        assert not s.resolved and len(s.coefficients) == 256


class TestCutoff:
    def test_plateau_and_support(self):
        r = np.array([0.0, 0.1, 0.125, 0.25, 0.3, 1.0])
        chi, chi1, chi2 = cutoff(r)
        assert np.all(chi[:3] == 1.0)
        assert np.all(chi[3:] == 0.0)
        assert np.all(chi1 == 0.0) and np.all(chi2 == 0.0)

    def test_derivative_consistency(self):
        # the default band (1/8, 1/4) and a disc band (a, 2a): the disc
        # uses a = (1 - |gamma|) / 3 = 1/15 at gamma = 0.8
        eps = 1e-6
        for a in (0.125, 1.0 / 15.0):
            b = 2.0 * a
            r = np.linspace(1.04 * a, 1.92 * a, 50)
            chi, chi1, chi2 = cutoff(r, a, b)
            plus, minus = cutoff(r + eps, a, b), cutoff(r - eps, a, b)
            fd1 = (plus[0] - minus[0]) / (2 * eps)
            assert np.abs(fd1 - chi1).max() < 1e-7
            fd2 = (plus[1] - minus[1]) / (2 * eps)
            assert np.abs(fd2 - chi2).max() < 1e-4 * np.abs(chi2).max()


class TestFlatOracle:
    @pytest.fixture(scope="class")
    def sols(self):
        g = flat_geometry(1)
        return {h: solve_fd(g, phi_flat_1, h=h, split=True) for h in (2**-5, 2**-6)}

    def test_matches_u0_and_refines(self, sols):
        errs = {}
        for h, sol in sols.items():
            fr = sol.node_frames()
            errs[h] = float(np.abs(sol.values.ravel() - fr["u0"]).max())
        assert errs[2**-6] < errs[2**-5]
        order = math.log2(errs[2**-5] / errs[2**-6])
        assert order > 0.9

    def test_maximum_principle(self):
        # the unsplit scheme is an M-matrix: values stay between the
        # slit zero and the max of the Dirichlet data (box corners carry
        # data up to sqrt((1+sqrt(2))/2) ~ 1.0987)
        g = flat_geometry(1)
        sol = solve_fd(g, phi_flat_1, h=2**-6, split=False)
        data_max = float(phi_flat_1(1.0, 1.0))
        assert sol.values.min() >= -1e-12
        assert sol.values.max() <= data_max + 1e-12

    def test_split_off_is_worse(self):
        g = flat_geometry(1)
        sol = solve_fd(g, phi_flat_1, h=2**-6, split=False)
        fr = sol.node_frames()
        err = np.abs(sol.values.ravel() - fr["u0"]).max()
        assert err > 0.05  # O(h^{1/2}) edge error without splitting

    def test_zero_data_gives_zero(self):
        g = flat_geometry(1)
        sol = solve_fd(g, lambda x, z: np.zeros_like(x), h=2**-5)
        assert np.abs(sol.values).max() == 0.0


class TestGrids:
    def test_graded_axes_cluster_at_planes(self):
        ax = make_axes(1, 2**-4, {"type": "power", "p": 2.0})
        x = ax[0]
        assert abs(x[len(x) // 2]) < 1e-15
        inner = np.diff(x)[len(x) // 2 - 1]
        outer = np.diff(x)[-1]
        assert inner < outer / 4

    def test_unknown_grading_rejected(self):
        with pytest.raises(ValueError):
            make_axes(1, 2**-4, {"p": 2.0})


class TestLinearSolve:
    # flat n = 2 at h = 1/24: a 3-D system, solved by multigrid-preconditioned CG
    def _solve(self):
        return solve_fd(flat_geometry(2), lambda x1, x2, z: phi_flat_1(x2, z), h=1 / 24)

    def test_stalled_cg_reports_residual(self, monkeypatch):
        spla = types.SimpleNamespace(**vars(scipy.sparse.linalg))
        spla.cg = lambda A, b, **kw: (np.zeros_like(b), 2000)
        monkeypatch.setattr(solver, "spla", spla)
        with pytest.raises(NonConvergence, match=r"info=2000, relative residual 1\.00e\+00"):
            self._solve()


def _counting_spla(monkeypatch, *names):
    """Replace ``solver.spla`` by a copy of ``scipy.sparse.linalg`` whose
    functions ``names`` record the shape of their first argument; one
    list of shapes per name.  The copy is of the real module, because
    ``solver.spla`` holds no names until its first read."""
    spla = types.SimpleNamespace(**vars(scipy.sparse.linalg))

    def counting(real, calls):
        def wrapper(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)
        return wrapper

    lists = [[] for _ in names]
    for name, calls in zip(names, lists):
        setattr(spla, name, counting(getattr(spla, name), calls))
    monkeypatch.setattr(solver, "spla", spla)
    return lists


class TestDirectSolve:
    def test_split_solve_builds_one_hierarchy(self, monkeypatch):
        # the unsplit solve and both remainder solves share one hierarchy,
        # so its coarsest level is factored once
        [calls] = _counting_spla(monkeypatch, "splu")
        solve_fd(flat_geometry(1), phi_flat_1, h=2**-5, split=True)
        assert len(calls) == 1

    def test_unpivoted_factor_solves_accurately(self):
        # the coarsest factor (symmetric ordering, no pivoting) under CG
        # on a uniform, a graded, a stretched and a masked grid
        h = 2**-5
        g = flat_geometry(1)
        uniform = make_axes(1, h)
        cases = [(uniform, None), (make_axes(1, h, {"type": "power", "p": 2.0}), None),
                 ([a * 0.9 for a in uniform], None), (uniform, (len(uniform[0]) // 2, 5))]
        rng = np.random.default_rng(0)
        for axes, hole in cases:
            _, _, interior = solver._classify(g, axes)
            if hole:
                interior[hole] = False
            inner = interior.ravel()
            A = -solver._fv_laplacian(axes)[1][inner][:, inner]
            b = rng.standard_normal(A.shape[0])
            x = solver._Multigrid(A, axes, interior).solve(b)
            assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def _fv_system(geom, h, grading):
    """The interior operator that ``solve_fd`` inverts, with its grid."""
    axes = make_axes(geom.n, h, grading)
    _, _, interior = solver._classify(geom, axes)
    inner = interior.ravel()
    return -solver._fv_laplacian(axes)[1][inner][:, inner], axes, interior


def _parabola_phi(a):
    def phi(x1, x2, z):
        return phi_flat_1(x2 - a * x1**2, z)
    return phi


def _logged_solves(caplog):
    """(iterations, rtol, relative residual) of each logged CG solve."""
    found = [re.fullmatch(r"cg: (\d+) iterations, rtol (\S+), relative residual (\S+)",
                          r.getMessage())
             for r in caplog.records if r.name == "slitkit"]
    return [(int(m[1]), float(m[2]), float(m[3])) for m in found if m]


class TestMultigrid:
    def test_preconditioner_is_symmetric(self):
        # pre-smoothing sweeps the lines, then the planes, axes ascending,
        # and post-smoothing the reverse, so the float32 cycle is
        # symmetric up to rounding
        A, axes, interior = _fv_system(flat_geometry(2), 1 / 16, GRADED)
        mg = solver._Multigrid(A, axes, interior)
        assert len(mg.unknowns) == 2
        assert any(isinstance(s, solver._Plane) for s in mg.levels[0][3])
        u, v = np.random.default_rng(1).standard_normal((2, A.shape[0]))
        uMv, vMu = u @ mg(v), v @ mg(u)
        assert abs(uMv - vMu) <= 1e-6 * abs(uMv)
        assert u @ mg(u) > 0.0

    def test_indefinite_line_block_raises(self):
        # the line blocks of an SPD operator factor; of -A they cannot
        A, axes, interior = _fv_system(flat_geometry(2), 1 / 16, GRADED)
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            solver._Multigrid(-A, axes, interior)

    def test_indefinite_plane_block_raises(self):
        # the same for the plane blocks, which the line blocks precede
        A, axes, interior = _fv_system(flat_geometry(2), 1 / 16, GRADED)
        A32 = -A.astype(np.float32)
        with pytest.raises(np.linalg.LinAlgError, match="plane block .* not positive definite"):
            solver._plane_blocks(A32, axes, *solver._couplings(A32, interior))

    @pytest.mark.parametrize("n, grading", [
        (1, None), (1, GRADED), (1, {"type": "power", "p": 3.0}), (2, None)],
        ids=["2d-uniform", "2d-p2", "2d-p3", "3d-uniform"])
    def test_no_plane_blocks_on_planes_or_uniform_grids(self, caplog, n, grading):
        # a 2-D "plane" is a line the line sweeps relax, and uniform cell
        # widths select no plane, so these cycles keep the line smoother
        A, axes, interior = _fv_system(flat_geometry(n), 2**-6 if n == 1 else 1 / 24, grading)
        with caplog.at_level(logging.DEBUG, logger="slitkit"):
            mg = solver._Multigrid(A, axes, interior)
        assert len(mg.levels) >= 1
        assert all(isinstance(s, solver._Line) for lv in mg.levels for s in lv[3])
        [planes] = [r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("plane blocks")]
        zeros = "/".join("0" * len(mg.unknowns))
        assert planes == f"plane blocks: unknowns per level {zeros}, padded {zeros}"

    @pytest.mark.parametrize("masked", [True, False], ids=["interior", "every-node"])
    def test_plane_sweep_is_the_block_solve(self, masked):
        # each plane sweep adds the exact solve of A's principal block on
        # its unknowns (no coupling along its axis) to the block's rows;
        # on every node of the h = 0.07, power-1.5 grid the narrowest z
        # indices include the far half cell, so a plane's side skips
        # indices and the band must not couple across the gap
        if masked:
            A, axes, interior = _fv_system(parabola_geometry(0.25), 1 / 16, GRADED)
        else:
            axes = make_axes(2, 0.07, {"type": "power", "p": 1.5})
            interior = np.ones(tuple(map(len, axes)), dtype=bool)
            A = -solver._fv_laplacian(axes)[1]
        A32 = A.astype(np.float32)
        rng = np.random.default_rng(3)
        planes = solver._plane_blocks(A32, axes, *solver._couplings(A32, interior))
        assert len(planes) == 3
        for axis, plane in enumerate(planes):
            S = plane.unknowns
            assert len(np.unique(S)) == len(S) <= plane.factor.shape[1]
            at = np.argwhere(interior)[S, axis]
            block = A[S][:, S].tocoo()
            same = at[block.row] == at[block.col]
            block = scipy.sparse.csc_matrix((block.data[same], (block.row[same], block.col[same])),
                                            shape=block.shape)
            x, b = rng.standard_normal((2, A.shape[0])).astype(np.float32)
            want = x.astype(np.float64)
            want[S] += solver.spla.spsolve(block, (b - A @ x)[S])
            got = plane(A32, b, x.copy())
            assert np.abs(got - want).max() <= 1e-4 * np.abs(want).max()

    @pytest.mark.parametrize("geom", [flat_geometry(2), parabola_geometry(0.25)],
                             ids=["flat", "curved"])
    @pytest.mark.parametrize("h", [1 / 16, 1 / 24, 1 / 32])
    def test_plane_storage_within_line_storage(self, geom, h):
        # capped at _PLANE_SIDE indices per side, the plane blocks of a
        # power-2 level take no more memory than its line factors, which
        # bounds what they add to the h = 1/96 acceptance solve's peak
        def nbytes(sweep):
            return sum(sum(a.nbytes for a in (v.data, v.indices, v.indptr))
                       if hasattr(v, "indptr") else v.nbytes
                       for v in sweep if v is not None)

        mg = solver._Multigrid(*_fv_system(geom, h, GRADED))
        for level in mg.levels:
            lines = sum(nbytes(s) for s in level[3] if isinstance(s, solver._Line))
            planes = sum(nbytes(s) for s in level[3] if isinstance(s, solver._Plane))
            assert 0 < planes <= lines

    @pytest.mark.parametrize("h", [1 / 16, 1 / 24, 1 / 32])
    @pytest.mark.parametrize("geom, phi", [
        (parabola_geometry(0.25), _parabola_phi(0.25)),
        (flat_geometry(2), lambda x1, x2, z: phi_flat_1(x2, z))], ids=["curved", "flat"])
    def test_cycle_counts(self, caplog, geom, phi, h):
        # the grids of the benchmark's 3-D split solves
        with caplog.at_level(logging.DEBUG, logger="slitkit"):
            solve_fd(geom, phi, h=h, grading=GRADED, split=True)
        cycles = [n for n, *_ in _logged_solves(caplog)]
        assert len(cycles) == 3 and max(cycles) <= 15

    @pytest.mark.parametrize("h", [1 / 24, 1 / 32])
    def test_power_three_grading_converges(self, caplog, h):
        # the solve of `rates --geometry parabola:0.25 --n 2 --h 0.03125
        # --grading-p 3`, which stalled at 2000 Jacobi-CG iterations; the
        # stronger grading costs cycles (13 and 18 in the final solve)
        with caplog.at_level(logging.DEBUG, logger="slitkit"):
            solve_fd(parabola_geometry(0.25), _parabola_phi(0.25), h=h,
                     grading={"type": "power", "p": 3.0}, split=True)
        cycles = [n for n, *_ in _logged_solves(caplog)]
        assert len(cycles) == 3 and max(cycles) <= 25

    @pytest.mark.parametrize("h", [1 / 16, 0.07])
    def test_matches_direct_solve(self, h):
        # h = 0.07 has 29 x 29 x 14 intervals, so the odd counts coarsen
        # to a last interval of one fine step
        sol = solve_fd(flat_geometry(2), lambda x1, x2, z: phi_flat_1(x2, z), h=h,
                       grading=GRADED)
        u = sol.values.ravel()
        inner = ~(sol.dirichlet_mask | sol.slit_mask).ravel()
        _, L = solver._fv_laplacian(sol.axes)
        L = L[inner]
        direct = solver.spla.spsolve(-L[:, inner].tocsc(), L[:, ~inner] @ u[~inner])
        assert np.abs(u[inner] - direct).max() <= 1e-8 * np.abs(u).max()

    def test_three_dimensional_solve_calls_cg_and_splu(self, monkeypatch):
        # the traced benchmark fails on a solver binding that sees no calls
        splu, cg = _counting_spla(monkeypatch, "splu", "cg")
        solve_fd(flat_geometry(2), lambda x1, x2, z: phi_flat_1(x2, z), h=1 / 16,
                 grading=GRADED)
        assert len(cg) == 1 and len(splu) == 1 and splu[0][0] < cg[0][0]

    def test_hierarchy_is_freed_on_return(self, monkeypatch):
        # no reference cycle holds the hierarchy, so refcounting frees it
        made = []

        class Tracked(solver._Multigrid):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        monkeypatch.setattr(solver, "_Multigrid", Tracked)
        gc.disable()
        try:
            solve_fd(flat_geometry(2), lambda x1, x2, z: phi_flat_1(x2, z), h=1 / 16,
                     grading=GRADED, split=True)
            assert len(made) == 1 and made[0]() is None
        finally:
            gc.enable()

    def test_two_dimensional_cycle(self):
        # the cycle alone on a graded 2-D grid, under scipy's own CG
        A, axes, interior = _fv_system(flat_geometry(1), 2**-7, GRADED)
        mg = solver._Multigrid(A, axes, interior)
        assert len(mg.unknowns) >= 3
        b = np.random.default_rng(2).standard_normal(A.shape[0])
        x, info = solver.spla.cg(A, b, rtol=1e-11, maxiter=40,
                                 M=solver.spla.LinearOperator(A.shape, matvec=mg))
        assert info == 0
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_solves_are_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="slitkit"):
            solve_fd(flat_geometry(2), lambda x1, x2, z: phi_flat_1(x2, z), h=1 / 16,
                     grading=GRADED, split=True)
            solve_fd(flat_geometry(1), phi_flat_1, h=2**-5)
        setups = [r.getMessage() for r in caplog.records
                  if r.name == "slitkit" and r.getMessage().startswith("linear solver")]
        assert len(setups) == 2
        assert re.fullmatch(r"linear solver: multigrid-cg, unknowns per level \d+/\d+, "
                            r"setup \d+\.\d{3} s", setups[0])
        # the 2-D system has no level above the coarsest
        assert re.fullmatch(r"linear solver: multigrid-cg, unknowns per level \d+, "
                            r"setup \d+\.\d{3} s", setups[1])
        planes = [r.getMessage() for r in caplog.records
                  if r.name == "slitkit" and r.getMessage().startswith("plane blocks")]
        assert len(planes) == 2
        # the graded 3-D level has plane blocks, its coarsest level none
        m = re.fullmatch(r"plane blocks: unknowns per level (\d+)/0, padded (\d+)/0", planes[0])
        assert m and 0 < int(m[1]) < int(m[2])
        assert planes[1] == "plane blocks: unknowns per level 0, padded 0"
        solves = _logged_solves(caplog)
        assert len(solves) == 4
        # the split call's first two solves only feed its fit; its final
        # solve and the unsplit call's one solve are returned
        assert [rtol for _, rtol, _ in solves] == [1e-6, 1e-6, 1e-11, 1e-11]
        limits = [1e-6, 1e-6, 1e-10, 1e-10]
        assert all(1 <= n <= 40 and resid <= most
                   for (n, _, resid), most in zip(solves, limits))


def _graded_axis(nodes, symmetric, p):
    s = np.linspace(-1.0 if symmetric else 0.0, 1.0, nodes)
    return np.sign(s) * np.abs(s) ** p


_AXIS = st.tuples(st.integers(3, 12), st.booleans(), st.sampled_from([1.0, 2.0, 3.0]))


def _classify_reference(geom, axes):
    """The node rule written pointwise on full coordinate grids: the slit
    is z = 0, x_n <= g(x_1) - dx_n / 2 and |X| < 1, where dx_n is the
    step to the next x_n node (the last node repeats the last step)."""
    n = len(axes) - 1
    X = np.meshgrid(*axes, indexing="ij")
    a_n = axes[n - 1]
    j = np.minimum(np.arange(len(a_n)), len(a_n) - 2)
    dxn = (a_n[j + 1] - a_n[j])[np.indices(X[0].shape)[n - 1]]
    outer = sum(x**2 for x in X) >= 1.0
    slit = (X[n] == 0.0) & (X[n - 1] <= geom.g(X[0]) - dxn / 2.0) & ~outer
    return slit, outer, ~outer & ~slit


class TestTensorGrid:
    @given(st.lists(_AXIS, min_size=2, max_size=3), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_prolongation_reproduces_multilinear(self, specs, seed):
        # tensor-product linear interpolation is exact on f = prod_j
        # (alpha_j + beta_j x_j) wherever all 2^d corners are unknowns
        axes = [_graded_axis(*spec) for spec in specs]
        idx = [np.unique(np.append(np.arange(0, len(a), 2), len(a) - 1)) for a in axes]
        rng = np.random.default_rng(seed)
        mask = rng.random(tuple(map(len, axes))) < 0.8
        coarse_mask = mask[np.ix_(*idx)]
        P = solver._prolongation(axes, idx, mask, coarse_mask)
        assert P.shape == (mask.sum(), coarse_mask.sum())
        assert np.asarray(P.sum(axis=1)).max(initial=0.0) <= 1.0 + 1e-6

        alpha, beta = rng.uniform(-1.0, 1.0, (2, len(axes)))
        f = functools.reduce(np.multiply, [a0 + b0 * x for a0, b0, x
                                           in zip(alpha, beta, np.ix_(*axes))])
        coarse = f[np.ix_(*idx)][coarse_mask]
        # the coarse interval [lo, lo + 1] of each fine node, per axis
        lo = [np.minimum(np.searchsorted(a[i], a, side="right") - 1, len(i) - 2)
              for a, i in zip(axes, idx)]
        covered = mask.copy()
        for corner in itertools.product((0, 1), repeat=len(axes)):
            covered &= coarse_mask[np.ix_(*[k + c for k, c in zip(lo, corner)])]
        err = np.abs(P @ coarse - f[mask])[covered[mask]]
        assert err.max(initial=0.0) <= 1e-6 * max(np.abs(f).max(), 1.0)

    @pytest.mark.parametrize("h", [1 / 16, 0.07, 1 / 24])
    @pytest.mark.parametrize("grading", [None, GRADED, {"type": "power", "p": 3.0}],
                             ids=["uniform", "p2", "p3"])
    @pytest.mark.parametrize("geom", [
        flat_geometry(1), flat_geometry(2), parabola_geometry(0.25),
        SlitGeometry(2, (0, 0, Fraction(3, 8), Fraction(3, 8)))],
        ids=["flat1", "flat2", "parabola", "cubic"])
    def test_classify_matches_pointwise_rule(self, geom, grading, h):
        axes = make_axes(geom.n, h, grading)
        for got, want in zip(solver._classify(geom, axes), _classify_reference(geom, axes)):
            assert got.shape == want.shape and np.array_equal(got, want)


class TestSingleBackend:
    # every FV system, 2-D ones included, is solved by multigrid-CG

    @pytest.mark.parametrize("h", [2**-7, 2**-8])
    def test_planar_ladder_cycle_counts(self, caplog, h):
        # the benchmark's flat 2-D ladder grids (11, 8 and 7 or 8 cycles)
        with caplog.at_level(logging.DEBUG, logger="slitkit"):
            solve_fd(flat_geometry(1), phi_flat_1, h=h, split=True)
        cycles = [n for n, *_ in _logged_solves(caplog)]
        assert len(cycles) == 3 and max(cycles) <= 15

    def test_two_dimensional_solve_matches_direct_solve(self):
        sol = solve_fd(flat_geometry(1), phi_flat_1, h=2**-8)
        u = sol.values.ravel()
        inner = ~(sol.dirichlet_mask | sol.slit_mask).ravel()
        _, L = solver._fv_laplacian(sol.axes)
        L = L[inner]
        direct = solver.spla.spsolve(-L[:, inner].tocsc(), L[:, ~inner] @ u[~inner])
        assert np.abs(u[inner] - direct).max() <= 1e-8 * np.abs(u).max()

    def test_small_two_dimensional_solve_calls_cg_and_splu(self, monkeypatch):
        # 1,603 unknowns build no level: the cycle is the coarsest factor,
        # and the traced benchmark needs both bindings called
        splu, cg = _counting_spla(monkeypatch, "splu", "cg")
        solve_fd(flat_geometry(1), phi_flat_1, h=2**-5)
        assert len(cg) == 1 and len(splu) == 1 and splu[0] == cg[0]

    @pytest.mark.parametrize("geom, h, phi", [
        (flat_geometry(1), 2**-6, phi_flat_1),
        (flat_geometry(2), 1 / 16, lambda x1, x2, z: phi_flat_1(x2, z))], ids=["2d", "3d"])
    def test_frames_are_built_before_the_hierarchy(self, monkeypatch, geom, h, phi):
        # the split fit needs the node frames; built before the hierarchy,
        # the two do not peak together
        order = []
        frames, multigrid = solver._grid_frames, solver._Multigrid

        def tracked_frames(*args):
            order.append("frames")
            return frames(*args)

        class Tracked(multigrid):
            def __init__(self, *args):
                order.append("multigrid")
                super().__init__(*args)

        monkeypatch.setattr(solver, "_grid_frames", tracked_frames)
        monkeypatch.setattr(solver, "_Multigrid", Tracked)
        solve_fd(geom, phi, h=h, grading=GRADED, split=True)
        assert order == ["frames", "multigrid"]


class TestFitTolerance:
    # a split solve's unsplit and first remainder solves only feed the fit
    # of u/U0, so they stop at rtol _FIT_RTOL; the final solve keeps 1e-11

    @pytest.mark.parametrize("geom, phi, h, grading", [
        (parabola_geometry(0.25), _parabola_phi(0.25), 1 / 24, GRADED),
        (flat_geometry(2), lambda x1, x2, z: phi_flat_1(x2, z), 1 / 24, GRADED),
        (flat_geometry(1), phi_flat_1, 2**-7, None)], ids=["curved", "flat-3d", "flat-2d"])
    def test_final_values_match_tight_fit_solves(self, monkeypatch, geom, phi, h, grading):
        u = solve_fd(geom, phi, h=h, grading=grading, split=True).values
        monkeypatch.setattr(solver, "_FIT_RTOL", 1e-11)
        tight = solve_fd(geom, phi, h=h, grading=grading, split=True).values
        assert np.abs(u - tight).max() <= 2e-5 * np.abs(tight).max()

    @pytest.mark.parametrize("geom, phi", [
        (parabola_geometry(0.25), _parabola_phi(0.25)),
        (flat_geometry(2), lambda x1, x2, z: phi_flat_1(x2, z))], ids=["curved", "flat"])
    def test_split_solve_cycle_total(self, caplog, geom, phi):
        # the benchmark's 1/32 split solves: 25 and 22 cycles
        with caplog.at_level(logging.DEBUG, logger="slitkit"):
            solve_fd(geom, phi, h=1 / 32, grading=GRADED, split=True)
        solves = _logged_solves(caplog)
        assert [rtol for _, rtol, _ in solves] == [1e-6, 1e-6, 1e-11]
        assert sum(n for n, *_ in solves) <= 30


def _quadratic(c):
    """c0 + c1 x_1 + c2 x_n + c3 z + c4 x_1 z + c5 z^2 on coordinate arrays
    (x..., z); x_1 is x_n when n = 1."""
    def field(*X):
        x1, xn, z = X[0], X[-2], X[-1]
        return c[0] * np.ones_like(z) + c[1] * x1 + c[2] * xn + c[3] * z \
            + c[4] * x1 * z + c[5] * z**2
    return field


_COEF = st.lists(st.integers(-4, 4).map(lambda c: c / 4), min_size=6, max_size=6)


class TestLinearity:
    @given(_COEF, _COEF, _COEF, _COEF, st.integers(-8, 8), st.integers(-8, 8))
    @settings(max_examples=25, deadline=None)
    @pytest.mark.parametrize("geom, h, grading", [
        (flat_geometry(1), 2**-5, None), (flat_geometry(2), 1 / 8, GRADED)], ids=["2d", "3d"])
    def test_unsplit_solve_is_linear_in_data(self, geom, h, grading, p1, f1, p2, f2, a, b):
        # u(phi, raw_rhs) of an unsplit solve is linear in the pair
        alpha, beta = a / 4, b / 4

        def solve(p, f):
            return solve_fd(geom, _quadratic(p), h=h, grading=grading,
                            raw_rhs=_quadratic(f)).values

        u1, u2 = solve(p1, f1), solve(p2, f2)
        mix = solve([alpha * x + beta * y for x, y in zip(p1, p2)],
                    [alpha * x + beta * y for x, y in zip(f1, f2)])
        scale = np.abs(alpha * u1).max() + np.abs(beta * u2).max()
        assert np.abs(alpha * u1 + beta * u2 - mix).max() <= 1e-9 * scale


class TestSplitSupport:
    @pytest.mark.parametrize("geom, h", [(parabola_geometry(0.25), 1 / 16),
                                         (flat_geometry(1), 2**-6)], ids=["curved", "flat"])
    def test_support_only_evaluation_is_exact(self, monkeypatch, geom, h):
        sol = solver.empty_solution(geom, h, GRADED)
        fr = sol.node_frames()
        sol.values = (fr["u0"] * (1.0 + 0.3 * fr["x"][:, 0])).reshape(sol.dims)
        keys, coef = solver._fit_split_coefficients(sol, 0.05, 0.15)
        S, lap_S = solver._split_field_and_laplacian(sol, keys, coef)
        assert 0 < np.count_nonzero(S) < S.size
        # the same routine on every node (the cutoff keeps its band)
        monkeypatch.setattr(solver, "_CHI_B", np.inf)
        S_all, lap_all = solver._split_field_and_laplacian(sol, keys, coef)
        assert np.array_equal(S, S_all) and np.array_equal(lap_S, lap_all)


class TestOneOperator:
    @pytest.mark.parametrize("n, h", [(1, 2**-6), (2, 1 / 24)])
    def test_barrier_operator_is_the_solve_operator(self, n, h):
        # the solve inverts the interior rows of the L that check_barrier
        # applies (multigrid-CG at n = 1 and 2): after an unsplit solve,
        # L u vanishes on the interior to the solver's tolerance
        sol = solve_fd(flat_geometry(n), lambda *c: phi_flat_1(c[-2], c[-1]), h=h)
        u = sol.values.ravel()
        inner = ~(sol.dirichlet_mask | sol.slit_mask).ravel()
        _, L = solver._fv_laplacian(sol.axes)
        b = L[inner][:, ~inner] @ u[~inner]
        assert np.abs((L @ u)[inner]).max() <= 1e-9 * np.linalg.norm(b)
        # on a graded grid of the same dimension L is symmetric and
        # kills constants
        _, L = solver._fv_laplacian(make_axes(n, h, {"type": "power", "p": 2.0}))
        assert abs(L - L.T).max() == 0.0
        assert np.abs(L @ np.ones(L.shape[0])).max() <= 1e-12 * np.abs(L.diagonal()).max()


def _disc_phi(t):
    return np.abs(np.cos(t / 2.0))


class TestDiscOracle:
    # split tip coefficients at h = 2^-6 of the Shortley-Weller stencil
    # with one two-column spsolve
    RECORDED = {-0.3: 0.8618510521161171, 0.0: 0.9948763400157241, 0.3: 1.1762352367153717}

    @pytest.mark.parametrize("gamma", sorted(RECORDED))
    def test_matches_recorded_tips_with_one_spsolve(self, monkeypatch, gamma):
        [calls] = _counting_spla(monkeypatch, "spsolve")
        a, _ = solver.solve_disc_2d(gamma, _disc_phi, h=2**-6)
        assert a == pytest.approx(self.RECORDED[gamma], rel=1e-12, abs=0.0)
        assert len(calls) == 1

    def test_second_order_next_to_the_circle(self):
        # u = U0 at gamma = 0; the sup error on nodes within 2h of the
        # circle falls at second order (1.1e-4, 1.3e-5, 2.6e-6)
        errs = []
        for h in (2**-5, 2**-6, 2**-7):
            _, (xs, ys, U) = solver.solve_disc_2d(0.0, _disc_phi, h=h)
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            R = np.hypot(X, Y)
            near = (R < 1.0) & (R >= 1.0 - 2 * h)
            errs.append(np.abs(U - np.sqrt((X + R) / 2.0))[near].max())
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        assert orders.min() >= 1.8

    @pytest.mark.parametrize("gamma", [-1.0, 1.0, 1.2])
    def test_tip_outside_disc_rejected(self, gamma):
        # the cutoff band about the tip must fit inside the disc
        with pytest.raises(ValueError):
            solver.solve_disc_2d(gamma, _disc_phi, h=2**-5)


class TestBarrier:
    def test_flat_barrier_positive_and_stable(self):
        g = flat_geometry(1)
        b1 = check_barrier(g, h=2**-5)
        b2 = check_barrier(g, h=2**-6)
        assert b1 > 0.2 and b2 > 0.2
        assert abs(b2 - b1) <= 0.1 * b1

    def test_curved_barrier_positive(self):
        geo = parabola_geometry(0.25)
        assert check_barrier(geo, h=2**-4) > 0.0

    def test_laplacian_uses_the_grid_step(self):
        # make_axes rounds the node count, so h = 0.0624 builds the 1/16
        # grid; the Laplacian must divide by that grid's cells, not by h^2
        g = flat_geometry(1)
        assert all(np.array_equal(a, b) for a, b in zip(make_axes(1, 0.0624), make_axes(1, 1 / 16)))
        assert check_barrier(g, h=0.0624) == check_barrier(g, h=1 / 16)


class TestEnergy:
    @staticmethod
    def _u0_solution(h):
        sol = solver.empty_solution(flat_geometry(1), h)
        sol.values = sol.node_frames()["u0"].reshape(sol.values.shape)
        return sol

    def test_gradient_part_analytic(self):
        # |grad U0|^2 = 1/(4r), so the doubled half-disc integral is
        # 2 * int_0^1 int_0^pi (1/(4r)) r dtheta dr = pi/2; the energy less
        # its plate term (pi/2) * measure{u > 0, z = 0} approaches it
        errs = []
        for h in (2**-5, 2**-6):
            sol = self._u0_solution(h)
            x = sol.axes[0]
            plate = solver._cell_widths(x)[(sol.values[:, 0] > 0) & (np.abs(x) < 1.0)].sum()
            gradient_part = compute_energy(sol) - math.pi / 2 * plate
            errs.append(abs(gradient_part - math.pi / 2) / (math.pi / 2))
        assert errs[1] < 0.01 and errs[1] < errs[0]

    def test_u0_energy_near_pi(self):
        sol = self._u0_solution(2**-6)
        e = compute_energy(sol)
        assert abs(e - math.pi) / math.pi < 0.03

    def test_zero_solution_plate_only(self):
        g = flat_geometry(1)
        sol = solve_fd(g, lambda x, z: np.zeros_like(x), h=2**-5)
        assert compute_energy(sol) == 0.0

    def test_quadratic_scaling_of_dirichlet_part(self):
        # e(s u) = s^2 * (gradient part) + (plate part): the plate term
        # is invariant under positive scaling, so increments isolate it
        sol = self._u0_solution(2**-5)
        base = sol.values.copy()
        e1 = compute_energy(sol)
        sol.values = 2.0 * base
        e2 = compute_energy(sol)
        sol.values = 0.5 * base
        e_half = compute_energy(sol)
        assert abs((e2 - e1) - 4.0 * (e1 - e_half)) < 1e-10

    @pytest.mark.parametrize("n, h, grading", [
        (1, 2**-5, None), (1, 2**-5, {"type": "power", "p": 2.0}),
        (2, 1 / 16, {"type": "power", "p": 2.0})])
    def test_gradient_part_is_the_solve_operator(self, n, h, grading):
        # u vanishes outside |X| < 1/2 and on the plate x_1 < 0, so the
        # energy is 2 u^T A u for the all-Neumann operator A = -L of the
        # solve plus the plate term
        sol = solver.empty_solution(flat_geometry(n), h, grading)
        grids = np.meshgrid(*sol.axes, indexing="ij")
        inside = sum(g**2 for g in grids) < 0.25
        u = np.random.default_rng(3).uniform(0.1, 1.0, sol.dims) * inside
        u[(grids[-1] == 0) & (grids[0] < 0)] = 0.0
        sol.values = u
        A = -solver._fv_laplacian(sol.axes)[1]
        plate = np.prod(np.meshgrid(*map(solver._cell_widths, sol.axes[:-1]), indexing="ij"), axis=0)
        expect = 2.0 * u.ravel() @ (A @ u.ravel()) + math.pi / 2.0 * plate[u[..., 0] > 0].sum()
        assert compute_energy(sol) == pytest.approx(expect, rel=1e-13, abs=0.0)
