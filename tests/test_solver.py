"""Series, finite-difference, barrier, and energy solver tests."""
import math
import types

import numpy as np
import pytest

from slitkit import solver
from slitkit.errors import NonConvergence, TruncationWarning
from slitkit.geometry import flat_geometry, parabola_geometry
from slitkit.solver import (
    GridSolution,
    HalfAngleSeries,
    check_barrier,
    compute_energy,
    cutoff,
    cutoff_d1,
    cutoff_d2,
    make_axes,
    solve_fd,
    solve_series_2d,
)


def phi_flat_1(x, z):
    return np.sqrt((x + np.hypot(x, z)) / 2.0)


class TestSeries:
    def test_cos_half_is_exact_u0(self):
        s = solve_series_2d(lambda t: np.cos(t / 2.0), 8)
        assert abs(s.coefficients[0] - 1.0) < 1e-12
        assert np.abs(s.coefficients[1:]).max() < 1e-12
        assert s.resolved

    def test_identity_three_half_profile(self):
        # r^{3/2} cos(3 theta/2) has boundary trace cos(3t/2): only the
        # q = 3/2 coefficient survives
        s = solve_series_2d(lambda t: np.cos(1.5 * t), 8)
        assert abs(s.coefficients[1] - 1.0) < 1e-12
        assert abs(s.coefficients[0]) < 1e-12

    def test_gauss_rule_matches_exact_coefficients(self):
        # cos^3(t/2) = 3/4 cos(t/2) + 1/4 cos(3t/2)
        s = solve_series_2d(lambda t: np.cos(t / 2.0) ** 3, 16)
        exact = np.zeros(16)
        exact[:2] = 0.75, 0.25
        assert np.abs(s.coefficients - exact).max() < 1e-11

    def test_evaluation_matches_polar_form(self):
        s = HalfAngleSeries(coefficients=np.array([1.0, 0.5]))
        r, th = 0.3, 1.1
        expect = math.sqrt(r) * math.cos(th / 2) + 0.5 * r**1.5 * math.cos(1.5 * th)
        assert abs(s.evaluate_polar(np.array(r), np.array(th)) - expect) < 1e-14

    def test_truncation_warning_fires(self):
        # data with slow cosine decay: a genuine jump at the slit ends
        with pytest.warns(TruncationWarning):
            s = solve_series_2d(lambda t: np.abs(np.cos(t / 2.0)) ** 0.25, 4)
        assert not s.resolved


class TestCutoff:
    def test_plateau_and_support(self):
        r = np.array([0.0, 0.1, 0.125, 0.25, 0.3, 1.0])
        chi = cutoff(r)
        assert np.all(chi[:3] == 1.0)
        assert np.all(chi[3:] == 0.0)

    def test_derivative_consistency(self):
        r = np.linspace(0.13, 0.24, 50)
        eps = 1e-6
        fd1 = (cutoff(r + eps) - cutoff(r - eps)) / (2 * eps)
        assert np.abs(fd1 - cutoff_d1(r)).max() < 1e-7
        fd2 = (cutoff_d1(r + eps) - cutoff_d1(r - eps)) / (2 * eps)
        scale = np.abs(cutoff_d2(r)).max()
        assert np.abs(fd2 - cutoff_d2(r)).max() < 1e-4 * scale


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

    def test_csv_roundtrip(self, sols, tmp_path):
        sol = sols[2**-5]
        path = tmp_path / "sol.csv"
        sol.save_csv(path)
        with open(path) as fh:
            header = fh.readline().strip()
        dims = "x".join(map(str, sol.dims))
        assert header == f"n=1,h=0.03125,dims={dims},grading=uniform"
        back = np.loadtxt(path, delimiter=",", skiprows=1).reshape(sol.dims)
        assert np.array_equal(back, sol.values)


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
    # flat n = 2 at h = 1/24 has more unknowns than the 25k direct-solve limit
    def _solve(self):
        return solve_fd(flat_geometry(2), lambda x1, x2, z: phi_flat_1(x2, z), h=1 / 24)

    def test_stalled_cg_reports_residual(self, monkeypatch):
        spla = types.SimpleNamespace(**vars(solver.spla))
        spla.cg = lambda A, b, **kw: (np.zeros_like(b), 2000)
        monkeypatch.setattr(solver, "spla", spla)
        with pytest.raises(NonConvergence, match=r"info=2000, relative residual 1\.00e\+00"):
            self._solve()


def _counting_spla(monkeypatch, name):
    """Replace ``solver.spla`` by a copy whose ``name`` records its calls."""
    calls = []
    spla = types.SimpleNamespace(**vars(solver.spla))
    real = getattr(spla, name)

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    setattr(spla, name, counting)
    monkeypatch.setattr(solver, "spla", spla)
    return calls


class TestDirectSolve:
    def test_split_solve_factors_once(self, monkeypatch):
        # the unsplit solve and both remainder solves share one factor
        calls = _counting_spla(monkeypatch, "splu")
        solve_fd(flat_geometry(1), phi_flat_1, h=2**-5, split=True)
        assert len(calls) == 1

    def test_unpivoted_factor_solves_accurately(self):
        # the symmetric ordering without pivoting on a uniform, a graded,
        # a stretched and a masked grid
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
            system = solver._FVSystem(axes, interior)
            b = rng.standard_normal(system.nun)
            x = system.solve(b)
            assert np.linalg.norm(system.A @ x - b) <= 1e-10 * np.linalg.norm(b)


def _disc_phi(t):
    return np.abs(np.cos(t / 2.0))


class TestDiscOracle:
    # split tip coefficients of the per-unknown assembly with bisected
    # arms and two separate spsolves, at h = 2^-6
    RECORDED = {-0.3: 0.8621755088279394, 0.0: 0.9954158199958812, 0.3: 1.1771285732927894}

    @pytest.mark.parametrize("gamma", sorted(RECORDED))
    def test_matches_recorded_tips_with_one_spsolve(self, monkeypatch, gamma):
        calls = _counting_spla(monkeypatch, "spsolve")
        a, _ = solver.solve_disc_2d(gamma, _disc_phi, h=2**-6)
        assert a == pytest.approx(self.RECORDED[gamma], rel=1e-12, abs=0.0)
        assert len(calls) == 1


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
        # energy is 2 u^T A u for the all-Neumann operator of the solve
        # plus the plate term
        sol = solver.empty_solution(flat_geometry(n), h, grading)
        grids = np.meshgrid(*sol.axes, indexing="ij")
        inside = sum(g**2 for g in grids) < 0.25
        u = np.random.default_rng(3).uniform(0.1, 1.0, sol.dims) * inside
        u[(grids[-1] == 0) & (grids[0] < 0)] = 0.0
        sol.values = u
        A = solver._FVSystem(sol.axes, np.ones(sol.dims, bool)).A
        plate = np.prod(np.meshgrid(*map(solver._cell_widths, sol.axes[:-1]), indexing="ij"), axis=0)
        expect = 2.0 * u.ravel() @ (A @ u.ravel()) + math.pi / 2.0 * plate[u[..., 0] > 0].sum()
        assert compute_energy(sol) == pytest.approx(expect, rel=1e-13, abs=0.0)
