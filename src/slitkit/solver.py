"""Reference solvers for the Laplacian on slit domains.

Three backends:

* an exact half-angle cosine series for the 2D problem with the slit on
  the negative x_1-axis, projected by one composite Gauss-Legendre rule
  (64 panels x 24 nodes; ~1e-12 for smooth data, rounding level for
  trigonometric data),
* a finite-volume discretization on tensor grids of the half space
  x_{n+1} >= 0 (even symmetry gives the Neumann plane for free), with
  optional singularity splitting that subtracts a fitted multiple of the
  edge profile so the remainder is smooth enough for second-order
  stencils,
* a Shortley-Weller disc solver used as an independent oracle by the
  free boundary pipeline.

Plus the barrier and energy utilities used by the compactness arguments.
The finite-volume solve, the Dirichlet energy and the barrier share one
description of the grid's cells and faces (``_cells``).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .errors import IllConditioned, MaskDegenerate, NonConvergence, TruncationWarning
from .geometry import SlitGeometry, frame_fields
from .xrpoly import _bump, _indices_of_degree, edge_bracket

# ----------------------------------------------------------------------
# Half-angle series (2D, slit on the negative x1-axis)
# ----------------------------------------------------------------------

@dataclass
class HalfAngleSeries:
    """u(r, theta) = sum_q c_q r^q cos(q theta), q = 1/2, 3/2, ...

    Even in x_2, harmonic off the slit, vanishing on theta = +-pi.
    """

    coefficients: np.ndarray  # c_q for q = (2j+1)/2, j = 0, 1, ...

    @property
    def orders(self) -> np.ndarray:
        return (2 * np.arange(len(self.coefficients)) + 1) / 2.0

    @property
    def resolved(self) -> bool:
        """The truncation rule: the last retained coefficient is at most 1e-8."""
        return abs(self.coefficients[-1]) <= 1e-8

    def evaluate_polar(self, r, theta):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        q = self.orders
        rq = np.power(r[..., None], q)
        return np.sum(self.coefficients * rq * np.cos(q * theta[..., None]), axis=-1)


def solve_series_2d(phi: Callable[[np.ndarray], np.ndarray], N: int) -> HalfAngleSeries:
    """Dirichlet solve on the slit disc by half-integer cosine projection.

    c_q = (1/pi) * integral_{-pi}^{pi} phi(theta) cos(q theta) dtheta;
    the half-integer cosines are orthogonal on the circle with the slit
    on the negative axis, so these are the exact coefficients.

    All projections are evaluated on one composite Gauss-Legendre grid
    (64 panels x 24 nodes), accurate to ~1e-12 for smooth data.  A
    series that fails the truncation rule (``HalfAngleSeries.resolved``)
    emits TruncationWarning.
    """
    qs = (2 * np.arange(N) + 1) / 2.0
    xg, wg = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(-math.pi, math.pi, 65)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    t = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    ph = np.asarray(phi(t), dtype=float)
    c = (np.cos(qs[:, None] * t[None, :]) * (ph * w)[None, :]).sum(axis=1) / math.pi
    series = HalfAngleSeries(coefficients=c)
    if not series.resolved:
        warnings.warn(
            f"series not resolved: |c_{qs[-1]}| = {abs(c[-1]):.3e} > 1e-08",
            TruncationWarning,
        )
    return series


# ----------------------------------------------------------------------
# Smooth cutoff for singularity splitting (C^5 polynomial smoothstep)
# ----------------------------------------------------------------------

_CHI_A, _CHI_B = 0.125, 0.25


def _smoothstep5(s):
    return s**6 * (462 + s * (-1980 + s * (3465 + s * (-3080 + s * (1386 - 252 * s)))))


def _smoothstep5_d1(s):
    return s**5 * (2772 + s * (-13860 + s * (27720 + s * (-27720 + s * (13860 - 2772 * s)))))


def _smoothstep5_d2(s):
    return s**4 * (13860 + s * (-83160 + s * (194040 + s * (-221760 + s * (124740 - 27720 * s)))))


def cutoff(r, a: float = _CHI_A, b: float = _CHI_B):
    """chi(r): 1 for r <= a, 0 for r >= b, C^5 in between."""
    s = np.clip((np.asarray(r, dtype=float) - a) / (b - a), 0.0, 1.0)
    return 1.0 - _smoothstep5(s)


def cutoff_d1(r, a: float = _CHI_A, b: float = _CHI_B):
    r = np.asarray(r, dtype=float)
    s = np.clip((r - a) / (b - a), 0.0, 1.0)
    out = -_smoothstep5_d1(s) / (b - a)
    return np.where((r > a) & (r < b), out, 0.0)


def cutoff_d2(r, a: float = _CHI_A, b: float = _CHI_B):
    r = np.asarray(r, dtype=float)
    s = np.clip((r - a) / (b - a), 0.0, 1.0)
    out = -_smoothstep5_d2(s) / (b - a) ** 2
    return np.where((r > a) & (r < b), out, 0.0)


# ----------------------------------------------------------------------
# Tensor grids on the half space
# ----------------------------------------------------------------------

def make_axes(n: int, h: float, grading: dict | None = None) -> list[np.ndarray]:
    """Coordinate arrays for the half-space box [-1,1]^n x [0,1].

    ``grading = {"type": "power", "p": p}`` maps the uniform parameter s
    through sign(s)|s|^p, clustering nodes near the coordinate planes
    (hence near the slit edge through the origin).
    """
    nx = int(round(2.0 / h)) + 1
    nz = int(round(1.0 / h)) + 1
    sx = np.linspace(-1.0, 1.0, nx)
    sz = np.linspace(0.0, 1.0, nz)
    if grading:
        if grading.get("type") != "power":
            raise ValueError(f"unknown grading {grading!r}")
        p = float(grading["p"])
        sx = np.sign(sx) * np.abs(sx) ** p
        sz = sz**p
    axes = [sx.copy() for _ in range(n)] + [sz]
    return axes


def _cell_widths(c: np.ndarray) -> np.ndarray:
    """Node-centered cell widths; the end cells are one-sided halves
    (at the z = 0 symmetry wall the cell is [c0, (c0+c1)/2])."""
    w = np.empty_like(c)
    w[1:-1] = (c[2:] - c[:-2]) / 2.0
    w[0] = (c[1] - c[0]) / 2.0
    w[-1] = (c[-1] - c[-2]) / 2.0
    return w


@dataclass
class GridSolution:
    """Finite-difference solution on a half-space tensor grid.

    ``values`` has shape ``dims`` = (len(axis_0), ..., len(axis_n));
    the last axis is the vertical coordinate (>= 0, even symmetry).
    """

    geom: SlitGeometry
    axes: list
    values: np.ndarray
    slit_mask: np.ndarray
    dirichlet_mask: np.ndarray
    h: float
    grading: dict | None = None
    frames: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return len(self.axes) - 1

    @property
    def dims(self) -> tuple:
        return tuple(len(a) for a in self.axes)

    def node_frames(self) -> dict:
        """Frame arrays (d, r, u0, nu, foot) at every node, cached."""
        if not self.frames:
            self.frames = _grid_frames(self.geom, self.axes)
        return self.frames

    def local_h(self) -> float:
        """Representative spacing near the edge (max axis step at the
        first few cells), used for the r >= 4h sampling exclusions."""
        steps = []
        for a in self.axes:
            i0 = int(np.argmin(np.abs(a)))
            i0 = min(max(i0, 0), len(a) - 2)
            steps.append(a[i0 + 1] - a[i0])
            if i0 + 4 < len(a):
                steps.append((a[i0 + 4] - a[i0]) / 4.0)
        return float(max(steps))

    def save_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            grading = "uniform" if not self.grading else f"power:{self.grading['p']}"
            dims = "x".join(str(d) for d in self.dims)
            fh.write(f"n={self.n},h={self.h!r},dims={dims},grading={grading}\n")
            np.savetxt(fh, self.values.reshape(-1, self.dims[-1]), delimiter=",", fmt="%.17g")


def empty_solution(geom: SlitGeometry, h: float,
                   grading: dict | None = None) -> GridSolution:
    """Zero values on the grid ``solve_fd`` uses: its axes, slit mask
    and outer Dirichlet mask, with no solve."""
    axes = make_axes(geom.n, h, grading)
    slit, outer, _ = _classify(geom, axes)
    return GridSolution(geom=geom, axes=axes, values=np.zeros(tuple(len(a) for a in axes)),
                        slit_mask=slit, dirichlet_mask=outer, h=h, grading=grading)


def _grid_frames(geom: SlitGeometry, axes: list) -> dict:
    n = len(axes) - 1
    grids = np.meshgrid(*axes, indexing="ij")
    Xh = np.stack([g.ravel() for g in grids[:n]], axis=1)
    Z = grids[n].ravel()
    fr = frame_fields(geom, Xh, Z)
    fr["x"] = Xh
    fr["z"] = Z
    return fr


def _classify(geom: SlitGeometry, axes: list):
    """Node classification: slit mask, outer Dirichlet, interior."""
    n = len(axes) - 1
    grids = np.meshgrid(*axes, indexing="ij")
    R2 = sum(g**2 for g in grids)
    outer = R2 >= 1.0

    xn = grids[n - 1]
    z = grids[n]
    g_of = geom.g(grids[0])
    # local x_n spacing for the half-cell mask shift
    a_n = axes[n - 1]
    dxn = np.empty_like(a_n)
    dxn[:-1] = np.diff(a_n)
    dxn[-1] = dxn[-2]
    shape = [1] * (n + 1)
    shape[n - 1] = len(a_n)
    dxn = dxn.reshape(shape)
    slit = (z == 0.0) & (xn <= g_of - dxn / 2.0) & ~outer
    if not slit.any():
        raise MaskDegenerate("slit mask is empty at this resolution")
    if slit.all() or not (~slit & ~outer & (z == 0.0)).any():
        raise MaskDegenerate("slit mask fills the symmetry plane")
    interior = ~outer & ~slit
    return slit, outer, interior


def _cells(axes: list):
    """Node-centered finite-volume cells of a tensor grid.

    Returns ``(vol, faces)``: the cell volumes, and per axis a face
    record ``(lo, hi, T)`` with the node slices on either side of each
    face and its transmissibility T = area / distance.  The solve, the
    Dirichlet energy and the barrier all read these.
    """
    widths = [_cell_widths(a) for a in axes]
    vol = functools.reduce(np.multiply, np.ix_(*widths))
    faces = []
    for i, (a, w) in enumerate(zip(axes, widths)):
        shape = [-1 if j == i else 1 for j in range(len(axes))]
        lo = (slice(None),) * i + (slice(0, -1),)
        hi = (slice(None),) * i + (slice(1, None),)
        faces.append((lo, hi, (vol / w.reshape(shape))[lo] / np.diff(a).reshape(shape)))
    return vol, faces


class _FVSystem:
    """Finite-volume operator on a half-space tensor grid, assembled
    once per grid and reused across solves (the matrix depends only on
    the node classification, not on the data).

    Fluxes between the node-centered cells of ``_cells``, the same cells
    and faces the energy and the barrier read; the z = 0 face is a
    natural (homogeneous Neumann) wall by the half-cell construction.
    SPD.  The system size selects one of two backends:

    * at most 150,000 unknowns in 2-D or 25,000 in 3-D: sparse LU,
      factored once per instance with a symmetric ordering on A^T + A and
      no pivoting, which keeps the factor small (5.8 M nonzeros against
      10.4 M for the default column ordering on the flat 2-D h = 1/256
      grid);
    * larger systems, where 3-D fill-in is prohibitive: Jacobi-
      preconditioned conjugate gradients to rtol 1e-11 in at most 2000
      iterations, NonConvergence with the relative residual otherwise.
    """

    def __init__(self, axes: list, interior: np.ndarray):
        self.dims = interior.shape
        self.vol, faces = _cells(axes)
        self.ii = np.nonzero(interior)
        self.nun = nun = len(self.ii[0])
        idx = np.full(self.dims, -1, dtype=np.int64)
        idx[self.ii] = np.arange(nun)
        flat_index = np.arange(interior.size).reshape(self.dims)

        diag = np.zeros(self.dims)
        rows, cols, vals = [], [], []
        # boundary coupling stored as (interior flat index, boundary
        # flat node index, transmissibility) for rhs assembly
        b_rows, b_nodes, b_T = [], [], []
        for lo, hi, T in faces:
            diag[lo] += T * interior[lo]
            diag[hi] += T * interior[hi]
            both = interior[lo] & interior[hi]
            rows.append(idx[lo][both])
            cols.append(idx[hi][both])
            vals.append(-T[both])
            for near, far in ((lo, hi), (hi, lo)):
                one = interior[near] & ~interior[far]
                b_rows.append(idx[near][one])
                b_nodes.append(flat_index[far][one])
                b_T.append(T[one])

        r = np.concatenate(rows)
        cm = np.concatenate(cols)
        v = np.concatenate(vals)
        dr = np.arange(nun)
        self.A = sparse.coo_matrix(
            (np.concatenate([v, v, diag[self.ii]]),
             (np.concatenate([r, cm, dr]), np.concatenate([cm, r, dr]))),
            shape=(nun, nun),
        ).tocsr()
        self.b_rows = np.concatenate(b_rows)
        self.b_nodes = np.concatenate(b_nodes)
        self.b_T = np.concatenate(b_T)
        self._lu = None

    def rhs(self, dirichlet_values: np.ndarray, rhs_field: np.ndarray) -> np.ndarray:
        b = (rhs_field * self.vol)[self.ii].copy()
        np.add.at(b, self.b_rows, self.b_T * dirichlet_values.ravel()[self.b_nodes])
        return b

    def solve(self, b: np.ndarray, x0=None) -> np.ndarray:
        ndim = len(self.dims)
        if self.nun <= (150_000 if ndim <= 2 else 25_000):
            if self._lu is None:
                self._lu = spla.splu(self.A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})
            return self._lu.solve(b)
        M = sparse.diags(1.0 / self.A.diagonal())
        bnorm = np.linalg.norm(b)
        x, info = spla.cg(self.A, b, rtol=1e-11, atol=1e-11 * max(bnorm, 1.0),
                          maxiter=2000, M=M, x0=x0)
        if info != 0:
            resid = np.linalg.norm(b - self.A @ x) / max(bnorm, 1e-300)
            raise NonConvergence(f"conjugate gradients stalled (info={info}, "
                                 f"relative residual {resid:.2e})")
        return x


# ----------------------------------------------------------------------
# Singularity splitting
# ----------------------------------------------------------------------

def _xpow(x: np.ndarray, mu) -> np.ndarray:
    """x^mu at every row of the point array x."""
    c = np.ones(len(x))
    for i, e in enumerate(mu):
        if e:
            c = c * x[:, i] ** e
    return c


def _poly_columns(n: int, degree: int):
    """Multi-index/r-power keys of total degree <= degree, sorted."""
    return [(mu, m) for deg in range(degree + 1) for m in range(deg + 1)
            for mu in _indices_of_degree(n, deg - m)]


def _vandermonde(keys, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Columns x^mu r^m, one per key, at the sample points (x, r)."""
    B = np.empty((len(r), len(keys)))
    for j, (mu, m) in enumerate(keys):
        c = _xpow(x, mu)
        B[:, j] = c * r**m if m else c
    return B


def _lstsq_poly(n: int, degree: int, x, r, values, scale=None, dist=None,
                dist_power: float = 0.0, cond_limit: float | None = None):
    """Keys and least-squares coefficients of values ~ scale * P(x, r).

    P runs over the monomials of total degree <= degree.  Rows are
    weighted by dist^-dist_power when dist_power > 0; ``cond_limit``
    bounds the condition number of the weighted design matrix.
    """
    keys = _poly_columns(n, degree)
    B = _vandermonde(keys, x, r)
    if scale is not None:
        B = B * scale[:, None]
    if dist_power > 0.0:
        w = 1.0 / np.maximum(dist, 1e-6) ** dist_power
        B = B * w[:, None]
        values = values * w
    if cond_limit is not None:
        cond = np.linalg.cond(B)
        if cond > cond_limit:
            raise IllConditioned(f"polynomial fit condition number {cond:.2e}")
    coef, *_ = np.linalg.lstsq(B, values, rcond=None)
    return keys, coef


def _fit_split_coefficients(sol: GridSolution, r_lo: float, r_hi: float,
                            degree: int = 3):
    """Weighted LSQ of u/U0 on an annulus around the edge against the
    monomials x^mu r^m of total degree <= degree.

    Weights U0^2 make the normal equations the plain least squares of u
    against U0 times the monomial columns.
    """
    fr = sol.node_frames()
    r = fr["r"]
    u0 = fr["u0"]
    sel = (r >= r_lo) & (r <= r_hi) & (u0 > 0) & ~sol.dirichlet_mask.ravel()
    if sel.sum() < 30:
        raise MaskDegenerate("too few annulus nodes for the splitting fit")
    return _lstsq_poly(sol.n, degree, fr["x"][sel], r[sel], sol.values.ravel()[sel],
                       scale=u0[sel])


def _laplacian_d(sol: GridSolution):
    """Delta d at the nodes: curvature of the parallel curves through
    the foot point, zero for flat geometry."""
    fr = sol.node_frames()
    geom = sol.geom
    if geom.flat:
        return np.zeros_like(fr["r"])
    t = fr["foot"]
    gp = np.asarray(geom.dg(t), dtype=float)
    gpp = np.asarray(geom.d2g(t), dtype=float)
    kap0 = gpp / (1.0 + gp**2) ** 1.5
    return -kap0 / (1.0 - kap0 * fr["d"])


def _split_field_and_laplacian(sol: GridSolution, keys, coef):
    """S = chi(r) U0 P(x, r) for a polynomial P, with the exact
    continuous Laplacian of S evaluated from the frame fields.

    Rests on the pointwise identities |grad r| = 1,
    grad r . grad U0 = U0/(2r), Delta r = (1 + d Delta d)/r,
    Delta U0 = (Delta d / 2) U0/r, grad_x U0 = nu U0/(2r), and
    grad x^mu . grad r = sum_i mu_i x^(mu-i) d nu^i / r.
    """
    fr = sol.node_frames()
    r = fr["r"]
    d = fr["d"]
    u0 = fr["u0"]
    nu = fr["nu"]
    x = fr["x"]
    lap_d = _laplacian_d(sol)

    inv_r = np.where(r > 0, 1.0 / np.where(r > 0, r, 1.0), 0.0)

    P = np.zeros_like(r)
    bracket = np.zeros_like(r)       # Delta(U0 P) = (U0/r) * bracket
    radial = np.zeros_like(r)        # grad r . grad(U0 P) = U0 * radial
    for (mu, m), a in zip(keys, coef):
        if a == 0.0:
            continue
        # per-monomial caches: the bracket, P and the radial term share
        # these node powers, and a grid-wide cache would cost memory
        xpow = functools.cache(lambda k: _xpow(x, k))
        rpow = functools.cache(lambda j: r**j)
        xmu = xpow(mu)
        rm1 = rpow(m - 1) if m >= 1 else inv_r
        P += a * xmu * rpow(m)
        bracket += a * edge_bracket(mu, m, xpow, rpow, d, nu.T, lap_d, 0.5)
        grad_mu_nu = sum(e * xpow(_bump(mu, i, -1)) * nu[:, i] for i, e in enumerate(mu) if e)
        radial += a * (xmu * (m + 0.5) * rm1 + rm1 * d * grad_mu_nu)

    chi = cutoff(r)
    chi1 = cutoff_d1(r)
    chi2 = cutoff_d2(r)
    lap_r = (1.0 + d * lap_d) * inv_r

    S = chi * u0 * P
    lap_S = (chi * u0 * inv_r * bracket
             + 2.0 * chi1 * u0 * radial
             + (chi2 + chi1 * lap_r) * u0 * P)
    lap_S = np.where(r == 0.0, 0.0, lap_S)
    return S, lap_S


# ----------------------------------------------------------------------
# Main FD entry point
# ----------------------------------------------------------------------

def solve_fd(geom: SlitGeometry, phi: Callable, h: float = 2**-6,
             grading: dict | None = None, split: bool = False,
             raw_rhs: Callable | None = None) -> GridSolution:
    """Solve Delta u = raw_rhs (default 0) on the slit half-space grid:
    Dirichlet phi outside the unit sphere, zero on the slit mask,
    natural Neumann on the symmetry plane.

    ``phi(x..., z)`` and ``raw_rhs(x..., z)`` take coordinate arrays.  With
    ``split=True`` a fitted multiple of the edge profile is subtracted
    and re-added, restoring near-second-order convergence.
    """
    sol = empty_solution(geom, h, grading)
    axes, dims, slit, outer = sol.axes, sol.dims, sol.slit_mask, sol.dirichlet_mask
    interior = ~outer & ~slit

    grids = np.meshgrid(*axes, indexing="ij")
    coords = [g.ravel() for g in grids]
    phi_vals = np.asarray(phi(*coords), dtype=float) * np.ones(len(coords[0]))
    diri_vals = np.where(outer.ravel(), phi_vals, 0.0).reshape(dims)

    rhs = np.zeros(dims)
    if raw_rhs is not None:
        rhs += np.asarray(raw_rhs(*coords), dtype=float).reshape(dims)

    system = _FVSystem(axes, interior)
    last_u = None

    def run(dirichlet, rhs_field):
        nonlocal last_u
        b = system.rhs(dirichlet, -rhs_field)
        u = system.solve(b, x0=last_u)
        last_u = u
        out = dirichlet.copy()
        out[interior] = u
        out[slit] = 0.0
        return out

    sol.values = run(diri_vals, rhs)
    if not split:
        return sol

    # iterate fit -> resolve: the first fit inherits the unsplit
    # O(h^(1/2)) error, the second works from a much better solution
    r_lo = max(0.02, 6 * sol.local_h())
    r_hi = max(0.12, 2.5 * r_lo)
    for _ in range(2):
        keys, coef = _fit_split_coefficients(sol, r_lo, r_hi)
        S, lap_S = _split_field_and_laplacian(sol, keys, coef)
        S = S.reshape(dims)
        lap_S = lap_S.reshape(dims)
        v_diri = np.where(outer, diri_vals - S, 0.0)
        v = run(v_diri, rhs - lap_S)
        sol.values = v + S
        sol.values[slit] = 0.0
        sol.values[outer] = diri_vals[outer]
    return sol


# ----------------------------------------------------------------------
# Barrier and energy
# ----------------------------------------------------------------------

def check_barrier(geom: SlitGeometry, h: float = 2**-6) -> float:
    """min over off-slit nodes of r * Delta_h(-U0 + U0^2).

    Delta_h is the finite-volume Laplacian of ``_cells``: the net face
    flux sum T * (jump across the face) over the cell volume, which at
    z = 0 is the even reflection through the half cell.  The continuum
    object satisfies Delta(-U0 + U0^2) = 2|grad U0|^2 = (1/2) r^{-1} for
    flat geometry, so the minimum should be a positive constant, stably
    in h.  Nodes with r < 4h are excluded: within O(h) of the edge the
    discrete Laplacian of the r^{1/2} profile is dominated by an
    O(h^{-1/2}) stencil artifact of either sign, which the continuum
    estimate does not control.  So is the slit itself (z = 0, d < 0),
    where the stencil reaches across the jump, and every node with
    |X| >= 0.9, which takes in the box faces.
    """
    axes = make_axes(geom.n, h, None)
    fr = _grid_frames(geom, axes)
    vol, faces = _cells(axes)
    u0 = fr["u0"].reshape(vol.shape)
    w = -u0 + u0**2
    div = np.zeros(vol.shape)
    for lo, hi, T in faces:
        flux = T * (w[hi] - w[lo])
        div[lo] += flux
        div[hi] -= flux
    lap = (div / vol).ravel()

    r = fr["r"]
    R2 = sum(x**2 for x in fr["x"].T) + fr["z"] ** 2
    sel = (R2 < 0.81) & (r >= 4 * h) & ~((fr["z"] == 0) & (fr["d"] < 0))
    if not sel.any():
        raise MaskDegenerate("no admissible nodes for the barrier check")
    return float(np.min(r[sel] * lap[sel]))


def compute_energy(sol: GridSolution) -> float:
    """Dirichlet energy over the reflected ball plus the plate term.

    E = 2 sum T (u[hi] - u[lo])^2 over the ``_cells`` faces whose
    midpoint lies in {|X| < 1} (the even reflection doubles the
    half-space sum; T * jump^2 is |grad_h u|^2 times the face's cell
    measure) + (pi/2) * measure({u > 0, z = 0}), with one-sided
    differences at the slit.
    """
    axes = sol.axes
    u = sol.values
    _, faces = _cells(axes)
    E = 0.0
    for i, (lo, hi, T) in enumerate(faces):
        mids = [a if j != i else (a[:-1] + a[1:]) / 2.0 for j, a in enumerate(axes)]
        mid_in = sum(m**2 for m in np.ix_(*mids)) < 1.0
        E += 2.0 * np.sum((T * (u[hi] - u[lo]) ** 2)[mid_in])

    # plate measure {u > 0} on z = 0 inside the ball
    plate = functools.reduce(np.multiply, np.ix_(*map(_cell_widths, axes[:-1])))
    inside = sum(x**2 for x in np.ix_(*axes[:-1])) < 1.0
    measure_plate = float(np.sum(plate[(u[..., 0] > 0) & inside]))
    return float(E + (math.pi / 2.0) * measure_plate)


# ----------------------------------------------------------------------
# Shortley-Weller disc solver (independent oracle for the tip problem)
# ----------------------------------------------------------------------

def solve_disc_2d(gamma: float, phi: Callable[[float], float], h: float = 2**-8):
    """Dirichlet solve on the unit disc minus the slit {y = 0, x <= gamma}.

    ``phi(theta)`` is the circle data (even in theta), called once per
    arm point with a float.  Returns (tip coefficient a, callable
    solution samples) where a is the fitted coefficient of
    sqrt(distance to tip) along the edge direction.  The discretization
    is the five-point stencil with an irregular arm to the circle, with
    tip splitting.  The regular arm opposite a circle arm keeps
    the weight 1/h^2, not Shortley-Weller's 2/((1 + alpha) h^2), so the
    error next to the circle is first order in h.  The split right-hand
    side is linear in the fitted tip coefficient, so one sparse LU solve
    with two right-hand sides serves both the plain and the split system.
    """
    nx = int(round(2.0 / h)) + 1
    ny = int(round(1.0 / h)) + 1
    xs = np.linspace(-1.0, 1.0, nx)
    ys = np.linspace(0.0, 1.0, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    inside = X**2 + Y**2 < 1.0
    slit = (Y == 0.0) & (X <= gamma - h / 2.0)
    unknown = inside & ~slit
    idx = -np.ones((nx, ny), dtype=np.int64)
    ii = np.nonzero(unknown)
    nun = len(ii[0])
    idx[ii] = np.arange(nun)

    dgt = X - gamma
    rgt = np.hypot(dgt, Y)
    with np.errstate(invalid="ignore"):
        u0g = np.sqrt(np.maximum((dgt + rgt) / 2.0, 0.0))

    # A approximates -Delta.  Unknowns lie strictly inside the circle, so
    # every neighbour index is in the box once the lower neighbour of a
    # y = 0 node is reflected to y = h (even symmetry).  A neighbour on
    # the slit (zero data) or an unknown one adds 1/h^2 to the diagonal,
    # and an unknown one also -1/h^2 off it; an arm to the circle adds
    # 2/(alpha (1 + alpha) h^2) and moves the circle data to the rhs.
    i, j = ii
    x, y = xs[i], ys[j]
    w = 1.0 / h**2
    diag = np.zeros(nun)
    rows, cols = [np.arange(nun)], [np.arange(nun)]
    arms = []   # per direction: unknowns, arm points, alpha (1 + alpha) h^2
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        nb = (i + di, np.abs(j + dj))
        k = np.nonzero(~inside[nb])[0]
        # arm to the circle: fractional length alpha*h, where the ray
        # meets x^2 + y^2 = 1
        xa, ya = x[k], y[k]
        if di:
            alpha = (np.sqrt(1.0 - ya**2) - di * xa) / h
        else:
            alpha = (np.sqrt(1.0 - xa**2) - dj * ya) / h
        alpha = np.maximum(alpha, 1e-6)
        denom = alpha * (1.0 + alpha) * h**2
        arms.append((k, xa + di * alpha * h, ya + dj * alpha * h, denom))
        term = np.full(nun, w)
        term[k] = 2.0 / denom
        diag += term
        coupled = np.nonzero(idx[nb] >= 0)[0]
        rows.append(coupled)
        cols.append(idx[nb][coupled])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    vals = np.concatenate([diag, np.full(len(rows) - nun, -w)])
    A = sparse.coo_matrix((vals, (rows, cols)), shape=(nun, nun)).tocsc()

    def boundary_rhs(value):
        """Circle data ``value(x, y)`` at the arm points, as the stencil
        moves it to the right-hand side."""
        b = np.zeros(nun)
        for k, xb, yb, denom in arms:
            g = np.array([value(p, q) for p, q in zip(xb.tolist(), yb.tolist())], dtype=float)
            b[k] += 2.0 * g / denom
        return b

    def tip(uflat, r_lo, r_hi):
        """Coefficient of U0 in the fit uflat ~ U0 (c + c_d d + c_r r)."""
        r, d, w0 = rgt[ii], dgt[ii], u0g[ii]
        sel = (r >= r_lo) & (r <= r_hi) & (w0 > 0)
        return float(_lstsq_poly(1, 1, d[sel][:, None], r[sel], uflat[sel], scale=w0[sel])[1][0])

    b = boundary_rhs(lambda xb, yb: phi(math.atan2(yb, xb)))
    # S = c S1 with S1 = chi U0 about the tip.  v = u_f - S solves
    # A v = b + c b_S1 with b_S1 = Delta S1 - (S1 on the circle), so
    # v = u + c w for the solutions u, w of the two columns
    a_cut = min(0.125, (1.0 - abs(gamma)) / 3.0)
    b_cut = 2.0 * a_cut
    with np.errstate(divide="ignore", invalid="ignore"):
        lap_S1 = u0g * (cutoff_d2(rgt, a_cut, b_cut)
                        + 2.0 * cutoff_d1(rgt, a_cut, b_cut) / np.where(rgt > 0, rgt, 1.0))
    lap_S1 = np.where(rgt == 0, 0.0, lap_S1)

    def S1_at(xb, yb):
        dg = xb - gamma
        rg = math.hypot(dg, yb)
        return float(cutoff(rg, a_cut, b_cut)) * math.sqrt(max((dg + rg) / 2.0, 0.0))

    b_S1 = lap_S1[ii] - boundary_rhs(S1_at)
    # A's pattern is symmetric, and a symmetric ordering keeps the factor small
    u, w_S1 = spla.spsolve(A, np.column_stack([b, b_S1]), permc_spec="MMD_AT_PLUS_A").T
    r_lo, r_hi = max(0.02, 6 * h), 0.08
    c = tip(u, r_lo, max(r_hi, 2.5 * r_lo))
    uf = u + c * (w_S1 + (cutoff(rgt, a_cut, b_cut) * u0g)[ii])
    return tip(uf, 4 * h, 24 * h), (xs, ys, _scatter(uf, idx, nx, ny))


def _scatter(u, idx, nx, ny):
    out = np.zeros((nx, ny))
    sel = idx >= 0
    out[sel] = u[idx[sel]]
    return out
