"""Reference solvers for the Laplacian on slit domains.

Three backends:

* an exact half-angle cosine series for the 2D problem with the slit on
  the negative x_1-axis, projected by one composite Gauss-Legendre rule
  (64 panels x 24 nodes; ~1e-12 for smooth data, rounding level for
  trigonometric data), at the length its truncation rule picks,
* a finite-volume discretization on tensor grids of the half space
  x_{n+1} >= 0 (even symmetry gives the Neumann plane for free), with
  optional singularity splitting that subtracts a fitted multiple of the
  edge profile so the remainder is smooth enough for second-order
  stencils; every system, 2-D or 3-D, is solved by conjugate gradients
  preconditioned by a geometric multigrid V-cycle smoothed by line
  blocks and, where graded 3-D cells are thin in two directions, plane
  blocks, one ``_Multigrid`` object per system owning its levels, cycle
  and CG,
* a Shortley-Weller disc solver used as an independent oracle by the
  free boundary pipeline.

Plus the barrier and energy utilities used by the compactness arguments.
The Dirichlet energy and the FV Laplacian share one description of the
grid's cells and faces (``_cells``), and the solve and the barrier apply
that one Laplacian (``_fv_laplacian``).  Both splittings
(the grid's and the disc's tip splitting) take the cutoff and its two
derivatives from one ``cutoff`` call, and the grid's reads its monomials
from ``xrpoly._xpow``, the float monomial routine ``whitney`` also uses.

SciPy's sparse, sparse-solver and LAPACK layers are the module globals
``sparse``, ``spla`` and ``lapack``, bound to ``_Deferred`` stand-ins
that import the real module at their first attribute read.  So
``import slitkit`` loads none of them, and a process loads them at its
first sparse operator: a grid solve, the disc solve or the barrier.
Every call reads the three names at call time, so replacing one on this
module (a counting copy of ``spla``, say) reaches every solve.
"""

from __future__ import annotations

import functools
import importlib
import logging
import math
import time
import types
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import IllConditioned, MaskDegenerate, NonConvergence, TruncationWarning
from .geometry import SlitGeometry, frame_fields
from .xrpoly import _bump, _indices_of_degree, _xpow, edge_bracket

_LOG = logging.getLogger("slitkit")


class _Deferred(types.ModuleType):
    """Stands for the module of its name, imported at the first read of
    an attribute this object lacks; the module's namespace is then copied
    in, so later reads are plain attribute hits."""

    def __getattr__(self, attr):
        module = importlib.import_module(self.__name__)
        self.__dict__.update(vars(module))
        return getattr(module, attr)


sparse = _Deferred("scipy.sparse")
spla = _Deferred("scipy.sparse.linalg")
lapack = _Deferred("scipy.linalg.lapack")

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


def _gauss_rule():
    """Composite Gauss-Legendre rule on [-pi, pi]: 64 panels x 24 nodes."""
    xg, wg = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(-math.pi, math.pi, 65)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    t = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    return t, (half[:, None] * wg[None, :]).ravel()


_RULE_T, _RULE_W = _gauss_rule()


def _half_angle_projection(phi: Callable[[np.ndarray], np.ndarray], N: int) -> np.ndarray:
    """c_q = (1/pi) * integral_{-pi}^{pi} phi(theta) cos(q theta) dtheta
    for q = 1/2, ..., N - 1/2 from one phi evaluation on the rule."""
    qs = (2 * np.arange(N) + 1) / 2.0
    ph = np.asarray(phi(_RULE_T), dtype=float)
    return (np.cos(qs[:, None] * _RULE_T[None, :]) * (ph * _RULE_W)[None, :]).sum(axis=1) / math.pi


def solve_series_2d(phi: Callable[[np.ndarray], np.ndarray]) -> HalfAngleSeries:
    """Dirichlet solve on the slit disc: the half-integer cosines are
    orthogonal on the circle slit along the negative axis, so the
    projections are the exact coefficients.  The series has the first of
    64, 128 and 256 terms that passes its truncation rule
    (``HalfAngleSeries.resolved``), else emits TruncationWarning.  On the
    pulled-back |cos(theta/2)| the rule is good to 1e-14 up to 256 terms
    and off by 3.5e-10 at 512.
    """
    c = _half_angle_projection(phi, 256)
    for N in (64, 128, 256):
        series = HalfAngleSeries(coefficients=c[:N])
        if series.resolved:
            return series
    warnings.warn(f"series not resolved: |c_{series.orders[-1]}| = {abs(c[-1]):.3e} > 1e-08",
                  TruncationWarning)
    return series


# ----------------------------------------------------------------------
# Smooth cutoff for singularity splitting (C^5 polynomial smoothstep)
# ----------------------------------------------------------------------

_CHI_A, _CHI_B = 0.125, 0.25


def cutoff(r, a: float = _CHI_A, b: float = _CHI_B):
    """(chi, chi', chi'') at r, from one clip s = (r - a)/(b - a) to [0, 1].

    chi = 1 - S(s) with the C^5 smoothstep S(s) = s^6 (462 - 1980 s + ...),
    so chi is 1 for r <= a, 0 for r >= b and C^5 in between; the two
    derivatives are zero outside the open band (a, b).
    """
    r = np.asarray(r, dtype=float)
    s = np.clip((r - a) / (b - a), 0.0, 1.0)
    band = (r > a) & (r < b)
    chi = 1.0 - s**6 * (462 + s * (-1980 + s * (3465 + s * (-3080 + s * (1386 - 252 * s)))))
    d1 = s**5 * (2772 + s * (-13860 + s * (27720 + s * (-27720 + s * (13860 - 2772 * s)))))
    d2 = s**4 * (13860 + s * (-83160 + s * (194040 + s * (-221760 + s * (124740 - 27720 * s)))))
    return chi, np.where(band, -d1 / (b - a), 0.0), np.where(band, -d2 / (b - a) ** 2, 0.0)


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


def empty_solution(geom: SlitGeometry, h: float,
                   grading: dict | None = None) -> GridSolution:
    """Zero values on the grid ``solve_fd`` uses: its axes, slit mask
    and outer Dirichlet mask, with no solve."""
    axes = make_axes(geom.n, h, grading)
    slit, outer, _ = _classify(geom, axes)
    return GridSolution(geom=geom, axes=axes, values=np.zeros(tuple(len(a) for a in axes)),
                        slit_mask=slit, dirichlet_mask=outer, h=h)


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
    grids = np.ix_(*axes)
    outer = sum(g**2 for g in grids) >= 1.0
    # local x_n spacing for the half-cell mask shift
    d = np.diff(axes[n - 1])
    dxn = np.append(d, d[-1]).reshape(grids[n - 1].shape)
    slit = (grids[n] == 0.0) & (grids[n - 1] <= geom.g(grids[0]) - dxn / 2.0) & ~outer
    if not slit.any():
        raise MaskDegenerate("slit mask is empty at this resolution")
    if slit.all() or not (~slit & ~outer & (grids[n] == 0.0)).any():
        raise MaskDegenerate("slit mask fills the symmetry plane")
    interior = ~outer & ~slit
    return slit, outer, interior


def _cells(axes: list):
    """Node-centered finite-volume cells of a tensor grid.

    Returns ``(vol, faces)``: the cell volumes, and per axis a face
    record ``(lo, hi, T)`` with the node slices on either side of each
    face and its transmissibility T = area / distance.  The FV Laplacian
    (``_fv_laplacian``) and the Dirichlet energy read these.
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


def _fv_laplacian(axes: list):
    """The finite-volume Laplacian on every node of a tensor grid.

    Returns ``(vol, L)``: the ``_cells`` volumes and the symmetric CSR
    matrix with (L u)_i = sum T (u_j - u_i) over the faces of cell i, so
    L u / vol is Delta_h u.  The z = 0 face is a natural (homogeneous
    Neumann) wall by the half-cell construction.  The solve inverts -L
    on its interior nodes, and the barrier applies L itself.
    """
    vol, faces = _cells(axes)
    node = np.arange(vol.size, dtype=np.int32).reshape(vol.shape)
    diag = np.zeros(vol.shape)
    rows, cols, vals = [], [], []
    for lo, hi, T in faces:
        diag[lo] -= T
        diag[hi] -= T
        rows.append(node[lo].ravel())
        cols.append(node[hi].ravel())
        vals.append(T.ravel())
    r, c, v = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    dr = node.ravel()
    L = sparse.coo_matrix((np.concatenate([v, v, diag.ravel()]),
                           (np.concatenate([r, c, dr]), np.concatenate([c, r, dr]))),
                          shape=(vol.size, vol.size)).tocsr()
    return vol, L


_COARSEST = 3_000       # coarsening stops at this many unknowns
_PLANE_RATIO = 2.0      # plane-block cells are over this many times longer along the axis
_PLANE_SIDE = 24        # a plane block spans at most this many indices per side
_CYCLE_BUDGET = 100     # CG iterations, one V-cycle each
_FIT_RTOL = 1e-6        # CG rtol of a solve that only feeds the split fit


def _prolongation(axes: list, idx: list, mask: np.ndarray, coarse_mask: np.ndarray):
    """Tensor-product linear interpolation in the graded coordinates from
    the unknowns ``coarse_mask`` of the coarse grid (the nodes ``idx``)
    to the unknowns ``mask`` of the fine grid, as float32 CSR: the
    Kronecker product of the per-axis 1-D interpolations, restricted to
    those unknowns."""
    factors = []
    for a, i in zip(axes, idx):
        # each fine node lies in the coarse interval [lo, lo + 1]
        lo = np.minimum(np.searchsorted(i, np.arange(len(a)), side="right") - 1, len(i) - 2)
        hi = (a - a[i][lo]) / (a[i][lo + 1] - a[i][lo])
        P = sparse.csr_matrix((np.column_stack([1.0 - hi, hi]).ravel(),
                               np.column_stack([lo, lo + 1]).ravel(),
                               np.arange(0, 2 * len(a) + 1, 2)), shape=(len(a), len(i)))
        P.eliminate_zeros()
        factors.append(P)
    P = functools.reduce(lambda p, q: sparse.kron(p, q, format="csr"), factors)
    return P[np.flatnonzero(mask)][:, np.flatnonzero(coarse_mask)].astype(np.float32)


def _couplings(A, mask: np.ndarray):
    """What the smoother's blocks read of the operator A on the unknowns
    ``mask`` of a grid: the unknown number of each node (-1 off them),
    A's diagonal and, per axis, each unknown's coupling to the next node
    along the axis (zero where that node is not an unknown)."""
    number = np.full(mask.shape, -1, dtype=np.int32)
    number[mask] = np.arange(A.shape[0], dtype=np.int32)
    node = np.flatnonzero(mask).astype(np.int32)
    entries = np.diff(A.indptr)
    rows = np.repeat(np.arange(A.shape[0], dtype=np.int32), entries)
    # the node step of each stored entry: its column's node less its row's
    step = node[A.indices]
    step -= np.repeat(node, entries)
    uppers = []
    for stride in np.cumprod((mask.shape[1:] + (1,))[::-1])[::-1]:
        at = np.flatnonzero(step == stride)
        upper = np.zeros(A.shape[0], dtype=A.dtype)
        upper[rows[at]] = A.data[at]
        uppers.append(upper)
    return number, A.diagonal(), uppers


class _Line(NamedTuple):
    """The tridiagonal line blocks of one axis: the unknowns lined up
    along the axis by ``perm`` (None on z, whose lines are contiguous),
    ``inv`` its inverse, and the float32 ``spttrf`` factors (d, e)."""

    perm: np.ndarray | None
    inv: np.ndarray | None
    d: np.ndarray
    e: np.ndarray

    def __call__(self, A, b, x):
        """One block-Jacobi sweep of A x = b; from zero when x is None."""
        r = b if x is None else b - A @ x
        t = lapack.spttrs(self.d, self.e, r if self.perm is None else np.take(r, self.perm))[0]
        if self.perm is not None:
            t = np.take(t, self.inv)
        if x is None:
            return t
        x += t
        return x


class _Plane(NamedTuple):
    """The plane blocks of one axis as one banded system: ``unknowns``
    in band order, their ``band_rows`` (the other rows are identity
    padding), their float32 rows ``A_rows`` of the level operator, and
    the ``spbtrf`` Cholesky factor of the band in lower storage."""

    unknowns: np.ndarray
    band_rows: np.ndarray
    A_rows: object
    factor: np.ndarray

    def __call__(self, A, b, x):
        """One block-Jacobi sweep of A x = b over the block's unknowns;
        the residual is formed on those rows of A only."""
        r = np.zeros(self.factor.shape[1], dtype=np.float32)
        r[self.band_rows] = np.take(b, self.unknowns) - self.A_rows @ x
        t = lapack.spbtrs(self.factor, r, lower=1, overwrite_b=1)[0]
        x[self.unknowns] += t[self.band_rows]
        return x


def _line_factors(number: np.ndarray, diag: np.ndarray, uppers: list) -> list:
    """Per axis, the ``_Line`` of the tridiagonal line blocks of a float32
    operator, from its ``_couplings``; a line is every unknown of one
    grid line."""
    lines = []
    for axis, upper in enumerate(uppers):
        perm = inv = None
        d = diag
        if axis < number.ndim - 1:
            perm = np.moveaxis(number, axis, -1).ravel()
            perm = perm[perm >= 0]
            inv = np.empty_like(perm)
            inv[perm] = np.arange(len(perm), dtype=np.int32)
            upper, d = upper[perm], diag[perm]
        d, e, info = lapack.spttrf(d, upper[:-1])
        if info != 0:
            raise np.linalg.LinAlgError(f"line block of axis {axis} is not positive "
                                        f"definite (info={info})")
        lines.append(_Line(perm, inv, d, e))
    return lines


def _plane_blocks(A, axes: list, number: np.ndarray, diag: np.ndarray, uppers: list) -> list:
    """Per axis a of a 3-D grid, the ``_Plane`` of the plane blocks of the
    float32 operator A, from its ``_couplings``; none on a 2-D grid.

    The block of a-index i is the (b, c) rectangle of the other two axes'
    indices whose cell widths are below w_a[i] / ``_PLANE_RATIO``, at most
    the ``_PLANE_SIDE`` narrowest per side: there the cells are thin
    across the plane, and a line sweep leaves its error.  A rectangle
    without unknowns is dropped.  The blocks of one axis are one banded
    matrix, block by block with each one's shorter side fastest, so the
    bandwidth is the longest shorter side; a node that is not an unknown
    is an identity row, and the couplings along a are dropped.
    """
    if number.ndim != 3:
        return []
    widths = [_cell_widths(a) for a in axes]
    planes = []
    for a in range(3):
        b, c = (k for k in range(3) if k != a)
        # per side axis and a-index, how many of its indices are narrow
        # enough (capped), and for each count m its m narrowest indices
        counts, narrowest = [], []
        for k in (b, c):
            order = np.argsort(widths[k], kind="stable")[:_PLANE_SIDE]
            counts.append(np.minimum(np.searchsorted(np.sort(widths[k]),
                                                     widths[a] / _PLANE_RATIO), len(order)))
            table = np.zeros((len(order) + 1, len(order)), dtype=np.intp)
            for m in range(1, len(order) + 1):
                table[m, :m] = np.sort(order[:m])
            narrowest.append(table)
        index = np.flatnonzero((counts[0] > 0) & (counts[1] > 0))
        nb, nc = counts[0][index], counts[1][index]
        # the rows of each rectangle, its shorter side fastest
        fast_c = nc <= nb
        short, long_, size = np.where(fast_c, nc, nb), np.where(fast_c, nb, nc), nb * nc
        block = np.repeat(np.arange(len(index)), size)
        local = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        fast_c, short, long_ = fast_c[block], short[block], long_[block]
        j_short, j_long = local % short, local // short
        ib = narrowest[0][nb[block], np.where(fast_c, j_long, j_short)]
        ic = narrowest[1][nc[block], np.where(fast_c, j_short, j_long)]
        node = [None] * 3
        node[a], node[b], node[c] = index[block], ib, ic
        unknown = number[tuple(node)]
        keep = (np.bincount(block, weights=unknown >= 0, minlength=len(index)) > 0)[block]
        if not keep.any():
            continue
        unknown, fast_c, short, long_, j_short, j_long, ib, ic = (
            v[keep] for v in (unknown, fast_c, short, long_, j_short, j_long, ib, ic))
        known = unknown >= 0
        u = np.where(known, unknown, 0)
        ab = np.zeros((short.max() + 1, len(u)), dtype=np.float32)
        ab[0] = np.where(known, diag[u], 1.0)
        # each unknown's coupling to the row one step on along each side
        # (band offset 1 along the shorter side, its length along the
        # longer), where that row is the next node of the grid
        for along_c, offset, j, n in ((fast_c, np.ones_like(short), j_short, short),
                                      (~fast_c, short, j_long, long_)):
            at = np.where(along_c, ic, ib)
            row = np.flatnonzero(known & (j + 1 < n))
            row = row[at[row + offset[row]] == at[row] + 1]
            ab[offset[row], row] = np.where(along_c[row], uppers[c][u[row]], uppers[b][u[row]])
        factor, info = lapack.spbtrf(ab, lower=1, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"plane block of axis {a} is not positive "
                                        f"definite (info={info})")
        unknown = unknown[known]
        planes.append(_Plane(unknown, np.flatnonzero(known).astype(np.int32), A[unknown], factor))
    return planes


def _smooth(A, b, x, sweeps):
    """The block-Jacobi sweeps of A x = b in order; from zero when ``x``
    is None, so the first sweep, a ``_Line``, needs no residual."""
    for sweep in sweeps:
        x = sweep(A, b, x)
    return x


class _Multigrid:
    """Conjugate gradients for the SPD finite-volume system A x = b on
    the unknowns ``mask`` of the tensor grid ``axes``, preconditioned by
    a symmetric V(1,1)-cycle (``__call__``) whose hierarchy is built once.

    Each coarse axis is every other node of the fine one, both ends kept,
    and the coarse unknowns are the fine unknowns on coarse nodes; each
    coarse operator is ``_fv_laplacian`` of the coarse axes on those
    unknowns.  A level is the tuple (float32 operator, P, R = P^T,
    sweeps).  Coarsening stops at ``_COARSEST`` unknowns or at an axis
    of two nodes, and the coarsest system is factored.

    The smoother is block-Jacobi (omega = 1): the line blocks of every
    axis (``_line_factors``), then on a 3-D level the plane blocks of
    every axis (``_plane_blocks``), in that order before the coarse
    correction and in reverse after it, so the cycle is symmetric.  On a
    power-graded grid the cells next to the slit edge are thin in two
    directions at once, where alternating line relaxation is not a
    robust smoother and plane relaxation is (Trottenberg, Oosterlee and
    Schueller, *Multigrid*, 2001, ch. 5); the plane blocks cover those
    cells only.  A 2-D level and a uniform grid have none.  The cycle
    runs in float32 and returns float64.

    ``solve(b, x0, rtol)`` runs CG from x0 to the relative residual rtol
    (default 1e-11, absolute floor rtol * max(|b|, 1)), one cycle per
    iteration, at most ``_CYCLE_BUDGET``; NonConvergence with the cycle
    count and relative residual otherwise.  The unknowns per level, the
    setup time, the plane blocks' unknowns and padded rows per level and
    each solve's cycles, rtol and residual go to DEBUG.
    """

    def __init__(self, A, axes: list, mask: np.ndarray):
        t0 = time.perf_counter()
        self.A = A
        self.levels = []
        while A.shape[0] > _COARSEST and min(map(len, axes)) > 2:
            # every other node of each axis, both ends kept
            idx = [np.unique(np.append(np.arange(0, len(a), 2), len(a) - 1)) for a in axes]
            coarse_axes = [a[i] for a, i in zip(axes, idx)]
            coarse_mask = mask[np.ix_(*idx)]
            P = _prolongation(axes, idx, mask, coarse_mask)
            A32 = A.astype(np.float32)
            number, diag, uppers = _couplings(A32, mask)
            sweeps = (_line_factors(number, diag, uppers)
                      + _plane_blocks(A32, axes, number, diag, uppers))
            self.levels.append((A32, P, P.T.tocsr(), sweeps))
            keep = coarse_mask.ravel()
            A = -_fv_laplacian(coarse_axes)[1][keep][:, keep]
            axes, mask = coarse_axes, coarse_mask
        self.unknowns = [lv[0].shape[0] for lv in self.levels] + [A.shape[0]]
        # sparse LU of the coarsest level, with a symmetric ordering on
        # A^T + A and no pivoting, which keeps the factor small
        self.coarsest = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        _LOG.debug("linear solver: multigrid-cg, unknowns per level %s, setup %.3f s",
                   "/".join(map(str, self.unknowns)), time.perf_counter() - t0)
        planes = [[s for s in lv[3] if isinstance(s, _Plane)] for lv in self.levels] + [[]]
        _LOG.debug("plane blocks: unknowns per level %s, padded %s",
                   "/".join(str(sum(len(p.unknowns) for p in ps)) for ps in planes),
                   "/".join(str(sum(p.factor.shape[1] for p in ps)) for ps in planes))

    def __call__(self, b):
        b = b.astype(np.float32)
        down = []
        for A, _, R, sweeps in self.levels:
            x = _smooth(A, b, None, sweeps)
            down.append((b, x))
            b = R @ (b - A @ x)
        e = self.coarsest.solve(b).astype(np.float32)
        for (A, P, _, sweeps), (b, x) in zip(self.levels[::-1], down[::-1]):
            x += P @ e
            e = _smooth(A, b, x, sweeps[::-1])
        return e.astype(np.float64)

    def solve(self, b, x0=None, rtol=1e-11):
        bnorm = np.linalg.norm(b)
        iterations = 0

        def count(xk):
            nonlocal iterations
            iterations += 1

        # built per solve: stored on self, it would be a reference cycle
        M = spla.LinearOperator(self.A.shape, matvec=self, dtype=np.float64)
        x, info = spla.cg(self.A, b, rtol=rtol, atol=rtol * max(bnorm, 1.0),
                          maxiter=_CYCLE_BUDGET, M=M, x0=x0, callback=count)
        resid = np.linalg.norm(b - self.A @ x) / max(bnorm, 1e-300)
        _LOG.debug("cg: %d iterations, rtol %.0e, relative residual %.2e",
                   iterations, rtol, resid)
        if info != 0:
            raise NonConvergence(f"conjugate gradients stalled after {iterations} cycles "
                                 f"(info={info}, relative residual {resid:.2e})")
        return x


# ----------------------------------------------------------------------
# Singularity splitting
# ----------------------------------------------------------------------

def _poly_columns(n: int, degree: int):
    """Multi-index/r-power keys of total degree <= degree, sorted."""
    return [(mu, m) for deg in range(degree + 1) for m in range(deg + 1)
            for mu in _indices_of_degree(n, deg - m)]


def _vandermonde(keys, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Columns x^mu r^m, one per key, at the sample points (x, r)."""
    B = np.empty((len(r), len(keys)))
    for j, (mu, m) in enumerate(keys):
        c = _xpow(x.T, mu)
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


def _laplacian_d(geom: SlitGeometry, foot: np.ndarray, d: np.ndarray):
    """Delta d at points with foot parameter ``foot`` and signed distance
    ``d``: curvature of the parallel curves through the foot point, zero
    for flat geometry."""
    if geom.flat:
        return np.zeros_like(d)
    gp = np.asarray(geom.dg(foot), dtype=float)
    gpp = np.asarray(geom.d2g(foot), dtype=float)
    kap0 = gpp / (1.0 + gp**2) ** 1.5
    return -kap0 / (1.0 - kap0 * d)


def _split_field_and_laplacian(sol: GridSolution, keys, coef):
    """S = chi(r) U0 P(x, r) for a polynomial P, with the exact
    continuous Laplacian of S evaluated from the frame fields.

    Rests on the pointwise identities |grad r| = 1,
    grad r . grad U0 = U0/(2r), Delta r = (1 + d Delta d)/r,
    Delta U0 = (Delta d / 2) U0/r, grad_x U0 = nu U0/(2r), and
    grad x^mu . grad r = sum_i mu_i x^(mu-i) d nu^i / r.

    S and its Laplacian vanish where the cutoff does (r >= _CHI_B), so
    both are evaluated on the cutoff's support only and are zero
    elsewhere.
    """
    fr = sol.node_frames()
    support = fr["r"] < _CHI_B
    r, d, u0, nu = (fr[key][support] for key in ("r", "d", "u0", "nu"))
    xs = fr["x"][support].T
    lap_d = _laplacian_d(sol.geom, fr["foot"][support], d)

    inv_r = np.where(r > 0, 1.0 / np.where(r > 0, r, 1.0), 0.0)
    # the jet products edge_bracket reads, formed once for every monomial
    d_lap_d, nu, d_nu = d * lap_d, nu.T, d * nu.T

    P = np.zeros_like(r)
    bracket = np.zeros_like(r)       # Delta(U0 P) = (U0/r) * bracket
    radial = np.zeros_like(r)        # grad r . grad(U0 P) = U0 * radial
    for (mu, m), a in zip(keys, coef):
        if a == 0.0:
            continue
        # per-monomial caches: the bracket, P and the radial term share
        # these node powers, and a grid-wide cache would cost memory
        xpow = functools.cache(lambda k: _xpow(xs, k))
        rpow = functools.cache(lambda j: r**j)

        def term(c, x_a, j, f):
            t = c * xpow(x_a) * rpow(j)
            return t if f is None else t * f

        xmu = xpow(mu)
        rm1 = rpow(m - 1) if m >= 1 else inv_r
        P += a * xmu * rpow(m)
        bracket += a * sum(term(*t) for t in edge_bracket(mu, m, 0.5, lap_d, d_lap_d, nu, d_nu))
        grad_mu_nu = sum(e * xpow(_bump(mu, i, -1)) * nu[i] for i, e in enumerate(mu) if e)
        radial += a * (xmu * (m + 0.5) * rm1 + rm1 * d * grad_mu_nu)

    chi, chi1, chi2 = cutoff(r)
    lap_r = (1.0 + d_lap_d) * inv_r

    S = np.zeros(support.shape)
    lap_S = np.zeros(support.shape)
    S[support] = chi * u0 * P
    lap_S[support] = np.where(r == 0.0, 0.0, chi * u0 * inv_r * bracket
                              + 2.0 * chi1 * u0 * radial
                              + (chi2 + chi1 * lap_r) * u0 * P)
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

    The returned values come from a solve to rtol 1e-11: the one solve of
    ``split=False``, the final remainder solve of ``split=True``.  The two
    earlier solves of a split call only feed the fit of u/U0 and stop at
    rtol ``_FIT_RTOL`` (1e-6).
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
    # the node meshgrid is not needed through the frames, hierarchy and solves
    del grids, coords, phi_vals

    vol, L = _fv_laplacian(axes)
    inner = interior.ravel()
    L = L[inner]
    A, B = -L[:, inner], L[:, ~inner]
    del L  # the node-wide operator is not needed through the solves
    if split:
        # the fit reads the frames; built before the hierarchy, their
        # peak does not stack on it
        sol.node_frames()
    solve = _Multigrid(A, axes, interior).solve

    def run(dirichlet, rhs_field, rtol, x0=None):
        out = dirichlet.copy()
        out[interior] = solve(B @ dirichlet.ravel()[~inner] - (vol * rhs_field)[interior],
                              x0=x0, rtol=rtol)
        out[slit] = 0.0
        return out

    # a solve that only feeds the split fit stops at _FIT_RTOL: the fit
    # needs u to far less than 1e-11, and only the final solve is returned
    sol.values = run(diri_vals, rhs, _FIT_RTOL if split else 1e-11)
    if not split:
        return sol

    # iterate fit -> resolve: the first fit inherits the unsplit
    # O(h^(1/2)) error, the second works from a much better solution
    r_lo = max(0.02, 6 * sol.local_h())
    r_hi = max(0.12, 2.5 * r_lo)
    for rtol in (_FIT_RTOL, 1e-11):
        keys, coef = _fit_split_coefficients(sol, r_lo, r_hi)
        S, lap_S = _split_field_and_laplacian(sol, keys, coef)
        S = S.reshape(dims)
        lap_S = lap_S.reshape(dims)
        v_diri = np.where(outer, diri_vals - S, 0.0)
        # the remainder v = u - S starts from the current u less the new S
        v = run(v_diri, rhs - lap_S, rtol, (sol.values - S)[interior])
        sol.values = v + S
        sol.values[slit] = 0.0
        sol.values[outer] = diri_vals[outer]
    return sol


# ----------------------------------------------------------------------
# Barrier and energy
# ----------------------------------------------------------------------

def check_barrier(geom: SlitGeometry, h: float = 2**-6) -> float:
    """min over off-slit nodes of r * Delta_h(-U0 + U0^2).

    Delta_h is the solve's own operator, L / vol from ``_fv_laplacian``:
    the net face flux sum T * (jump across the face) over the cell
    volume, which at z = 0 is the even reflection through the half cell.
    The continuum object satisfies Delta(-U0 + U0^2) = 2|grad U0|^2 =
    (1/2) r^{-1} for flat geometry, so the minimum should be a positive
    constant, stably in h.  Nodes with r < 4h are excluded: within O(h)
    of the edge the discrete Laplacian of the r^{1/2} profile is
    dominated by an O(h^{-1/2}) stencil artifact of either sign, which
    the continuum estimate does not control.  So is the slit itself
    (z = 0, d < 0), where the stencil reaches across the jump, and every
    node with |X| >= 0.9, which takes in the box faces.
    """
    axes = make_axes(geom.n, h, None)
    fr = _grid_frames(geom, axes)
    vol, L = _fv_laplacian(axes)
    u0 = fr["u0"]
    lap = (L @ (-u0 + u0**2)) / vol.ravel()

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
    is the five-point stencil with tip splitting; along an axis that
    meets the circle both arms take Shortley-Weller weights, so the
    error next to the circle is second order in h.  The split right-hand
    side is linear in the fitted tip coefficient, so one sparse LU solve
    with two right-hand sides serves both the plain and the split system.
    """
    if not -1.0 < gamma < 1.0:
        raise ValueError("tip must be inside the disc")
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
    # y = 0 node is reflected to y = h (even symmetry).  An arm ends at
    # the neighbour (length 1) or, where that is outside, on the circle
    # (length alpha < 1).  Along each axis the arm of length alpha_+- has
    # Shortley-Weller's weight 2 / (alpha_+- (alpha_+ + alpha_-) h^2): it
    # adds to the diagonal, and off it for an unknown neighbour; a slit
    # neighbour has zero data, and circle data moves to the rhs.
    i, j = ii
    x, y = xs[i], ys[j]
    arms = []   # per direction: its step, neighbours, circle-arm unknowns, arm lengths
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        nb = (i + di, np.abs(j + dj))
        k = np.nonzero(~inside[nb])[0]
        # arm to the circle: fractional length alpha*h, where the ray
        # meets x^2 + y^2 = 1
        xa, ya = x[k], y[k]
        alpha = np.ones(nun)
        if di:
            alpha[k] = (np.sqrt(1.0 - ya**2) - di * xa) / h
        else:
            alpha[k] = (np.sqrt(1.0 - xa**2) - dj * ya) / h
        alpha[k] = np.maximum(alpha[k], 1e-6)
        arms.append((di, dj, nb, k, alpha))
    diag, b = np.zeros(nun), np.zeros(nun)
    rows, cols, vals = [np.arange(nun)], [np.arange(nun)], []
    for d, (di, dj, nb, k, alpha) in enumerate(arms):
        # the opposite direction is d ^ 1
        weight = 2.0 / (alpha * (alpha + arms[d ^ 1][-1]) * h**2)
        diag += weight
        coupled = np.nonzero(idx[nb] >= 0)[0]
        rows.append(coupled)
        cols.append(idx[nb][coupled])
        vals.append(-weight[coupled])
        # the circle data at the arm points, moved to the right-hand side
        xb, yb = x[k] + di * alpha[k] * h, y[k] + dj * alpha[k] * h
        g = np.array([phi(math.atan2(q, p)) for p, q in zip(xb.tolist(), yb.tolist())],
                     dtype=float)
        b[k] += weight[k] * g
    A = sparse.coo_matrix((np.concatenate([diag] + vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(nun, nun)).tocsc()

    def tip(uflat, r_lo, r_hi):
        """Coefficient of U0 in the fit uflat ~ U0 (c + c_d d + c_r r)."""
        r, d, w0 = rgt[ii], dgt[ii], u0g[ii]
        sel = (r >= r_lo) & (r <= r_hi) & (w0 > 0)
        return float(_lstsq_poly(1, 1, d[sel][:, None], r[sel], uflat[sel], scale=w0[sel])[1][0])

    # S = c S1 with S1 = chi U0 about the tip.  v = u_f - S solves
    # A v = b + c b_S1 with b_S1 = Delta S1, so v = u + c w for the
    # solutions u, w of the two columns.  S1 has no circle data to move:
    # chi vanishes beyond b_cut <= 2 (1 - |gamma|) / 3, inside the
    # distance 1 - |gamma| from the tip to the circle.
    a_cut = min(0.125, (1.0 - abs(gamma)) / 3.0)
    b_cut = 2.0 * a_cut
    chi, chi1, chi2 = cutoff(rgt, a_cut, b_cut)
    S1 = (chi * u0g)[ii]
    with np.errstate(divide="ignore", invalid="ignore"):
        lap_S1 = u0g * (chi2 + 2.0 * chi1 / np.where(rgt > 0, rgt, 1.0))
    b_S1 = np.where(rgt == 0, 0.0, lap_S1)[ii]
    # the grid-sized cutoff and arm arrays are not needed through the solve
    del chi, chi1, chi2, lap_S1, arms
    # A's pattern is symmetric, and a symmetric ordering keeps the factor small
    u, w_S1 = spla.spsolve(A, np.column_stack([b, b_S1]), permc_spec="MMD_AT_PLUS_A").T
    r_lo, r_hi = max(0.02, 6 * h), 0.08
    c = tip(u, r_lo, max(r_hi, 2.5 * r_lo))
    uf = u + c * (w_S1 + S1)
    U = np.zeros((nx, ny))
    U[ii] = uf
    return tip(uf, 4 * h, 24 * h), (xs, ys, U)
